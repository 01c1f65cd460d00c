"""The package is the certifier alone: the test oracles stay in tests/."""

import ast
import json
import os
import subprocess
import sys

import pytest

import trapscope

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")


def test_cli_import_leaves_the_oracles_out():
    # run from tests/, where `import oracles` would succeed, so only
    # sys.modules can tell whether the package pulled it in
    code = "import json, sys, trapscope.cli; print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
        cwd=TESTS,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert "trapscope.cli" in loaded
    assert "oracles" not in loaded


def test_commands_never_load_numpy_random(tmp_path):
    # The probe directions draw from the package's own copy of numpy's PCG64 stream; loading
    # numpy.random (and OpenSSL with it) would cost every process 10-15 ms.
    example = os.path.join(os.path.dirname(TESTS), "examples", "n3.cfg")
    control = tmp_path / "f.ctl"
    control.write_text("T 6.283185307179586\nM 4\n1\n0.5\n-0.5\n-1\n")
    code = (
        "import sys\n"
        "from trapscope import cli\n"
        "example, control = sys.argv[1:]\n"
        "for argv in (['certify', example, '--out', 'r.json'], ['scan', example, '--out', 's.csv', '--points', '11'],\n"
        "             ['differential', example, '--control', control, '--order', '4'], ['controllability', example]):\n"
        "    assert cli.main(argv) == 0, argv\n"
        "print('numpy' in sys.modules, 'numpy.random' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, example, str(control)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
        cwd=tmp_path,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "True False"


@pytest.mark.parametrize("threads, expected", [(None, "1"), ("2", "2")])
def test_import_defaults_to_one_blas_thread(threads, expected):
    # OpenBLAS loads with `expected` threads: the caller's
    # OPENBLAS_NUM_THREADS, or one where it is unset.  The package sets the
    # variable only while its imports load numpy, so afterwards the
    # environment, which the caller's child processes inherit, is as the
    # caller left it.  At one thread /proc/self/task lists the main thread
    # alone, even after a product large enough to wake every BLAS worker.
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    code = (
        "import json, os, sys, trapscope, numpy as np\n"
        "a = np.ones((800, 800)); a @ a\n"
        "tasks = len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else None\n"
        "print(json.dumps(['numpy' in sys.modules, os.environ.get('OPENBLAS_NUM_THREADS'), tasks]))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded, variable, tasks = json.loads(proc.stdout)
    assert loaded
    assert variable == threads
    if expected == "1":
        if tasks is None:
            pytest.skip("no /proc/self/task to count threads")
        assert tasks == 1


def test_every_public_name_resolves():
    assert len(set(trapscope.__all__)) == len(trapscope.__all__)
    for name in trapscope.__all__:
        assert getattr(trapscope, name) is not None, name


def test_oracles_import_only_numpy_and_the_package():
    with open(os.path.join(TESTS, "oracles.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import"
            imported.add(node.module.split(".")[0])
    assert imported - sys.stdlib_module_names == {"numpy", "trapscope"}
