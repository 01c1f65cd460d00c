"""The benchmark's traced launcher still finds every program name it rebinds.

bench/launch.py wraps named functions of trapscope.cli, .dynamics and
.landscape to record spans; renaming or removing one of them makes the
launcher fail before the command runs.  These runs use a tiny instance so the
check takes about a second.
"""

import json
import os
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LAUNCH = os.path.join(REPO_ROOT, "bench", "launch.py")

TINY_CONFIG = """\
N = 3
a = 1
b = 0
v = 1, 1
T = 6.283185307179586
lambda = 1, -1, 0
M = 8
directions = 2
witness_budget = 2
"""


@pytest.mark.parametrize(
    "command, spans",
    [
        (
            ["certify"],
            # dynamics.propagate is not among them: certify takes J(0) = lambda_N.
            {
                "dynamics.objective",
                "dynamics.dyson_forms",
                "landscape.taylor_fit",
                "landscape.trap_certificate",
            },
        ),
        (["scan", "--points", "5"], {"dynamics.objective", "numerics.unitarity_defect"}),
    ],
)
def test_traced_launch_records_program_spans(tmp_path, command, spans):
    config = tmp_path / "tiny.cfg"
    config.write_text(TINY_CONFIG)
    marks = tmp_path / "marks.json"
    out = tmp_path / "out"
    src = os.path.join(REPO_ROOT, "src")
    pythonpath = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, LAUNCH, str(marks), "1", "--", command[0], str(config), *command[1:], "--out", str(out)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=pythonpath),
        cwd=tmp_path,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    recorded = {span[1] for span in json.loads(marks.read_text())["spans"]}
    assert spans <= recorded
