import gc
import json
import math
import os
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

from trapscope import cli, dynamics, landscape
from trapscope.cli import RunConfig, build_problem, main, parse_config
from trapscope.dynamics import objective, propagate
from trapscope.errors import ConfigError
from trapscope.landscape import probe_directions

from oracles import constant, write_control_file

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(autouse=True)
def _unfreeze_heap():
    # main() freezes the heap it finds (gc.freeze), here pytest's; undo that
    # after each test so one test's objects do not stay uncollectable for the
    # rest of the session.
    yield
    gc.unfreeze()


def run_trapscope(*args, **env):
    """Run `python -m trapscope ARGS` in a child process with src/ on the path
    and each keyword set as an environment variable."""
    src = os.path.join(ROOT, "src")
    pythonpath = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "trapscope", *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=pythonpath, **env),
        timeout=60,
    )


def write_config(path, **overrides):
    base = {
        "N": "3",
        "a": "1",
        "b": "0",
        "v": "1, 1",
        "T": "6.283185307179586",
        "lambda": "1, -1, 0",
        "M": "16",
        "directions": "2",
        "seed": "7",
        "witness_budget": "10",
    }
    base.update(overrides)
    lines = [f"{k} = {v}" for k, v in base.items() if v is not None]
    path.write_text("# test config\n" + "\n".join(lines) + "\n")
    return str(path)


def test_parse_config_round_trip(tmp_path):
    # parse_config builds the instance once; build_problem hands it on.
    cfg = parse_config(write_config(tmp_path / "ok.cfg"))
    assert [f.name for f in fields(RunConfig)] == ["instance", "certificate"]
    sys_ = cfg.instance.system
    assert (sys_.levels, sys_.a, sys_.b, sys_.horizon) == (3, 1.0, 0.0, 6.283185307179586)
    assert sys_.couplings == (1.0, 1.0)
    assert cfg.instance.observable.eigenvalues == (1.0, -1.0, 0.0)
    assert build_problem(cfg) is cfg.instance
    assert cfg.certificate.segments == 16
    assert cfg.certificate.witness_horizons is None


def test_parse_config_horizons_list(tmp_path):
    cfg = parse_config(write_config(tmp_path / "h.cfg", witness_horizons="6.28, 12.56"))
    assert cfg.certificate.witness_horizons == (6.28, 12.56)


def test_parse_config_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("N = 3\nbogus = 1\n")
    with pytest.raises(ConfigError, match="line 2"):
        parse_config(str(path))
    path.write_text("N = 3\nN = 4\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(str(path))
    path.write_text("N = 3\n")
    with pytest.raises(ConfigError, match="missing required"):
        parse_config(str(path))
    path.write_text("N = 3\na 1\n")
    with pytest.raises(ConfigError, match="line 2"):
        parse_config(str(path))


def test_substeps_key_is_unknown(tmp_path, capsys):
    # the forms are an exact series, so there is no step count to set
    cfg = write_config(tmp_path / "old.cfg", substeps="8")
    keys = [ln.split("=")[0].strip() for ln in (tmp_path / "old.cfg").read_text().splitlines()]
    lineno = 1 + keys.index("substeps")
    assert main(["controllability", cfg]) == 1
    assert capsys.readouterr().err == f"error: ConfigError: line {lineno}: unknown key 'substeps'\n"


def test_out_key_is_unknown(tmp_path, monkeypatch, capsys):
    # the report path is set only by certify --out
    cfg = write_config(tmp_path / "old.cfg", out="x")
    keys = [ln.split("=")[0].strip() for ln in (tmp_path / "old.cfg").read_text().splitlines()]
    lineno = 1 + keys.index("out")
    monkeypatch.chdir(tmp_path)
    assert main(["certify", cfg]) == 1
    assert capsys.readouterr().err == f"error: ConfigError: line {lineno}: unknown key 'out'\n"
    assert not (tmp_path / "x").exists()


def test_certify_writes_report_json_by_default(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path / "c.cfg")
    monkeypatch.chdir(tmp_path)
    assert main(["certify", cfg]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "report written to report.json"
    assert json.loads((tmp_path / "report.json").read_text())["passed"] is True


@pytest.mark.parametrize(
    "key, value",
    [
        ("seed", "-5"),
        ("witness_horizons", ""),
        ("witness_horizons", "0"),
        ("witness_budget", "0"),
        ("N", "three"),
        ("v", "1,,1"),
        ("lambda", "1, -1, 0,"),
        ("witness_horizons", "6.28,"),
    ],
)
def test_parse_config_rejects_out_of_range_values_by_line(tmp_path, key, value):
    path = write_config(tmp_path / "bad.cfg", **{key: value})
    keys = [ln.split("=")[0].strip() for ln in (tmp_path / "bad.cfg").read_text().splitlines()]
    lineno = 1 + keys.index(key)
    with pytest.raises(ConfigError, match=f"line {lineno}: .*{key}"):
        parse_config(path)


def test_certify_reference_instance(tmp_path, capsys):
    cfg = write_config(tmp_path / "n3.cfg", directions="4", witness_budget="25")
    out = tmp_path / "report.json"
    code = main(["certify", cfg, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "overall: PASS" in captured.out
    payload = json.loads(out.read_text())
    assert payload["schema"] == "trapscope/4"
    assert payload["claimed_order"] == 3
    assert payload["passed"] is True


def test_certify_degenerate_spectrum_is_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path / "bad.cfg", a="1", b="1")
    code = main(["certify", cfg, "--out", str(tmp_path / "r.json")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "error: DegenerateSpectrum: a=1.0 and b=1.0 must differ\n"
    assert not (tmp_path / "r.json").exists()


def test_certify_ordering_violation_is_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path / "bad.cfg", **{"lambda": "0, -1, 0"})
    code = main(["certify", cfg, "--out", str(tmp_path / "r.json")])
    captured = capsys.readouterr()
    assert code == 1
    assert "OrderingViolation" in captured.err


@pytest.mark.parametrize(
    "overrides, error",
    [
        ({"a": "nan"}, "DomainError"),
        ({"b": "nan"}, "DomainError"),
        ({"T": "inf"}, "BadDimension"),
        ({"lambda": "1, nan, -1, 0"}, "DomainError"),
        ({"lambda": "1, inf, -1, 0"}, "DomainError"),
        ({"a": "1e308", "b": "-1e308"}, "DomainError"),
    ],
)
def test_certify_non_finite_instance_value_is_usage_error(tmp_path, capsys, overrides, error):
    cfg = write_config(tmp_path / "bad.cfg", N="4", v="1, 1, 1", **{"lambda": "1, 0.3, -1, 0", **overrides})
    code = main(["certify", cfg, "--out", str(tmp_path / "r.json")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith(f"error: {error}")


def test_certify_overflowed_series_fails_its_stage(tmp_path):
    # The series of a = 1e300 overflows to NaN; the self-check must stop the
    # run in the directions stage, before the contour, whose substep count
    # grows with dt |a - b|, would run for ever.  A child process with a
    # timeout keeps a regression from hanging the suite.
    cfg = write_config(tmp_path / "huge.cfg", a="1e300", M="8")
    out = tmp_path / "r.json"
    proc = run_trapscope("certify", cfg, "--out", str(out))
    assert proc.returncode == 2, proc.stdout + proc.stderr
    stage = json.loads(out.read_text())["failed_stage"]
    assert stage.startswith("directions: SeriesCheckFailed") and "nan" in stage


@pytest.mark.parametrize(
    "v, stage",
    [
        # the predicted c_2, resp. c_4, underflows to 0.0 in float64
        ("1, 1e-170", "checks: DomainError: mean_descent"),
        ("1e-170, 1", "checks: DomainError: order_2N2_match"),
        # the series coefficients C_k, k >= 3, underflow to 0.0 in float64
        ("1e-150, 1e-150", "directions: DomainError"),
    ],
)
def test_certify_unresolvable_couplings_fail_their_stage(tmp_path, capsys, v, stage):
    cfg = write_config(tmp_path / "tiny.cfg", v=v)
    out = tmp_path / "r.json"
    assert main(["certify", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert f"failed stage: {stage}" in captured.out
    assert json.loads(out.read_text())["failed_stage"].startswith(stage)


@pytest.mark.parametrize(
    "budget, line",
    [
        # On T = 0.5 the walk of seed 7's two probes misses at amplitude
        # tau = 1000; with budget 10 it steps tau over 1000, 10, 100, 1, 316
        # and hits on probe 1 at tau = 100, its 6th control.
        pytest.param(
            "2", "  witness horizon 0.5: best J 0.00363029 on probe 0 at t 3311.02 of 2 evaluations (miss)", id="miss"
        ),
        pytest.param(
            "10", "  witness horizon 0.5: first hit J 0.996001 on probe 1 at t 340.667 after 6 evaluations", id="hit"
        ),
    ],
)
def test_certify_summary_names_the_witness_outcome(tmp_path, capsys, budget, line):
    cfg = write_config(tmp_path / "n3.cfg", T="0.5", witness_budget=budget)
    assert main(["certify", cfg, "--out", str(tmp_path / "r.json")]) == 0
    assert line in capsys.readouterr().out.splitlines()


def test_certify_summary_shows_the_half_that_failed(tmp_path, capsys):
    # With lambda scaled by 1e8 the analytic c_1 still reads exactly 0, and
    # stationarity fails on its fitted half, whose threshold is absolute in
    # J's units (max |c_1| about 3e-8 against 1e-8).  The summary line carries
    # that half as the check's float extras, formatted from the report's own.
    with open(os.path.join(ROOT, "examples", "n4.cfg"), encoding="utf-8") as fh:
        text = fh.read()
    cfg = tmp_path / "n4.cfg"
    cfg.write_text(text.replace("lambda = 1, 0.3, -1, 0\n", "lambda = 1e8, 3e7, -1e8, 0\n"))
    out = tmp_path / "r.json"
    assert main(["certify", str(cfg), "--out", str(out)]) == 2
    check = {c["name"]: c for c in json.loads(out.read_text())["checks"]}["stationarity"]
    extras = check["extras"]
    assert not check["passed"] and check["measured"] <= check["threshold"]
    assert extras["max_fitted_c1"] > extras["fitted_c1_threshold"]
    line = (
        f"  [FAIL] stationarity: measured {check['measured']:.6g} vs threshold {check['threshold']:.6g}"
        f" max_fitted_c1 {extras['max_fitted_c1']:.6g} fitted_c1_threshold {extras['fitted_c1_threshold']:.6g}"
    )
    assert line in capsys.readouterr().out.splitlines()


def test_certify_reports_are_deterministic(tmp_path):
    cfg = write_config(tmp_path / "n3.cfg", directions="4", witness_budget="10")
    outs = []
    for name in ("a.json", "b.json", "c.json"):
        out = tmp_path / name
        assert main(["certify", cfg, "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_certify_report_does_not_depend_on_blas_threads(tmp_path):
    cfg = os.path.join(ROOT, "examples", "n4.cfg")
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"r{threads}.json"
        proc = run_trapscope("certify", cfg, "--out", str(out), OPENBLAS_NUM_THREADS=threads)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_main_freezes_the_import_heap(tmp_path):
    # By the time main parses the config, every object alive and tracked after
    # the import is in the permanent generation, so collections during the run
    # and at exit skip it.  The collect first drops the import's garbage, which
    # need not survive; the count is read at parse_config because frozen
    # objects that die during the run leave the permanent generation.
    code = (
        "import gc, sys, trapscope.cli as cli\n"
        "gc.collect()\n"
        "tracked = len(gc.get_objects())\n"
        "parse_config, frozen = cli.parse_config, []\n"
        "cli.parse_config = lambda path: frozen.append(gc.get_freeze_count()) or parse_config(path)\n"
        "status = cli.main(['certify', sys.argv[1], '--out', sys.argv[2]])\n"
        "print(status, tracked, *frozen)\n"
    )
    cfg = os.path.join(ROOT, "examples", "n3.cfg")
    proc = subprocess.run(
        [sys.executable, "-c", code, cfg, str(tmp_path / "r.json")],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    status, tracked, frozen = map(int, proc.stdout.split()[-3:])
    assert status == 0
    assert frozen >= tracked > 0


def test_differential_command_reference_values(tmp_path, capsys):
    # T = 1 instance with f == 1: order 1 -> 0, order 2 -> -1
    cfg = write_config(tmp_path / "c.cfg", T="1")
    control = tmp_path / "f.txt"
    write_control_file(control, constant(1.0, 1.0, 16))

    code = main(["differential", cfg, "--control", str(control), "--order", "1"])
    out1 = capsys.readouterr().out
    assert code == 0
    analytic1 = float(out1.split("analytic")[1].split()[0])
    assert abs(analytic1) <= 1e-10

    code = main(["differential", cfg, "--control", str(control), "--order", "2"])
    out2 = capsys.readouterr().out
    assert code == 0
    analytic2 = float(out2.split("analytic")[1].split()[0])
    fitted2 = float(out2.split("fitted")[1].split()[0])
    assert analytic2 == pytest.approx(-1.0, abs=1e-10)
    assert fitted2 == pytest.approx(-1.0, rel=1e-3)


def test_differential_command_overflowed_control_is_usage_error(tmp_path):
    # At amplitude 1e200, f^4 overflows float64, which the forms refuse
    # before computing.  A child process, so that any numpy overflow warning
    # would show on its stderr instead of being an error under this suite's
    # settings.
    cfg = write_config(tmp_path / "c.cfg")
    control = tmp_path / "f.txt"
    control.write_text("T 6.283185307179586\nM 4\n1e200\n0.5\n-0.5\n-1\n")
    proc = run_trapscope("differential", cfg, "--control", str(control), "--order", "2")
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert proc.stderr.splitlines()[-1].startswith("error: DomainError: control amplitude 1.000e+200")
    assert proc.stderr.splitlines()[-1].endswith("not resolvable")
    assert "analytic" not in proc.stdout


def test_differential_command_order_too_high(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.cfg", T="1")
    control = tmp_path / "f.txt"
    write_control_file(control, constant(1.0, 1.0, 16))
    code = main(["differential", cfg, "--control", str(control), "--order", "9"])
    captured = capsys.readouterr()
    assert code == 1
    assert "InsufficientOrder" in captured.err


def test_differential_command_malformed_control_is_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.cfg", T="1")
    control = tmp_path / "f.txt"
    control.write_text("T 1\nM 2\n0.5\nnot-a-number\n")
    code = main(["differential", cfg, "--control", str(control), "--order", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: ConfigError")


def test_differential_command_appends_csv(tmp_path):
    # The header goes to a file that is absent or empty, once.
    cfg = write_config(tmp_path / "c.cfg", T="1")
    control = tmp_path / "f.txt"
    write_control_file(control, constant(1.0, 1.0, 16))
    (tmp_path / "empty.csv").touch()
    for name in ("rows.csv", "empty.csv"):
        csv_path = tmp_path / name
        assert main(["differential", cfg, "--control", str(control), "--order", "2", "--csv", str(csv_path)]) == 0
        assert main(["differential", cfg, "--control", str(control), "--order", "1", "--csv", str(csv_path)]) == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "N,order,analytic,fitted,discrepancy", name
        assert [line.split(",")[:2] for line in lines[1:]] == [["3", "2"], ["3", "1"]], name


def test_scan_row_count_and_determinism(tmp_path):
    cfg = write_config(tmp_path / "c.cfg")
    out = tmp_path / "scan.csv"
    assert main(["scan", cfg, "--out", str(out), "--points", "11"]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "seed,mean_zero,t,J"
    assert len(lines) == 1 + 2 * 11  # header + directions * points
    first = out.read_bytes()
    assert main(["scan", cfg, "--out", str(out), "--points", "11"]) == 0
    assert out.read_bytes() == first
    # the temporary file the rows went to became --out, with the mode a plain
    # open() gives a new file
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.cfg", "scan.csv"]
    umask = os.umask(0)
    os.umask(umask)
    assert out.stat().st_mode & 0o777 == 0o666 & ~umask


@pytest.mark.parametrize("rows", [1, 3, 11])
def test_scan_writes_the_same_bytes_in_any_write_size(tmp_path, monkeypatch, rows):
    # cmd_scan formats each probe's rows _WRITE_ROWS at a time; slices of 1,
    # 3 (the last one short) or all 11 rows give the file of one slice.
    cfg = write_config(tmp_path / "c.cfg")
    out = tmp_path / "scan.csv"
    assert main(["scan", cfg, "--out", str(out), "--points", "11"]) == 0
    whole = out.read_bytes()
    monkeypatch.setattr(cli, "_WRITE_ROWS", rows)
    assert main(["scan", cfg, "--out", str(out), "--points", "11"]) == 0
    assert out.read_bytes() == whole


def test_scan_leaves_the_process_umask_alone(tmp_path, monkeypatch):
    # The kernel applies the umask when the rows' file is created, so scan
    # never reads it by setting it, which would change it process-wide.
    cfg = write_config(tmp_path / "c.cfg")

    def refuse(mask):
        raise AssertionError(f"scan called os.umask({mask:#o})")

    monkeypatch.setattr(os, "umask", refuse)
    assert main(["scan", cfg, "--out", str(tmp_path / "scan.csv"), "--points", "3"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.cfg", "scan.csv"]


@pytest.mark.parametrize("tmax", ["nan", "inf", "0"])
def test_scan_rejects_bad_tmax_before_writing(tmp_path, capsys, tmax):
    cfg = write_config(tmp_path / "c.cfg")
    out = tmp_path / "scan.csv"
    assert main(["scan", cfg, "--out", str(out), "--tmax", tmax]) == 1
    assert capsys.readouterr().err.startswith("error: ConfigError")
    assert not out.exists()


@pytest.mark.parametrize("tmax, points", [("1e308", "11"), ("1.7e308", "3")])
def test_scan_refuses_a_grid_that_overflows(tmp_path, capsys, tmax, points):
    # tmax itself is finite, but the grid's outer points overflow to +-inf; the
    # route guard's substep plan is then not finite, so the block goes to the
    # eigenvalue route, which refuses the non-finite controls.  The rows go
    # to a temporary file that replaces --out only on success, so an earlier
    # file at --out keeps its bytes, a fresh path is not created, and the
    # temporary file is removed.
    cfg = write_config(tmp_path / "c.cfg")
    out = tmp_path / "scan.csv"
    out.write_bytes(b"seed,mean_zero,t,J\n7,1,0,0.5\n")
    fresh = tmp_path / "fresh.csv"
    for path in (out, fresh):
        assert main(["scan", cfg, "--out", str(path), "--tmax", tmax, "--points", points]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: DomainError: ") and "Traceback" not in err
    assert out.read_bytes() == b"seed,mean_zero,t,J\n7,1,0,0.5\n"
    assert not fresh.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.cfg", "scan.csv"]


def test_scan_rows_probe_the_certificate_directions(tmp_path):
    # Both offset signs appear among the odd rows with four directions; each
    # row is checked at its own t, t < 0 rows included (they repeat their
    # mirror's J), on a dyadic and a non-dyadic grid.  At M = 64 every
    # segment step of every probe takes one Taylor substep, so the rows come
    # from the stacked |N> column of the direction block: they must equal that
    # _column_at call bit for bit and the independent eigenvalue route
    # objective(propagate(t f)) to 1e-13.  At M = 16 the steps are too long
    # for one substep, and the rows must equal objective(propagate(t f)) bit
    # for bit.
    for segments, column_route in (("64", True), ("16", False)):
        cfg_path = write_config(tmp_path / "c.cfg", directions="4", M=segments)
        cfg = parse_config(cfg_path)
        inst = build_problem(cfg)
        sys_ = inst.system
        probes = probe_directions(cfg.certificate, sys_.horizon)
        out = tmp_path / "scan.csv"
        for points, tmax in (("5", "0.5"), ("11", "0.7")):
            assert main(["scan", cfg_path, "--out", str(out), "--points", points, "--tmax", tmax]) == 0
            rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
            assert len(rows) == 4 * int(points)
            z = np.array([float(t) for _, _, t, _ in rows[int(points) // 2 : int(points)]])
            zs = np.broadcast_to(z, (4, z.size))
            values, _ = dynamics._as_stack(sys_, probes)
            for row in values:  # each probe's own plan picks its route
                assert (max(dynamics._taylor_substeps(sys_, row[None], z[None])[1]) == 1) == column_route
            block = dynamics.column_block(sys_.levels, z.size)
            assert block >= 4  # one _column_at call holds all four directions
            psi = dynamics._column_at(sys_, values, zs, dynamics._taylor_substeps(sys_, values, zs))
            direct = objective(psi.reshape(-1, sys_.levels, 1), inst).reshape(4, z.size)
            for seed, mz, t, j in rows:
                index = int(seed) - cfg.certificate.seed
                assert mz == str(int(index % 2 == 0))
                eigh = objective(propagate(sys_, probes[index].scaled(float(t))), inst)
                if column_route:
                    assert float(j) == direct[index][np.flatnonzero(z == abs(float(t)))[0]]
                    assert abs(float(j) - eigh) <= 1e-13
                else:
                    assert float(j) == eigh


def _count_scan_routes(monkeypatch):
    """Wrap landscape's _column_at and propagate_batch: the returned record
    lists each _column_at call as (values, z, psi, plan) and each
    propagate_batch call's controls."""
    calls = {"column": [], "eigh": []}
    column_at, propagate_batch = landscape._column_at, landscape.propagate_batch

    def counted_column_at(sys_, values, z, plan):
        psi = column_at(sys_, values, z, plan)
        calls["column"].append((values, z, psi, plan))
        return psi

    def counted_propagate_batch(sys_, values):
        calls["eigh"].append(values)
        return propagate_batch(sys_, values)

    monkeypatch.setattr(landscape, "_column_at", counted_column_at)
    monkeypatch.setattr(landscape, "propagate_batch", counted_propagate_batch)
    return calls


def test_scan_probes_take_their_own_routes(tmp_path, monkeypatch):
    # n4's 8 directions at 201 points t >= 0 and tmax 2.2 run as one block
    # of 8.  Only direction 3's own plan needs more than one Taylor substep
    # somewhere, so the block mixes routes: a block-wide plan would send
    # all eight to the eigenvalue route.  Each probe's route is its own
    # plan's: the column route exactly where _taylor_substeps on its row
    # alone gives one substep on every segment.  Each row equals its own
    # route's result bit for bit: a column-route row that of the _column_at
    # call that carried it, the other rows objective(propagate(t f)) one
    # control at a time.
    calls = _count_scan_routes(monkeypatch)
    cfg_path = os.path.join(ROOT, "examples", "n4.cfg")
    out = tmp_path / "scan.csv"
    assert main(["scan", cfg_path, "--out", str(out), "--points", "401", "--tmax", "2.2"]) == 0
    cfg = parse_config(cfg_path)
    inst = build_problem(cfg)
    sys_ = inst.system
    probes = probe_directions(cfg.certificate, sys_.horizon)
    values, _ = dynamics._as_stack(sys_, probes)
    ts = np.linspace(0.0, 2.2, 201)
    own_plan = {
        d for d, row in enumerate(values) if max(dynamics._taylor_substeps(sys_, row[None], ts[None])[1]) == 1
    }
    assert dynamics.column_block(sys_.levels, 201) == 19 and own_plan == {0, 1, 2, 4, 5, 6, 7}
    rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
    by_probe = [rows[d * 401 : (d + 1) * 401] for d in range(len(probes))]
    column_rows = {}
    for block, z, psi, _ in calls["column"]:
        js = objective(psi.reshape(-1, 4, 1), inst).reshape(z.shape)
        for row, t, j in zip(block, z, js):
            index = next(d for d, f in enumerate(probes) if np.array_equal(f.values, row))
            column_rows[index] = dict(zip(t.tolist(), j))
    assert set(column_rows) == own_plan
    assert sum(len(c) for c in calls["eigh"]) == (len(probes) - len(own_plan)) * 201
    for index, direction in enumerate(by_probe):
        assert {int(r[0]) for r in direction} == {cfg.certificate.seed + index}
        for _, _, t_text, j in direction:
            if index in column_rows:
                assert float(j) == column_rows[index][abs(float(t_text))]
            else:
                assert float(j) == objective(propagate(sys_, probes[index].scaled(float(t_text))), inst)


def test_scan_n6_runs_its_column_route_in_one_call(tmp_path, monkeypatch):
    # The benchmark's scan-n6 instance (N = 6, M = 64, 8 directions, 201
    # points t >= 0 up to 1): every probe takes the column route, and the 8 x
    # 201 = 1608 columns fit one block, column_block(6, 201) = 13 directions,
    # so the whole scan is one _column_at call and no propagate_batch call.
    calls = _count_scan_routes(monkeypatch)
    cfg = write_config(
        tmp_path / "n6.cfg", N="6", v="1, 1, 1, 1, 1", **{"lambda": "1, 0.5, 0.3, 0.1, -1, 0"}, M="64", directions="8"
    )
    out = tmp_path / "scan.csv"
    assert main(["scan", cfg, "--out", str(out), "--points", "401", "--tmax", "1.0"]) == 0
    assert dynamics.column_block(6, 201) == 13
    assert len(calls["column"]) == 1 and calls["eigh"] == []
    assert calls["column"][0][2].shape == (8, 201, 6)
    assert len(out.read_text().splitlines()) == 1 + 8 * 401


@pytest.mark.parametrize("instance, tmax", [("scan-n6", "1.0"), ("n4", "2.2")])
def test_scan_block_plan_is_taylor_substeps_on_the_block(tmp_path, monkeypatch, instance, tmax):
    # _sample_lines computes each probe's plan once, on its row alone, and
    # hands a block's _column_at call the elementwise max of its
    # column-route probes' plans.  Every step of _taylor_substeps is
    # monotone in the peak, so that max is _taylor_substeps on the block's
    # column-route rows bit for bit: on scan-n6 (8 probes, one block) and on
    # n4 at --tmax 2.2 (7 of 8 probes on the column route, one block).  The
    # probes' own plans differ, so the max is not any single probe's plan.
    calls = _count_scan_routes(monkeypatch)
    if instance == "n4":
        cfg_path = os.path.join(ROOT, "examples", "n4.cfg")
    else:
        cfg_path = write_config(
            tmp_path / "n6.cfg", N="6", v="1, 1, 1, 1, 1", **{"lambda": "1, 0.5, 0.3, 0.1, -1, 0"}, M="64", directions="8"
        )
    assert main(["scan", cfg_path, "--out", str(tmp_path / "scan.csv"), "--points", "401", "--tmax", tmax]) == 0
    sys_ = parse_config(cfg_path).instance.system
    assert len(calls["column"]) == 1
    values, z, _, plan = calls["column"][0]
    assert len(values) == {"scan-n6": 8, "n4": 7}[instance]
    own = [np.array(dynamics._taylor_substeps(sys_, row[None], z[:1])) for row in values]
    assert all(np.any(p != own[0]) for p in own[1:])
    assert np.array(plan).tobytes() == np.array(dynamics._taylor_substeps(sys_, values, z)).tobytes()


@pytest.mark.parametrize("overrides", [{"a": "1e6"}, {"tmax": "1e3"}])
def test_scan_long_steps_finish_on_the_eigenvalue_route(tmp_path, overrides):
    # The Taylor action would split each of these segment steps into about
    # 1.6e6 (a = 1e6) or 2.2e3 (t = 1e3) substeps; the route guard sends them
    # to the eigenvalue route, whose cost does not grow with the amplitude.
    # A child process with a timeout keeps a regression from hanging the suite.
    cfg = write_config(tmp_path / "c.cfg", M="8", a=overrides.get("a", "1"))
    out = tmp_path / "scan.csv"
    proc = run_trapscope("scan", cfg, "--out", str(out), "--tmax", overrides.get("tmax", "1"))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
    assert len(rows) == 2 * 11
    assert all(-1.0 <= float(j) <= 1.0 for _, _, _, j in rows)


def test_scan_and_differential_are_invariant_under_an_energy_shift(tmp_path, capsys):
    # (a, b) -> (a + 2^20, b + 2^20) keeps the gap exactly, and b is a global
    # phase: both of scan's routes (n4 at tmax 2.2 takes both) and the forms
    # read the drift H0 - b I, so the output bytes do not move.
    with open(os.path.join(ROOT, "examples", "n4.cfg"), encoding="utf-8") as fh:
        text = fh.read()
    assert "\na = 1\nb = 0\n" in text
    control = tmp_path / "f.ctl"
    control.write_text("T 6.283185307179586\nM 4\n1\n0.5\n-0.5\n-1\n")
    scans, printed = [], []
    for c in (0, 2**20):
        cfg = tmp_path / f"n4-{c}.cfg"
        cfg.write_text(text.replace("\na = 1\nb = 0\n", f"\na = {1 + c}\nb = {c}\n"))
        out = tmp_path / f"scan-{c}.csv"
        assert main(["scan", str(cfg), "--out", str(out), "--points", "401", "--tmax", "2.2"]) == 0
        scans.append(out.read_bytes())
        capsys.readouterr()
        for order in (2, 6):
            assert main(["differential", str(cfg), "--control", str(control), "--order", str(order)]) == 0
        printed.append(capsys.readouterr().out)
    assert scans[0] == scans[1]
    assert printed[0] == printed[1]


@pytest.mark.parametrize("points", [2, 10, 11, 401])
@pytest.mark.parametrize("tmax", [0.3, 0.7, 1.0, 2.5])
def test_scan_grid_is_exactly_antisymmetric(tmp_path, points, tmax):
    # t_k = -t_{p-1-k} bit for bit, so the mirrored rows share one J string
    cfg = write_config(tmp_path / "c.cfg")
    out = tmp_path / "scan.csv"
    assert main(["scan", cfg, "--out", str(out), "--points", str(points), "--tmax", repr(tmax)]) == 0
    rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
    assert len(rows) == 2 * points
    for d in range(2):
        direction = rows[d * points : (d + 1) * points]
        assert len({(seed, mz) for seed, mz, _, _ in direction}) == 1
        ts = [float(t) for _, _, t, _ in direction]
        js = [j for _, _, _, j in direction]
        assert ts[0] == -tmax and ts[-1] == tmax
        for k in range(points):
            assert ts[points - 1 - k] == -ts[k]
            assert js[points - 1 - k] == js[k]
        assert ts.count(0.0) == points % 2


def test_scan_nonzero_mean_rows_concave_near_zero(tmp_path):
    cfg = write_config(tmp_path / "c.cfg")
    out = tmp_path / "scan.csv"
    assert main(["scan", cfg, "--out", str(out), "--points", "11", "--tmax", "0.2"]) == 0
    rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
    by_seed = {}
    for seed, mz, t, j in rows:
        by_seed.setdefault((seed, mz), []).append((float(t), float(j)))
    for (seed, mz), pts in by_seed.items():
        pts.sort()
        js = [j for _, j in pts]
        mid = len(js) // 2
        if mz == "0":  # nonzero mean: negative curvature at 0
            assert js[mid - 1] < js[mid] + 1e-15 and js[mid + 1] < js[mid] + 1e-15
            assert js[0] < 0.0 and js[-1] < 0.0


def test_scan_mean_zero_rows_flat_to_leading_order(tmp_path):
    # mean-zero directions behave like t^{2N-2} near 0: J scales at least
    # quartically between t and 2t for N=3
    cfg = write_config(tmp_path / "c.cfg")
    out = tmp_path / "scan.csv"
    assert main(["scan", cfg, "--out", str(out), "--points", "9", "--tmax", "0.2"]) == 0
    rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
    j1 = j2 = None
    for seed, mz, t, j in rows:
        if mz == "1" and abs(float(t) - 0.1) < 1e-12:
            j1 = abs(float(j))
        if mz == "1" and abs(float(t) - 0.2) < 1e-12:
            j2 = abs(float(j))
    assert j1 is not None and j2 is not None
    slope = math.log(j2 / j1) / math.log(2.0)
    assert slope >= 3.3


@pytest.mark.parametrize(
    "command, head",
    [
        (["controllability", "{tmp}/missing.cfg"], "error: ConfigError: cannot read config "),
        (["differential", "{cfg}", "--control", "{control}", "--order", "0"],
         "error: ConfigError: order must be >= 1, got 0"),
        (["differential", "{cfg}", "--control", "{tmp}/missing.txt", "--order", "2"],
         "error: [Errno 2] No such file or directory: "),
        (["scan", "{cfg}", "--out", "{tmp}/scan.csv", "--points", "1"],
         "error: ConfigError: points must be >= 2, got 1"),
    ],
    ids=["unreadable-config", "order-0", "missing-control", "one-point"],
)
def test_usage_errors_exit_1_with_one_line(tmp_path, capsys, command, head):
    cfg = write_config(tmp_path / "c.cfg", T="1")
    control = tmp_path / "f.txt"
    write_control_file(control, constant(1.0, 1.0, 16))
    args = [arg.format(tmp=tmp_path, cfg=cfg, control=control) for arg in command]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(head)
    assert len(captured.err.splitlines()) == 1 and "Traceback" not in captured.err
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.cfg", "f.txt"]


@pytest.mark.parametrize(
    "command",
    [
        ["scan", "{cfg}", "--out", "{tmp}/scan.csv", "--points", "abc"],
        ["differential", "{cfg}", "--control", "{control}", "--order", "2.5"],
        ["certify"],
        ["frobnicate", "{cfg}"],
    ],
    ids=["points-abc", "order-2.5", "no-config", "unknown-command"],
)
def test_argparse_usage_errors_exit_1(tmp_path, capsys, command):
    # argparse's own exit status is 2, which would read as a failed check
    cfg = write_config(tmp_path / "c.cfg", T="1")
    control = tmp_path / "f.txt"
    write_control_file(control, constant(1.0, 1.0, 16))
    assert main([arg.format(tmp=tmp_path, cfg=cfg, control=control) for arg in command]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("usage: trapscope") and "Traceback" not in captured.err
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.cfg", "f.txt"]


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: trapscope")


def test_controllability_command(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.cfg")
    code = main(["controllability", cfg])
    captured = capsys.readouterr()
    assert code == 0
    assert "saturated: yes" in captured.out


def test_malformed_config_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.cfg"
    path.write_text("this is not a config\n")
    code = main(["controllability", str(path)])
    assert code == 1
    assert "ConfigError" in capsys.readouterr().err


def test_bundled_configs_parse():
    for name in ("n3.cfg", "n4.cfg"):
        cfg = parse_config(os.path.join(ROOT, "examples", name))
        assert cfg.certificate.segments == 64
        assert cfg.certificate.directions == 8
