import json
import math
import os
import subprocess
import sys

import pytest

from trapscope.cli import build_problem, main, parse_config
from trapscope.controls import constant, write_control_file
from trapscope.dynamics import objective, propagate
from trapscope.errors import ConfigError
from trapscope.landscape import probe_direction

TWO_PI = 2 * math.pi


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
    cfg = parse_config(write_config(tmp_path / "ok.cfg"))
    assert cfg.levels == 3
    assert cfg.couplings == (1.0, 1.0)
    assert cfg.eigenvalues == (1.0, -1.0, 0.0)
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


@pytest.mark.parametrize(
    "key, value",
    [
        ("seed", "-5"),
        ("witness_horizons", ""),
        ("witness_horizons", "0"),
        ("witness_budget", "0"),
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
    assert payload["schema"] == "trapscope/3"
    assert payload["claimed_order"] == 3
    assert payload["passed"] is True


def test_certify_degenerate_spectrum_is_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path / "bad.cfg", a="1", b="1")
    code = main(["certify", cfg, "--out", str(tmp_path / "r.json")])
    captured = capsys.readouterr()
    assert code == 1
    assert "DegenerateSpectrum" in captured.err


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
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    pythonpath = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "trapscope", "certify", cfg, "--out", str(out)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=pythonpath),
        timeout=60,
    )
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
        # seed 7's first two witness draws miss and its third hits
        ("2", "  witness horizon 6.28319: best J -2.23531e-05 of 2 draws (miss)"),
        ("3", "  witness horizon 6.28319: first hit J 0.267357 after 3 draws"),
    ],
)
def test_certify_summary_names_the_witness_outcome(tmp_path, capsys, budget, line):
    cfg = write_config(tmp_path / "n3.cfg", witness_budget=budget)
    assert main(["certify", cfg, "--out", str(tmp_path / "r.json")]) == 0
    assert line in capsys.readouterr().out.splitlines()


def test_certify_reports_are_deterministic(tmp_path):
    cfg = write_config(tmp_path / "n3.cfg", directions="4", witness_budget="10")
    outs = []
    for name in ("a.json", "b.json", "c.json"):
        out = tmp_path / name
        assert main(["certify", cfg, "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


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
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    pythonpath = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "trapscope", "differential", cfg, "--control", str(control), "--order", "2"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=pythonpath),
        timeout=60,
    )
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
    cfg = write_config(tmp_path / "c.cfg", T="1")
    control = tmp_path / "f.txt"
    write_control_file(control, constant(1.0, 1.0, 16))
    csv_path = tmp_path / "rows.csv"
    assert main(["differential", cfg, "--control", str(control), "--order", "2", "--csv", str(csv_path)]) == 0
    assert main(["differential", cfg, "--control", str(control), "--order", "1", "--csv", str(csv_path)]) == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "N,order,analytic,fitted,discrepancy"
    assert len(lines) == 3


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


@pytest.mark.parametrize("tmax", ["nan", "inf", "0"])
def test_scan_rejects_bad_tmax_before_writing(tmp_path, capsys, tmax):
    cfg = write_config(tmp_path / "c.cfg")
    out = tmp_path / "scan.csv"
    assert main(["scan", cfg, "--out", str(out), "--tmax", tmax]) == 1
    assert capsys.readouterr().err.startswith("error: ConfigError")
    assert not out.exists()


def test_scan_rows_probe_the_certificate_directions(tmp_path):
    # both offset signs appear among the odd rows with four directions; the
    # t < 0 rows, which repeat their mirror's J, must equal a direct
    # propagation at their own t, on a dyadic and a non-dyadic grid
    cfg_path = write_config(tmp_path / "c.cfg", directions="4")
    cfg = parse_config(cfg_path)
    inst = build_problem(cfg)
    out = tmp_path / "scan.csv"
    for points, tmax in (("5", "0.5"), ("11", "0.7")):
        assert main(["scan", cfg_path, "--out", str(out), "--points", points, "--tmax", tmax]) == 0
        rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
        assert len(rows) == 4 * int(points)
        for seed, mz, t, j in rows:
            index = int(seed) - cfg.certificate.seed
            assert mz == str(int(index % 2 == 0))
            f = probe_direction(cfg.certificate.seed, index, cfg.certificate.segments, cfg.horizon)
            assert float(j) == objective(propagate(inst.system, f.scaled(float(t))), inst)


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
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for name in ("n3.cfg", "n4.cfg"):
        cfg = parse_config(os.path.join(here, "examples", name))
        assert cfg.certificate.segments == 64
        assert cfg.certificate.directions == 8
