"""End-to-end and per-layer benchmark of the `trapscope` command line.

Usage (from the repository root):

    python3 bench/run.py --workload certify-n4 --seed 1 --seconds 40 --trace 0

Each workload is a closed loop: one `trapscope` process at a time, the next
one started when the previous one has exited, until --seconds have passed.
Every invocation runs the same command on the same config, whose `seed` is
--seed, so repeats must produce byte-identical certificate reports.

--trace 0 prints the end-to-end metrics: wall_s (instance built to process
exit), cpu_s (user + system time of the process), setup_s (process start to
instance built) and peak_rss_mb, each the median over the invocations.
--trace 1 alternates untraced invocations with traced ones (bench/launch.py
rebinds the program's public functions to record spans) and prints the
per-layer metrics, with the tracing overhead.

Every invocation's output is checked; an invocation that fails a check
counts in `failed`.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  The program under
test is src/trapscope of the checkout that holds this file, run with
TRAPSCOPE_THREADS unset (the CLI default pool size).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import spans as span_analysis

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
LAUNCH = os.path.join(ROOT, "bench", "launch.py")
WORK = os.path.join(ROOT, ".bench_work")

TWO_PI = 2.0 * math.pi
SCAN_POINTS = 401
N6 = {
    "N": 6,
    "a": 1,
    "b": 0,
    "v": "1, 1, 1, 1, 1",
    "T": repr(TWO_PI),
    "lambda": "1, 0.5, 0.3, 0.1, -1, 0",
    "M": 64,
}

# Why each workload: certify-n4 is the reference certificate, where every
# stage does real work (forms ~52%, witness ~40%, fit ~7% at one thread);
# certify-n6-wide is dominated by the forms (~75%) and the Taylor fit (~15%)
# and is where RK4 is least accurate; scan-n6 is propagation only, the
# bypass workload for any certificate-stage change.
WORKLOADS = {
    "certify-n4": {
        "command": ["certify"],
        "config": {
            "N": 4,
            "a": 1,
            "b": 0,
            "v": "1, 1, 1",
            "T": repr(TWO_PI),
            "lambda": "1, 0.3, -1, 0",
            "M": 64,
            "directions": 8,
            "witness_budget": 500,
            "witness_horizons": f"{TWO_PI!r}, {2.0 * TWO_PI!r}",
        },
    },
    "certify-n6-wide": {
        "command": ["certify"],
        "config": {**N6, "directions": 16, "witness_budget": 100, "witness_horizons": repr(TWO_PI)},
    },
    "scan-n6": {
        "command": ["scan", "--points", str(SCAN_POINTS), "--tmax", "1.0"],
        "config": {**N6, "directions": 8},
    },
}

# A run whose worst oracle gap exceeds this is broken, not merely inaccurate.
ORACLE_GATE = 1e-4
# Processes are killed, and none is started, once a run has taken this long,
# so that the whole run ends within 180 s.
RUN_LIMIT_S = 150.0


class Invocation:
    """One finished `trapscope` process: timings, resource use and its output."""

    def __init__(self, traced, code, t_spawn, t_exit, rusage, marks, output):
        self.traced = traced
        self.code = code
        self.t_exit = t_exit
        self.duration = t_exit - t_spawn
        self.cpu_s = rusage.ru_utime + rusage.ru_stime
        self.peak_rss_mb = rusage.ru_maxrss / 1024.0
        self.marks = marks
        self.output = output
        built = marks.get("built")
        self.setup_s = None if built is None else built - t_spawn
        self.wall_s = None if built is None else t_exit - built
        self.problems: list[str] = []


def write_config(path: str, config: dict, seed: int):
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in {**config, "seed": seed}.items():
            fh.write(f"{key} = {value}\n")


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("TRAPSCOPE_THREADS", None)
    env["PYTHONPATH"] = SRC
    return env


def run_invocation(workdir: str, args: list[str], traced: bool, env: dict, timeout: float) -> Invocation:
    marks_path = os.path.join(workdir, "marks.json")
    out_path = os.path.join(workdir, "out")
    for path in (marks_path, out_path):
        if os.path.exists(path):
            os.remove(path)
    cmd = [sys.executable, LAUNCH, marks_path, "1" if traced else "0", "--", *args, "--out", out_path]
    with open(os.path.join(workdir, "stdout.txt"), "wb") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, env=env, cwd=workdir, stdout=log, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, rusage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no process behind
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        t_exit = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    marks = {}
    if os.path.exists(marks_path):
        with open(marks_path, encoding="utf-8") as fh:
            marks = json.load(fh)
    output = b""
    if os.path.exists(out_path):
        with open(out_path, "rb") as fh:
            output = fh.read()
    return Invocation(traced, proc.returncode, t_spawn, t_exit, rusage, marks, output)


def check_invocation(inv: Invocation, workload: str, config: dict, reference: bytes | None):
    """Append to inv.problems every way this invocation's output is wrong."""
    if inv.code != 0:
        inv.problems.append(f"exit code {inv.code}")
    if inv.wall_s is None:
        inv.problems.append("instance was never built")
    expected_pkg = os.path.join(SRC, "trapscope", "__init__.py")
    if inv.marks and os.path.realpath(inv.marks.get("trapscope_file", "")) != os.path.realpath(expected_pkg):
        inv.problems.append(f"imported trapscope from {inv.marks.get('trapscope_file')}")
    if not inv.output:
        inv.problems.append("no output file")
        return
    if workload.startswith("certify"):
        check_report(inv, config, reference)
    else:
        check_scan(inv, config)


def check_report(inv: Invocation, config: dict, reference: bytes | None):
    try:
        report = json.loads(inv.output)
    except ValueError:
        inv.problems.append("report is not JSON")
        return
    levels = int(config["N"])
    if report.get("passed") is not True:
        inv.problems.append(f"certificate did not pass ({report.get('failed_stage')})")
    if report.get("claimed_order") != 2 * levels - 3:
        inv.problems.append(f"claimed order {report.get('claimed_order')} != {2 * levels - 3}")
    failing = [c["name"] for c in report.get("checks", []) if not c["passed"] and c["name"] != "witness_found"]
    if failing:
        inv.problems.append(f"checks failed: {', '.join(failing)}")
    if reference is not None and inv.output != reference:
        inv.problems.append("report bytes differ from the first repeat with the same seed")


def check_scan(inv: Invocation, config: dict):
    lines = inv.output.decode("utf-8").splitlines()
    if not lines or lines[0] != "seed,mean_zero,t,J":
        inv.problems.append("missing CSV header")
        return
    rows = [line.split(",") for line in lines[1:]]
    expected = int(config["directions"]) * SCAN_POINTS
    if len(rows) != expected:
        inv.problems.append(f"{len(rows)} rows, expected {expected}")
    lam = [float(x) for x in config["lambda"].split(",")]
    lam = [x - lam[-1] for x in lam]  # the program scores with the normalized observable
    lo, hi = min(lam), max(lam)
    zero_rows = [r for r in rows if float(r[2]) == 0.0]
    if len(zero_rows) != int(config["directions"]):
        inv.problems.append(f"{len(zero_rows)} rows at t=0, expected one per direction")
    if any(float(r[3]) != 0.0 for r in zero_rows):
        inv.problems.append("J is not exactly 0 at t=0")
    if any(not lo <= float(r[3]) <= hi for r in rows):
        inv.problems.append(f"some J outside [{lo}, {hi}]")


def oracle_rel_err(report_bytes: bytes) -> float:
    """Worst relative gap between each mean-zero row's order_2N2_analytic and
    lambda_1 |kernel_form_A1N(f)|^2, with f regenerated from the row's seed."""
    from trapscope.controls import random_direction
    from trapscope.dynamics import kernel_form_A1N
    from trapscope.landscape import CertificateConfig
    from trapscope.model import build_system

    report = json.loads(report_bytes)
    inst = report["instance"]
    system = build_system(inst["levels"], inst["a"], inst["b"], inst["couplings"], inst["horizon"])
    amplitude = CertificateConfig().amplitude  # the CLI certifies with the default amplitude
    worst = 0.0
    for row in report["directions"]:
        if not row["mean_zero"]:
            continue
        f = random_direction(row["seed"], inst["segments"], inst["horizon"], mean_zero=True, amplitude=amplitude)
        oracle = inst["eigenvalues"][0] * abs(kernel_form_A1N(system, f)) ** 2
        worst = max(worst, abs(row["order_2N2_analytic"] - oracle) / abs(oracle))
    return worst


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def host_facts() -> str:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    nproc = os.cpu_count() or 1
    return (
        f"host: nproc {nproc}, python {platform.python_version()}, numpy {numpy.__version__}, "
        f"blas {blas['name']} {blas['version']}, TRAPSCOPE_THREADS unset (CLI default pool: min(4, nproc) = {min(4, nproc)} threads)"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(SRC, "trapscope", "cli.py")):
        print(f"error: no trapscope sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    spec = WORKLOADS[args.workload]
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        return run_workload(args, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass


def run_workload(args, spec: dict, workdir: str) -> int:
    config_path = os.path.join(workdir, "run.cfg")
    write_config(config_path, spec["config"], args.seed)
    cli_args = [spec["command"][0], config_path, *spec["command"][1:]]
    env = child_env()
    # Compile bytecode and warm the file cache so the first timed process is
    # not the only one that pays for them.
    subprocess.run([sys.executable, "-c", "import trapscope.cli"], env=env, cwd=workdir, check=False)

    invocations: list[Invocation] = []
    reference = None
    # At least three samples (two of each kind when tracing); no process is
    # started that would likely end after --seconds.
    min_samples = 4 if args.trace else 3
    t_start = time.monotonic()
    while len(invocations) < min_samples or (
        time.monotonic() - t_start + statistics.median(inv.duration for inv in invocations) <= args.seconds
    ):
        remaining = RUN_LIMIT_S - (time.monotonic() - t_start)
        if remaining <= 0:
            break
        traced = bool(args.trace) and len(invocations) % 2 == 1
        inv = run_invocation(workdir, cli_args, traced, env, remaining)
        check_invocation(inv, args.workload, spec["config"], reference)
        if reference is None and not inv.problems and args.workload.startswith("certify"):
            reference = inv.output
        invocations.append(inv)

    # Outside the timed window: the independent oracle for each distinct
    # report that passed the checks above.
    oracle = None
    if args.workload.startswith("certify"):
        errors = {}
        for inv in invocations:
            if inv.problems:
                continue
            if inv.output not in errors:
                errors[inv.output] = oracle_rel_err(inv.output)
            if errors[inv.output] > ORACLE_GATE:
                inv.problems.append(f"oracle_rel_err {errors[inv.output]:.3g} > {ORACLE_GATE:g}")
        oracle = max(errors.values()) if errors else math.inf

    failed = sum(1 for inv in invocations if inv.problems)
    print(f"workload {args.workload}  seed {args.seed}  {len(invocations)} invocations in "
          f"{time.monotonic() - t_start:.1f} s (closed loop, one process at a time)")
    for inv in invocations:
        for problem in inv.problems:
            print(f"  FAILED invocation: {problem}")
    print(f"  fail_fraction {failed}/{len(invocations)} = {failed / len(invocations):.4g}")
    if oracle is not None:
        print(f"  oracle_rel_err {oracle:.6g} (worst mean-zero row vs kernel_form_A1N; gate {ORACLE_GATE:g})")
    print("  " + host_facts())

    good = [inv for inv in invocations if not inv.problems]
    if args.trace:
        metrics = per_layer_metrics(good, spec, args.workload, oracle)
    else:
        metrics = end_to_end_metrics(good)
    result = {
        "correct": failed == 0,
        "attempted": len(invocations),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


def summarize(name: str, values: list[float], unit: str) -> dict:
    q1, med, q3 = quartiles(values)
    print(f"  {name:<12} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  n {len(values)}  {unit}")
    return {"value": med, "unit": unit}


def end_to_end_metrics(good: list[Invocation]) -> dict:
    if not good:
        return {}
    return {
        "wall_s": summarize("wall_s", [inv.wall_s for inv in good], "s"),
        "cpu_s": summarize("cpu_s", [inv.cpu_s for inv in good], "s"),
        "setup_s": summarize("setup_s", [inv.setup_s for inv in good], "s"),
        "peak_rss_mb": summarize("peak_rss_mb", [inv.peak_rss_mb for inv in good], "MB"),
    }


def per_layer_metrics(good: list[Invocation], spec: dict, workload: str, oracle: float | None) -> dict:
    traced = [inv for inv in good if inv.traced]
    plain = [inv for inv in good if not inv.traced]
    if not traced or not plain:
        return {}
    per_run = [span_analysis.layer_metrics(inv.marks["spans"]) for inv in traced]
    print(f"  per-layer metrics: median of {len(traced)} traced invocations, "
          f"tracing overhead against {len(plain)} untraced ones")
    metrics = {}
    for name, unit in span_analysis.LAYER_UNITS.items():
        metrics[name] = {"value": statistics.median_low(m[name] for m in per_run), "unit": unit}

    rk4_steps = 0
    if workload.startswith("certify"):
        from trapscope.cli import RunConfig

        # Substep doubling from the CLI's default s0 runs s0, 2 s0, ...,
        # s_used RK4 substeps on each of the M segments.
        rows = json.loads(traced[0].output)["directions"]
        s0 = RunConfig.substeps
        rk4_steps = int(spec["config"]["M"]) * sum(2 * row["substeps_used"] - s0 for row in rows)
    metrics["dynamics.dyson_forms.rk4_steps"] = {"value": rk4_steps, "unit": "count"}
    metrics["dynamics.dyson_forms.oracle_rel_err"] = {"value": oracle or 0.0, "unit": "ratio"}
    metrics["cli.report_bytes"] = {"value": len(traced[0].output), "unit": "B"}

    traced_wall = statistics.median(inv.wall_s for inv in traced)
    plain_wall = statistics.median(inv.wall_s for inv in plain)
    metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
    metrics["trace.untraced_wall_s"] = {"value": plain_wall, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_wall - plain_wall, "unit": "s"}
    for name in sorted(metrics):
        print(f"  {name:<40} {metrics[name]['value']:.6g} {metrics[name]['unit']}")
    # wall_s runs from instance built to process exit, the spans from the call
    # of cli.main to its return; the difference is accounted for here.
    gap = statistics.median(inv.wall_s - m["trace.self_sum_s"] for inv, m in zip(traced, per_run))
    after_main = statistics.median(inv.t_exit - inv.marks["main_end"] for inv in traced)
    setup_in_main = statistics.median(inv.marks["built"] - inv.marks["main_start"] for inv in traced)
    print(f"  traced wall_s exceeds the sum of self times by {gap:.3g} s: {after_main:.3g} s after "
          f"cli.main returned (span dump, interpreter exit) less {setup_in_main:.3g} s of set-up "
          f"inside cli.main; tracing overhead {traced_wall - plain_wall:.3g} s")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
