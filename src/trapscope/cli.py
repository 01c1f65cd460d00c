"""Command-line front end.

Subcommands:
    certify          run the full trap certificate and write the JSON report
    differential     analytic vs fitted Taylor coefficient for one control
    scan             sample J(t*f) along the certificate's probe directions into a CSV
    controllability  Lie-algebra rank test

Configs are flat "key = value" text with '#' comments.  Exit codes: 0 pass,
1 usage/input error, 2 check failure.  Reports are deterministic: the same
config yields byte-identical output, at any BLAS thread count.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys as _sys
from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

from .controls import read_control_file
# objective and propagate are not called here; bench/launch.py rebinds both by name.
from .dynamics import (  # noqa: F401
    _as_stack,
    direction_block,
    dyson_forms,
    objective,
    propagate,
)
from .errors import ConfigError, InsufficientOrder, TrapscopeError
from .landscape import (
    CertificateConfig,
    _sample_lines,
    differential,
    lie_rank,
    probe_directions,
    probe_offset,
    probe_seed,
    taylor_fit,
    trap_certificate,
)
from .model import ProblemInstance, build_instance, build_observable, build_system

REPORT_SCHEMA = "trapscope/4"


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(x.strip()) for x in text.split(",") if x.strip() != "")


# Config key -> (field, parser).  Fields of CertificateConfig are the
# sampling budget; every other field is a required argument of build_system
# (levels .. horizon) or of build_observable (eigenvalues).
_KEYS = {
    "N": ("levels", int),
    "a": ("a", float),
    "b": ("b", float),
    "v": ("couplings", _floats),
    "T": ("horizon", float),
    "lambda": ("eigenvalues", _floats),
    "M": ("segments", int),
    "directions": ("directions", int),
    "seed": ("seed", int),
    "witness_budget": ("witness_budget", int),
    "witness_horizons": ("witness_horizons", _floats),
}
_BUDGET_FIELDS = {f.name for f in fields(CertificateConfig)}


@dataclass(frozen=True)
class RunConfig:
    """Parsed run configuration: the validated instance and the certificate's
    sampling budget, each built once by parse_config."""

    substeps: ClassVar[int] = 8  # not a config key: the forms are exact; bench/run.py reads it

    instance: ProblemInstance
    certificate: CertificateConfig


def parse_config(path: str) -> RunConfig:
    """Strictly parse a flat key = value config file into a RunConfig.

    A malformed, unknown, duplicate, missing or out-of-range key raises
    ConfigError, naming its line where it has one.  Once every line is read,
    build_system, build_observable and build_instance make the instance, and
    their own errors (DegenerateSpectrum, BadDimension, ...) pass through
    unchanged.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc

    first_line: dict[str, int] = {}
    run: dict = {}  # arguments of build_system and build_observable
    budget: dict = {}  # CertificateConfig fields
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in first_line:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} (first on line {first_line[key]})")
        first_line[key] = lineno
        name, parse = _KEYS[key]
        try:
            parsed = parse(value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from exc
        (budget if name in _BUDGET_FIELDS else run)[name] = parsed
        try:  # the earlier lines passed, so only this one can be out of range
            CertificateConfig(**budget)
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from exc

    for key, (name, _) in _KEYS.items():
        if name not in run and name not in _BUDGET_FIELDS:
            raise ConfigError(f"missing required key {key!r}")
    eigenvalues = run.pop("eigenvalues")
    instance = build_instance(build_system(**run), build_observable(eigenvalues))
    return RunConfig(instance, CertificateConfig(**budget))


def build_problem(cfg: RunConfig) -> ProblemInstance:
    """The instance that parse_config built, for main to hand to a command.

    bench/launch.py marks the end of set-up where this returns.
    """
    return cfg.instance


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _summary_text(report) -> str:
    lines = []
    inst = report.instance
    lines.append(
        f"trap certificate: N={inst['levels']} a={inst['a']:g} b={inst['b']:g} "
        f"T={inst['horizon']:g} claimed order {report.claimed_order}"
    )
    lines.append(f"directions: {len(report.directions)}  seeds {report.seeds[0]}..{report.seeds[-1]}")
    for c in report.checks:
        verdict = "PASS" if c.passed else "FAIL"
        note = " (informational)" if c.name == "witness_found" else ""
        lines.append(
            f"  [{verdict}] {c.name}: measured {c.measured:.6g} vs threshold {c.threshold:.6g}{note}"
        )
    for w in report.witness:
        line = f"probe {w['probe']} at t {w['amplitude']:.6g}"
        if w["success"]:
            outcome = f"first hit J {w['j_value']:.6g} on {line} after {w['evaluations']} evaluations"
        else:
            outcome = f"best J {w['j_value']:.6g} on {line} of {w['evaluations']} evaluations (miss)"
        lines.append(f"  witness horizon {w['horizon']:g}: {outcome}")
    lines.append(f"overall: {'PASS' if report.passed else 'FAIL'}")
    if report.failed_stage:
        lines.append(f"failed stage: {report.failed_stage}")
    return "\n".join(lines)


def cmd_certify(cfg: RunConfig, inst: ProblemInstance, out: str = "report.json") -> int:
    report = trap_certificate(inst, cfg.certificate)
    payload = {"schema": REPORT_SCHEMA, **report.as_dict()}
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    print(_summary_text(report))
    print(f"report written to {out}")
    return 0 if report.passed else 2


def cmd_differential(
    cfg: RunConfig, inst: ProblemInstance, control: str, order: int, csv: str | None = None
) -> int:
    if order < 1:
        raise ConfigError(f"order must be >= 1, got {order}")
    try:
        f = read_control_file(control)
    except ValueError as exc:
        raise ConfigError(f"bad control file: {exc}") from exc
    nlev = inst.system.levels
    n_top = 2 * nlev - 2
    if order > n_top:
        raise InsufficientOrder(f"forms are computed to order {n_top}, requested {order}")
    forms = dyson_forms(inst.system, f, n_max=n_top)
    analytic = differential(inst, forms, order)
    fit = taylor_fit(inst, f)
    fitted = fit.coefficient(order)
    discrepancy = abs(analytic - fitted)
    print(f"order {order} coefficient of J(t*f):")
    print(f"  analytic  {_fmt(analytic)}")
    print(f"  fitted    {_fmt(fitted)}   (contour radius {_fmt(fit.radius)})")
    print(f"  |analytic - fitted| = {_fmt(discrepancy)}")
    if csv is not None:
        fresh = not os.path.exists(csv)
        with open(csv, "a", encoding="utf-8", newline="\n") as fh:
            if fresh:
                fh.write("N,order,analytic,fitted,discrepancy\n")
            fh.write(
                f"{nlev},{order},{_fmt(analytic)},{_fmt(fitted)},{_fmt(discrepancy)}\n"
            )
    return 0


def cmd_scan(cfg: RunConfig, inst: ProblemInstance, out: str, tmax: float = 1.0, points: int = 11) -> int:
    if points < 2:
        raise ConfigError(f"points must be >= 2, got {points}")
    if not 0.0 < tmax < math.inf:
        raise ConfigError(f"tmax must be positive and finite, got {tmax}")
    sys_ = inst.system
    budget = cfg.certificate
    # Exactly antisymmetric: ts[points - 1 - k] == -ts[k] bit for bit.
    ts = [tmax * (2 * k - (points - 1)) / (points - 1) for k in range(points)]
    half = points // 2
    # The ladder's parity makes J(-t f) == J(t f) bit for bit on both routes
    # (see the dynamics module docstring), so only t >= 0 is sampled and each
    # t < 0 row repeats its mirror's J.
    z = np.array(ts[half:])
    values, _ = _as_stack(sys_, probe_directions(budget, sys_.horizon))
    zs = np.broadcast_to(z, (len(values), z.size))
    rows = direction_block(z.size * sys_.levels, sys_.levels)
    t_text = [_fmt(t) for t in ts]
    mirror = [max(k, points - 1 - k) - half for k in range(points)]
    # The rows go to a temporary file beside out, which replaces out only once
    # every block is written: a scan that fails keeps any earlier file at out
    # and leaves no partial one.  Rows are written as they come, so memory
    # stays flat in the number of rows.  The file is created new under a
    # random name with mode 0666, which the kernel reduces by the umask, as
    # open() would.
    tmp = os.path.join(os.path.dirname(os.path.abspath(out)), f".scan-{os.urandom(8).hex()}.csv")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("seed,mean_zero,t,J\n")
            for lo in range(0, len(values), rows):
                block = _sample_lines(inst, values[lo : lo + rows], zs[lo : lo + rows])
                for i, js in enumerate(block, start=lo):
                    tag = f"{probe_seed(budget.seed, i)},{int(probe_offset(i) == 0.0)}"
                    j_text = [_fmt(j) for j in js]
                    fh.write("".join(f"{tag},{t},{j_text[m]}\n" for t, m in zip(t_text, mirror)))
        os.replace(tmp, out)
    except BaseException:
        os.unlink(tmp)
        raise
    print(f"scan written to {out} ({budget.directions * points} rows)")
    return 0


def cmd_controllability(cfg: RunConfig, inst: ProblemInstance) -> int:
    res = lie_rank(inst.system)
    target = inst.system.levels**2 - 1
    print(f"Lie algebra dimension: {res.dimension} (saturation threshold {target})")
    print(f"saturated: {'yes' if res.saturated else 'no'}   depth reached: {res.depth_reached}")
    return 0 if res.saturated else 2


def main(argv=None) -> int:
    # Move the import-time heap (about 22k tracked objects, mostly numpy's) to
    # the permanent generation, so neither a full collection during the run
    # nor the ones at interpreter shutdown walk it again; what the run itself
    # allocates stays collectable.  On a 2-vCPU host one gc.collect() over
    # that heap takes 8-9 ms, and the process exit after `certify
    # examples/n4.cfg` returns takes 41-44 ms unfrozen and 11-12 ms frozen.
    gc.freeze()
    parser = argparse.ArgumentParser(
        prog="trapscope",
        description="Certify higher-order trap behaviour of the zero control for "
        "degenerate ladder quantum control systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", help="run the full trap certificate")
    p.add_argument("config")
    p.add_argument("--out", default="report.json", help="report path (default: report.json)")
    p.set_defaults(run=cmd_certify)

    p = sub.add_parser("differential", help="analytic vs fitted coefficient of one order")
    p.add_argument("config")
    p.add_argument("--control", required=True, help="control file (T/M header plus values)")
    p.add_argument("--order", required=True, type=int)
    p.add_argument("--csv", default=None, help="append a CSV row to this file")
    p.set_defaults(run=cmd_differential)

    p = sub.add_parser("scan", help="sample J(t*f) along the certificate's probe directions")
    p.add_argument("config")
    p.add_argument("--out", required=True)
    p.add_argument("--tmax", type=float, default=1.0)
    p.add_argument("--points", type=int, default=11)
    p.set_defaults(run=cmd_scan)

    p = sub.add_parser("controllability", help="dynamical Lie-algebra rank test")
    p.add_argument("config")
    p.set_defaults(run=cmd_controllability)

    # What is left after the command, its config and its function are the
    # command's own options, named as its cmd_* parameters.
    options = vars(parser.parse_args(argv))
    del options["command"]
    run = options.pop("run")
    try:
        cfg = parse_config(options.pop("config"))
        return run(cfg, build_problem(cfg), **options)
    except TrapscopeError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=_sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
