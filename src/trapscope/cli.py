"""Command-line front end.

Subcommands:
    certify          run the full trap certificate and write the JSON report
    differential     analytic vs fitted Taylor coefficient for one control
    scan             sample J(t*f) along the certificate's probe directions into a CSV
    controllability  Lie-algebra rank test

Configs are flat "key = value" text with '#' comments.  Exit codes: 0 pass,
1 usage/input error, 2 check failure.  Reports are deterministic: the same
config yields byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys as _sys
from dataclasses import dataclass, field

import numpy as np

from .controls import read_control_file
# propagate is not called here; bench/launch.py rebinds cli.propagate by name.
from .dynamics import block_controls, dyson_forms, objective, propagate, propagate_batch  # noqa: F401
from .errors import ConfigError, InsufficientOrder, TrapscopeError
from .landscape import (
    CertificateConfig,
    differential,
    lie_rank,
    probe_direction,
    taylor_fit,
    trap_certificate,
)
from .model import ProblemInstance, build_instance, build_observable, build_system

REPORT_SCHEMA = "trapscope/3"

_REQUIRED_KEYS = ("N", "a", "b", "v", "T", "lambda")
# Config key -> CertificateConfig field of the sampling budget.
_BUDGET_KEYS = {
    "M": "segments",
    "directions": "directions",
    "seed": "seed",
    "witness_budget": "witness_budget",
    "witness_horizons": "witness_horizons",
}
_ALL_KEYS = _REQUIRED_KEYS + tuple(_BUDGET_KEYS) + ("substeps", "out")


@dataclass(frozen=True)
class RunConfig:
    """Parsed run configuration: the instance, the certificate's sampling
    budget and the report path."""

    levels: int
    a: float
    b: float
    couplings: tuple[float, ...]
    horizon: float
    eigenvalues: tuple[float, ...]
    certificate: CertificateConfig = field(default_factory=CertificateConfig)
    substeps: int = 8  # accepted and ignored: the forms are exact; bench/run.py reads it
    out: str = "report.json"


def _parse_float_list(text: str, key: str, lineno: int) -> tuple[float, ...]:
    try:
        return tuple(float(x.strip()) for x in text.split(",") if x.strip() != "")
    except ValueError as exc:
        raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from exc


def parse_config(path: str) -> RunConfig:
    """Strictly parse a flat key = value config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc

    seen: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _ALL_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} (first on line {seen[key][1]})")
        seen[key] = (value, lineno)

    for key in _REQUIRED_KEYS:
        if key not in seen:
            raise ConfigError(f"missing required key {key!r}")

    def scalar(key: str, conv, default=None):
        if key not in seen:
            return default
        value, lineno = seen[key]
        try:
            return conv(value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from exc

    budget = {}
    for key, name in _BUDGET_KEYS.items():
        if key not in seen:
            continue
        value, lineno = seen[key]
        if key == "witness_horizons":
            budget[name] = _parse_float_list(value, key, lineno)
        else:
            budget[name] = scalar(key, int)
        try:
            CertificateConfig(**{name: budget[name]})
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from exc

    substeps = scalar("substeps", int, RunConfig.substeps)
    if substeps < 1:
        raise ConfigError(f"line {seen['substeps'][1]}: substeps must be >= 1, got {substeps}")

    return RunConfig(
        levels=scalar("N", int),
        a=scalar("a", float),
        b=scalar("b", float),
        couplings=_parse_float_list(seen["v"][0], "v", seen["v"][1]),
        horizon=scalar("T", float),
        eigenvalues=_parse_float_list(seen["lambda"][0], "lambda", seen["lambda"][1]),
        certificate=CertificateConfig(**budget),
        substeps=substeps,
        out=seen["out"][0] if "out" in seen else RunConfig.out,
    )


def build_problem(cfg: RunConfig) -> ProblemInstance:
    system = build_system(cfg.levels, cfg.a, cfg.b, cfg.couplings, cfg.horizon)
    observable = build_observable(cfg.eigenvalues)
    return build_instance(system, observable)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_json_report(path: str, payload: dict):
    text = json.dumps(payload, sort_keys=True, indent=2)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


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
        tag = "hit" if w["success"] else "miss"
        lines.append(f"  witness horizon {w['horizon']:g}: best J {w['best_j']:.6g} ({tag})")
    lines.append(f"overall: {'PASS' if report.passed else 'FAIL'}")
    if report.failed_stage:
        lines.append(f"failed stage: {report.failed_stage}")
    return "\n".join(lines)


def cmd_certify(config_path: str, out_override: str | None = None) -> int:
    cfg = parse_config(config_path)
    inst = build_problem(cfg)
    report = trap_certificate(inst, cfg.certificate)
    payload = {"schema": REPORT_SCHEMA, **report.as_dict()}
    out_path = out_override if out_override is not None else cfg.out
    _write_json_report(out_path, payload)
    print(_summary_text(report))
    print(f"report written to {out_path}")
    return 0 if report.passed else 2


def cmd_differential(config_path: str, control_path: str, order: int, csv_path: str | None = None) -> int:
    if order < 1:
        raise ConfigError(f"order must be >= 1, got {order}")
    cfg = parse_config(config_path)
    inst = build_problem(cfg)
    try:
        f = read_control_file(control_path)
    except ValueError as exc:
        raise ConfigError(f"bad control file: {exc}") from exc
    n_top = 2 * cfg.levels - 2
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
    if csv_path is not None:
        fresh = not os.path.exists(csv_path)
        with open(csv_path, "a", encoding="utf-8", newline="\n") as fh:
            if fresh:
                fh.write("N,order,analytic,fitted,discrepancy\n")
            fh.write(
                f"{cfg.levels},{order},{_fmt(analytic)},{_fmt(fitted)},{_fmt(discrepancy)}\n"
            )
    return 0


def cmd_scan(config_path: str, out_csv: str, tmax: float = 1.0, points: int = 11) -> int:
    if points < 2:
        raise ConfigError(f"points must be >= 2, got {points}")
    if not 0.0 < tmax < math.inf:
        raise ConfigError(f"tmax must be positive and finite, got {tmax}")
    cfg = parse_config(config_path)
    inst = build_problem(cfg)
    sys_ = inst.system
    budget = cfg.certificate
    ts = [-tmax + 2.0 * tmax * k / (points - 1) for k in range(points)]
    rows = block_controls(budget.segments)
    with open(out_csv, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("seed,mean_zero,t,J\n")
        for i in range(budget.directions):
            seed = budget.seed + i
            mean_zero = i % 2 == 0
            vals = probe_direction(budget.seed, i, budget.segments, sys_.horizon).as_array()
            for start in range(0, points, rows):
                block = ts[start : start + rows]
                js = objective(propagate_batch(sys_, np.outer(block, vals)), inst)
                for t, j in zip(block, js):
                    fh.write(f"{seed},{int(mean_zero)},{_fmt(t)},{_fmt(j)}\n")
    print(f"scan written to {out_csv} ({budget.directions * points} rows)")
    return 0


def cmd_controllability(config_path: str) -> int:
    cfg = parse_config(config_path)
    inst = build_problem(cfg)
    res = lie_rank(inst.system)
    target = cfg.levels * cfg.levels - 1
    print(f"Lie algebra dimension: {res.dimension} (saturation threshold {target})")
    print(f"saturated: {'yes' if res.saturated else 'no'}   depth reached: {res.depth_reached}")
    return 0 if res.saturated else 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="trapscope",
        description="Certify higher-order trap behaviour of the zero control for "
        "degenerate ladder quantum control systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", help="run the full trap certificate")
    p.add_argument("config")
    p.add_argument("--out", default=None, help="report path (overrides config 'out')")

    p = sub.add_parser("differential", help="analytic vs fitted coefficient of one order")
    p.add_argument("config")
    p.add_argument("--control", required=True, help="control file (T/M header plus values)")
    p.add_argument("--order", required=True, type=int)
    p.add_argument("--csv", default=None, help="append a CSV row to this file")

    p = sub.add_parser("scan", help="sample J(t*f) along the certificate's probe directions")
    p.add_argument("config")
    p.add_argument("--out", required=True)
    p.add_argument("--tmax", type=float, default=1.0)
    p.add_argument("--points", type=int, default=11)

    p = sub.add_parser("controllability", help="dynamical Lie-algebra rank test")
    p.add_argument("config")

    args = parser.parse_args(argv)
    try:
        if args.command == "certify":
            return cmd_certify(args.config, args.out)
        if args.command == "differential":
            return cmd_differential(args.config, args.control, args.order, args.csv)
        if args.command == "scan":
            return cmd_scan(args.config, args.out, args.tmax, args.points)
        if args.command == "controllability":
            return cmd_controllability(args.config)
        parser.error(f"unknown command {args.command!r}")
    except TrapscopeError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=_sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
