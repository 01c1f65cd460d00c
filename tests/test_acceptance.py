"""Acceptance suite: one test per numbered criterion, each asserting its
stated tolerance and runtime budget and printing a PASS line (run with -s to
see them)."""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np

from trapscope.controls import integral, random_direction, sample_midpoints
from trapscope.dynamics import (
    dyson_forms,
    dyson_resum_defect,
    kernel_bruteforce_A1N,
    kernel_form_A1N,
)
from trapscope.landscape import (
    CertificateConfig,
    differential,
    lie_rank,
    order_2N2_value,
    taylor_fit,
    trap_certificate,
    witness_search,
)
from trapscope.model import build_instance, build_observable, build_system, v_matrix
from trapscope.numerics import spectral_norm_hermitian

TWO_PI = 2 * math.pi
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def n3_instance(horizon=TWO_PI):
    sys_ = build_system(3, 1.0, 0.0, (1.0, 1.0), horizon)
    return build_instance(sys_, build_observable((1.0, -1.0, 0.0)))


def n4_instance(horizon=TWO_PI):
    sys_ = build_system(4, 1.0, 0.0, (1.0, 1.0, 1.0), horizon)
    return build_instance(sys_, build_observable((1.0, 0.3, -1.0, 0.0)))


def mixed_directions(count, amplitude=0.5, segments=64, horizon=TWO_PI, seed0=100):
    """Half mean-zero, half with a guaranteed nonzero mean."""
    out = []
    for i in range(count):
        f = random_direction(seed0 + i, segments, horizon, mean_zero=True, amplitude=amplitude)
        if i % 2 == 1:
            sign = 1.0 if (i // 2) % 2 == 0 else -1.0
            f = f.shifted(sign * (0.2 + 0.05 * (i % 5)))
        out.append(f)
    return out


def offset_directions(count, amplitude=0.5, segments=64, horizon=TWO_PI, seed0=300):
    """Directions with mean bounded away from zero."""
    out = []
    for i in range(count):
        f = random_direction(seed0 + i, segments, horizon, mean_zero=True, amplitude=amplitude)
        sign = 1.0 if i % 2 == 0 else -1.0
        out.append(f.shifted(sign * (0.2 + 0.025 * i)))
    return out


def report(num, name, detail):
    print(f"ACCEPTANCE {num} {name}: PASS ({detail})")


def test_criterion_1_stationarity():
    start = time.time()
    inst = n3_instance()
    worst_d1 = 0.0
    worst_c1 = 0.0
    for f in mixed_directions(20):
        forms = dyson_forms(inst.system, f, n_max=1)
        worst_d1 = max(worst_d1, abs(differential(inst, forms, 1)))
        fit = taylor_fit(inst, f)
        worst_c1 = max(worst_c1, abs(fit.coefficient(1)))
    elapsed = time.time() - start
    assert worst_d1 <= 1e-10
    assert worst_c1 <= 1e-8
    assert elapsed < 10.0
    report(1, "stationarity", f"max |d1|={worst_d1:.2e}, max |c1|={worst_c1:.2e}, {elapsed:.1f}s")


def test_criterion_2_second_order_descent():
    start = time.time()
    inst = n3_instance()
    lam = inst.observable.eigenvalues
    v2 = inst.system.couplings[-1]
    worst_rel = 0.0
    max_c2 = -math.inf
    for f in offset_directions(10):
        predicted = lam[1] * v2**2 * integral(f) ** 2
        fit = taylor_fit(inst, f)
        c2 = fit.coefficient(2)
        worst_rel = max(worst_rel, abs(c2 - predicted) / abs(predicted))
        max_c2 = max(max_c2, c2)
    elapsed = time.time() - start
    assert worst_rel <= 1e-3
    assert max_c2 < 0.0
    assert elapsed < 20.0
    report(2, "second-order descent", f"max rel err={worst_rel:.2e}, max c2={max_c2:.3g}, {elapsed:.1f}s")


def test_criterion_3_flatness_window():
    start = time.time()
    worst = 0.0
    for inst, orders in ((n3_instance(), (3,)), (n4_instance(), (3, 4, 5))):
        n_top = max(orders)
        for seed in range(5):
            f = random_direction(500 + seed, 64, TWO_PI, mean_zero=True, amplitude=0.5)
            forms = dyson_forms(inst.system, f, n_max=n_top)
            for n in orders:
                worst = max(worst, abs(differential(inst, forms, n)))
    elapsed = time.time() - start
    assert worst <= 1e-9
    assert elapsed < 60.0
    report(3, "flatness window", f"max |d_n|={worst:.2e} over orders 3..2N-3, {elapsed:.1f}s")


def test_criterion_4_leading_positive_order():
    start = time.time()
    # N=3 resonant cosine: analytic value pi^2/4
    sys3 = build_system(3, 2.0, 0.0, (1.0, 1.0), TWO_PI)
    inst3 = build_instance(sys3, build_observable((1.0, -1.0, 0.0)))
    f3 = sample_midpoints(math.cos, TWO_PI, 256)
    forms3 = dyson_forms(sys3, f3, n_max=2)
    val3 = order_2N2_value(inst3, forms3)
    target = math.pi**2 / 4
    rel3 = abs(val3 - target) / target
    assert rel3 <= 1e-3
    fit3 = taylor_fit(inst3, f3)
    rel3_fit = abs(fit3.coefficient(4) - target) / target
    assert rel3_fit <= 1e-2

    # N=4 random mean-zero direction: fitted c6 vs analytic, and nonnegative
    inst4 = n4_instance()
    worst4 = 0.0
    min_c6 = math.inf
    for seed in (42, 43):
        f4 = random_direction(seed, 64, TWO_PI, mean_zero=True, amplitude=0.5)
        forms4 = dyson_forms(inst4.system, f4, n_max=3)
        analytic = order_2N2_value(inst4, forms4)
        fit4 = taylor_fit(inst4, f4)
        c6 = fit4.coefficient(6)
        min_c6 = min(min_c6, c6)
        worst4 = max(worst4, abs(c6 - analytic) / abs(analytic))
    elapsed = time.time() - start
    assert min_c6 >= -1e-8
    assert worst4 <= 5e-2
    assert elapsed < 120.0
    report(
        4,
        "leading positive order",
        f"N=3 value rel={rel3:.2e}, fit rel={rel3_fit:.2e}; N=4 fit rel={worst4:.2e}, "
        f"min c6={min_c6:.3g}, {elapsed:.1f}s",
    )


def test_criterion_5_kernel_triple_consistency():
    start = time.time()
    worst_bf = 0.0
    worst_dy = 0.0
    for nlev in (3, 4):
        sys_ = build_system(nlev, 1.0, 0.0, (1.0,) * (nlev - 1), TWO_PI)
        for seed in range(10):
            f = random_direction(700 + seed, 32, TWO_PI, mean_zero=True, amplitude=0.8)
            a_kernel = kernel_form_A1N(sys_, f)
            a_brute = kernel_bruteforce_A1N(sys_, f)
            forms = dyson_forms(sys_, f, n_max=nlev - 1)
            a_dyson = forms.value(nlev - 1, 1)
            worst_bf = max(worst_bf, abs(a_kernel - a_brute))
            worst_dy = max(worst_dy, abs(a_kernel - a_dyson))
    elapsed = time.time() - start
    assert worst_bf <= 1e-8
    assert worst_dy <= 1e-6
    assert elapsed < 60.0
    report(
        5,
        "kernel triple consistency",
        f"max |kernel-brute|={worst_bf:.2e}, max |kernel-dyson|={worst_dy:.2e}, {elapsed:.1f}s",
    )


def test_criterion_6_dyson_resummation():
    start = time.time()
    sys_ = n3_instance().system
    vnorm = spectral_norm_hermitian(v_matrix(sys_))
    worst_margin = -math.inf
    for seed in range(5):
        f = random_direction(800 + seed, 64, TWO_PI, amplitude=0.05)
        int_abs = f.dt * float(np.sum(np.abs(f.as_array())))
        bound = (vnorm * int_abs) ** 9 / math.factorial(9) + 1e-10
        defect = dyson_resum_defect(sys_, f, n_max=8)
        assert defect <= bound
        worst_margin = max(worst_margin, defect / bound)
    elapsed = time.time() - start
    assert elapsed < 30.0
    report(6, "dyson resummation", f"worst defect/bound={worst_margin:.2e}, {elapsed:.1f}s")


def test_criterion_7_controllability_rank():
    start = time.time()
    dims = []
    for nlev in (3, 4, 5, 6):
        sys_ = build_system(nlev, 1.0, 0.0, (1.0,) * (nlev - 1), TWO_PI)
        res = lie_rank(sys_)
        assert res.saturated, f"N={nlev} did not saturate"
        assert res.dimension >= nlev * nlev - 1
        dims.append(res.dimension)
    elapsed = time.time() - start
    assert elapsed < 30.0
    report(7, "controllability rank", f"dimensions {dims} for N=3..6, {elapsed:.1f}s")


def run_certify(config, out_path):
    # the child imports trapscope from this checkout's src/, installed or not
    src = os.path.join(REPO_ROOT, "src")
    pythonpath = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "trapscope", "certify", config, "--out", str(out_path)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=pythonpath),
        cwd=REPO_ROOT,
    )
    return proc


def test_criterion_8_certificate_end_to_end(tmp_path):
    start = time.time()
    for name, order in (("n3.cfg", 3), ("n4.cfg", 5)):
        config = os.path.join(REPO_ROOT, "examples", name)
        payloads = []
        for run in ("r1", "r2"):
            out = tmp_path / f"{name}.{run}.json"
            proc = run_certify(config, out)
            assert proc.returncode == 0, proc.stdout + proc.stderr
            payloads.append(out.read_bytes())
        assert payloads[0] == payloads[1], f"{name}: reports differ between runs"
        doc = json.loads(payloads[0])
        assert doc["claimed_order"] == order
        assert doc["passed"] is True
    elapsed = time.time() - start
    assert elapsed < 300.0
    report(8, "certificate end-to-end", f"n3 and n4 byte-identical across runs, {elapsed:.1f}s")


def test_criterion_9_witness_soft():
    start = time.time()
    found = []
    for k, horizon in enumerate((TWO_PI, 2 * TWO_PI)):
        inst = n3_instance(horizon)
        res = witness_search(inst, seed=7 + k, budget=500, segments=64)
        assert res.j_value <= 1.0 + 1e-12  # kinematic bound
        found.append(res.j_value)
    elapsed = time.time() - start
    best = max(found)
    if best > 0.02:
        report(9, "non-optimality witness", f"best J={best:.4f} over horizons (2pi, 4pi), {elapsed:.1f}s")
    else:
        # soft criterion: a miss is reported, not failed, because the minimal
        # sufficient horizon is unknown
        print(f"ACCEPTANCE 9 non-optimality witness: SOFT-MISS (best J={best:.4f}, {elapsed:.1f}s)")


def test_criterion_10_certificate_sweep_n5_to_n8():
    # the sampled order-(2N-2) coefficient resolves lambda_1 |A^{N-1}_1|^2
    # through N=8, where it is as small as 1e-19; budget 10 s (0.5 s on a
    # 2-vCPU host)
    start = time.time()
    worst = 0.0
    config = CertificateConfig(directions=4, seed=1000, segments=32, witness_budget=1)
    for nlev in range(5, 9):
        sys_ = build_system(nlev, 1.0, 0.0, (1.0,) * (nlev - 1), TWO_PI)
        lam = (1.0, *np.linspace(0.5, 0.1, nlev - 3), -1.0, 0.0)
        doc = trap_certificate(build_instance(sys_, build_observable(lam)), config)
        assert doc.failed_stage is None
        failing = [c.name for c in doc.checks if not c.passed and c.name != "witness_found"]
        assert not failing, f"N={nlev}: {failing}"
        for row in doc.directions:
            if row["mean_zero"]:
                analytic = row["order_2N2_analytic"]
                sampled = row["fit_coefficients"][2 * nlev - 3]
                worst = max(worst, abs(sampled - analytic) / abs(analytic))
    elapsed = time.time() - start
    assert worst <= 1e-8
    assert elapsed < 10.0
    report(10, "certificate sweep N=5..8", f"worst c_(2N-2) rel={worst:.2e}, {elapsed:.1f}s")
