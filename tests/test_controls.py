import math

import numpy as np
import pytest

from trapscope.controls import (
    PiecewiseControl,
    _PCG64,
    inner,
    integral,
    norm,
    project_mean_zero,
    random_direction,
    read_control_file,
)
from trapscope.errors import GridMismatch

from oracles import constant, sample_midpoints, write_control_file, zero


def test_integral_zero_and_constant():
    assert integral(zero(2 * math.pi, 32)) == 0.0
    for m in (1, 7, 64):
        assert integral(constant(1.0, 2 * math.pi, m)) == pytest.approx(2 * math.pi, abs=1e-14)


def test_integral_midpoint_cos_cancels_over_full_period():
    f = sample_midpoints(math.cos, 2 * math.pi, 64)
    # exact antiderivative over a full period is 0; midpoint sums cancel by symmetry
    assert abs(integral(f)) <= 1e-12


def test_inner_basics():
    f = random_direction(1, 16, 3.0)
    assert inner(f, zero(3.0, 16)) == 0.0
    one = constant(1.0, 3.0, 16)
    assert inner(one, one) == pytest.approx(3.0, abs=1e-14)


def test_inner_symmetry_and_grid_mismatch():
    f = random_direction(2, 32, 1.5)
    g = random_direction(3, 32, 1.5)
    assert inner(f, g) == inner(g, f)
    with pytest.raises(GridMismatch):
        inner(f, random_direction(3, 16, 1.5))
    with pytest.raises(GridMismatch):
        inner(f, random_direction(3, 32, 2.5))


def test_project_constant_to_zero():
    p = project_mean_zero(constant(3.7, 2.0, 8))
    assert max(abs(x) for x in p.values) <= 1e-15


def test_project_idempotent_and_example():
    p = project_mean_zero(PiecewiseControl(1.0, (2.0, 0.0)))
    assert p.values == (1.0, -1.0)
    again = project_mean_zero(p)
    assert max(abs(a - b) for a, b in zip(again.values, p.values)) <= 1e-15


def test_projection_is_orthogonal():
    rng = np.random.default_rng(7)
    for trial in range(20):
        f = random_direction(100 + trial, 32, 2.0, amplitude=1.5)
        g = random_direction(200 + trial, 32, 2.0, mean_zero=True)
        pf = project_mean_zero(f)
        assert abs(integral(pf)) <= 1e-14 * max(norm(f), 1.0) * math.sqrt(2.0)
        assert abs(inner(f, g) - inner(pf, g)) <= 1e-10


def test_scaling_exactness():
    f = random_direction(5, 24, 2.0)
    for t in (0.5, 2.0, -1.0):
        assert integral(f.scaled(t)) == t * integral(f)
        assert norm(f.scaled(t)) == pytest.approx(abs(t) * norm(f), rel=1e-15)


def test_mean_plus_fluctuation_rebuilds_the_control():
    for seed in range(5):
        f = random_direction(40 + seed, 48, 3.0, amplitude=2.0)
        pf = project_mean_zero(f)
        mean_part = constant(integral(f) / f.horizon, f.horizon, f.segments)
        rebuilt = tuple(a + b for a, b in zip(pf.values, mean_part.values))
        assert max(abs(a - b) for a, b in zip(rebuilt, f.values)) <= 1e-14
        total = norm(f) ** 2
        split = norm(pf) ** 2 + norm(mean_part) ** 2
        assert split == pytest.approx(total, rel=1e-10)


def test_random_direction_deterministic():
    a = random_direction(123, 64, 2.0, mean_zero=True, amplitude=0.7)
    b = random_direction(123, 64, 2.0, mean_zero=True, amplitude=0.7)
    assert a.values == b.values
    c = random_direction(124, 64, 2.0, mean_zero=True, amplitude=0.7)
    assert a.values != c.values


def test_random_direction_mean_zero_normalization():
    f = random_direction(9, 64, 2 * math.pi, mean_zero=True, amplitude=0.8)
    assert abs(integral(f)) <= 1e-12
    assert norm(f) == pytest.approx(0.8 * math.sqrt(2 * math.pi), rel=1e-12)


def test_random_direction_amplitude_bounds():
    f = random_direction(11, 256, 1.0, amplitude=0.3)
    assert max(abs(x) for x in f.values) <= 0.3


def test_control_file_round_trip(tmp_path):
    f = random_direction(77, 32, 2 * math.pi, mean_zero=True, amplitude=1.1)
    path = tmp_path / "f.txt"
    write_control_file(path, f)
    g = read_control_file(path)
    assert g.horizon == f.horizon
    assert g.values == f.values


def test_control_file_strict_parsing(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("T 1.0\nM 3\n0.5\n0.5\n")
    with pytest.raises(ValueError):
        read_control_file(path)
    path.write_text("M 2\nT 1.0\n0.5\n0.5\n")
    with pytest.raises(ValueError):
        read_control_file(path)
    path.write_text("T 1.0\nM 2\n0.5\nnot-a-number\n")
    with pytest.raises(ValueError):
        read_control_file(path)
    path.write_text("T 1.0\nM two\n0.5\n0.5\n")
    with pytest.raises(ValueError, match=r"bad\.txt: bad header: invalid literal for int"):
        read_control_file(path)


@pytest.mark.parametrize(
    "horizon, values, head",
    [
        (0.0, (1.0,), "horizon must be positive and finite, got 0.0"),
        (1.0, (), "need at least one segment"),
        (1.0, (0.5, math.inf), "control values must be finite"),
        (math.inf, (1.0, 2.0), "horizon must be positive and finite, got inf"),
    ],
    ids=["zero-horizon", "no-segments", "non-finite", "infinite-horizon"],
)
def test_piecewise_control_refuses_bad_fields(horizon, values, head):
    with pytest.raises(ValueError, match=f"^{head}"):
        PiecewiseControl(horizon, values)


def test_random_direction_takes_numpy_integers_bit_for_bit():
    for mean_zero in (False, True):
        want = random_direction(7, 8, 1.0, mean_zero=mean_zero)
        assert random_direction(np.int64(7), np.uint16(8), 1.0, mean_zero=mean_zero) == want


def test_random_direction_refuses_a_zero_amplitude():
    with pytest.raises(ValueError, match=r"^amplitude must be positive, got 0"):
        random_direction(1, 8, 1.0, amplitude=0)


# ---------------------------------------------------------------- stream

# Seeds of one to five 32-bit words, the last the size of a 41-digit seed
# that the command line's `seed` key accepts.
SEEDS = [*range(64), 2**32, 2**64 + 1, 2**130 + 7, 12345678901234567890123456789012345678901]
SIZES = [1, 63, 64, 65, 129, 4096]


@pytest.mark.parametrize("seed", SEEDS)
def test_stream_is_numpys_pcg64(seed):
    for n in SIZES:
        raw = np.random.PCG64(seed).random_raw(n)
        assert _PCG64(seed).raw(n).tobytes() == raw.tobytes(), n
        expected = np.random.default_rng(seed).uniform(-0.7, 0.7, n)
        assert _PCG64(seed).uniform(-0.7, 0.7, n).tobytes() == expected.tobytes(), n
    # successive calls continue the stream
    for sizes in (SIZES, (1000, 1, 3000)):
        stream, rng = _PCG64(seed), np.random.default_rng(seed)
        for n in sizes:
            assert stream.uniform(0.5, 3.0, n).tobytes() == rng.uniform(0.5, 3.0, n).tobytes(), n


def test_stream_refuses_a_negative_seed():
    with pytest.raises(ValueError):
        np.random.default_rng(-1)
    with pytest.raises(ValueError):
        _PCG64(-1)
    with pytest.raises(ValueError):
        random_direction(-1, 8, 1.0)


@pytest.mark.parametrize("mean_zero", [False, True])
def test_random_direction_is_the_numpy_draw(mean_zero):
    # The array route gives the values the numpy draw gives through the
    # control helpers, bit for bit.
    grids = ((64, 2 * math.pi, 0.5), (7, 3, 1.3), (1, 0.25, 2.0), (4096, 2 * math.pi, 0.5))
    for seed in (0, 9, 20240901, 2**64 + 1):
        for segments, horizon, amplitude in grids:
            vals = np.random.default_rng(seed).uniform(-amplitude, amplitude, segments)
            f = PiecewiseControl(float(horizon), tuple(float(x) for x in vals))
            if mean_zero:
                f = project_mean_zero(f)
                n = norm(f)
                if n > 0.0:
                    f = f.scaled(amplitude * math.sqrt(horizon) / n)
            got = random_direction(seed, segments, horizon, mean_zero=mean_zero, amplitude=amplitude)
            assert got == f


def test_random_direction_refuses_an_empty_grid():
    for segments, horizon in ((0, 1.0), (-2, 1.0), (4, 0.0), (4, -1.0), (4, math.nan), (4, math.inf)):
        with pytest.raises(ValueError, match=r"^need a positive finite horizon and at least one segment"):
            random_direction(1, segments, horizon)
    # seed and segments are integers, never truncated from a float
    with pytest.raises(ValueError, match=r"^seed must be an integer, got 7\.9$"):
        random_direction(7.9, 8, 1.0)
    with pytest.raises(ValueError, match=r"^segments must be an integer, got 8\.7$"):
        random_direction(1, 8.7, 1.0)
