"""Piecewise-constant control functions on a uniform grid over [0, T].

A control is the real function equal to values[j] on [j*T/M, (j+1)*T/M).
This subspace of L2([0,T]) is the declared test space: integrals and inner
products below are exact for it, so no quadrature error enters here.

Random directions come from numpy's PCG64 generator (np.random.default_rng),
which is seedable and produces the same stream on every platform, so sampled
directions replay bit-exactly from their recorded seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch


@dataclass(frozen=True)
class PiecewiseControl:
    """A control f: [0, T] -> R, constant on M equal segments."""

    horizon: float
    values: tuple[float, ...]

    def __post_init__(self):
        if not self.horizon > 0.0:
            raise ValueError(f"horizon must be positive, got {self.horizon!r}")
        if len(self.values) < 1:
            raise ValueError("need at least one segment")
        if not all(math.isfinite(x) for x in self.values):
            raise ValueError("control values must be finite")

    @property
    def segments(self) -> int:
        return len(self.values)

    @property
    def dt(self) -> float:
        return self.horizon / self.segments

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=np.float64)

    def scaled(self, factor: float) -> "PiecewiseControl":
        return PiecewiseControl(self.horizon, tuple(factor * x for x in self.values))

    def shifted(self, offset: float) -> "PiecewiseControl":
        return PiecewiseControl(self.horizon, tuple(x + offset for x in self.values))


def _check_grid(f: PiecewiseControl, g: PiecewiseControl):
    if f.horizon != g.horizon or f.segments != g.segments:
        raise GridMismatch(
            f"grids differ: (T={f.horizon!r}, M={f.segments}) vs (T={g.horizon!r}, M={g.segments})"
        )


def integral(f: PiecewiseControl) -> float:
    """Exact integral of f over [0, T]."""
    return f.dt * float(np.sum(f.as_array()))


def inner(f: PiecewiseControl, g: PiecewiseControl) -> float:
    """L2 inner product; exact on matching grids."""
    _check_grid(f, g)
    return f.dt * float(np.dot(f.as_array(), g.as_array()))


def norm(f: PiecewiseControl) -> float:
    """L2 norm sqrt(inner(f, f))."""
    return math.sqrt(max(inner(f, f), 0.0))


def project_mean_zero(f: PiecewiseControl) -> PiecewiseControl:
    """Orthogonal projection onto the mean-zero subspace (subtract the mean)."""
    mean = integral(f) / f.horizon
    return PiecewiseControl(f.horizon, tuple(x - mean for x in f.values))


def random_direction(
    seed: int,
    segments: int,
    horizon: float,
    mean_zero: bool = False,
    amplitude: float = 1.0,
) -> PiecewiseControl:
    """Seeded random control direction.

    Values are i.i.d. uniform on [-amplitude, amplitude].  With mean_zero the
    draw is projected onto the mean-zero subspace and rescaled to L2 norm
    amplitude * sqrt(T).  Deterministic in (seed, segments, horizon, flags).
    """
    if not amplitude > 0.0:
        raise ValueError(f"amplitude must be positive, got {amplitude!r}")
    rng = np.random.default_rng(int(seed))
    vals = rng.uniform(-amplitude, amplitude, int(segments))
    f = PiecewiseControl(float(horizon), tuple(float(x) for x in vals))
    if mean_zero:
        f = project_mean_zero(f)
        n = norm(f)
        if n > 0.0:
            f = f.scaled(amplitude * math.sqrt(horizon) / n)
    return f


def read_control_file(path) -> PiecewiseControl:
    """Parse the plain-text control format, strictly."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = [ln.strip() for ln in fh.read().splitlines()]
    lines = [ln for ln in raw if ln]
    if len(lines) < 2 or not lines[0].startswith("T ") or not lines[1].startswith("M "):
        raise ValueError(f"{path}: expected 'T <real>' then 'M <integer>' header lines")
    try:
        horizon = float(lines[0][2:])
        m = int(lines[1][2:])
    except ValueError as exc:
        raise ValueError(f"{path}: bad header: {exc}") from exc
    body = lines[2:]
    if len(body) != m:
        raise ValueError(f"{path}: expected {m} value lines, found {len(body)}")
    try:
        values = tuple(float(x) for x in body)
    except ValueError as exc:
        raise ValueError(f"{path}: bad control value: {exc}") from exc
    return PiecewiseControl(horizon, values)
