"""Piecewise-constant control functions on a uniform grid over [0, T].

A control is the real function equal to values[j] on [j*T/M, (j+1)*T/M).
This subspace of L2([0,T]) is the declared test space: integrals and inner
products below are exact for it, so no quadrature error enters here.

Random draws come from _PCG64, this package's own copy of the stream that
numpy's default_rng(seed).uniform reads: PCG64 XSL-RR 128/64 (O'Neill,
HMC-CS-2014-0905) seeded through numpy's SeedSequence, reproduced bit for bit
(tests/test_controls.py pins it to numpy).  Sampled directions therefore
replay bit-exactly from their recorded seeds whatever numpy's Generator
does in later releases, and no run loads numpy's random package, whose
import (with OpenSSL, through its `secrets` import) costs 15-23 ms and
5-6 MB of peak RSS per process on a 2-vCPU host.  The state steps once per
draw in Python ints.  A run draws each probe direction's M values from a
fresh stream, so what counts is the cost of one short stream: about 45 us
at M = 64, seeding included, growing linearly to about 1 ms at M = 4096.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, count


@dataclass(frozen=True)
class PiecewiseControl:
    """A control f: [0, T] -> R, constant on M equal segments; T is positive
    and finite, and every value finite."""

    horizon: float
    values: tuple[float, ...]

    def __post_init__(self):
        if not 0.0 < self.horizon < math.inf:
            raise ValueError(f"horizon must be positive and finite, got {self.horizon!r}")
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


_M32 = 0xFFFFFFFF
_M128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_state(seed: int) -> tuple[int, int]:
    """(state, increment) of numpy's PCG64 after seeding with SeedSequence(seed).

    The seed's little-endian 32-bit words are hashed into a pool of four,
    the pool into eight output words, and those into PCG64's initial state
    and stream increment (bit_generator.pyx and pcg64.h in numpy's random
    package).  All arithmetic is on Python ints, masked to the C word width.
    The seed is an integer >= 0 (numpy integers included); a float, even
    7.0, raises ValueError and is never truncated.
    """
    seed = count("seed", seed, 0, ValueError)
    words = [(seed >> shift) & _M32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    hc = 0x43B0D7E5

    def hashmix(v: int) -> int:
        nonlocal hc
        v ^= hc
        hc = hc * 0x931E8875 & _M32
        v = v * hc & _M32
        return v ^ (v >> 16)

    def mix(x: int, y: int) -> int:
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ (r >> 16)

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hc = 0x8B51F9DD
    out = []
    for i in range(8):
        v = pool[i % 4] ^ hc
        hc = hc * 0x58F38DED & _M32
        v = v * hc & _M32
        out.append(v ^ (v >> 16))
    u = [out[2 * j] | out[2 * j + 1] << 32 for j in range(4)]
    inc = ((u[2] << 64 | u[3]) << 1 | 1) & _M128
    state = ((inc + (u[0] << 64 | u[1])) * _PCG64_MULT + inc) & _M128  # two steps from 0
    return state, inc


class _PCG64:
    """The draws of numpy's default_rng(seed), reproduced bit for bit.

    Each draw steps the 128-bit LCG once, s -> s * mult + inc (mod 2^128),
    in Python ints; its output is the XSL-RR permutation of the stepped
    state, applied once per call in numpy to the high and low 64-bit words
    of all the call's states.  Successive calls continue one stream.
    """

    def __init__(self, seed: int):
        self._state, self._inc = _seed_state(seed)

    def raw(self, n: int) -> np.ndarray:
        """The next n >= 1 64-bit outputs (numpy's PCG64(seed).random_raw(n))."""
        s, inc, states = self._state, self._inc, []
        for _ in range(n):
            s = (s * _PCG64_MULT + inc) & _M128
            states.append(s.to_bytes(16, "little"))
        self._state = s
        lo, hi = np.frombuffer(b"".join(states), dtype="<u8").reshape(n, 2).T
        x, r = hi ^ lo, hi >> 58
        return (x >> r) | (x << ((64 - r) & 63))

    def uniform(self, low: float, high: float, n: int) -> np.ndarray:
        """n draws of uniform(low, high), as numpy forms them: low + (high - low) u,
        u the next n doubles in [0, 1) of 53 bits each."""
        return low + (high - low) * ((self.raw(n) >> 11).astype(np.float64) * 2.0**-53)


def _direction_values(seed: int, segments: int, horizon: float, mean_zero: bool, amplitude: float) -> np.ndarray:
    """The values of random_direction(seed, ...), as one float64 array."""
    if not amplitude > 0.0:
        raise ValueError(f"amplitude must be positive, got {amplitude!r}")
    horizon, segments = float(horizon), count("segments", segments, None, ValueError)
    if not 0.0 < horizon < math.inf or segments < 1:
        raise ValueError(
            f"need a positive finite horizon and at least one segment, got T={horizon!r}, M={segments!r}"
        )
    vals = _PCG64(seed).uniform(-amplitude, amplitude, segments)
    if mean_zero:
        # integral, project_mean_zero, norm and scaled, elementwise as they
        # compute them, so the values are bit-identical to that route.
        dt = horizon / segments
        vals = vals - dt * float(np.sum(vals)) / horizon
        n = math.sqrt(max(dt * float(np.dot(vals, vals)), 0.0))
        if n > 0.0:
            vals = vals * (amplitude * math.sqrt(horizon) / n)
    return vals


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
    seed (>= 0) and segments (>= 1) are integers, numpy integers included;
    anything else raises ValueError, so no float is truncated to a count.
    """
    vals = _direction_values(seed, segments, horizon, mean_zero, amplitude)
    return PiecewiseControl(float(horizon), tuple(vals.tolist()))


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
