"""Low-discrepancy sequences and reproducible randomness.

Sobol' points with the bundled Joe-Kuo direction numbers, digital-shift
randomization, an inverse normal CDF accurate to 1e-9, and counter-based
random streams addressed by (seed, level, m, n, purpose).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from importlib import resources

import numpy as np
from scipy.special import erfc

__all__ = [
    "SobolGenerator",
    "DigitalShift",
    "RandomStream",
    "sobol_points",
    "shifted_point",
    "safe_uniform",
    "inverse_normal_cdf",
    "normal_vector",
    "PURPOSE_SHIFT",
    "PURPOSE_NOISE",
]

_BITS = 32
_SCALE = float(2**_BITS)

# Purpose tags for RandomStream derivation.
PURPOSE_SHIFT = 1  # digital-shift masks for one randomization
PURPOSE_NOISE = 2  # per-sample white-noise draws


def _load_direction_numbers(max_dim: int, source=None):
    """Parse a `d s a m_i` table (the bundled Joe-Kuo file unless `source`
    names another) into direction integers.

    Returns an array of shape (_BITS, max_dim) of uint64; column j holds the
    direction integers of dimension j+1 (dimension 1 is the trivial van der
    Corput column, not present in the file).
    """
    V = np.zeros((_BITS, max_dim), dtype=np.uint64)
    V[:, 0] = [1 << (_BITS - i) for i in range(1, _BITS + 1)]
    if source is None:
        source = resources.files("haarmc").joinpath("data/joe-kuo-d6-1120.txt")
    with source.open() as f:
        header = f.readline()
        if header.split()[:1] != ["d"]:
            raise ValueError(f"direction number table has a bad header: {header!r}")
        for line in f:
            parts = line.split()
            if not parts:
                continue
            d = int(parts[0])
            if d > max_dim:
                break
            s = int(parts[1])
            a = int(parts[2])
            m = [int(t) for t in parts[3 : 3 + s]]
            col = np.zeros(_BITS, dtype=np.uint64)
            for i in range(1, min(s, _BITS) + 1):
                col[i - 1] = m[i - 1] << (_BITS - i)
            for i in range(s + 1, _BITS + 1):
                prev = col[i - s - 1]
                acc = prev ^ (prev >> np.uint64(s))
                for k in range(1, s):
                    if (a >> (s - 1 - k)) & 1:
                        acc ^= col[i - k - 1]
                col[i - 1] = acc
            V[:, d - 1] = col
    return V


class SobolGenerator:
    """Random-access Sobol' sequence, 32 bits per coordinate.

    Immutable and shareable across threads; point n is computed directly
    from the binary expansion of gray(n) = n ^ (n >> 1), so no generator
    state is carried between calls.
    """

    MAX_DIM = 1120

    def __init__(self, dim: int):
        if dim < 1 or dim > self.MAX_DIM:
            raise ValueError(
                f"dimension {dim} out of range (max supported dimension "
                f"is {self.MAX_DIM})"
            )
        self.dim = dim
        self._v = _directions(dim).copy()

    def integers(self, n) -> np.ndarray:
        """32-bit integer lattice points for sample index array n."""
        n = np.atleast_1d(np.asarray(n, dtype=np.uint64))
        if np.any(n >> np.uint64(31)):
            raise ValueError("sample index must be < 2^31")
        g = n ^ (n >> np.uint64(1))
        x = np.zeros((n.shape[0], self.dim), dtype=np.uint64)
        for b in range(int(g.max(initial=0)).bit_length()):
            sel = (g >> np.uint64(b)) & np.uint64(1) == 1
            if np.any(sel):
                x[sel] ^= self._v[b]
        return x


_direction_table = np.zeros((_BITS, 0), dtype=np.uint64)


def _directions(dim: int) -> np.ndarray:
    """Direction integers of the first `dim` dimensions, (_BITS, dim).

    One table is cached: the file is parsed only up to the largest
    dimension asked for so far, and again when a wider one is asked for.
    """
    global _direction_table
    table = _direction_table
    if table.shape[1] < dim:
        table = _direction_table = _load_direction_numbers(dim)
    return table[:, :dim]


def sobol_points(gen: SobolGenerator, n) -> np.ndarray:
    """Sobol' points of gen for an array of indices n, coordinates in [0, 1)."""
    return gen.integers(n).astype(np.float64) / _SCALE


@dataclass(frozen=True)
class DigitalShift:
    """Per-coordinate XOR masks on the first 32 bits."""

    masks: np.ndarray  # (dim,) uint64

    @property
    def dim(self) -> int:
        return self.masks.shape[0]

    @staticmethod
    def from_stream(stream: "RandomStream", dim: int) -> "DigitalShift":
        masks = stream.generator.integers(0, _SCALE, size=dim, dtype=np.uint64)
        return DigitalShift(masks)


def shifted_point(point: np.ndarray, shift: DigitalShift) -> np.ndarray:
    """Digitally shift a point (or batch of points) by XOR of the bit masks.

    An exact involution: shifting twice with the same masks returns the
    input. Guarding against a coordinate landing exactly on 0 is left to
    the consumer (see safe_uniform) so the involution is unconditional.
    """
    p = np.asarray(point, dtype=np.float64)
    bits = (p * _SCALE).astype(np.uint64)
    if p.ndim == 1:
        if bits.shape[0] != shift.dim:
            raise ValueError("point and shift dimensions differ")
        return (bits ^ shift.masks).astype(np.float64) / _SCALE
    if bits.shape[1] != shift.dim:
        raise ValueError("point and shift dimensions differ")
    return (bits ^ shift.masks[None, :]).astype(np.float64) / _SCALE


def safe_uniform(u: np.ndarray) -> np.ndarray:
    """Nudge coordinates that are exactly 0 (or 1) by 2^-33 so the inverse
    normal transform stays finite."""
    out = np.array(u, dtype=np.float64, copy=True)
    np.copyto(out, 2.0**-33, where=out == 0.0)
    np.copyto(out, 1.0 - 2.0**-33, where=out == 1.0)
    return out


# Rational approximation coefficients (Acklam), refined below to full
# double precision by a Halley step on an erfc-based CDF.
_A = (
    -3.969683028665376e01,
    2.209460984245205e02,
    -2.759285104469687e02,
    1.383577518672690e02,
    -3.066479806614716e01,
    2.506628277459239e00,
)
_B = (
    -5.447609879822406e01,
    1.615858368580409e02,
    -1.556989798598866e02,
    6.680131188771972e01,
    -1.328068155288572e01,
)
_C = (
    -7.784894002430293e-03,
    -3.223964580411365e-01,
    -2.400758277161838e00,
    -2.549732539343734e00,
    4.374664141464968e00,
    2.938163982698783e00,
)
_D = (
    7.784695709041462e-03,
    3.224671290700398e-01,
    2.445134137142996e00,
    3.754408661907416e00,
)


def inverse_normal_cdf(u) -> np.ndarray:
    """Inverse standard normal CDF, absolute accuracy 1e-9 on
    [1e-12, 1 - 1e-12].

    Computation is reduced to the lower tail by symmetry (1 - u is exact in
    floating point for u >= 1/2), where the erfc-based CDF used in the
    Halley correction keeps full relative accuracy.
    """
    u = np.asarray(u, dtype=np.float64)
    scalar = u.ndim == 0
    u = np.atleast_1d(u)
    if np.any((u <= 0.0) | (u >= 1.0)):
        raise ValueError("inverse_normal_cdf requires u in (0, 1)")
    flip = u > 0.5
    ut = np.where(flip, 1.0 - u, u)
    x = np.empty_like(ut)

    p_low = 0.02425
    lo = ut < p_low
    mid = ~lo

    if np.any(mid):
        q = ut[mid] - 0.5
        r = q * q
        num = ((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]
        den = ((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0
        x[mid] = num * q / den

    if np.any(lo):
        q = np.sqrt(-2.0 * np.log(ut[lo]))
        num = ((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]
        den = (((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0
        x[lo] = num / den

    # One Halley refinement against Phi(x) = erfc(-x/sqrt(2))/2; x <= 0 here.
    err = 0.5 * erfc(-x / np.sqrt(2.0)) - ut
    t = err * np.sqrt(2.0 * np.pi) * np.exp(0.5 * x * x)
    x = x - t / (1.0 + 0.5 * x * t)

    x[flip] = -x[flip]
    return x[0] if scalar else x


@dataclass(frozen=True)
class RandomStream:
    """Counter-based stream: the tuple (seed, level, m, n, purpose) is fed
    through SeedSequence into a fresh 64-bit PCG64 state, so draws are
    reproducible under any execution order."""

    seed: int
    level: int = 0
    m: int = 0
    n: int = 0
    purpose: int = PURPOSE_NOISE

    def __post_init__(self):
        if self.seed < 0 or self.level < -1 or self.m < 0 or self.n < 0:
            raise ValueError("stream path components out of range")

    @functools.cached_property
    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(
            (self.seed, self.level + 1, self.m, self.n, self.purpose)
        )
        return np.random.Generator(np.random.PCG64(ss))


def normal_vector(stream: RandomStream, k: int) -> np.ndarray:
    """k iid standard normals from the stream."""
    return stream.generator.standard_normal(k)
