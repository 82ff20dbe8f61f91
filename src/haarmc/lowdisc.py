"""Low-discrepancy sequences and reproducible randomness.

Sobol' points with the bundled Joe-Kuo direction numbers, digital-shift
randomization, Wichura's AS241 inverse normal CDF, and counter-based random
streams addressed by (seed, level, m, n, purpose).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from importlib import resources

import numpy as np
from numpy.random import PCG64, Generator

__all__ = [
    "SobolGenerator",
    "DigitalShift",
    "StreamChunk",
    "sobol_points",
    "shifted_point",
    "inverse_normal_cdf",
    "normal_vector",
    "PURPOSE_SHIFT",
    "PURPOSE_NOISE",
]

_BITS = 32
_SCALE = float(2**_BITS)

# Purpose tags of the stream tuples.
PURPOSE_SHIFT = 1  # digital-shift masks for one randomization
PURPOSE_NOISE = 2  # per-sample white-noise draws


def _load_direction_numbers(max_dim: int):
    """Parse the bundled Joe-Kuo `d s a m_i` table into direction integers.

    Returns an array of shape (_BITS, max_dim) of uint64; column j holds the
    direction integers of dimension j+1 (dimension 1 is the trivial van der
    Corput column, not present in the file).
    """
    V = np.zeros((_BITS, max_dim), dtype=np.uint64)
    V[:, 0] = [1 << (_BITS - i) for i in range(1, _BITS + 1)]
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
            col = [int(m) << (_BITS - i) for i, m in enumerate(parts[3 : 3 + s][:_BITS], 1)]
            for i in range(s, _BITS):
                v = col[i - s] ^ (col[i - s] >> s)
                for k in range(1, s):
                    if (a >> (s - 1 - k)) & 1:
                        v ^= col[i - k]
                col.append(v)
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
        self._v = _directions(dim)  # a view of the shared table, read only

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
    """Per-coordinate XOR masks on the first 32 bits: one (dim,) row shared
    by all points, or a (rows, dim) stack with one row per point."""

    masks: np.ndarray  # (dim,) or (rows, dim) uint64

    @property
    def dim(self) -> int:
        return self.masks.shape[-1]

    @staticmethod
    def from_stream(stream: "StreamChunk", dim: int) -> "DigitalShift":
        masks = stream.generator.integers(0, _SCALE, size=dim, dtype=np.uint64)
        return DigitalShift(masks)


def shifted_point(point: np.ndarray, shift: DigitalShift) -> np.ndarray:
    """Digitally shift a point (or batch of points) by XOR of the bit masks.

    An exact involution: shifting twice with the same masks returns the
    input. Guarding against a coordinate landing exactly on 0 is left to
    the consumer (problem._qmc_normals nudges it to 2^-33) so the
    involution is unconditional.
    """
    p = np.asarray(point, dtype=np.float64)
    if p.shape[-1] != shift.dim:
        raise ValueError("point and shift dimensions differ")
    bits = (p * _SCALE).astype(np.uint64)
    return (bits ^ shift.masks).astype(np.float64) / _SCALE


# Wichura's AS241 (PPND16, Applied Statistics 37, 1988): rational
# approximations in r = 0.180625 - q^2 near the median and in
# r = sqrt(-log(min(u, 1 - u))) - 1.6 or - 5 in the tails, numerator and
# denominator coefficients from the constant term up.
_CENTRAL = (
    (
        3.3871328727963666080e0,
        1.3314166789178437745e2,
        1.9715909503065514427e3,
        1.3731693765509461125e4,
        4.5921953931549871457e4,
        6.7265770927008700853e4,
        3.3430575583588128105e4,
        2.5090809287301226727e3,
    ),
    (
        1.0,
        4.2313330701600911252e1,
        6.8718700749205790830e2,
        5.3941960214247511077e3,
        2.1213794301586595867e4,
        3.9307895800092710610e4,
        2.8729085735721942674e4,
        5.2264952788528545610e3,
    ),
)
_INTERMEDIATE = (
    (
        1.42343711074968357734e0,
        4.63033784615654529590e0,
        5.76949722146069140550e0,
        3.64784832476320460504e0,
        1.27045825245236838258e0,
        2.41780725177450611770e-1,
        2.27238449892691845833e-2,
        7.74545014278341407640e-4,
    ),
    (
        1.0,
        2.05319162663775882187e0,
        1.67638483018380384940e0,
        6.89767334985100004550e-1,
        1.48103976427480074590e-1,
        1.51986665636164571966e-2,
        5.47593808499534494600e-4,
        1.05075007164441684324e-9,
    ),
)
_FAR_TAIL = (
    (
        6.65790464350110377720e0,
        5.46378491116411436990e0,
        1.78482653991729133580e0,
        2.96560571828504891230e-1,
        2.65321895265761230930e-2,
        1.24266094738807843860e-3,
        2.71155556874348757815e-5,
        2.01033439929228813265e-7,
    ),
    (
        1.0,
        5.99832206555887937690e-1,
        1.36929880922735805310e-1,
        1.48753612908506148525e-2,
        7.86869131145613259100e-4,
        1.84631831751005468180e-5,
        1.42151175831644588870e-7,
        2.04426310338993978564e-15,
    ),
)


def _rational(coeffs, r: np.ndarray) -> np.ndarray:
    num, den = coeffs
    p = np.full_like(r, num[-1])
    q = np.full_like(r, den[-1])
    for a, b in zip(num[-2::-1], den[-2::-1]):
        p *= r
        p += a
        q *= r
        q += b
    p /= q
    return p


def inverse_normal_cdf(u) -> np.ndarray:
    """Inverse standard normal CDF (Wichura's AS241), accurate to about
    1e-16 relative; u must lie in (0, 1), and NaN is rejected too.

    The tails are evaluated on min(u, 1 - u) (1 - u is exact in floating
    point for u >= 1/2) and the sign is restored afterwards.
    """
    u = np.asarray(u, dtype=np.float64)
    scalar = u.ndim == 0
    u = np.atleast_1d(u)
    if not np.all((u > 0.0) & (u < 1.0)):
        raise ValueError("inverse_normal_cdf requires u in (0, 1)")
    q = u - 0.5
    # the central rational on every value, then the tails again
    r = np.multiply(q, q)
    np.subtract(0.180625, r, out=r)
    x = _rational(_CENTRAL, r)
    x *= q
    # q and x are new arrays, so their flat views write through
    q, x = q.reshape(-1), x.reshape(-1)
    tail = np.flatnonzero(np.abs(q) > 0.425)
    if tail.size:
        ut = np.ravel(u)[tail]
        r = np.sqrt(-np.log(np.minimum(ut, 1.0 - ut)))
        # the intermediate rational on every tail value, then the far tail again
        xt = _rational(_INTERMEDIATE, r - 1.6)
        far = np.flatnonzero(r > 5.0)
        xt[far] = _rational(_FAR_TAIL, r[far] - 5.0)
        x[tail] = np.copysign(xt, q[tail])
    return x[0] if scalar else x.reshape(u.shape)


# numpy's SeedSequence hash (pool of four 32-bit words) and PCG64's 128-bit
# set-seq seeding, reproduced so a chunk of streams opens in one pass.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # mix_entropy's hash constant
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # generate_state's
_MIX_L = np.uint32(0xCA01F9DD)
_MIX_R = np.uint32(0x4973F715)
_SHIFT = np.uint32(16)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1
# for each source word of the all-pairs mixing step, the other pool words
_OTHER_POOL_WORDS = [
    np.array([i for i in range(_POOL_SIZE) if i != src]) for src in range(_POOL_SIZE)
]


@functools.lru_cache(maxsize=None)
def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """init * mult^k mod 2^32 for k = 0..count, as a (count + 1, 1) column:
    the hash constant before and after each of count hash calls. Cached,
    so read only."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK32)
    column = np.array(out, dtype=np.uint32)[:, None]
    column.flags.writeable = False
    return column


def _int_words(x: int) -> list:
    """The 32-bit entropy words of a non-negative int, least significant
    first, as SeedSequence splits it (0 gives one word)."""
    words = [x & _MASK32]
    while x > _MASK32:
        x >>= 32
        words.append(x & _MASK32)
    return words


def _hashmix(v: np.ndarray, const: np.ndarray, k: int, count: int) -> np.ndarray:
    """Hash calls k..k+count-1 of SeedSequence on v, one per row of the
    result; const is from _hash_constants."""
    h = v ^ const[k : k + count]
    h *= const[k + 1 : k + count + 1]
    h ^= h >> _SHIFT
    return h


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * _MIX_L
    r -= y * _MIX_R
    r ^= r >> _SHIFT
    return r


def _seed_state(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence(row).generate_state(4, np.uint64) for each row of the
    (B, W) uint32 entropy words, W >= 4.

    The pool is mixed as numpy's SeedSequence.mix_entropy does, with the
    sample axis last. The hash constant steps once per hash call whatever
    the data, so the hashes of one word into several pool words are one
    (k, B) step.
    """
    n_words = entropy.shape[1]
    a = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * (n_words + _POOL_SIZE - 1))
    # pool word i is hash call i of entropy word i
    pool = _hashmix(entropy[:, :_POOL_SIZE].T, a, 0, _POOL_SIZE)
    k = _POOL_SIZE
    for src in range(_POOL_SIZE):
        dst = _OTHER_POOL_WORDS[src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], a, k, _POOL_SIZE - 1))
        k += _POOL_SIZE - 1
    for src in range(_POOL_SIZE, n_words):
        pool = _mix(pool, _hashmix(entropy[:, src], a, k, _POOL_SIZE))
        k += _POOL_SIZE
    # generate_state(4, uint64): eight 32-bit words, cycling over the pool
    b = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
    words = _hashmix(np.concatenate([pool, pool]), b, 0, 2 * _POOL_SIZE)
    # little-endian pairs of 32-bit words are the 64-bit state words
    return np.ascontiguousarray(words.T, dtype="<u4").view("<u8").astype(np.uint64)


def _pcg64_seeded(s0: int, s1: int, i0: int, i1: int) -> tuple:
    """(state, inc) of a PCG64 seeded with the four 64-bit words of
    generate_state(4, np.uint64): the set-seq step of pcg64_set_seed."""
    inc = (((i0 << 64) | i1) << 1 | 1) & _MASK128
    return ((inc + ((s0 << 64) | s1)) * _PCG_MULT + inc) & _MASK128, inc


def _indices(x) -> np.ndarray:
    """An integer or integer array as a flat uint64 array; ValueError for
    entries outside [0, 2^64)."""
    a = np.asarray(x)
    if a.dtype.kind not in "iu" or (a.size and a.min() < 0):
        raise ValueError("stream path components out of range")
    return a.astype(np.uint64).ravel()


class StreamChunk:
    """The streams (seed, level, m[k], n[k], purpose), k = 0..K-1, opened at
    once.

    m and n are replicate and sample indices below 2^64, ints or integer
    arrays broadcast against each other to the chunk's K streams. Stream k
    is the PCG64 generator numpy seeds from
    SeedSequence((seed, level + 1, m[k], n[k], purpose)); the chunk hashes
    all its streams together and keeps one PCG64 and Generator, which
    `select(k)` sets to the start of stream k. A chunk carries generator
    state, so threads must not share one.
    """

    def __init__(self, seed: int, level: int, m, n, purpose: int):
        if seed < 0 or level < -1 or purpose < 0:
            raise ValueError("stream path components out of range")
        m, n = np.broadcast_arrays(_indices(m), _indices(n))
        head = _int_words(seed) + _int_words(level + 1)
        tail = _int_words(purpose)
        # indices from 2^32 on split into two entropy words, not one
        n_words = [1 + (x >> np.uint64(32) > 0) for x in (m, n)]
        self._states = [None] * m.size
        for mw, nw in ((1, 1), (1, 2), (2, 1), (2, 2)):
            rows = np.flatnonzero((n_words[0] == mw) & (n_words[1] == nw))
            if rows.size == 0:
                continue
            entropy = np.empty((rows.size, len(head) + mw + nw + len(tail)), dtype=np.uint32)
            entropy[:, : len(head)] = head
            col = len(head)
            for x, words in ((m[rows], mw), (n[rows], nw)):
                for k in range(words):
                    entropy[:, col] = x >> np.uint64(32 * k) & np.uint64(_MASK32)
                    col += 1
            entropy[:, col:] = tail
            for k, state in zip(rows.tolist(), _seed_state(entropy).tolist()):
                self._states[k] = _pcg64_seeded(*state)
        self._bits = PCG64(0)
        self.generator = Generator(self._bits)

    def select(self, k: int) -> None:
        """Set `generator` to the start of stream k."""
        state, inc = self._states[k]
        self._bits.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }


def normal_vector(stream, k: int, out=None) -> np.ndarray:
    """k iid standard normals from a stream's generator (a StreamChunk set
    to one of its streams), written into `out` (a contiguous float64 array
    of k values) and returned when it is given."""
    if out is None:
        return stream.generator.standard_normal(k)
    if out.shape != (k,):
        raise ValueError("out must hold k values")
    # numpy checks a size against out by catching a TypeError, which costs
    # more than drawing a hundred normals
    return stream.generator.standard_normal(out=out)
