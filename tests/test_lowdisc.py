"""Low-discrepancy and random-input kernel tests.

The Sobol' stratification checks are exact combinatorial statements, not
statistical ones; the statistical checks at the bottom run with pinned
seeds so the suite stays deterministic.
"""

import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haarmc import lowdisc
from haarmc.lowdisc import (
    PURPOSE_NOISE,
    PURPOSE_SHIFT,
    DigitalShift,
    SobolGenerator,
    StreamChunk,
    inverse_normal_cdf,
    normal_vector,
    safe_uniform,
    shifted_point,
    sobol_points,
)
import oracles
from oracles import RandomStream, normal_inverse, sobol_gray_recurrence, sobol_point

GEN64 = SobolGenerator(64)


def one_stream(seed, level=0, m=0, n=0, purpose=PURPOSE_NOISE):
    """The chunk of the one stream (seed, level, m, n, purpose), selected."""
    chunk = StreamChunk(seed, level, m, n, purpose)
    chunk.select(0)
    return chunk


def test_first_point_is_zero():
    np.testing.assert_array_equal(sobol_point(GEN64, 0), np.zeros(64))


def test_van_der_corput_prefix():
    vals = [sobol_point(GEN64, n)[0] for n in (1, 2, 3)]
    assert vals == [0.5, 0.75, 0.25]


@pytest.mark.parametrize("k", range(1, 9))
def test_stratification_all_dims(k):
    pts = sobol_points(GEN64, np.arange(2**k))
    scaled = np.floor(pts * 2**k).astype(int)
    expect = np.arange(2**k)
    for d in range(64):
        assert np.array_equal(np.sort(scaled[:, d]), expect)


@pytest.mark.parametrize("dim", [1, 128])
def test_integers_match_gray_code_recurrence(dim):
    gen = SobolGenerator(dim)
    ref = sobol_gray_recurrence(gen, 4096)
    np.testing.assert_array_equal(gen.integers(np.arange(0, 4096)), ref)
    for n in (0, 1, 2, 3, 4, 1000, 4095):
        np.testing.assert_array_equal(gen.integers([n])[0], ref[n])
    empty = gen.integers(np.arange(0))
    assert empty.shape == (0, dim) and empty.dtype == np.uint64


def test_dimension_overflow_message():
    with pytest.raises(ValueError, match=str(SobolGenerator.MAX_DIM)):
        SobolGenerator(SobolGenerator.MAX_DIM + 1)
    with pytest.raises(ValueError):
        sobol_points(GEN64, [2**31])


def test_partial_direction_table_matches_full_parse():
    """Generators parse the table only up to the widest dimension asked for;
    every prefix, grown or not, equals the columns of a full parse."""
    full = lowdisc._load_direction_numbers(SobolGenerator.MAX_DIM)
    for dim in (24, 200, 3, 64):
        np.testing.assert_array_equal(SobolGenerator(dim)._v, full[:, :dim])


def test_direction_table_matches_uint64_recurrence():
    """Every column of the Python-int recurrence equals the one run on
    numpy uint64 scalars."""
    full = lowdisc._load_direction_numbers(SobolGenerator.MAX_DIM)
    ref = oracles.load_direction_numbers(SobolGenerator.MAX_DIM)
    assert full.dtype == ref.dtype == np.uint64
    np.testing.assert_array_equal(full, ref)


def test_zero_shift_is_identity():
    shift = DigitalShift(np.zeros(64, dtype=np.uint64))
    pts = sobol_points(GEN64, np.arange(16))
    np.testing.assert_array_equal(shifted_point(pts, shift), pts)


@given(st.integers(0, 2**31 - 1), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_shift_involution(n, mask):
    shift = DigitalShift(np.full(4, mask, dtype=np.uint64))
    gen = SobolGenerator(4)
    p = sobol_point(gen, n)
    np.testing.assert_array_equal(shifted_point(shifted_point(p, shift), shift), p)


def test_shift_preserves_stratification():
    shift = DigitalShift.from_stream(RandomStream(5, purpose=PURPOSE_SHIFT), 64)
    for k in (2, 5, 8):
        pts = shifted_point(sobol_points(GEN64, np.arange(2**k)), shift)
        scaled = np.floor(pts * 2**k).astype(int)
        for d in range(64):
            assert np.array_equal(np.sort(scaled[:, d]), np.arange(2**k))


def test_shift_dimension_mismatch():
    with pytest.raises(ValueError):
        shifted_point(np.zeros(3), DigitalShift(np.zeros(2, dtype=np.uint64)))


def test_safe_uniform_endpoints():
    u = safe_uniform(np.array([0.0, 0.25, 1.0]))
    np.testing.assert_array_equal(u, [2.0**-33, 0.25, 1.0 - 2.0**-33])


def test_inverse_normal_pins():
    assert inverse_normal_cdf(0.5) == 0.0
    assert inverse_normal_cdf(0.975) == pytest.approx(1.959964, abs=5e-7)


def test_inverse_normal_symmetry():
    u = np.linspace(0.001, 0.499, 200)
    np.testing.assert_allclose(
        inverse_normal_cdf(1.0 - u), -inverse_normal_cdf(u), atol=1e-12
    )


def test_inverse_normal_accuracy_and_monotone():
    u = np.unique(
        np.concatenate(
            [
                np.logspace(-12, -2, 400),
                np.linspace(0.01, 0.99, 1200),
                1.0 - np.logspace(-12, -2, 400),
            ]
        )
    )
    x = inverse_normal_cdf(u)
    ref = normal_inverse(u)
    assert np.max(np.abs(x - ref)) < 1e-9
    order = np.argsort(u)
    assert np.all(np.diff(x[order]) > 0)


def test_inverse_normal_relative_accuracy_against_ndtri():
    from scipy.special import ndtri

    rng = np.random.default_rng(5)
    u = np.concatenate(
        [
            rng.random(100_000),
            10.0 ** rng.uniform(-300, -1, 20_000),
            1.0 - 10.0 ** rng.uniform(-16, -1, 20_000),
            [0.075, 0.925, 2.0**-33, 1.0 - 2.0**-33],
        ]
    )
    ref = ndtri(u)
    x = inverse_normal_cdf(u)
    assert np.max(np.abs(x - ref) / np.maximum(np.abs(ref), 1e-300)) < 4e-15


def test_inverse_normal_in_place_equals_the_masked_evaluation():
    """The central rational runs on every value in place and the tails are
    recomputed; the result is bit-equal to evaluating each rational on its
    own values only."""
    q = 128
    shifts = np.stack(
        [DigitalShift.from_stream(one_stream(7, 5, m, 0, PURPOSE_SHIFT), q).masks for m in range(4)]
    )
    pts = sobol_points(SobolGenerator(q), np.arange(128))
    # a (512, 128) block of shifted points: four replicates of 128 samples
    u = safe_uniform(shifted_point(pts[None], DigitalShift(shifts[:, None]))).reshape(512, q)
    np.testing.assert_array_equal(inverse_normal_cdf(u), oracles.inverse_normal_cdf_masked(u))
    edges = np.array([2.0**-33, 1.0 - 2.0**-33, 0.075, 0.925, 0.5, 0.0749999999, 0.9250000001])
    # both tails, on both sides of the far-tail switch at r = 5
    tails = np.array([5e-324, 1e-300, 1e-12, 1.3e-11, 1.4e-11, 1e-3, 1 - 1e-3, 1 - 1e-12, 1 - 2.0**-53])
    for v in (tails, tails[::-1].reshape(3, 3), np.r_[tails, edges, u[0]]):
        np.testing.assert_array_equal(inverse_normal_cdf(v), oracles.inverse_normal_cdf_masked(v))
    np.testing.assert_array_equal(inverse_normal_cdf(edges), oracles.inverse_normal_cdf_masked(edges))
    for v in edges:
        x = inverse_normal_cdf(v)
        assert np.ndim(x) == 0
        assert x == oracles.inverse_normal_cdf_masked(v)
    x = inverse_normal_cdf(np.array([0.3]))
    assert x.shape == (1,) and x[0] == oracles.inverse_normal_cdf_masked(0.3)


def test_inverse_normal_domain():
    for bad in (0.0, 1.0, -0.5, 1.5, np.nan, [0.3, np.nan], [[0.5, 0.2], [0.0, 0.7]]):
        with pytest.raises(ValueError):
            inverse_normal_cdf(bad)


def test_normal_vector_empty():
    assert normal_vector(one_stream(0), 0).shape == (0,)


def test_normal_vector_into_a_buffer():
    # one row of a buffer, as the sampler draws a sample's blocks
    buf = np.zeros((3, 12))
    row = buf[1, 4:]
    assert normal_vector(one_stream(4, 1, 2, 3), 8, out=row) is row
    np.testing.assert_array_equal(row, normal_vector(one_stream(4, 1, 2, 3), 8))
    assert not buf[1, :4].any() and not buf[[0, 2]].any()
    with pytest.raises(ValueError):
        normal_vector(one_stream(0), 3, out=buf[:, 0])  # not contiguous


def test_stream_determinism_and_paths():
    a = normal_vector(one_stream(42, 3, 1, 7), 16)
    b = normal_vector(one_stream(42, 3, 1, 7), 16)
    np.testing.assert_array_equal(a, b)
    c = normal_vector(one_stream(42, 3, 1, 8), 16)
    assert not np.array_equal(a, c)
    d = normal_vector(one_stream(42, 3, 1, 7, PURPOSE_SHIFT), 16)
    assert not np.array_equal(a, d)
    e = normal_vector(one_stream(42, 3, 2, 7), 16)
    assert not np.array_equal(a, e)


def test_stream_instance_is_stateful():
    # a selected stream advances; selecting it again replays from the start
    s = one_stream(9)
    first = normal_vector(s, 4)
    second = normal_vector(s, 4)
    assert not np.array_equal(first, second)
    s.select(0)
    replay = normal_vector(s, 8)
    np.testing.assert_array_equal(replay, np.concatenate([first, second]))


def test_stream_rejects_bad_path():
    with pytest.raises(ValueError):
        StreamChunk(-1, 0, 0, 0, PURPOSE_NOISE)
    with pytest.raises(ValueError):
        StreamChunk(0, 0, 0, -2, PURPOSE_NOISE)
    with pytest.raises(ValueError):
        StreamChunk(0, 0, [0, -1], 0, PURPOSE_NOISE)


def _seed_sequence(seed, level, m, n, purpose):
    """The SeedSequence a stream's tuple names: numpy's, the oracle."""
    return np.random.SeedSequence((seed, level + 1, m, n, purpose))


def _stream_tuples():
    edges = [
        (seed, level, m, n, purpose)
        for seed in (0, 2**32 - 1, 2**32, 2**64 + 1)
        for level, m in ((-1, 0), (0, 0), (5, 2**32 - 1))
        for n in (0, 2**32 - 1, 2**32, 2**64 - 1)
        for purpose in (PURPOSE_SHIFT, PURPOSE_NOISE)
    ]
    rng = random.Random(7)
    randoms = [
        (
            rng.getrandbits(rng.choice([1, 31, 32, 33, 64, 70])),
            rng.randrange(-1, 40),
            rng.getrandbits(rng.choice([1, 8, 33])),
            rng.getrandbits(rng.choice([1, 31, 32, 40, 64])),
            rng.randrange(0, 2**rng.choice([2, 32, 35])),
        )
        for _ in range(300)
    ]
    return edges + randoms


def test_stream_hash_and_pcg64_state_match_numpy():
    for t in _stream_tuples():
        ss = _seed_sequence(*t)
        seed, level, m, n, purpose = t
        words = [
            w for v in (seed, level + 1, m, n, purpose) for w in lowdisc._int_words(v)
        ]
        state = lowdisc._seed_state(np.array([words], dtype=np.uint32))
        np.testing.assert_array_equal(state[0], ss.generate_state(4, np.uint64), str(t))
        assert one_stream(*t)._bits.state == np.random.PCG64(ss).state, t


def test_stream_chunk_crossing_2_32_matches_numpy_draws():
    # each chunk holds a replicate-major (m, n) grid, with one- and two-word
    # replicate and sample indices
    for m0, m1, n0, n1 in (
        (0, 1, 2**32 - 5, 2**32 + 6),  # one replicate, n on both sides of 2^32
        (2**32 - 2, 2**32 + 2, 2**32 - 2, 2**32 + 1),  # m and n on both sides
        (3, 6, 0, 4),  # one-word indices only
        (2**64 - 3, 2**64, 2**64 - 2, 2**64),  # the largest indices
    ):
        grid = [(m, n) for m in range(m0, m1) for n in range(n0, n1)]
        ms, ns = (np.array(v, dtype=np.uint64) for v in zip(*grid))
        chunk = StreamChunk(2**64 + 1, -1, ms, ns, PURPOSE_NOISE)
        order = list(range(len(grid)))
        random.Random(len(grid)).shuffle(order)
        for k in order + order[:3]:  # any order, and revisits
            chunk.select(k)
            m, n = grid[k]
            ref = np.random.Generator(np.random.PCG64(_seed_sequence(2**64 + 1, -1, m, n, 2)))
            np.testing.assert_array_equal(
                normal_vector(chunk, 7), ref.standard_normal(7), str((m, n))
            )


def test_random_stream_is_the_one_stream_chunk():
    # the oracle's one stream at a time against lowdisc's chunk of one
    for t in _stream_tuples()[:50]:
        draws = normal_vector(one_stream(*t), 5)
        np.testing.assert_array_equal(draws, normal_vector(RandomStream(*t), 5), str(t))


def test_stream_chunk_rejects_bad_ranges():
    for args in (
        (0, 0, 0, 2**64, 2),
        (0, 0, 2**64, 0, 2),
        (-1, 0, 0, 0, 2),
        (0, -2, 0, 0, 2),
        (0, 0, [1, 2], [0, 1, 2], 2),
        (0, 0, 0, [0.5], 2),
    ):
        with pytest.raises(ValueError):
            StreamChunk(*args)


def test_normal_vector_mean():
    draws = normal_vector(one_stream(2024), 10**6)
    assert abs(draws.mean()) < 0.004


def test_hybrid_pipeline_moments():
    # inverse CDF of one shifted net, per dimension: mean 0, variance 1
    n = 2**14
    shift = DigitalShift.from_stream(RandomStream(77, purpose=PURPOSE_SHIFT), 64)
    pts = shifted_point(sobol_points(GEN64, np.arange(n)), shift)
    z = inverse_normal_cdf(safe_uniform(pts))
    mean_tol = 4.0 / np.sqrt(n)
    var_tol = 4.0 * np.sqrt(2.0 / n)
    assert np.max(np.abs(z.mean(axis=0))) < mean_tol
    assert np.max(np.abs(z.var(axis=0, ddof=1) - 1.0)) < var_tol


def test_direction_table_rejects_bad_header(tmp_path, monkeypatch):
    bundled = lowdisc._load_direction_numbers(2)
    # the loader reads data/joe-kuo-d6-1120.txt under tmp_path instead
    table = tmp_path / "data" / "joe-kuo-d6-1120.txt"
    table.parent.mkdir()
    monkeypatch.setattr(lowdisc, "resources", SimpleNamespace(files=lambda package: tmp_path))
    table.write_text("d       s       a       m_i\n2       1       0       1\n")
    np.testing.assert_array_equal(lowdisc._load_direction_numbers(2), bundled)
    for header in ("s d a m_i\n", "\n"):
        table.write_text(header + "2       1       0       1\n")
        with pytest.raises(ValueError, match="header"):
            lowdisc._load_direction_numbers(2)
