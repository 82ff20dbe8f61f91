"""Level contexts and sampler closures for the log-normal test problem."""

import tracemalloc

import numpy as np
import pytest

from haarmc import fem, problem
from haarmc.fem import MaternParams
from haarmc.lowdisc import (
    PURPOSE_SHIFT,
    DigitalShift,
    SobolGenerator,
    inverse_normal_cdf,
    normal_vector,
    shifted_point,
    sobol_points,
)
from haarmc.mesh import vertex_injection_map
from haarmc.problem import (
    build_level_contexts,
    default_d_box,
    default_g_box,
    make_level_samplers,
    sample_fields,
    sample_noise,
)
from haarmc.whitenoise import apply_noise_maps
import oracles
from oracles import RandomStream, safe_uniform, sample_field_batch

PARAMS_2D = MaternParams.lognormal_matched(2, 0.25)
PARAMS_1D = MaternParams.lognormal_matched(1, 0.25)


def test_context_wiring():
    ctxs = build_level_contexts(2, [1, 2, 3], [0, 1, 1], PARAMS_2D)
    assert [c.position for c in ctxs] == [0, 1, 2]
    assert [c.coupled for c in ctxs] == [False, True, True]
    assert [c.haar.level for c in ctxs] == [0, 1, 1]
    assert [c.layout.level for c in ctxs] == [0, 1, 1]
    for c in ctxs:
        assert c.chunk_size >= 1
    c0, c1 = ctxs[0], ctxs[1]
    (f0,) = c0.spaces
    f1, k1 = c1.spaces
    assert c0.dof_cost == f0.d_mesh.interior_vertices.size + f0.g_mesh.interior_vertices.size
    assert c1.dof_cost == (
        f1.d_mesh.interior_vertices.size
        + k1.d_mesh.interior_vertices.size
        + f1.g_mesh.interior_vertices.size
        + k1.g_mesh.interior_vertices.size
    )
    # the coarse space of a coupled context is the previous position's fine one
    assert ctxs[1].spaces[1] is ctxs[0].spaces[0]
    assert ctxs[2].spaces[1] is ctxs[1].spaces[0]


def test_context_validation():
    with pytest.raises(ValueError):
        build_level_contexts(1, [1, 2], [1], PARAMS_1D)
    with pytest.raises(ValueError):
        build_level_contexts(1, [1, 2, 3], [2, 1, 1], PARAMS_1D)


def test_sampler_determinism():
    ctxs = build_level_contexts(1, [1, 2], [1, 1], PARAMS_1D)
    for use_qmc in (True, False):
        a = make_level_samplers(ctxs, seed=3, use_qmc=use_qmc)
        b = make_level_samplers(ctxs, seed=3, use_qmc=use_qmc)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(
                sa.batch(range(1), 0, 4), sb.batch(range(1), 0, 4)
            )
    y3 = make_level_samplers(ctxs, seed=3)[0].batch(range(1), 0, 4)
    y4 = make_level_samplers(ctxs, seed=4)[0].batch(range(1), 0, 4)
    assert y3.shape == (1, 4)
    assert not np.array_equal(y3, y4)
    y_mc = make_level_samplers(ctxs, seed=3, use_qmc=False)[0].batch(range(1), 0, 4)
    assert not np.array_equal(y3, y_mc)


@pytest.mark.parametrize("dim", [1, 2])
def test_sampler_matches_per_sample_diffusion_path(dim):
    # the batched diffusion solver against assemble_lognormal_diffusion +
    # a SuperLU solve on the same fields, uncoupled and coupled positions
    pars = PARAMS_1D if dim == 1 else PARAMS_2D
    ctxs = build_level_contexts(dim, [1, 2, 3], [1, 1, 1], pars)
    samplers = make_level_samplers(ctxs, seed=7)

    def functional(g, u):
        K = fem.assemble_lognormal_diffusion(g, u)
        p = oracles.splu_solve(K, fem.assemble_load(g)[g.interior_vertices])
        return p @ (oracles.restrict_interior(oracles.assemble_mass(g), g) @ p)

    for ctx, s in zip(ctxs, samplers):
        y = s.batch(range(1, 2), 0, 6)[0]
        for n in range(6):
            uf, uc = sample_fields(ctx, seed=7, m=1, n=n, use_qmc=True)
            ref = functional(ctx.spaces[0].g_mesh, uf)
            if ctx.coupled:
                ref -= functional(ctx.spaces[1].g_mesh, uc)
            scale = abs(functional(ctx.spaces[0].g_mesh, uf))
            assert y[n] == pytest.approx(ref, rel=1e-12, abs=1e-12 * scale)


def test_sampler_output_does_not_depend_on_batch_split():
    # the last hierarchy's position 1 solves on G band widths 31 and 15, and
    # a 40-sample call there spans two 24-sample chunks
    cases = ((1, PARAMS_1D, [2, 3]), (2, PARAMS_2D, [2, 3]), (2, PARAMS_2D, [4, 5]))
    for dim, pars, levels in cases:
        ctxs = build_level_contexts(dim, levels, [3, 3], pars)
        for use_qmc in (True, False):
            for s in make_level_samplers(ctxs, seed=2, use_qmc=use_qmc):
                whole = s.batch(range(1), 0, 40)
                split = [s.batch(range(1), a, b) for a, b in ((0, 7), (7, 19), (19, 40))]
                np.testing.assert_array_equal(np.hstack(split), whole)
                singles = [s.batch(range(1), n, n + 1) for n in range(40)]
                np.testing.assert_array_equal(np.hstack(singles), whole)
    assert [space.diffusion._band.w for space in ctxs[1].spaces] == [31, 15]
    assert ctxs[1].chunk_size < 40


def test_one_diffusion_solver_per_g_mesh_built_at_set_up(monkeypatch):
    built = []

    class Counting(fem.DiffusionSolver):
        def __init__(self, mesh):
            built.append(mesh)
            super().__init__(mesh)

    monkeypatch.setattr(fem, "DiffusionSolver", Counting)
    ctxs = build_level_contexts(1, [1, 2, 3], [1, 1, 1], PARAMS_1D)
    samplers = make_level_samplers(ctxs, seed=0)
    # the fine G mesh of position p is the coarse G mesh of position p + 1
    assert [id(m) for m in built] == [id(c.spaces[0].g_mesh) for c in ctxs]
    for s in samplers:
        s.batch(range(1), 0, 2)
    assert len(built) == len(ctxs)


def test_shift_index_changes_qmc_draws():
    ctxs = build_level_contexts(1, [2], [1], PARAMS_1D)
    s = make_level_samplers(ctxs, seed=3)[0]
    assert not np.array_equal(s.batch(range(0, 1), 0, 4), s.batch(range(1, 2), 0, 4))
    np.testing.assert_array_equal(s.batch(range(2, 3), 0, 4), s.batch(range(2, 3), 0, 4))


def _zero_noise_params(dim):
    base = MaternParams.create(dim, 1.0, 0.25, mean_shift=0.3)
    return MaternParams(base.sigma, base.lam, dim, base.nu, base.kappa, 0.0, 0.3)


def test_zero_eta_reproduces_deterministic_functional():
    # with eta = 0 the coefficient is the constant exp(0.3) and every sample
    # must equal the plain finite element value, coupled levels telescoping
    pars = _zero_noise_params(1)
    ctxs = build_level_contexts(1, [2, 3], [1, 1], pars)
    expected = []
    for g in (ctxs[0].spaces[0].g_mesh, ctxs[1].spaces[0].g_mesh):
        K = fem.assemble_lognormal_diffusion(g, np.full(g.n_vertices, 0.3))
        p = oracles.splu_solve(K, fem.assemble_load(g)[g.interior_vertices])
        M = oracles.restrict_interior(oracles.assemble_mass(g), g)
        expected.append(p @ (M @ p))
    samplers = make_level_samplers(ctxs, seed=1)
    np.testing.assert_allclose(
        samplers[0].batch(range(1), 0, 3)[0], expected[0], rtol=1e-12
    )
    np.testing.assert_allclose(
        samplers[1].batch(range(1), 0, 3)[0], expected[1] - expected[0], rtol=1e-10
    )


def test_zero_eta_constant_field():
    pars = _zero_noise_params(2)
    ctx = build_level_contexts(2, [2], [0], pars)[0]
    uf, uc = sample_fields(ctx, seed=5, m=0, n=0)
    np.testing.assert_array_equal(uf, np.full(ctx.spaces[0].g_mesh.n_vertices, 0.3))
    assert uc is None


def test_coupled_fields_share_one_noise_event():
    ctx = build_level_contexts(1, [3, 4], [2, 2], PARAMS_1D)[1]
    uf, uc = sample_fields(ctx, seed=9, m=0, n=0)
    fine, coarse = ctx.spaces
    assert uf.shape == (fine.g_mesh.n_vertices,)
    assert uc.shape == (coarse.g_mesh.n_vertices,)
    # same event, different discretizations: strongly correlated at the
    # shared vertex locations
    inj = vertex_injection_map(coarse.g_mesh, fine.g_mesh)
    r = np.corrcoef(uf[inj], uc)[0, 1]
    assert r > 0.95
    uf2, uc2 = sample_fields(ctx, seed=9, m=0, n=0)
    np.testing.assert_array_equal(uf, uf2)
    np.testing.assert_array_equal(uc, uc2)


def test_field_batch_matches_singles():
    ctx = build_level_contexts(1, [2, 3], [1, 1], PARAMS_1D)[1]
    batch = sample_field_batch(ctx, seed=2, m=1, n0=0, n1=5)
    for n in range(5):
        single, _ = sample_fields(ctx, seed=2, m=1, n=n)
        np.testing.assert_allclose(batch[n], single, atol=1e-13)


def test_sample_noise_deterministic():
    ctx = build_level_contexts(1, [2, 3], [1, 1], PARAMS_1D)[1]
    f1, c1 = sample_noise(ctx, seed=11, m=0, n=3)
    f2, c2 = sample_noise(ctx, seed=11, m=0, n=3)
    np.testing.assert_array_equal(f1, f2)
    np.testing.assert_array_equal(c1, c2)
    assert f1.shape == (ctx.spaces[0].d_mesh.n_vertices,)
    assert c1.shape == (ctx.spaces[1].d_mesh.n_vertices,)


def test_sample_noise_matches_sampler_draw_path():
    # the dumped pairings are the operator applied to the sampler's inputs
    ctx = build_level_contexts(2, [1, 2], [1, 1], PARAMS_2D)[1]
    z, zc = next(problem._draw_inputs(ctx, 4, range(2, 3), 0, 3, True))
    bs = apply_noise_maps(ctx.tables, ctx.layout, z, zc)
    for n in range(3):
        f, c = sample_noise(ctx, seed=4, m=2, n=n, use_qmc=True)
        np.testing.assert_array_equal(f, bs[0][n])
        np.testing.assert_array_equal(c, bs[1][n])


def set_chunk_size(monkeypatch, ctx, rows):
    """Make ctx's chunks hold `rows` samples, also below the 24-sample floor
    that the budget rule keeps."""
    monkeypatch.setattr(problem.LevelContext, "chunk_size", property(lambda self: rows))
    assert ctx.chunk_size == rows


def test_chunk_size_follows_the_budget_down_to_24_samples(monkeypatch):
    ctx = build_level_contexts(1, [2], [1], PARAMS_1D)[0]
    # under a budget far above a sample's floats, budget // chunk_size is
    # exactly the floats per sample
    monkeypatch.setattr(problem, "CHUNK_FLOAT_BUDGET", 2**60)
    per_sample = 2**60 // ctx.chunk_size
    for rows, expected in ((40, 40), (25, 25), (24, 24), (23, 24), (1, 24), (0, 24)):
        monkeypatch.setattr(problem, "CHUNK_FLOAT_BUDGET", rows * per_sample)
        assert ctx.chunk_size == expected


@pytest.mark.parametrize("use_qmc", [True, False])
def test_draw_inputs_match_per_sample_streams_at_any_chunking(use_qmc, monkeypatch):
    ctx = build_level_contexts(2, [1, 2], [2, 2], PARAMS_2D)[1]
    seed, ms, count = 3, range(5, 7), 32
    q = ctx.layout.qmc_dim if use_qmc else 0
    k = ctx.layout.total_dim - q
    # oracle: one RandomStream per sample and per shift, as each is defined
    ref_z = np.empty((len(ms), count, k))
    ref_zc = np.empty((len(ms), count, ctx.tables.cell_block_size))
    ref_q = np.empty((len(ms), count, q))
    for i, m in enumerate(ms):
        for n in range(count):
            stream = RandomStream(seed, ctx.position, m, n)
            ref_z[i, n] = normal_vector(stream, k)
            ref_zc[i, n] = normal_vector(stream, ref_zc.shape[2])
        if use_qmc:
            shift = DigitalShift.from_stream(
                RandomStream(seed, ctx.position, m, 0, PURPOSE_SHIFT), q
            )
            pts = shifted_point(sobol_points(SobolGenerator(q), np.arange(count)), shift)
            ref_q[i] = inverse_normal_cdf(safe_uniform(pts))
    # chunks of one sample, chunks across replicate boundaries, one chunk per
    # replicate, and one chunk
    for step in (1, 7, count, 2 * count):
        set_chunk_size(monkeypatch, ctx, step)
        parts = list(problem._draw_inputs(ctx, seed, ms, 0, count, use_qmc))
        assert [len(p[0]) for p in parts[:-1]] == [step] * (len(parts) - 1)
        z = np.vstack([p[0] for p in parts]).reshape(len(ms), count, -1)
        zc = np.vstack([p[1] for p in parts]).reshape(len(ms), count, -1)
        np.testing.assert_array_equal(z[:, :, q:], ref_z)
        np.testing.assert_array_equal(zc, ref_zc)
        np.testing.assert_array_equal(z[:, :, :q], ref_q)


@pytest.mark.parametrize("use_qmc", [True, False])
def test_replicate_rows_match_single_replicate_batches(use_qmc, monkeypatch):
    # band solves are bit-identical whatever a chunk holds, so each row of a
    # stacked call equals its replicate's own call, also when chunks cross
    # replicate boundaries
    ctx = build_level_contexts(1, [2, 3], [1, 1], PARAMS_1D)[1]
    s = make_level_samplers([ctx], seed=1, use_qmc=use_qmc)[0]
    M, n0, n1 = 4, 2, 7
    singles = [s.batch(range(m, m + 1), n0, n1) for m in range(M)]
    assert all(y.shape == (1, n1 - n0) for y in singles)
    for step in (3, 64):
        set_chunk_size(monkeypatch, ctx, step)
        y = s.batch(range(0, M), n0, n1)
        assert y.shape == (M, n1 - n0)
        for m in range(M):
            np.testing.assert_array_equal(y[m], singles[m][0])
        np.testing.assert_array_equal(s.batch(range(1, 3), n0, n1), y[1:3])


def test_batch_rejects_bad_replicate_ranges():
    ctx = build_level_contexts(1, [2], [1], PARAMS_1D)[0]
    s = make_level_samplers([ctx], seed=1)[0]
    for ms in (range(0), range(3, 1), range(0, 4, 2), range(-1, 2), 0, [0, 1]):
        with pytest.raises(ValueError):
            s.batch(ms, 0, 2)
    for n0, n1 in ((-1, 2), (3, 1), (2, 2), (2.0, 4), (0, 2.0)):
        with pytest.raises(ValueError):
            s.batch(range(0, 2), n0, n1)


def test_contexts_share_one_layout_per_haar_level():
    ctxs = build_level_contexts(2, [1, 2, 3], [0, 1, 1], PARAMS_2D)
    assert ctxs[1].layout is ctxs[2].layout
    assert ctxs[0].layout is not ctxs[1].layout


def test_level_call_memory_is_bounded():
    """One call over a whole level's replicates: the chunk, not the call,
    bounds its scratch memory. At screen-2d's finest position (24 samples a
    chunk) the traced peak measured 4.7 MB, as for one replicate's call;
    under a budget of 4M floats its 223-sample chunks peaked at 39 MB."""
    ctx = build_level_contexts(2, [1, 2, 3, 4], [3] * 4, PARAMS_2D)[3]
    s = make_level_samplers([ctx], seed=0)[0]
    s.batch(range(0, 1), 0, 1)  # loads the Sobol' table once per process
    tracemalloc.start()
    try:
        y = s.batch(range(0, 8), 0, 32)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert y.shape == (8, 32)
    assert peak < 7e6


def test_default_boxes():
    assert default_g_box(2).volume == pytest.approx(1.0)
    assert default_d_box(2).volume == pytest.approx(4.0)
    assert default_g_box(1).lo == (-0.5,)
