"""Level contexts and sampler closures for the log-normal test problem."""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np
import pytest

from haarmc import fem, problem
from haarmc.fem import MaternParams
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
from oracles import sample_field_batch

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
    assert c0.dof_cost == c0.d_mesh.interior_vertices.size + c0.g_mesh.interior_vertices.size
    assert c1.dof_cost == (
        c1.d_mesh.interior_vertices.size
        + c1.d_coarse.interior_vertices.size
        + c1.g_mesh.interior_vertices.size
        + c1.g_coarse.interior_vertices.size
    )
    # the coarse half of a coupled context is the previous position's fine half
    assert c1.d_coarse is c0.d_mesh
    assert c1.g_coarse is c0.g_mesh


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
            np.testing.assert_array_equal(sa.batch(0, 0, 4), sb.batch(0, 0, 4))
    y3 = make_level_samplers(ctxs, seed=3)[0].batch(0, 0, 4)
    y4 = make_level_samplers(ctxs, seed=4)[0].batch(0, 0, 4)
    assert not np.array_equal(y3, y4)
    y_mc = make_level_samplers(ctxs, seed=3, use_qmc=False)[0].batch(0, 0, 4)
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
        return p @ (fem.restrict_interior(fem.assemble_mass(g), g) @ p)

    for ctx, s in zip(ctxs, samplers):
        y = s.batch(1, 0, 6)
        for n in range(6):
            uf, uc = sample_fields(ctx, seed=7, m=1, n=n, use_qmc=True)
            ref = functional(ctx.g_mesh, uf)
            if ctx.coupled:
                ref -= functional(ctx.g_coarse, uc)
            scale = abs(functional(ctx.g_mesh, uf))
            assert y[n] == pytest.approx(ref, rel=1e-12, abs=1e-12 * scale)


def test_sampler_output_does_not_depend_on_batch_split():
    for dim, pars in ((1, PARAMS_1D), (2, PARAMS_2D)):
        ctxs = build_level_contexts(dim, [2, 3], [1, 1], pars)
        for s in make_level_samplers(ctxs, seed=2):
            whole = s.batch(0, 0, 10)
            split = np.concatenate([s.batch(0, 0, 3), s.batch(0, 3, 10)])
            np.testing.assert_array_equal(split, whole)


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
    assert [id(m) for m in built] == [id(c.g_mesh) for c in ctxs]
    for s in samplers:
        s.batch(0, 0, 2)
    assert len(built) == len(ctxs)


def test_shift_index_changes_qmc_draws():
    ctxs = build_level_contexts(1, [2], [1], PARAMS_1D)
    s = make_level_samplers(ctxs, seed=3)[0]
    assert not np.array_equal(s.batch(0, 0, 4), s.batch(1, 0, 4))
    np.testing.assert_array_equal(s.batch(2, 0, 4), s.batch(2, 0, 4))


def _zero_noise_params(dim):
    base = MaternParams.create(dim, 1.0, 0.25, mean_shift=0.3)
    return MaternParams(base.sigma, base.lam, dim, base.nu, base.kappa, 0.0, 0.3)


def test_zero_eta_reproduces_deterministic_functional():
    # with eta = 0 the coefficient is the constant exp(0.3) and every sample
    # must equal the plain finite element value, coupled levels telescoping
    pars = _zero_noise_params(1)
    ctxs = build_level_contexts(1, [2, 3], [1, 1], pars)
    expected = []
    for g in (ctxs[0].g_mesh, ctxs[1].g_mesh):
        K = fem.assemble_lognormal_diffusion(g, np.full(g.n_vertices, 0.3))
        p = oracles.splu_solve(K, fem.assemble_load(g)[g.interior_vertices])
        M = fem.restrict_interior(fem.assemble_mass(g), g)
        expected.append(p @ (M @ p))
    samplers = make_level_samplers(ctxs, seed=1)
    np.testing.assert_allclose(samplers[0].batch(0, 0, 3), expected[0], rtol=1e-12)
    np.testing.assert_allclose(
        samplers[1].batch(0, 0, 3), expected[1] - expected[0], rtol=1e-10
    )


def test_zero_eta_constant_field():
    pars = _zero_noise_params(2)
    ctx = build_level_contexts(2, [2], [0], pars)[0]
    uf, uc = sample_fields(ctx, seed=5, m=0, n=0)
    np.testing.assert_array_equal(uf, np.full(ctx.g_mesh.n_vertices, 0.3))
    assert uc is None


def test_coupled_fields_share_one_noise_event():
    ctx = build_level_contexts(1, [3, 4], [2, 2], PARAMS_1D)[1]
    uf, uc = sample_fields(ctx, seed=9, m=0, n=0)
    assert uf.shape == (ctx.g_mesh.n_vertices,)
    assert uc.shape == (ctx.g_coarse.n_vertices,)
    # same event, different discretizations: strongly correlated at the
    # shared vertex locations
    inj = vertex_injection_map(ctx.g_coarse, ctx.g_mesh)
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
    assert f1.shape == (ctx.d_mesh.n_vertices,)
    assert c1.shape == (ctx.d_coarse.n_vertices,)


def test_sample_noise_matches_sampler_draw_path():
    # the dumped pairings are the operator applied to the sampler's inputs
    ctx = build_level_contexts(2, [1, 2], [1, 1], PARAMS_2D)[1]
    gen, shift = problem._qmc_driver(ctx, 4, 2, True)
    z, zc = problem._draw_inputs(ctx, 4, 2, 0, 3, gen, shift)
    bs = apply_noise_maps(ctx.tables, ctx.layout, z, zc)
    for n in range(3):
        f, c = sample_noise(ctx, seed=4, m=2, n=n, use_qmc=True)
        np.testing.assert_array_equal(f, bs[0][n])
        np.testing.assert_array_equal(c, bs[1][n])


def test_contexts_share_one_layout_per_haar_level():
    ctxs = build_level_contexts(2, [1, 2, 3], [0, 1, 1], PARAMS_2D)
    assert ctxs[1].layout is ctxs[2].layout
    assert ctxs[0].layout is not ctxs[1].layout


def test_wall_cost_model():
    ctxs = build_level_contexts(1, [2], [1], PARAMS_1D)
    s = make_level_samplers(ctxs, seed=1, cost_model="wall")[0]
    dof = s.cost
    s.batch(0, 0, 8)
    assert s.cost != dof and s.cost > 0
    with pytest.raises(ValueError):
        make_level_samplers(ctxs, seed=1, cost_model="cpu")


def test_wall_cost_updates_are_not_lost_across_threads(monkeypatch):
    # each batch reads one tick of a per-thread clock, so the running mean
    # is exactly calls / samples unless an update is lost
    ticks = threading.local()

    def clock():
        ticks.t = getattr(ticks, "t", 0.0) + 1.0
        return ticks.t

    monkeypatch.setattr(problem.time, "perf_counter", clock)
    monkeypatch.setattr(problem, "_y_batch", lambda ctx, seed, m, n0, n1, *a: np.zeros(n1 - n0))
    ctxs = build_level_contexts(1, [2], [1], PARAMS_1D)
    s = make_level_samplers(ctxs, seed=1, cost_model="wall")[0]
    sizes = [1 + (i % 3) for i in range(20000)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(s.batch, 0, 0, k) for k in sizes]
            done, pending = wait(futures, timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not pending
    for f in done:
        f.result()
    assert s.cost == len(sizes) / sum(sizes)


def test_default_boxes():
    assert default_g_box(2).volume == pytest.approx(1.0)
    assert default_d_box(2).volume == pytest.approx(4.0)
    assert default_g_box(1).lo == (-0.5,)
