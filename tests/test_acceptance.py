"""Acceptance gate: one test per release criterion, in order.

Each test pins the tolerances and sizes the criterion states; nothing here
may be loosened to make a run pass. Sampling-based checks use fixed seeds
and generous statistical margins so that failures mean defects, not luck.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import kv

from haarmc.fem import MaternParams
from haarmc.lowdisc import (
    PURPOSE_SHIFT,
    DigitalShift,
    SobolGenerator,
    inverse_normal_cdf,
    shifted_point,
    sobol_points,
)
from haarmc.mesh import (
    Box,
    HaarMesh,
    build_hierarchy,
    build_uniform_mesh,
    cell_volumes,
)
from haarmc.mlqmc import (
    mlmc_optimal_allocation,
    mlmc_run,
    mlqmc_run,
    screening_run,
)
from haarmc.problem import (
    build_level_contexts,
    default_d_box,
    default_g_box,
    make_level_samplers,
)
from haarmc.supermesh import build_supermesh, build_three_way_supermesh
from haarmc.whitenoise import apply_noise_maps, build_layout, build_tables
import oracles
from oracles import RandomStream, haar_cell_index, qmc_estimate, sample_field_batch
from test_mlqmc import _reference_greedy, const_sampler

BIG1 = Box((-1.0,), (1.0,))
BIG2 = Box((-1.0, -1.0), (1.0, 1.0))


def _two_way(dim, n, level, box):
    mesh = build_uniform_mesh(box, dim, n)
    haar = HaarMesh(level, dim, box)
    sm = build_supermesh(mesh, haar)
    return mesh, haar, sm, build_tables(mesh, haar, sm), build_layout(dim, level)


def _three_way(dim, n_fine, n_coarse, level, box):
    fine = build_uniform_mesh(box, dim, n_fine, diagonal="right")
    coarse = build_uniform_mesh(box, dim, n_coarse, diagonal="left")
    haar = HaarMesh(level, dim, box)
    sm = build_three_way_supermesh(fine, coarse, haar)
    tables = build_tables(fine, haar, sm, coarse)
    return fine, coarse, haar, sm, tables, build_layout(dim, level)


def test_pairing_covariance_equals_mass_matrices():
    """Propagated sampling map reproduces mass and mixed mass matrices."""
    t0 = time.perf_counter()
    for level in (-1, 0, 1, 2):
        for dim, n in ((1, 16), (2, 4)):
            box = BIG1 if dim == 1 else BIG2
            mesh, _, _, tables, lay = _two_way(dim, n, level, box)
            cov = oracles.noise_covariances(tables, lay)
            np.testing.assert_allclose(
                cov[0][0], oracles.mass_matrix(mesh), atol=1e-10
            )
        for dim, nf, nc in ((1, 16, 8), (2, 4, 2)):
            box = BIG1 if dim == 1 else BIG2
            fine, coarse, _, sm, tables, lay = _three_way(dim, nf, nc, level, box)
            cov = oracles.noise_covariances(tables, lay)
            np.testing.assert_allclose(
                cov[0][0], oracles.mass_matrix(fine), atol=1e-10
            )
            np.testing.assert_allclose(
                cov[1][1], oracles.mass_matrix(coarse), atol=1e-10
            )
            np.testing.assert_allclose(
                cov[0][1], oracles.mixed_mass(fine, coarse, sm), atol=1e-10
            )
    assert time.perf_counter() - t0 < 10.0


def _correction_map(mesh, sm, haar):
    cb = len(sm) * (sm.dim + 1)
    cols = np.empty((mesh.n_vertices, cb))
    for j in range(cb):
        z = np.zeros(cb)
        z[j] = 1.0
        parts = oracles.sample_b_M_parts(mesh, sm.parent_a, sm, haar, z)
        cols[:, j], _ = oracles.apply_correction(mesh, sm.parent_a, sm, haar, parts)
    return cols


@pytest.mark.parametrize("dim,n,level", [(1, 5, 1), (2, 2, 0), (2, 3, 1)])
def test_tail_correction_covariance_identities(dim, n, level):
    """Per Haar cell: realized correction covariance, PSD, kills constants."""
    box = Box((0.0,), (1.0,)) if dim == 1 else Box((0.0, 0.0), (1.0, 1.0))
    mesh, haar, sm, tables, lay = _two_way(dim, n, level, box)
    A = _correction_map(mesh, sm, haar)
    # the operator's cell-block map is the per-cell oracle's correction map
    cb = tables.cell_block_size
    eye = np.eye(cb).reshape(cb, tables.n_cells, dim + 1)
    rows = apply_noise_maps(tables, lay, np.zeros((cb, lay.total_dim)), eye)[0]
    np.testing.assert_allclose(rows.T, A, atol=1e-10)
    I = oracles.basis_integrals_per_haar_cell(mesh, sm.parent_a, sm)
    for k in range(haar.n_cells):
        mask = np.repeat(sm.parent_haar == k, dim + 1)
        cov_k = A[:, mask] @ A[:, mask].T
        sel = sm.parent_haar == k
        M_k = oracles.quadrature_mass(
            mesh, sm.parent_a[sel], mesh, sm.parent_a[sel],
            sm.simplices[sel], sm.volumes[sel],
        )
        expect = M_k - np.outer(I[:, k], I[:, k]) / haar.cell_volume
        np.testing.assert_allclose(cov_k, expect, atol=1e-10)
        assert np.linalg.eigvalsh(cov_k).min() >= -1e-10
        np.testing.assert_allclose(cov_k @ np.ones(mesh.n_vertices), 0.0, atol=1e-10)


def _containment_residual(mesh, parents, simplices):
    """Smallest barycentric coordinate of any supermesh vertex with respect
    to its recorded parent cell; non-negative means full containment."""
    T = mesh.vertices[mesh.cells[parents]]
    A = np.swapaxes(T[:, 1:] - T[:, :1], 1, 2)
    rhs = np.swapaxes(simplices - T[:, :1], 1, 2)
    lam = np.linalg.solve(A, rhs)
    lam0 = 1.0 - lam.sum(axis=1)
    return float(min(lam.min(), lam0.min()))


def _check_refinement(sm, parents_map, haar):
    sm_vertices = {
        tuple(v) for v in np.round(sm.simplices.reshape(-1, sm.dim), 10)
    }
    for mesh, parents in parents_map:
        for v in np.round(mesh.vertices, 10):
            assert tuple(v) in sm_vertices
        assert _containment_residual(mesh, parents, sm.simplices) >= -1e-10
        sums = np.bincount(parents, weights=sm.volumes, minlength=mesh.n_cells)
        np.testing.assert_allclose(sums, cell_volumes(mesh), rtol=1e-10)
    centroids = sm.simplices.mean(axis=1)
    np.testing.assert_array_equal(haar_cell_index(haar, centroids), sm.parent_haar)
    haar_sums = np.bincount(
        sm.parent_haar, weights=sm.volumes, minlength=haar.n_cells
    )
    np.testing.assert_allclose(haar_sums, haar.cell_volume, rtol=1e-10)
    assert np.all(sm.volumes > 0)


def test_supermesh_common_refinement_validity():
    """Vertex inclusion, single-parent containment, volume partition, and
    the size bound on the default uniform hierarchies."""
    mesh, haar, sm, _, _ = _two_way(2, 8, 2, BIG2)
    _check_refinement(sm, [(mesh, sm.parent_a)], haar)

    fine, coarse, haar, sm, _, _ = _three_way(2, 16, 8, 1, BIG2)
    _check_refinement(sm, [(fine, sm.parent_a), (coarse, sm.parent_b)], haar)

    fine, coarse, haar, sm, _, _ = _three_way(1, 16, 8, 2, BIG1)
    _check_refinement(sm, [(fine, sm.parent_a), (coarse, sm.parent_b)], haar)

    for dim, levels in ((1, [1, 2, 3, 4, 5, 6]), (2, [1, 2, 3, 4, 5])):
        hier = build_hierarchy(
            default_g_box(dim), default_d_box(dim), dim, levels, [3] * len(levels)
        )
        for pos, (_, d, haar) in enumerate(hier.levels):
            if pos == 0:
                sm = build_supermesh(d, haar)
                n_parents = d.n_cells + haar.n_cells
            else:
                dc = hier.levels[pos - 1][1]
                sm = build_three_way_supermesh(d, dc, haar)
                n_parents = d.n_cells + dc.n_cells + haar.n_cells
            assert len(sm) <= 8 * n_parents


def test_matern_field_statistics():
    """Pointwise variance and correlation at one correlation length."""
    t0 = time.perf_counter()
    N = 4096
    params = MaternParams.lognormal_matched(2, 0.25)
    ctx = build_level_contexts(2, [3], [3], params)[0]
    fields = sample_field_batch(ctx, seed=7, m=0, n0=0, n1=N, use_qmc=False)
    u = fields - params.mean_shift
    verts = ctx.spaces[0].g_mesh.vertices
    center = int(np.argmin(np.linalg.norm(verts, axis=1)))
    probe = int(np.argmin(np.linalg.norm(verts - [0.25, 0.0], axis=1)))
    np.testing.assert_allclose(verts[center], [0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(verts[probe], [0.25, 0.0], atol=1e-12)

    var = float(u[:, center].var(ddof=1))
    target_var = math.log(1.2)
    se_var = var * math.sqrt(2.0 / (N - 1))
    assert abs(var - target_var) <= 4 * se_var, f"var={var:.5f} vs {target_var:.5f}"

    rho = float(np.corrcoef(u[:, center], u[:, probe])[0, 1])
    kl = params.kappa * 0.25
    target_rho = kl * float(kv(1, kl))
    se_rho = (1.0 - rho**2) / math.sqrt(N)
    assert abs(rho - target_rho) <= 4 * se_rho, f"rho={rho:.5f} vs {target_rho:.5f}"
    assert time.perf_counter() - t0 < 300.0


def test_bias_decay_rates():
    """Fitted decay of |E[Y_level]| on the default problem, both dimensions."""
    t0 = time.perf_counter()
    seed = 20260822
    ctx1 = build_level_contexts(
        1, [1, 2, 3, 4, 5, 6], [3] * 6, MaternParams.lognormal_matched(1, 0.25)
    )
    report_1d = screening_run(make_level_samplers(ctx1, seed), 512, 8)
    alpha_1d = report_1d.alpha
    ctx2 = build_level_contexts(
        2, [1, 2, 3, 4, 5], [3] * 5, MaternParams.lognormal_matched(2, 0.25)
    )
    report_2d = screening_run(make_level_samplers(ctx2, seed), 256, 8)
    alpha_2d = report_2d.alpha
    assert time.perf_counter() - t0 < 900.0
    note = f"alpha_2d={alpha_2d:.4f} alpha_1d={alpha_1d:.4f}"
    for dim, report in ((1, report_1d), (2, report_2d)):
        # Local rate at position p is log2|Y_{p-1} / Y_p|, for p >= 2.
        rates = -np.diff(np.log2(np.abs(report.mean_Y[1:])))
        means = " ".join(f"{p}:{y:.4e}" for p, y in enumerate(report.mean_Y))
        local = " ".join(f"{p}:{r:.2f}" for p, r in enumerate(rates, start=2))
        note += f"\n{dim}D mean_Y by position: {means}\n{dim}D local rates: {local}"
    assert 1.7 <= alpha_2d <= 2.3, note
    assert 1.7 <= alpha_1d <= 2.3, note


def test_hybrid_sampling_preasymptotic_variance_gain():
    """Hybrid estimator variance at most half of plain Monte Carlo's."""
    params = MaternParams.lognormal_matched(2, 0.25)
    ctxs = build_level_contexts(2, [1], [4], params)
    passes = 0
    ratios = []
    for rep in range(8):
        seed = 900 + rep
        s_qmc = make_level_samplers(ctxs, seed, use_qmc=True)[0]
        s_mc = make_level_samplers(ctxs, seed, use_qmc=False)[0]
        _, v_qmc, _ = qmc_estimate(s_qmc, 256, 32)
        _, v_mc, _ = qmc_estimate(s_mc, 256, 32)
        ratios.append(v_qmc / v_mc)
        if v_qmc <= 0.5 * v_mc:
            passes += 1
    assert passes >= 5, f"ratios={np.round(ratios, 3)}"


def test_mlqmc_cost_beats_mlmc():
    """Cost at equal accuracy target, deterministic dof cost model."""
    eps = 2e-4
    params = MaternParams.lognormal_matched(2, 0.25)
    ctxs = build_level_contexts(2, [2, 3, 4, 5], [5] * 4, params)
    passes = 0
    ratios = []
    for seed in range(4):
        qmc = make_level_samplers(ctxs, seed, use_qmc=True)
        mc = make_level_samplers(ctxs, seed, use_qmc=False)
        _, state_q = mlqmc_run(qmc, eps)
        _, state_m = mlmc_run(mc, eps)
        ratio = state_q.total_cost() / state_m.total_cost()
        ratios.append(ratio)
        if ratio <= 0.8:
            passes += 1
    assert passes >= 3, f"cost ratios={np.round(ratios, 3)}"


def test_greedy_driver_trace_matches_oracle():
    """Doubling decisions replayed by an independent simulation."""
    c = [1.0, 0.25, 0.0625, 0.015625]
    V0 = [0.02, 0.005, 0.00125, 0.0003125]
    costs = [1.0, 4.0, 16.0, 64.0]
    samplers = [const_sampler(l, c[l], costs[l]) for l in range(4)]
    for eps, theta in ((0.1, 0.5), (0.05, 0.5), (0.08, 0.25)):
        rule = lambda l, N: V0[l] / N**2
        est, state = mlqmc_run(samplers, eps, theta=theta, M=4, variance_rule=rule)
        ref_trace, ref_N = _reference_greedy(c, V0, costs, eps, theta, 2)
        assert state.trace == ref_trace
        assert state.N == ref_N
        assert est == pytest.approx(sum(c[: len(ref_N)]), rel=1e-12)


def test_allocation_formula_minimality():
    """Budget holds and no single level count can be reduced."""
    rng = np.random.default_rng(2026)
    for _ in range(100):
        k = int(rng.integers(1, 7))
        V = 10.0 ** rng.uniform(-6, 4, size=k)
        C = 10.0 ** rng.uniform(-6, 4, size=k)
        eps = 10.0 ** rng.uniform(-3, 1)
        theta = float(rng.uniform(0.05, 0.95))
        N = mlmc_optimal_allocation(V, C, eps, theta)
        budget = (1.0 - theta) * eps**2
        assert np.all(N >= 1)
        assert float(np.sum(V / N)) <= budget * (1.0 + 1e-9)
        x = np.sqrt(V / C) * np.sum(np.sqrt(V * C)) / budget
        for l in range(k):
            shrunk = N.astype(float).copy()
            shrunk[l] -= 1
            broke_budget = (
                shrunk[l] < 1 or float(np.sum(V / shrunk)) > budget * (1.0 - 1e-12)
            )
            broke_ceiling = shrunk[l] < x[l] * (1.0 + 1e-12)
            assert broke_budget or broke_ceiling


def test_low_discrepancy_kernel():
    """Exact stratification, shift involution, inverse CDF accuracy."""
    t0 = time.perf_counter()
    gen = SobolGenerator(64)
    for k in range(1, 11):
        pts = sobol_points(gen, np.arange(2**k))
        strata = np.floor(pts * 2**k).astype(np.int64)
        for j in range(64):
            assert np.array_equal(np.sort(strata[:, j]), np.arange(2**k))
    shift = DigitalShift.from_stream(RandomStream(0, 0, 0, 0, PURPOSE_SHIFT), 64)
    pts = sobol_points(gen, np.arange(256))
    np.testing.assert_array_equal(
        shifted_point(shifted_point(pts, shift), shift), pts
    )
    u = np.linspace(5e-5, 1.0 - 5e-5, 10**4)
    err = np.abs(inverse_normal_cdf(u) - oracles.normal_inverse(u))
    assert float(err.max()) <= 1e-9
    assert time.perf_counter() - t0 < 10.0
