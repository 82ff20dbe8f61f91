"""White-noise pairing tests.

The sampling map from Gaussian inputs to pairings b is linear, so its
covariance can be computed exactly by pushing basis vectors through it; the
central checks below compare that propagated covariance against mass
matrices assembled by an independent dense oracle, and the tail correction
against a per-cell oracle that rebuilds the local factors from the meshes.
No statistics involved, apart from the marginals of the coefficient draws.
"""

import itertools

import numpy as np
import pytest

from haarmc import whitenoise
from haarmc.fem import MaternParams
from haarmc.lowdisc import (
    PURPOSE_SHIFT,
    DigitalShift,
    SobolGenerator,
    inverse_normal_cdf,
    safe_uniform,
    shifted_point,
    sobol_points,
)
from haarmc.mesh import Box, HaarMesh, build_uniform_mesh
from haarmc.problem import _draw_inputs, build_level_contexts, sample_noise
from haarmc.supermesh import build_supermesh, build_three_way_supermesh
from haarmc.whitenoise import (
    CouplingError,
    apply_noise_maps,
    build_layout,
    build_tables,
    qmc_block_size,
)
import oracles

UNIT1 = Box((0.0,), (1.0,))
UNIT2 = Box((0.0, 0.0), (1.0, 1.0))
BIG1 = Box((-1.0,), (1.0,))
BIG2 = Box((-1.0, -1.0), (1.0, 1.0))
PARAMS_1D = MaternParams.lognormal_matched(1, 0.25)
PARAMS_2D = MaternParams.lognormal_matched(2, 0.25)


def two_way_case(dim, n, level, box):
    mesh = build_uniform_mesh(box, dim, n)
    haar = HaarMesh(level, dim, box)
    sm = build_supermesh(mesh, haar)
    tables = build_tables(mesh, haar, sm)
    return mesh, haar, sm, tables, build_layout(dim, level)


def three_way_case(dim, n_fine, n_coarse, level, box):
    fine = build_uniform_mesh(box, dim, n_fine, diagonal="right")
    coarse = build_uniform_mesh(box, dim, n_coarse, diagonal="left")
    haar = HaarMesh(level, dim, box)
    sm = build_three_way_supermesh(fine, coarse, haar)
    tables = build_tables(fine, haar, sm, coarse)
    return fine, coarse, haar, sm, tables, build_layout(dim, level)


# ----------------------------------------------------------------- layout


def test_layout_constant_only():
    for d in (1, 2):
        lay = build_layout(d, -1)
        assert lay.total_dim == 1
        assert lay.qmc_dim == 1
        assert tuple(lay.levels[0]) == (-1,) * d
        assert tuple(lay.shifts[0]) == (0,) * d


def test_layout_2d_level1_block():
    lay = build_layout(2, 1)
    assert lay.total_dim == 16
    assert lay.qmc_dim == 4
    heads = [tuple(l) for l in lay.levels[:4]]
    assert heads == [(-1, -1), (-1, 0), (0, -1), (0, 0)]


def test_layout_1d_all_qmc():
    lay = build_layout(1, 2)
    assert lay.qmc_dim == lay.total_dim == 8


@pytest.mark.parametrize(
    "level,expected", [(1, 4), (2, 10), (3, 24), (4, 56)]
)
def test_layout_2d_qmc_counts(level, expected):
    assert qmc_block_size(2, level, None) == expected
    lay = build_layout(2, level)
    assert lay.qmc_dim == expected
    assert lay.total_dim == 4 ** (level + 1)


def test_layout_order_matches_reference_sort():
    # rebuild the documented sort key from scratch and compare the full table
    lay = build_layout(2, 2)
    entries = []
    for l in itertools.product(range(-1, 3), repeat=2):
        for n in itertools.product(*[range(2 ** max(li, 0)) for li in l]):
            t = sum(li + 1 for li in l)
            s = sum(max(li, 0) for li in l)
            entries.append((t, s, l, n))
    entries.sort()
    np.testing.assert_array_equal(lay.levels, [e[2] for e in entries])
    np.testing.assert_array_equal(lay.shifts, [e[3] for e in entries])


@pytest.mark.parametrize("dim,level", [(1, -1), (1, 0), (1, 6), (2, -1), (2, 0), (2, 3), (2, 4)])
def test_transform_tables_match_per_cell_lookup(dim, level):
    # the layout's Haar transform against one dict lookup per cell and level vector
    lay = build_layout(dim, level)
    ref_idx, ref_coef = oracles.haar_transform_tables(lay)
    ref = np.zeros((ref_idx.shape[0], lay.total_dim))
    np.put_along_axis(ref, ref_idx, ref_coef, axis=1)
    assert lay.H.dtype == ref_coef.dtype and lay.H.nnz == ref_idx.size
    np.testing.assert_array_equal(oracles.scipy_matrix(lay.H).toarray(), ref)


@pytest.mark.parametrize("dim,level", [(1, 3), (2, 1), (2, 3)])
def test_layout_blocks_are_contiguous_in_shift_order(dim, level):
    # the Haar transform finds coefficient (l, n) at the first index of l's
    # block plus the C-order rank of n among that block's shifts
    lay = build_layout(dim, level)
    pairs = zip(lay.levels.tolist(), lay.shifts.tolist())
    lookup = {(tuple(l), tuple(n)): i for i, (l, n) in enumerate(pairs)}
    assert len(lookup) == lay.total_dim
    first = {}
    for (l, _), i in sorted(lookup.items(), key=lambda kv: kv[1]):
        first.setdefault(l, i)
    for (l, n), i in lookup.items():
        shape = tuple(1 << max(li, 0) for li in l)
        assert i == first[l] + np.ravel_multi_index(n, shape)


# -------------------------------------------------------- haar cell values


def test_values_constant_level():
    lay = build_layout(1, -1)
    np.testing.assert_allclose(lay.H @ np.array([3.0]), [3.0])


def test_values_1d_level0():
    lay = build_layout(1, 0)
    out = lay.H @ np.array([2.0, 5.0])
    np.testing.assert_allclose(out, [7.0, -3.0])
    a, b = 0.7, -1.3
    np.testing.assert_allclose(lay.H @ np.array([a, b]), [a + b, a - b], atol=1e-14)


def test_values_box_jacobian():
    # doubling the box halves the L2 normalization of every wavelet, while
    # the basis integrals over each Haar cell double
    *_, t_unit, lay = two_way_case(1, 4, 0, UNIT1)
    *_, t_big, _ = two_way_case(1, 4, 0, BIG1)
    z = np.array([2.0, 5.0])
    b_unit = apply_noise_maps(t_unit, lay, z, np.zeros((t_unit.n_cells, 2)))[0]
    b_big = apply_noise_maps(t_big, lay, z, np.zeros((t_big.n_cells, 2)))[0]
    np.testing.assert_allclose(b_big, 2.0 * b_unit / np.sqrt(2.0), atol=1e-14)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("level", [-1, 0, 1, 2, 3])
def test_transform_orthogonality(dim, level):
    lay = build_layout(dim, level)
    T = oracles.scipy_matrix(lay.H).toarray()
    expect = 2.0 ** (dim * (level + 1))
    np.testing.assert_allclose(
        T @ T.T, expect * np.eye(T.shape[0]), atol=1e-10 * expect
    )


def test_values_length_mismatch():
    *_, tables, lay = two_way_case(1, 4, 1, UNIT1)
    with pytest.raises(ValueError):
        apply_noise_maps(tables, lay, np.zeros(3), np.zeros((tables.n_cells, 2)))


# ------------------------------------------------------ hybrid coefficients

def _coefficients(ctx, seed, n0, n1):
    return np.vstack([z for z, _ in _draw_inputs(ctx, seed, range(1), n0, n1, True)])


def test_hybrid_coefficients_deterministic():
    ctx = build_level_contexts(2, [1], [2], PARAMS_2D)[0]
    z1 = _coefficients(ctx, 3, 5, 6)
    z2 = _coefficients(ctx, 3, 5, 6)
    np.testing.assert_array_equal(z1, z2)
    assert z1.shape == (1, 64)


def test_hybrid_coefficients_no_mc_block_in_1d():
    # every coefficient is the shifted Sobol' point's inverse CDF
    ctx = build_level_contexts(1, [1], [3], PARAMS_1D)[0]
    lay = ctx.layout
    assert lay.qmc_dim == lay.total_dim
    z = _coefficients(ctx, 1, 2, 3)[0]
    shift = DigitalShift.from_stream(
        oracles.RandomStream(1, ctx.position, 0, 0, PURPOSE_SHIFT), lay.qmc_dim
    )
    pt = shifted_point(sobol_points(SobolGenerator(lay.qmc_dim), [2]), shift)
    np.testing.assert_array_equal(z, inverse_normal_cdf(safe_uniform(pt))[0])
    assert np.all(np.isfinite(z))


def test_hybrid_coefficients_marginals():
    ctx = build_level_contexts(2, [1], [1], PARAMS_2D)[0]
    z = _coefficients(ctx, 11, 0, 2**12)
    n = z.shape[0]
    assert np.max(np.abs(z.mean(axis=0))) < 4.0 / np.sqrt(n)
    assert np.max(np.abs(z.var(axis=0, ddof=1) - 1.0)) < 4.0 * np.sqrt(2.0 / n)


# ------------------------------------------------- assembled pairing pieces


def test_assemble_b_L_zero_and_constant():
    # the truncated part alone: zero coefficients pair to zero, the constant
    # wavelet with value 1 to the basis integrals
    mesh, haar, sm, tables, lay = two_way_case(1, 8, 1, UNIT1)
    zero_cells = np.zeros((tables.n_cells, 2))
    zero = apply_noise_maps(tables, lay, np.zeros(lay.total_dim), zero_cells)[0]
    np.testing.assert_array_equal(zero, np.zeros(mesh.n_vertices))
    e0 = np.eye(lay.total_dim)[0]
    ones = apply_noise_maps(tables, lay, e0, zero_cells)[0]
    np.testing.assert_allclose(ones, oracles.mass_matrix(mesh).sum(axis=1), atol=1e-14)


def test_I_mat_columns_sum_to_basis_integrals():
    mesh, haar, sm, tables, lay = two_way_case(2, 4, 1, UNIT2)
    I = oracles.scipy_matrix(tables.spaces[0].I_mat).toarray()
    np.testing.assert_allclose(
        I.sum(axis=1), oracles.mass_matrix(mesh).sum(axis=1), rtol=1e-12, atol=1e-15
    )
    np.testing.assert_allclose(
        I, oracles.basis_integrals_per_haar_cell(mesh, sm.parent_a, sm), atol=1e-14
    )


def test_truncated_operator_covariance():
    # the map z -> b with zero cell draws, as a matrix B, obeys
    # B B^T = sum_k I^k (I^k)^T / cell volume
    mesh, haar, sm, tables, lay = two_way_case(1, 20, 2, BIG1)
    td = lay.total_dim
    B = apply_noise_maps(tables, lay, np.eye(td), np.zeros((td, tables.n_cells, 2)))[0].T
    I = oracles.scipy_matrix(tables.spaces[0].I_mat).toarray()
    C_L = (I / haar.cell_volume) @ I.T
    np.testing.assert_allclose(B @ B.T, C_L, atol=1e-12)


def test_sample_b_M_zero_draws():
    mesh, haar, sm, tables, lay = two_way_case(1, 4, 0, UNIT1)
    zc = np.zeros((tables.n_cells, tables.dim + 1))
    b = apply_noise_maps(tables, lay, np.zeros(lay.total_dim), zc)[0]
    np.testing.assert_array_equal(b, np.zeros(mesh.n_vertices))
    np.testing.assert_array_equal(tables.S @ zc.ravel(), np.zeros(haar.n_cells))


def test_sample_b_M_exact_covariance():
    # the local factors alone reproduce the mass matrix
    mesh, haar, sm, tables, lay = two_way_case(2, 3, 0, UNIT2)
    G = oracles.scipy_matrix(tables.spaces[0].G_map).toarray()
    np.testing.assert_allclose(G @ G.T, oracles.mass_matrix(mesh), atol=1e-12)


def test_sample_b_M_coupled_identical_spaces():
    fine = build_uniform_mesh(UNIT1, 1, 4)
    haar = HaarMesh(0, 1, UNIT1)
    sm = build_three_way_supermesh(fine, fine, haar)
    tables = build_tables(fine, haar, sm, fine)
    lay = build_layout(1, 0)
    rng = np.random.default_rng(0)
    z = rng.standard_normal(lay.total_dim)
    zc = rng.standard_normal((tables.n_cells, tables.dim + 1))
    b = apply_noise_maps(tables, lay, z, zc)
    np.testing.assert_allclose(b[0], b[1], atol=1e-14)


def test_constant_pairing_has_zero_correction():
    """Draws that realize the pairing of u == 1 lie in the correction's
    null space: b_M equals the basis integrals and b_R vanishes."""
    mesh, haar, sm, tables, lay = two_way_case(2, 2, 0, UNIT2)
    d = tables.dim
    L = np.linalg.cholesky((np.ones((d + 1, d + 1)) + np.eye(d + 1)) / ((d + 1) * (d + 2)))
    z_cells = np.sqrt(sm.volumes)[:, None] * L.T.sum(axis=1)[None, :]

    b = tables.spaces[0].G_map @ z_cells.ravel()
    np.testing.assert_allclose(b, oracles.mass_matrix(mesh).sum(axis=1), atol=1e-13)

    parts = oracles.sample_b_M_parts(mesh, sm.parent_a, sm, haar, z_cells)
    b_R, w = oracles.apply_correction(mesh, sm.parent_a, sm, haar, parts)
    np.testing.assert_allclose(w, np.ones(haar.n_cells), atol=1e-12)
    np.testing.assert_allclose(b_R, np.zeros(mesh.n_vertices), atol=1e-13)

    # the full map agrees: truncated part 0 plus this cell block gives 0
    out = apply_noise_maps(tables, lay, np.zeros(lay.total_dim), z_cells)
    np.testing.assert_allclose(out[0], np.zeros(mesh.n_vertices), atol=1e-13)


def correction_map(mesh, sm, haar):
    """Dense matrix of the cell-block -> b_R linear map, per-cell oracle."""
    cb = len(sm) * (sm.dim + 1)
    cols = np.empty((mesh.n_vertices, cb))
    for j in range(cb):
        z = np.zeros(cb)
        z[j] = 1.0
        parts = oracles.sample_b_M_parts(mesh, sm.parent_a, sm, haar, z)
        cols[:, j], _ = oracles.apply_correction(mesh, sm.parent_a, sm, haar, parts)
    return cols


@pytest.mark.parametrize("dim,n,level", [(1, 5, 1), (2, 2, 0)])
def test_correction_covariance_per_cell(dim, n, level):
    box = UNIT2 if dim == 2 else UNIT1
    mesh, haar, sm, tables, lay = two_way_case(dim, n, level, box)
    A = correction_map(mesh, sm, haar)
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
        np.testing.assert_allclose(cov_k, expect, atol=1e-12)
        assert np.linalg.eigvalsh(cov_k).min() >= -1e-10
        np.testing.assert_allclose(cov_k @ np.ones(mesh.n_vertices), 0.0, atol=1e-12)


def test_operator_correction_matches_per_cell_oracle():
    # with zero coefficients the operator is the cell-block map to b_R
    mesh, haar, sm, tables, lay = two_way_case(2, 3, 1, UNIT2)
    cb = tables.cell_block_size
    eye = np.eye(cb).reshape(cb, tables.n_cells, tables.dim + 1)
    rows = apply_noise_maps(tables, lay, np.zeros((cb, lay.total_dim)), eye)[0]
    np.testing.assert_allclose(rows.T, correction_map(mesh, sm, haar), atol=1e-14)


# ------------------------------------------------- full covariance identity


@pytest.mark.parametrize("level", [-1, 0, 1, 2])
def test_covariance_identity_1d(level):
    mesh, haar, sm, tables, lay = two_way_case(1, 8, level, BIG1)
    cov = oracles.noise_covariances(tables, lay)
    np.testing.assert_allclose(cov[0][0], oracles.mass_matrix(mesh), atol=1e-12)


@pytest.mark.parametrize("level", [-1, 0, 2])
def test_covariance_identity_2d(level):
    mesh, haar, sm, tables, lay = two_way_case(2, 4, level, BIG2)
    cov = oracles.noise_covariances(tables, lay)
    np.testing.assert_allclose(cov[0][0], oracles.mass_matrix(mesh), atol=1e-12)


@pytest.mark.parametrize(
    "dim,n_fine,n_coarse,level",
    [(1, 8, 4, 0), (1, 6, 5, 1), (2, 4, 2, -1), (2, 4, 2, 1)],
)
def test_coupled_covariance_identity(dim, n_fine, n_coarse, level):
    box = BIG2 if dim == 2 else BIG1
    fine, coarse, haar, sm, tables, lay = three_way_case(dim, n_fine, n_coarse, level, box)
    cov = oracles.noise_covariances(tables, lay)
    np.testing.assert_allclose(cov[0][0], oracles.mass_matrix(fine), atol=1e-12)
    np.testing.assert_allclose(cov[1][1], oracles.mass_matrix(coarse), atol=1e-12)
    np.testing.assert_allclose(cov[0][1], oracles.mixed_mass(fine, coarse, sm), atol=1e-12)


def test_level_minus_one_truncated_rank_one():
    mesh, haar, sm, tables, lay = two_way_case(1, 6, -1, UNIT1)
    B = apply_noise_maps(tables, lay, np.eye(1), np.zeros((1, tables.n_cells, 2)))[0].T
    integrals = oracles.mass_matrix(mesh).sum(axis=1)
    np.testing.assert_allclose(B @ B.T, np.outer(integrals, integrals), atol=1e-13)


# -------------------------------------------------------- one-draw plumbing


def test_sample_white_noise_deterministic():
    ctx = build_level_contexts(2, [1, 2], [1, 1], PARAMS_2D)[1]
    f1, c1 = sample_noise(ctx, 5, 0, 3, use_qmc=True)
    f2, c2 = sample_noise(ctx, 5, 0, 3, use_qmc=True)
    np.testing.assert_array_equal(f1, f2)
    np.testing.assert_array_equal(c1, c2)
    assert np.all(np.isfinite(f1)) and np.all(np.isfinite(c1))

    mc_f, mc_c = sample_noise(ctx, 5, 0, 3)
    assert not np.array_equal(mc_f, f1)
    assert mc_c.shape == c1.shape


def test_single_space_draw_has_no_coarse():
    ctx = build_level_contexts(1, [2], [1], PARAMS_1D)[0]
    b_fine, b_coarse = sample_noise(ctx, 2, 0, 0)
    assert b_coarse is None
    assert b_fine.shape == (ctx.spaces[0].d_mesh.n_vertices,)


# ------------------------------------------------------- coupling check


def test_build_tables_raises_on_coupling_mismatch(monkeypatch):
    # perturb the coarse space's local factors before build_tables checks them
    calls = []
    local_factors = whitenoise._local_factors

    def perturbed(*args):
        dofs, R, G = local_factors(*args)
        calls.append(len(calls))
        if len(calls) == 2:
            G[0, 0, 0] += 1e-3
        return dofs, R, G

    monkeypatch.setattr(whitenoise, "_local_factors", perturbed)
    with pytest.raises(CouplingError):
        three_way_case(2, 4, 2, 1, UNIT2)
    assert len(calls) == 2


@pytest.mark.parametrize(
    "dim,mesh_levels,haar_level", [(1, [1, 2, 3, 4, 5, 6], 6), (2, [1, 2, 3, 4], 3)]
)
def test_coupling_check_passes_on_default_hierarchies(dim, mesh_levels, haar_level):
    pars = PARAMS_1D if dim == 1 else PARAMS_2D
    ctxs = build_level_contexts(dim, mesh_levels, [haar_level] * len(mesh_levels), pars)
    for ctx in ctxs:
        t = ctx.tables
        shared = oracles.scipy_matrix(t.S).toarray().sum(axis=0) * t.haar.cell_volume
        for st in t.spaces:
            local = oracles.scipy_matrix(st.G_map).toarray().sum(axis=0)
            assert np.max(np.abs(local - shared)) <= whitenoise.COUPLING_TOL
