"""White-noise pairing tests.

The sampling map from Gaussian inputs to pairings b is linear, so its
covariance can be computed exactly by pushing basis vectors through it; the
central checks below compare that propagated covariance against mass
matrices assembled by an independent dense oracle. No statistics involved.
"""

import itertools

import numpy as np
import pytest

from haarmc.lowdisc import (
    PURPOSE_SHIFT,
    DigitalShift,
    RandomStream,
    SobolGenerator,
)
from haarmc.mesh import Box, HaarMesh, build_uniform_mesh
from haarmc.supermesh import build_supermesh, build_three_way_supermesh
from haarmc.whitenoise import (
    CouplingError,
    apply_correction,
    apply_noise_maps,
    assemble_b_L,
    build_layout,
    build_tables,
    draw_hybrid_coefficients,
    haar_cell_values,
    qmc_block_size,
    sample_b_M,
    sample_b_M_parts,
    sample_white_noise,
)
import oracles

UNIT1 = Box((0.0,), (1.0,))
UNIT2 = Box((0.0, 0.0), (1.0, 1.0))
BIG1 = Box((-1.0,), (1.0,))
BIG2 = Box((-1.0, -1.0), (1.0, 1.0))


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
    lay = build_layout(dim, level)
    idx, coef = lay.transform_tables()
    ref_idx, ref_coef = oracles.haar_transform_tables(lay)
    assert idx.dtype == ref_idx.dtype and coef.dtype == ref_coef.dtype
    np.testing.assert_array_equal(idx, ref_idx)
    np.testing.assert_array_equal(coef, ref_coef)


def test_layout_index_of_rejects_unknown_coefficients():
    lay = build_layout(2, 2)
    for l, n in [((3, 0), (0, 0)), ((-2, 0), (0, 0)), ((1, 1), (2, 0)), ((0, 0), (-1, 0))]:
        with pytest.raises(KeyError):
            lay.index_of(l, n)


def test_layout_index_of_is_inverse():
    lay = build_layout(2, 1)
    for i, (l, n) in enumerate(zip(lay.levels, lay.shifts)):
        assert lay.index_of(l, n) == i


# -------------------------------------------------------- haar cell values


def test_values_constant_level():
    lay = build_layout(1, -1)
    haar = HaarMesh(-1, 1, UNIT1)
    np.testing.assert_allclose(haar_cell_values(lay, haar, np.array([3.0])), [3.0])


def test_values_1d_level0():
    lay = build_layout(1, 0)
    haar = HaarMesh(0, 1, UNIT1)
    out = haar_cell_values(lay, haar, np.array([2.0, 5.0]))
    np.testing.assert_allclose(out, [7.0, -3.0])
    a, b = 0.7, -1.3
    np.testing.assert_allclose(
        haar_cell_values(lay, haar, np.array([a, b])), [a + b, a - b], atol=1e-14
    )


def test_values_box_jacobian():
    # doubling the box halves the L2 normalization of every wavelet
    lay = build_layout(1, 0)
    unit = haar_cell_values(lay, HaarMesh(0, 1, UNIT1), np.array([2.0, 5.0]))
    big = haar_cell_values(lay, HaarMesh(0, 1, BIG1), np.array([2.0, 5.0]))
    np.testing.assert_allclose(big, unit / np.sqrt(2.0))


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("level", [-1, 0, 1, 2, 3])
def test_transform_orthogonality(dim, level):
    box = BIG2 if dim == 2 else BIG1
    lay = build_layout(dim, level)
    haar = HaarMesh(level, dim, box)
    T = haar_cell_values(lay, haar, np.eye(lay.total_dim)).T
    expect = 2.0 ** (dim * (level + 1)) / box.volume
    np.testing.assert_allclose(
        T @ T.T, expect * np.eye(haar.n_cells), atol=1e-10 * expect
    )


def test_values_length_mismatch():
    lay = build_layout(1, 1)
    with pytest.raises(ValueError):
        haar_cell_values(lay, HaarMesh(1, 1, UNIT1), np.zeros(3))


# ------------------------------------------------------ hybrid coefficients


def test_hybrid_coefficients_deterministic():
    lay = build_layout(2, 2)
    gen = SobolGenerator(lay.qmc_dim)
    shift = DigitalShift.from_stream(RandomStream(3, purpose=PURPOSE_SHIFT), lay.qmc_dim)

    def stream_for(n):
        return RandomStream(3, 0, 0, n)

    z1 = draw_hybrid_coefficients(lay, gen, shift, 5, stream_for)
    z2 = draw_hybrid_coefficients(lay, gen, shift, 5, stream_for)
    np.testing.assert_array_equal(z1, z2)
    assert z1.shape == (64,)


def test_hybrid_coefficients_no_mc_block_in_1d():
    lay = build_layout(1, 3)
    gen = SobolGenerator(lay.qmc_dim)
    shift = DigitalShift.from_stream(RandomStream(1, purpose=PURPOSE_SHIFT), lay.qmc_dim)
    z = draw_hybrid_coefficients(lay, gen, shift, 2, stream_for=None)
    assert z.shape == (lay.total_dim,)
    assert np.all(np.isfinite(z))


def test_hybrid_coefficients_marginals():
    lay = build_layout(2, 1)
    gen = SobolGenerator(lay.qmc_dim)
    shift = DigitalShift.from_stream(RandomStream(11, purpose=PURPOSE_SHIFT), lay.qmc_dim)

    def stream_for(n):
        return RandomStream(11, 0, 0, n)

    z = draw_hybrid_coefficients(lay, gen, shift, np.arange(2**12), stream_for)
    n = z.shape[0]
    assert np.max(np.abs(z.mean(axis=0))) < 4.0 / np.sqrt(n)
    assert np.max(np.abs(z.var(axis=0, ddof=1) - 1.0)) < 4.0 * np.sqrt(2.0 / n)


# ------------------------------------------------- assembled pairing pieces


def test_assemble_b_L_zero_and_constant():
    mesh, haar, sm, tables, lay = two_way_case(1, 8, 1, UNIT1)
    nh = haar.n_cells
    zero = assemble_b_L(tables, np.zeros(nh))[0]
    np.testing.assert_array_equal(zero, np.zeros(mesh.n_vertices))
    ones = assemble_b_L(tables, np.ones(nh))[0]
    np.testing.assert_allclose(ones, oracles.mass_matrix(mesh).sum(axis=1), atol=1e-14)


def test_I_mat_columns_sum_to_basis_integrals():
    mesh, haar, sm, tables, lay = two_way_case(2, 4, 1, UNIT2)
    I = tables.spaces[0].I_mat.toarray()
    np.testing.assert_allclose(
        I.sum(axis=1), oracles.mass_matrix(mesh).sum(axis=1), rtol=1e-12, atol=1e-15
    )
    np.testing.assert_allclose(
        I, oracles.basis_integrals_per_haar_cell(mesh, sm.parent_a, sm), atol=1e-14
    )


def test_truncated_operator_covariance():
    # (assemble_b_L o haar_cell_values) as a matrix B obeys
    # B B^T = sum_k I^k (I^k)^T / cell volume
    mesh, haar, sm, tables, lay = two_way_case(1, 20, 2, BIG1)
    T = haar_cell_values(lay, haar, np.eye(lay.total_dim))  # rows: z basis
    B = assemble_b_L(tables, T)[0]  # (n_dofs, total_dim)
    I = tables.spaces[0].I_mat.toarray()
    C_L = (I / haar.cell_volume) @ I.T
    np.testing.assert_allclose(B @ B.T, C_L, atol=1e-12)


def test_sample_b_M_zero_draws():
    mesh, haar, sm, tables, lay = two_way_case(1, 4, 0, UNIT1)
    b, sums = sample_b_M(tables, np.zeros((tables.n_cells, tables.dim + 1)))
    np.testing.assert_array_equal(b[0], np.zeros(mesh.n_vertices))
    np.testing.assert_array_equal(sums[0], np.zeros(haar.n_cells))


def test_sample_b_M_exact_covariance():
    mesh, haar, sm, tables, lay = two_way_case(2, 3, 0, UNIT2)
    cb = tables.cell_block_size
    eye = np.eye(cb).reshape(cb, tables.n_cells, tables.dim + 1)
    rows, _ = sample_b_M(tables, eye)
    cov = rows[0].T @ rows[0]
    np.testing.assert_allclose(cov, oracles.mass_matrix(mesh), atol=1e-12)


def test_sample_b_M_coupled_identical_spaces():
    fine = build_uniform_mesh(UNIT1, 1, 4)
    haar = HaarMesh(0, 1, UNIT1)
    sm = build_three_way_supermesh(fine, fine, haar)
    tables = build_tables(fine, haar, sm, fine)
    rng = np.random.default_rng(0)
    z = rng.standard_normal((tables.n_cells, tables.dim + 1))
    b, _ = sample_b_M(tables, z)
    np.testing.assert_allclose(b[0], b[1], atol=1e-14)


def test_constant_pairing_has_zero_correction():
    """Draws that realize the pairing of u == 1 lie in the correction's
    null space: b_M equals the basis integrals and b_R vanishes."""
    mesh, haar, sm, tables, lay = two_way_case(2, 2, 0, UNIT2)
    d = tables.dim
    L = np.linalg.cholesky((np.ones((d + 1, d + 1)) + np.eye(d + 1)) / ((d + 1) * (d + 2)))
    z_cells = np.sqrt(sm.volumes)[:, None] * L.T.sum(axis=1)[None, :]

    b, _ = sample_b_M(tables, z_cells)
    np.testing.assert_allclose(b[0], oracles.mass_matrix(mesh).sum(axis=1), atol=1e-13)

    parts = sample_b_M_parts(tables, z_cells)
    b_R, w = apply_correction(tables, parts)
    np.testing.assert_allclose(w, np.ones(haar.n_cells), atol=1e-12)
    np.testing.assert_allclose(b_R[0], np.zeros(mesh.n_vertices), atol=1e-13)

    # the full map agrees: truncated part 0 plus this cell block gives 0
    out, _, _ = apply_noise_maps(tables, lay, np.zeros(lay.total_dim), z_cells)
    np.testing.assert_allclose(out[0], np.zeros(mesh.n_vertices), atol=1e-13)


def correction_map(tables):
    """Dense matrix of the cell-block -> b_R linear map, one space."""
    cb = tables.cell_block_size
    cols = np.empty((tables.spaces[0].n_dofs, cb))
    for j in range(cb):
        z = np.zeros(cb)
        z[j] = 1.0
        parts = sample_b_M_parts(tables, z)
        b_R, _ = apply_correction(tables, parts)
        cols[:, j] = b_R[0]
    return cols


@pytest.mark.parametrize("dim,n,level", [(1, 5, 1), (2, 2, 0)])
def test_correction_covariance_per_cell(dim, n, level):
    box = UNIT2 if dim == 2 else UNIT1
    mesh, haar, sm, tables, lay = two_way_case(dim, n, level, box)
    A = correction_map(tables)
    I = oracles.basis_integrals_per_haar_cell(mesh, sm.parent_a, sm)
    for k in range(haar.n_cells):
        mask = np.repeat(tables.haar_of_cell == k, dim + 1)
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
    T = haar_cell_values(lay, haar, np.eye(1))
    B = assemble_b_L(tables, T)[0]
    integrals = oracles.mass_matrix(mesh).sum(axis=1)
    np.testing.assert_allclose(B @ B.T, np.outer(integrals, integrals), atol=1e-13)


# -------------------------------------------------------- one-draw plumbing


def test_sample_white_noise_deterministic():
    fine, coarse, haar, sm, tables, lay = three_way_case(2, 4, 2, 1, BIG2)
    gen = SobolGenerator(lay.qmc_dim)
    shift = DigitalShift.from_stream(RandomStream(5, 1, 0, 0, PURPOSE_SHIFT), lay.qmc_dim)

    def stream_for(n):
        return RandomStream(5, 1, 0, n)

    d1 = sample_white_noise(tables, lay, gen, shift, 3, stream_for)
    d2 = sample_white_noise(tables, lay, gen, shift, 3, stream_for)
    np.testing.assert_array_equal(d1.b_fine, d2.b_fine)
    np.testing.assert_array_equal(d1.b_coarse, d2.b_coarse)
    np.testing.assert_array_equal(d1.wbar, d2.wbar)
    assert np.all(np.isfinite(d1.b_fine)) and np.all(np.isfinite(d1.b_coarse))

    mc = sample_white_noise(tables, lay, None, None, 3, stream_for)
    assert not np.array_equal(mc.b_fine, d1.b_fine)
    assert mc.b_coarse.shape == d1.b_coarse.shape


def test_single_space_draw_has_no_coarse():
    mesh, haar, sm, tables, lay = two_way_case(1, 8, 1, UNIT1)

    def stream_for(n):
        return RandomStream(2, 0, 0, n)

    draw = sample_white_noise(tables, lay, None, None, 0, stream_for)
    assert draw.b_coarse is None
    assert draw.b_fine.shape == (mesh.n_vertices,)
    assert draw.wbar.shape == (haar.n_cells,)


def _perturbed_coarse_case():
    *_, tables, lay = three_way_case(2, 4, 2, 1, UNIT2)
    tables.spaces[1].G[0, 0, 0] += 1e-3
    return tables, lay


def test_noise_map_raises_on_coupling_mismatch():
    tables, lay = _perturbed_coarse_case()
    rng = np.random.default_rng(3)
    z = rng.standard_normal(lay.total_dim)
    zc = rng.standard_normal((tables.n_cells, tables.dim + 1))
    with pytest.raises(CouplingError):
        apply_noise_maps(tables, lay, z, zc)


def test_correction_raises_on_coupling_mismatch():
    tables, _ = _perturbed_coarse_case()
    zc = np.random.default_rng(4).standard_normal((tables.n_cells, tables.dim + 1))
    with pytest.raises(CouplingError):
        apply_correction(tables, sample_b_M_parts(tables, zc))
