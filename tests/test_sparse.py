"""The fixed-pattern sparse operator against scipy.sparse."""

import numpy as np
import pytest
import scipy.sparse as sp

from haarmc import fem
from haarmc.fem import MaternParams
from haarmc.problem import build_level_contexts
from haarmc.sparse import SparseOperator
from oracles import scipy_matrix

# the benchmark's screen configs: 2D mesh levels 1..4 with Haar level 3,
# 1D 1..6 with Haar level 6
BENCH_CONFIGS = {2: ([1, 2, 3, 4], 3), 1: ([1, 2, 3, 4, 5, 6], 6)}


def _random_operator(rng, n_rows=60, n_cols=45, heavy=3):
    """COO triplets with repeats, empty rows and a few heavy rows."""
    counts = rng.integers(0, 12, n_rows)
    counts[rng.choice(n_rows, heavy, replace=False)] = 200
    counts[rng.choice(n_rows, 5, replace=False)] = 0
    rows = np.repeat(np.arange(n_rows), counts)
    cols = rng.integers(0, n_cols, rows.size)
    vals = rng.standard_normal(rows.size)
    perm = rng.permutation(rows.size)
    return rows[perm], cols[perm], vals[perm], (n_rows, n_cols)


def test_construction_sums_repeats_like_scipy():
    rows, cols, vals, shape = _random_operator(np.random.default_rng(0))
    A = SparseOperator(rows, cols, vals, shape)
    ref = sp.coo_matrix((vals, (rows, cols)), shape=shape).tocsr()
    ref.sum_duplicates()
    assert A.shape == ref.shape and A.nnz == ref.nnz and A.dtype == ref.dtype
    np.testing.assert_array_equal(A.indptr, ref.indptr)
    np.testing.assert_array_equal(A.indices, ref.indices)
    np.testing.assert_allclose(A.data, ref.data, rtol=1e-14, atol=1e-14)
    np.testing.assert_allclose(scipy_matrix(A).toarray(), ref.toarray(), rtol=1e-14, atol=1e-14)
    assert len(A._groups) > 1  # one group per distinct entry count


def test_groups_hold_each_nonempty_row_once_unpadded():
    A = SparseOperator(*_random_operator(np.random.default_rng(3)))
    counts = np.diff(A.indptr)
    widths = []
    for rows, cols, pos in A._groups:
        width = pos.shape[1]
        widths.append(width)
        assert cols.shape == pos.shape == (len(rows), width)
        np.testing.assert_array_equal(counts[rows], width)
        np.testing.assert_array_equal(pos, A.indptr[rows, None] + np.arange(width))
        np.testing.assert_array_equal(cols, A.indices[pos])
    assert len(set(widths)) == len(widths)
    grouped = np.sort(np.concatenate([rows for rows, _, _ in A._groups]))
    np.testing.assert_array_equal(grouped, np.flatnonzero(counts))
    assert A.gather_floats == counts.max()


def test_products_sum_each_row_in_order_whatever_the_batch():
    rng = np.random.default_rng(1)
    A = SparseOperator(*_random_operator(rng))
    X = rng.standard_normal((A.shape[1], 17))
    ref = scipy_matrix(A) @ X  # scipy adds a row's entries one at a time
    np.testing.assert_array_equal(A @ X, ref)
    for B in (1, 2, 5):
        np.testing.assert_array_equal(A @ X[:, :B], ref[:, :B])
    np.testing.assert_array_equal(A @ X[:, 3], ref[:, 3])


def test_per_column_data_applies_one_matrix_per_column():
    rng = np.random.default_rng(2)
    A = SparseOperator(*_random_operator(rng))
    X = rng.standard_normal((A.shape[1], 6))
    data = rng.standard_normal((6, A.nnz))
    out = A.apply(X, data)
    for b in range(6):
        M = sp.csr_matrix((data[b], A.indices, A.indptr), shape=A.shape)
        np.testing.assert_array_equal(out[:, b], M @ X[:, b])
        np.testing.assert_array_equal(A.apply(X[:, b : b + 1], data[b : b + 1])[:, 0], out[:, b])
    shared = A.apply(X, data[0])
    np.testing.assert_array_equal(shared, sp.csr_matrix((data[0], A.indices, A.indptr), shape=A.shape) @ X)


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        SparseOperator([0, 1], [0], [1.0, 2.0], (2, 2))
    with pytest.raises(ValueError):
        SparseOperator([0, 2], [0, 1], [1.0, 2.0], (2, 2))
    A = SparseOperator([0, 1], [0, 1], [1.0, 2.0], (2, 3))
    with pytest.raises(ValueError):
        A @ np.ones(2)
    with pytest.raises(ValueError):
        A.apply(np.ones((3, 2)), np.ones((3, A.nnz)))
    assert np.array_equal(A @ np.zeros((3, 0)), np.zeros((2, 0)))


def _level_operators(dim):
    levels, haar = BENCH_CONFIGS[dim]
    params = MaternParams.lognormal_matched(dim, 0.3)
    for ctx in build_level_contexts(dim, levels, [haar] * len(levels), params):
        yield f"{ctx.position}.H", ctx.layout.H
        yield f"{ctx.position}.S", ctx.tables.S
        for k, st in enumerate(ctx.tables.spaces):
            yield f"{ctx.position}.I{k}", st.I_mat
            yield f"{ctx.position}.G{k}", st.G_map
        for k, s in enumerate(ctx.spaces):
            yield f"{ctx.position}.W{k}", s.diffusion.W
            yield f"{ctx.position}.mass{k}", s.diffusion.mass
            yield f"{ctx.position}.helmholtz{k}", fem.assemble_helmholtz(s.d_mesh, params.kappa)


@pytest.mark.parametrize("dim", sorted(BENCH_CONFIGS))
def test_products_match_scipy_on_every_benchmark_operator(dim):
    rng = np.random.default_rng(dim)
    for name, A in _level_operators(dim):
        ref_op = scipy_matrix(A)
        for B in (1, 32):
            X = rng.standard_normal((A.shape[1], B))
            ref = ref_op @ X
            scale = max(np.max(np.abs(ref), initial=0.0), 1e-300)
            assert np.max(np.abs(A @ X - ref), initial=0.0) <= 1e-14 * scale, name
