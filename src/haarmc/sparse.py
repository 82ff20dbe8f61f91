"""A fixed-pattern sparse matrix and its products, in numpy only.

`SparseOperator` is built once from COO triplets and then applied many
times: to a vector or to a block of columns, with its own entries or with
one set of entries per column (matrices that share the pattern). The rows
are stored as CSR arrays and, for the products, grouped by their exact
entry count, so a product is a gather and an `einsum` reduction per block
of rows of one group, and no row is padded.

Each output entry is summed over its row's entries in CSR order, one entry
at a time, so a column's result does not depend on how many columns are
multiplied with it.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["SparseOperator"]

# floats gathered at a time in a product (512 KiB, within a core's L2 cache)
_BLOCK_FLOATS = 1 << 16


class SparseOperator:
    """A sparse (n_rows, n_cols) float matrix with a fixed pattern.

    Built from COO triplets; duplicate (row, col) entries are summed in
    input order. Holds the CSR arrays `indptr`, `indices`, `data`, and per
    group of rows with one entry count the rows, their column indices and
    their positions into `data`. Nothing is mutated after construction, so
    threads may share one operator.
    """

    def __init__(self, rows, cols, vals, shape):
        n_rows, n_cols = (int(s) for s in shape)
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols = np.asarray(cols, dtype=np.int64).ravel()
        vals = np.asarray(vals, dtype=np.float64).ravel()
        if not rows.size == cols.size == vals.size:
            raise ValueError("COO triplets differ in length")
        if rows.size and (
            rows.min() < 0 or rows.max() >= n_rows or cols.min() < 0 or cols.max() >= n_cols
        ):
            raise ValueError("COO index out of range")
        key = rows * n_cols + cols
        order = np.argsort(key, kind="stable")
        key = key[order]
        first = np.empty(key.size, dtype=bool)
        first[:1] = True
        np.not_equal(key[1:], key[:-1], out=first[1:])
        keys = key[first]
        self.shape = (n_rows, n_cols)
        self.dtype = np.dtype(np.float64)
        self.indices = keys % n_cols
        self.indptr = np.zeros(n_rows + 1, dtype=np.int64)
        counts = np.bincount(keys // n_cols, minlength=n_rows)
        np.cumsum(counts, out=self.indptr[1:])
        self.data = np.bincount(np.cumsum(first) - 1, weights=vals[order], minlength=keys.size)
        # rows by entry count, each count's rows in row order; ends[w] rows
        # have fewer than w + 1 entries (np.unique would import numpy.ma)
        rows_per_width = np.bincount(counts)
        ends = np.cumsum(rows_per_width)
        by_width = np.argsort(counts, kind="stable")
        self._groups = []
        for width in np.flatnonzero(rows_per_width[1:]) + 1:
            group_rows = by_width[ends[width - 1] : ends[width]]
            pos = self.indptr[group_rows, None] + np.arange(width)
            self._groups.append((group_rows, self.indices[pos], pos))
        self._own = [self.data[pos] for _, _, pos in self._groups]

    @property
    def nnz(self) -> int:
        return self.indices.size

    @property
    def gather_floats(self) -> int:
        """Scratch floats per column that a product may need beyond a fixed
        block of _BLOCK_FLOATS: one row of the widest group."""
        return max((cols.shape[1] for _, cols, _ in self._groups), default=0)

    def __matmul__(self, x) -> np.ndarray:
        return self.apply(x)

    def apply(self, x, data: Optional[np.ndarray] = None) -> np.ndarray:
        """A @ x for x of shape (n_cols,) or (n_cols, B).

        With `data`, A is the matrix of this pattern with CSR entries
        `data`: one (nnz,) set for every column, or a (B, nnz) array whose
        row b holds the entries of the matrix that column b is multiplied
        with.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim > 2 or x.shape[0] != self.shape[1]:
            raise ValueError("operand shape does not match the operator")
        X = x if x.ndim == 2 else x[:, None]
        B = X.shape[1]
        entries = None
        if data is not None:
            data = np.asarray(data, dtype=np.float64)
            if data.shape[-1] != self.nnz or (data.ndim == 2 and len(data) != B):
                raise ValueError("data shape does not match the operator")
            # one row per CSR entry, one column per matrix
            entries = data.T
        if B == 1:
            # numpy sums a lone column's entries pairwise, not in order
            X = np.repeat(X, 2, axis=1)
            if entries is not None and entries.ndim == 2:
                entries = np.repeat(entries, 2, axis=1)
        X = np.ascontiguousarray(X)
        width = X.shape[1]
        out = np.zeros((self.shape[0], width))
        # the rows of a group are gathered a block at a time into one buffer
        # that stays in cache, which is faster than one gather of the group
        steps = [max(1, _BLOCK_FLOATS // max(1, c.shape[1] * width)) for _, c, _ in self._groups]
        scratch = np.empty(
            max((min(len(r), k) * c.shape[1] * width for (r, c, _), k in zip(self._groups, steps)), default=0)
        )
        for (rows, cols, pos), own, step in zip(self._groups, self._own, steps):
            for a in range(0, len(rows), step):
                block = slice(a, a + step)
                g = scratch[: cols[block].size * width].reshape(cols[block].shape + (width,))
                # mode "clip" skips the buffered copy that "raise" makes for out=
                np.take(X, cols[block], axis=0, out=g, mode="clip")
                v = own[block] if entries is None else entries[pos[block]]
                out[rows[block]] = np.einsum("nwb,nwb->nb" if v.ndim == 3 else "nw,nwb->nb", v, g)
        return out[:, 0] if x.ndim == 1 else out[:, :B]
