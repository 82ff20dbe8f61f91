"""Supermesh construction: common refinements of simplicial meshes and
dyadic Haar grids.

One batched pipeline builds both the two-way (mesh x Haar grid) and the
three-way (fine x coarse x Haar grid) supermesh, in 1D and 2D:

1. candidate (fine, coarse) cell pairs by uniform binning of the coarse
   cells' bounding boxes, kept where the two cells' boxes overlap with
   positive width on every axis; in the two-way build each pair is a mesh
   cell;
2. every candidate fine simplex clipped against its coarse simplex at once,
   by Sutherland-Hodgman steps on padded (P, V, 2) polygon arrays with
   vertex counts (the max/min of the interval ends in 1D);
3. pairs with no area dropped, the rest repeated over the candidate Haar
   cells whose boxes overlap theirs in the same way, and clipped against
   the cells' axis half-planes in one pass;
4. fan triangulation, the sliver filter, and the flat cell arrays.

The box tests in steps 1 and 3 drop only pairs that meet in a set of
measure zero at most, which the clip and the sliver filter drop too; the
loop oracle in the tests has no box test and gives the same cells. Each
clip step sorts its rows into three kinds by the vertices' signed
distances d to the line: every vertex at d <= 0 (the row is kept as it
is), every vertex at d > 0 (the row is emptied), and the rest, the only
rows the step clips. Emptied rows leave the batch.

Each step does, per polygon, the arithmetic of a one-polygon clip: the same
dot products over the same strides, the same intersection formula and the
same vertex merging. Cells come out in (fine, coarse, Haar, fan) order, so
the cells, their order and their vertex order do not depend on the
batching. Candidates are processed in blocks whose scratch arrays stay
within CHUNK_FLOAT_BUDGET floats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import HaarMesh, SimplicialMesh, cell_volumes

__all__ = [
    "Supermesh",
    "clip_to_boxes",
    "fan_triangulate",
    "build_supermesh",
    "build_three_way_supermesh",
    "write_supermesh_csv",
]

SLIVER_REL_TOL = 1e-14  # dropped when volume < this multiple of the parent volume
VERTEX_DEDUP_TOL = 1e-12  # absolute merge tolerance for clipped polygon vertices
BIN_EDGE_TOL = 1e-9  # relative slack of the bin index ranges of a bounding box

# scratch floats one block of candidates may use; bounds on the scratch of
# one padded polygon vertex in a clip step (copies, crossings, distances,
# indices) and of one raw (fine cell, bin, coarse cell) candidate entry
CHUNK_FLOAT_BUDGET = 300_000
_VERTEX_FLOATS = 32
_ENTRY_FLOATS = 8


@dataclass
class Supermesh:
    """Flat arrays over supermesh cells, ordered by parent indices."""

    dim: int
    n_parents: int  # 2 (mesh x haar) or 3 (fine x coarse x haar)
    simplices: np.ndarray  # (n, dim + 1, dim)
    parent_a: np.ndarray
    parent_b: np.ndarray
    parent_haar: np.ndarray
    volumes: np.ndarray

    def __len__(self) -> int:
        return self.simplices.shape[0]


# ------------------------------------------------------------ polygon kernel


def _compact(pts: np.ndarray, ok: np.ndarray):
    """Move each row's ok vertices to the front, in order; (pts, counts)."""
    n = ok.sum(axis=1)
    out = np.zeros((pts.shape[0], n.max(initial=0), pts.shape[2]))
    rows, cols = np.nonzero(ok)
    out[rows, np.cumsum(ok, axis=1)[rows, cols] - 1] = pts[rows, cols]
    return out, n


def _far(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.abs(a - b).max(axis=-1) > VERTEX_DEDUP_TOL


def _merge_vertices(cand: np.ndarray, ok: np.ndarray):
    """Keep each row's ok candidates, dropping every vertex within the merge
    tolerance of the last kept one, then trailing vertices that repeat the
    first; (pts, counts)."""
    pts, n = _compact(cand, ok)
    if pts.shape[1] == 0:
        return pts, n
    keep = np.arange(pts.shape[1]) < n[:, None]
    last = pts[:, 0]
    for s in range(1, pts.shape[1]):
        keep[:, s] &= _far(pts[:, s], last)
        last = np.where(keep[:, s, None], pts[:, s], last)
    pts, n = _compact(pts, keep)
    rows = np.arange(len(n))
    while True:
        pop = (n > 1) & ~_far(pts[:, 0], pts[rows, np.maximum(n - 1, 0)])
        if not pop.any():
            break
        n = n - pop
    return pts[:, : n.max(initial=0)], n


def _halfplane_step(pts: np.ndarray, n: np.ndarray, d: np.ndarray):
    """Sutherland-Hodgman step on a batch of convex CCW polygons: keep the
    part of each where d <= 0, d holding the vertices' signed distances.

    Only the rows the line cuts are clipped. A row with no vertex at d > 0
    comes back as it is: its vertices are already merged (or a simplex's),
    so the merge would return them unchanged. A row with every vertex at
    d > 0 comes back empty: it has no inside vertex and no crossing.
    """
    P, W, dim = pts.shape
    valid = np.arange(W) < n[:, None]
    outside = (valid & (d > 0.0)).sum(axis=1)
    cut = np.nonzero((0 < outside) & (outside < n))[0]
    cut_pts, cut_n = _clip_rows(pts[cut], n[cut], d[cut])
    n = np.where(outside == 0, n, 0)
    n[cut] = cut_n
    out = np.zeros((P, n.max(initial=0), dim))
    w = min(W, out.shape[1])
    out[:, :w] = pts[:, :w]  # stale vertices past a row's n are never read
    out[cut, : cut_pts.shape[1]] = cut_pts
    return out, n


def _clip_rows(pts: np.ndarray, n: np.ndarray, d: np.ndarray):
    """The Sutherland-Hodgman step itself: the vertices at d <= 0 and the
    edges' crossings of d = 0, in order, merged."""
    P, W, dim = pts.shape
    i = np.arange(W)
    valid = i < n[:, None]
    j = np.where(i + 1 < n[:, None], i + 1, 0)
    pj = np.take_along_axis(pts, j[:, :, None], axis=1)
    dj = np.take_along_axis(d, j, axis=1)
    inside = valid & (d <= 0.0)
    cross = valid & (((d < 0.0) & (0.0 < dj)) | ((dj < 0.0) & (0.0 < d)))
    t = np.divide(d, d - dj, out=np.zeros_like(d), where=cross)
    hit = pts + t[:, :, None] * (pj - pts)
    cand = np.stack([pts, hit], axis=2).reshape(P, 2 * W, dim)
    ok = np.stack([inside, cross], axis=2).reshape(P, 2 * W)
    return _merge_vertices(cand, ok)


def _matvec(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise a @ b for stacks a (P, k, m), b (P, m): the BLAS product a
    single polygon would use, so results agree to the last bit."""
    return np.matmul(a, b[:, :, None])[:, :, 0]


def _areas(pts: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Shoelace areas of a batch of 2D polygons (0 below 3 vertices).

    Rows are grouped by vertex count so each dot product runs over exactly
    the polygon's vertices, with x read at the stride of a (k, 2) array.
    """
    out = np.zeros(len(n))
    for k in np.flatnonzero(np.bincount(n)[3:]) + 3:
        rows = np.nonzero(n == k)[0]
        poly = pts[rows, :k]
        x, y = poly[:, :, 0], poly[:, :, 1]
        xy = _matvec(x[:, None, :], np.roll(y, -1, axis=1))[:, 0]
        yx = _matvec(y[:, None, :], np.roll(x, -1, axis=1))[:, 0]
        out[rows] = 0.5 * (xy - yx)
    return out


def _bounds(pts: np.ndarray, n: np.ndarray):
    """Per-row bounding box of the first n vertices."""
    valid = (np.arange(pts.shape[1]) < n[:, None])[:, :, None]
    return (
        np.where(valid, pts, np.inf).min(axis=1),
        np.where(valid, pts, -np.inf).max(axis=1),
    )


def clip_to_boxes(pts: np.ndarray, n: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Intersect each polygon of a batch with its axis-aligned box [lo, hi].

    pts (P, V, dim) holds the first n[p] vertices of polygon p (CCW in 2D,
    an interval's two ends in 1D); lo, hi are (P, dim). Returns (pts, n) in
    the same layout. An overlap of measure zero (a shared vertex or edge)
    comes back with no vertices.
    """
    if pts.shape[2] == 1:
        a, b = _bounds(pts, n)
        a = np.where(lo > a, lo, a)  # max(a, lo), ties to a
        b = np.where(hi < b, hi, b)
        return np.stack([a, b], axis=1), np.where(b[:, 0] > a[:, 0], 2, 0)
    P = len(n)
    rows = np.arange(P)
    for a in range(2):
        for upper in (False, True):
            x = pts[:, :, a]
            # lo - x rounds exactly as (-x) - (-lo), the distance to -x <= -lo
            pts, n = _halfplane_step(pts, n, x - hi[:, a, None] if upper else lo[:, a, None] - x)
            live = np.nonzero(n)[0]  # an empty polygon stays empty
            rows, pts, n, lo, hi = rows[live], pts[live], n[live], lo[live], hi[live]
    out = np.zeros((P,) + pts.shape[1:])
    out[rows] = pts
    k = np.zeros(P, dtype=n.dtype)
    k[rows] = np.where(n >= 3, n, 0)
    return out, k


def _ragged(counts: np.ndarray):
    """(row, k) for items k = 0..counts[row]-1 of each row, in row order."""
    row = np.repeat(np.arange(len(counts)), counts)
    return row, np.arange(row.size) - np.repeat(np.cumsum(counts) - counts, counts)


def fan_triangulate(pts: np.ndarray, n: np.ndarray):
    """Fan triangulation from vertex 0 of a batch of convex CCW polygons.

    Returns (owner, tris): tris (T, 3, 2) in polygon order, then fan order,
    and owner[t] the polygon of triangle t.
    """
    owner, k = _ragged(np.maximum(n - 2, 0))
    if owner.size == 0:
        return owner, np.empty((0, 3, 2))
    return owner, np.stack([pts[owner, 0], pts[owner, k + 1], pts[owner, k + 2]], axis=1)


# ------------------------------------------------------------- index grids


def _bin_ranges(lo, hi, origin, side, n_bins):
    """Per-axis index ranges [i0, i1] of the uniform bins a box [lo, hi] can
    meet, widened by BIN_EDGE_TOL of a bin and clamped to the grid."""
    i0 = np.floor((lo - origin) / side - BIN_EDGE_TOL).astype(np.int64)
    i1 = np.floor((hi - origin) / side + BIN_EDGE_TOL).astype(np.int64)
    return np.maximum(i0, 0), np.minimum(i1, n_bins - 1)


def _expand(i0: np.ndarray, i1: np.ndarray):
    """Every index tuple of each row's ranges [i0, i1] (m, dim), last axis
    fastest, with the row it came from."""
    count = np.maximum(i1 - i0 + 1, 0)
    row, k = _ragged(count.prod(axis=1))
    idx = np.empty((row.size, i0.shape[1]), dtype=np.int64)
    for a in range(i0.shape[1] - 1, -1, -1):
        c = count[row, a]
        idx[:, a] = i0[row, a] + k % c
        k //= c
    return row, idx


def _overlaps(lo_a, hi_a, lo_b, hi_b) -> np.ndarray:
    """Whether boxes [lo_a, hi_a] and [lo_b, hi_b] overlap with positive
    width on every axis; shapes in boxes that do not can meet in a set of
    measure zero at most."""
    return (np.minimum(hi_a, hi_b) > np.maximum(lo_a, lo_b)).all(axis=1)


def _flat(idx: np.ndarray, n: int) -> np.ndarray:
    """C-order flat index over a grid with n cells per axis."""
    flat = idx[:, 0]
    for a in range(1, idx.shape[1]):
        flat = flat * n + idx[:, a]
    return flat


def _blocks(cost: np.ndarray, budget: float):
    """Consecutive (start, stop) item ranges with summed cost within budget;
    an item dearer than the budget gets a range of its own."""
    csum = np.cumsum(cost)
    start, base = 0, 0
    while start < len(cost):
        stop = max(int(np.searchsorted(csum, base + budget, side="right")), start + 1)
        yield start, stop
        base = csum[stop - 1]
        start = stop


class _Bins:
    """Coarse cells listed by the uniform bins their bounding boxes meet."""

    def __init__(self, mesh: SimplicialMesh):
        self.n_cells = mesh.n_cells
        self.lo = mesh.vertices.min(axis=0)
        self.n = max(1, int(np.ceil(np.sqrt(mesh.n_cells) + 1)))
        self.side = (mesh.vertices.max(axis=0) - self.lo) / self.n
        self.side[self.side == 0] = 1.0
        simplices = mesh.vertices[mesh.cells]
        self.box_lo, self.box_hi = simplices.min(axis=1), simplices.max(axis=1)
        cell, idx = _expand(*self.ranges(self.box_lo, self.box_hi))
        key = _flat(idx, self.n)
        order = np.lexsort((cell, key))
        self.cells = cell[order]
        self.start = np.searchsorted(key[order], np.arange(self.n**mesh.dim + 1))
        self.most = int(np.diff(self.start).max())

    def ranges(self, lo, hi):
        return _bin_ranges(lo, hi, self.lo, self.side, self.n)

    def pairs(self, lo, hi):
        """Sorted (row, coarse cell) candidates of the boxes [lo, hi]: the
        coarse cells whose boxes overlap them with positive width."""
        pair = self._shared_bins(lo, hi)  # its raw bin entries freed on return
        row, cell = pair // self.n_cells, pair % self.n_cells
        live = _overlaps(lo[row], hi[row], self.box_lo[cell], self.box_hi[cell])
        return row[live], cell[live]

    def _shared_bins(self, lo, hi):
        """Sorted row * n_cells + coarse cell of the coarse cells that share
        a bin with the boxes [lo, hi]."""
        row, idx = _expand(*self.ranges(lo, hi))
        key = _flat(idx, self.n)
        entry, k = _ragged(self.start[key + 1] - self.start[key])
        cell = self.cells[self.start[key[entry]] + k]
        pair = np.sort(row[entry] * self.n_cells + cell)
        # drop repeats by hand: np.unique's plain path imports numpy.ma
        return pair[np.r_[True, pair[1:] != pair[:-1]][: pair.size]]


# --------------------------------------------------------------- pipeline


def _check_covers_box(mesh: SimplicialMesh, haar: HaarMesh) -> None:
    lo = mesh.vertices.min(axis=0)
    hi = mesh.vertices.max(axis=0)
    if np.max(np.abs(lo - haar.box.lo)) > 1e-10 or np.max(np.abs(hi - haar.box.hi)) > 1e-10:
        raise ValueError("mesh does not cover the Haar grid's box")


def _intersect(pts: np.ndarray, simplices: np.ndarray):
    """Step 2: clip fine simplices by their coarse simplices' half-planes,
    edge by edge (interval ends in 1D). Returns (rows, pts, n) for the
    pairs whose intersection has positive measure."""
    n = np.full(len(pts), pts.shape[1])
    if pts.shape[2] == 1:
        pts, n = clip_to_boxes(pts, n, simplices.min(axis=1), simplices.max(axis=1))
        rows = np.nonzero(n == 2)[0]
        return rows, pts[rows], n[rows]
    rows = np.arange(len(pts))
    for e in range(3):
        p, q = simplices[:, e], simplices[:, (e + 1) % 3]
        edge = q - p
        # inside (left of the directed edge): cross(edge, x - p) >= 0
        normal = np.stack([edge[:, 1], -edge[:, 0]], axis=1)
        offset = _matvec(normal[:, None, :], p)[:, 0]
        pts, n = _halfplane_step(pts, n, _matvec(pts, normal) - offset[:, None])
        live = np.nonzero(n)[0]  # an empty polygon stays empty
        rows, pts, n, simplices = rows[live], pts[live], n[live], simplices[live]
    live = np.nonzero(_areas(pts, n) > 0.0)[0]
    return rows[live], pts[live], n[live]


def _split_by_haar(haar: HaarMesh, pa, pb, pts, n, ref_vol, out: list) -> None:
    """Steps 3 and 4: clip every piece to each of its candidate Haar cells,
    triangulate, drop slivers and append the cell arrays to `out`."""
    n_axis = haar.cells_per_axis
    box_lo = np.asarray(haar.box.lo)
    width = np.asarray(haar.box.hi) - box_lo
    plo, phi = _bounds(pts, n)
    i0, i1 = _bin_ranges(plo, phi, box_lo, width / n_axis, n_axis)
    per_piece = (pts.shape[1] + 4) * _VERTEX_FLOATS  # four clips add <= 4 vertices
    cost = np.maximum(i1 - i0 + 1, 0).prod(axis=1) * per_piece
    for p0, p1 in _blocks(cost, CHUNK_FLOAT_BUDGET):
        row, idx = _expand(i0[p0:p1], i1[p0:p1])
        row += p0
        lo = box_lo + idx * width / n_axis
        hi = box_lo + (idx + 1) * width / n_axis
        live = _overlaps(plo[row], phi[row], lo, hi)
        row, idx, lo, hi = row[live], idx[live], lo[live], hi[live]
        piece, k = clip_to_boxes(pts[row], n[row], lo, hi)
        if pts.shape[2] == 1:
            owner = np.nonzero(k == 2)[0]
            simplices = piece[owner]
            vol = simplices[:, 1, 0] - simplices[:, 0, 0]
        else:
            owner, simplices = fan_triangulate(piece, k)
            vol = _areas(simplices, np.full(len(owner), 3))
        src = row[owner]
        keep = vol >= SLIVER_REL_TOL * ref_vol[pa[src]]
        src, owner = src[keep], owner[keep]
        out.append((simplices[keep], pa[src], pb[src], _flat(idx[owner], n_axis), vol[keep]))


def _build(fine: SimplicialMesh, coarse, haar: HaarMesh) -> Supermesh:
    dim = fine.dim
    ref_vol = cell_volumes(fine)
    step = max(1, CHUNK_FLOAT_BUDGET // ((dim + 4) * _VERTEX_FLOATS))  # pairs a block clips
    out: list = []
    if coarse is None:
        for c0 in range(0, fine.n_cells, step):
            pa = np.arange(c0, min(c0 + step, fine.n_cells))
            pb = np.full(len(pa), -1, dtype=np.int64)
            n = np.full(len(pa), dim + 1)
            _split_by_haar(haar, pa, pb, fine.vertices[fine.cells[pa]], n, ref_vol, out)
    else:
        bins = _Bins(coarse)
        simplices = fine.vertices[fine.cells]
        lo, hi = simplices.min(axis=1), simplices.max(axis=1)
        del simplices
        i0, i1 = bins.ranges(lo, hi)
        entries = np.maximum(i1 - i0 + 1, 0).prod(axis=1) * bins.most
        for c0, c1 in _blocks(entries * _ENTRY_FLOATS, CHUNK_FLOAT_BUDGET):
            row, cand = bins.pairs(lo[c0:c1], hi[c0:c1])
            for q0 in range(0, len(row), step):
                pa, pb = c0 + row[q0 : q0 + step], cand[q0 : q0 + step]
                live, pts, n = _intersect(
                    fine.vertices[fine.cells[pa]], coarse.vertices[coarse.cells[pb]]
                )
                _split_by_haar(haar, pa[live], pb[live], pts, n, ref_vol, out)
    if not out:
        empty = np.empty(0, dtype=np.int64)
        out = [(np.empty((0, dim + 1, dim)), empty, empty, empty, np.empty(0))]
    simplices, pa, pb, ph, vol = (np.concatenate(p) for p in zip(*out))
    return Supermesh(dim, 2 if coarse is None else 3, simplices, pa, pb, ph, vol)


def build_supermesh(mesh: SimplicialMesh, haar: HaarMesh) -> Supermesh:
    """Common refinement of a simplicial mesh and a Haar grid.

    Output cells are sorted by (mesh cell, Haar cell); parent_b is -1.
    """
    if mesh.dim != haar.dim:
        raise ValueError("mesh and Haar grid dimensions differ")
    _check_covers_box(mesh, haar)
    return _build(mesh, None, haar)


def build_three_way_supermesh(
    fine: SimplicialMesh, coarse: SimplicialMesh, haar: HaarMesh
) -> Supermesh:
    """Common refinement of two simplicial meshes and a Haar grid.

    Fine and coarse cells are intersected pairwise, then every piece is
    clipped against the candidate Haar cells. Output order is sorted by
    (fine cell, coarse cell, Haar cell).
    """
    if not (fine.dim == coarse.dim == haar.dim):
        raise ValueError("dimension mismatch between parents")
    _check_covers_box(fine, haar)
    _check_covers_box(coarse, haar)
    return _build(fine, coarse, haar)


def write_supermesh_csv(sm: Supermesh, path) -> None:
    """CSV dump with the fixed header; coordinate slots a cell does not use
    (the third vertex in 1D) are written as 0."""
    coords = np.zeros((len(sm), 3, 2))
    coords[:, : sm.dim + 1, : sm.dim] = sm.simplices
    rows = zip(
        sm.parent_a.tolist(),
        sm.parent_b.tolist(),
        sm.parent_haar.tolist(),
        sm.volumes.tolist(),
        coords.reshape(len(sm), 6).tolist(),
    )
    with open(path, "w") as f:
        f.write("parent_a,parent_b,parent_haar,volume,x0,y0,x1,y1,x2,y2\n")
        for pa, pb, ph, vol, xy in rows:
            f.write(f"{pa},{pb},{ph},{vol!r},{','.join(map(repr, xy))}\n")
