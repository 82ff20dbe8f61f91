"""Independent reference computations used across the test suite.

Everything here is deliberately written by a different route than the
library code it checks: dense element loops instead of vectorized sparse
assembly, explicit quadrature over supermesh cells instead of precomputed
restriction tables, root finding instead of rational approximation, and
supermeshes clipped one polygon at a time instead of in batches.
"""

import functools
import itertools
from dataclasses import dataclass
from importlib import resources

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.optimize import brentq
from scipy.special import erfc

from haarmc.fem import _local_arrays
from haarmc.lowdisc import _BITS, _SCALE, PURPOSE_NOISE, SobolGenerator
from haarmc.mesh import HaarMesh, SimplicialMesh, cell_volumes, vertex_injection_map
from haarmc.mlqmc import LevelSampler
from haarmc.sparse import SparseOperator
from haarmc.supermesh import Supermesh


def qmc_estimate(sampler: LevelSampler, N: int, M: int):
    """Randomized QMC mean over M digital shifts of N points each.

    Returns (mean, variance_of_mean, per_randomization_means); the variance
    is the sample variance of the M per-shift means divided by M.
    """
    if N < 1 or M < 2:
        raise ValueError("need N >= 1 and M >= 2")
    means = sampler.batch(range(M), 0, N).mean(axis=1)
    return float(means.mean()), float(means.var(ddof=1) / M), means


def mass_matrix(mesh):
    """Dense P1 mass matrix via the closed-form local matrix on simplices."""
    d = mesh.dim
    n = mesh.n_vertices
    base = (np.ones((d + 1, d + 1)) + np.eye(d + 1)) / ((d + 1) * (d + 2))
    M = np.zeros((n, n))
    for cell, vol in zip(mesh.cells, cell_volumes(mesh)):
        M[np.ix_(cell, cell)] += vol * base
    return M


def scatter(mesh, local):
    """The matrix over all vertices summed from the local matrices `local`
    (n_cells, d+1, d+1) as COO triplets."""
    d1 = mesh.dim + 1
    rows = np.repeat(mesh.cells, d1, axis=1)
    cols = np.tile(mesh.cells, (1, d1))
    return SparseOperator(rows, cols, local, (mesh.n_vertices, mesh.n_vertices))


def assemble_mass(mesh):
    """P1 mass matrix as a SparseOperator: the closed-form local matrix of
    every cell, summed as COO triplets."""
    d1 = mesh.dim + 1
    base = (np.ones((d1, d1)) + np.eye(d1)) / (d1 * (d1 + 1))
    return scatter(mesh, cell_volumes(mesh)[:, None, None] * base[None])


def assemble_stiffness(mesh, coeff=None):
    """Stiffness matrix, optionally weighted by piecewise-constant cell
    values `coeff`."""
    vols, grads = _local_arrays(mesh)
    w = vols if coeff is None else vols * np.asarray(coeff, dtype=float)
    local = w[:, None, None] * np.einsum("cik,cjk->cij", grads, grads)
    return scatter(mesh, local)


def restrict_interior(A, mesh):
    """The interior rows and columns of a matrix over all vertices."""
    idx = mesh.interior_vertices
    pos = np.full(mesh.n_vertices, -1, dtype=np.int64)
    pos[idx] = np.arange(idx.size)
    rows = pos[np.repeat(np.arange(mesh.n_vertices), np.diff(A.indptr))]
    cols = pos[A.indices]
    keep = (rows >= 0) & (cols >= 0)
    return SparseOperator(rows[keep], cols[keep], A.data[keep], (idx.size, idx.size))


@dataclass(frozen=True)
class RandomStream:
    """The stream (seed, level, m, n, purpose) as numpy defines it: a PCG64
    seeded from SeedSequence((seed, level + 1, m, n, purpose)), one stream
    at a time, where `haarmc.lowdisc.StreamChunk` reproduces the hash to
    open many at once."""

    seed: int
    level: int = 0
    m: int = 0
    n: int = 0
    purpose: int = PURPOSE_NOISE

    @functools.cached_property
    def generator(self) -> np.random.Generator:
        entropy = (self.seed, self.level + 1, self.m, self.n, self.purpose)
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def sparse_operator(A):
    """The SparseOperator of a dense array or a scipy sparse matrix."""
    coo = sp.coo_matrix(A)
    return SparseOperator(coo.row, coo.col, coo.data, coo.shape)


def scipy_matrix(A):
    """A SparseOperator as a scipy CSR matrix, for the scipy oracles."""
    return sp.csr_matrix((A.data, A.indices, A.indptr), shape=A.shape)


def splu_solve(A, b):
    """Solve the SPD system A x = b (a SparseOperator) with SuperLU in
    symmetric mode: minimum degree on A + A^T and the diagonal as pivot,
    which keeps the fill of a Cholesky factor. b may be a vector or a
    matrix of right-hand sides."""
    lu = spla.splu(
        sp.csc_matrix(scipy_matrix(A)),
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )
    return lu.solve(np.asarray(b, dtype=float))


def functional_l2sq(mesh, p, M=None):
    """Squared L2 norm of the P1 function with nodal values p (rows of a
    batch give one value each)."""
    if M is None:
        M = assemble_mass(mesh)
    p = np.asarray(p, dtype=float)
    if p.ndim > 1:
        return np.einsum("bi,bi->b", p, (M @ p.T).T)
    return float(p @ (M @ p))


def transfer_field(u, sup, sub):
    """Restrict nodal values from a mesh to a nested submesh by exact vertex
    injection; raises if the submesh vertices are not all present."""
    inj = vertex_injection_map(sub, sup)
    return np.asarray(u, dtype=float)[..., inj]


def uniform_mesh_cells_2d(n, diagonal):
    """Cells of the uniform 2D mesh with n squares per axis, one square at a
    time: square (i, j) gives two triangles along the chosen diagonal."""

    def vid(i, j):
        return i * (n + 1) + j

    cells = []
    for i in range(n):
        for j in range(n):
            a, b, c, d = vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)
            if diagonal == "right":
                cells += [(a, b, c), (a, c, d)]
            else:
                cells += [(a, b, d), (b, c, d)]
    return np.asarray(cells, dtype=np.int64)


def haar_transform_tables(layout):
    """Per-Haar-cell index and signed-scale tables, one dict lookup of
    (level vector, shift vector) per cell and level vector."""
    d, L = layout.dim, layout.level
    lookup = {
        (tuple(l), tuple(n)): i for i, (l, n) in enumerate(zip(layout.levels, layout.shifts))
    }
    nside = 1 << (L + 1)
    n_cells = nside**d
    lvecs = list(itertools.product(range(-1, L + 1), repeat=d))
    idx = np.empty((n_cells, len(lvecs)), dtype=np.int64)
    coef = np.empty((n_cells, len(lvecs)), dtype=np.float64)
    mids = (np.indices((nside,) * d).reshape(d, -1).T + 0.5) / nside
    for j, lvec in enumerate(lvecs):
        scale = 2.0 ** (0.5 * sum(max(li, 0) for li in lvec))
        nbar = np.floor(mids * (2.0 ** np.array(lvec))).astype(np.int64)
        half = np.floor(mids * (2.0 ** (np.array(lvec) + 1))).astype(np.int64)
        sign = np.prod(1 - 2 * (half % 2), axis=1)
        for k in range(n_cells):
            idx[k, j] = lookup[(lvec, tuple(nbar[k]))]
        coef[:, j] = sign * scale
    return idx, coef


def load_direction_numbers(max_dim: int, source=None):
    """The Joe-Kuo table parsed with the direction recurrence run on numpy
    uint64 scalars, one column entry at a time (the library runs it on
    Python ints). Returns (_BITS, max_dim) uint64, column j for dimension
    j+1."""
    V = np.zeros((_BITS, max_dim), dtype=np.uint64)
    V[:, 0] = [1 << (_BITS - i) for i in range(1, _BITS + 1)]
    if source is None:
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
            m = [int(t) for t in parts[3 : 3 + s]]
            col = np.zeros(_BITS, dtype=np.uint64)
            for i in range(1, min(s, _BITS) + 1):
                col[i - 1] = m[i - 1] << (_BITS - i)
            for i in range(s + 1, _BITS + 1):
                prev = col[i - s - 1]
                acc = prev ^ (prev >> np.uint64(s))
                for k in range(1, s):
                    if (a >> (s - 1 - k)) & 1:
                        acc ^= col[i - k - 1]
                col[i - 1] = acc
            V[:, d - 1] = col
    return V


def sobol_point(gen: SobolGenerator, n: int) -> np.ndarray:
    """n-th Sobol' point of gen, coordinates in [0, 1)."""
    return gen.integers([n])[0].astype(np.float64) / _SCALE


def sobol_gray_recurrence(gen: SobolGenerator, count: int) -> np.ndarray:
    """Integer points 0..count-1 of gen by the Antonov-Saleev step
    x_n = x_{n-1} ^ v[ctz(n)], one point at a time."""
    v = gen._v
    x = np.zeros(gen.dim, dtype=np.uint64)
    out = np.empty((count, gen.dim), dtype=np.uint64)
    for n in range(count):
        if n:
            x = x ^ v[(n & -n).bit_length() - 1]
        out[n] = x
    return out


def box_to_unit(box, points: np.ndarray) -> np.ndarray:
    """Affine map of physical points onto the unit box [0,1]^d."""
    p = np.atleast_2d(np.asarray(points, dtype=float))
    return (p - np.asarray(box.lo)) / box.sides


def box_from_unit(box, points: np.ndarray) -> np.ndarray:
    p = np.atleast_2d(np.asarray(points, dtype=float))
    return p * box.sides + np.asarray(box.lo)


def box_contains(box, points: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    p = np.atleast_2d(np.asarray(points, dtype=float))
    lo = np.asarray(box.lo) - tol
    hi = np.asarray(box.hi) + tol
    return np.all((p >= lo) & (p <= hi), axis=1)


def haar_cell_midpoint(haar: HaarMesh, k) -> np.ndarray:
    """Physical midpoint(s) of cell(s) k."""
    k = np.atleast_1d(np.asarray(k, dtype=np.int64))
    if np.any(k < 0) or np.any(k >= haar.n_cells):
        raise IndexError("Haar cell index out of range")
    n = haar.cells_per_axis
    axes = []
    rem = k.copy()
    for _ in range(haar.dim):
        axes.append(rem % n)
        rem //= n
    axes = axes[::-1]  # first axis is the most significant digit
    unit = np.column_stack([(a + 0.5) / n for a in axes])
    return box_from_unit(haar.box, unit)


def haar_cell_index(haar: HaarMesh, points: np.ndarray) -> np.ndarray:
    """Flat cell index of each point; points on the upper boundary are clamped
    into the last cell along that axis."""
    if not np.all(box_contains(haar.box, points)):
        raise ValueError("point outside the Haar grid's box")
    u = box_to_unit(haar.box, points)
    n = haar.cells_per_axis
    idx = np.floor(u * n).astype(np.int64)
    np.clip(idx, 0, n - 1, out=idx)
    flat = idx[:, 0]
    for a in range(1, haar.dim):
        flat = flat * n + idx[:, a]
    return flat


def read_mesh(path) -> SimplicialMesh:
    with open(path) as f:
        dim, nv, nc = map(int, f.readline().split())
        vertices = np.array(
            [[float(t) for t in f.readline().split()] for _ in range(nv)]
        )
        cells = np.array([[int(t) for t in f.readline().split()] for _ in range(nc)])
    verts = vertices.reshape(nv, dim)
    # Boundary detection: facets incident to exactly one cell.
    if dim == 1:
        counts = np.zeros(nv, dtype=int)
        for a, b in cells:
            counts[a] += 1
            counts[b] += 1
        boundary = np.nonzero(counts == 1)[0]
    else:
        from collections import Counter

        edges = Counter()
        for tri in cells:
            for i in range(3):
                e = tuple(sorted((tri[i], tri[(i + 1) % 3])))
                edges[e] += 1
        bset = set()
        for (a, b), cnt in edges.items():
            if cnt == 1:
                bset.update((a, b))
        boundary = np.array(sorted(bset), dtype=np.int64)
    return SimplicialMesh(dim, verts, cells, boundary)


def barycentric(parent, points):
    """Barycentric coordinates of `points` (m, d) in one simplex (d+1, d).

    Returns (d+1, m); row i is the hat function of local vertex i.
    """
    p0 = parent[0]
    T = (parent[1:] - p0).T
    lam = np.linalg.solve(T, (points - p0).T)
    return np.vstack([1.0 - lam.sum(axis=0), lam])


def _quad_rule(simplex):
    """Degree-2 exact rule on one simplex: Simpson in 1D, edge midpoints in 2D."""
    if simplex.shape[0] == 2:
        pts = np.array([simplex[0], 0.5 * (simplex[0] + simplex[1]), simplex[1]])
        wts = np.array([1.0, 4.0, 1.0]) / 6.0
    else:
        pts = 0.5 * (simplex + np.roll(simplex, -1, axis=0))
        wts = np.full(3, 1.0 / 3.0)
    return pts, wts


def quadrature_mass(mesh_a, parents_a, mesh_b, parents_b, simplices, volumes):
    """Dense (n_a, n_b) matrix of integrals of phi_i^a phi_j^b, accumulated
    by quadrature over the given simplices.

    `parents_a[e]` is the cell of mesh_a containing simplex e, likewise for
    mesh_b; products of P1 hats are quadratic, so the degree-2 rule is exact.
    """
    out = np.zeros((mesh_a.n_vertices, mesh_b.n_vertices))
    for e in range(len(volumes)):
        pts, wts = _quad_rule(simplices[e])
        ca = mesh_a.cells[parents_a[e]]
        cb = mesh_b.cells[parents_b[e]]
        pa = barycentric(mesh_a.vertices[ca], pts)
        pb = barycentric(mesh_b.vertices[cb], pts)
        local = volumes[e] * (pa * wts) @ pb.T
        out[np.ix_(ca, cb)] += local
    return out


def mixed_mass(fine, coarse, sm):
    """Cross mass matrix of two P1 spaces from their common refinement."""
    return quadrature_mass(
        fine, sm.parent_a, coarse, sm.parent_b, sm.simplices, sm.volumes
    )


def basis_integrals_per_haar_cell(mesh, parents, sm):
    """Dense (n_vertices, n_haar) matrix of integrals of phi_i over each
    Haar cell, by quadrature over the supermesh cells it consists of."""
    n_haar = int(sm.parent_haar.max()) + 1
    out = np.zeros((mesh.n_vertices, n_haar))
    for e in range(len(sm)):
        pts, wts = _quad_rule(sm.simplices[e])
        cell = mesh.cells[parents[e]]
        phi = barycentric(mesh.vertices[cell], pts)
        out[cell, sm.parent_haar[e]] += sm.volumes[e] * (phi @ wts)
    return out


def sample_b_M_parts(mesh, parents, sm, haar, z_cells):
    """Per-Haar-cell partial pairings of white noise with the basis of
    `mesh`, from the supermesh-cell-local draws z_cells (n_cells, dim+1).

    Dense (n_vertices, n_haar); column k holds that cell's contribution to
    b_M. The local factors sqrt(vol) R chol(local mass) are recomputed one
    supermesh cell at a time, with `parents[e]` the cell of `mesh` that
    contains supermesh cell e.
    """
    d = sm.dim
    L = np.linalg.cholesky((np.ones((d + 1, d + 1)) + np.eye(d + 1)) / ((d + 1) * (d + 2)))
    zc = np.asarray(z_cells, dtype=float).reshape(len(sm), d + 1)
    P = np.zeros((mesh.n_vertices, haar.n_cells))
    for e in range(len(sm)):
        cell = mesh.cells[parents[e]]
        R = barycentric(mesh.vertices[cell], sm.simplices[e])
        P[cell, sm.parent_haar[e]] += np.sqrt(sm.volumes[e]) * (R @ L) @ zc[e]
    return P


def apply_correction(mesh, parents, sm, haar, b_M_parts):
    """Subtract, per Haar cell, the projection of the exact pairings onto
    the constant function.

    The cell averages w_k are the all-ones weighting of the partials divided
    by the cell volume. Returns (b_R, w).
    """
    w = b_M_parts.sum(axis=0) / haar.cell_volume
    I = basis_integrals_per_haar_cell(mesh, parents, sm)
    return b_M_parts.sum(axis=1) - I @ w, w


def normal_cdf(x):
    return 0.5 * erfc(-x / np.sqrt(2.0))


def normal_inverse(u):
    """Root-finding inverse of the normal CDF, elementwise.

    The upper tail is mapped to the lower one first (1 - u is exact in
    floating point for u >= 1/2), because erfc only carries full relative
    accuracy for negative arguments.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    out = np.empty_like(u)
    flat = out.ravel()
    for i, ui in enumerate(u.ravel()):
        target = 1.0 - ui if ui > 0.5 else ui
        root = brentq(
            lambda x: normal_cdf(x) - target, -9.0, 0.0, xtol=1e-14, rtol=8.9e-16
        )
        flat[i] = -root if ui > 0.5 else root
    return out if out.size > 1 else float(out[0])


def noise_covariances(tables, layout):
    """Propagate unit inputs through the sampling map.

    The map from (wavelet coefficients z, supermesh cell draws z_cells) to
    the pairings b is linear, so pushing basis vectors through it recovers
    the full matrix and hence the exact covariance of b without any
    sampling. Returns a list of lists: cov[i][j] is the covariance block
    between space i and space j (one space for two-way tables, fine and
    coarse for three-way).
    """
    from haarmc.whitenoise import apply_noise_maps

    td = layout.total_dim
    cb = tables.cell_block_size
    n_spaces = len(tables.spaces)

    zero_cells = np.zeros((td, tables.n_cells, tables.dim + 1))
    rows_z = apply_noise_maps(tables, layout, np.eye(td), zero_cells)
    eye_cells = np.eye(cb).reshape(cb, tables.n_cells, tables.dim + 1)
    rows_c = apply_noise_maps(tables, layout, np.zeros((cb, td)), eye_cells)

    cov = [[None] * n_spaces for _ in range(n_spaces)]
    for i in range(n_spaces):
        for j in range(n_spaces):
            cov[i][j] = rows_z[i].T @ rows_z[j] + rows_c[i].T @ rows_c[j]
    return cov


def sample_field_batch(ctx, seed: int, m: int, n0: int, n1: int, use_qmc: bool = False):
    """Matern fields on G for samples n0..n1-1 (rows) of replicate m, mean
    shift applied, drawn through the sampler's own input path chunk by
    chunk."""
    from haarmc.problem import _draw_inputs, _matern_batch

    chunks = _draw_inputs(ctx, seed, range(m, m + 1), n0, n1, use_qmc)
    return np.vstack([_matern_batch(ctx, z, zc)[0] for z, zc in chunks]) + ctx.params.mean_shift


# ------------------------------------------------------------- supermesh
# The one-polygon-at-a-time supermesh construction that the batched
# builders in haarmc.supermesh replaced: candidate-cell index arithmetic,
# sorted candidate sets from dict bins, and Sutherland-Hodgman clipping by
# Python loops. The batched builders must reproduce its cells, their order
# and their parents exactly.

SLIVER_REL_TOL = 1e-14  # dropped when volume < this multiple of the parent volume
VERTEX_DEDUP_TOL = 1e-12  # absolute merge tolerance for clipped polygon vertices


def _dedup_polygon(poly: np.ndarray) -> np.ndarray:
    """Drop consecutive vertices closer than the merge tolerance."""
    if len(poly) == 0:
        return poly
    keep = []
    for p in poly:
        if not keep or np.max(np.abs(p - keep[-1])) > VERTEX_DEDUP_TOL:
            keep.append(p)
    while len(keep) > 1 and np.max(np.abs(keep[0] - keep[-1])) <= VERTEX_DEDUP_TOL:
        keep.pop()
    return np.asarray(keep)


def _clip_halfplane(poly: np.ndarray, normal, offset: float) -> np.ndarray:
    """Sutherland-Hodgman step: keep the part of a convex CCW polygon with
    normal . x <= offset."""
    if len(poly) == 0:
        return poly
    n = np.asarray(normal, dtype=float)
    d = poly @ n - offset
    out = []
    k = len(poly)
    for i in range(k):
        j = (i + 1) % k
        pi, pj = poly[i], poly[j]
        di, dj = d[i], d[j]
        if di <= 0.0:
            out.append(pi)
        if (di < 0.0 < dj) or (dj < 0.0 < di):
            t = di / (di - dj)
            out.append(pi + t * (pj - pi))
    return _dedup_polygon(np.asarray(out)) if out else np.empty((0, 2))


def _polygon_area(poly: np.ndarray) -> float:
    if len(poly) < 3:
        return 0.0
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def clip_simplex_to_box_cell(simplex: np.ndarray, lo, hi) -> np.ndarray:
    """Intersect a simplex with the axis-aligned cell [lo, hi].

    Returns the vertices of the intersection: an interval (2, 1) in 1D or a
    CCW convex polygon (k, 2) in 2D; empty array when the overlap is void.
    """
    simplex = np.asarray(simplex, dtype=float)
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    dim = simplex.shape[1]
    if dim == 1:
        a = max(simplex[:, 0].min(), lo[0])
        b = min(simplex[:, 0].max(), hi[0])
        if b <= a:
            return np.empty((0, 1))
        return np.array([[a], [b]])
    poly = simplex
    poly = _clip_halfplane(poly, (-1.0, 0.0), -lo[0])
    poly = _clip_halfplane(poly, (1.0, 0.0), hi[0])
    poly = _clip_halfplane(poly, (0.0, -1.0), -lo[1])
    poly = _clip_halfplane(poly, (0.0, 1.0), hi[1])
    if len(poly) < 3:
        # a shared vertex or edge: measure zero, not an intersection cell
        return np.empty((0, 2))
    return poly


def _clip_to_simplex(poly: np.ndarray, simplex: np.ndarray) -> np.ndarray:
    """Clip a convex CCW polygon by the half-planes of a CCW simplex."""
    for i in range(3):
        p, q = simplex[i], simplex[(i + 1) % 3]
        e = q - p
        # inside (left of directed edge): cross(e, x - p) >= 0
        normal = np.array([e[1], -e[0]])
        poly = _clip_halfplane(poly, normal, float(normal @ p))
        if len(poly) == 0:
            break
    return poly


def triangulate_polygon(poly: np.ndarray) -> np.ndarray:
    """Fan triangulation of a convex CCW polygon, shape (k - 2, 3, 2)."""
    k = len(poly)
    if k < 3:
        return np.empty((0, 3, 2))
    tris = [(poly[0], poly[i], poly[i + 1]) for i in range(1, k - 1)]
    return np.asarray(tris)


def _haar_candidate_range(haar: HaarMesh, lo, hi):
    """Per-axis index ranges of Haar cells whose closure can meet [lo, hi]."""
    n = haar.cells_per_axis
    ranges = []
    for a in range(haar.dim):
        side = (haar.box.hi[a] - haar.box.lo[a]) / n
        i0 = int(np.floor((lo[a] - haar.box.lo[a]) / side - 1e-9))
        i1 = int(np.floor((hi[a] - haar.box.lo[a]) / side + 1e-9))
        ranges.append(range(max(0, i0), min(n - 1, i1) + 1))
    return ranges


def _haar_flat(haar: HaarMesh, idx) -> int:
    n = haar.cells_per_axis
    flat = idx[0]
    for a in range(1, haar.dim):
        flat = flat * n + idx[a]
    return flat


def _haar_bounds(haar: HaarMesh, idx):
    n = haar.cells_per_axis
    lo = [haar.box.lo[a] + idx[a] * (haar.box.hi[a] - haar.box.lo[a]) / n for a in range(haar.dim)]
    hi = [haar.box.lo[a] + (idx[a] + 1) * (haar.box.hi[a] - haar.box.lo[a]) / n for a in range(haar.dim)]
    return np.asarray(lo), np.asarray(hi)


class _Emitter:
    def __init__(self, dim):
        self.dim = dim
        self.simplices = []
        self.pa = []
        self.pb = []
        self.ph = []
        self.vols = []

    def add_piece(self, piece: np.ndarray, pa: int, pb: int, ph: int, ref_vol: float):
        """Triangulate one clipped region and emit its simplices."""
        if self.dim == 1:
            if len(piece) < 2:
                return
            vol = float(piece[1, 0] - piece[0, 0])
            if vol < SLIVER_REL_TOL * ref_vol:
                return
            self.simplices.append(piece)
            self.pa.append(pa)
            self.pb.append(pb)
            self.ph.append(ph)
            self.vols.append(vol)
            return
        for tri in triangulate_polygon(piece):
            vol = _polygon_area(tri)
            if vol < SLIVER_REL_TOL * ref_vol:
                continue
            self.simplices.append(tri)
            self.pa.append(pa)
            self.pb.append(pb)
            self.ph.append(ph)
            self.vols.append(vol)

    def finish(self, n_parents) -> Supermesh:
        n = len(self.simplices)
        shape = (n, self.dim + 1, self.dim)
        simplices = (
            np.asarray(self.simplices).reshape(shape) if n else np.empty(shape)
        )
        return Supermesh(
            self.dim,
            n_parents,
            simplices,
            np.asarray(self.pa, dtype=np.int64),
            np.asarray(self.pb, dtype=np.int64),
            np.asarray(self.ph, dtype=np.int64),
            np.asarray(self.vols, dtype=float),
        )


def _check_covers_box(mesh: SimplicialMesh, haar: HaarMesh) -> None:
    lo = mesh.vertices.min(axis=0)
    hi = mesh.vertices.max(axis=0)
    if np.max(np.abs(lo - haar.box.lo)) > 1e-10 or np.max(np.abs(hi - haar.box.hi)) > 1e-10:
        raise ValueError("mesh does not cover the Haar grid's box")


def build_supermesh(mesh: SimplicialMesh, haar: HaarMesh) -> Supermesh:
    """Common refinement of a simplicial mesh and a Haar grid.

    Output cells are sorted by (mesh cell, Haar cell); parent_b is -1.
    """
    if mesh.dim != haar.dim:
        raise ValueError("mesh and Haar grid dimensions differ")
    _check_covers_box(mesh, haar)
    em = _Emitter(mesh.dim)
    vols = cell_volumes(mesh)
    for ca in range(mesh.n_cells):
        simplex = mesh.vertices[mesh.cells[ca]]
        lo, hi = simplex.min(axis=0), simplex.max(axis=0)
        ranges = _haar_candidate_range(haar, lo, hi)
        for idx in _iter_ranges(ranges):
            blo, bhi = _haar_bounds(haar, idx)
            piece = clip_simplex_to_box_cell(simplex, blo, bhi)
            em.add_piece(piece, ca, -1, _haar_flat(haar, idx), vols[ca])
    return em.finish(2)


def _iter_ranges(ranges):
    if len(ranges) == 1:
        for i in ranges[0]:
            yield (i,)
    else:
        for i in ranges[0]:
            for j in ranges[1]:
                yield (i, j)


class _CellBins:
    """Uniform spatial binning of cell bounding boxes for candidate lookup."""

    def __init__(self, mesh: SimplicialMesh, bins_per_axis: int):
        self.lo = mesh.vertices.min(axis=0)
        self.hi = mesh.vertices.max(axis=0)
        self.n = max(1, bins_per_axis)
        self.side = (self.hi - self.lo) / self.n
        self.side[self.side == 0] = 1.0
        self.bins = {}
        for c in range(mesh.n_cells):
            pts = mesh.vertices[mesh.cells[c]]
            for key in self._keys(pts.min(axis=0), pts.max(axis=0)):
                self.bins.setdefault(key, []).append(c)

    def _keys(self, lo, hi):
        i0 = np.maximum(0, np.floor((lo - self.lo) / self.side - 1e-9).astype(int))
        i1 = np.minimum(
            self.n - 1, np.floor((hi - self.lo) / self.side + 1e-9).astype(int)
        )
        if len(self.lo) == 1:
            return [(i,) for i in range(i0[0], i1[0] + 1)]
        return [
            (i, j)
            for i in range(i0[0], i1[0] + 1)
            for j in range(i0[1], i1[1] + 1)
        ]

    def candidates(self, lo, hi):
        out = set()
        for key in self._keys(lo, hi):
            out.update(self.bins.get(key, ()))
        return sorted(out)


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
    em = _Emitter(fine.dim)
    fvols = cell_volumes(fine)
    bins = _CellBins(coarse, int(np.ceil(np.sqrt(coarse.n_cells) + 1)))
    for ca in range(fine.n_cells):
        fsimplex = fine.vertices[fine.cells[ca]]
        flo, fhi = fsimplex.min(axis=0), fsimplex.max(axis=0)
        for cb in bins.candidates(flo, fhi):
            csimplex = coarse.vertices[coarse.cells[cb]]
            if fine.dim == 1:
                a = max(flo[0], csimplex[:, 0].min())
                b = min(fhi[0], csimplex[:, 0].max())
                if b <= a:
                    continue
                inter = np.array([[a], [b]])
            else:
                inter = _clip_to_simplex(fsimplex, csimplex)
                if _polygon_area(inter) <= 0.0:
                    continue
            ilo, ihi = inter.min(axis=0), inter.max(axis=0)
            for idx in _iter_ranges(_haar_candidate_range(haar, ilo, ihi)):
                blo, bhi = _haar_bounds(haar, idx)
                if fine.dim == 1:
                    a2, b2 = max(ilo[0], blo[0]), min(ihi[0], bhi[0])
                    piece = (
                        np.array([[a2], [b2]]) if b2 > a2 else np.empty((0, 1))
                    )
                else:
                    piece = inter
                    piece = _clip_halfplane(piece, (-1.0, 0.0), -blo[0])
                    piece = _clip_halfplane(piece, (1.0, 0.0), bhi[0])
                    piece = _clip_halfplane(piece, (0.0, -1.0), -blo[1])
                    piece = _clip_halfplane(piece, (0.0, 1.0), bhi[1])
                em.add_piece(piece, ca, cb, _haar_flat(haar, idx), fvols[ca])
    return em.finish(3)
