"""Boxes, simplicial meshes, Haar cell grids and the two-domain mesh hierarchy."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = [
    "Box",
    "SimplicialMesh",
    "HaarMesh",
    "MeshHierarchy",
    "build_uniform_mesh",
    "build_hierarchy",
    "cell_volumes",
    "vertex_injection_map",
    "is_nested",
    "write_mesh",
]

_COORD_TOL = 1e-12


@dataclass(frozen=True)
class Box:
    """Axis-aligned box [lo_1, hi_1] x ... x [lo_d, hi_d]."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise ValueError("lo and hi must have the same length")
        if any(h <= l for l, h in zip(self.lo, self.hi)):
            raise ValueError("box must have positive extent along every axis")
        object.__setattr__(self, "lo", tuple(float(x) for x in self.lo))
        object.__setattr__(self, "hi", tuple(float(x) for x in self.hi))

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def sides(self) -> np.ndarray:
        return np.asarray(self.hi) - np.asarray(self.lo)

    @property
    def volume(self) -> float:
        return float(np.prod(self.sides))

    def to_unit(self, points: np.ndarray) -> np.ndarray:
        """Affine map of physical points onto the unit box [0,1]^d."""
        p = np.atleast_2d(np.asarray(points, dtype=float))
        return (p - np.asarray(self.lo)) / self.sides

    def from_unit(self, points: np.ndarray) -> np.ndarray:
        p = np.atleast_2d(np.asarray(points, dtype=float))
        return p * self.sides + np.asarray(self.lo)

    def contains(self, points: np.ndarray, tol: float = _COORD_TOL) -> np.ndarray:
        p = np.atleast_2d(np.asarray(points, dtype=float))
        lo = np.asarray(self.lo) - tol
        hi = np.asarray(self.hi) + tol
        return np.all((p >= lo) & (p <= hi), axis=1)


@dataclass
class SimplicialMesh:
    """Conforming simplicial mesh: intervals in 1D, triangles in 2D.

    Cells are stored with canonical orientation (ascending endpoints in 1D,
    counter-clockwise vertex order in 2D) so signed volumes are positive.
    """

    dim: int
    vertices: np.ndarray  # (n_vertices, dim)
    cells: np.ndarray  # (n_cells, dim + 1) int
    boundary_vertices: np.ndarray  # sorted int indices

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float)
        self.cells = np.asarray(self.cells, dtype=np.int64)
        self.boundary_vertices = np.asarray(self.boundary_vertices, dtype=np.int64)
        if self.dim not in (1, 2):
            raise ValueError("only dimensions 1 and 2 are supported")
        if self.vertices.ndim != 2 or self.vertices.shape[1] != self.dim:
            raise ValueError("vertices must have shape (n, dim)")
        if self.cells.ndim != 2 or self.cells.shape[1] != self.dim + 1:
            raise ValueError("cells must have shape (n, dim + 1)")
        self._orient()

    def _orient(self):
        V, C = self.vertices, self.cells
        if self.dim == 1:
            flip = V[C[:, 0], 0] > V[C[:, 1], 0]
            C[flip] = C[flip][:, ::-1]
        else:
            a, b, c = V[C[:, 0]], V[C[:, 1]], V[C[:, 2]]
            two_area = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (
                b[:, 1] - a[:, 1]
            ) * (c[:, 0] - a[:, 0])
            if np.any(np.abs(two_area) <= 0.0):
                raise ValueError("degenerate cell in mesh")
            flip = two_area < 0
            C[flip] = C[flip][:, [0, 2, 1]]

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_cells(self) -> int:
        return self.cells.shape[0]

    @property
    def interior_vertices(self) -> np.ndarray:
        mask = np.ones(self.n_vertices, dtype=bool)
        mask[self.boundary_vertices] = False
        return np.nonzero(mask)[0]

    def mesh_size(self) -> float:
        """Longest edge over all cells."""
        V, C = self.vertices, self.cells
        h = 0.0
        for i in range(self.dim + 1):
            for j in range(i + 1, self.dim + 1):
                e = V[C[:, i]] - V[C[:, j]]
                h = max(h, float(np.sqrt((e * e).sum(axis=1)).max()))
        return h


def cell_volumes(mesh: SimplicialMesh) -> np.ndarray:
    V, C = mesh.vertices, mesh.cells
    if mesh.dim == 1:
        return V[C[:, 1], 0] - V[C[:, 0], 0]
    a, b, c = V[C[:, 0]], V[C[:, 1]], V[C[:, 2]]
    return 0.5 * (
        (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
        - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])
    )


def build_uniform_mesh(
    box: Box, dim: int, n_per_axis: int, diagonal: str = "right"
) -> SimplicialMesh:
    """Uniform mesh of `box` with n_per_axis cells per axis.

    In 2D every grid square is split into two triangles along the chosen
    diagonal: "right" runs lower-left to upper-right, "left" the other way.
    """
    if dim != box.dim:
        raise ValueError("dim does not match box dimension")
    if n_per_axis < 1:
        raise ValueError("n_per_axis must be >= 1")
    if diagonal not in ("left", "right"):
        raise ValueError("diagonal must be 'left' or 'right'")
    n = n_per_axis
    if dim == 1:
        x = np.linspace(box.lo[0], box.hi[0], n + 1)
        vertices = x[:, None]
        cells = np.column_stack([np.arange(n), np.arange(1, n + 1)])
        boundary = np.array([0, n])
        return SimplicialMesh(1, vertices, cells, boundary)

    x = np.linspace(box.lo[0], box.hi[0], n + 1)
    y = np.linspace(box.lo[1], box.hi[1], n + 1)
    X, Y = np.meshgrid(x, y, indexing="ij")
    vertices = np.column_stack([X.ravel(), Y.ravel()])

    # square (i, j) in row-major order, corners a=(i,j) b=(i+1,j) c=(i+1,j+1)
    # d=(i,j+1); two triangles per square, in that order
    a = (np.arange(n)[:, None] * (n + 1) + np.arange(n)[None, :]).ravel()
    b, c, d = a + (n + 1), a + (n + 2), a + 1
    if diagonal == "right":
        tris = (a, b, c), (a, c, d)
    else:
        tris = (a, b, d), (b, c, d)
    cells = np.stack([np.stack(t, axis=1) for t in tris], axis=1).reshape(-1, 3)
    ii, jj = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
    on_bd = (ii == 0) | (ii == n) | (jj == 0) | (jj == n)
    boundary = np.nonzero(on_bd.ravel())[0]
    return SimplicialMesh(2, vertices, cells, boundary)


@dataclass(frozen=True)
class HaarMesh:
    """Uniform dyadic grid of 2^(d(level+1)) cells covering `box`.

    level = -1 is the single-cell grid. Cells are indexed in C order over the
    per-axis indices (last axis fastest).
    """

    level: int
    dim: int
    box: Box

    def __post_init__(self):
        if self.level < -1:
            raise ValueError("Haar level must be >= -1")
        if self.dim != self.box.dim:
            raise ValueError("dim does not match box dimension")

    @property
    def cells_per_axis(self) -> int:
        return 1 << (self.level + 1)

    @property
    def n_cells(self) -> int:
        return self.cells_per_axis**self.dim

    @property
    def cell_volume(self) -> float:
        return self.box.volume / self.n_cells

    def axis_breaks(self, axis: int) -> np.ndarray:
        return np.linspace(self.box.lo[axis], self.box.hi[axis], self.cells_per_axis + 1)


def _match_rows(keys: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Index of a row of `table` equal to each row of `keys`, -1 where none.

    One lexsort over both arrays puts equal rows next to each other, table
    rows first; the last table row of each run of equal rows is its match.
    """
    rows = np.concatenate([table, keys])
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    new_run = np.ones(len(rows), dtype=bool)
    new_run[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    run = np.cumsum(new_run) - 1
    from_table = order < len(table)
    last = from_table.copy()
    last[:-1] &= ~(from_table[1:] & ~new_run[1:])
    match = np.full(len(rows), -1, dtype=np.int64)
    match[run[last]] = order[last]
    out = np.empty(len(rows), dtype=np.int64)
    out[order] = match[run]
    return out[len(table) :]


def vertex_injection_map(
    sub: SimplicialMesh, sup: SimplicialMesh, tol: float = _COORD_TOL
) -> np.ndarray:
    """Index map m with sup.vertices[m[i]] == sub.vertices[i] up to tol.

    Vertices match when their coordinates rounded to -log10(tol) decimals
    agree. Raises ValueError if some vertex of `sub` has no match in `sup`.
    """
    decimals = max(0, int(-np.log10(tol)))
    # adding 0.0 turns -0.0 into 0.0, which compares equal to it anyway
    out = _match_rows(
        np.round(sub.vertices, decimals) + 0.0, np.round(sup.vertices, decimals) + 0.0
    )
    missing = np.nonzero(out < 0)[0]
    if missing.size:
        raise ValueError(f"vertex {sub.vertices[missing[0]]} has no counterpart")
    return out


def is_nested(
    sub: SimplicialMesh,
    sup: SimplicialMesh,
    tol: float = _COORD_TOL,
    vmap: Optional[np.ndarray] = None,
) -> bool:
    """True when every cell of `sub` coincides with a cell of `sup`.

    This is the strict notion used for the inner/outer pair of the test
    problem, where the two meshes share spacing and diagonal direction over
    the inner domain; transfer between them is then an exact injection.
    `vmap`, the vertex_injection_map of the pair when the caller has it,
    is not computed again.
    """
    if vmap is None:
        try:
            vmap = vertex_injection_map(sub, sup, tol)
        except ValueError:
            return False
    cells = np.sort(vmap[sub.cells], axis=1)
    return bool(np.all(_match_rows(cells, np.sort(sup.cells, axis=1)) >= 0))


@dataclass
class MeshHierarchy:
    """Per-level triple (inner mesh on G, outer mesh on D, Haar grid on D)."""

    g_box: Box
    d_box: Box
    levels: list  # entries (g_mesh, d_mesh, haar)
    level_indices: list  # the integer level of each entry
    injections: list = field(default_factory=list)  # G vertex -> D vertex maps

    def __post_init__(self):
        if not self.injections:
            self.injections = [
                vertex_injection_map(g, d) for g, d, _ in self.levels
            ]
        for (g, d, _), inj in zip(self.levels, self.injections):
            if not is_nested(g, d, vmap=inj):
                raise ValueError("inner mesh is not nested in the outer mesh")
        haar_levels = [h.level for _, _, h in self.levels]
        if any(b < a for a, b in zip(haar_levels, haar_levels[1:])):
            raise ValueError("Haar levels must be non-decreasing across the hierarchy")

    @property
    def n_levels(self) -> int:
        return len(self.levels)


def hierarchy_diagonal(level: int) -> str:
    # Alternate per level so consecutive outer meshes are never nested in one
    # another while each inner mesh still matches its own outer mesh.
    return "right" if level % 2 == 1 else "left"


def build_hierarchy(
    g_box: Box,
    d_box: Box,
    dim: int,
    level_indices: list,
    haar_levels: list,
) -> MeshHierarchy:
    """Uniform hierarchy: level ell has 2^ell cells/axis on G and 2^(ell+1)
    on D, matching spacings so G is nested in D; the split diagonal
    alternates between consecutive levels."""
    if len(level_indices) != len(haar_levels):
        raise ValueError("level_indices and haar_levels must align")
    if any(ell < 1 for ell in level_indices):
        raise ValueError("hierarchy levels start at 1")
    levels = []
    for ell, lcal in zip(level_indices, haar_levels):
        diag = hierarchy_diagonal(ell)
        g = build_uniform_mesh(g_box, dim, 2**ell, diagonal=diag)
        d = build_uniform_mesh(d_box, dim, 2 ** (ell + 1), diagonal=diag)
        levels.append((g, d, HaarMesh(lcal, dim, d_box)))
    return MeshHierarchy(g_box, d_box, levels, list(level_indices))


def write_mesh(mesh: SimplicialMesh, path) -> None:
    """Plain-text dump: header `dim n_vertices n_cells`, vertex lines, cell lines."""
    with open(path, "w") as f:
        f.write(f"{mesh.dim} {mesh.n_vertices} {mesh.n_cells}\n")
        for v in mesh.vertices:
            f.write(" ".join(repr(float(x)) for x in v) + "\n")
        for c in mesh.cells:
            f.write(" ".join(str(int(i)) for i in c) + "\n")
