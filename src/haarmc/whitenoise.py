"""Hybrid white-noise sampling as one sparse linear operator per level.

The truncated Haar expansion of white noise is driven by a low-discrepancy
block plus pseudo-random coefficients z; the truncation remainder is
sampled cell-wise on a supermesh from draws z_cells, so that the pairings
with the finite element basis have exactly the right joint covariance (the
mass matrices), independent of the truncation level. For each space s the
pairings are the hybrid identity b = b_M + I (wbar - w) in factored form,

    b_s = I_s (H z - S z_cells) + G_s z_cells,

with H the Haar transform to Haar-cell values wbar, S the cell-average map
giving w, G_s the supermesh-local factors giving b_M, and I_s the basis
integrals over Haar cells. A layout builds its H once; `build_tables`
builds S, G_s and I_s once per level and checks the fine/coarse coupling
there, instead of on every sample.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .mesh import HaarMesh, SimplicialMesh
from .sparse import SparseOperator
from .supermesh import Supermesh

__all__ = [
    "CouplingError",
    "HaarLayout",
    "CellGeometryTables",
    "build_layout",
    "qmc_block_size",
    "build_tables",
    "apply_noise_maps",
]

COUPLING_TOL = 1e-10  # fine/coarse agreement of the cell averages


class CouplingError(RuntimeError):
    """A space's local factors do not reproduce the shared cell-average map
    beyond COUPLING_TOL, so the fine and coarse halves of a level pair would
    not see the same cell averages and would not be coupled.

    build_tables checks this once per space when it builds a level's
    operator; the check is linear, so it covers every sample."""


def qmc_block_size(dim: int, level: int, total: int) -> int:
    """Number of leading coefficients driven by the low-discrepancy sequence."""
    if dim == 1 or level <= 0:
        return total
    if dim == 2:
        return (1 << (level - 1)) * (level + 3)
    raise ValueError("only dimensions 1 and 2 are supported")


@dataclass
class HaarLayout:
    """Flat ordering of the wavelet coefficients for levels |l| <= L.

    Coefficients are sorted by shells of sum_i(l_i + 1), ties broken by
    sum_i max(l_i, 0) and then lexicographically in (l, n); the first
    qmc_dim of them form the low-discrepancy block.
    """

    dim: int
    level: int
    levels: np.ndarray  # (total_dim, dim) level vector per coefficient
    shifts: np.ndarray  # (total_dim, dim) shift vector per coefficient
    qmc_dim: int
    # (n_haar_cells, total_dim) Haar transform on the unit box: row k holds,
    # per level vector, the signed scale of the one wavelet overlapping cell k
    H: SparseOperator = field(init=False, repr=False)

    @property
    def total_dim(self) -> int:
        return self.levels.shape[0]

    def __post_init__(self):
        self.H = _haar_transform(self)


def _level_range(level: int):
    return range(-1, level + 1)


def build_layout(dim: int, level: int) -> HaarLayout:
    if dim not in (1, 2):
        raise ValueError("only dimensions 1 and 2 are supported")
    if level < -1:
        raise ValueError("Haar level must be >= -1")
    entries = []
    for lvec in itertools.product(_level_range(level), repeat=dim):
        shifts_per_axis = [range(1 << max(li, 0)) for li in lvec]
        t = sum(li + 1 for li in lvec)
        s = sum(max(li, 0) for li in lvec)
        for nvec in itertools.product(*shifts_per_axis):
            entries.append((t, s, lvec, nvec))
    entries.sort()
    levels = np.array([e[2] for e in entries], dtype=np.int64)
    shifts = np.array([e[3] for e in entries], dtype=np.int64)
    qmc = qmc_block_size(dim, level, len(entries))
    return HaarLayout(dim, level, levels, shifts, qmc)


def _haar_transform(layout: HaarLayout) -> SparseOperator:
    d, L = layout.dim, layout.level
    nside = 1 << (L + 1)
    n_cells = nside**d
    lvecs = list(itertools.product(_level_range(L), repeat=d))
    # one level vector's coefficients are contiguous, in C order of shifts
    starts = np.flatnonzero(
        np.r_[True, np.any(layout.levels[1:] != layout.levels[:-1], axis=1)]
    )
    first_index = {tuple(layout.levels[i].tolist()): i for i in starts}
    idx = np.empty((n_cells, len(lvecs)), dtype=np.int64)
    coef = np.empty((n_cells, len(lvecs)), dtype=np.float64)
    # unit-box midpoints in the flat cell order (first axis most significant)
    grids = np.indices((nside,) * d).reshape(d, -1).T
    mids = (grids + 0.5) / nside
    for j, lvec in enumerate(lvecs):
        scale = 2.0 ** (0.5 * sum(max(li, 0) for li in lvec))
        nbar = np.floor(mids * (2.0 ** np.array(lvec))).astype(np.int64)
        half = np.floor(mids * (2.0 ** (np.array(lvec) + 1))).astype(np.int64)
        sign = np.prod(1 - 2 * (half % 2), axis=1)
        shape = tuple(1 << max(li, 0) for li in lvec)
        idx[:, j] = first_index[lvec] + np.ravel_multi_index(nbar.T, shape)
        coef[:, j] = sign * scale
    rows = np.repeat(np.arange(n_cells), len(lvecs))
    return SparseOperator(rows, idx, coef, (n_cells, layout.total_dim))


@dataclass
class SpaceTables:
    """One function space's part of a level's noise operator."""

    I_mat: SparseOperator  # (n_dofs, n_haar) integrals over Haar cells
    G_map: SparseOperator  # (n_dofs, n_cells * (d+1)) local factors on the dofs


@dataclass
class CellGeometryTables:
    """The noise operator of one level, built from one supermesh."""

    dim: int
    haar: HaarMesh
    S: SparseOperator  # (n_haar, n_cells * (d+1)) cell averages, all spaces
    spaces: list  # [fine] or [fine, coarse] SpaceTables

    @property
    def n_cells(self) -> int:
        return self.cell_block_size // (self.dim + 1)

    @property
    def cell_block_size(self) -> int:
        return self.S.shape[1]


def _reference_mass_chol(d: int) -> np.ndarray:
    W = (np.ones((d + 1, d + 1)) + np.eye(d + 1)) / ((d + 1) * (d + 2))
    return np.linalg.cholesky(W)


def _barycentric_batch(parents: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Barycentric coordinates, batched over cells.

    parents (n_e, d+1, d) simplices, points (n_e, m, d); returns
    (n_e, d+1, m) with rows indexed by the parent's local basis.
    """
    T = np.swapaxes(parents[:, 1:, :] - parents[:, :1, :], 1, 2)  # (n_e, d, d)
    rhs = np.swapaxes(points - parents[:, :1, :], 1, 2)  # (n_e, d, m)
    lam = np.linalg.solve(T, rhs)  # (n_e, d, m)
    lam0 = 1.0 - lam.sum(axis=1, keepdims=True)
    return np.concatenate([lam0, lam], axis=1)


def _local_factors(
    mesh: SimplicialMesh, parents: np.ndarray, sm: Supermesh, Lref: np.ndarray
):
    """Per supermesh cell: the global dofs (n_e, d+1) of the parent's local
    basis, its values R (n_e, d+1, d+1) at the cell's nodes, and the local
    factors G = sqrt(volume) R chol(local mass), one column per cell draw."""
    dofs = mesh.cells[parents]
    R = _barycentric_batch(mesh.vertices[dofs], sm.simplices)
    G = np.sqrt(sm.volumes)[:, None, None] * (R @ Lref)
    return dofs, R, G


def _space_tables(
    mesh: SimplicialMesh,
    parents: np.ndarray,
    sm: Supermesh,
    haar: HaarMesh,
    Lref: np.ndarray,
    colsum: np.ndarray,
) -> SpaceTables:
    dofs, R, G = _local_factors(mesh, parents, sm, Lref)
    # Barycentric coordinates sum to 1, so G's column sums are colsum, the
    # map S both spaces share; a space that misses it is not coupled.
    scale = max(1.0, float(np.max(np.abs(colsum), initial=0.0)))
    err = float(np.max(np.abs(G.sum(axis=1) - colsum), initial=0.0))
    if err > COUPLING_TOL * scale:
        raise CouplingError(
            f"local factors miss the shared cell-average map by {err:.3g}"
        )
    n_e, d1 = dofs.shape
    # G[e, i, k]: dof i of cell e, draw k of cell e
    G_map = SparseOperator(
        np.broadcast_to(dofs[:, :, None], G.shape),
        np.broadcast_to(np.arange(n_e * d1).reshape(n_e, 1, d1), G.shape),
        G,
        (mesh.n_vertices, n_e * d1),
    )
    int_loc = sm.volumes[:, None] * R.mean(axis=2)
    I_mat = SparseOperator(
        dofs, np.repeat(sm.parent_haar, d1), int_loc, (mesh.n_vertices, haar.n_cells)
    )
    return SpaceTables(I_mat, G_map)


def build_tables(
    fine: SimplicialMesh,
    haar: HaarMesh,
    sm: Supermesh,
    coarse: Optional[SimplicialMesh] = None,
) -> CellGeometryTables:
    """Build a level's noise operator from its supermesh: the shared
    cell-average map S and each space's I_s and G_s.

    The supermesh must have been built against `haar` (and `coarse`, when
    coupling two spaces). Raises CouplingError when a space's local factors
    do not reproduce S.
    """
    if (coarse is not None) != (sm.n_parents == 3):
        raise ValueError("supermesh parents do not match the requested spaces")
    d = fine.dim
    Lref = _reference_mass_chol(d)
    colsum = np.sqrt(sm.volumes)[:, None] * Lref.sum(axis=0)[None, :]
    S = SparseOperator(
        np.repeat(sm.parent_haar, d + 1),
        np.arange(colsum.size),
        colsum / haar.cell_volume,
        (haar.n_cells, colsum.size),
    )
    spaces = [_space_tables(fine, sm.parent_a, sm, haar, Lref, colsum)]
    if coarse is not None:
        spaces.append(_space_tables(coarse, sm.parent_b, sm, haar, Lref, colsum))
    return CellGeometryTables(d, haar, S, spaces)


def apply_noise_maps(
    tables: CellGeometryTables,
    layout: HaarLayout,
    z: np.ndarray,
    z_cells: np.ndarray,
):
    """Deterministic core of the sampler: inputs to pairings.

    z holds wavelet coefficients in layout order, (total_dim,) or a batch
    (B, total_dim); z_cells the matching supermesh cell draws,
    (n_cells, dim+1) or (B, n_cells, dim+1). Returns the pairings of each
    space, (n_dofs,) or (B, n_dofs). Linear in (z, z_cells), which is what
    the covariance tests exploit.
    """
    haar = tables.haar
    if haar.dim != layout.dim or haar.level != layout.level:
        raise ValueError("layout does not match the Haar grid")
    z = np.asarray(z, dtype=np.float64)
    if z.shape[-1] != layout.total_dim:
        raise ValueError("coefficient vector has wrong length")
    # one sample per column, copied once for all the products
    Z = np.ascontiguousarray(z.reshape(-1, layout.total_dim).T)
    ZC = np.asarray(z_cells, dtype=np.float64).reshape(Z.shape[1], -1)
    ZC = np.ascontiguousarray(ZC.T)
    delta = (layout.H @ Z) / np.sqrt(haar.box.volume)
    delta -= tables.S @ ZC
    out = []
    for st in tables.spaces:
        b = st.I_mat @ delta
        b += st.G_map @ ZC
        out.append(b.T if z.ndim > 1 else b[:, 0])
    return out
