"""Hybrid white-noise sampling.

The truncated Haar expansion of white noise is driven by a low-discrepancy
block plus pseudo-random coefficients; the truncation remainder is sampled
cell-wise on a supermesh so that the pairings with the finite element basis
have exactly the right joint covariance (the mass matrices), independent of
the truncation level.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .lowdisc import (
    DigitalShift,
    RandomStream,
    SobolGenerator,
    inverse_normal_cdf,
    normal_vector,
    safe_uniform,
    shifted_point,
    sobol_points,
)
from .mesh import HaarMesh, SimplicialMesh, cell_volumes
from .supermesh import Supermesh

__all__ = [
    "CouplingError",
    "HaarLayout",
    "WhiteNoiseDraw",
    "CellGeometryTables",
    "build_layout",
    "qmc_block_size",
    "haar_cell_values",
    "draw_hybrid_coefficients",
    "draw_mc_coefficients",
    "build_tables",
    "assemble_b_L",
    "sample_b_M",
    "apply_correction",
    "apply_noise_maps",
    "sample_white_noise",
]

COUPLING_TOL = 1e-10  # fine/coarse agreement of the cell averages


class CouplingError(RuntimeError):
    """Fine and coarse cell averages of one noise event disagree beyond
    COUPLING_TOL, so the two halves of a level pair are not coupled."""


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

    _transform: Optional[tuple] = field(default=None, repr=False)

    @property
    def total_dim(self) -> int:
        return self.levels.shape[0]

    def index_of(self, l, n) -> int:
        """Position of coefficient (l, n) in the flat ordering."""
        i = int(self.flat_indices(np.asarray(l), np.asarray(n)))
        if i < 0:
            raise KeyError((tuple(l), tuple(n)))
        return i

    def flat_indices(self, l: np.ndarray, n: np.ndarray) -> np.ndarray:
        """Positions of the coefficients (l[..., :], n[..., :]) in the flat
        ordering, -1 where there is no such coefficient."""
        key = self._key(l, n)
        at = np.minimum(np.searchsorted(self._sorted_keys, key), self.total_dim - 1)
        return np.where(self._sorted_keys[at] == key, self._key_order[at], -1)

    def _key(self, l, n) -> np.ndarray:
        # (l + 1, n) as digits: level digits in base L + 2, shift digits in
        # base 2^max(L, 0); out-of-range entries get a key no coefficient has
        l = np.asarray(l, dtype=np.int64)
        n = np.asarray(n, dtype=np.int64)
        lbase, nbase = self.level + 2, 1 << max(self.level, 0)
        key = np.zeros(l.shape[:-1], dtype=np.int64)
        ok = np.ones(l.shape[:-1], dtype=bool)
        for i in range(self.dim):
            key = (key * lbase + l[..., i] + 1) * nbase + n[..., i]
            ok &= (l[..., i] >= -1) & (l[..., i] < lbase - 1)
            ok &= (n[..., i] >= 0) & (n[..., i] < nbase)
        return np.where(ok, key, -1)

    def __post_init__(self):
        keys = self._key(self.levels, self.shifts)
        self._key_order = np.argsort(keys)
        self._sorted_keys = keys[self._key_order]

    def transform_tables(self):
        """Per-Haar-cell index and signed-scale tables for haar_cell_values.

        Shapes (n_haar_cells, (L+2)^dim); entry [k, j] selects the unique
        wavelet of the j-th level vector overlapping cell k.
        """
        # built on first use and published with one assignment, so threads
        # sharing the layout never see half of it
        if self._transform is None:
            self._transform = _build_transform(self)
        return self._transform


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


def _build_transform(layout: HaarLayout):
    d, L = layout.dim, layout.level
    nside = 1 << (L + 1)
    n_cells = nside**d
    lvecs = list(itertools.product(_level_range(L), repeat=d))
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
        idx[:, j] = layout.flat_indices(np.broadcast_to(lvec, nbar.shape), nbar)
        coef[:, j] = sign * scale
    return idx, coef


def haar_cell_values(layout: HaarLayout, haar: HaarMesh, z: np.ndarray) -> np.ndarray:
    """Evaluate the truncated expansion at all Haar cell midpoints.

    z has layout order; accepts a batch (B, total_dim). The result includes
    the affine Jacobian of the box, i.e. values are correct on general boxes.
    """
    if haar.dim != layout.dim or haar.level != layout.level:
        raise ValueError("layout does not match the Haar grid")
    z = np.asarray(z, dtype=np.float64)
    if z.shape[-1] != layout.total_dim:
        raise ValueError("coefficient vector has wrong length")
    idx, coef = layout.transform_tables()
    vals = (z[..., idx] * coef).sum(axis=-1)
    return vals / np.sqrt(haar.box.volume)


def draw_hybrid_coefficients(
    layout: HaarLayout,
    gen: SobolGenerator,
    shift: DigitalShift,
    n,
    stream_for=None,
) -> np.ndarray:
    """Wavelet coefficients of sample(s) n: the leading qmc_dim entries come
    from the shifted Sobol' point, the rest from the sample's own stream.

    `stream_for(n) -> RandomStream` supplies the pseudo-random part; the MC
    wavelet block is drawn first so the per-sample stream order is fixed.
    """
    ns = np.atleast_1d(np.asarray(n, dtype=np.int64))
    if gen.dim != layout.qmc_dim:
        raise ValueError("Sobol generator dimension must equal qmc_dim")
    pts = shifted_point(sobol_points(gen, ns), shift)
    z = np.empty((ns.shape[0], layout.total_dim))
    z[:, : layout.qmc_dim] = inverse_normal_cdf(safe_uniform(pts))
    n_mc = layout.total_dim - layout.qmc_dim
    for i, nn in enumerate(ns):
        z[i, layout.qmc_dim :] = (
            normal_vector(stream_for(int(nn)), n_mc) if n_mc else ()
        )
    return z if np.ndim(n) else z[0]


def draw_mc_coefficients(layout: HaarLayout, stream: RandomStream) -> np.ndarray:
    """All-pseudo-random coefficients (plain Monte Carlo mode); the nominal
    QMC block is drawn first from the same stream."""
    return normal_vector(stream, layout.total_dim)


@dataclass
class SpaceTables:
    """Per-function-space arrays over supermesh cells."""

    n_dofs: int
    dofs: np.ndarray  # (n_e, d+1) global dof per local parent basis function
    R: np.ndarray  # (n_e, d+1, d+1) basis values at supermesh cell nodes
    G: np.ndarray  # (n_e, d+1, d+1) R @ chol(local mass)
    int_loc: np.ndarray  # (n_e, d+1) per-cell integrals of the parent basis
    I_mat: sp.csr_matrix  # (n_dofs, n_haar) integrals over Haar cells


@dataclass
class CellGeometryTables:
    """Everything sample_white_noise needs, precomputed from one supermesh."""

    dim: int
    haar: HaarMesh
    haar_of_cell: np.ndarray  # (n_e,)
    colsum_L: np.ndarray  # (n_e, d+1): column sums of chol(local mass)
    volumes: np.ndarray  # (n_e,)
    spaces: list  # [fine] or [fine, coarse] SpaceTables

    @property
    def n_cells(self) -> int:
        return self.haar_of_cell.shape[0]

    @property
    def coupled(self) -> bool:
        return len(self.spaces) == 2

    @property
    def cell_block_size(self) -> int:
        return self.n_cells * (self.dim + 1)


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


def _space_tables(
    mesh: SimplicialMesh, parents: np.ndarray, sm: Supermesh, Lref: np.ndarray
) -> SpaceTables:
    n_e = len(sm)
    d = mesh.dim
    dofs = mesh.cells[parents]
    R = _barycentric_batch(mesh.vertices[dofs], sm.simplices)
    sqv = np.sqrt(sm.volumes)
    G = sqv[:, None, None] * (R @ Lref)
    int_loc = sm.volumes[:, None] * R.mean(axis=2)
    I_mat = sp.csr_matrix(
        (
            int_loc.ravel(),
            (
                dofs.ravel(),
                np.repeat(sm.parent_haar, d + 1),
            ),
        ),
        shape=(mesh.n_vertices, sm.parent_haar.max() + 1 if n_e else 1),
    )
    return SpaceTables(mesh.n_vertices, dofs, R, G, int_loc, I_mat)


def build_tables(
    fine: SimplicialMesh,
    haar: HaarMesh,
    sm: Supermesh,
    coarse: Optional[SimplicialMesh] = None,
) -> CellGeometryTables:
    """Precompute restriction matrices, local Cholesky factors and basis
    integrals for every supermesh cell.

    The supermesh must have been built against `haar` (and `coarse`, when
    coupling two spaces); I_mat columns are padded to the full Haar grid.
    """
    if (coarse is not None) != (sm.n_parents == 3):
        raise ValueError("supermesh parents do not match the requested spaces")
    d = fine.dim
    Lref = _reference_mass_chol(d)
    spaces = [_space_tables(fine, sm.parent_a, sm, Lref)]
    if coarse is not None:
        spaces.append(_space_tables(coarse, sm.parent_b, sm, Lref))
    for st in spaces:
        if st.I_mat.shape[1] < haar.n_cells:
            st.I_mat.resize((st.n_dofs, haar.n_cells))
    colsum = np.sqrt(sm.volumes)[:, None] * Lref.sum(axis=0)[None, :]
    return CellGeometryTables(d, haar, sm.parent_haar.copy(), colsum, sm.volumes.copy(), spaces)


def assemble_b_L(tables: CellGeometryTables, wbar: np.ndarray):
    """Pairings of the truncated expansion with each space's basis:
    (b_L)_i = sum_k wbar_k * integral of phi_i over Haar cell k."""
    return [st.I_mat @ np.asarray(wbar, dtype=float).T for st in tables.spaces]


def sample_b_M(tables: CellGeometryTables, z_cells: np.ndarray):
    """Exact pairings of white noise with every basis function, from the
    supermesh-cell-local draws z_cells (..., n_cells, dim+1).

    Returns (b per space, cell-average numerators per space); the latter are
    the sums over each Haar cell of the local pairings with the constant 1.
    """
    zc = np.asarray(z_cells, dtype=np.float64)
    batched = zc.ndim == 3
    if not batched:
        zc = zc[None]
    B = zc.shape[0]
    nh = tables.haar.n_cells
    bs, sums = [], []
    for st in tables.spaces:
        y = np.einsum("eij,bej->bei", st.G, zc)
        flat = (
            np.arange(B)[:, None, None] * st.n_dofs + st.dofs[None, :, :]
        ).ravel()
        b = np.bincount(flat, weights=y.ravel(), minlength=B * st.n_dofs)
        bs.append(b.reshape(B, st.n_dofs))
        ysum = y.sum(axis=2)
        flat_k = (np.arange(B)[:, None] * nh + tables.haar_of_cell[None, :]).ravel()
        S = np.bincount(flat_k, weights=ysum.ravel(), minlength=B * nh)
        sums.append(S.reshape(B, nh))
    if not batched:
        bs = [b[0] for b in bs]
        sums = [S[0] for S in sums]
    return bs, sums


def sample_b_M_parts(tables: CellGeometryTables, z_cells: np.ndarray):
    """Per-Haar-cell partial pairings, as one sparse (n_dofs x n_haar)
    matrix per space; column k holds that cell's contribution to b_M.
    Single draw only; the fast path in sample_b_M skips this bookkeeping.
    """
    zc = np.asarray(z_cells, dtype=np.float64).reshape(tables.n_cells, tables.dim + 1)
    d1 = tables.dim + 1
    parts = []
    for st in tables.spaces:
        y = np.einsum("eij,ej->ei", st.G, zc)
        P = sp.csr_matrix(
            (y.ravel(), (st.dofs.ravel(), np.repeat(tables.haar_of_cell, d1))),
            shape=(st.n_dofs, tables.haar.n_cells),
        )
        parts.append(P)
    return parts


def apply_correction(tables: CellGeometryTables, b_M_parts):
    """Subtract, per Haar cell, the projection of the exact pairings onto
    the constant function.

    b_M_parts holds one (n_dofs x n_haar) sparse matrix of cell-wise partial
    pairings per space. The cell averages w_k are the all-ones weighting of
    the partials divided by the cell volume, taken from the last (coarse)
    space and checked against the first. Returns (b_R per space, w).
    """
    w_per_space = [
        np.asarray(P.sum(axis=0)).ravel() / tables.haar.cell_volume
        for P in b_M_parts
    ]
    w = w_per_space[-1]
    if len(w_per_space) > 1:
        scale = max(1.0, float(np.max(np.abs(w))))
        if np.max(np.abs(w_per_space[0] - w)) > COUPLING_TOL * scale:
            raise CouplingError("fine and coarse cell averages disagree beyond tolerance")
    out = []
    for st, P in zip(tables.spaces, b_M_parts):
        out.append(np.asarray(P.sum(axis=1)).ravel() - st.I_mat @ w)
    return out, w


@dataclass
class WhiteNoiseDraw:
    """One realization of the pairings b; coarse entries are None for
    single-space tables."""

    b_fine: np.ndarray
    b_coarse: Optional[np.ndarray]
    wbar: np.ndarray
    w: np.ndarray


def apply_noise_maps(
    tables: CellGeometryTables,
    layout: HaarLayout,
    z: np.ndarray,
    z_cells: np.ndarray,
):
    """Deterministic core of the sampler: inputs to pairings.

    b = b_M + I^k (wbar_k - w_k) per Haar cell, where w_k are the cell
    averages computed from the coarse space (checked against the fine space)
    and wbar_k the truncated-expansion values. Linear in (z, z_cells), which
    is what the covariance tests exploit.
    """
    wbar = haar_cell_values(layout, tables.haar, z)
    bs, sums = sample_b_M(tables, z_cells)
    ref = sums[-1]
    if tables.coupled:
        scale = max(1.0, float(np.max(np.abs(ref))))
        if np.max(np.abs(sums[0] - sums[1])) > COUPLING_TOL * scale:
            raise CouplingError("fine and coarse cell averages disagree beyond tolerance")
    w = ref / tables.haar.cell_volume
    delta = wbar - w
    out = []
    for st, b in zip(tables.spaces, bs):
        corr = st.I_mat @ delta.T
        out.append(b + (corr.T if delta.ndim > 1 else corr))
    return out, wbar, w


def sample_white_noise(
    tables: CellGeometryTables,
    layout: HaarLayout,
    gen: Optional[SobolGenerator],
    shift: Optional[DigitalShift],
    n: int,
    stream_for,
) -> WhiteNoiseDraw:
    """Draw the hybrid pairings for sample index n.

    gen=None selects plain Monte Carlo for the whole wavelet block. The
    per-sample stream supplies, in order, the pseudo-random wavelet part and
    the supermesh cell block.
    """
    if gen is None:
        stream = stream_for(n)
        z = draw_mc_coefficients(layout, stream)
        z_cells = normal_vector(stream, tables.cell_block_size)
    else:
        stream = stream_for(n)
        z = np.empty(layout.total_dim)
        pt = shifted_point(sobol_points(gen, [n]), shift)[0]
        z[: layout.qmc_dim] = inverse_normal_cdf(safe_uniform(pt))
        n_mc = layout.total_dim - layout.qmc_dim
        if n_mc:
            z[layout.qmc_dim :] = normal_vector(stream, n_mc)
        z_cells = normal_vector(stream, tables.cell_block_size)
    z_cells = z_cells.reshape(tables.n_cells, tables.dim + 1)
    out, wbar, w = apply_noise_maps(tables, layout, z, z_cells)
    if tables.coupled:
        return WhiteNoiseDraw(out[0], out[1], wbar, w)
    return WhiteNoiseDraw(out[0], None, wbar, w)
