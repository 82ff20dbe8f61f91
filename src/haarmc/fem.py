"""P1 finite elements: assembly, Dirichlet solves, and the Matern field law.

Matrices are assembled over all vertices; homogeneous Dirichlet conditions
are applied by restricting to interior rows and columns, which keeps the
systems symmetric positive definite. Every system, in 1D and 2D, is solved
by one banded Cholesky factorisation (LAPACK pbtrf/pbtrs) in reverse
Cuthill-McKee order, and every solve checks its residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpbtrf, dpbtrs
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.special import gamma as _gamma

from .mesh import SimplicialMesh, cell_volumes

__all__ = [
    "MaternParams",
    "ConvergenceError",
    "assemble_mass",
    "assemble_stiffness",
    "assemble_helmholtz",
    "assemble_lognormal_diffusion",
    "assemble_load",
    "restrict_interior",
    "embed_interior",
    "factorized_spd",
    "solve_spd",
    "DiffusionSolver",
    "matern_field_from_noise",
    "cell_midpoint_values",
]

RESIDUAL_RTOL = 1e-10


class ConvergenceError(RuntimeError):
    """A linear solve left a relative residual above RESIDUAL_RTOL."""


@dataclass(frozen=True)
class MaternParams:
    """Parameters of the stationary Matern field driven by white noise.

    `eta` scales the noise so that the solution field has pointwise
    variance sigma^2; `mean_shift` is added when forming the log-normal
    coefficient, not to the Gaussian field itself.
    """

    sigma: float
    lam: float
    dim: int
    nu: float
    kappa: float
    eta: float
    mean_shift: float = 0.0

    @classmethod
    def create(
        cls, dim: int, sigma: float, lam: float, mean_shift: float = 0.0
    ) -> "MaternParams":
        """One application of the Helmholtz operator; nu = 2 - dim/2."""
        if dim not in (1, 2):
            raise ValueError("only dimensions 1 and 2 are supported")
        if sigma <= 0 or lam <= 0:
            raise ValueError("sigma and lam must be positive")
        nu = 2.0 - dim / 2.0
        kappa = math.sqrt(8.0 * nu) / lam
        eta = (
            sigma
            * kappa ** (-dim / 2.0)
            * (4.0 * math.pi) ** (dim / 4.0)
            * math.sqrt(_gamma(nu + dim / 2.0) / _gamma(nu))
        )
        return cls(sigma, lam, dim, nu, kappa, eta, mean_shift)

    @classmethod
    def lognormal_matched(
        cls, dim: int, lam: float, mean: float = 1.0, variance: float = 0.2
    ) -> "MaternParams":
        """Choose sigma and mean_shift so exp(field + shift) has the given
        first two moments."""
        s2 = math.log(1.0 + variance / mean**2)
        shift = math.log(mean) - 0.5 * s2
        base = cls.create(dim, math.sqrt(s2), lam)
        return cls(base.sigma, lam, dim, base.nu, base.kappa, base.eta, shift)


def _local_arrays(mesh: SimplicialMesh):
    d = mesh.dim
    V = mesh.vertices[mesh.cells]  # (n_cells, d+1, d)
    vols = cell_volumes(mesh)
    if d == 1:
        e = V[:, 1, 0] - V[:, 0, 0]
        grads = np.stack([-1.0 / e, 1.0 / e], axis=1)[:, :, None]
    else:
        # grad of barycentric i: rotated opposite edge / (2 * area)
        e0 = V[:, 2] - V[:, 1]
        e1 = V[:, 0] - V[:, 2]
        e2 = V[:, 1] - V[:, 0]
        rot = lambda a: np.stack([-a[:, 1], a[:, 0]], axis=1)
        det = 2.0 * vols
        grads = np.stack([rot(e0), rot(e1), rot(e2)], axis=1) / det[:, None, None]
    return vols, grads


def _scatter(mesh: SimplicialMesh, local: np.ndarray) -> sp.csr_matrix:
    d1 = mesh.dim + 1
    rows = np.repeat(mesh.cells, d1, axis=1).ravel()
    cols = np.tile(mesh.cells, (1, d1)).ravel()
    A = sp.coo_matrix(
        (local.ravel(), (rows, cols)), shape=(mesh.n_vertices, mesh.n_vertices)
    )
    return A.tocsr()


def _reference_mass(d: int) -> np.ndarray:
    """Local mass matrix of the reference simplex, per unit volume."""
    return (np.ones((d + 1, d + 1)) + np.eye(d + 1)) / ((d + 1) * (d + 2))


def assemble_mass(mesh: SimplicialMesh) -> sp.csr_matrix:
    vols = cell_volumes(mesh)
    return _scatter(mesh, vols[:, None, None] * _reference_mass(mesh.dim)[None])


def assemble_stiffness(
    mesh: SimplicialMesh, coeff: Optional[np.ndarray] = None
) -> sp.csr_matrix:
    """Stiffness matrix, optionally weighted by piecewise-constant cell
    values `coeff`."""
    vols, grads = _local_arrays(mesh)
    w = vols if coeff is None else vols * np.asarray(coeff, dtype=float)
    local = w[:, None, None] * np.einsum("cik,cjk->cij", grads, grads)
    return _scatter(mesh, local)


def assemble_helmholtz(mesh: SimplicialMesh, kappa: float) -> sp.csr_matrix:
    """Mass plus kappa^{-2} stiffness, restricted to interior dofs (the
    homogeneous Dirichlet rows and columns are eliminated symmetrically)."""
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    full = assemble_mass(mesh) + assemble_stiffness(mesh) / kappa**2
    return restrict_interior(full, mesh)


def assemble_lognormal_diffusion(mesh: SimplicialMesh, u: np.ndarray) -> sp.csr_matrix:
    """Interior stiffness matrix with coefficient exp(u) evaluated at cell
    midpoints (one-point quadrature)."""
    coeff = np.exp(cell_midpoint_values(mesh, u))
    if not np.all(np.isfinite(coeff)):
        raise ValueError("diffusion coefficient is not finite")
    return restrict_interior(assemble_stiffness(mesh, coeff), mesh)


def assemble_load(mesh: SimplicialMesh, value: float = 1.0) -> np.ndarray:
    """Load vector of the constant source `value`."""
    d = mesh.dim
    vols = cell_volumes(mesh)
    out = np.zeros(mesh.n_vertices)
    np.add.at(out, mesh.cells.ravel(), np.repeat(vols * value / (d + 1), d + 1))
    return out


def restrict_interior(A: sp.spmatrix, mesh: SimplicialMesh) -> sp.csr_matrix:
    idx = mesh.interior_vertices
    return A.tocsr()[idx][:, idx]


def embed_interior(x: np.ndarray, mesh: SimplicialMesh) -> np.ndarray:
    """Pad an interior vector with homogeneous boundary values."""
    x = np.asarray(x)
    out = np.zeros(x.shape[:-1] + (mesh.n_vertices,))
    out[..., mesh.interior_vertices] = x
    return out


class _BandCholesky:
    """Cholesky factorisations of SPD matrices with one symmetric sparsity
    pattern (`indptr`, `indices`, n).

    The unknowns are ordered by reverse Cuthill-McKee, which gives band
    width 1 on any 1D numbering, and the upper triangle is stored in LAPACK
    band layout: each upper entry of the pattern keeps its flat index into
    an (n, w + 1) C-order buffer, whose transpose is the Fortran-contiguous
    `ab[w + i - j, j]`. Nothing is mutated after construction, so threads
    may share one instance.
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, n: int):
        pattern = sp.csr_matrix((np.ones(indices.size), indices, indptr), shape=(n, n))
        self.order = reverse_cuthill_mckee(pattern, symmetric_mode=True)
        rank = np.empty(n, dtype=np.int64)
        rank[self.order] = np.arange(n)
        i = rank[np.repeat(np.arange(n), np.diff(indptr))]
        j = rank[indices]
        self.w = int(np.max(np.abs(i - j), initial=0))
        self.up = np.flatnonzero(i <= j)
        self.flat = j[self.up] * (self.w + 1) + self.w + i[self.up] - j[self.up]
        self.n = n

    def factor(self, data: np.ndarray) -> np.ndarray:
        """Band Cholesky factor of the B matrices with this pattern whose
        data are the rows of `data` (B, nnz), or of the one matrix of a
        1-D `data`.

        The matrices are the diagonal blocks of one matrix of order B * n:
        the blocks do not couple, so its band has the same width and one
        LAPACK call factors them all. Raises np.linalg.LinAlgError if any
        of them is not positive definite.
        """
        data = np.atleast_2d(data)
        ab = np.zeros((len(data), self.n * (self.w + 1)))
        ab[:, self.flat] = data[:, self.up]
        c, info = dpbtrf(ab.reshape(-1, self.w + 1).T, lower=0, overwrite_ab=1)
        if info != 0:
            raise np.linalg.LinAlgError("matrix is not positive definite")
        return c

    def solve(self, c: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Solve with a factor from `factor`; b holds the B blocks' right-hand
        sides one after another, as a vector or as matrix columns."""
        blocks = c.shape[1] // self.n
        order = (np.arange(blocks)[:, None] * self.n + self.order).ravel()
        x, _ = dpbtrs(c, b[order], overwrite_b=1)
        out = np.empty_like(x)
        out[order] = x
        return out


def factorized_spd(A: sp.spmatrix) -> Callable:
    """Return solve(b) for the SPD matrix A, factorized once (banded
    Cholesky); b may be a vector or a matrix of right-hand sides (columns).
    Raises np.linalg.LinAlgError if A is not positive definite. Every solve
    checks its residual."""
    A = A.tocsr()
    band = _BandCholesky(A.indptr, A.indices, A.shape[0])
    c = band.factor(A.data)

    def solve(b):
        b = np.asarray(b, dtype=float)
        x = band.solve(c, b)
        _check_residual(A, x, b)
        return x

    return solve


def _check_residual(A, x, b):
    r = A @ x - b
    nb = np.linalg.norm(b, axis=0) if b.ndim > 1 else np.linalg.norm(b)
    scale = np.maximum(nb, 1e-300)
    nr = np.linalg.norm(r, axis=0) if b.ndim > 1 else np.linalg.norm(r)
    if np.any(nr > RESIDUAL_RTOL * scale):
        raise ConvergenceError("linear solve residual above tolerance")


def solve_spd(A: sp.spmatrix, b: np.ndarray) -> np.ndarray:
    return factorized_spd(A)(b)


class DiffusionSolver:
    """Batched solves of K(u) p = f on one mesh: K(u) the interior
    stiffness matrix with coefficient exp(u + shift) at cell midpoints (the
    matrix of assemble_lognormal_diffusion), f the load of the unit source.

    The pattern of K is fixed, so it is built once: the interior CSC
    structure (`indptr`, `indices`) and a sparse map `W` from per-cell
    weights vol * exp(u) to the CSC data, holding each cell's
    grad(phi_i) . grad(phi_j) with the boundary rows and columns dropped.
    A chunk of B samples then assembles all its matrices with one product,
    weights @ W, in the arithmetic of assemble_lognormal_diffusion, and
    factors and solves them with one stacked banded Cholesky (the path of
    factorized_spd, whose ordering and band layout are also built once).
    The interior mass matrix has the same pattern and is kept as CSC data
    for `norm_sq`.
    Nothing is mutated after construction, so threads may share a solver.
    """

    def __init__(self, mesh: SimplicialMesh):
        interior = mesh.interior_vertices
        n = interior.size
        if n == 0:
            raise ValueError("mesh has no interior vertices")
        pos = np.full(mesh.n_vertices, -1, dtype=np.int64)
        pos[interior] = np.arange(n)
        d1 = mesh.dim + 1
        vols, grads = _local_arrays(mesh)
        stiff = np.einsum("cik,cjk->cij", grads, grads)
        mass = vols[:, None, None] * _reference_mass(mesh.dim)
        rows = pos[np.repeat(mesh.cells, d1, axis=1)]
        cols = pos[np.tile(mesh.cells, (1, d1))]
        keep = (rows >= 0) & (cols >= 0)
        keys = cols[keep] * n + rows[keep]  # CSC order: by column, then row
        pattern = np.unique(keys)
        nnz = pattern.size
        slot = np.searchsorted(pattern, keys)
        cell_ptr = np.zeros(mesh.n_cells + 1, dtype=np.int64)
        np.cumsum(keep.sum(axis=1), out=cell_ptr[1:])
        self.mesh = mesh
        self.n = n
        self._vols = vols
        self.indices = pattern % n
        self.indptr = np.searchsorted(pattern // n, np.arange(n + 1))
        self.W = sp.csr_matrix(
            (stiff.reshape(len(keep), -1)[keep], slot, cell_ptr),
            shape=(mesh.n_cells, nnz),
        )
        self.mass_data = np.bincount(
            slot, weights=mass.reshape(len(keep), -1)[keep], minlength=nnz
        )
        self.load = assemble_load(mesh)[interior]
        self._band = _BandCholesky(self.indptr, self.indices, n)
        # floats of one sample's share of a stacked band factor
        self.factor_floats = n * (self._band.w + 1)

    def matrix_data(self, u: np.ndarray, shift: float = 0.0) -> np.ndarray:
        """CSC data of K for each row of nodal values u, shape (B, nnz)."""
        coeff = np.exp(cell_midpoint_values(self.mesh, u + shift))
        if not np.all(np.isfinite(coeff)):
            raise ValueError("diffusion coefficient is not finite")
        return np.asarray((self._vols * coeff) @ self.W)

    def solve(self, u: np.ndarray, shift: float = 0.0) -> np.ndarray:
        """Interior solutions p, shape (B, n), for rows of nodal values u."""
        u = np.asarray(u, dtype=float)
        if u.ndim != 2:
            raise ValueError("u must have shape (batch, n_vertices)")
        data = self.matrix_data(u, shift)
        c = self._band.factor(data)
        p = self._band.solve(c, np.tile(self.load, len(data))).reshape(len(data), self.n)
        r = self._apply(data, p) - self.load
        if np.any(np.linalg.norm(r, axis=1) > RESIDUAL_RTOL * np.linalg.norm(self.load)):
            raise ConvergenceError("diffusion solve residual above tolerance")
        return p

    def _apply(self, data: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Row-wise products A p for symmetric matrices A with this pattern:
        data (B, nnz) or one row (nnz,) shared by all rows of p (B, n)."""
        # for symmetric A the CSC column sums of data * p[indices] are A p
        return np.add.reduceat(data * p[:, self.indices], self.indptr[:-1], axis=1)

    def norm_sq(self, p: np.ndarray) -> np.ndarray:
        """Squared L2 norms of the P1 functions with interior values p (B, n)."""
        return np.einsum("bi,bi->b", p, self._apply(self.mass_data, p))


def matern_field_from_noise(
    mesh: SimplicialMesh,
    params: MaternParams,
    b: np.ndarray,
    solve: Optional[Callable] = None,
) -> np.ndarray:
    """Nodal values of the Matern field on `mesh` given the noise pairings b
    (full-length, one vector or rows of a batch).

    Pass a prefactorized interior solve to amortize repeated sampling.
    """
    if solve is None:
        solve = factorized_spd(assemble_helmholtz(mesh, params.kappa))
    b = np.asarray(b, dtype=float)
    rhs = params.eta * b[..., mesh.interior_vertices]
    x = solve(rhs.T if b.ndim > 1 else rhs)
    return embed_interior(x.T if b.ndim > 1 else x, mesh)


def cell_midpoint_values(mesh: SimplicialMesh, u: np.ndarray) -> np.ndarray:
    """Per-cell value of a P1 function at cell midpoints: the vertex mean."""
    u = np.asarray(u, dtype=float)
    return u[..., mesh.cells].mean(axis=-1)
