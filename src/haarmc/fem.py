"""P1 finite elements: assembly, Dirichlet solves, and the Matern field law.

Every matrix is summed from per-cell local matrices straight into the
interior rows and columns (one builder, `_interior_matrix`): the homogeneous
Dirichlet rows and columns are never formed, which keeps the systems
symmetric positive definite. Every system, in 1D and 2D, is solved by one
banded Cholesky factorisation (LAPACK pbtrf/pbtrs) in reverse Cuthill-McKee
order, and every solve checks its residual with one helper,
`_check_residual`.

LAPACK is called through ctypes from the OpenBLAS that numpy's wheels
bundle (`numpy.libs/libscipy_openblas64_*`, or `numpy/.dylibs` on macOS),
so importing this module loads no scipy. Where that library or its
symbols are missing, as on conda or MKL builds of numpy, the same two
routines come from `scipy.linalg.lapack`, imported on first use.
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .mesh import SimplicialMesh, cell_volumes
from .sparse import SparseOperator

__all__ = [
    "MaternParams",
    "ConvergenceError",
    "assemble_helmholtz",
    "assemble_lognormal_diffusion",
    "assemble_load",
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
        if sigma < 0 or lam <= 0:
            raise ValueError("sigma must be non-negative and lam positive")
        nu = 2.0 - dim / 2.0
        kappa = math.sqrt(8.0 * nu) / lam
        eta = (
            sigma
            * kappa ** (-dim / 2.0)
            * (4.0 * math.pi) ** (dim / 4.0)
            * math.sqrt(math.gamma(nu + dim / 2.0) / math.gamma(nu))
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


def _interior_entries(mesh: SimplicialMesh):
    """Interior row and column of each entry of the cells' local matrices,
    shape (n_cells, (d+1)^2) in row-major local order, -1 at a boundary
    vertex; and the mask of the entries where both are interior."""
    pos = np.full(mesh.n_vertices, -1, dtype=np.int64)
    pos[mesh.interior_vertices] = np.arange(mesh.interior_vertices.size)
    d1 = mesh.dim + 1
    rows = pos[np.repeat(mesh.cells, d1, axis=1)]
    cols = pos[np.tile(mesh.cells, (1, d1))]
    return rows, cols, (rows >= 0) & (cols >= 0)


def _interior_matrix(mesh: SimplicialMesh, local: np.ndarray) -> SparseOperator:
    """The interior rows and columns of the matrix summed from the local
    matrices `local` (n_cells, d+1, d+1); repeated entries are summed in
    cell order."""
    rows, cols, keep = _interior_entries(mesh)
    n = mesh.interior_vertices.size
    return SparseOperator(
        rows[keep], cols[keep], local.reshape(mesh.n_cells, -1)[keep], (n, n)
    )


def _reference_mass(d: int) -> np.ndarray:
    """Local mass matrix of the reference simplex, per unit volume."""
    return (np.ones((d + 1, d + 1)) + np.eye(d + 1)) / ((d + 1) * (d + 2))


def assemble_helmholtz(mesh: SimplicialMesh, kappa: float) -> SparseOperator:
    """Mass plus kappa^{-2} stiffness, restricted to interior dofs (the
    homogeneous Dirichlet rows and columns are eliminated symmetrically)."""
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    vols, grads = _local_arrays(mesh)
    mass = vols[:, None, None] * _reference_mass(mesh.dim)
    stiff = vols[:, None, None] * np.einsum("cik,cjk->cij", grads, grads)
    return _interior_matrix(mesh, mass + stiff / kappa**2)


def assemble_lognormal_diffusion(mesh: SimplicialMesh, u: np.ndarray) -> SparseOperator:
    """Interior stiffness matrix with coefficient exp(u) evaluated at cell
    midpoints (one-point quadrature)."""
    coeff = np.exp(cell_midpoint_values(mesh, u))
    if not np.all(np.isfinite(coeff)):
        raise ValueError("diffusion coefficient is not finite")
    vols, grads = _local_arrays(mesh)
    local = (vols * coeff)[:, None, None] * np.einsum("cik,cjk->cij", grads, grads)
    return _interior_matrix(mesh, local)


def assemble_load(mesh: SimplicialMesh, value: float = 1.0) -> np.ndarray:
    """Load vector of the constant source `value`."""
    d = mesh.dim
    vols = cell_volumes(mesh)
    out = np.zeros(mesh.n_vertices)
    np.add.at(out, mesh.cells.ravel(), np.repeat(vols * value / (d + 1), d + 1))
    return out


def embed_interior(x: np.ndarray, mesh: SimplicialMesh) -> np.ndarray:
    """Pad an interior vector with homogeneous boundary values."""
    x = np.asarray(x)
    out = np.zeros(x.shape[:-1] + (mesh.n_vertices,))
    out[..., mesh.interior_vertices] = x
    return out


@functools.lru_cache(maxsize=None)
def _bundled_openblas():
    """The ILP64 OpenBLAS bundled in numpy's wheels, the very library numpy
    runs on, as a ctypes library; None where no such library loads."""
    numpy_dir = Path(np.__file__).resolve().parent
    libs = sorted(numpy_dir.parent.joinpath("numpy.libs").glob("libscipy_openblas64_*"))
    libs += sorted(numpy_dir.joinpath(".dylibs").glob("libscipy_openblas64_*"))
    for path in libs:
        try:
            return ctypes.CDLL(str(path))
        except OSError:
            continue
    return None


def _openblas_band_routines():
    """dpbtrf and dpbtrs of _bundled_openblas() as ctypes functions, or None
    when there is no such library or symbol.

    Their Fortran interface takes every integer by reference as 64 bits and
    ends with the hidden length of the character argument.
    """
    lib = _bundled_openblas()
    try:
        return lib.scipy_dpbtrf_64_, lib.scipy_dpbtrs_64_
    except AttributeError:  # no library, or one without the symbols
        return None


@functools.lru_cache(maxsize=None)
def _band_lapack():
    """The pair (pbtrf, pbtrs) behind every banded Cholesky.

    pbtrf(ab) factors the upper band ab, (w + 1, n) in Fortran order, in
    place and returns LAPACK's info; pbtrs(c, b) overwrites b, (n,) or
    (n, k) in Fortran order, with the solution for the factor c. They call
    numpy's bundled OpenBLAS, or scipy.linalg.lapack where it has none.
    """
    routines = _openblas_band_routines()
    if routines is None:
        from scipy.linalg.lapack import dpbtrf, dpbtrs

        def pbtrf(ab):
            c, info = dpbtrf(ab, lower=0, overwrite_ab=1)
            ab[...] = c
            return info

        def pbtrs(c, b):
            b[...] = dpbtrs(c, b, overwrite_b=1)[0]

        return pbtrf, pbtrs

    trf, trs = routines
    Int, ref, ptr = ctypes.c_int64, ctypes.POINTER(ctypes.c_int64), ctypes.c_void_p
    trf.argtypes = [ctypes.c_char_p, ref, ref, ptr, ref, ref, ctypes.c_size_t]
    trs.argtypes = [ctypes.c_char_p, ref, ref, ref, ptr, ref, ptr, ref, ref, ctypes.c_size_t]
    trf.restype = trs.restype = None

    def fortran_doubles(a):
        if a.dtype != np.float64 or not a.flags.f_contiguous or not a.flags.writeable:
            raise ValueError("LAPACK operand must be a writeable Fortran-order float64 array")
        return a.ctypes.data

    def pbtrf(ab):
        info = Int()
        n, kd, ldab = Int(ab.shape[1]), Int(ab.shape[0] - 1), Int(ab.shape[0])
        trf(b"U", n, kd, fortran_doubles(ab), ldab, info, 1)
        return info.value

    def pbtrs(c, b):
        if b.shape[0] != c.shape[1]:
            raise ValueError("right-hand side does not match the factor")
        info = Int()
        n, kd, ldab = Int(c.shape[1]), Int(c.shape[0] - 1), Int(c.shape[0])
        nrhs = Int(b.shape[1] if b.ndim == 2 else 1)
        trs(b"U", n, kd, nrhs, fortran_doubles(c), ldab, fortran_doubles(b), n, info, 1)

    return pbtrf, pbtrs


def _reverse_cuthill_mckee(indptr: np.ndarray, indices: np.ndarray, n: int) -> np.ndarray:
    """Reverse Cuthill-McKee order of a symmetric pattern (CSR, indices
    ascending in each row), making the choices of scipy's
    reverse_cuthill_mckee: a vertex's degree is its row's entry count; one
    breadth-first pass per connected component starts at the unvisited
    vertex of lowest degree (ties to the lower index); each vertex queues
    its unvisited neighbours by ascending degree (ties to the lower index);
    the whole order is reversed at the end."""
    degree = np.diff(indptr)
    rows = np.repeat(np.arange(n), degree)
    neighbours = indices[np.lexsort((degree[indices], rows))].tolist()
    ptr = indptr.tolist()
    visited = [False] * n
    order = []
    for seed in np.argsort(degree, kind="stable").tolist():
        if visited[seed]:
            continue
        visited[seed] = True
        head = len(order)
        order.append(seed)
        while head < len(order):
            i = order[head]
            head += 1
            for j in neighbours[ptr[i] : ptr[i + 1]]:
                if not visited[j]:
                    visited[j] = True
                    order.append(j)
    return np.array(order[::-1], dtype=np.int64)


class _BandCholesky:
    """Cholesky factorisations of SPD matrices with one symmetric sparsity
    pattern (`indptr`, `indices`, n).

    The unknowns are ordered by reverse Cuthill-McKee, which gives band
    width 1 on any 1D numbering, and the upper triangle is stored in LAPACK
    band layout: each upper entry of the pattern keeps its flat index into
    an (n, w + 1) C-order buffer, whose transpose is the Fortran-contiguous
    `ab[w + i - j, j]`. Nothing is mutated after construction, so threads
    may share one instance.

    A factor stacks its matrices as diagonal blocks of one band, with w
    identity rows (zero right-hand side) before every block and after the
    last. Every row of a block then meets the same band window, its own
    block's entries and exact zeros, wherever the block sits: LAPACK's
    dot products have one length and one content, so a matrix's factor
    and solutions are bit-equal whichever blocks share its call.
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, n: int):
        order = _reverse_cuthill_mckee(indptr, indices, n)
        self.rank = np.empty(n, dtype=np.int64)  # each unknown's place in the order
        self.rank[order] = np.arange(n)
        i = self.rank[np.repeat(np.arange(n), np.diff(indptr))]
        j = self.rank[indices]
        self.w = int(np.max(np.abs(i - j), initial=0))
        self.up = np.flatnonzero(i <= j)
        self.flat = j[self.up] * (self.w + 1) + self.w + i[self.up] - j[self.up]
        self.n = n

    def factor(self, data: np.ndarray) -> np.ndarray:
        """Band Cholesky factor of the B matrices with this pattern whose
        data are the rows of `data` (B, nnz), or of the one matrix of a
        1-D `data`.

        The matrices are the diagonal blocks of one padded matrix of order
        B * (n + w) + w: the blocks do not couple, so its band has the same
        width and one LAPACK call factors them all. Raises
        np.linalg.LinAlgError if any of them is not positive definite.
        """
        data = np.atleast_2d(data)
        n, w = self.n, self.w
        ab = np.zeros((len(data) * (n + w) + w, w + 1))
        ab[:w, w] = 1.0
        blocks = ab[w:].reshape(len(data), n + w, w + 1)  # a block, then its pad
        blocks[:, n:, w] = 1.0
        blocks.reshape(len(data), -1)[:, self.flat] = data[:, self.up]
        c = ab.T
        if _band_lapack()[0](c) != 0:
            raise np.linalg.LinAlgError("matrix is not positive definite")
        return c

    def solve(self, c: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Solve with a factor from `factor`; b holds the B blocks' right-hand
        sides one after another, as a vector or as matrix columns."""
        n, w = self.n, self.w
        k = np.arange((c.shape[1] - w) // (n + w))[:, None]
        rows = (k * (n + w) + w + self.rank).ravel()  # each entry of b's row in the band
        x = np.zeros((c.shape[1],) + b.shape[1:], order="F")
        x[rows] = b
        _band_lapack()[1](c, x)
        return x[rows]


def factorized_spd(A: SparseOperator) -> Callable:
    """Return solve(b) for the SPD matrix A, factorized once (banded
    Cholesky); b may be a vector or a matrix of right-hand sides (columns).
    Raises np.linalg.LinAlgError if A is not positive definite. Every solve
    checks its residual."""
    band = _BandCholesky(A.indptr, A.indices, A.shape[0])
    c = band.factor(A.data)

    def solve(b):
        b = np.asarray(b, dtype=float)
        x = band.solve(c, b)
        _check_residual(A @ x - b, b)
        return x

    return solve


def _check_residual(r: np.ndarray, b: np.ndarray) -> None:
    """Raise ConvergenceError unless every residual r, a vector or the
    columns of a matrix, is within RESIDUAL_RTOL of the norm of its
    right-hand side b (a vector, or one column per residual)."""
    scale = np.maximum(np.linalg.norm(b, axis=0), 1e-300)
    if np.any(np.linalg.norm(r, axis=0) > RESIDUAL_RTOL * scale):
        raise ConvergenceError("linear solve residual above tolerance")


def solve_spd(A: SparseOperator, b: np.ndarray) -> np.ndarray:
    return factorized_spd(A)(b)


class DiffusionSolver:
    """Batched solves of K(u) p = f on one mesh: K(u) the interior
    stiffness matrix with coefficient exp(u + shift) at cell midpoints (the
    matrix of assemble_lognormal_diffusion), f the load of the unit source.

    The pattern of K is fixed, so it is built once: the interior mass
    matrix `mass`, whose CSR structure (`indptr`, `indices`) K shares, and
    a sparse map `W` from per-cell weights vol * exp(u) to K's CSR data,
    holding each cell's grad(phi_i) . grad(phi_j) with the boundary rows
    and columns dropped. A chunk of B samples then assembles all its
    matrices with one product, W @ weights, in the arithmetic of
    assemble_lognormal_diffusion, and factors and solves them with one
    stacked banded Cholesky (the path of factorized_spd, whose ordering and
    band layout are also built once). The residual check applies each
    sample's K through `mass`'s pattern; `norm_sq` applies `mass` itself.
    Nothing is mutated after construction, so threads may share a solver.
    """

    def __init__(self, mesh: SimplicialMesh):
        interior = mesh.interior_vertices
        n = interior.size
        if n == 0:
            raise ValueError("mesh has no interior vertices")
        vols, grads = _local_arrays(mesh)
        stiff = np.einsum("cik,cjk->cij", grads, grads).reshape(mesh.n_cells, -1)
        self.mesh = mesh
        self.n = n
        self._vols = vols
        self.mass = _interior_matrix(mesh, vols[:, None, None] * _reference_mass(mesh.dim))
        self.indptr, self.indices = self.mass.indptr, self.mass.indices
        rows, cols, keep = _interior_entries(mesh)
        pattern = np.repeat(np.arange(n), np.diff(self.indptr)) * n + self.indices
        slot = np.searchsorted(pattern, rows[keep] * n + cols[keep])
        self.W = SparseOperator(
            slot, np.nonzero(keep)[0], stiff[keep], (self.mass.nnz, mesh.n_cells)
        )
        self.load = assemble_load(mesh)[interior]
        self._band = _BandCholesky(self.indptr, self.indices, n)
        # floats of one sample's share of a stacked band factor, its pad rows too
        self.factor_floats = (n + self._band.w) * (self._band.w + 1)

    def matrix_data(self, u: np.ndarray, shift: float = 0.0) -> np.ndarray:
        """CSR data of K for each row of nodal values u, shape (B, nnz)."""
        coeff = np.exp(cell_midpoint_values(self.mesh, u + shift))
        if not np.all(np.isfinite(coeff)):
            raise ValueError("diffusion coefficient is not finite")
        return (self.W @ (self._vols * coeff).T).T

    def solve(self, u: np.ndarray, shift: float = 0.0) -> np.ndarray:
        """Interior solutions p, shape (B, n), for rows of nodal values u."""
        u = np.asarray(u, dtype=float)
        if u.ndim != 2:
            raise ValueError("u must have shape (batch, n_vertices)")
        data = self.matrix_data(u, shift)
        c = self._band.factor(data)
        p = self._band.solve(c, np.tile(self.load, len(data))).reshape(len(data), self.n)
        _check_residual(self.mass.apply(p.T, data) - self.load[:, None], self.load)
        return p

    def norm_sq(self, p: np.ndarray) -> np.ndarray:
        """Squared L2 norms of the P1 functions with interior values p (B, n)."""
        return np.einsum("bi,ib->b", p, self.mass @ p.T)


def matern_field_from_noise(
    mesh: SimplicialMesh, params: MaternParams, b: np.ndarray, solve: Callable
) -> np.ndarray:
    """Nodal values of the Matern field on `mesh` for each row of the noise
    pairings b (B, n_vertices), given the interior Helmholtz solve `solve`
    (factorized_spd of assemble_helmholtz)."""
    rhs = params.eta * np.asarray(b, dtype=float)[:, mesh.interior_vertices]
    return embed_interior(solve(rhs.T).T, mesh)


def cell_midpoint_values(mesh: SimplicialMesh, u: np.ndarray) -> np.ndarray:
    """Per-cell value of a P1 function at cell midpoints: the vertex mean."""
    u = np.asarray(u, dtype=float)
    return u[..., mesh.cells].mean(axis=-1)
