"""P1 assembly, solvers, the batched diffusion solver, field transfer, and
the output functional."""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from haarmc import fem
from haarmc.fem import (
    ConvergenceError,
    DiffusionSolver,
    MaternParams,
    assemble_helmholtz,
    assemble_load,
    assemble_lognormal_diffusion,
    embed_interior,
    factorized_spd,
    matern_field_from_noise,
    solve_spd,
)
from haarmc.mesh import Box, SimplicialMesh, build_hierarchy, build_uniform_mesh
from haarmc.problem import default_d_box, default_g_box
import oracles
from oracles import (
    assemble_mass,
    assemble_stiffness,
    functional_l2sq,
    restrict_interior,
    transfer_field,
)

G2 = Box((-0.5, -0.5), (0.5, 0.5))
UNIT1 = Box((0.0,), (1.0,))
UNIT2 = Box((0.0, 0.0), (1.0, 1.0))


def _dense(A):
    return oracles.scipy_matrix(A).toarray()


def test_helmholtz_single_interior_dof():
    # two elements of size 1/2 on [0,1], kappa = 1: mass contributes
    # 2 * (2h/6) = 1/3, stiffness contributes 2/h = 4, so A = [[13/3]]
    mesh = build_uniform_mesh(UNIT1, 1, 2)
    A = assemble_helmholtz(mesh, 1.0)
    assert A.shape == (1, 1)
    assert _dense(A)[0, 0] == pytest.approx(13.0 / 3.0, rel=1e-14)


def test_helmholtz_rejects_bad_kappa():
    mesh = build_uniform_mesh(UNIT1, 1, 2)
    with pytest.raises(ValueError):
        assemble_helmholtz(mesh, 0.0)


@pytest.mark.parametrize("dim,n", [(1, 6), (2, 3)])
def test_mass_matrix_against_oracle(dim, n):
    box = Box((-1.0, -1.0), (1.0, 1.0)) if dim == 2 else Box((-1.0,), (1.0,))
    mesh = build_uniform_mesh(box, dim, n)
    M = _dense(assemble_mass(mesh))
    np.testing.assert_allclose(M, oracles.mass_matrix(mesh), atol=1e-14)
    assert M.sum() == pytest.approx(box.volume, rel=1e-12)


def test_stiffness_row_sums_vanish():
    mesh = build_uniform_mesh(UNIT2, 2, 3)
    K = assemble_stiffness(mesh)
    np.testing.assert_allclose(_dense(K).sum(axis=1), 0.0, atol=1e-13)


def test_load_vector_is_basis_integrals():
    mesh = build_uniform_mesh(UNIT2, 2, 4)
    np.testing.assert_allclose(
        assemble_load(mesh, 2.0), 2.0 * oracles.mass_matrix(mesh).sum(axis=1), atol=1e-14
    )


def test_lognormal_diffusion_scaling():
    mesh = build_uniform_mesh(G2, 2, 4)
    K0 = assemble_lognormal_diffusion(mesh, np.zeros(mesh.n_vertices))
    plain = restrict_interior(assemble_stiffness(mesh), mesh)
    np.testing.assert_allclose(_dense(K0), _dense(plain), atol=1e-14)
    Kc = assemble_lognormal_diffusion(mesh, np.full(mesh.n_vertices, 0.7))
    np.testing.assert_allclose(_dense(Kc), math.exp(0.7) * _dense(plain), rtol=1e-13)
    assert np.linalg.eigvalsh(_dense(Kc)).min() > 0


def test_lognormal_diffusion_rejects_nonfinite():
    mesh = build_uniform_mesh(G2, 2, 2)
    u = np.zeros(mesh.n_vertices)
    u[0] = np.inf
    with pytest.raises(ValueError):
        assemble_lognormal_diffusion(mesh, u)


def test_solve_identity():
    b = np.arange(5, dtype=float)
    x = solve_spd(oracles.sparse_operator(np.eye(5)), b)
    np.testing.assert_allclose(x, b, atol=1e-14)


def test_solve_against_dense_oracle():
    rng = np.random.default_rng(4)
    Q = rng.standard_normal((10, 10))
    A = Q @ Q.T + 10 * np.eye(10)
    b = rng.standard_normal(10)
    x = solve_spd(oracles.sparse_operator(A), b)
    np.testing.assert_allclose(x, np.linalg.solve(A, b), atol=1e-10)
    assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) < 1e-10


def test_factorized_spd_rejects_indefinite():
    A = oracles.sparse_operator(np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    with pytest.raises(np.linalg.LinAlgError):
        factorized_spd(A)


def test_factorized_spd_matrix_rhs_matches_splu():
    mesh = _jittered_2d(8, 0.3, 11)
    A = assemble_helmholtz(mesh, 3.0)
    B = np.random.default_rng(3).standard_normal((A.shape[0], 5))
    X = factorized_spd(A)(B)
    for k in range(B.shape[1]):
        ref = oracles.splu_solve(A, B[:, k])
        assert np.max(np.abs(X[:, k] - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_band_width_is_one_on_1d_numberings():
    mesh = _shuffled_1d(17, 5)
    assert DiffusionSolver(mesh)._band.w == 1
    A = assemble_helmholtz(mesh, 2.0)
    assert fem._BandCholesky(A.indptr, A.indices, A.shape[0]).w == 1


def test_factorized_solver_reuse():
    mesh = build_uniform_mesh(UNIT2, 2, 8)
    A = assemble_helmholtz(mesh, 2.0)
    solve = factorized_spd(A)
    rng = np.random.default_rng(7)
    for _ in range(3):
        b = rng.standard_normal(A.shape[0])
        x = solve(b)
        assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) < 1e-10


def _l2_error(mesh, approx, exact_fn):
    diff = approx - exact_fn(mesh.vertices)
    return math.sqrt(functional_l2sq(mesh, diff))


def test_manufactured_convergence_1d():
    # (I - Delta) u = (1 + pi^2) sin(pi x) with u = sin(pi x) on [0, 1]
    errs = []
    for n in (8, 16, 32, 64):
        mesh = build_uniform_mesh(UNIT1, 1, n)
        rhs_fn = lambda v: (1.0 + np.pi**2) * np.sin(np.pi * v[:, 0])
        M = assemble_mass(mesh)
        A = assemble_helmholtz(mesh, 1.0)
        b = (M @ rhs_fn(mesh.vertices))[mesh.interior_vertices]
        u = embed_interior(solve_spd(A, b), mesh)
        errs.append(_l2_error(mesh, u, lambda v: np.sin(np.pi * v[:, 0])))
    rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(rates > 1.8) and np.all(rates < 2.2)


def test_manufactured_convergence_2d():
    # -Laplace p = 2 pi^2 sin(pi x) sin(pi y), p = sin(pi x) sin(pi y)
    errs = []
    for n in (8, 16, 32):
        mesh = build_uniform_mesh(UNIT2, 2, n)
        exact = lambda v: np.sin(np.pi * v[:, 0]) * np.sin(np.pi * v[:, 1])
        rhs = 2.0 * np.pi**2 * exact(mesh.vertices)
        K = assemble_lognormal_diffusion(mesh, np.zeros(mesh.n_vertices))
        b = (assemble_mass(mesh) @ rhs)[mesh.interior_vertices]
        p = embed_interior(solve_spd(K, b), mesh)
        errs.append(_l2_error(mesh, p, exact))
    rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(rates > 1.8) and np.all(rates < 2.2)


def test_transfer_exact_for_linears():
    g = build_uniform_mesh(G2, 2, 4, diagonal="right")
    d = build_uniform_mesh(Box((-1.0, -1.0), (1.0, 1.0)), 2, 8, diagonal="right")
    const = np.full(d.n_vertices, 2.5)
    np.testing.assert_array_equal(transfer_field(const, d, g), np.full(g.n_vertices, 2.5))
    lin = d.vertices[:, 0] + d.vertices[:, 1]
    np.testing.assert_allclose(
        transfer_field(lin, d, g), g.vertices[:, 0] + g.vertices[:, 1], atol=1e-14
    )


def test_transfer_rejects_non_nested():
    g = build_uniform_mesh(G2, 2, 3)
    d = build_uniform_mesh(Box((-1.0, -1.0), (1.0, 1.0)), 2, 8)
    with pytest.raises(ValueError):
        transfer_field(np.zeros(d.n_vertices), d, g)


def test_functional_pins():
    mesh = build_uniform_mesh(G2, 2, 4)
    assert functional_l2sq(mesh, np.zeros(mesh.n_vertices)) == 0.0
    assert functional_l2sq(mesh, np.ones(mesh.n_vertices)) == pytest.approx(1.0, rel=1e-12)
    # x is linear, so its interpolant is exact and the quadrature is exact
    assert functional_l2sq(mesh, mesh.vertices[:, 0].copy()) == pytest.approx(
        1.0 / 12.0, rel=1e-12
    )


def test_functional_batch_rows():
    mesh = build_uniform_mesh(G2, 2, 2)
    batch = np.vstack([np.ones(mesh.n_vertices), mesh.vertices[:, 0]])
    vals = functional_l2sq(mesh, batch)
    np.testing.assert_allclose(vals, [1.0, 1.0 / 12.0], rtol=1e-12)


def test_matern_params_derivations():
    p1 = MaternParams.create(1, 0.9, 0.25)
    assert p1.nu == pytest.approx(1.5)
    assert p1.kappa == pytest.approx(math.sqrt(12.0) / 0.25, rel=1e-14)
    p2 = MaternParams.create(2, 0.9, 0.25)
    assert p2.nu == pytest.approx(1.0)
    assert p2.kappa == pytest.approx(math.sqrt(8.0) / 0.25, rel=1e-14)
    # nu = 1 makes the gamma ratio 1, leaving sigma * sqrt(4 pi) / kappa
    assert p2.eta == pytest.approx(0.9 * math.sqrt(4.0 * math.pi) / p2.kappa, rel=1e-14)
    # sigma = 0 is the deterministic coefficient: no noise
    p0 = MaternParams.create(2, 0.0, 0.25)
    assert p0.eta == 0.0 and p0.kappa == p2.kappa


def test_matern_params_validation():
    with pytest.raises(ValueError):
        MaternParams.create(3, 1.0, 0.25)
    with pytest.raises(ValueError):
        MaternParams.create(2, -1.0, 0.25)
    with pytest.raises(ValueError):
        MaternParams.create(2, 1.0, 0.0)


def test_lognormal_moment_matching():
    pars = MaternParams.lognormal_matched(2, 0.25, mean=1.0, variance=0.2)
    s2 = pars.sigma**2
    assert s2 == pytest.approx(math.log(1.2), rel=1e-14)
    assert pars.mean_shift == pytest.approx(-0.5 * math.log(1.2), rel=1e-14)
    # moments of exp(N(shift, sigma^2)) recover the requested mean/variance
    mean = math.exp(pars.mean_shift + s2 / 2)
    var = (math.exp(s2) - 1.0) * math.exp(2 * pars.mean_shift + s2)
    assert mean == pytest.approx(1.0, rel=1e-14)
    assert var == pytest.approx(0.2, rel=1e-14)


def test_matern_field_zero_noise():
    mesh = build_uniform_mesh(Box((-1.0, -1.0), (1.0, 1.0)), 2, 4)
    pars = MaternParams.create(2, 1.0, 0.25)
    solve = factorized_spd(assemble_helmholtz(mesh, pars.kappa))
    u = matern_field_from_noise(mesh, pars, np.zeros((1, mesh.n_vertices)), solve)
    np.testing.assert_array_equal(u, np.zeros((1, mesh.n_vertices)))


def test_matern_field_batch_matches_single():
    mesh = build_uniform_mesh(Box((-1.0, -1.0), (1.0, 1.0)), 2, 4)
    pars = MaternParams.create(2, 1.0, 0.25)
    A = assemble_helmholtz(mesh, pars.kappa)
    solve = factorized_spd(A)
    rng = np.random.default_rng(12)
    B = rng.standard_normal((3, mesh.n_vertices))
    batch = matern_field_from_noise(mesh, pars, B, solve)
    dense = np.linalg.solve(_dense(A), pars.eta * B[:, mesh.interior_vertices].T).T
    np.testing.assert_allclose(batch[:, mesh.interior_vertices], dense, atol=1e-13)
    for i in range(3):
        np.testing.assert_array_equal(
            batch[i], matern_field_from_noise(mesh, pars, B[i : i + 1], solve)[0]
        )
    # homogeneous Dirichlet data on the outer boundary
    np.testing.assert_array_equal(batch[:, mesh.boundary_vertices], 0.0)


# ------------------------------------------------------- batched diffusion


def _jittered_2d(n, amount, seed):
    mesh = build_uniform_mesh(G2, 2, n)
    rng = np.random.default_rng(seed)
    V = mesh.vertices.copy()
    inner = mesh.interior_vertices
    V[inner] += amount * rng.uniform(-1.0, 1.0, (inner.size, 2)) / n
    return SimplicialMesh(2, V, mesh.cells.copy(), mesh.boundary_vertices)


def _shuffled_1d(n, seed):
    """Uniform 1D mesh with its vertices stored in random order."""
    mesh = build_uniform_mesh(Box((-0.5,), (0.5,)), 1, n)
    order = np.random.default_rng(seed).permutation(mesh.n_vertices)
    new_of_old = np.argsort(order)
    return SimplicialMesh(
        1, mesh.vertices[order], new_of_old[mesh.cells], np.sort(new_of_old[mesh.boundary_vertices])
    )


SOLVER_MESHES = {
    "1d-uniform": lambda: build_uniform_mesh(Box((-0.5,), (0.5,)), 1, 64),
    "1d-one-dof": lambda: build_uniform_mesh(UNIT1, 1, 2),
    "1d-shuffled": lambda: _shuffled_1d(17, 5),
    "2d-uniform": lambda: build_uniform_mesh(G2, 2, 16),
    "2d-one-dof": lambda: build_uniform_mesh(UNIT2, 2, 2),
    "2d-jittered": lambda: _jittered_2d(8, 0.3, 11),
}


def _random_1d(n, seed):
    """1D mesh of n cells with random spacing, its vertices stored in
    random order and each cell's endpoints in random order."""
    rng = np.random.default_rng(seed)
    x = np.concatenate([[-0.5], np.sort(rng.uniform(-0.5, 0.5, n - 1)), [0.5]])
    order = rng.permutation(n + 1)
    new_of_old = np.argsort(order)
    cells = new_of_old[np.stack([np.arange(n), np.arange(1, n + 1)], axis=1)]
    cells = np.where(rng.random((n, 1)) < 0.5, cells, cells[:, ::-1])
    return SimplicialMesh(1, x[order, None], cells, np.sort(new_of_old[[0, n]]))


ASSEMBLY_MESHES = dict(
    SOLVER_MESHES,
    **{f"1d-random-{seed}": (lambda seed=seed: _random_1d(5 + 7 * seed, seed)) for seed in range(4)},
)


def _assert_same_csr(A, B):
    assert A.shape == B.shape
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(A, name), getattr(B, name)), name


@pytest.mark.parametrize("name", sorted(ASSEMBLY_MESHES))
def test_interior_assembly_matches_full_assembly_then_restriction(name):
    # the interior builder against assembly over all vertices followed by
    # the restriction to interior rows and columns: the same entries are
    # summed in the same (cell) order, so the CSR arrays agree bit for bit
    mesh = ASSEMBLY_MESHES[name]()
    kappa = 3.0
    vols, grads = fem._local_arrays(mesh)
    mass = vols[:, None, None] * fem._reference_mass(mesh.dim)
    stiff = vols[:, None, None] * np.einsum("cik,cjk->cij", grads, grads)
    _assert_same_csr(
        assemble_helmholtz(mesh, kappa),
        restrict_interior(oracles.scatter(mesh, mass + stiff / kappa**2), mesh),
    )
    u = 0.7 * np.random.default_rng(mesh.n_vertices).standard_normal(mesh.n_vertices)
    coeff = np.exp(fem.cell_midpoint_values(mesh, u))
    _assert_same_csr(
        assemble_lognormal_diffusion(mesh, u),
        restrict_interior(assemble_stiffness(mesh, coeff), mesh),
    )
    _assert_same_csr(DiffusionSolver(mesh).mass, restrict_interior(assemble_mass(mesh), mesh))


@pytest.mark.parametrize("batch", [1, 32])
@pytest.mark.parametrize("name", sorted(SOLVER_MESHES))
def test_diffusion_solver_matches_per_sample_path(name, batch):
    mesh = SOLVER_MESHES[name]()
    solver = DiffusionSolver(mesh)
    rng = np.random.default_rng(batch)
    u = 0.7 * rng.standard_normal((batch, mesh.n_vertices))
    shift = -0.1
    load = assemble_load(mesh)[mesh.interior_vertices]
    np.testing.assert_array_equal(solver.load, load)
    p = solver.solve(u, shift)
    M = restrict_interior(assemble_mass(mesh), mesh)
    n = solver.n
    for b in range(batch):
        K = assemble_lognormal_diffusion(mesh, u[b] + shift)
        data = solver.matrix_data(u[b], shift)
        K_batched = sp.csr_matrix((data, solver.indices, solver.indptr), shape=(n, n)).toarray()
        np.testing.assert_allclose(K_batched, _dense(K), rtol=1e-13, atol=1e-13 * np.abs(K.data).max())
        ref = oracles.splu_solve(K, load)
        assert np.max(np.abs(p[b] - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert solver.norm_sq(p[b : b + 1])[0] == pytest.approx(ref @ (M @ ref), rel=1e-12)


# the default configs' hierarchies: 1D mesh levels 1..6, 2D 1..5
DEFAULT_HIERARCHIES = {1: [1, 2, 3, 4, 5, 6], 2: [1, 2, 3, 4, 5]}


@pytest.mark.parametrize("dim", sorted(DEFAULT_HIERARCHIES))
def test_stacked_diffusion_solve_matches_per_sample_factorizations(dim):
    levels = DEFAULT_HIERARCHIES[dim]
    hier = build_hierarchy(
        default_g_box(dim), default_d_box(dim), dim, levels, [3] * len(levels)
    )
    rng = np.random.default_rng(dim)
    for g, _, _ in hier.levels:
        solver = DiffusionSolver(g)
        band, n = solver._band, solver.n
        u = 0.7 * rng.standard_normal((9, g.n_vertices))
        p = solver.solve(u, -0.1)
        data = solver.matrix_data(u, -0.1)
        c = band.factor(data)
        for b, row in enumerate(data):
            np.testing.assert_array_equal(c[:, b * n : (b + 1) * n], band.factor(row))
            K = sp.csr_matrix((row, solver.indices, solver.indptr), shape=(n, n))
            ref = factorized_spd(oracles.sparse_operator(K))(solver.load)
            if band.w < 16:
                np.testing.assert_array_equal(p[b], ref)
            else:
                # OpenBLAS's ddot sums the first 16 terms of a longer dot in
                # SIMD lanes; at a block's first rows the stacked triangular
                # solve's dots carry leading zeros, so from band width 16 on
                # (2D mesh level 5) the terms group differently
                np.testing.assert_allclose(p[b], ref, rtol=1e-14, atol=0)


def test_stacked_factor_rejects_an_indefinite_matrix_mid_chunk():
    for mesh in (build_uniform_mesh(Box((-0.5,), (0.5,)), 1, 16), build_uniform_mesh(G2, 2, 8)):
        solver = DiffusionSolver(mesh)
        data = solver.matrix_data(np.zeros((5, mesh.n_vertices)))
        solver._band.factor(data)
        data[2] *= -1.0
        with pytest.raises(np.linalg.LinAlgError):
            solver._band.factor(data)


def test_diffusion_solver_rows_do_not_depend_on_the_batch():
    for mesh in (build_uniform_mesh(Box((-0.5,), (0.5,)), 1, 32), build_uniform_mesh(G2, 2, 8)):
        solver = DiffusionSolver(mesh)
        u = np.random.default_rng(2).standard_normal((9, mesh.n_vertices))
        whole = solver.solve(u)
        split = np.vstack([solver.solve(u[:4]), solver.solve(u[4:])])
        np.testing.assert_array_equal(split, whole)


@pytest.mark.parametrize("dim", [1, 2])
def test_diffusion_solver_zero_tolerance_raises(dim, monkeypatch):
    mesh = build_uniform_mesh(G2 if dim == 2 else Box((-0.5,), (0.5,)), dim, 8)
    solver = DiffusionSolver(mesh)
    u = np.random.default_rng(6).standard_normal((3, mesh.n_vertices))
    solver.solve(u)
    monkeypatch.setattr(fem, "RESIDUAL_RTOL", 0.0)
    with pytest.raises(ConvergenceError):
        solver.solve(u)


def test_diffusion_solver_rejects_nonfinite():
    mesh = build_uniform_mesh(G2, 2, 4)
    solver = DiffusionSolver(mesh)
    u = np.zeros((2, mesh.n_vertices))
    u[1, 3] = np.nan
    with pytest.raises(ValueError):
        solver.solve(u)
    u[1, 3] = np.inf
    with pytest.raises(ValueError):
        solver.solve(u)


def test_diffusion_solver_rejects_mesh_without_interior():
    with pytest.raises(ValueError):
        DiffusionSolver(build_uniform_mesh(UNIT2, 2, 1))


# ------------------------------------------------------- LAPACK and RCM


def _band_problem(n, w, seed):
    """A random SPD band (w + 1, n) in LAPACK upper layout, Fortran order,
    and three right-hand sides."""
    rng = np.random.default_rng(seed)
    ab = np.zeros((w + 1, n), order="F")
    for k in range(1, w + 1):
        ab[w - k, k:] = 0.1 * rng.standard_normal(n - k)
    ab[w] = 2.0 + w
    return ab, rng.standard_normal((n, 3))


@pytest.fixture
def fresh_band_lapack():
    fem._band_lapack.cache_clear()
    yield
    fem._band_lapack.cache_clear()


@pytest.mark.parametrize("n,w", [(63, 1), (500, 7), (3969, 31)])
def test_bundled_openblas_matches_scipy_lapack(n, w):
    from scipy.linalg.lapack import dpbtrf, dpbtrs

    if fem._openblas_band_routines() is None:
        pytest.skip("numpy bundles no ILP64 OpenBLAS here")
    pbtrf, pbtrs = fem._band_lapack()
    ab, b = _band_problem(n, w, w)
    ref_c, ref_info = dpbtrf(ab, lower=0)
    c = ab.copy(order="F")
    assert pbtrf(c) == ref_info == 0
    np.testing.assert_array_equal(c, ref_c)
    for rhs in (b, b[:, 0]):
        x = np.array(rhs, order="F")
        pbtrs(c, x)
        np.testing.assert_array_equal(x, dpbtrs(ref_c, rhs, lower=0)[0])
    ab[w, n // 2] = -1.0
    assert pbtrf(ab.copy(order="F")) == dpbtrf(ab, lower=0)[1] > 0


def test_band_lapack_falls_back_to_scipy(monkeypatch, fresh_band_lapack):
    import scipy.linalg.lapack as lapack

    calls = []

    def counted(name):
        routine = getattr(lapack, name)

        def call(*args, **kwargs):
            calls.append(name)
            return routine(*args, **kwargs)

        return call

    monkeypatch.setattr(fem, "_openblas_band_routines", lambda: None)
    monkeypatch.setattr(lapack, "dpbtrf", counted("dpbtrf"))
    monkeypatch.setattr(lapack, "dpbtrs", counted("dpbtrs"))
    mesh = _jittered_2d(8, 0.3, 11)
    A = assemble_helmholtz(mesh, 3.0)
    B = np.random.default_rng(3).standard_normal((A.shape[0], 5))
    X = factorized_spd(A)(B)
    assert calls == ["dpbtrf", "dpbtrs"]
    np.testing.assert_allclose(X, np.linalg.solve(_dense(A), B), rtol=1e-12, atol=1e-12)
    with pytest.raises(np.linalg.LinAlgError):
        factorized_spd(oracles.sparse_operator(np.array([[1.0, 2.0], [2.0, 1.0]])))


def test_rcm_matches_scipy_on_default_hierarchy_meshes():
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    for dim, levels in ((1, list(range(1, 10))), (2, [1, 2, 3, 4, 5])):
        hier = build_hierarchy(
            default_g_box(dim), default_d_box(dim), dim, levels, [3] * len(levels)
        )
        for g, d, _ in hier.levels:
            for mesh in (g, d):
                A = assemble_helmholtz(mesh, 2.0)
                ref = reverse_cuthill_mckee(oracles.scipy_matrix(A), symmetric_mode=True)
                order = fem._reverse_cuthill_mckee(A.indptr, A.indices, A.shape[0])
                np.testing.assert_array_equal(order, ref)
