"""The log-normal diffusion test problem on a mesh hierarchy.

Ties together the hierarchy, supermesh tables, noise sampling, and the PDE
solves into per-level sampler closures: level 0 evaluates the output
functional itself, higher levels the coupled fine/coarse difference driven
by one shared noise event.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from . import fem
from .fem import MaternParams
from .lowdisc import (
    PURPOSE_SHIFT,
    DigitalShift,
    RandomStream,
    SobolGenerator,
    inverse_normal_cdf,
    normal_vector,
    safe_uniform,
    shifted_point,
    sobol_points,
)
from .mesh import Box, MeshHierarchy, build_hierarchy
from .mlqmc import LevelSampler
from .supermesh import Supermesh, build_supermesh, build_three_way_supermesh
from .whitenoise import (
    CellGeometryTables,
    HaarLayout,
    apply_noise_maps,
    build_layout,
    build_tables,
)

__all__ = [
    "LevelContext",
    "build_level_contexts",
    "make_level_samplers",
    "sample_fields",
    "sample_field_batch",
    "sample_noise",
    "default_g_box",
    "default_d_box",
]

# batch size is chosen so one chunk stays within this many scratch floats
CHUNK_FLOAT_BUDGET = 4_000_000


def default_g_box(dim: int) -> Box:
    return Box((-0.5,) * dim, (0.5,) * dim)


def default_d_box(dim: int) -> Box:
    return Box((-1.0,) * dim, (1.0,) * dim)


@dataclass
class LevelContext:
    """Precomputed state for one hierarchy position.

    position 0 has no coarse half; every context owns its supermesh and the
    noise operator built from it, and shares its wavelet layout with every
    context of the same Haar level and its prefactorized Helmholtz solves
    with its neighbours.
    """

    position: int
    params: MaternParams
    g_mesh: object
    d_mesh: object
    haar: object
    layout: HaarLayout
    supermesh: Supermesh
    tables: CellGeometryTables
    solve_fine: Callable
    inj_fine: np.ndarray  # D -> G vertex injection
    g_coarse: object = None
    d_coarse: object = None
    solve_coarse: Optional[Callable] = None
    inj_coarse: Optional[np.ndarray] = None
    dof_cost: float = 0.0

    @property
    def coupled(self) -> bool:
        return self.d_coarse is not None

    @property
    def chunk_size(self) -> int:
        per_sample = (
            self.layout.total_dim
            + self.tables.cell_block_size
            + 4 * self.d_mesh.n_vertices
        )
        return max(1, CHUNK_FLOAT_BUDGET // per_sample)


def build_level_contexts(
    dim: int,
    mesh_levels: List[int],
    haar_levels: List[int],
    params: MaternParams,
    g_box: Optional[Box] = None,
    d_box: Optional[Box] = None,
) -> List[LevelContext]:
    """One context per hierarchy position; mesh_levels are the dyadic
    refinement indices (mesh level k: 2^k cells per axis on G) and
    haar_levels the per-position wavelet truncation levels."""
    if len(mesh_levels) != len(haar_levels):
        raise ValueError("mesh_levels and haar_levels must have equal length")
    if any(b > a for a, b in zip(haar_levels[1:], haar_levels)):
        raise ValueError("haar_levels must be non-decreasing")
    g_box = g_box or default_g_box(dim)
    d_box = d_box or default_d_box(dim)
    hier = build_hierarchy(g_box, d_box, dim, mesh_levels, haar_levels)
    solves = {}
    for pos, (g, d, _) in enumerate(hier.levels):
        solves[pos] = fem.factorized_spd(fem.assemble_helmholtz(d, params.kappa))
    layouts = {lvl: build_layout(dim, lvl) for lvl in set(haar_levels)}
    contexts = []
    for pos, (g, d, haar) in enumerate(hier.levels):
        layout = layouts[haar.level]
        inj = hier.injections[pos]
        if pos == 0:
            sm = build_supermesh(d, haar)
            tables = build_tables(d, haar, sm)
            ctx = LevelContext(
                pos, params, g, d, haar, layout, sm, tables, solves[pos], inj
            )
            ctx.dof_cost = float(
                d.interior_vertices.size + g.interior_vertices.size
            )
        else:
            gc, dc, _ = hier.levels[pos - 1]
            sm = build_three_way_supermesh(d, dc, haar)
            tables = build_tables(d, haar, sm, coarse=dc)
            ctx = LevelContext(
                pos,
                params,
                g,
                d,
                haar,
                layout,
                sm,
                tables,
                solves[pos],
                inj,
                g_coarse=gc,
                d_coarse=dc,
                solve_coarse=solves[pos - 1],
                inj_coarse=hier.injections[pos - 1],
            )
            ctx.dof_cost = float(
                d.interior_vertices.size
                + dc.interior_vertices.size
                + g.interior_vertices.size
                + gc.interior_vertices.size
            )
        contexts.append(ctx)
    return contexts


def _qmc_driver(ctx: LevelContext, seed: int, m: int, use_qmc: bool):
    """The Sobol' generator and the digital shift of replicate m that drive
    ctx's QMC block; (None, None) selects plain Monte Carlo."""
    if not use_qmc:
        return None, None
    qd = ctx.layout.qmc_dim
    shift = DigitalShift.from_stream(
        RandomStream(seed, ctx.position, m, 0, PURPOSE_SHIFT), qd
    )
    return SobolGenerator(qd), shift


def _draw_inputs(
    ctx: LevelContext,
    seed: int,
    m: int,
    n0: int,
    n1: int,
    gen: Optional[SobolGenerator],
    shift: Optional[DigitalShift],
):
    """Coefficient and cell-block draws for samples n0..n1-1, honoring the
    fixed per-sample order: QMC block, MC wavelet block, cell block.
    gen=None draws the whole wavelet block from the sample's stream."""
    B = n1 - n0
    lay = ctx.layout
    z = np.empty((B, lay.total_dim))
    zc = np.empty((B, ctx.tables.cell_block_size))
    q = 0
    if gen is not None:
        pts = shifted_point(sobol_points(gen, np.arange(n0, n1)), shift)
        z[:, : lay.qmc_dim] = inverse_normal_cdf(safe_uniform(pts))
        q = lay.qmc_dim
    for i in range(B):
        stream = RandomStream(seed, ctx.position, m, n0 + i)
        if q < lay.total_dim:
            z[i, q:] = normal_vector(stream, lay.total_dim - q)
        zc[i] = normal_vector(stream, zc.shape[1])
    return z, zc.reshape(B, ctx.tables.n_cells, ctx.tables.dim + 1)


def _matern_batch(ctx: LevelContext, z: np.ndarray, z_cells: np.ndarray):
    """Gaussian fields on G for each draw: (fields_fine, fields_coarse)."""
    bs = apply_noise_maps(ctx.tables, ctx.layout, z, z_cells)
    u_f = fem.matern_field_from_noise(ctx.d_mesh, ctx.params, bs[0], ctx.solve_fine)
    out_f = u_f[:, ctx.inj_fine]
    if not ctx.coupled:
        return out_f, None
    u_c = fem.matern_field_from_noise(
        ctx.d_coarse, ctx.params, bs[1], ctx.solve_coarse
    )
    return out_f, u_c[:, ctx.inj_coarse]


def _functional(solver: fem.DiffusionSolver, u_g: np.ndarray, shift: float) -> np.ndarray:
    """P = squared L2 norm of the pressure for each coefficient field."""
    return solver.norm_sq(solver.solve(u_g, shift))


def _y_batch(
    ctx: LevelContext,
    seed: int,
    m: int,
    n0: int,
    n1: int,
    gen,
    shift,
    fine,
    coarse,
) -> np.ndarray:
    out = np.empty(n1 - n0)
    step = ctx.chunk_size
    for a in range(n0, n1, step):
        b = min(a + step, n1)
        z, zc = _draw_inputs(ctx, seed, m, a, b, gen, shift)
        u_f, u_c = _matern_batch(ctx, z, zc)
        y = _functional(fine, u_f, ctx.params.mean_shift)
        if ctx.coupled:
            y = y - _functional(coarse, u_c, ctx.params.mean_shift)
        out[a - n0 : b - n0] = y
    return out


def make_level_samplers(
    contexts: List[LevelContext],
    seed: int,
    use_qmc: bool = True,
    cost_model: str = "dofs",
) -> List[LevelSampler]:
    """Sampler closures for the estimator drivers.

    With cost_model="dofs" the per-sample cost is the fixed interior dof
    count over the systems each sample solves; "wall" starts from that and
    is replaced by the measured running mean seconds per sample.
    """
    if cost_model not in ("dofs", "wall"):
        raise ValueError("cost_model must be 'dofs' or 'wall'")
    solvers: dict = {}
    return [_make_sampler(c, seed, use_qmc, cost_model, solvers) for c in contexts]


def _diffusion(g_mesh, solvers: dict) -> fem.DiffusionSolver:
    """The diffusion solver of a G mesh, built once per mesh: the fine mesh
    of one position is the coarse mesh of the next."""
    key = id(g_mesh)
    if key not in solvers:
        solvers[key] = fem.DiffusionSolver(g_mesh)
    return solvers[key]


def _make_sampler(ctx, seed, use_qmc, cost_model, solvers):
    fine = _diffusion(ctx.g_mesh, solvers)
    coarse = _diffusion(ctx.g_coarse, solvers) if ctx.coupled else None
    sampler = LevelSampler(level=ctx.position, cost=ctx.dof_cost, batch=None)
    timing = {"seconds": 0.0, "samples": 0}
    # batches of one level may run on several pool threads at once
    lock = threading.Lock()

    def batch(m: int, n0: int, n1: int) -> np.ndarray:
        gen, shift = _qmc_driver(ctx, seed, m, use_qmc)
        t0 = time.perf_counter()
        y = _y_batch(ctx, seed, m, n0, n1, gen, shift, fine, coarse)
        if cost_model == "wall":
            elapsed = time.perf_counter() - t0
            with lock:
                timing["seconds"] += elapsed
                timing["samples"] += n1 - n0
                sampler.cost = timing["seconds"] / timing["samples"]
        return y

    sampler.batch = batch
    return sampler


def sample_field_batch(
    ctx: LevelContext, seed: int, m: int, n0: int, n1: int, use_qmc: bool = False
) -> np.ndarray:
    """Matern fields on G for samples n0..n1-1 (rows), mean shift applied."""
    gen, shift = _qmc_driver(ctx, seed, m, use_qmc)
    out = np.empty((n1 - n0, ctx.g_mesh.n_vertices))
    step = ctx.chunk_size
    for a in range(n0, n1, step):
        b = min(a + step, n1)
        z, zc = _draw_inputs(ctx, seed, m, a, b, gen, shift)
        u_f, _ = _matern_batch(ctx, z, zc)
        out[a - n0 : b - n0] = u_f + ctx.params.mean_shift
    return out


def sample_fields(ctx: LevelContext, seed: int, m: int, n: int, use_qmc: bool = False):
    """Matern field(s) on G for a single sample, mean shift applied.

    Returns (field_fine, field_coarse_or_None); used by the field dump
    command and the statistical validation tests.
    """
    gen, shift = _qmc_driver(ctx, seed, m, use_qmc)
    z, zc = _draw_inputs(ctx, seed, m, n, n + 1, gen, shift)
    u_f, u_c = _matern_batch(ctx, z, zc)
    shift_c = ctx.params.mean_shift
    if ctx.coupled:
        return u_f[0] + shift_c, u_c[0] + shift_c
    return u_f[0] + shift_c, None


def sample_noise(ctx: LevelContext, seed: int, m: int, n: int, use_qmc: bool = False):
    """White-noise pairings for a single sample, for inspection dumps.

    Returns (b_fine, b_coarse_or_None).
    """
    gen, shift = _qmc_driver(ctx, seed, m, use_qmc)
    z, zc = _draw_inputs(ctx, seed, m, n, n + 1, gen, shift)
    bs = apply_noise_maps(ctx.tables, ctx.layout, z, zc)
    return bs[0][0], bs[1][0] if ctx.coupled else None
