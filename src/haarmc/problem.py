"""The log-normal diffusion test problem on a mesh hierarchy.

Ties together the hierarchy, supermesh tables, noise sampling, and the PDE
solves into per-level sampler closures: level 0 evaluates the output
functional itself, higher levels the coupled fine/coarse difference driven
by one shared noise event.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from . import fem
from .fem import MaternParams
from .lowdisc import (
    PURPOSE_NOISE,
    PURPOSE_SHIFT,
    DigitalShift,
    SobolGenerator,
    StreamChunk,
    inverse_normal_cdf,
    normal_vector,
    shifted_point,  # not called: the benchmark's traced runs wrap problem.shifted_point
    sobol_points,
)
from .mesh import Box, HaarMesh, SimplicialMesh, build_hierarchy
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
    "Space",
    "LevelContext",
    "build_level_contexts",
    "make_level_samplers",
    "sample_fields",
    "sample_noise",
    "default_g_box",
    "default_d_box",
]

# batch size is chosen so one chunk stays within this many scratch floats
# (2.8 MB), but holds at least 24 samples (LevelContext.chunk_size). The
# chunk, not the call, bounds a call's memory (its traced peak runs 1.4 to
# 2.3 times a chunk's bytes): 8 replicates of screen-2d's finest level take
# 4.7 MB, and 39 MB at 4 000 000 floats. Smaller chunks cost time: under
# the CLI's allocator policy, per-replicate calls on the default 2D config's
# mesh levels 3 and 4 (82- and 24-sample chunks, against whole 128-sample
# replicates at 4 000 000 floats) took 0.101-0.110 against 0.087-0.089 ms
# and 0.387-0.399 against 0.324-0.327 ms per sample (min of 5, two runs, a
# 2-vCPU Xeon VM), 14 to 24 % more, and about as much more without it.
CHUNK_FLOAT_BUDGET = 350_000


def default_g_box(dim: int) -> Box:
    return Box((-0.5,) * dim, (0.5,) * dim)


def default_d_box(dim: int) -> Box:
    return Box((-1.0,) * dim, (1.0,) * dim)


@dataclass
class Space:
    """One discretisation of the hierarchy, built once per position and
    shared by that position's context (as its fine space) and the next
    one's (as its coarse space): the meshes of G and D, the D -> G vertex
    injection, the prefactorized Helmholtz solve on D and the diffusion
    solver on G."""

    g_mesh: SimplicialMesh
    d_mesh: SimplicialMesh
    inj: np.ndarray
    solve: Callable
    diffusion: fem.DiffusionSolver


@dataclass
class LevelContext:
    """Precomputed state for one hierarchy position.

    `spaces` is [fine] at position 0 and [fine, coarse] above it, in the
    order of `tables.spaces`; the coarse space is the previous position's
    fine space. Every context owns its supermesh and the noise operator
    built from it, and shares its wavelet layout with every context of the
    same Haar level.
    """

    position: int
    params: MaternParams
    haar: HaarMesh
    layout: HaarLayout
    supermesh: Supermesh
    tables: CellGeometryTables
    spaces: List[Space]

    @property
    def coupled(self) -> bool:
        return len(self.spaces) == 2

    @property
    def dof_cost(self) -> float:
        """Interior dofs of the systems one sample solves."""
        return float(
            sum(
                s.d_mesh.interior_vertices.size + s.g_mesh.interior_vertices.size
                for s in self.spaces
            )
        )

    @property
    def chunk_size(self) -> int:
        operators = [self.layout.H, self.tables.S]
        for st in self.tables.spaces:
            operators += [st.I_mat, st.G_map]
        for s in self.spaces:
            operators += [s.diffusion.W, s.diffusion.mass]
        per_sample = (
            self.layout.total_dim
            + self.tables.cell_block_size
            + 4 * self.spaces[0].d_mesh.n_vertices
            + sum(s.diffusion.factor_floats for s in self.spaces)
            # the widest row a product gathers beyond its fixed scratch
            + max(op.gather_floats for op in operators)
        )
        # Short chunks cost more per sample (the default 2D config's mesh
        # level 4: 0.62 ms at 19 samples, 0.54 at 24, 0.51 at 32); 32 would
        # raise screen-2d's peak RSS, its finest level then taking whole
        # 32-sample replicates as at 4 000 000 floats.
        return max(24, CHUNK_FLOAT_BUDGET // per_sample)


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
    haar_levels the per-position wavelet truncation levels. build_hierarchy
    raises ValueError on lists of unequal length or decreasing Haar levels."""
    g_box = g_box or default_g_box(dim)
    d_box = d_box or default_d_box(dim)
    hier = build_hierarchy(g_box, d_box, dim, mesh_levels, haar_levels)
    spaces = []
    for (g, d, _), inj in zip(hier.levels, hier.injections):
        solve = fem.factorized_spd(fem.assemble_helmholtz(d, params.kappa))
        spaces.append(Space(g, d, inj, solve, fem.DiffusionSolver(g)))
    layouts = {lvl: build_layout(dim, lvl) for lvl in set(haar_levels)}
    contexts = []
    for pos, (_, d, haar) in enumerate(hier.levels):
        if pos == 0:
            own = [spaces[0]]
            sm = build_supermesh(d, haar)
            tables = build_tables(d, haar, sm)
        else:
            own = [spaces[pos], spaces[pos - 1]]
            dc = own[1].d_mesh
            sm = build_three_way_supermesh(d, dc, haar)
            tables = build_tables(d, haar, sm, coarse=dc)
        contexts.append(
            LevelContext(pos, params, haar, layouts[haar.level], sm, tables, own)
        )
    return contexts


def _shifts(ctx: LevelContext, seed: int, ms: range) -> DigitalShift:
    """The digital shifts of replicates ms, one mask row each; replicate m's
    is drawn from the stream (seed, position, m, 0, PURPOSE_SHIFT)."""
    streams = StreamChunk(seed, ctx.position, np.arange(ms.start, ms.stop), 0, PURPOSE_SHIFT)
    masks = np.empty((len(ms), ctx.layout.qmc_dim), dtype=np.uint64)
    for k in range(len(ms)):
        streams.select(k)
        masks[k] = DigitalShift.from_stream(streams, masks.shape[1]).masks
    return DigitalShift(masks)


def _lattice(gen: SobolGenerator, n: np.ndarray) -> np.ndarray:
    """The 32-bit integers of gen's points n: a point is k / 2^32, so
    scaling it back is exact."""
    return (sobol_points(gen, n) * 2.0**32).astype(np.uint64)


def _qmc_normals(bits: np.ndarray, masks: np.ndarray, a: int, B: int) -> np.ndarray:
    """The QMC block of rows a, a + 1, ... of a replicate-major grid of B
    samples per replicate, from the rows' Sobol' lattice points `bits`
    (overwritten): each row XORed with its replicate's shift mask, scaled
    to [0, 1) with 0 nudged to 2^-33 as safe_uniform does, and mapped
    through the inverse normal CDF."""
    # the rows of replicate j are rows j * B - a .. (j + 1) * B - a - 1
    for j in range(a // B, (a + len(bits) - 1) // B + 1):
        bits[max(0, j * B - a) : (j + 1) * B - a] ^= masks[j]
    u = np.multiply(bits, 2.0**-32)
    np.copyto(u, 2.0**-33, where=bits == 0)
    return inverse_normal_cdf(u)


def _draw_inputs(ctx: LevelContext, seed: int, ms: range, n0: int, n1: int, use_qmc: bool):
    """Coefficient and cell-block draws of samples n0..n1-1 of replicates
    ms, yielded as (z, z_cells) for consecutive slices of ctx.chunk_size
    rows of the replicate-major (m, n) grid (the last may be shorter).

    Each sample honours the fixed order QMC block, MC wavelet block, cell
    block; without QMC its whole wavelet block comes from its stream. A
    chunk's z and z_cells are views of one array with a row per sample.
    """
    B = n1 - n0
    m = np.repeat(np.arange(ms.start, ms.stop), B)
    n = np.tile(np.arange(n0, n1), len(ms))
    lay = ctx.layout
    step = ctx.chunk_size
    q = lay.qmc_dim if use_qmc else 0
    width = lay.total_dim + ctx.tables.cell_block_size
    if q:
        gen = SobolGenerator(q)
        masks = _shifts(ctx, seed, ms).masks
        # With B <= step the call's points fit a chunk's budget and serve all
        # its chunks; a chunk shorter than B holds each sample index at most
        # once, so evaluating its own rows repeats nothing.
        lattice = _lattice(gen, np.arange(n0, n1)) if B <= step else None
    for a in range(0, m.size, step):
        mc, nc = m[a : a + step], n[a : a + step]
        draws = np.empty((mc.size, width))
        if q:
            # one statement, so that no scratch array of it is held while
            # the caller works on the chunk
            draws[:, :q] = _qmc_normals(
                _lattice(gen, nc) if lattice is None else lattice[nc - n0], masks, a, B
            )
        streams = StreamChunk(seed, ctx.position, mc, nc, PURPOSE_NOISE)
        for i, out in enumerate(draws[:, q:]):
            streams.select(i)
            normal_vector(streams, width - q, out=out)
        z_cells = draws[:, lay.total_dim :].reshape(mc.size, ctx.tables.n_cells, ctx.tables.dim + 1)
        yield draws[:, : lay.total_dim], z_cells


def _matern_batch(ctx: LevelContext, z: np.ndarray, z_cells: np.ndarray):
    """Gaussian fields on G for each draw, one (B, n_g) array per space."""
    bs = apply_noise_maps(ctx.tables, ctx.layout, z, z_cells)
    return [
        fem.matern_field_from_noise(s.d_mesh, ctx.params, b, s.solve)[:, s.inj]
        for s, b in zip(ctx.spaces, bs)
    ]


def _y_batch(ctx: LevelContext, seed: int, ms: range, n0: int, n1: int, use_qmc: bool):
    """Y of samples n0..n1-1 of replicates ms, (len(ms), n1 - n0): P =
    squared L2 norm of the pressure on the fine space, minus the same on
    the coarse space of a coupled level."""
    out = np.empty(len(ms) * (n1 - n0))
    a = 0
    for z, zc in _draw_inputs(ctx, seed, ms, n0, n1, use_qmc):
        p = [
            s.diffusion.norm_sq(s.diffusion.solve(u, ctx.params.mean_shift))
            for s, u in zip(ctx.spaces, _matern_batch(ctx, z, zc))
        ]
        out[a : a + len(z)] = p[0] - p[1] if ctx.coupled else p[0]
        a += len(z)
    return out.reshape(len(ms), n1 - n0)


def make_level_samplers(
    contexts: List[LevelContext], seed: int, use_qmc: bool = True
) -> List[LevelSampler]:
    """Sampler closures for the estimator drivers. A sampler's cost is its
    context's dof_cost: the interior dof count over the systems each
    sample solves."""
    return [_make_sampler(c, seed, use_qmc) for c in contexts]


def _make_sampler(ctx, seed, use_qmc):
    def batch(ms: range, n0: int, n1: int) -> np.ndarray:
        if not (isinstance(ms, range) and len(ms) and ms.step == 1 and ms.start >= 0):
            raise ValueError("replicates must be a non-empty range m0..m1-1 with m0 >= 0")
        return _y_batch(ctx, seed, ms, n0, n1, use_qmc)

    return LevelSampler(ctx.position, ctx.dof_cost, batch)


def sample_fields(ctx: LevelContext, seed: int, m: int, n: int, use_qmc: bool = False):
    """Matern field(s) on G for a single sample, mean shift applied.

    Returns (field_fine, field_coarse_or_None); used by the field dump
    command and the statistical validation tests.
    """
    z, zc = next(_draw_inputs(ctx, seed, range(m, m + 1), n, n + 1, use_qmc))
    fields = [u[0] + ctx.params.mean_shift for u in _matern_batch(ctx, z, zc)]
    return fields[0], fields[1] if ctx.coupled else None


def sample_noise(ctx: LevelContext, seed: int, m: int, n: int, use_qmc: bool = False):
    """White-noise pairings for a single sample, for inspection dumps.

    Returns (b_fine, b_coarse_or_None).
    """
    z, zc = next(_draw_inputs(ctx, seed, range(m, m + 1), n, n + 1, use_qmc))
    bs = apply_noise_maps(ctx.tables, ctx.layout, z, zc)
    return bs[0][0], bs[1][0] if ctx.coupled else None
