"""Estimators and adaptive drivers.

Single-level randomized QMC estimation, MLMC with the optimal sample
allocation, the greedy adaptive MLQMC loop, and the convergence diagnostics
(bias/variance/cost screening and N*variance tables).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

__all__ = [
    "LevelSampler",
    "MLQMCState",
    "DiagnosticsReport",
    "qmc_estimate",
    "mlmc_optimal_allocation",
    "mlqmc_run",
    "mlmc_run",
    "screening_run",
    "nvar_diagnostic",
    "fit_rate",
    "write_screening_csv",
    "write_nvar_csv",
    "write_estimate_csv",
    "AllocationError",
    "ConvergenceFailure",
]

DEFAULT_M = 32
MIN_FIT_LEVEL = 2


class AllocationError(ArithmeticError):
    """The optimal MLMC allocation cannot meet the variance budget in
    representable sample counts."""


class ConvergenceFailure(RuntimeError):
    """The adaptive loop hit the maximum level with the bias still large."""

    def __init__(self, message, state=None):
        super().__init__(message)
        self.state = state


@dataclass
class LevelSampler:
    """One telescoping level: Y = P_level - P_{level-1} (P alone on the
    first level).

    batch(m, n0, n1) returns the Y values of samples n0..n1-1 under
    randomization m; it must be deterministic given (m, n0, n1) and the
    seed bound at construction. cost is the per-sample cost in the active
    cost model (dof count or measured seconds). Under a measured cost,
    batch reports each call's seconds through record(seconds, samples),
    which folds them into cost; record is None when cost is fixed.
    """

    level: int
    cost: float
    batch: Callable[[int, int, int], np.ndarray]
    record: Optional[Callable[[float, int], None]] = None


def qmc_estimate(sampler: LevelSampler, N: int, M: int):
    """Randomized QMC mean over M digital shifts of N points each.

    Returns (mean, variance_of_mean, per_randomization_means); the variance
    is the sample variance of the M per-shift means divided by M.
    """
    if N < 1 or M < 2:
        raise ValueError("need N >= 1 and M >= 2")
    means = np.array([np.mean(sampler.batch(m, 0, N)) for m in range(M)])
    return float(means.mean()), float(means.var(ddof=1) / M), means


def mlmc_optimal_allocation(V: Sequence[float], C: Sequence[float], eps: float, theta: float):
    """Per-level sample counts minimizing cost subject to the sampling
    variance budget (1-theta) * eps^2."""
    V = np.asarray(V, dtype=float)
    C = np.asarray(C, dtype=float)
    if V.size == 0:
        raise ValueError("no levels")
    if np.any(V <= 0) or np.any(C <= 0):
        raise ValueError("variances and costs must be positive")
    if not (0.0 < theta < 1.0) or eps <= 0:
        raise ValueError("need eps > 0 and 0 < theta < 1")
    budget = (1.0 - theta) * eps**2
    total = np.sum(np.sqrt(V * C))
    N = np.ceil(total * np.sqrt(V / C) / budget)
    # also false for NaN, and for counts too large for int64
    if not (np.all(N < 2.0**62) and float(np.sum(V / N)) <= budget * (1.0 + 1e-12)):
        raise AllocationError("sample counts miss the variance budget")
    return N.astype(np.int64)


def fit_rate(levels: Sequence[int], values: Sequence[float], min_level: int = MIN_FIT_LEVEL):
    """Least-squares slope of -log2(values) against level, over levels >=
    min_level (all levels if that leaves fewer than two points)."""
    lv = np.asarray(levels, dtype=float)
    va = np.asarray(values, dtype=float)
    keep = (lv >= min_level) & (va > 0)
    if keep.sum() < 2:
        keep = va > 0
    if keep.sum() < 2:
        return float("nan")
    slope = np.polyfit(lv[keep], np.log2(va[keep]), 1)[0]
    return float(-slope)


@dataclass
class _LevelAccum:
    """Per-level running sums for the QMC driver."""

    N: int
    sums: np.ndarray  # (M,) per-shift sums of Y over the N samples

    @property
    def means(self) -> np.ndarray:
        return self.sums / self.N

    def mean(self) -> float:
        return float(self.means.mean())

    def variance_of_mean(self) -> float:
        return float(self.means.var(ddof=1) / self.means.size)


@dataclass
class MLQMCState:
    """Full state of the adaptive loop, also returned on failure."""

    eps: float
    theta: float
    L_min: int
    L_max: int
    M: int
    N: List[int] = field(default_factory=list)
    V: List[float] = field(default_factory=list)
    cost: List[float] = field(default_factory=list)
    means: List[float] = field(default_factory=list)
    trace: List[tuple] = field(default_factory=list)
    converged: bool = False

    @property
    def n_levels(self) -> int:
        return len(self.N)

    def estimate(self) -> float:
        return float(sum(self.means))

    def total_cost(self) -> float:
        return float(sum(n * self.M * c for n, c in zip(self.N, self.cost)))


def _bias_estimate(means: List[float]) -> float:
    """Geometric-decay extrapolation of the remaining bias from the finest
    level's mean; conservative floor of half its magnitude."""
    L = len(means) - 1
    yl = abs(means[L])
    lv = np.arange(1, L + 1)
    vals = np.array([abs(m) for m in means[1:]])
    alpha = fit_rate(lv, vals) if L >= 2 else 1.0
    if not math.isfinite(alpha):
        alpha = 1.0
    alpha = max(alpha, 0.5)
    return max(yl / (2.0**alpha - 1.0), yl / 2.0)


def mlqmc_run(
    samplers: Sequence[LevelSampler],
    eps: float,
    theta: float = 0.5,
    L_min: int = 2,
    L_max: Optional[int] = None,
    M: int = DEFAULT_M,
    variance_rule: Optional[Callable[[int, int], float]] = None,
):
    """Greedy adaptive multilevel QMC.

    Starts with one active level at N=1, doubles N on the level with the
    largest V/(C*N) until the variance budget (1-theta)*eps^2 is met, then
    extends the level count while the bias estimate exceeds sqrt(theta)*eps.
    Raises ConvergenceFailure (with state attached) if more than len(samplers)
    or L_max levels would be needed.

    variance_rule(level, N) overrides the empirical per-level estimator
    variance; used to make driver traces deterministic in tests.
    """
    if not samplers:
        raise ValueError("no samplers")
    if eps <= 0 or not (0.0 < theta < 1.0):
        raise ValueError("need eps > 0 and 0 < theta < 1")
    if L_max is None:
        L_max = len(samplers)
    L_max = min(L_max, len(samplers))
    if L_min > L_max:
        raise ValueError("L_min exceeds L_max")
    state = MLQMCState(eps, theta, L_min, L_max, M)
    accums: List[_LevelAccum] = []

    def add_level():
        ell = len(accums)
        y = np.array([samplers[ell].batch(m, 0, 1).sum() for m in range(M)])
        accums.append(_LevelAccum(1, y))
        state.trace.append(("extend", ell))

    def variance(ell: int) -> float:
        if variance_rule is not None:
            return float(variance_rule(ell, accums[ell].N))
        return accums[ell].variance_of_mean()

    def refresh():
        state.N = [a.N for a in accums]
        state.V = [variance(l) for l in range(len(accums))]
        state.means = [a.mean() for a in accums]
        state.cost = [samplers[l].cost for l in range(len(accums))]

    add_level()
    budget = (1.0 - theta) * eps**2
    while True:
        refresh()
        while sum(state.V) > budget:
            ratios = [
                state.V[l] / (samplers[l].cost * accums[l].N)
                for l in range(len(accums))
            ]
            ell = int(np.argmax(ratios))  # argmax returns the first (lowest) on ties
            a = accums[ell]
            extra = np.array(
                [samplers[ell].batch(m, a.N, 2 * a.N).sum() for m in range(M)]
            )
            a.sums = a.sums + extra
            a.N *= 2
            state.trace.append(("double", ell))
            refresh()
        L = len(accums)
        if L < L_min or _bias_estimate(state.means) > math.sqrt(theta) * eps:
            if L + 1 > L_max:
                raise ConvergenceFailure(
                    f"bias target not reached within {L_max} levels", state
                )
            add_level()
        else:
            break
    state.converged = True
    return state.estimate(), state


@dataclass
class _MCAccum:
    N: int = 0
    s1: float = 0.0
    s2: float = 0.0

    def add(self, y: np.ndarray):
        self.N += y.size
        self.s1 += float(y.sum())
        self.s2 += float((y * y).sum())

    def mean(self) -> float:
        return self.s1 / self.N

    def var(self) -> float:
        if self.N < 2:
            return float("inf")
        return max((self.s2 - self.s1**2 / self.N) / (self.N - 1), 1e-300)


def mlmc_run(
    samplers: Sequence[LevelSampler],
    eps: float,
    theta: float = 0.5,
    L_min: int = 2,
    L_max: Optional[int] = None,
    N_init: int = 64,
):
    """Classic adaptive MLMC with the optimal allocation formula.

    Samplers are used in plain Monte Carlo mode with randomization index 0;
    sample n of level ell is deterministic given the bound seed. Returns
    (estimate, state) with the same state type as mlqmc_run (M = 1).
    """
    if not samplers:
        raise ValueError("no samplers")
    if L_max is None:
        L_max = len(samplers)
    L_max = min(L_max, len(samplers))
    state = MLQMCState(eps, theta, L_min, L_max, 1)
    accums: List[_MCAccum] = []
    targets: List[int] = []

    def add_level():
        accums.append(_MCAccum())
        targets.append(N_init)
        state.trace.append(("extend", len(accums) - 1))

    for _ in range(min(L_min, L_max)):
        add_level()
    while True:
        for ell, acc in enumerate(accums):
            if acc.N < targets[ell]:
                acc.add(samplers[ell].batch(0, acc.N, targets[ell]))
        V = [a.var() for a in accums]
        C = [samplers[l].cost for l in range(len(accums))]
        opt = mlmc_optimal_allocation(V, C, eps, theta)
        grew = False
        for ell, n_opt in enumerate(opt):
            if n_opt > targets[ell]:
                targets[ell] = int(n_opt)
                grew = True
        if grew:
            continue
        means = [a.mean() for a in accums]
        if _bias_estimate(means) > math.sqrt(theta) * eps:
            if len(accums) + 1 > L_max:
                state.N = [a.N for a in accums]
                raise ConvergenceFailure(
                    f"bias target not reached within {L_max} levels", state
                )
            add_level()
            continue
        break
    state.N = [a.N for a in accums]
    state.V = [a.var() / a.N for a in accums]
    state.means = [a.mean() for a in accums]
    state.cost = [samplers[l].cost for l in range(len(accums))]
    state.converged = True
    return state.estimate(), state


@dataclass
class DiagnosticsReport:
    """Screening tables and fitted decay/growth rates."""

    levels: List[int]
    N: int
    M: int
    mean_P: List[float]  # cumulative telescoped E[P_level]
    mean_Y: List[float]
    var_Y: List[float]  # per-sample variance, pooled over all M*N draws
    cost: List[float]
    alpha: float
    beta: float
    gamma: float

    def rows(self):
        for i, ell in enumerate(self.levels):
            yield (ell, self.N, self.M, self.mean_Y[i], self.var_Y[i], self.cost[i])


def screening_run(samplers: Sequence[LevelSampler], N_screen: int, M: int) -> DiagnosticsReport:
    """Fixed-size pilot run estimating per-level bias, variance, and cost."""
    if N_screen < 16:
        raise ValueError("need at least 16 screening samples")
    mean_Y, var_Y, cost = [], [], []
    for s in samplers:
        ys = np.concatenate([s.batch(m, 0, N_screen) for m in range(M)])
        mean_Y.append(float(ys.mean()))
        var_Y.append(float(ys.var(ddof=1)))
        cost.append(s.cost)
    levels = [s.level for s in samplers]
    mean_P = list(np.cumsum(mean_Y))
    alpha = fit_rate(levels[1:], np.abs(mean_Y[1:]))
    beta = fit_rate(levels[1:], var_Y[1:])
    gamma = -fit_rate(levels, cost)
    return DiagnosticsReport(levels, N_screen, M, mean_P, mean_Y, var_Y, cost, alpha, beta, gamma)


def nvar_diagnostic(samplers: Sequence[LevelSampler], N_list: Sequence[int], M: int):
    """Table of log2(N * estimator variance) per level and sample count.

    Flat rows signal the plain MC rate; a decreasing trend is the QMC-like
    pre-asymptotic regime.
    """
    for N in N_list:
        if N & (N - 1):
            raise ValueError("sample counts must be powers of two")
    rows = []
    for s in samplers:
        for N in N_list:
            _, vom, _ = qmc_estimate(s, int(N), M)
            rows.append((s.level, int(N), float(np.log2(max(N * vom, 1e-300)))))
    return rows


def write_screening_csv(path, report: DiagnosticsReport):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["level", "N", "M", "mean", "var", "cost"])
        for row in report.rows():
            w.writerow([repr(x) if isinstance(x, float) else x for x in row])


def write_nvar_csv(path, rows):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["level", "N", "log2_NV"])
        for level, N, v in rows:
            w.writerow([level, N, repr(v)])


def write_estimate_csv(path, rows):
    """Rows: (epsilon, total_cost, estimate) or with a trailing status flag."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["epsilon", "total_cost", "estimate"])
        for row in rows:
            w.writerow([repr(x) if isinstance(x, float) else x for x in row])
