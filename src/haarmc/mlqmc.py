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
    "qmc_run",
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
MAX_QMC_DOUBLINGS = 24


class AllocationError(ArithmeticError):
    """The optimal MLMC allocation cannot meet the variance budget in
    representable sample counts."""


class ConvergenceFailure(RuntimeError):
    """An adaptive driver stopped short of its tolerance: the maximum level
    with the bias still large, or the largest N with the variance still
    over budget."""

    def __init__(self, message, state=None):
        super().__init__(message)
        self.state = state


@dataclass
class LevelSampler:
    """One telescoping level: Y = P_level - P_{level-1} (P alone on the
    first level).

    batch(ms, n0, n1) returns the Y values of samples n0..n1-1 (0 <= n0 < n1)
    under each randomization m of ms, a range of consecutive replicates, as
    a (len(ms), n1 - n0) array, replicate-major; entry (m, n) must be
    deterministic given (m, n) and the seed bound at construction. The
    problem's samplers may change it at rounding level with how the calls
    are split, from band width 16 up (README, "Reproducibility").
    cli._cached, which keeps values across runs, is exact all the same:
    the QMC drivers ask only for the aligned doubling blocks [0, 1),
    [1, 2), [2, 4), ..., so it draws each in the call a run without it
    makes. cost is the fixed per-sample cost the drivers weigh levels by:
    for the problem's samplers, the interior dof count of the systems one
    sample solves.
    """

    level: int
    cost: float
    batch: Callable[[range, int, int], np.ndarray]


def qmc_run(sampler: LevelSampler, eps: float, theta: float = 0.5, M: int = DEFAULT_M):
    """Single-level randomized QMC to tolerance eps: mlqmc_run's doubling
    loop on the one level, with no bias extension; each sample is drawn
    once.

    Returns (estimate, state) with the same state type as mlqmc_run, one
    level holding N, the variance of the mean over M shifts, the
    per-sample cost and the mean; raises ConvergenceFailure (with state
    attached) if N = 2**MAX_QMC_DOUBLINGS still misses the budget
    (1-theta)*eps^2.
    """
    _check_run([sampler], eps, theta, M)
    state, accums = MLQMCState(eps, theta, M), []
    _extend([sampler], accums, state)
    _double_to_budget([sampler], accums, state)
    state.converged = True
    return state.estimate(), state


def _check_run(samplers, eps, theta, M=2, L_min=1, L_max=None) -> int:
    """The drivers' one argument check, made before anything is drawn
    (mlmc_run, which has no shifts, leaves M at 2). Returns L_max capped
    at the number of samplers."""
    if not samplers:
        raise ValueError("no samplers")
    if not (eps > 0 and 0.0 < theta < 1.0 and M >= 2):
        raise ValueError("need eps > 0, 0 < theta < 1 and M >= 2")
    L_max = len(samplers) if L_max is None else min(L_max, len(samplers))
    if L_min > L_max:
        raise ValueError("L_min exceeds L_max")
    return L_max


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
    M: int
    N: List[int] = field(default_factory=list)
    V: List[float] = field(default_factory=list)
    cost: List[float] = field(default_factory=list)
    means: List[float] = field(default_factory=list)
    trace: List[tuple] = field(default_factory=list)
    converged: bool = False

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


def _extend(
    samplers: Sequence[LevelSampler], accums: List[_LevelAccum], state: MLQMCState
) -> None:
    """Activate the next level of samplers at N = 1, appending its sums to
    accums."""
    ell = len(accums)
    accums.append(_LevelAccum(1, samplers[ell].batch(range(state.M), 0, 1).sum(axis=1)))
    state.trace.append(("extend", ell))


def _double_to_budget(
    samplers: Sequence[LevelSampler],
    accums: List[_LevelAccum],
    state: MLQMCState,
    variance_rule: Optional[Callable[[int, int], float]] = None,
) -> None:
    """The QMC drivers' one loop: while the active levels' variances of
    the mean sum to more than the budget (1-theta)*eps^2, double N on the
    level with the largest V/(C*N), adding samples N..2N-1 of every shift
    to its per-shift sums in accums, one per active level. state's N, V,
    means and costs are refreshed first and after every step. Raises
    ConvergenceFailure (with state attached) when the level to double
    already holds 2**MAX_QMC_DOUBLINGS samples.
    """

    def variance(ell: int) -> float:
        if variance_rule is not None:
            return float(variance_rule(ell, accums[ell].N))
        return accums[ell].variance_of_mean()

    def refresh():
        state.N = [a.N for a in accums]
        state.V = [variance(l) for l in range(len(accums))]
        state.means = [a.mean() for a in accums]
        state.cost = [samplers[l].cost for l in range(len(accums))]

    budget = (1.0 - state.theta) * state.eps**2
    refresh()
    while sum(state.V) > budget:
        ratios = [
            state.V[l] / (samplers[l].cost * accums[l].N) for l in range(len(accums))
        ]
        ell = int(np.argmax(ratios))  # argmax returns the first (lowest) on ties
        a = accums[ell]
        if a.N >= 2**MAX_QMC_DOUBLINGS:
            raise ConvergenceFailure(f"variance budget not met at N = {a.N}", state)
        a.sums = a.sums + samplers[ell].batch(range(state.M), a.N, 2 * a.N).sum(axis=1)
        a.N *= 2
        state.trace.append(("double", ell))
        refresh()


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
    or L_max levels would be needed, or a level more than
    2**MAX_QMC_DOUBLINGS samples.

    variance_rule(level, N) overrides the empirical per-level estimator
    variance; used to make driver traces deterministic in tests.
    """
    L_max = _check_run(samplers, eps, theta, M, L_min, L_max)
    state, accums = MLQMCState(eps, theta, M), []
    while True:
        _extend(samplers, accums, state)
        _double_to_budget(samplers, accums, state, variance_rule)
        L = len(accums)
        if not (L < L_min or _bias_estimate(state.means) > math.sqrt(theta) * eps):
            break
        if L + 1 > L_max:
            raise ConvergenceFailure(f"bias target not reached within {L_max} levels", state)
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
    (estimate, state) with the same state type as mlqmc_run (M = 1); raises
    ConvergenceFailure (with the state of the samples drawn attached) if
    more than L_max levels would be needed, or if the optimal allocation
    needs more samples than an int64 holds.
    """
    L_max = _check_run(samplers, eps, theta, L_min=L_min, L_max=L_max)
    state = MLQMCState(eps, theta, 1)
    accums: List[_MCAccum] = []
    targets: List[int] = []

    def add_level():
        accums.append(_MCAccum())
        targets.append(N_init)
        state.trace.append(("extend", len(accums) - 1))

    for _ in range(L_min):
        add_level()
    while True:
        for ell, acc in enumerate(accums):
            if acc.N < targets[ell]:
                acc.add(samplers[ell].batch(range(1), acc.N, targets[ell])[0])
        V = [a.var() for a in accums]
        state.N = [a.N for a in accums]
        state.V = [v / a.N for v, a in zip(V, accums)]
        state.means = [a.mean() for a in accums]
        state.cost = [samplers[l].cost for l in range(len(accums))]
        try:
            opt = mlmc_optimal_allocation(V, state.cost, eps, theta)
        except AllocationError as exc:
            raise ConvergenceFailure(str(exc), state) from exc
        grew = False
        for ell, n_opt in enumerate(opt):
            if n_opt > targets[ell]:
                targets[ell] = int(n_opt)
                grew = True
        if grew:
            continue
        if _bias_estimate(state.means) > math.sqrt(theta) * eps:
            if len(accums) + 1 > L_max:
                raise ConvergenceFailure(
                    f"bias target not reached within {L_max} levels", state
                )
            add_level()
            continue
        break
    state.converged = True
    return state.estimate(), state


@dataclass
class DiagnosticsReport:
    """Screening tables and fitted decay/growth rates."""

    levels: List[int]
    N: int
    M: int
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
        ys = s.batch(range(M), 0, N_screen).ravel()
        mean_Y.append(float(ys.mean()))
        var_Y.append(float(ys.var(ddof=1)))
        cost.append(s.cost)
    levels = [s.level for s in samplers]
    alpha = fit_rate(levels[1:], np.abs(mean_Y[1:]))
    beta = fit_rate(levels[1:], var_Y[1:])
    gamma = -fit_rate(levels, cost)
    return DiagnosticsReport(levels, N_screen, M, mean_Y, var_Y, cost, alpha, beta, gamma)


def nvar_diagnostic(samplers: Sequence[LevelSampler], N_list: Sequence[int], M: int):
    """Table of log2(N * estimator variance) per level and sample count.

    Each level draws one (M, max N_list) block; the estimate at N takes
    each replicate's mean over its first N samples. Flat rows signal the
    plain MC rate; a decreasing trend is the QMC-like pre-asymptotic
    regime.
    """
    if M < 2 or any(N < 1 or N & (N - 1) for N in N_list):
        raise ValueError("need M >= 2 and sample counts that are powers of two")
    rows = []
    for s in samplers:
        ys = s.batch(range(M), 0, int(max(N_list, default=0)))
        for N in N_list:
            vom = float(ys[:, :N].mean(axis=1).var(ddof=1) / M)
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
