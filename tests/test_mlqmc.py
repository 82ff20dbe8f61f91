"""Estimators, allocation, the greedy driver, and diagnostics."""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haarmc.lowdisc import (
    PURPOSE_SHIFT,
    DigitalShift,
    SobolGenerator,
    normal_vector,
    shifted_point,
    sobol_points,
)
from haarmc import mlqmc
from haarmc.cli import _cached
from haarmc.mlqmc import (
    AllocationError,
    ConvergenceFailure,
    LevelSampler,
    fit_rate,
    mlmc_optimal_allocation,
    mlmc_run,
    mlqmc_run,
    nvar_diagnostic,
    qmc_run,
    screening_run,
    write_estimate_csv,
    write_nvar_csv,
    write_screening_csv,
)
from oracles import RandomStream, qmc_estimate, safe_uniform


def const_sampler(level, value, cost=1.0):
    return LevelSampler(
        level, cost, lambda ms, n0, n1, v=value: np.full((len(ms), n1 - n0), v)
    )


def pin_variance(monkeypatch, values, rule):
    """Make the QMC drivers read rule(l, N) as the variance of the mean of
    a level at N samples, where l is the index of the value in `values`
    nearest the level's mean: the level of const_sampler(l, values[l])."""

    def variance_of_mean(self):
        l = int(np.argmin([abs(v - self.mean()) for v in values]))
        return float(rule(l, self.N))

    monkeypatch.setattr(mlqmc._LevelAccum, "variance_of_mean", variance_of_mean)


def identity_qmc_sampler(seed=0, level=0):
    gen = SobolGenerator(1)

    def batch(ms, n0, n1):
        out = np.empty((len(ms), n1 - n0))
        for row, m in zip(out, ms):
            shift = DigitalShift.from_stream(
                RandomStream(seed, level, m, 0, PURPOSE_SHIFT), 1
            )
            pts = shifted_point(sobol_points(gen, np.arange(n0, n1)), shift)
            row[:] = safe_uniform(pts)[:, 0]
        return out

    return LevelSampler(level, 1.0, batch)


def mc_normal_sampler(seed=0, level=0):
    def batch(ms, n0, n1):
        out = np.empty((len(ms), n1 - n0))
        for row, m in zip(out, ms):
            for i, n in enumerate(range(n0, n1)):
                row[i] = normal_vector(RandomStream(seed, level, m, n), 1)[0]
        return out

    return LevelSampler(level, 1.0, batch)


def test_qmc_estimate_constant():
    mean, vom, means = qmc_estimate(const_sampler(0, 3.5), 16, 4)
    assert mean == 3.5 and vom == 0.0
    np.testing.assert_array_equal(means, np.full(4, 3.5))


def test_qmc_estimate_validation():
    s = const_sampler(0, 1.0)
    with pytest.raises(ValueError):
        qmc_estimate(s, 0, 4)
    with pytest.raises(ValueError):
        qmc_estimate(s, 16, 1)


def test_qmc_estimate_uniform_mean():
    mean, vom, _ = qmc_estimate(identity_qmc_sampler(), 512, 4)
    assert mean == pytest.approx(0.5, abs=5e-3)
    assert vom > 0
    mean2, _, _ = qmc_estimate(identity_qmc_sampler(), 512, 4)
    assert mean == mean2


def alternating_sampler(value, cost):
    """Replicate m's mean over samples 0..N-1 is value +- 1/N (sign (-1)^m),
    so with M even the variance of the mean is 1/(N^2 (M - 1))."""

    def batch(ms, n0, n1):
        out = np.full((len(ms), n1 - n0), value)
        if n0 == 0:
            out[:, 0] += [(-1.0) ** m for m in ms]
        return out

    return LevelSampler(0, cost, batch)


def test_qmc_run_doubles_to_the_first_n_within_budget():
    s = alternating_sampler(0.75, 2.5)
    calls = []

    def logged(ms, n0, n1):
        calls.append((ms, n0, n1))
        return s.batch(ms, n0, n1)

    # budget 0.5 * 0.1^2 = 5e-3: N = 8 gives 1/192 > 5e-3, N = 16 gives 1/768
    est, state = qmc_run(LevelSampler(0, 2.5, logged), 0.1, 0.5, M=4)
    # each doubling draws only the new samples N..2N-1
    assert calls == [(range(4), 0, 1), (range(4), 1, 2), (range(4), 2, 4),
                     (range(4), 4, 8), (range(4), 8, 16)]
    mean, vom, _ = qmc_estimate(s, 16, 4)
    assert state.converged
    assert (state.N, state.V, state.cost, state.means) == ([16], [vom], [2.5], [mean])
    assert vom == pytest.approx(1.0 / 768.0, rel=1e-12)
    assert est == mean == state.estimate()
    assert state.total_cost() == 16 * 4 * 2.5


def test_qmc_run_reports_failure_state(monkeypatch):
    monkeypatch.setattr(mlqmc, "MAX_QMC_DOUBLINGS", 2)
    s = alternating_sampler(0.75, 2.5)
    with pytest.raises(ConvergenceFailure) as exc:
        qmc_run(s, 0.1, 0.5, M=4)
    state = exc.value.state
    mean, vom, _ = qmc_estimate(s, 4, 4)
    assert not state.converged
    assert (state.N, state.V, state.cost, state.means) == ([4], [vom], [2.5], [mean])
    assert state.total_cost() == 4 * 4 * 2.5


def qmc_outcome(sampler, eps):
    """(estimate or None, N, V, means, trace, converged) of one qmc_run at
    theta 0.5 and M 4."""
    try:
        est, state = qmc_run(sampler, eps, 0.5, M=4)
    except ConvergenceFailure as exc:
        est, state = None, exc.state
    return est, state.N, state.V, state.means, state.trace, state.converged


def logged_sampler(s, calls):
    def batch(ms, n0, n1):
        calls.append((ms, n0, n1))
        return s.batch(ms, n0, n1)

    return LevelSampler(s.level, s.cost, batch)


def test_qmc_run_resumes_a_looser_run_as_a_fresh_run():
    """A run on a _cached sampler goes on from the samples earlier runs
    drew: it is the run without the cache, in any eps order, and draws
    only the samples no earlier run drew."""
    s, calls = alternating_sampler(0.75, 2.5), []
    cached = _cached(logged_sampler(s, calls), 4)
    fresh = {eps: qmc_outcome(s, eps) for eps in (0.2, 0.1)}
    # budget 0.5 * 0.2^2 = 0.02: N = 8 gives 1/192; at eps 0.1, N = 16
    assert qmc_outcome(cached, 0.2) == fresh[0.2] and fresh[0.2][1] == [8]
    assert calls == [(range(4), 0, 1), (range(4), 1, 2), (range(4), 2, 4), (range(4), 4, 8)]
    calls.clear()
    assert qmc_outcome(cached, 0.1) == fresh[0.1] and fresh[0.1][1] == [16]
    assert calls == [(range(4), 8, 16)]
    # an equal eps, and a looser one, draw nothing
    calls.clear()
    assert qmc_outcome(cached, 0.1) == fresh[0.1]
    assert qmc_outcome(cached, 0.2) == fresh[0.2]
    assert calls == []


def test_qmc_run_resumes_a_failed_run(monkeypatch):
    """A run that stopped at the sample cap stops there again on the same
    _cached sampler, drawing nothing."""
    monkeypatch.setattr(mlqmc, "MAX_QMC_DOUBLINGS", 2)
    s, calls = alternating_sampler(0.75, 2.5), []
    cached = _cached(logged_sampler(s, calls), 4)
    failed = qmc_outcome(cached, 0.2)
    assert failed[0] is None and failed[1] == [4] and not failed[5]
    calls.clear()
    assert qmc_outcome(cached, 0.1) == failed == qmc_outcome(s, 0.1) and calls == []


@pytest.mark.parametrize("eps,theta", [(0.0, 0.5), (-0.1, 0.5), (0.1, 0.0), (0.1, 1.0)])
def test_qmc_run_validation(eps, theta):
    with pytest.raises(ValueError):
        qmc_run(const_sampler(0, 1.0), eps, theta, M=4)


def test_allocation_pin():
    np.testing.assert_array_equal(mlmc_optimal_allocation([1.0], [1.0], 0.1, 0.5), [200])
    # sqrt(VC) = [1, 1], so the continuous optima are [400, 100] exactly
    np.testing.assert_array_equal(
        mlmc_optimal_allocation([1.0, 0.25], [1.0, 4.0], 0.1, 0.5), [400, 100]
    )


def test_allocation_validation():
    with pytest.raises(ValueError):
        mlmc_optimal_allocation([], [], 0.1, 0.5)
    with pytest.raises(ValueError):
        mlmc_optimal_allocation([1.0, 0.0], [1.0, 1.0], 0.1, 0.5)
    with pytest.raises(ValueError):
        mlmc_optimal_allocation([1.0], [1.0], -0.1, 0.5)
    with pytest.raises(ValueError):
        mlmc_optimal_allocation([1.0], [1.0], 0.1, 1.0)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(1e-6, 1e4), st.floats(1e-6, 1e4)),
        min_size=1,
        max_size=6,
    ),
    st.floats(1e-3, 10.0),
    st.floats(0.05, 0.95),
)
def test_allocation_budget_and_minimality(vc, eps, theta):
    V = np.array([p[0] for p in vc])
    C = np.array([p[1] for p in vc])
    N = mlmc_optimal_allocation(V, C, eps, theta)
    budget = (1.0 - theta) * eps**2
    assert np.all(N >= 1)
    assert float(np.sum(V / N)) <= budget * (1.0 + 1e-9)
    # N must be the ceiling of the continuous optimizer of the Lagrangian
    x = np.sqrt(V / C) * np.sum(np.sqrt(V * C)) / budget
    assert np.all(N + 1e-9 >= x * (1.0 - 1e-9))
    assert np.all(N - 1 < x * (1.0 + 1e-9) + 1e-9)


def test_fit_rate():
    levels = [0, 1, 2, 3, 4, 5]
    vals = [4.0 ** (-l) for l in levels]
    assert fit_rate(levels, vals) == pytest.approx(2.0, abs=1e-12)
    # only pre-window levels available: falls back to fitting everything
    assert fit_rate([0, 1], [1.0, 0.5]) == pytest.approx(1.0, abs=1e-12)
    assert math.isnan(fit_rate([0, 1], [1.0, 0.0]))


def test_screening_synthetic_rates():
    # deterministic samplers: mean 4^-l, per-sample variance ~ 8^-l, cost 4^l
    samplers = []
    for l in range(5):
        amp = math.sqrt(8.0) ** (-l)

        def batch(ms, n0, n1, c=4.0 ** (-l), a=amp):
            signs = (-1.0) ** np.arange(n0, n1)
            return np.tile(c + a * signs, (len(ms), 1))

        samplers.append(LevelSampler(l, 4.0**l, batch))
    rep = screening_run(samplers, 64, 4)
    assert rep.levels == [0, 1, 2, 3, 4]
    assert rep.N == 64 and rep.M == 4
    np.testing.assert_allclose(rep.mean_Y, [4.0 ** (-l) for l in range(5)], atol=1e-14)
    assert np.cumsum(rep.mean_Y)[-1] == pytest.approx(sum(4.0 ** (-l) for l in range(5)), rel=1e-12)
    assert rep.alpha == pytest.approx(2.0, abs=1e-10)
    assert rep.beta == pytest.approx(3.0, abs=1e-10)
    assert rep.gamma == pytest.approx(2.0, abs=1e-10)
    rows = list(rep.rows())
    assert rows[2] == (2, 64, 4, rep.mean_Y[2], rep.var_Y[2], 16.0)
    with pytest.raises(ValueError):
        screening_run(samplers, 8, 4)


def _reference_greedy(c, V0, costs, eps, theta, L_min):
    """Straightforward replay of the documented driver policy with the same
    frozen variance rule V0[l] / N^2."""
    budget = (1.0 - theta) * eps**2
    trace, N = [], []

    def bias():
        L = len(N) - 1
        yl = abs(c[L])
        if L >= 2:
            lv = np.arange(1, L + 1, dtype=float)
            keep = lv >= 2
            if keep.sum() < 2:
                keep = np.ones(L, dtype=bool)
            va = np.log2([abs(x) for x in c[1 : L + 1]])
            alpha = -np.polyfit(lv[keep], va[keep], 1)[0]
        else:
            alpha = 1.0
        alpha = max(alpha, 0.5)
        return max(yl / (2.0**alpha - 1.0), yl / 2.0)

    def extend():
        N.append(1)
        trace.append(("extend", len(N) - 1))

    extend()
    while True:
        while sum(V0[l] / N[l] ** 2 for l in range(len(N))) > budget:
            ratios = [V0[l] / N[l] ** 2 / (costs[l] * N[l]) for l in range(len(N))]
            ell = int(np.argmax(ratios))
            N[ell] *= 2
            trace.append(("double", ell))
        if len(N) < L_min or bias() > math.sqrt(theta) * eps:
            extend()
        else:
            break
    return trace, N


def test_greedy_trace_matches_reference(monkeypatch):
    c = [1.0, 0.25, 0.0625]
    V0 = [0.02, 0.005, 0.00125]
    costs = [1.0, 4.0, 16.0]
    samplers = [const_sampler(l, c[l], costs[l]) for l in range(3)]
    pin_variance(monkeypatch, c, lambda l, N: V0[l] / N**2)
    est, state = mlqmc_run(samplers, 0.1, theta=0.5, M=4)
    ref_trace, ref_N = _reference_greedy(c, V0, costs, 0.1, 0.5, 2)
    assert state.trace == ref_trace
    assert state.N == ref_N
    assert est == pytest.approx(sum(c[: len(ref_N)]), rel=1e-12)
    assert state.converged
    assert state.total_cost() == pytest.approx(
        sum(n * 4 * k for n, k in zip(ref_N, costs)), rel=1e-12
    )


def test_greedy_loose_tolerance_stays_minimal(monkeypatch):
    c = [4.0 ** (-l) for l in range(4)]
    samplers = [const_sampler(l, c[l]) for l in range(4)]
    pin_variance(monkeypatch, c, lambda l, N: 1e-6 / N**2)
    est, state = mlqmc_run(samplers, 50.0, M=4)
    assert state.N == [1, 1]
    assert est == pytest.approx(1.25, rel=1e-12)


def test_greedy_reports_failure_state(monkeypatch):
    c = [0.9**l for l in range(2)]
    samplers = [const_sampler(l, c[l]) for l in range(2)]
    pin_variance(monkeypatch, c, lambda l, N: 1e-8 / N**2)
    with pytest.raises(ConvergenceFailure) as exc:
        mlqmc_run(samplers, 0.01, M=4)
    state = exc.value.state
    assert state is not None
    assert not state.converged
    assert len(state.N) == 2


def test_greedy_reports_the_sample_cap(monkeypatch):
    monkeypatch.setattr(mlqmc, "MAX_QMC_DOUBLINGS", 3)
    c = [4.0 ** (-l) for l in range(3)]
    samplers = [const_sampler(l, c[l]) for l in range(3)]
    pin_variance(monkeypatch, c, lambda l, N: 1.0 / N)  # over the 5e-3 budget up to the cap
    with pytest.raises(ConvergenceFailure, match="variance budget not met at N = 8") as exc:
        mlqmc_run(samplers, 0.1, M=4)
    state = exc.value.state
    assert not state.converged
    assert state.N == [8] and state.V == [1.0 / 8]
    assert state.trace == [("extend", 0)] + [("double", 0)] * 3


def test_greedy_validation():
    s = [const_sampler(0, 1.0)]
    with pytest.raises(ValueError):
        mlqmc_run([], 0.1)
    with pytest.raises(ValueError):
        mlqmc_run(s, -1.0)
    with pytest.raises(ValueError):
        mlqmc_run(s, 0.1, theta=1.5)
    with pytest.raises(ValueError):
        mlqmc_run(s, 0.1, L_min=5, L_max=2)
    with pytest.raises(ValueError):
        mlqmc_run(s, 0.1, L_min=1, M=1)


def test_mlmc_run_constant_levels():
    c = [1.0, 0.25, 0.0625]
    samplers = [const_sampler(l, c[l], 2.0**l) for l in range(3)]
    est, state = mlmc_run(samplers, 0.1, N_init=64)
    assert state.converged and state.M == 1
    assert est == pytest.approx(sum(c), rel=1e-12)
    assert state.N == [64, 64, 64]


def test_mlmc_run_validation():
    # like mlqmc_run, it rejects bad arguments before drawing a sample
    calls = []

    def counted(level):
        def batch(ms, n0, n1):
            calls.append(level)
            return np.ones((len(ms), n1 - n0))

        return LevelSampler(level, 1.0, batch)

    s = [counted(0), counted(1)]
    for kwargs in ({"L_min": 5}, {"L_min": 2, "L_max": 1}):
        with pytest.raises(ValueError, match="L_min exceeds L_max"):
            mlmc_run(s, 0.1, **kwargs)
    for eps, theta in ((-1.0, 0.5), (0.0, 0.5), (0.1, 0.0), (0.1, 1.0)):
        with pytest.raises(ValueError):
            mlmc_run(s, eps, theta)
    with pytest.raises(ValueError):
        mlmc_run([], 0.1)
    assert calls == []


def test_mlmc_run_reports_failure_state():
    # the bias of level 0 alone stays large, so L_max = 1 fails; the state
    # still carries the samples drawn
    samplers = [const_sampler(0, 1.0, 2.0), const_sampler(1, 0.5, 4.0)]
    with pytest.raises(ConvergenceFailure) as exc:
        mlmc_run(samplers, 0.1, L_min=1, L_max=1, N_init=64)
    state = exc.value.state
    assert not state.converged
    assert state.N == [64] and state.cost == [2.0] and state.means == [1.0]
    assert len(state.V) == 1 and state.V[0] > 0
    assert state.estimate() == 1.0 and state.total_cost() == 128.0


def test_nvar_diagnostic_trends():
    rows = nvar_diagnostic([identity_qmc_sampler()], [16, 64, 256], 8)
    assert [(r[0], r[1]) for r in rows] == [(0, 16), (0, 64), (0, 256)]
    assert rows[-1][2] < rows[0][2] - 1.5
    flat = nvar_diagnostic([mc_normal_sampler()], [16, 64, 256], 32)
    assert abs(flat[-1][2] - flat[0][2]) < 1.5
    with pytest.raises(ValueError):
        nvar_diagnostic([identity_qmc_sampler()], [24], 8)
    with pytest.raises(ValueError):
        nvar_diagnostic([identity_qmc_sampler()], [0], 8)
    with pytest.raises(ValueError):
        nvar_diagnostic([identity_qmc_sampler()], [16], 1)


def test_csv_writers(tmp_path):
    samplers = [const_sampler(l, 4.0 ** (-l), 2.0**l) for l in range(3)]
    rep = screening_run(samplers, 32, 4)
    p = tmp_path / "screen.csv"
    write_screening_csv(p, rep)
    with open(p, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["level", "N", "M", "mean", "var", "cost"]
    assert len(rows) == 4
    assert float(rows[1][3]) == rep.mean_Y[0]

    p2 = tmp_path / "nvar.csv"
    write_nvar_csv(p2, [(0, 16, -3.25), (1, 16, -4.5)])
    with open(p2, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["level", "N", "log2_NV"]
    assert rows[1] == ["0", "16", "-3.25"]

    p3 = tmp_path / "est.csv"
    write_estimate_csv(p3, [(0.01, 123.5, 1.0625)])
    with open(p3, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["epsilon", "total_cost", "estimate"]
    assert float(rows[1][2]) == 1.0625


def test_allocation_error_when_budget_cannot_be_met():
    # counts beyond int64, and a NaN variance, cannot meet the budget
    with pytest.raises(AllocationError):
        mlmc_optimal_allocation([1e300, 1.0], [1.0, 1.0], 1e-3, 0.5)
    with pytest.raises(AllocationError):
        mlmc_optimal_allocation([float("nan")], [1.0], 0.1, 0.5)
