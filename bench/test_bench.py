"""Tests of the benchmark itself: python3 -m pytest bench -q"""

import json
import sys
import threading
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

from run import WORKLOADS, layer_metrics, workload_config  # noqa: E402
from spans import Recorder, covered_time, percentile, self_times, tail_percentile  # noqa: E402


def span(name, start, end, parent=None, thread=0, count=1):
    return (name, start, end, parent, thread, count)


def test_self_time_nested_children():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, 0),
        span("a.inner", 2.0, 3.0, 1),
        span("b", 5.0, 6.5, 0),
    ]
    assert self_times(spans) == pytest.approx([10.0 - 3.0 - 1.5, 2.0, 1.0, 1.5])
    assert covered_time(spans) == pytest.approx(10.0)
    assert sum(self_times(spans)) == pytest.approx(covered_time(spans))


def test_self_time_overlapping_children_count_once():
    # Two pool threads under one parent: [1, 5] and [3, 8] cover [1, 8].
    spans = [
        span("pool", 0.0, 10.0),
        span("batch", 1.0, 5.0, 0, thread=1),
        span("batch", 3.0, 8.0, 0, thread=2),
        span("solve", 4.0, 4.5, 2, thread=2),
    ]
    assert self_times(spans) == pytest.approx([3.0, 4.0, 4.5, 0.5])
    assert covered_time(spans) == pytest.approx(10.0)


def test_self_time_clips_children_to_parent():
    spans = [span("p", 0.0, 2.0), span("c", 1.5, 3.0, 0)]
    assert self_times(spans) == pytest.approx([1.5, 1.5])
    assert covered_time(spans) == pytest.approx(3.0)


def test_tail_percentile_needs_ten_samples_beyond():
    values = list(range(1, 10001))
    assert tail_percentile(values) == (99.9, 9990)
    assert tail_percentile(values[:9999]) == (99.0, percentile(values[:9999], 99.0))
    assert tail_percentile(values[:999]) == (90.0, percentile(values[:999], 90.0))
    assert tail_percentile(values[:50]) == (50.0, 25)
    assert percentile([3.0, 1.0, 2.0], 50.0) == 2.0


def test_recorder_pool_threads_hang_under_main_span():
    rec = Recorder(time.perf_counter())
    inner = rec.wrap("inner", lambda: time.sleep(0.001))

    def pool():
        threads = [threading.Thread(target=inner) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)

    rec.wrap("pool", pool)()
    names = [s[0] for s in rec.spans]
    assert names == ["pool", "inner", "inner"]
    assert [s[3] for s in rec.spans] == [None, 0, 0]
    assert len({s[4] for s in rec.spans}) == 3


def test_layer_metrics_from_a_report():
    names = ["cli.main", "fem.diffusion_solve", "fem.factorize", "problem.batch",
             "problem.build_level_contexts", "mlqmc.driver"]
    idx = {n: i for i, n in enumerate(names)}
    raw = [
        ("cli.main", 0.1, 3.0, None, 0, 1),
        ("problem.build_level_contexts", 0.2, 0.5, 0, 0, 1),
        ("fem.factorize", 0.3, 0.4, 1, 0, 1),
        ("mlqmc.driver", 0.6, 2.9, 0, 0, 1),
        ("problem.batch", 0.7, 1.7, 3, 0, 4),
        ("fem.diffusion_solve", 0.8, 1.0, 4, 0, 1),
        ("fem.factorize", 0.8, 0.9, 5, 0, 1),
    ]
    report = {"names": names, "spans": [[idx[s[0]], *s[1:]] for s in raw]}
    m = layer_metrics(report, 3.2)
    assert m["fem.helmholtz_factor_s"] == pytest.approx(0.1)
    assert m["fem.diffusion_solve_s"] == pytest.approx(0.2)
    assert m["fem.diffusion_solves"] == 1
    assert m["problem.samples"] == 4
    assert m["problem.batch_self_s"] == pytest.approx(0.8)
    assert m["mlqmc.driver_self_s"] == pytest.approx(1.3)
    assert m["cli.pool_busy_ratio"] == pytest.approx(1.0 / 2.3)
    assert m["unattributed_s"] == pytest.approx(0.3)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_config_parses(name):
    from haarmc.cli import parse_config

    cfg = parse_config(workload_config(name, 7))
    assert cfg.seed == 7
    assert cfg.cost_model == "dofs"


def test_traced_and_untraced_invocations_agree(tmp_path, monkeypatch):
    import run

    monkeypatch.chdir(BENCH.parent)
    monkeypatch.setitem(run.WORKLOADS, "tiny", {
        "command": "screen",
        "threads": 2,
        "config": {"dim": 1, "mesh_levels": [1, 2, 3], "haar_levels": [2, 2, 2], "N_screen": 16, "M": 2},
    })
    config = tmp_path / "config.json"
    config.write_text(json.dumps(workload_config("tiny", 0)))
    invs = [run.invoke("tiny", config, 3, tmp_path / f"out{t}", tmp_path / f"report{t}.json", bool(t), 120.0)
            for t in (0, 1)]
    for inv in invs:
        problems, work = run.check_output("tiny", inv, None)
        assert problems == [] and work > 0
    assert run.same_files(invs[0]["out"], invs[1]["out"])
    e2e = run.end_to_end(invs[0], work)
    assert set(e2e) == set(run.END_TO_END) and e2e["setup_s"] > 0 and e2e["sample_s"] > 0
    layers = run.layer_metrics(invs[1]["report"], invs[1]["wall_s"])
    assert set(layers) | {"trace.overhead_s"} == set(run.PER_LAYER)
    assert layers["problem.batch_calls"] == 3 * 2
    assert layers["problem.samples"] == 3 * 2 * 16
    assert layers["unattributed_s"] >= 0
