"""End-to-end checks of the command line front end."""

import argparse
import csv
import json
import os
import signal
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import haarmc
from haarmc import cli, fem, mlqmc
from haarmc.cli import (
    ConfigError,
    _pool_run,
    _shared,
    _replay_samplers,
    build_parser,
    config_hash,
    config_to_dict,
    main,
    parse_config,
)
from haarmc.mlqmc import LevelSampler

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def write_config(tmp_path, name="cfg.json", **overrides):
    data = {
        "dim": 1,
        "mesh_levels": [1, 2],
        "haar_levels": [1, 1],
        "M": 2,
        "N_screen": 16,
        "seed": 0,
    }
    data.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def read_rows(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


def test_config_round_trip():
    cfg = parse_config({})
    again = parse_config(config_to_dict(cfg))
    assert again == cfg
    assert config_hash(again) == config_hash(cfg)
    other = parse_config({"seed": 1})
    assert config_hash(other) != config_hash(cfg)


@pytest.mark.parametrize(
    "data,path",
    [
        ({"dim": 3}, "dim"),
        ({"mesh_levels": [2, 1]}, "mesh_levels"),
        ({"mesh_levels": [1, 2], "haar_levels": [1]}, "haar_levels"),
        ({"mesh_levels": [1, 2], "haar_levels": [2, 1]}, "haar_levels"),
        ({"g_box": [[0.0], [1.0]]}, "g_box"),
        ({"matern": {"lambda": -1.0}}, "matern.lambda"),
        ({"matern": {"mode": "explicit"}}, "matern.sigma"),
        ({"matern": {"spam": 1}}, "matern.spam"),
        ({"spam": 1}, "spam"),
        ({"estimator": "bogus"}, "estimator"),
        ({"eps": [0.1, -0.2]}, "eps[1]"),
        ({"theta": 1.0}, "theta"),
        ({"M": 1}, "M"),
        ({"N_list": [3]}, "N_list"),
        ({"L_min": 3, "L_max": 2}, "L_max"),
        ({"matern": {"lambda": "0.3"}}, "matern.lambda"),
        ({"matern": {"mean_shift": "0.1"}}, "matern.mean_shift"),
        ({"matern": {"mode": "explicit", "sigma": True}}, "matern.sigma"),
        ({"theta": "0.5"}, "theta"),
        ({"theta": float("nan")}, "theta"),
        ({"theta": 10**400}, "theta"),
        ({"N_screen": "16"}, "N_screen"),
        ({"N_screen": 16.5}, "N_screen"),
        ({"dim": True}, "dim"),
        ({"M": 4.0}, "M"),
        ({"mesh_levels": [1, True]}, "mesh_levels"),
        ({"eps": [True]}, "eps[0]"),
        ({"L_max": 3.0}, "L_max"),
        ({"g_box": [["0"], ["1"]], "dim": 1}, "g_box"),
        ({"out": 7}, "out"),
        ({"cost_model": "wall"}, "cost_model"),
        ({"synthetic": True}, "synthetic"),
        ({"matern": {"sigma": "abc"}}, "matern.sigma"),
        ({"matern": {"sigma": float("nan")}}, "matern.sigma"),
    ],
)
def test_config_validation_paths(data, path):
    with pytest.raises(ConfigError) as exc:
        parse_config(data)
    assert exc.value.path == path


def test_each_command_takes_exactly_its_flags(tmp_path):
    common = {"--config", "--seed", "--threads", "--out"}
    field_only = {"--sample", "--dump-mesh", "--dump-supermesh", "--dump-noise"}
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {
        name: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
        for name, p in sub.choices.items()
    }
    assert flags == {
        "field": common | field_only,
        "screen": common,
        "nvar": common,
        "estimate": common,
    }
    cfg = write_config(tmp_path)
    out = tmp_path / "o"
    for argv in (["screen", "--dump-noise"], ["field", "--dump-field"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--config", str(cfg), "--out", str(out)])
        assert exc.value.code == 2
    assert not out.exists()


def test_bad_config_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["screen", "--config", str(missing)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["screen", "--config", str(bad)]) == 2
    cfg = write_config(tmp_path, dim=3)
    assert main(["screen", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error at dim" in err
    cfg_ok = write_config(tmp_path)
    assert main(["screen", "--config", str(cfg_ok), "--threads", "0"]) == 2
    cfg = write_config(tmp_path, matern={"lambda": "0.3"})
    assert main(["screen", "--config", str(cfg)]) == 2
    assert "config error at matern.lambda" in capsys.readouterr().err
    cfg = write_config(tmp_path, N_list=[])
    assert main(["nvar", "--config", str(cfg)]) == 2
    assert "config error at N_list" in capsys.readouterr().err
    # a Haar level whose low-discrepancy block exceeds the Sobol' table
    # (1D levels up to 9, 2D up to 7), rejected before anything is built
    for command, dim, level, estimator in (
        ("screen", 1, 10, "mlqmc"),
        ("nvar", 1, 10, "qmc"),
        ("estimate", 2, 8, "qmc"),
    ):
        cfg = write_config(
            tmp_path, dim=dim, mesh_levels=[1], haar_levels=[level], estimator=estimator
        )
        out = tmp_path / command
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert "config error at haar_levels" in capsys.readouterr().err
        assert not out.exists()


def test_haar_levels_beyond_the_sobol_table_run_without_qmc(tmp_path):
    """Only the QMC samplers draw from the Sobol' table: `field` and the
    `mlmc` estimator run at any Haar level, and the largest 1D level the
    table covers screens."""
    cfg = write_config(tmp_path, haar_levels=[10, 10], estimator="mlmc", eps=[0.1], N_init=8)
    for command in ("field", "estimate"):
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / command)]) == 0
    cfg = write_config(tmp_path, haar_levels=[9, 9])
    assert main(["screen", "--config", str(cfg), "--out", str(tmp_path / "screen")]) == 0


def test_screen_reruns_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path)
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert main(["screen", "--config", str(cfg), "--out", str(out)]) == 0
    a = (outs[0] / "screen.csv").read_bytes()
    b = (outs[1] / "screen.csv").read_bytes()
    assert a == b
    assert (outs[0] / "manifest.json").read_bytes() == (
        outs[1] / "manifest.json"
    ).read_bytes()
    rows = read_rows(outs[0] / "screen.csv")
    assert rows[0] == ["level", "N", "M", "mean", "var", "cost"]
    assert len(rows) == 1 + 2  # header + one row per hierarchy position


def test_screen_threads_do_not_change_output(tmp_path):
    cfg = write_config(tmp_path, N_list=[16, 32])
    runs = [
        ["screen"],
        ["nvar"],
        ["field", "--sample", "3", "--dump-noise"],
    ]
    for argv in runs:
        outs = {}
        for threads in ("1", "3", "4"):
            out = tmp_path / f"{argv[0]}_t{threads}"
            args = argv + ["--config", str(cfg), "--out", str(out)]
            assert main(args + ["--threads", threads]) == 0
            outs[threads] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert len(outs["1"]) > 1
        assert outs["3"] == outs["1"]
        assert outs["4"] == outs["1"]


def two_cores(monkeypatch):
    """Two usable cores, so the pool forks workers even on a one-core host."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def pool_results(fn, n, threads):
    """[fn(0), ..., fn(n - 1)] through _pool_run, each a tuple of ints kept in
    one row of a shared array; fn(0) also runs here first, for the width."""
    rows = _shared((n, len(fn(0))), np.int64)

    def run(k):
        rows[k] = fn(k)

    _pool_run(run, n, threads)
    return [tuple(row) for row in rows.tolist()]


def test_replay_draws_blocks_of_whole_replicates_that_fill_a_chunk(monkeypatch):
    N, M = 5, 3
    # a level whose chunk holds all its samples, one whose chunk holds two
    # replicates, and one whose chunk holds less than one
    chunks = [M * N, 2 * N + 1, N - 1]
    blocks = [[range(0, 3)], [range(0, 1), range(1, 3)], [range(m, m + 1) for m in range(M)]]
    calls = []

    def ys(li, ms, n0, n1):
        return 100.0 * li + np.add.outer(10.0 * np.arange(ms.start, ms.stop), np.arange(n0, n1))

    def spy(li):
        def batch(ms, n0, n1):
            calls.append((li, ms, n0, n1))
            return ys(li, ms, n0, n1)

        return LevelSampler(li, 1.0, batch)

    samplers = [spy(li) for li in range(3)]
    tasks = [(li, ms) for li, bs in enumerate(blocks) for ms in bs]
    # serially, then in forked workers (two usable cores), whose batch calls
    # stay in the workers
    two_cores(monkeypatch)
    for threads, called in ((1, [(li, ms, 0, N) for li, ms in tasks]), (2, [])):
        calls.clear()
        replay = _replay_samplers(samplers, N, M, threads, chunks)
        assert calls == called
        for li, r in enumerate(replay):
            np.testing.assert_array_equal(r.batch(range(0, M), 0, N), ys(li, range(0, M), 0, N))
            np.testing.assert_array_equal(r.batch(range(1, 3), 2, 4), ys(li, range(1, 3), 2, 4))
    assert_no_child_left()


def test_worker_errors_reach_the_caller(tmp_path, monkeypatch):
    # forked workers inherit the patched tolerance
    monkeypatch.setattr(fem, "RESIDUAL_RTOL", 0.0)
    cfg = write_config(tmp_path)
    for threads in ("1", "2"):
        args = ["screen", "--config", str(cfg), "--out", str(tmp_path / threads)]
        with pytest.raises(fem.ConvergenceError):
            main(args + ["--threads", threads])
    assert_no_child_left()


def test_screen_survives_a_worker_that_dies(tmp_path, monkeypatch, capfd):
    two_cores(monkeypatch)
    parent, marker = os.getpid(), tmp_path / "died"
    make_level_samplers = cli.make_level_samplers

    def first_worker_dies(batch):
        def wrapped(ms, n0, n1):
            if os.getpid() != parent:
                try:  # only the worker that creates the marker dies
                    os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
                except FileExistsError:
                    pass
                else:
                    os._exit(1)
            return batch(ms, n0, n1)

        return wrapped

    def dying_samplers(*args, **kwargs):
        samplers = make_level_samplers(*args, **kwargs)
        for s in samplers:
            s.batch = first_worker_dies(s.batch)
        return samplers

    monkeypatch.setattr(cli, "make_level_samplers", dying_samplers)
    cfg = write_config(tmp_path)
    outs = {}
    for threads in ("1", "2"):
        out = tmp_path / threads
        assert main(["screen", "--config", str(cfg), "--out", str(out), "--threads", threads]) == 0
        outs[threads] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert marker.exists()
    assert outs["2"] == outs["1"]
    err = capfd.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("haarmc: worker ") and "exit code 1" in err[0]
    assert_no_child_left()


def test_pool_run_recovers_when_a_worker_dies(monkeypatch, capfd):
    two_cores(monkeypatch)
    parent = os.getpid()
    for die, how in (
        (lambda: os._exit(1), "exit code 1"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), f"killed by signal {signal.SIGKILL:d}"),
    ):

        def fn(k):
            if k == 1 and os.getpid() != parent:
                die()  # mid-run, as if the worker were killed
            return 10 * k, os.getpid() == parent

        got = pool_results(fn, 4, 2)
        assert [y for y, _ in got] == [0, 10, 20, 30]
        assert got[1][1] == 1  # the parent ran the dead worker's task
        err = capfd.readouterr().err.splitlines()
        assert len(err) == 1 and how in err[0], err
        assert_no_child_left()


def test_pool_map_hands_out_more_tasks_than_a_pipe_holds(monkeypatch):
    # 20 000 eight-byte task records are more than a 64 KiB pipe buffer
    two_cores(monkeypatch)
    parent = os.getpid()
    got = pool_results(lambda k: (k * k, os.getpid() != parent), 20_000, 2)
    assert got == [(k * k, 1) for k in range(20_000)]
    assert_no_child_left()


def test_pool_map_reaps_every_worker(monkeypatch):
    two_cores(monkeypatch)
    assert pool_results(lambda k: (2 * k,), 3, 2) == [(0,), (2,), (4,)]
    assert_no_child_left()

    def fn(k):
        if k == 2:
            raise KeyError(k)
        return (k,)

    with pytest.raises(KeyError):
        pool_results(fn, 3, 2)
    assert_no_child_left()
    # every worker dies, and the parent runs every task
    parent = os.getpid()
    assert pool_results(lambda k: (os.getpid() == parent or os._exit(1),), 3, 2) == [(1,)] * 3
    assert_no_child_left()

    # the parent fails before it reaps the workers, which it then kills
    def refuse(fd, data):
        raise RuntimeError("no tasks sent")

    monkeypatch.setattr(cli, "_write_all", refuse)
    with pytest.raises(RuntimeError, match="no tasks sent"):
        _pool_run(lambda k: None, 3, 2)
    assert_no_child_left()


def test_pool_map_raises_the_error_of_the_lowest_failing_item(monkeypatch, capfd):
    two_cores(monkeypatch)

    def fn(k):
        if k in (11, 17):
            raise LookupError(f"item {k}")
        if k in (5, 23):
            raise ArithmeticError(f"item {k}")

    with pytest.raises(ArithmeticError, match="item 5$"):
        _pool_run(fn, 30, 2)
    with pytest.raises(LookupError, match="item 11$"):
        _pool_run(lambda k: fn(k + 6), 24, 2)
    assert_no_child_left()
    # a worker stops at its first failing task, without a traceback
    err = capfd.readouterr().err.splitlines()
    assert err and all("exit code 1" in line for line in err), err


def test_pool_map_runs_serially_on_one_usable_core(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    parent = os.getpid()
    got = pool_results(lambda k: (os.getpid(), 10 * k), 4, 4)
    assert got == [(parent, 0), (parent, 10), (parent, 20), (parent, 30)]
    cfg = write_config(tmp_path)
    outs = {}
    for threads in ("1", "2"):
        out = tmp_path / threads
        assert main(["screen", "--config", str(cfg), "--out", str(out), "--threads", threads]) == 0
        outs[threads] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert outs["2"] == outs["1"]
    assert_no_child_left()


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs two usable cores and a placement API",
)
def test_pool_map_pins_each_worker_to_its_own_core():
    before = os.sched_getaffinity(0)

    def fn(k):
        time.sleep(0.05)  # long enough that both workers take tasks
        cores = os.sched_getaffinity(0)
        return os.getpid(), len(cores), min(cores)

    got = {pid: (n, core) for pid, n, core in pool_results(fn, 8, 2)}
    assert len(got) == 2 and os.getpid() not in got
    for n, core in got.values():
        assert n == 1 and core in before
    assert len({core for _, core in got.values()}) == 2
    assert os.sched_getaffinity(0) == before
    assert_no_child_left()


def test_pool_map_runs_workers_whose_placement_is_refused(monkeypatch, capfd):
    two_cores(monkeypatch)

    def refuse(pid, cores):
        raise OSError(22, "Invalid argument")

    monkeypatch.setattr(os, "sched_setaffinity", refuse, raising=False)
    parent = os.getpid()
    got = pool_results(lambda k: (10 * k, os.getpid() != parent), 4, 2)
    assert got == [(0, 1), (10, 1), (20, 1), (30, 1)]
    assert capfd.readouterr().err == ""
    assert_no_child_left()


def test_pool_map_without_a_placement_api(monkeypatch):
    parent = os.getpid()
    fn = lambda k: (10 * k, os.getpid() != parent)  # noqa: E731
    want = [(0, 1), (10, 1), (20, 1), (30, 1)]
    monkeypatch.delattr(os, "sched_setaffinity", raising=False)
    two_cores(monkeypatch)
    assert pool_results(fn, 4, 2) == want
    # nor a way to read the affinity: every core of the machine is usable
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert pool_results(fn, 4, 2) == want
    assert_no_child_left()


def test_screen_seed_override_changes_rows(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "s0", tmp_path / "s9"
    assert main(["screen", "--config", str(cfg), "--out", str(out1)]) == 0
    assert (
        main(["screen", "--config", str(cfg), "--out", str(out2), "--seed", "9"]) == 0
    )
    assert (out1 / "screen.csv").read_bytes() != (out2 / "screen.csv").read_bytes()
    man = json.loads((out2 / "manifest.json").read_text())
    assert man["seed"] == 9
    assert man["command"] == "screen"
    assert set(man["versions"]) == {"haarmc", "numpy", "python"}


def test_nvar_rows(tmp_path):
    cfg = write_config(tmp_path, N_list=[16, 32])
    out = tmp_path / "nv"
    assert main(["nvar", "--config", str(cfg), "--out", str(out)]) == 0
    rows = read_rows(out / "nvar.csv")
    assert rows[0] == ["level", "N", "log2_NV"]
    assert len(rows) == 1 + 2 * 2


def test_field_dump_constant_when_sigma_zero(tmp_path):
    cfg = write_config(
        tmp_path,
        dim=2,
        mesh_levels=[1],
        haar_levels=[0],
        matern={"mode": "explicit", "sigma": 0.0, "mean_shift": 0.25},
    )
    out = tmp_path / "f"
    assert main(["field", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "field_l0.csv").read_text().splitlines()
    assert lines[0] == "# seed=0 level=0 sample=0"
    assert lines[1] == "vertex_index,x,y,value"
    values = {float(line.split(",")[3]) for line in lines[2:]}
    assert values == {0.25}


def test_field_dump_coupled_pair_shares_header(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "fc"
    assert (
        main(
            [
                "field",
                "--config",
                str(cfg),
                "--out",
                str(out),
                "--seed",
                "5",
                "--dump-mesh",
                "--dump-supermesh",
                "--dump-noise",
            ]
        )
        == 0
    )
    fine = (out / "field_l1.csv").read_text().splitlines()
    coarse = (out / "field_l1_coarse.csv").read_text().splitlines()
    assert fine[0] == "# seed=5 level=1 sample=0"
    assert coarse[0] == fine[0]
    for name in (
        "mesh_g_l0.txt",
        "mesh_d_l1.txt",
        "supermesh_l0.csv",
        "supermesh_l1.csv",
        "noise_l0.csv",
        "noise_l1_coarse.csv",
    ):
        assert (out / name).exists()


def test_field_rejects_a_negative_sample(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "f"
    assert main(["field", "--config", str(cfg), "--out", str(out), "--sample", "-1"]) == 2
    assert "config error at sample" in capsys.readouterr().err
    assert not out.exists()


def test_field_draws_in_this_process(tmp_path, monkeypatch):
    # one sample per level is too little work to pay for forking workers
    def no_pool(*args):
        raise AssertionError("field started a worker pool")

    monkeypatch.setattr(haarmc.cli, "_pool_run", no_pool)
    cfg = write_config(tmp_path)
    out = tmp_path / "f"
    assert main(["field", "--config", str(cfg), "--out", str(out), "--threads", "2"]) == 0
    assert (out / "field_l1_coarse.csv").exists()


def test_estimate_mlqmc_and_qmc(tmp_path):
    out = tmp_path / "est"
    cfg = write_config(tmp_path, eps=[0.2], M=4)
    assert main(["estimate", "--config", str(cfg), "--out", str(out)]) == 0
    rows = read_rows(out / "estimate.csv")
    assert rows[0] == ["epsilon", "total_cost", "estimate"]
    assert len(rows) == 2 and len(rows[1]) == 3
    assert float(rows[1][2]) > 0

    cfg_q = write_config(tmp_path, "q.json", eps=[0.2], M=4, estimator="qmc")
    out_q = tmp_path / "estq"
    assert main(["estimate", "--config", str(cfg_q), "--out", str(out_q)]) == 0
    assert len(read_rows(out_q / "estimate.csv")) == 2

    cfg_m = write_config(
        tmp_path, "m.json", eps=[0.2], estimator="mlmc", N_init=16
    )
    out_m = tmp_path / "estm"
    assert main(["estimate", "--config", str(cfg_m), "--out", str(out_m)]) == 0
    assert len(read_rows(out_m / "estimate.csv")) == 2


def test_qmc_sweep_draws_each_sample_once(tmp_path, monkeypatch, capsys):
    """Over a sweep of tightening eps, qmc goes on from the previous eps's
    samples, and a looser eps starts afresh; the rows and the log equal
    those of one run per eps."""
    drawn, costs = [], []
    make = haarmc.cli.make_level_samplers

    def counting(*args, **kwargs):
        def count(s):
            def batch(ms, n0, n1):
                drawn.append(n1 - n0)
                return s.batch(ms, n0, n1)

            costs.append(s.cost)
            return LevelSampler(s.level, s.cost, batch)

        return [count(s) for s in make(*args, **kwargs)]

    monkeypatch.setattr(haarmc.cli, "make_level_samplers", counting)
    eps = [1e-2, 3e-3, 3e-3, 5e-4, 1e-3]
    kw = dict(mesh_levels=[1, 2, 3], haar_levels=[3, 3, 3], estimator="qmc", M=4)
    cfg = write_config(tmp_path, eps=eps, **kw)
    assert main(["estimate", "--config", str(cfg), "--out", str(tmp_path / "sweep")]) == 0
    rows, log = read_rows(tmp_path / "sweep" / "estimate.csv")[1:], capsys.readouterr().out
    N = [float(r[1]) / (4 * costs[0]) for r in rows]
    assert N == [1, 2, 2, 16, 4]
    # samples 0..15 of every shift once, then 0..3 again for the looser eps
    assert sum(drawn) == 16 + 4
    drawn.clear()
    for e, row, line in zip(eps, rows, log.splitlines()):
        cfg = write_config(tmp_path, "one.json", eps=[e], **kw)
        assert main(["estimate", "--config", str(cfg), "--out", str(tmp_path / "one")]) == 0
        assert read_rows(tmp_path / "one" / "estimate.csv")[1] == row
        assert capsys.readouterr().out == line + "\n"
    assert sum(drawn) == sum(N)


def test_estimate_reports_failure(tmp_path):
    for estimator in ("mlqmc", "mlmc"):
        cfg = write_config(
            tmp_path, mesh_levels=[1], haar_levels=[3], eps=[1e-3], M=8,
            L_min=1, L_max=1, estimator=estimator,
        )
        out = tmp_path / estimator
        assert main(["estimate", "--config", str(cfg), "--out", str(out)]) == 3
        row = read_rows(out / "estimate.csv")[1]
        assert row[3] == "failed"
        # the cost and estimate of the samples drawn before the failure
        assert float(row[1]) > 0 and float(row[2]) > 0


def test_estimate_mlmc_reports_an_unreachable_allocation(tmp_path, capsys):
    """An mlmc tolerance whose optimal sample counts overflow an int64 ends
    in a failed row after the rows before it, not in a traceback."""
    cfg = write_config(
        tmp_path, mesh_levels=[1, 2, 3], haar_levels=[2, 2, 2], estimator="mlmc",
        N_init=8, eps=[1e-3, 1e-14],
    )
    out = tmp_path / "o"
    assert main(["estimate", "--config", str(cfg), "--out", str(out)]) == 3
    rows = read_rows(out / "estimate.csv")
    assert len(rows) == 3 and len(rows[1]) == 3
    assert rows[2][0] == "1e-14" and rows[2][3] == "failed"
    # the cost and estimate of the samples drawn before the failure
    assert float(rows[2][1]) > 0 and float(rows[2][2]) > 0
    assert capsys.readouterr().out.splitlines()[-1].endswith("[failed]")


def test_estimate_rejects_l_min_above_the_mesh_levels(tmp_path, capsys):
    for estimator in ("mlqmc", "mlmc"):
        cfg = write_config(tmp_path, estimator=estimator, eps=[0.2], L_min=3)
        assert main(["estimate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "L_min" in capsys.readouterr().err
    # screen and the single-level qmc estimator ignore L_min
    cfg = write_config(tmp_path, estimator="qmc", eps=[0.2], L_min=3)
    for command in ("estimate", "screen"):
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / command)]) == 0


def test_estimate_reports_the_sample_cap(tmp_path, monkeypatch):
    # converges with N up to 4 on a level, so only the cap can fail it
    cfg = write_config(
        tmp_path, mesh_levels=[1, 2, 3, 4], haar_levels=[1, 1, 1, 1], eps=[1e-3], M=4
    )
    for cap, code in ((2, 0), (1, 3)):
        monkeypatch.setattr(mlqmc, "MAX_QMC_DOUBLINGS", cap)
        out = tmp_path / f"cap{cap}"
        assert main(["estimate", "--config", str(cfg), "--out", str(out)]) == code
        rows = read_rows(out / "estimate.csv")
        assert len(rows[1]) == (3 if code == 0 else 4)
    assert rows[1][3] == "failed"


def declared_script(name):
    """Target of `name` in the [project.scripts] table of pyproject.toml."""
    # A plain match of the table up to the next header: 3.10 has no tomllib.
    table = PYPROJECT.read_text().partition("\n[project.scripts]\n")[2]
    table = table.split("\n[", 1)[0]
    match = re.search(rf'^{re.escape(name)}\s*=\s*"([^"]*)"', table, re.M)
    return match and match.group(1)


def test_cli_import_and_run_load_no_scipy(tmp_path):
    """scipy is the tests' oracle, not a dependency: importing the CLI loads
    no scipy module, and neither does a run unless numpy bundles no
    OpenBLAS and the banded Cholesky falls back to scipy's LAPACK. Neither
    loads numpy.ma, which a run does not need and whose import is slow,
    and a pooled run loads neither multiprocessing nor concurrent.futures."""
    cfg = write_config(tmp_path)
    src = str(Path(haarmc.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, inherited])))
    script = (
        "import json, sys\n"
        "import haarmc.cli\n"
        "scipy_modules = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "ma_modules = lambda: sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma'])\n"
        "after_import = scipy_modules(), ma_modules()\n"
        "code = haarmc.cli.main(['screen', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
        "fallback = haarmc.fem._openblas_band_routines() is None\n"
        "pooled = haarmc.cli.main(\n"
        "    ['screen', '--config', sys.argv[1], '--out', sys.argv[2] + '2', '--threads', '2']\n"
        ")\n"
        "pool_modules = sorted(\n"
        "    m for m in sys.modules if m.split('.')[0] in ('multiprocessing', 'concurrent')\n"
        ")\n"
        "print(json.dumps([code, after_import, scipy_modules(), ma_modules(), fallback, pooled, pool_modules]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(cfg), str(tmp_path / "out")],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    code, after_import, after_run, ma_after_run, fallback, pooled, pool_modules = json.loads(
        proc.stdout.splitlines()[-1]
    )
    assert code == pooled == 0
    # a --threads 2 run's bare fork workers need neither package
    assert pool_modules == []
    assert after_import == [[], []]
    assert fallback or after_run == []
    assert ma_after_run == []


def has_glibc():
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (ValueError, OSError):
        return False


@pytest.mark.skipif(not has_glibc(), reason="the CLI's allocator policy is glibc's")
def test_cli_keeps_freed_memory_for_the_next_batch(tmp_path):
    """After cli.main, a repeated batch call reuses the pages its first call
    faulted in: without the allocator policy each call of this one faults
    1 500 to 2 100 pages in again. A second cli.main leaves the policy as
    it was."""
    cfg = write_config(tmp_path)
    src = str(Path(haarmc.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, inherited])))
    script = (
        "import json, resource, sys\n"
        "import haarmc.cli\n"
        "from haarmc.problem import build_level_contexts, make_level_samplers\n"
        "params = haarmc.cli._matern_params(haarmc.cli.RunConfig(dim=1))\n"
        "ctx = build_level_contexts(1, [2, 3], [6, 6], params)[1]\n"
        "batch = make_level_samplers([ctx], 0)[0].batch\n"
        "def faults():\n"
        "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "    batch(range(0, 16), 0, 32)\n"
        "    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before\n"
        "runs = []\n"
        "for k in range(2):\n"
        "    code = haarmc.cli.main(['screen', '--config', sys.argv[1], '--out', sys.argv[2] + str(k)])\n"
        "    runs.append([code, faults(), faults()])\n"
        "print(json.dumps(runs))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(cfg), str(tmp_path / "out")],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    for code, first, second in json.loads(proc.stdout.splitlines()[-1]):
        assert code == 0
        assert second < 50, (first, second)


def test_cli_allocator_policy_needs_glibc(monkeypatch):
    import ctypes

    def no_glibc(name):
        raise ValueError(f"unrecognized configuration name {name!r}")

    def no_load(*args):
        raise AssertionError("the policy loaded a library")

    monkeypatch.setattr(os, "confstr", no_glibc)
    monkeypatch.setattr(ctypes, "CDLL", no_load)
    assert cli._keep_freed_memory() is False


def test_console_script(tmp_path):
    """The `haarmc` console script declared in pyproject.toml runs as a process.

    The declared target is launched the way an installer's generated wrapper
    launches it, so no install is needed.
    """
    target = declared_script("haarmc")
    assert target == "haarmc.cli:main"
    module, func = target.split(":")
    cfg = write_config(tmp_path)
    # The inherited PYTHONPATH may be relative, and the child runs elsewhere.
    src = str(Path(haarmc.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, inherited])))
    wrapper = f"import sys; from {module} import {func}; sys.exit({func}())"
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, "screen", "--config", str(cfg), "--out", str(out)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "alpha=" in proc.stdout
    assert (out / "screen.csv").exists()
