"""The haarmc benchmark: time to result of the `haarmc` CLI on fixed workloads.

    python3 bench/run.py --workload screen-2d --seed 0 --seconds 50 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 50 --trace 0

Run from the root of a checkout. Each invocation is one CLI process
(bench/child.py) on the workload's config; the run starts them one after
another (a closed loop of one client) until --seconds have passed, cycling
through the CLI seeds cli_seeds(--seed). How much work `estimate` does
depends on the seed, so a run's medians are taken over several seeds, which
keeps them steady from one --seed to the next. Every invocation's output is
checked:

- the process exits 0 and no row of estimate.csv is flagged `failed`;
- every value is finite;
- for a CLI seed with a stored reference (bench/references.json holds CLI
  seeds 0..99, i.e. --seed 0..24), the dof cost equals the reference exactly
  and the estimate, or the per-level screen mean and variance, match it to
  REL_TOL;
- invocations of the run with the same CLI seed write byte-identical files,
  traced or not.

Failures count against the invocations attempted (failed_frac, printed per
run, and the `attempted`/`failed` fields of the result line). With --trace 0
the last line holds the end-to-end metrics, medians over the run's
invocations. With --trace 1 the run alternates untraced and traced
invocations and the last line holds the per-layer metrics, medians over the
traced ones, and the tracing overhead. Every sample run uses cost_model
"dofs", so the work done does not depend on how fast any layer is.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

from spans import ancestors, covered_time, percentile, self_times, tail_percentile

BENCH_DIR = Path(__file__).resolve().parent
REFERENCES = BENCH_DIR / "references.json"
REL_TOL = 1e-8
RUN_LIMIT_S = 170.0  # the whole run, set-up included, ends within 180 s
SEEDS_PER_RUN = 4
MIN_INVOCATIONS = SEEDS_PER_RUN + 1  # so at least one CLI seed runs twice
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

WORKLOADS = {
    # Many small incremental batch(m, N, 2N) calls on tiny tridiagonal
    # systems: per-call overhead of the per-sample layers and the greedy driver.
    # M 128 and L_min 6 make the greedy allocation, and with it the work,
    # nearly the same for every seed (at M 32 it varied by a third). Not in
    # BENCHMARK.json: its run medians spread by up to 0.27 across seeds on a
    # 2-vCPU VM, beyond the largest regression bound; run it by name.
    "estimate-1d": {
        "command": "estimate",
        "threads": 1,
        "config": {
            "dim": 1,
            "mesh_levels": [1, 2, 3, 4, 5, 6],
            "haar_levels": [6, 6, 6, 6, 6, 6],
            "estimator": "mlqmc",
            "eps": [2e-4],
            "M": 128,
            "L_min": 6,
            "cost_model": "dofs",
        },
    },
    # The only workload where set-up (the three-way supermesh) and the
    # larger 2D solves and noise maps dominate.
    "screen-2d": {
        "command": "screen",
        "threads": 1,
        "config": {
            "dim": 2,
            "mesh_levels": [1, 2, 3, 4],
            "haar_levels": [3, 3, 3, 3],
            "N_screen": 32,
            "M": 8,
            "cost_model": "dofs",
        },
    },
    # The 1D per-sample layers through a few bulk batches replayed in the
    # CLI thread pool: where thread or process parallelism shows.
    "screen-1d-t2": {
        "command": "screen",
        "threads": 2,
        "config": {
            "dim": 1,
            "mesh_levels": [1, 2, 3, 4, 5, 6],
            "haar_levels": [6, 6, 6, 6, 6, 6],
            "N_screen": 32,
            "M": 16,
            "cost_model": "dofs",
        },
    },
}

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "sample_s": "s",
    "dofs_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "mesh.build_hierarchy_s": "s",
    "supermesh.three_way_s": "s",
    "supermesh.two_way_s": "s",
    "supermesh.cells": "count",
    "supermesh.us_per_cell": "us",
    "whitenoise.build_tables_s": "s",
    "whitenoise.noise_map_s": "s",
    "whitenoise.noise_map_calls": "count",
    "whitenoise.noise_map_us_per_sample": "us",
    "lowdisc.sobol_s": "s",
    "lowdisc.inv_cdf_s": "s",
    "lowdisc.normal_s": "s",
    "lowdisc.normal_calls": "count",
    "lowdisc.shift_s": "s",
    "fem.helmholtz_factor_s": "s",
    "fem.matern_field_s": "s",
    "fem.diffusion_assemble_s": "s",
    "fem.diffusion_solve_s": "s",
    "fem.diffusion_solves": "count",
    "fem.diffusion_solve_ms.p50": "ms",
    "fem.diffusion_solve_ms.tail": "ms",
    "fem.diffusion_solve_ms.tail_pct": "%",
    "fem.diffusion_solve_ms.n": "count",
    "fem.load_assemble_calls": "count",
    "problem.batch_self_s": "s",
    "problem.batch_calls": "count",
    "problem.samples": "count",
    "problem.batch_ms.p50": "ms",
    "problem.batch_ms.tail": "ms",
    "problem.batch_ms.tail_pct": "%",
    "problem.batch_ms.n": "count",
    "mlqmc.driver_self_s": "s",
    "cli.pool_busy_ratio": "ratio",
    "cli.write_s": "s",
    "unattributed_s": "s",
    "trace.overhead_s": "s",
}

SETUP_SPANS = ("problem.build_level_contexts", "problem.make_level_samplers")


def workload_config(name: str, seed: int) -> dict:
    return dict(WORKLOADS[name]["config"], seed=seed)


def child_env() -> dict:
    """BLAS pinned to one thread, so a run never holds more threads than the
    CLI's own; bytecode is written, as an installed package would have it."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    return dict(env, **CHILD_ENV)


def cli_seeds(seed: int) -> list:
    return [seed * SEEDS_PER_RUN + j for j in range(SEEDS_PER_RUN)]


# --------------------------------------------------------------------------
# one invocation


def invoke(workload: str, config_path: Path, seed: int, out_dir: Path, report: Path, trace: bool,
           timeout: float):
    """Run one CLI process; returns its wall, CPU and peak RSS with its report."""
    spec = WORKLOADS[workload]
    cmd = [
        sys.executable, str(BENCH_DIR / "child.py"), str(report), "1" if trace else "0", "--",
        spec["command"], "--config", str(config_path), "--out", str(out_dir),
        "--seed", str(seed), "--threads", str(spec["threads"]),
    ]
    err_path = report.with_suffix(".stderr")
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=child_env(), stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            # wait4 gives this child's own CPU time and peak RSS.
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = {
        "trace": trace,
        "exit": proc.returncode,
        "stderr": err_path.read_text(errors="replace"),
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "out": out_dir,
        "report": None,
    }
    if report.exists():
        with open(report) as f:
            result["report"] = json.load(f)
    return result


def _named_spans(report):
    names = report["names"]
    return [(names[s[0]], *s[1:]) for s in report["spans"]]


def end_to_end(inv, work: float) -> dict:
    spans = _named_spans(inv["report"])
    setup = [s for s in spans if s[0] in SETUP_SPANS]
    main = next(s for s in spans if s[0] == "cli.main")
    setup_end = max(s[2] for s in setup)
    sample_s = main[2] - setup_end
    return {
        "wall_s": inv["wall_s"],
        "setup_s": sum(s[2] - s[1] for s in setup),
        "sample_s": sample_s,
        "dofs_per_s": work / sample_s,
        "cpu_s": inv["cpu_s"],
        "peak_rss_mb": inv["peak_rss_mb"],
    }


def layer_metrics(report, wall: float) -> dict:
    spans = _named_spans(report)
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s[0]].append(s)
    of = by_name.__getitem__

    def dur(name):
        return sum(s[2] - s[1] for s in of(name))

    def count(name):
        return sum(s[5] for s in of(name))

    def self_of(name):
        return sum(t for s, t in zip(spans, selfs) if s[0] == name)

    m = {
        "mesh.build_hierarchy_s": dur("mesh.build_hierarchy"),
        "supermesh.three_way_s": dur("supermesh.three_way"),
        "supermesh.two_way_s": dur("supermesh.two_way"),
        "supermesh.cells": count("supermesh.three_way") + count("supermesh.two_way"),
        "whitenoise.build_tables_s": dur("whitenoise.build_tables"),
        "whitenoise.noise_map_s": dur("whitenoise.noise_map"),
        "whitenoise.noise_map_calls": len(of("whitenoise.noise_map")),
        "lowdisc.sobol_s": dur("lowdisc.sobol"),
        "lowdisc.inv_cdf_s": dur("lowdisc.inv_cdf"),
        "lowdisc.normal_s": dur("lowdisc.normal"),
        "lowdisc.normal_calls": len(of("lowdisc.normal")),
        "lowdisc.shift_s": dur("lowdisc.shift"),
        "fem.helmholtz_factor_s": sum(
            s[2] - s[1]
            for i, s in enumerate(spans)
            if s[0] == "fem.factorize" and "problem.build_level_contexts" in ancestors(spans, i)
        ),
        "fem.matern_field_s": dur("fem.matern_field"),
        "fem.diffusion_assemble_s": dur("fem.diffusion_assemble"),
        "fem.diffusion_solve_s": dur("fem.diffusion_solve"),
        "fem.diffusion_solves": len(of("fem.diffusion_solve")),
        "fem.load_assemble_calls": len(of("fem.load_assemble")),
        "problem.batch_self_s": self_of("problem.batch"),
        "problem.batch_calls": len(of("problem.batch")),
        "problem.samples": count("problem.batch"),
        "mlqmc.driver_self_s": self_of("mlqmc.driver") + self_of("mlqmc.screening"),
        "cli.write_s": dur("cli.write"),
        "unattributed_s": wall - covered_time(spans),
    }
    m["supermesh.us_per_cell"] = 1e6 * (m["supermesh.three_way_s"] + m["supermesh.two_way_s"]) / max(m["supermesh.cells"], 1)
    m["whitenoise.noise_map_us_per_sample"] = 1e6 * m["whitenoise.noise_map_s"] / max(count("whitenoise.noise_map"), 1)
    for prefix, name in (("fem.diffusion_solve_ms", "fem.diffusion_solve"), ("problem.batch_ms", "problem.batch")):
        ms = [1e3 * (s[2] - s[1]) for s in of(name)] or [0.0]
        q, tail = tail_percentile(ms)
        m.update({f"{prefix}.p50": percentile(ms, 50.0), f"{prefix}.tail": tail,
                  f"{prefix}.tail_pct": q, f"{prefix}.n": len(of(name))})
    # Batch time over the sampling phase's wall: the replay pool for screen,
    # the greedy driver for estimate.
    phase = of("cli.replay") or of("mlqmc.driver")
    phase_wall = sum(s[2] - s[1] for s in phase)
    m["cli.pool_busy_ratio"] = dur("problem.batch") / phase_wall if phase_wall > 0 else 0.0
    return m


# --------------------------------------------------------------------------
# output gate


def _read_csv(path: Path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def read_output(workload: str, out: Path):
    """(values, work, failed_rows) from the CSV a CLI invocation wrote; work
    is the dof-weighted work it did."""
    if WORKLOADS[workload]["command"] == "estimate":
        rows = _read_csv(out / "estimate.csv")[1:]
        values = {"cost": [float(r[1]) for r in rows], "estimate": [float(r[2]) for r in rows]}
        return values, sum(values["cost"]), any(len(r) > 3 for r in rows)
    rows = _read_csv(out / "screen.csv")[1:]
    values = {
        "cost": [float(r[5]) for r in rows],
        "mean": [float(r[3]) for r in rows],
        "var": [float(r[4]) for r in rows],
    }
    return values, sum(int(r[1]) * int(r[2]) * float(r[5]) for r in rows), False


def check_output(workload: str, inv, ref) -> tuple:
    """(problems, work) for one invocation."""
    if inv["exit"] != 0:
        return [f"exit code {inv['exit']}: {inv['stderr'].strip()[-300:]}"], 0.0
    if inv["report"] is None:
        return ["child wrote no report"], 0.0
    got, work, failed_rows = read_output(workload, inv["out"])
    problems = ["estimate.csv has failed rows"] if failed_rows else []
    if not all(math.isfinite(v) for vals in got.values() for v in vals):
        problems.append("non-finite value in output")
    if ref is not None:
        if got["cost"] != ref["cost"]:
            problems.append(f"dof cost {got['cost']} != reference {ref['cost']}")
        for key in got.keys() - {"cost"}:
            if len(got[key]) != len(ref[key]) or not all(map(_close, got[key], ref[key])):
                problems.append(f"{key} {got[key]} differs from reference {ref[key]}")
    return problems, work


def same_files(a: Path, b: Path) -> bool:
    files_a = sorted(p.name for p in a.iterdir())
    files_b = sorted(p.name for p in b.iterdir())
    return files_a == files_b and all((a / n).read_bytes() == (b / n).read_bytes() for n in files_a)


# --------------------------------------------------------------------------
# a run


def run(workload: str, seed: int, seconds: float, trace: bool, log) -> dict:
    t_start = time.perf_counter()
    work_dir = BENCH_DIR / ".work" / f"{workload}-{seed}-{os.getpid()}"
    if work_dir.exists():
        shutil.rmtree(work_dir)
    work_dir.mkdir(parents=True)
    try:
        config_path = work_dir / "config.json"
        seeds = cli_seeds(seed)
        config_path.write_text(json.dumps(workload_config(workload, seeds[0]), indent=2))
        with open(REFERENCES) as f:
            refs = json.load(f).get(workload, {})
        missing = [s for s in seeds if str(s) not in refs]
        if missing:
            log(f"{workload}: no stored reference for CLI seeds {missing}; for those, checking "
                "exit status, failed rows and finite values only")
        # Compile and load the library once, so that the first invocation
        # does not pay for writing bytecode.
        subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, 'src'); import haarmc.cli"],
                       env=child_env(), check=True)
        invocations, failures = [], 0
        first_out = {}
        while True:
            # Start another invocation only if it is expected to end within
            # --seconds (beyond the minimum count) and surely within the limit.
            elapsed = time.perf_counter() - t_start
            walls = [i["wall_s"] for i in invocations]
            if len(invocations) >= MIN_INVOCATIONS and elapsed + statistics.median(walls) > seconds:
                break
            if walls and elapsed + 1.5 * max(walls) > RUN_LIMIT_S:
                break
            k = len(invocations)
            traced = trace and k % 2 == 1
            cli_seed = seeds[k % len(seeds)]
            inv = invoke(workload, config_path, cli_seed, work_dir / f"out{k}", work_dir / f"report{k}.json",
                         traced, RUN_LIMIT_S - elapsed)
            problems, inv["work"] = check_output(workload, inv, refs.get(str(cli_seed)))
            if not problems:
                first = first_out.setdefault(cli_seed, inv["out"])
                if not same_files(first, inv["out"]):
                    problems.append(f"output files differ from those of invocation {first.name}")
            if problems:
                failures += 1
                for p in problems:
                    log(f"{workload} invocation {k} (CLI seed {cli_seed}{', traced' if traced else ''}) "
                        f"FAILED: {p}")
            inv["ok"] = not problems
            log(f"  invocation {k}: CLI seed {cli_seed}{' traced' if traced else ''} "
                f"wall {inv['wall_s']:.3f} s, work {inv['work']:.6g} dofs, {'ok' if inv['ok'] else 'FAILED'}")
            invocations.append(inv)
        return summarize(workload, invocations, failures, trace)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def summarize(workload: str, invocations, failures: int, trace: bool) -> dict:
    ok = [i for i in invocations if i["ok"]]
    plain = [i for i in ok if not i["trace"]]
    traced = [i for i in ok if i["trace"]]
    e2e = [end_to_end(i, i["work"]) for i in plain]
    result = {
        "workload": workload,
        "attempted": len(invocations),
        "failed": failures,
        "env": {
            "nproc": os.cpu_count(),
            **(ok[0]["report"]["threads_env"] if ok else {}),
            **(ok[0]["report"]["versions"] if ok else {}),
        },
        "end_to_end": {k: statistics.median(m[k] for m in e2e) for k in END_TO_END} if e2e else {},
        "per_layer": {},
    }
    if traced and plain:
        layers = [layer_metrics(i["report"], i["wall_s"]) for i in traced]
        per_layer = {k: statistics.median(m[k] for m in layers) for k in PER_LAYER if k in layers[0]}
        per_layer["trace.overhead_s"] = (
            statistics.median(i["wall_s"] for i in traced) - result["end_to_end"]["wall_s"]
        )
        result["per_layer"] = per_layer
    return result


def print_result(result, trace: bool) -> dict:
    """Human-readable lines; returns the metrics of the result line."""
    n = result["attempted"]
    print(f"workload {result['workload']}: {n} invocations, {result['failed']} failed "
          f"(failed_frac {result['failed'] / n:.3g})")
    print("env: " + " ".join(f"{k}={v}" for k, v in result["env"].items()))
    for k, v in result["end_to_end"].items():
        print(f"  {k:40s} {v:14.6g} {END_TO_END[k]}")
    for k, v in result["per_layer"].items():
        print(f"  {k:40s} {v:14.6g} {PER_LAYER[k]}")
    units = PER_LAYER if trace else END_TO_END
    values = result["per_layer"] if trace else result["end_to_end"]
    return {k: {"value": values[k], "unit": units[k]} for k in units if k in values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (Path.cwd() / "src" / "haarmc" / "cli.py").is_file():
        print("run from the root of a haarmc checkout: src/haarmc/cli.py not found", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("--seed must be >= 0", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result = run(name, args.seed, args.seconds, bool(args.trace), functools.partial(print, flush=True))
        metrics = print_result(result, bool(args.trace))
        expected = PER_LAYER if args.trace else END_TO_END
        results[name] = {
            "correct": result["failed"] == 0 and set(metrics) == set(expected),
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
