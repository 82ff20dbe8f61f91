"""Write bench/references.json: the output of one CLI invocation per
workload and CLI seed, which later runs must reproduce.

    python3 bench/record_references.py 0 19

records the CLI seeds of benchmark seeds 0..19. Run from the root of a
checkout, at the commit whose outputs are the reference. Stops with an
error if any invocation fails.
"""

import json
import shutil
import sys
from concurrent.futures import ThreadPoolExecutor

from run import BENCH_DIR, REFERENCES, WORKLOADS, cli_seeds, invoke, read_output, workload_config


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    first, last = map(int, argv)
    work_dir = BENCH_DIR / ".work" / "references"
    work_dir.mkdir(parents=True, exist_ok=True)
    tasks = [(name, s) for name in WORKLOADS for n in range(first, last + 1) for s in cli_seeds(n)]

    def record(task):
        name, seed = task
        config = work_dir / f"{name}.json"
        out = work_dir / f"{name}-{seed}"
        inv = invoke(name, config, seed, out, work_dir / f"{name}-{seed}.json", False, 600.0)
        if inv["exit"] != 0:
            return None, inv["stderr"]
        values, _, failed_rows = read_output(name, out)
        return (None if failed_rows else values), "failed rows"

    try:
        for name in WORKLOADS:
            (work_dir / f"{name}.json").write_text(json.dumps(workload_config(name, 0)))
        with ThreadPoolExecutor(max_workers=2) as pool:
            results = list(pool.map(record, tasks))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    refs = {name: {} for name in WORKLOADS}
    for (name, seed), (values, error) in zip(tasks, results):
        if values is None:
            print(f"{name} CLI seed {seed} failed: {error}", file=sys.stderr)
            return 1
        refs[name][str(seed)] = values
    with open(REFERENCES, "w") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
