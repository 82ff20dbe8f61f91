"""One benchmark invocation of the haarmc CLI, run as its own process.

    python3 bench/child.py REPORT.json TRACE -- <haarmc CLI arguments>

Runs `haarmc.cli.main` from the checkout's `src` with wrappers installed on
the library functions, where their callers look them up, then writes the
exit code, versions and spans to REPORT.json. With TRACE 0 only set-up and
the command as a whole are wrapped, which is what the end-to-end metrics
need; with TRACE 1 every layer named in run.py's per-layer metrics is.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import Recorder  # noqa: E402


def _n_rows(args, result):
    return len(args[2])  # apply_noise_maps(tables, layout, z, z_cells)


def _n_cells(args, result):
    return len(result)


def _wrap(rec, module, attr, name, count=None):
    setattr(module, attr, rec.wrap(name, getattr(module, attr), count))


def install(rec: Recorder, trace: bool) -> None:
    import haarmc.cli as cli

    make_samplers = rec.wrap("problem.make_level_samplers", cli.make_level_samplers)

    def make_level_samplers(*args, **kwargs):
        samplers = make_samplers(*args, **kwargs)
        if trace:
            for s in samplers:
                s.batch = rec.wrap("problem.batch", s.batch, lambda a, r: a[2] - a[1])
        return samplers

    cli.make_level_samplers = make_level_samplers
    _wrap(rec, cli, "build_level_contexts", "problem.build_level_contexts")
    if not trace:
        return

    import haarmc.fem as fem
    import haarmc.lowdisc as lowdisc
    import haarmc.problem as problem

    _wrap(rec, cli, "_replay_samplers", "cli.replay")
    _wrap(rec, cli, "screening_run", "mlqmc.screening")
    _wrap(rec, cli, "mlqmc_run", "mlqmc.driver")
    for attr in ("write_screening_csv", "write_estimate_csv", "_prepare_out"):
        _wrap(rec, cli, attr, "cli.write")

    _wrap(rec, problem, "build_hierarchy", "mesh.build_hierarchy")
    _wrap(rec, problem, "build_supermesh", "supermesh.two_way", _n_cells)
    _wrap(rec, problem, "build_three_way_supermesh", "supermesh.three_way", _n_cells)
    _wrap(rec, problem, "build_tables", "whitenoise.build_tables")
    _wrap(rec, problem, "apply_noise_maps", "whitenoise.noise_map", _n_rows)
    _wrap(rec, problem, "sobol_points", "lowdisc.sobol")
    _wrap(rec, problem, "inverse_normal_cdf", "lowdisc.inv_cdf")
    _wrap(rec, problem, "normal_vector", "lowdisc.normal")
    _wrap(rec, problem, "shifted_point", "lowdisc.shift")
    lowdisc.DigitalShift.from_stream = staticmethod(
        rec.wrap("lowdisc.shift", lowdisc.DigitalShift.from_stream)
    )

    # problem reaches these through the fem module object; solve_spd reaches
    # factorized_spd through fem's globals, so both see the wrapped versions.
    _wrap(rec, fem, "factorized_spd", "fem.factorize")
    _wrap(rec, fem, "matern_field_from_noise", "fem.matern_field")
    _wrap(rec, fem, "assemble_lognormal_diffusion", "fem.diffusion_assemble")
    _wrap(rec, fem, "solve_spd", "fem.diffusion_solve")
    _wrap(rec, fem, "assemble_load", "fem.load_assemble")


def main(argv) -> int:
    report_path, trace, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: child.py REPORT TRACE -- <cli args>")
    trace = trace == "1"
    sys.path.insert(0, str(Path.cwd() / "src"))
    rec = Recorder(T0)
    import_ = rec.wrap("cli.import", lambda: __import__("haarmc.cli"))
    import_()
    import haarmc.cli as cli
    import numpy
    import scipy

    install(rec, trace)
    code = rec.wrap("cli.main", cli.main)(cli_args)
    names = sorted({s[0] for s in rec.spans})
    index = {n: i for i, n in enumerate(names)}
    report = {
        "exit": code,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "threads_env": {
            k: os.environ.get(k, "") for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "names": names,
        "spans": [[index[s[0]], *s[1:]] for s in rec.spans],
    }
    with open(report_path, "w") as f:
        json.dump(report, f, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
