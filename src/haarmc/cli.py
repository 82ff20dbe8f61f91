"""Configuration-driven command line front end.

Four commands over one JSON config: `field` (one sample's fields at every
level and, on request, its meshes, supermeshes and noise), `screen`
(level-by-level bias/variance/cost tables), `nvar` (N * variance tables),
and `estimate` (run an estimator over a tolerance sweep). All outputs are
CSV plus a manifest; reruns with the same manifest are byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import mmap
import os
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial
from pathlib import Path
from typing import List, Optional

import numpy as np

from . import __version__
from .fem import MaternParams
from .lowdisc import SobolGenerator
from .mesh import Box, write_mesh
from .mlqmc import (
    ConvergenceFailure,
    LevelSampler,
    mlmc_run,
    mlqmc_run,
    nvar_diagnostic,
    qmc_run,
    screening_run,
    write_estimate_csv,
    write_nvar_csv,
    write_screening_csv,
)
from .problem import (
    build_level_contexts,
    default_d_box,
    default_g_box,
    make_level_samplers,
    sample_fields,
    sample_noise,
)
from .supermesh import write_supermesh_csv
from .whitenoise import qmc_block_size


class ConfigError(ValueError):
    """Invalid configuration; `path` points at the offending field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass
class MaternConfig:
    mode: str = "match-lognormal"  # or "explicit"
    lam: float = 0.25
    mean: float = 1.0
    variance: float = 0.2
    sigma: Optional[float] = None
    mean_shift: float = 0.0


@dataclass
class RunConfig:
    dim: int = 2
    mesh_levels: List[int] = field(default_factory=lambda: [1, 2, 3, 4, 5])
    haar_levels: List[int] = field(default_factory=lambda: [3, 3, 3, 3, 3])
    g_box: Optional[List[List[float]]] = None
    d_box: Optional[List[List[float]]] = None
    matern: MaternConfig = field(default_factory=MaternConfig)
    estimator: str = "mlqmc"
    eps: List[float] = field(default_factory=lambda: [2e-4])
    theta: float = 0.5
    M: int = 32
    seed: int = 0
    out: str = "out"
    cost_model: str = "dofs"
    L_min: int = 2
    L_max: Optional[int] = None
    N_init: int = 64
    N_screen: int = 128
    N_list: List[int] = field(default_factory=lambda: [16, 32, 64, 128, 256])


# the config keys are the dataclass fields; MaternConfig.lam is "lambda"
_MATERN_KEYS = {"lambda" if f.name == "lam" else f.name for f in fields(MaternConfig)}
_TOP_KEYS = {f.name for f in fields(RunConfig)}


def _require(cond, path, message):
    if not cond:
        raise ConfigError(path, message)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real(v) -> bool:
    """A finite int or float; bool counts as neither."""
    return _is_int(v) or (isinstance(v, float) and math.isfinite(v))


def parse_config(data: dict) -> RunConfig:
    """Dict (parsed JSON) to a validated RunConfig."""
    _require(isinstance(data, dict), "config", "must be a JSON object")
    unknown = set(data) - _TOP_KEYS
    _require(not unknown, sorted(unknown)[0] if unknown else "", "unknown field")
    cfg = RunConfig()
    md = data.get("matern", {})
    _require(isinstance(md, dict), "matern", "must be an object")
    unknown = set(md) - _MATERN_KEYS
    _require(
        not unknown, "matern." + (sorted(unknown)[0] if unknown else ""), "unknown field"
    )
    mat = MaternConfig(**{"lam" if k == "lambda" else k: v for k, v in md.items()})
    for key in _TOP_KEYS - {"matern"}:
        if key in data:
            setattr(cfg, key, data[key])
    cfg.matern = mat
    validate_config(cfg)
    return cfg


def validate_config(cfg: RunConfig) -> None:
    for path, value in (
        ("dim", cfg.dim),
        ("M", cfg.M),
        ("seed", cfg.seed),
        ("L_min", cfg.L_min),
        ("N_init", cfg.N_init),
        ("N_screen", cfg.N_screen),
    ):
        _require(_is_int(value), path, "must be an integer")
    for path, value in (
        ("theta", cfg.theta),
        ("matern.lambda", cfg.matern.lam),
        ("matern.mean", cfg.matern.mean),
        ("matern.variance", cfg.matern.variance),
        ("matern.mean_shift", cfg.matern.mean_shift),
    ):
        _require(_is_real(value), path, "must be a finite number")
    _require(cfg.dim in (1, 2), "dim", "must be 1 or 2")
    _require(
        isinstance(cfg.mesh_levels, list) and len(cfg.mesh_levels) > 0,
        "mesh_levels",
        "must be a non-empty list",
    )
    _require(
        all(_is_int(v) and v >= 1 for v in cfg.mesh_levels),
        "mesh_levels",
        "entries must be integers >= 1",
    )
    _require(
        all(b > a for a, b in zip(cfg.mesh_levels, cfg.mesh_levels[1:])),
        "mesh_levels",
        "must be strictly increasing",
    )
    _require(
        isinstance(cfg.haar_levels, list)
        and len(cfg.haar_levels) == len(cfg.mesh_levels),
        "haar_levels",
        "must match mesh_levels in length",
    )
    _require(
        all(_is_int(v) and v >= -1 for v in cfg.haar_levels),
        "haar_levels",
        "entries must be integers >= -1",
    )
    _require(
        all(b >= a for a, b in zip(cfg.haar_levels, cfg.haar_levels[1:])),
        "haar_levels",
        "must be non-decreasing",
    )
    for name in ("g_box", "d_box"):
        box = getattr(cfg, name)
        if box is None:
            continue
        ok = (
            isinstance(box, list)
            and len(box) == 2
            and all(
                isinstance(side, list)
                and len(side) == cfg.dim
                and all(_is_real(v) for v in side)
                for side in box
            )
            and all(b > a for a, b in zip(box[0], box[1]))
        )
        _require(ok, name, "must be [lo, hi] coordinate lists with lo < hi")
    _require(
        cfg.matern.mode in ("match-lognormal", "explicit"),
        "matern.mode",
        "must be 'match-lognormal' or 'explicit'",
    )
    _require(cfg.matern.lam > 0, "matern.lambda", "must be positive")
    if cfg.matern.mode == "match-lognormal":
        _require(cfg.matern.mean > 0, "matern.mean", "must be positive")
        _require(cfg.matern.variance > 0, "matern.variance", "must be positive")
    else:
        _require(cfg.matern.sigma is not None, "matern.sigma", "required")
    # unused when matched to the log-normal, but part of the config hash
    if cfg.matern.sigma is not None:
        _require(_is_real(cfg.matern.sigma), "matern.sigma", "must be a finite number")
        _require(cfg.matern.sigma >= 0, "matern.sigma", "must be non-negative")
    _require(
        cfg.estimator in ("qmc", "mlmc", "mlqmc"),
        "estimator",
        "must be 'qmc', 'mlmc' or 'mlqmc'",
    )
    _require(isinstance(cfg.eps, list) and cfg.eps, "eps", "must be a non-empty list")
    for i, e in enumerate(cfg.eps):
        _require(
            _is_real(e) and e > 0, f"eps[{i}]", "must be positive"
        )
    _require(0.0 < cfg.theta < 1.0, "theta", "must lie in (0, 1)")
    _require(cfg.M >= 2, "M", "must be an integer >= 2")
    _require(cfg.seed >= 0, "seed", "must be >= 0")
    _require(cfg.cost_model == "dofs", "cost_model", "must be 'dofs'")
    _require(cfg.L_min >= 1, "L_min", "must be >= 1")
    if cfg.L_max is not None:
        _require(
            _is_int(cfg.L_max) and cfg.L_max >= cfg.L_min,
            "L_max",
            "must be >= L_min",
        )
    _require(cfg.N_init >= 2, "N_init", "must be >= 2")
    _require(cfg.N_screen >= 16, "N_screen", "must be >= 16")
    _require(
        isinstance(cfg.N_list, list)
        and len(cfg.N_list) > 0
        and all(_is_int(n) and n >= 1 and not (n & (n - 1)) for n in cfg.N_list),
        "N_list",
        "must be a non-empty list of powers of two",
    )
    _require(isinstance(cfg.out, str), "out", "must be a string")


def config_to_dict(cfg: RunConfig) -> dict:
    d = asdict(cfg)
    md = d.pop("matern")
    md["lambda"] = md.pop("lam")
    d["matern"] = {k: v for k, v in md.items() if v is not None}
    return d


def config_hash(cfg: RunConfig) -> str:
    d = config_to_dict(cfg)
    d.pop("out", None)  # where results land does not affect what they contain
    text = json.dumps(d, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _matern_params(cfg: RunConfig) -> MaternParams:
    m = cfg.matern
    if m.mode == "match-lognormal":
        return MaternParams.lognormal_matched(cfg.dim, m.lam, m.mean, m.variance)
    return MaternParams.create(cfg.dim, m.sigma, m.lam, m.mean_shift)


def _boxes(cfg: RunConfig):
    g = Box(*map(tuple, cfg.g_box)) if cfg.g_box else default_g_box(cfg.dim)
    d = Box(*map(tuple, cfg.d_box)) if cfg.d_box else default_d_box(cfg.dim)
    return g, d


def _build_contexts(cfg: RunConfig):
    g_box, d_box = _boxes(cfg)
    return build_level_contexts(
        cfg.dim, cfg.mesh_levels, cfg.haar_levels, _matern_params(cfg), g_box, d_box
    )


def _usable_cores() -> List[int]:
    """The cores this process may run on, sorted: its CPU affinity where the
    platform reports one, else all of the machine's."""
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return list(range(os.cpu_count() or 1))


def _shared(shape, dtype) -> np.ndarray:
    """A zeroed array on an anonymous shared mapping: what a process forked
    after it was made writes there, this process reads."""
    count = math.prod(shape)
    buf = mmap.mmap(-1, max(1, count * np.dtype(dtype).itemsize))
    return np.frombuffer(buf, dtype, count).reshape(shape)


_TASK_BYTES = 8  # a task record: the task number, little-endian


def _pool_run(run, n: int, threads: int) -> None:
    """run(0), ..., run(n - 1), each of which keeps its results in _shared
    memory, in up to `threads` worker processes, and no more than there
    are tasks or usable cores.

    The workers are forked after the caller has built everything run
    reads, so they inherit it. They take task numbers from one shared pipe
    and mark each task they complete; a worker exits with 0 once the pipe
    runs dry, and with 1, silently, at the first task that raises. Each
    worker pins itself to a usable core of its own: Linux leaves a forked
    child on its parent's core, so unpinned workers can take turns on one
    core while the others idle. Where the platform has no placement call
    or refuses it (the core left the process's cpuset, say), the worker
    runs unpinned; this process's affinity does not change.

    This process then runs every unmarked task, in task order: all of them
    with one worker or without `os.fork`, a failing one again, so that its
    exception reaches the caller with its own type (the lowest failing
    task's), and those a dead worker left, which cost time, not the run.
    A worker that does not exit with 0 gets one line on stderr. The
    workers are reaped on every path."""
    done = _shared((n,), np.uint8)
    cores = _usable_cores()[: min(threads, n)]
    if len(cores) > 1 and hasattr(os, "fork"):
        r, w = os.pipe()
        pids = []  # the workers not yet reaped
        with open(r, "rb", buffering=0) as task_r, open(w, "wb", buffering=0) as task_w:
            try:
                for core in cores:
                    pid = os.fork()
                    if pid == 0:  # a worker, which leaves only through os._exit
                        code = 1
                        try:
                            task_w.close()
                            if hasattr(os, "sched_setaffinity"):
                                try:
                                    os.sched_setaffinity(0, {core})
                                except OSError:
                                    pass
                            while len(record := _read_exact(r, _TASK_BYTES)) == _TASK_BYTES:
                                k = int.from_bytes(record, "little")
                                run(k)
                                done[k] = 1
                            code = 0
                        finally:
                            os._exit(code)
                    pids.append(pid)
                task_r.close()
                # Filled only once the workers read it, so that a task list
                # larger than the pipe's buffer cannot block this process
                # for good.
                try:
                    _write_all(w, np.arange(n, dtype="<u8").tobytes())
                except BrokenPipeError:
                    pass  # no worker is left to read; their tasks run below
                task_w.close()
                while pids:
                    code = os.waitstatus_to_exitcode(os.waitpid(pids[0], 0)[1])
                    pid = pids.pop(0)
                    if code:
                        how = f"killed by signal {-code}" if code < 0 else f"exit code {code}"
                        print(
                            f"haarmc: worker {pid} ended ({how}); the parent runs what it left",
                            file=sys.stderr,
                        )
            finally:
                for pid in pids:  # this process failed before it reaped them
                    import signal

                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
    for k in np.flatnonzero(done == 0):
        run(int(k))


def _read_exact(fd: int, n: int) -> bytes:
    """n bytes from fd, or fewer at its end; a pipe may return a record in
    parts."""
    data = b""
    while len(data) < n and (part := os.read(fd, n - len(data))):
        data += part
    return data


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view) :]


def _replicate_blocks(M: int, N: int, chunk: int):
    """Replicates 0..M-1 in near-equal consecutive blocks of at most
    max(1, chunk // N) each: as many whole replicates of N samples as fill
    one chunk."""
    k = -(-M // max(1, chunk // N))
    return [range(j * M // k, (j + 1) * M // k) for j in range(k)]


def _replay_samplers(samplers, N: int, M: int, threads: int, chunks):
    """Precompute samples 0..N-1 of replicates 0..M-1 of every level in
    `threads` worker processes, straight into one shared (levels, M, N)
    array, and wrap it in samplers that replay slices of it.

    chunks[li] is the samples a chunk of level li holds. A task is one
    batch(ms, 0, N) call over a block of whole replicates that fills about
    one chunk (_replicate_blocks): a cheap level is one or a few calls,
    and a costly level, whose chunk holds N samples or fewer, is one call
    per replicate, so all the workers share it. The blocks depend only on
    M, N and chunks, never on the worker count, so --threads does not
    change any call's chunking or the output."""
    tasks = [(li, ms) for li, c in enumerate(chunks) for ms in _replicate_blocks(M, N, c)]
    cache = _shared((len(samplers), M, N), np.float64)

    def run(k):
        li, ms = tasks[k]
        cache[li, ms.start : ms.stop] = samplers[li].batch(ms, 0, N)

    _pool_run(run, len(tasks), threads)

    def make(li, s):
        return LevelSampler(
            level=s.level,
            cost=s.cost,
            batch=lambda ms, n0, n1, c=cache[li]: c[ms.start : ms.stop, n0:n1],
        )

    return [make(li, s) for li, s in enumerate(samplers)]


# --------------------------------------------------------------------------
# commands


def _write_field_csv(path, mesh, values, header_line: str) -> None:
    with open(path, "w", newline="") as f:
        f.write(header_line + "\n")
        f.write("vertex_index,x,y,value\n")
        for i, v in enumerate(values):
            x = float(mesh.vertices[i, 0])
            y = float(mesh.vertices[i, 1]) if mesh.dim > 1 else 0.0
            f.write(f"{i},{x!r},{y!r},{float(v)!r}\n")


def _write_noise_csv(path, values) -> None:
    with open(path, "w", newline="") as f:
        f.write("dof_index,value\n")
        for i, v in enumerate(values):
            f.write(f"{i},{float(v)!r}\n")


def cmd_field(cfg: RunConfig, args) -> int:
    """Write the field CSVs of sample --sample at every level, and the
    meshes, supermeshes and noise the --dump-* flags ask for."""
    n = args.sample
    _require(n >= 0, "sample", "must be >= 0")
    ctxs = _build_contexts(cfg)
    out = _prepare_out(cfg, "field")
    for ctx in ctxs:
        pos = ctx.position
        if args.dump_mesh:
            write_mesh(ctx.spaces[0].g_mesh, out / f"mesh_g_l{pos}.txt")
            write_mesh(ctx.spaces[0].d_mesh, out / f"mesh_d_l{pos}.txt")
        if args.dump_supermesh:
            write_supermesh_csv(ctx.supermesh, out / f"supermesh_l{pos}.csv")
        if args.dump_noise:
            b_fine, b_coarse = sample_noise(ctx, cfg.seed, 0, n)
            _write_noise_csv(out / f"noise_l{pos}.csv", b_fine)
            if b_coarse is not None:
                _write_noise_csv(out / f"noise_l{pos}_coarse.csv", b_coarse)
        head = f"# seed={cfg.seed} level={pos} sample={n}"
        # ctx.spaces ends the zip before an uncoupled level's None
        values = sample_fields(ctx, cfg.seed, 0, n)
        for suffix, u, space in zip(("", "_coarse"), values, ctx.spaces):
            _write_field_csv(out / f"field_l{pos}{suffix}.csv", space.g_mesh, u, head)
    return 0


def _samplers(cfg: RunConfig, N: Optional[int] = None, threads: int = 1) -> List[LevelSampler]:
    """The level samplers a command runs on cfg. With N, samples 0..N-1 of
    replicates 0..M-1 are drawn up front in `threads` workers and
    replayed."""
    use_qmc = cfg.estimator != "mlmc"
    # the finest Haar level has the largest low-discrepancy block; a layout
    # of level L holds 2**((L + 1) * dim) coefficients
    L = cfg.haar_levels[-1]
    q = qmc_block_size(cfg.dim, L, 1 << ((L + 1) * cfg.dim)) if use_qmc else 0
    _require(
        q <= SobolGenerator.MAX_DIM,
        "haar_levels",
        f"level {L} needs more Sobol' dimensions than the {SobolGenerator.MAX_DIM} tabulated",
    )
    ctxs = _build_contexts(cfg)
    samplers = make_level_samplers(ctxs, cfg.seed, use_qmc=use_qmc)
    if N is None:
        return samplers
    if q:
        SobolGenerator(q)  # parses the Sobol' table once, for the workers to inherit
    return _replay_samplers(samplers, N, cfg.M, threads, [c.chunk_size for c in ctxs])


def cmd_screen(cfg: RunConfig, args) -> int:
    report = screening_run(_samplers(cfg, cfg.N_screen, args.threads), cfg.N_screen, cfg.M)
    out = _prepare_out(cfg, "screen")
    write_screening_csv(out / "screen.csv", report)
    print(
        f"alpha={report.alpha:.3f} beta={report.beta:.3f} gamma={report.gamma:.3f}"
    )
    return 0


def cmd_nvar(cfg: RunConfig, args) -> int:
    rows = nvar_diagnostic(_samplers(cfg, max(cfg.N_list), args.threads), cfg.N_list, cfg.M)
    out = _prepare_out(cfg, "nvar")
    write_nvar_csv(out / "nvar.csv", rows)
    return 0


def cmd_estimate(cfg: RunConfig, args) -> int:
    _require(
        cfg.estimator == "qmc" or cfg.L_min <= len(cfg.mesh_levels),
        "L_min",
        "must not exceed the number of mesh levels",
    )
    if cfg.estimator == "qmc":
        finest = replace(
            cfg, mesh_levels=cfg.mesh_levels[-1:], haar_levels=cfg.haar_levels[-1:]
        )
        run = partial(qmc_run, _samplers(finest)[0], M=cfg.M)
    elif cfg.estimator == "mlqmc":
        run = partial(
            mlqmc_run, _samplers(cfg), L_min=cfg.L_min, L_max=cfg.L_max, M=cfg.M
        )
    else:
        run = partial(
            mlmc_run,
            _samplers(cfg),
            L_min=cfg.L_min,
            L_max=cfg.L_max,
            N_init=cfg.N_init,
        )
    rows, state = [], None
    for eps in cfg.eps:
        # qmc goes on from the previous eps's samples when eps is no larger
        carry = {"resume": state} if cfg.estimator == "qmc" else {}
        try:
            est, state = run(eps, cfg.theta, **carry)
            rows.append((float(eps), state.total_cost(), est))
        except ConvergenceFailure as exc:
            state = exc.state
            rows.append((float(eps), state.total_cost(), state.estimate(), "failed"))
        _log_eps(rows[-1])
    out = _prepare_out(cfg, "estimate")
    write_estimate_csv(out / "estimate.csv", rows)
    return 3 if any(len(row) > 3 for row in rows) else 0


def _log_eps(row) -> None:
    status = row[3] if len(row) > 3 else "ok"
    print(f"eps={row[0]:.3e} cost={row[1]:.6g} estimate={row[2]:.6e} [{status}]")


def _prepare_out(cfg: RunConfig, command: str) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "command": command,
        "config_hash": config_hash(cfg),
        "seed": cfg.seed,
        "versions": {
            "haarmc": __version__,
            "numpy": np.__version__,
            "python": "%d.%d" % sys.version_info[:2],
        },
    }
    with open(out / "manifest.json", "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    return out


# --------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="haarmc")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("field", "screen", "nvar", "estimate"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--out", default=None)
        if name == "field":
            p.add_argument("--sample", type=int, default=0)
            p.add_argument("--dump-mesh", action="store_true")
            p.add_argument("--dump-supermesh", action="store_true")
            p.add_argument("--dump-noise", action="store_true")
    return parser


def load_config(path, overrides: dict) -> RunConfig:
    try:
        with open(path) as f:
            data = json.load(f)
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON: {exc}")
    cfg = parse_config(data)
    for key, value in overrides.items():
        if value is not None:
            setattr(cfg, key, value)
    validate_config(cfg)
    return cfg


_COMMANDS = {
    "field": cmd_field,
    "screen": cmd_screen,
    "nvar": cmd_nvar,
    "estimate": cmd_estimate,
}


# mallopt's parameter numbers in glibc's malloc.h
_M_TRIM_THRESHOLD = -1
_M_MMAP_MAX = -4


def _keep_freed_memory() -> bool:
    """Make glibc's malloc keep the memory this process frees: serve no
    allocation from a mapping of its own, which free would unmap, and never
    trim the top of the heap. A sampler's chunks then reuse the pages that
    earlier chunks faulted in instead of faulting them in again, and forked
    workers inherit the policy. True when glibc took both settings; without
    glibc nothing changes and the result is False."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return False
    except (ValueError, OSError):
        return False
    import ctypes

    # the process's own symbols include libc's; ctypes.util.find_library
    # would run ldconfig to find it
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    # mallopt returns 1 on success; the trim threshold is the largest int
    settings = ((_M_MMAP_MAX, 0), (_M_TRIM_THRESHOLD, 2**31 - 1))
    return all(mallopt(param, value) == 1 for param, value in settings)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _keep_freed_memory()
    try:
        cfg = load_config(args.config, {"seed": args.seed, "out": args.out})
        if args.threads < 1:
            raise ConfigError("threads", "must be >= 1")
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error at {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
