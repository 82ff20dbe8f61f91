"""The library names the benchmark's traced runs wrap still exist and are
still called.

`bench/child.py` installs its span wrappers by replacing module globals
(`problem.build_tables`, `fem.factorized_spd`, ...). A rename in `src/`
would make `--trace 1` fail or silently read 0 for a layer, so one traced
child run on a tiny config is part of the suite.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

HOOKED = [
    "problem.build_level_contexts",
    "whitenoise.build_tables",
    "whitenoise.noise_map",
    "fem.factorize",
    "fem.matern_field",
    "lowdisc.normal",
    "lowdisc.sobol",
    "lowdisc.inv_cdf",
]


def run_traced_child(tmp_path, command, config):
    """The report of one traced child run of `haarmc COMMAND` on config."""
    cfg = tmp_path / f"{command}.json"
    cfg.write_text(json.dumps(config))
    report = tmp_path / f"{command}-report.json"
    cmd = [
        sys.executable, str(ROOT / "bench" / "child.py"), str(report), "1", "--",
        command, "--config", str(cfg), "--out", str(tmp_path / command), "--threads", "1",
    ]
    # child.py imports haarmc from the src directory under its working directory
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(report.read_text())
    assert data["exit"] == 0
    return data


def test_traced_child_reaches_every_hooked_layer(tmp_path):
    data = run_traced_child(
        tmp_path,
        "screen",
        {"dim": 1, "mesh_levels": [1, 2], "haar_levels": [1, 1], "M": 2, "N_screen": 16},
    )
    missing = [name for name in HOOKED if name not in data["names"]]
    assert not missing, f"traced run recorded no span for {missing}"


def test_traced_child_wraps_estimate_batches(tmp_path):
    # child.py counts a batch's samples as args[2] - args[1] of
    # batch(ms, n0, n1), so the sampler calls of an mlqmc estimate must
    # reach its wrapper
    data = run_traced_child(
        tmp_path,
        "estimate",
        {
            "dim": 1, "mesh_levels": [1, 2], "haar_levels": [1, 1], "M": 2,
            "estimator": "mlqmc", "eps": [1e-2],
        },
    )
    assert "problem.batch" in data["names"]
