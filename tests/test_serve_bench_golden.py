"""Pin ``serve-bench --json`` output byte for byte.

Each case is one serve-bench command line; its metrics JSON must equal
``tests/golden/serve_bench_<name>.json``.  The first five are the CI
smokes (faulty cluster, simulated OOM, four GPU streams, one-scene
kernel-map cache, flash-crowd overload with tenants); the last two cover
the bursty arrival preset and the no-priority-shedding / no-jitter
paths.  A seeded run is a pure function of its flags, so any byte change
here is a behaviour change of the serving stack.

Regenerate a golden (only when a behaviour change is intended) with::

    PYTHONPATH=src python -m repro serve-bench <argv> --json \\
        tests/golden/serve_bench_<name>.json
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"

_BASE = ("--device", "rtx3090", "--workload", "sk-m-1x", "--scale", "0.1")
_OVERLOAD = (
    "--device", "rtx3090", "--scale", "0.1", "--requests", "300",
    "--seed", "17", "--traffic", "flash:base=40,peak=800",
    "--tenants",
    "gold:prio=0,share=3,mix=SK-M-0.5,deadline=5000;"
    "bronze:prio=2,share=1,mix=SK-M-0.5,deadline=5000",
    "--replicas", "1", "--autoscale", "--max-replicas", "4",
    "--slo-ms", "400", "--max-batch", "2",
    "--faults", "fail=0.05", "--retries", "4", "--breaker-failures", "4",
)

#: golden name -> serve-bench argv (without ``--json``).
CASES = {
    "faulty": _BASE + (
        "--requests", "16", "--replicas", "3", "--balancer", "least_loaded",
        "--replica-queue-depth", "2", "--faults", "fail=0.2,skew=2",
        "--retries", "3",
    ),
    "oom": _BASE + (
        "--requests", "16", "--seed", "5", "--mem-headroom", "0.1",
        "--oom-rate", "0.5",
    ),
    "streams": _BASE + ("--requests", "16", "--gpu-streams", "4"),
    "evict": _BASE + (
        "--requests", "16", "--kmap-cache", "1", "--max-batch", "4",
    ),
    "overload": _OVERLOAD,
    "bursty": _BASE + (
        "--requests", "48", "--arrivals", "bursty", "--max-batch", "4",
        "--queue-depth", "8",
    ),
    "no_shed_jitter": _OVERLOAD + (
        "--no-priority-shedding", "--no-retry-jitter",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_serve_bench_json_matches_golden(tmp_path, name):
    out = tmp_path / "metrics.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "serve-bench", *CASES[name],
         "--json", str(out)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    golden = GOLDEN / f"serve_bench_{name}.json"
    assert out.read_bytes() == golden.read_bytes(), (
        f"serve-bench {name} output differs from {golden.name}"
    )
