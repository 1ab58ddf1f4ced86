"""Benchmark runner: end-to-end and per-layer metrics on both clocks.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python -m bench.run [--seed N] [--reps N] [--workload NAME] [--trace]

Each run of a workload happens in a fresh single-threaded child process
(``bench/worker.py``), one after another, never concurrently; two more
children only set up, so ``setup_s`` is the median of three cold set-ups.
Host times are scaled to the speed reference (``worker.REFERENCE_S``);
the unscaled ones are printed and kept in the result too.
Every metric is printed by name with its unit; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` holding the end-to-end metrics (per-layer metrics with
``--trace``) named in ``BENCHMARK.json``.  The full result — median,
quartiles and n of every metric over ``--reps`` runs — is written to
``bench/out/result-seed<N>[-trace].json`` for ``bench/compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "bench" / "out"
WORKLOADS = ("offline-infer", "offline-train", "serve-multistream",
             "serve-overload")
#: End-to-end metrics: name -> (unit, better, clock).  Host metrics are
#: machine-dependent; simulated ones are deterministic per seed.
E2E = {
    "setup_s": ("s", "lower", "host"),
    "host_items_per_s": ("items/s", "higher", "host"),
    "peak_rss_mib": ("MiB", "lower", "host"),
    "sim_latency_ms_p50": ("ms", "lower", "sim"),
    "sim_latency_ms_tail": ("ms", "lower", "sim"),
    "slo_attainment": ("fraction", "higher", "sim"),
    "sim_goodput_rps": ("1/s", "higher", "sim"),
    "cost_per_million": ("replica-h", "lower", "sim"),
    "error_rate": ("fraction", "lower", "sim"),
}
#: Set-ups per run (the main child's plus set-up-only children).
SETUPS = 3
#: Wall budget of one run, all its children together.
RUN_TIMEOUT_S = 170


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class ChildFailed(RuntimeError):
    pass


def _child(args, deadline: float) -> dict:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, "-m", "bench.worker", *map(str, args)],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise ChildFailed(
            f"bench.worker {' '.join(map(str, args))} exited "
            f"{proc.returncode}:\n{proc.stderr.strip()}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run: the main child, then set-up-only children (untraced runs)."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    base = ["--workload", workload, "--seed", seed]
    main = _child([*base, "--seconds", seconds, "--trace", int(trace)],
                  deadline)
    setups = [main]
    if not trace:
        setups += [
            _child([*base, "--setup-only"], deadline)
            for _ in range(SETUPS - 1)
        ]
    untraced = [p for p in main["passes"] if not p["traced"]]
    # Raw host times, before scaling to the speed reference.
    raw = {
        "setup_wall_s": statistics.median(s["setup_wall_s"] for s in setups),
        "host_items_per_wall_s": statistics.median(
            p["items"] / p["wall_s"] for p in untraced
        ),
        "reference_s": statistics.median(p["ref_s"] for p in untraced),
    }
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "host_items_per_s": statistics.median(
            p["items"] / p["scaled_wall_s"] for p in untraced
        ),
        "peak_rss_mib": main["peak_rss_mib"],
        "sim_latency_ms_p50": main["sim_latency_ms_p50"],
        **main["sim"],
        "error_rate": min(
            1.0,
            (main["not_served"] * len(main["passes"]) + main["failed"])
            / main["attempted"],
        ),
    }
    return {**main, "setups_s": [s["setup_s"] for s in setups], "raw": raw,
            "metrics": metrics}


def _summary(values) -> dict:
    values = list(values)
    med = statistics.median(values)
    q1, _, q3 = (
        statistics.quantiles(values, n=4) if len(values) > 1
        else (med, med, med)
    )
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "n": len(values)}


def main(argv=None) -> int:
    spec = benchmark_spec()
    parser = argparse.ArgumentParser(
        description="TorchSparse++ reproduction benchmark"
    )
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="timed wall per run")
    parser.add_argument("--reps", type=int, default=1,
                        help="runs per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="per-layer metrics")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: program source not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    selected = [args.workload] if args.workload else list(WORKLOADS)
    per_layer = {m["name"]: m for m in spec["per_layer"]}
    report = {"seed": args.seed, "reps": args.reps, "trace": args.trace,
              "workloads": {}}
    correct, attempted, failed = True, 0, 0
    headline = {}
    for workload in selected:
        runs = []
        for _ in range(args.reps):
            try:
                runs.append(
                    run_once(workload, args.seed, args.seconds,
                             bool(args.trace))
                )
            except (ChildFailed, subprocess.TimeoutExpired) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
        last = runs[-1]
        problems = sorted({p for r in runs for p in r["problems"]})
        correct &= not problems
        attempted += sum(r["attempted"] for r in runs)
        failed += sum(r["failed"] for r in runs)
        metrics = {}
        for name in runs[0]["metrics"]:
            unit, better, clock = E2E[name]
            metrics[name] = {
                "unit": unit, "better": better, "clock": clock,
                **_summary(r["metrics"][name] for r in runs),
            }
        if args.trace:
            for name in sorted(last["layers"]):
                # Host layer times and call counts that BENCHMARK.json
                # does not declare (see README) are reported all the same.
                entry = per_layer.get(name) or {
                    "unit": "count" if name.endswith(".calls") else "s",
                    "better": "lower",
                }
                metrics[name] = {
                    "unit": entry["unit"], "better": entry["better"],
                    "clock": "layer",
                    **_summary(r["layers"][name] for r in runs),
                }
        report["workloads"][workload] = {
            "metrics": metrics,
            "raw": {name: _summary(r["raw"][name] for r in runs)
                    for name in last["raw"]},
            "golden": [r["golden"] for r in runs],
            "problems": problems,
            "absent": last["absent"],
            "n": last["n"],
            "tail_percentile": last["tail_percentile"],
            "items_per_pass": last["items"],
            "passes": [r["passes"] for r in runs],
            "setups_s": [r["setups_s"] for r in runs],
        }
        _print_workload(workload, report["workloads"][workload], last)
        names = (
            [m["name"] for m in spec["per_layer"]] if args.trace
            else [m["name"] for m in spec["end_to_end"]]
        )
        for name in names:
            key = name if len(selected) == 1 else f"{workload}.{name}"
            headline[key] = {"value": metrics[name]["median"],
                             "unit": metrics[name]["unit"]}

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    suffix = "-trace" if args.trace else ""
    path = OUT_DIR / f"result-seed{args.seed}{suffix}.json"
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"result written to {path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": headline}))
    return 0 if correct else 1


def _print_workload(workload: str, entry: dict, last: dict) -> None:
    tail = entry["tail_percentile"]
    print(f"== {workload}: golden {', '.join(entry['golden'])}; "
          f"{entry['items_per_pass']} items per pass, "
          f"{len(last['passes'])} passes; simulated n={entry['n']}"
          + (f", tail = p{tail}" if tail is not None else ""))
    for problem in entry["problems"]:
        print(f"   FAIL {problem}")
    for name in entry["absent"]:
        print(f"   absent tracer target: {name}")
    for name, m in entry["metrics"].items():
        print(f"   {name:42s} {m['median']:14.6g} {m['unit']:10s} "
              f"[{m['q1']:.6g}, {m['q3']:.6g}] n={m['n']}")
    raw = {name: m["median"] for name, m in entry["raw"].items()}
    print(f"   unscaled: set-up {raw['setup_wall_s']:.4g} s, "
          f"{raw['host_items_per_wall_s']:.4g} items per wall second; "
          f"speed reference {raw['reference_s'] * 1e3:.4g} ms")
    if "layers" in last:
        walls = [p["scaled_wall_s"] for p in last["passes"] if p["traced"]]
        parts = sum(
            v for k, v in last["layers"].items()
            if k.endswith(".self_s") and not k.startswith("setup.")
        )
        print(f"   self times + other.self_s = {parts:.6f} s; mean traced "
              f"pass wall = {sum(walls) / len(walls):.6f} s (both scaled)")


if __name__ == "__main__":
    raise SystemExit(main())
