"""Flash-crowd acceptance sweep for the overload-robustness layer.

Drives ``serve-bench --traffic`` end to end at scale — 100k requests in
two tenant priority classes with fault and OOM injection, breakers,
priority shedding and the SLO autoscaler enabled — and checks the
contract the layer must keep:

* zero FAILED requests in the top (gold) priority class,
* autoscaler scale-up **and** scale-down events both > 0,
* per-tenant SLO attainment and cost-per-million-requests reported,
* two identical-seed runs produce byte-identical ``--json`` output.

Writes a summary to ``benchmarks/results/overload_sweep.json`` and exits
1 on any acceptance failure.  One run takes about 20 s of wall clock on a
2-core host, so the sweep (two runs) is a CI step.

Run with::

    PYTHONPATH=src python benchmarks/run_overload_sweep.py
"""

from __future__ import annotations

import json
import pathlib
import sys
import time

COUNT = 100_000
SEED = 17
OUTPUT = pathlib.Path(__file__).parent / "results" / "overload_sweep.json"

ARGS = [
    "serve-bench",
    "--device", "rtx3090",
    "--scale", "0.1",
    "--requests", str(COUNT),
    "--seed", str(SEED),
    "--traffic", "flash:base=60,peak=600,warm=2000,ramp=1500,hold=20000,"
                 "decay=4000,tail=120000",
    "--tenants", "gold:prio=0,share=3,mix=SK-M-0.5,deadline=5000,streams=2;"
                 "bronze:prio=2,share=1,mix=SK-M-0.5,deadline=5000,streams=2",
    "--replicas", "1",
    "--autoscale",
    "--max-replicas", "6",
    "--slo-ms", "400",
    "--max-batch", "4",
    "--queue-depth", "24",
    "--faults", "fail=0.02,oom=0.0002",
    "--retries", "4",
    "--breaker-failures", "4",
]


def run(json_path: pathlib.Path) -> bytes:
    from repro.cli import main

    start = time.perf_counter()
    code = main(ARGS + ["--json", str(json_path)])
    elapsed = time.perf_counter() - start
    if code != 0:
        raise SystemExit(f"serve-bench exited {code}")
    print(f"run finished in {elapsed:.1f}s wall clock", flush=True)
    return json_path.read_bytes()


def main() -> int:
    OUTPUT.parent.mkdir(exist_ok=True)
    first_path = OUTPUT.with_name("overload_sweep_run1.json")
    second_path = OUTPUT.with_name("overload_sweep_run2.json")
    first = run(first_path)
    second = run(second_path)

    failures = []
    if first != second:
        failures.append("two identical-seed runs are not byte-identical")
    payload = json.loads(first)
    tenants = {row["tenant"]: row for row in payload["per_tenant"]}
    gold = tenants["gold"]
    if int(gold["failed"]) != 0:
        failures.append(
            f"top priority class has {gold['failed']} FAILED requests"
        )
    if payload["scale_ups"] <= 0 or payload["scale_downs"] <= 0:
        failures.append(
            f"autoscaler idle: ups={payload['scale_ups']} "
            f"downs={payload['scale_downs']}"
        )
    for name, row in tenants.items():
        if "slo_attainment" not in row:
            failures.append(f"tenant {name} row lacks slo_attainment")
    if payload.get("cost_per_million", 0) <= 0:
        failures.append("cost_per_million not reported")

    summary = {
        "requests": payload["requests"],
        "completed": payload["completed"],
        "failed": payload["failed"],
        "shed": payload["shed"],
        "quota_denied": payload["quota_denied"],
        "oom_events": payload["oom_events"],
        "breaker_opens": payload["breaker_opens"],
        "scale_ups": payload["scale_ups"],
        "scale_downs": payload["scale_downs"],
        "replicas_peak": payload["replicas_peak"],
        "cost_per_million": payload["cost_per_million"],
        "slo_attainment_top": payload["slo_attainment_top"],
        "byte_identical": first == second,
        "per_tenant": {
            name: {
                "requests": row["requests"],
                "failed": row["failed"],
                "shed": row["shed"],
                "slo_attainment": row["slo_attainment"],
            }
            for name, row in tenants.items()
        },
        "seed": SEED,
        "acceptance_failures": failures,
    }
    OUTPUT.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(json.dumps(summary, indent=2, sort_keys=True))
    if failures:
        print("\nACCEPTANCE FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nacceptance sweep passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
