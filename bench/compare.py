"""Compare two benchmark results.

    python3 bench/compare.py BASE.json CAND.json

BASE and CAND are result files written by ``bench/run.py``.  One row per
(workload, end-to-end metric) shows median and quartiles of both sides.
Host metrics take their bound from ``BENCHMARK.json``; simulated metrics
must be exact, except ``error_rate``, which may only not increase.  A row
is a regression when the candidate is worse than the base by more than
the bound, and unresolved when the base's own quartile spread exceeds the
bound, unless every candidate run beats every base run.  Exits 1 on any
regression.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def verdict(base: dict, cand: dict, better: str, bound) -> str:
    """'pass', 'regression' or 'unresolved'; ``bound`` None means exact."""
    if bound is None:
        same = set(cand["values"]) == set(base["values"])
        return "pass" if same else "regression"
    sign = 1.0 if better == "lower" else -1.0
    scale = abs(base["median"]) or 1.0
    worse = sign * (cand["median"] - base["median"]) / scale
    spread = (base["q3"] - base["q1"]) / scale
    if sign > 0:
        all_better = max(cand["values"]) < min(base["values"])
    else:
        all_better = min(cand["values"]) > max(base["values"])
    if spread > bound and not all_better:
        return "unresolved"
    return "regression" if worse > bound else "pass"


def compare(base: dict, cand: dict, bounds: dict) -> list:
    """Rows ``(workload, metric, unit, base, cand, change, bound, verdict)``."""
    rows = []
    for workload, entry in base["workloads"].items():
        other = cand["workloads"].get(workload)
        if other is None:
            continue
        for name, b in entry["metrics"].items():
            c = other["metrics"].get(name)
            if c is None or b["clock"] not in ("host", "sim"):
                continue
            bound = bounds[name] if b["clock"] == "host" else (
                0.0 if name == "error_rate" else None
            )
            scale = abs(b["median"]) or 1.0
            rows.append((
                workload, name, b["unit"], b, c,
                (c["median"] - b["median"]) / scale, bound,
                verdict(b, c, b["better"], bound),
            ))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python3 bench/compare.py BASE.json CAND.json",
              file=sys.stderr)
        return 2
    base, cand = (json.loads(Path(p).read_text()) for p in argv)
    if base["seed"] != cand["seed"]:
        print(f"error: seeds differ ({base['seed']} vs {cand['seed']}); "
              f"simulated metrics compare only on the same seed",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    rows = compare(base, cand, bounds)
    print(f"{'workload':18s} {'metric':20s} {'unit':10s} "
          f"{'base median [q1, q3]':34s} {'cand median [q1, q3]':34s} "
          f"{'change':>8s} {'bound':>6s}  verdict")
    for workload, name, unit, b, c, change, bound, result in rows:
        def cell(m):
            return f"{m['median']:.6g} [{m['q1']:.6g}, {m['q3']:.6g}]"

        limit = "exact" if bound is None else f"{bound:.0%}"
        print(f"{workload:18s} {name:20s} {unit:10s} {cell(b):34s} "
              f"{cell(c):34s} {change:+8.2%} {limit:>6s}  {result}")
    regressions = sum(1 for row in rows if row[-1] == "regression")
    unresolved = sum(1 for row in rows if row[-1] == "unresolved")
    print(f"{len(rows)} rows: {regressions} regression(s), "
          f"{unresolved} unresolved")
    return 1 if regressions else 0


if __name__ == "__main__":
    raise SystemExit(main())
