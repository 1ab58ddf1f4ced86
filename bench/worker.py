"""One run of one workload, in a process of its own.

    python -m bench.worker --workload NAME --seed N --seconds S --trace 0|1
    python -m bench.worker --workload NAME --seed N --setup-only

``bench/run.py`` starts this with single-threaded BLAS and reads the JSON
object on the last line of its standard output.  Set-up is timed from
process start, before anything imports the program, to ready.  Then timed
passes repeat the same work until ``--seconds`` of timed wall have passed
(at least :data:`MIN_PASSES`); every pass must reproduce the first
pass's outputs, and the first pass must match the committed golden.
Set-up and every pass are bracketed by the speed reference
(:class:`SpeedReference`).

With ``--trace 1`` the tracer wraps the program's entry points from the
start; passes alternate untraced (for the overhead) and traced (for the
per-layer split).
"""

import time

CHILD_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "bench" / "golden"
OUT_DIR = ROOT / "bench" / "out"
#: Minimum untraced (and, with tracing, traced) passes per run.
MIN_PASSES = 3
#: Stop starting passes after this much time since process start.
MAX_RUN_S = 120.0
#: Seconds :class:`SpeedReference` takes on the quiet 2-core host the
#: bounds were set on (its 5th percentile there).
REFERENCE_S = 0.0125


class _SortRankGather:
    """Sort, rank and gather ``keys`` random 64-bit keys, the operations
    kernel-map builds are made of, in buffers allocated here, so the
    allocator state the program leaves behind cannot change its time
    (``np.unique`` ran 45% slower in a fresh process than after set-up)."""

    def __init__(self, keys: int, reps: int) -> None:
        rng = np.random.default_rng(0)
        self.reps = reps
        self.keys = rng.integers(0, 1 << 40, size=keys)
        self.perm = rng.permutation(keys)
        self.sorted = np.empty_like(self.keys)
        self.gathered = np.empty_like(self.keys)
        self.new = np.zeros(keys, dtype=bool)
        self.rank = np.empty(keys, dtype=np.int64)

    def _once(self) -> None:
        np.copyto(self.sorted, self.keys)
        self.sorted.sort()
        np.not_equal(self.sorted[1:], self.sorted[:-1], out=self.new[1:])
        np.cumsum(self.new, out=self.rank)
        np.take(self.keys, self.perm, out=self.gathered)

    def seconds(self) -> float:
        """Seconds ``reps`` runs take, after one untimed run."""
        self._once()
        start = time.perf_counter()
        for _ in range(self.reps):
            self._once()
        return time.perf_counter() - start


class SpeedReference:
    """Fixed kernels that run no program code, timed just before and just
    after set-up and every pass.

    A shared host moves between a quiet regime and a contended one in
    which everything runs 30-50% slower, for minutes at a time; that moves
    raw host times by more than any bound could absorb.  A span that took
    ``t`` seconds while the reference took ``r`` is reported as
    ``t * REFERENCE_S / r``, the time it would take on the quiet host.

    The reference is the geometric mean of one sort-rank-gather kernel
    per cache level: 16k keys (0.5 MB of buffers, core-private cache),
    100k keys (3 MB) and 1M keys (30 MB, shared cache).  Contention hits
    the levels differently from one period to the next, and the program
    uses all of them.  Over twenty seeds per workload, spread over an
    hour, it brought the spread of host throughput (interquartile range
    over median) from 8-14% down to 4-7%.  One sort kernel alone left
    4-10% (which size did best changed from one half-hour to the next),
    a memory copy 9-15%, a pure-Python loop 8-14% and small-array NumPy
    13-19%.
    """

    SIZES = ((16_384, 40), (100_000, 8), (1_000_000, 2))

    def __init__(self) -> None:
        self.kernels = [_SortRankGather(keys, reps) for keys, reps in self.SIZES]

    @property
    def nbytes(self) -> int:
        """Bytes of the kernels' buffers, left out of ``peak_rss_mib``."""
        return sum(
            array.nbytes for kernel in self.kernels
            for array in vars(kernel).values() if isinstance(array, np.ndarray)
        )

    def seconds(self) -> float:
        """The geometric mean of the kernels' times now."""
        logs = [np.log(kernel.seconds()) for kernel in self.kernels]
        return float(np.exp(np.mean(logs)))

#: (layer, module, attribute) entry points wrapped by ``--trace 1``.
TARGETS = (
    ("data.make_sample", "repro.data.datasets", "make_sample"),
    ("sparse.build_kernel_map", "repro.sparse.kmap", "build_kernel_map"),
    ("sparse.hashmap_query", "repro.sparse.hashmap", "CoordinateHashMap.query"),
    ("nn.forward", "repro.models.minkunet", "MinkUNet.forward"),
    ("nn.forward", "repro.models.centerpoint", "CenterPointBackbone.forward"),
    ("nn.backward", "repro.models.minkunet", "MinkUNet.backward"),
    ("nn.backward", "repro.models.centerpoint", "CenterPointBackbone.backward"),
    ("kernels.trace_dataflow", "repro.kernels.registry", "trace_dataflow"),
    ("kernels.wgrad_trace", "repro.kernels.wgrad", "wgrad_trace"),
    ("opt.best_schedule", "repro.opt.schedule", "best_schedule"),
    ("gpusim.estimate_trace_us", "repro.gpusim.engine", "estimate_trace_us"),
    ("gpusim.latency_breakdown", "repro.gpusim.engine", "latency_breakdown"),
    ("resilience.model_footprint", "repro.resilience.footprint",
     "model_footprint"),
    ("serve.serve", "repro.serve.runtime", "ServingRuntime.serve"),
    ("analyze.lint_model", "repro.analyze", "lint_model"),
    ("analyze.trace_model", "repro.analyze.propagate", "trace_model"),
    ("tune.SparseAutotuner.tune", "repro.tune.tuner", "SparseAutotuner.tune"),
    ("tune.TrainingTuner.tune", "repro.tune.training", "TrainingTuner.tune"),
)
#: Layers reported from set-up; the others from the timed passes.
SETUP_LAYERS = ("analyze.lint_model", "analyze.trace_model",
                "tune.SparseAutotuner.tune", "tune.TrainingTuner.tune")
PASS_LAYERS = tuple(
    layer for layer in dict.fromkeys(t[0] for t in TARGETS)
    if layer not in SETUP_LAYERS
)
#: Layers with wrapped callees, which also report ``.total_s``.
COMPOSITE_LAYERS = ("nn.forward", "nn.backward", "resilience.model_footprint",
                    "serve.serve")


def _memo(name: str):
    """A trace-memo helper of ``repro.gpusim.engine``, or None once a
    later change removes it."""
    from repro.gpusim import engine

    return getattr(engine, name, None)


def _layer_metrics(tracer, setup_root, setup_scale, traced, memo_ratio,
                   overhead):
    """Per-layer metrics, averaged over the traced passes.  Each pass is a
    dict with its span index ``root``, ``wall_s`` and ``scale`` (the
    speed-reference factor its times are multiplied by)."""
    out = {}
    summaries = [tracer.summary(p["root"]) for p in traced]
    n = len(traced)

    def mean(layer, key):
        return sum(
            s.get(layer, {}).get(key, 0.0) * (p["scale"] if key != "calls" else 1)
            for s, p in zip(summaries, traced)
        ) / n

    for layer in PASS_LAYERS:
        keys = ("self_s", "calls") + (
            ("total_s",) if layer in COMPOSITE_LAYERS else ()
        )
        for key in keys:
            out[f"{layer}.{key}"] = mean(layer, key)
    # The root's own self time: timed wall not covered by any wrapped layer.
    out["other.self_s"] = sum(
        (p["wall_s"] - sum(row["self_s"] for row in s.values())) * p["scale"]
        for s, p in zip(summaries, traced)
    ) / n
    setup = tracer.summary(setup_root)
    for layer in SETUP_LAYERS:
        row = setup.get(layer, {})
        out[f"setup.{layer}.calls"] = row.get("calls", 0)
        for key in ("self_s", "total_s"):
            out[f"setup.{layer}.{key}"] = row.get(key, 0.0) * setup_scale
    out["gpusim.trace_memo_hit_ratio"] = memo_ratio
    out["trace.overhead_frac"] = overhead
    return out


def _golden(workload: str, seed: int, document: dict) -> str:
    """'match', 'mismatch' or 'written' (only when no golden exists)."""
    path = GOLDEN_DIR / f"{workload}-seed{seed}.json"
    text = json.dumps(document, sort_keys=True) + "\n"
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        return "written"
    return "match" if path.read_text() == text else "mismatch"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: program source not found under {src}", file=sys.stderr)
        return 2
    reference_start = time.perf_counter()
    reference = SpeedReference()
    setup_refs = [reference.seconds()]
    excluded = time.perf_counter() - reference_start
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))
    from bench.tracer import Tracer

    tracer = Tracer() if args.trace else None
    absent = tracer.install(TARGETS) if tracer else []
    from bench import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    setup_span = tracer.span("setup") if tracer else contextlib.nullcontext(-1)
    with setup_span as setup_root:
        state = workload.setup(args.seed)
    setup_wall = time.perf_counter() - CHILD_START - excluded
    setup_refs.append(reference.seconds())
    setup_scale = REFERENCE_S / statistics.mean(setup_refs)
    setup = {
        "setup_s": setup_wall * setup_scale,
        "setup_wall_s": setup_wall,
        "setup_ref_s": statistics.mean(setup_refs),
    }
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    inputs = workload.inputs(state, args.seed)
    clear_memo, memo_stats = _memo("clear_trace_memo"), _memo("trace_memo_stats")
    passes, first, memo_ratio = [], None, 0.0
    timed = 0.0
    while True:
        untraced = sum(1 for p in passes if not p["traced"])
        enough = untraced >= MIN_PASSES and (
            tracer is None or len(passes) - untraced >= MIN_PASSES
        )
        if enough and timed >= args.seconds:
            break
        if passes and time.perf_counter() - CHILD_START > MAX_RUN_S:
            break
        traced = tracer is not None and len(passes) % 2 == 1
        pass_state = workload.fresh(state, inputs)
        if clear_memo is not None:
            clear_memo()
        gc.collect()
        ref_before = reference.seconds()
        span = tracer.span("pass") if traced else contextlib.nullcontext(-1)
        cpu0, wall0 = time.process_time(), time.perf_counter()
        with span as root:
            raw = workload.run(pass_state)
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        ref = (ref_before + reference.seconds()) / 2
        if traced:
            _, start, end, _ = tracer.spans[root]
            wall = end - start
        elif memo_stats is not None:
            stats = memo_stats()
            lookups = stats["hits"] + stats["misses"]
            memo_ratio = stats["hits"] / lookups if lookups else 0.0
        outputs = workload.outputs(raw)
        del raw, pass_state
        if first is None:
            first = outputs
        scale = REFERENCE_S / ref
        passes.append({
            "wall_s": wall, "cpu_s": cpu, "ref_s": ref, "scale": scale,
            "scaled_wall_s": wall * scale,
            "items": outputs.items, "traced": traced, "root": root,
            "same": outputs.golden == first.golden,
            "ok": outputs.golden == first.golden and not outputs.problems,
        })
        timed += wall

    golden = _golden(args.workload, args.seed, first.golden)
    problems = list(first.problems)
    if golden == "mismatch":
        problems.append(
            f"outputs differ from bench/golden/{args.workload}-seed"
            f"{args.seed}.json"
        )
    if not all(p["same"] for p in passes):
        problems.append("a later pass did not reproduce the first pass")
    attempted = sum(p["items"] for p in passes)
    failed = attempted if golden == "mismatch" else sum(
        p["items"] for p in passes if not p["ok"]
    )
    result = {
        "workload": args.workload,
        "seed": args.seed,
        **setup,
        "passes": [
            {k: p[k] for k in ("wall_s", "cpu_s", "ref_s", "scaled_wall_s",
                               "items", "traced")}
            for p in passes
        ],
        "peak_rss_mib": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
            - reference.nbytes
        ) / 2**20,
        "n": len(first.latencies_ms),
        "tail_percentile": getattr(workload, "tail", None),
        "sim_latency_ms_p50": statistics.median(first.latencies_ms),
        "sim": first.sim,
        "not_served": first.not_served,
        "items": first.items,
        "golden": golden,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "absent": absent,
    }
    if tracer is not None:
        def rate(traced):
            return statistics.median(
                p["items"] / p["scaled_wall_s"]
                for p in passes if p["traced"] == traced
            )

        result["layers"] = {
            **first.layers,
            **_layer_metrics(
                tracer, setup_root, setup_scale,
                [p for p in passes if p["traced"]],
                memo_ratio, 1.0 - rate(True) / rate(False),
            ),
        }
        tracer.uninstall()
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        (OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps(tracer.chrome_trace())
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
