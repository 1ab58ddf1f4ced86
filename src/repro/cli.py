"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``devices`` — list the modelled GPUs and their key specs;
* ``workloads`` — list the seven benchmark workloads;
* ``engines`` — list the five sparse convolution engines;
* ``measure`` — run a workload through an engine and report latency
  (optionally a per-layer breakdown);
* ``tune`` — run the Sparse Autotuner for a workload/device and save the
  policy to JSON;
* ``serve-bench`` — drive the serving runtime with a synthetic request
  stream and report throughput / tail latency / cache hit rates;
* ``memory`` — model a workload's DRAM footprint (per-layer feature and
  workspace peaks) and show, per device, whether it fits the memory
  budget and which degradation-ladder rungs recover it when it does not;
* ``depgraph`` — build the launch-level dependence DAG of one simulated
  execution, report its critical path and available launch parallelism,
  and check the dependence/liveness invariants (``--dot``/``--json``
  export);
* ``autotune`` — the persistent policy store
  (:class:`repro.tune.cache.PolicyStore`) behind ``serve-bench
  --tuning-db``: ``search`` tunes a workload into it with the Sparse
  Autotuner, ``inspect`` lists it, ``merge`` pools replica stores;
* ``dataflows`` — list the registered sparse convolution dataflows;
* ``lint`` — statically analyze a model (bundled workload or
  ``module:factory`` import spec) for stride/channel/map/precision
  hazards without running it;
* ``keycheck`` — audit cache-key soundness: probe every registered
  memoization site (:mod:`repro.analyze.provenance`) with recording
  proxies, diff observed reads against the declared key schema, and
  optionally run the seeded differential fuzzers (``--fuzz``);
* ``experiments`` — alias of ``python -m repro.experiments``.

Exit codes: 0 on success (for ``lint``: no finding at or above
``--fail-on``; for ``keycheck``: every audited cache site sound); 1 when
``lint`` reports findings at or above the ``--fail-on`` severity or
``keycheck`` finds an unkeyed read / fuzz failure; 2 on usage errors —
unknown device / engine / workload / precision / rule names exit with a
message listing the valid choices (no traceback).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.errors import ReproError
from repro.utils.format import format_table


def _validate_target(device: str, precision: str) -> None:
    """Fail fast on bad device/precision before any heavy work."""
    from repro.hw import get_device
    from repro.precision import Precision

    get_device(device)
    Precision.parse(precision)


def _cmd_devices(_args) -> int:
    from repro.hw import list_devices

    rows = [
        [
            d.name,
            d.arch,
            d.sms,
            f"{d.cuda_core_tflops:g}",
            f"{d.fp16_tensor_tflops:g}" if d.fp16_tensor_tflops else "-",
            f"{d.dram_bw_gbps:g}",
        ]
        for d in list_devices()
    ]
    print(
        format_table(
            ["device", "arch", "SMs", "FP32 TFLOPS", "FP16 TC TFLOPS",
             "DRAM GB/s"],
            rows,
        )
    )
    return 0


def _cmd_workloads(_args) -> int:
    from repro.models import WORKLOADS

    rows = [
        [w.id, w.model_family, w.dataset, w.frames, w.task]
        for w in WORKLOADS.values()
    ]
    print(format_table(["id", "model", "dataset", "frames", "task"], rows))
    return 0


def _cmd_engines(_args) -> int:
    from repro.baselines import ENGINES, get_engine

    rows = []
    for key in ENGINES:
        engine = get_engine(key)
        doc = (type(engine).__doc__ or "").strip().splitlines()[0]
        rows.append([engine.name, doc])
    print(format_table(["engine", "description"], rows))
    return 0


def _cmd_dataflows(_args) -> int:
    from repro.kernels import Dataflow, dataflow_choices

    rows = [
        [
            name,
            "weight-stationary"
            if Dataflow(name).weight_stationary
            else "output-stationary",
        ]
        for name in dataflow_choices()
    ]
    print(format_table(["dataflow", "map storage order"], rows))
    return 0


def _import_attr(spec: str):
    """The attribute a ``module:attr`` spec names; ``ConfigError`` when
    the module cannot be imported or lacks the attribute."""
    import importlib

    from repro.errors import ConfigError

    module_name, _, attr = spec.partition(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise ConfigError(
            f"cannot import module {module_name!r}: {exc}"
        ) from None
    value = getattr(module, attr, None)
    if value is None:
        raise ConfigError(f"module {module_name!r} has no attribute {attr!r}")
    return value


def _resolve_lint_model(args):
    """Returns ``(model, in_channels, target_name)`` for the lint target:
    a bundled workload id, or a ``module:factory`` import spec."""
    target = args.target
    if ":" in target:
        return _import_attr(target)(), args.in_channels, target
    from repro.models import get_workload

    workload = get_workload(target)
    return (
        workload.build_model(),
        workload.dataset_config.in_channels,
        workload.id,
    )


def _cmd_lint(args) -> int:
    from repro.analyze import RULES, Severity, lint_model, max_severity

    if args.list_rules:
        rows = [[rule.name, rule.description] for rule in RULES.values()]
        print(format_table(["rule", "description"], rows))
        return 0
    if args.target is None:
        raise ValueError("lint needs a workload id or module:factory target")
    _validate_target(args.device, args.precision)
    fail_on = Severity.parse(args.fail_on)
    rules = args.rules.split(",") if args.rules else None
    policy = None
    if args.policy:
        from repro.tune import load_policy

        policy = load_policy(args.policy)
    model, in_channels, target_name = _resolve_lint_model(args)
    findings = lint_model(
        model,
        in_channels=in_channels,
        device=args.device,
        precision=args.precision,
        policy=policy,
        rules=rules,
        collect_trace=not args.no_trace,
    )
    failing = [f for f in findings if f.severity.rank >= fail_on.rank]
    if args.json:
        import json

        print(
            json.dumps(
                {
                    "target": target_name,
                    "device": args.device,
                    "precision": args.precision,
                    "fail_on": fail_on.value,
                    "findings": [f.to_dict() for f in findings],
                    "failed": bool(failing),
                },
                indent=2,
            )
        )
    else:
        for finding in findings:
            print(finding.format())
        worst = max_severity(findings)
        print(
            f"{target_name}: {len(findings)} finding(s)"
            + (f", worst severity {worst.value}" if worst else "")
            + f" [fail-on {fail_on.value}]"
        )
    return 1 if failing else 0


def _cmd_keycheck(args) -> int:
    from repro.analyze.provenance import (
        REGISTRY,
        audit_cache_sites,
        fuzz_cache_site,
    )
    from repro.errors import ConfigError

    if args.register:
        module_name, _, func_name = args.register.partition(":")
        if not module_name or not func_name:
            raise ConfigError(
                f"--register expects module:function, got {args.register!r}"
            )
        register = _import_attr(args.register)
        if not callable(register):
            raise ConfigError(
                f"{args.register} is not callable ({type(register).__name__})"
            )
        register()
    if args.site:
        unknown = [s for s in args.site if s not in REGISTRY]
        if unknown:
            raise ConfigError(
                f"unknown cache site(s) {unknown}; registered: "
                f"{sorted(REGISTRY)}"
            )
        sites = tuple(sorted(args.site))
    else:
        sites = tuple(sorted(REGISTRY))
    audits = audit_cache_sites(sites)
    fuzz = {}
    if args.fuzz:
        fuzz = {
            site: fuzz_cache_site(site, seed=args.seed + i)
            for i, site in enumerate(sites)
        }
    unsound = sorted(s for s, a in audits.items() if a.unkeyed)
    fuzz_failed = sorted(s for s, r in fuzz.items() if r.failures)
    failed = bool(unsound or fuzz_failed)
    if args.json:
        import json

        print(
            json.dumps(
                {
                    "sites": {s: audits[s].to_dict() for s in sites},
                    "fuzz": {s: r.to_dict() for s, r in fuzz.items()},
                    "unsound": unsound,
                    "fuzz_failed": fuzz_failed,
                    "failed": failed,
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        for site in sites:
            audit = audits[site]
            status = "UNSOUND" if audit.unkeyed else "sound"
            print(
                f"{site}: {status} ({len(audit.reads)} reads, "
                f"{len(audit.exempted)} exempted)"
            )
            for path in audit.unkeyed:
                print(f"   error  unkeyed-read     {path}")
            for name in audit.overkeyed:
                print(f"   info   overkeyed-field  {name}")
            report = fuzz.get(site)
            if report is not None:
                verdict = "ok" if report.ok else "FAILED"
                print(f"   fuzz: {report.trials} trial(s) {verdict}")
                for failure in report.failures:
                    print(f"      {failure}")
        print(
            f"{len(sites)} site(s) audited: "
            + ("FAILED" if failed else "all keys sound")
        )
    return 1 if failed else 0


def _cmd_measure(args) -> int:
    from repro.baselines import get_engine, measure_inference
    from repro.models import get_workload

    _validate_target(args.device, args.precision)
    workload = get_workload(args.workload)
    engine = get_engine(args.engine)
    m = measure_inference(
        engine, workload, args.device, args.precision,
        seeds=tuple(range(args.scenes)),
    )
    print(
        f"{engine.name} on {workload.id} @ {args.device}/{args.precision}: "
        f"{m.mean_ms:.2f} ms mean over {args.scenes} scene(s)"
    )
    parts = ", ".join(
        f"{k} {v / 1e3:.2f} ms" for k, v in sorted(m.breakdown_us.items())
    )
    print(f"breakdown: {parts}")
    if args.layers:
        from repro.gpusim.report import layer_report

        model = workload.build_model()
        model.eval()
        sample = workload.make_input(seed=0)
        ctx = engine.make_context(args.device, args.precision)
        ctx.simulate_only = True
        model(sample, ctx)
        print()
        print(layer_report(ctx.trace, args.device, ctx.precision))
    return 0


def _cmd_tune(args) -> int:
    from repro.models import get_workload
    from repro.tune import SparseAutotuner, save_policy

    _validate_target(args.device, args.precision)
    workload = get_workload(args.workload)
    model = workload.build_model()
    samples = [workload.make_input(seed=s) for s in range(args.scenes)]
    policy, report = SparseAutotuner().tune(
        model, samples, args.device, args.precision
    )
    print(report.describe())
    if args.output:
        save_policy(policy, args.output)
        print(f"policy saved to {args.output}")
    return 0


def _cmd_autotune_search(args) -> int:
    from repro.hw import get_device
    from repro.models import get_workload
    from repro.precision import Precision
    from repro.serve.cache import PolicyCache
    from repro.serve.runtime import tuning_samples
    from repro.tune import SparseAutotuner
    from repro.tune.cache import PolicyStore, StoreEntry

    _validate_target(args.device, args.precision)
    workload = get_workload(args.workload)
    store = PolicyStore.load_or_create(args.db)
    key = PolicyCache.make_key(
        workload.id,
        get_device(args.device).name,
        Precision.parse(args.precision).value,
    )
    entry = store.get(key)
    report = None
    if entry is None:
        model = workload.build_model()
        model.eval()
        policy, report = SparseAutotuner().tune(
            model,
            tuning_samples(workload, args.scale, seed_base=args.seed),
            args.device,
            args.precision,
        )
        entry = store.put(key, StoreEntry(policy, report.end_to_end_us))
    store.save(args.db)
    if args.json:
        import json

        print(
            json.dumps(
                {
                    "workload": workload.id,
                    "device": key[1],
                    "precision": key[2],
                    "db": args.db,
                    "groups": len(entry.policy),
                    "db_hits": store.hits,
                    "db_misses": store.misses,
                    "tuned": report is not None,
                    "end_to_end_us": round(entry.end_to_end_us, 6),
                    "entries": len(store),
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print(f"{workload.id} @ {key[1]}/{key[2]}")
        print(
            report.describe()
            if report is not None
            else f"store hit: {len(entry.policy)} groups, "
            f"{entry.end_to_end_us / 1e3:.2f} ms"
        )
        print(f"policy store {args.db}: {len(store)} entries")
    return 0


def _cmd_autotune_inspect(args) -> int:
    from repro.tune.cache import PolicyStore

    store = PolicyStore.load(args.db)
    if args.json:
        print(store.to_json())
        return 0
    rows = [
        [*key, str(len(entry.policy)), f"{entry.end_to_end_us:.1f}",
         str(entry.trials)]
        for key, entry in store.items()
    ]
    print(
        format_table(
            ["workload", "device", "precision", "groups", "us", "trials"],
            rows,
            title=f"policy store {args.db} ({len(store)} entries)",
        )
    )
    return 0


def _cmd_autotune_merge(args) -> int:
    from repro.tune.cache import PolicyStore

    merged = PolicyStore()
    adopted_total = 0
    for path in args.inputs:
        replica = PolicyStore.load(path)
        adopted = merged.merge(replica)
        adopted_total += adopted
        if not args.json:
            print(f"{path}: {len(replica)} entries, {adopted} adopted")
    merged.save(args.output)
    if args.json:
        import json

        print(
            json.dumps(
                {
                    "inputs": list(args.inputs),
                    "output": args.output,
                    "entries": len(merged),
                    "adopted": adopted_total,
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print(f"merged policy store saved to {args.output} "
              f"({len(merged)} entries)")
    return 0


def _cmd_serve_bench(args) -> int:
    from repro.models import get_workload
    from repro.serve import (
        AutoscalePolicy,
        FaultPlan,
        ServeConfig,
        ServingRuntime,
        generate_requests,
        generate_traffic_requests,
        parse_tenants,
        parse_traffic,
    )
    from repro.serve.runtime import TUNE_SCENES

    _validate_target(args.device, args.precision)
    workload = get_workload(args.workload)
    faults = None
    fault_seed = args.fault_seed if args.fault_seed is not None else args.seed
    if args.faults:
        faults = FaultPlan.parse(args.faults, seed=fault_seed)
    if args.oom_rate != 0:  # FaultPlan rejects negative and NaN rates
        import dataclasses

        faults = dataclasses.replace(
            faults or FaultPlan(seed=fault_seed), oom_rate=args.oom_rate
        )
    tenants = parse_tenants(args.tenants) if args.tenants else ()
    autoscale = None
    if args.autoscale:
        autoscale = AutoscalePolicy(
            slo_ms=args.slo_ms or AutoscalePolicy.slo_ms,
            min_replicas=args.replicas,
            max_replicas=max(args.max_replicas, args.replicas),
        )
    config = ServeConfig(
        device=args.device,
        precision=args.precision,
        replicas=args.replicas,
        balancer=args.balancer,
        replica_queue_depth=args.replica_queue_depth,
        queue_depth=args.queue_depth,
        point_budget=args.point_budget,
        max_batch_requests=args.max_batch,
        batch_window_ms=args.window_ms,
        kmap_cache_size=args.kmap_cache,
        scene_scale=args.scale,
        faults=faults,
        max_retries=args.retries,
        retry_backoff_ms=args.retry_backoff_ms,
        retry_jitter=not args.no_retry_jitter,
        retry_budget=args.retry_budget,
        timeout_ms=args.timeout_ms,
        hedge_ms=args.hedge_ms,
        tuning_db=args.tuning_db,
        mem_headroom=args.mem_headroom,
        gpu_streams=args.gpu_streams,
        tenants=tenants,
        priority_shedding=not args.no_priority_shedding,
        breaker_failures=args.breaker_failures,
        breaker_cooldown_ms=args.breaker_cooldown_ms,
        autoscale=autoscale,
        slo_ms=args.slo_ms,
    )
    runtime = ServingRuntime(config)
    if args.tuning_db:
        print(
            f"policy store {args.tuning_db}: "
            f"{len(runtime.tuning_db)} entries loaded"
        )
    if args.policy:
        runtime.warm_policy_from_file(workload.id, args.policy)
        print(f"policy cache warmed from {args.policy}")
    elif args.warm:
        runtime.warm_policy(workload.id)
        print(f"policy cache warmed by tuning {workload.id} "
              f"on {TUNE_SCENES} scene(s)")
    if args.traffic:
        trace = parse_traffic(args.traffic, seed=args.seed)
        requests = generate_traffic_requests(
            trace,
            count=args.requests,
            tenants=tenants,
            default_workload=workload.id,
            deadline_ms=args.deadline_ms,
            scene_seed_base=args.seed,
        )
        arrival_desc = (
            f"traffic [{args.traffic}] "
            f"(mean {trace.mean_rate_per_s():g}/s)"
        )
    else:
        if args.arrivals == "bursty":
            peak = 4 * args.rate if args.burst_rate is None else args.burst_rate
            spec = f"bursty:base={args.rate},peak={peak}"
        else:
            spec = f"steady:rate={args.rate}"
        requests = generate_requests(
            workload.id,
            parse_traffic(spec, seed=args.seed),
            count=args.requests,
            num_streams=args.streams,
            deadline_ms=args.deadline_ms,
            scene_seed_base=args.seed,
        )
        arrival_desc = f"arrival rate {args.rate:g}/s ({args.arrivals})"
    result = runtime.serve(requests)
    print(
        f"served {result.metrics.completed}/{result.metrics.requests} "
        f"requests of {workload.id} on {args.replicas} x {args.device} "
        f"({args.precision}), {arrival_desc}, "
        f"{args.balancer} balancer"
        + (f", faults [{args.faults}]" if args.faults else "")
        + (f", {len(tenants)} tenants" if tenants else "")
        + (", autoscale on" if autoscale else "")
    )
    print()
    print(result.describe())
    if args.tuning_db:
        m = result.metrics
        first = (
            f"{m.time_to_first_tuned_ms:.1f} ms"
            if m.time_to_first_tuned_ms >= 0
            else "never"
        )
        print(
            f"\ntuning amortization: first tuned config at {first} "
            f"(db hits {m.tuning_db_hits}, misses {m.tuning_db_misses}, "
            f"background tunes {m.background_tunes})"
        )
        if args.tuning_db_save:
            runtime.save_tuning_db()
            print(
                f"policy store saved to {args.tuning_db} "
                f"({len(runtime.tuning_db)} entries)"
            )
    if args.json:
        from pathlib import Path

        Path(args.json).write_text(result.metrics.to_json() + "\n")
        print(f"\nmetrics written to {args.json}")
    return 0


def _trace_workload(args):
    """Simulate ``--batch`` scenes of ``args.workload`` and return
    ``(workload, model, ctx)`` with the accumulated kernel trace."""
    from repro.data.datasets import make_sample
    from repro.hw import get_device
    from repro.models import get_workload
    from repro.nn.context import ExecutionContext
    from repro.precision import Precision

    workload = get_workload(args.workload)
    model = workload.build_model()
    model.eval()
    ctx = ExecutionContext(
        device=get_device(args.device),
        precision=Precision.parse(args.precision),
        simulate_only=True,
    )
    for i in range(args.batch):
        sample = make_sample(
            workload.dataset,
            frames=workload.frames,
            seed=args.seed + i,
            scale=args.scale,
        )
        model(sample, ctx)
    return workload, model, ctx


def _cmd_depgraph(args) -> int:
    import json as _json

    from repro.analyze.depgraph import (
        DependenceGraph,
        check_execution,
        depgraph_report,
    )
    from repro.analyze.hb import check_schedule
    from repro.gpusim.engine import launch_prices
    from repro.opt import best_schedule, optimize_trace
    from repro.opt.schedule import schedule_from_json, schedule_to_dot

    _validate_target(args.device, args.precision)
    if args.gpu_streams < 1:
        raise ValueError(f"--gpu-streams must be >= 1, got {args.gpu_streams}")
    pass_names = None
    if args.passes is not None:
        pass_names = [p.strip() for p in args.passes.split(",") if p.strip()]
        if not pass_names:
            raise ValueError(f"--passes names no pass, got {args.passes!r}")
    workload, _, ctx = _trace_workload(args)
    device, precision, trace = ctx.device, ctx.precision, ctx.trace

    pass_rows = []
    if args.optimize or pass_names is not None:
        trace, results = optimize_trace(trace, pass_names)
        pass_rows = [
            {
                "name": r.name,
                "changed": r.changed,
                "launches_before": r.before.launches,
                "launches_after": r.after.launches,
                "peak_workspace_before": round(r.before.peak_workspace_bytes, 3),
                "peak_workspace_after": round(r.after.peak_workspace_bytes, 3),
            }
            for r in results
        ]

    graph = DependenceGraph.build(trace)
    prices = launch_prices(trace, device, precision)
    violations = check_execution(trace, device, graph, prices)
    schedule = None
    loaded_schedule = False
    if args.schedule_json:
        with open(args.schedule_json) as fh:
            doc_in = _json.load(fh)
        if isinstance(doc_in, dict) and "schedule" in doc_in:
            doc_in = doc_in["schedule"]
        schedule = schedule_from_json(doc_in)
        loaded_schedule = True
    elif args.schedule or args.verify:
        schedule = best_schedule(
            trace, device, args.gpu_streams, graph, prices
        )
    verify_violations = []
    if args.verify:
        verify_violations = check_schedule(trace, schedule, graph)
    failed = bool(violations or verify_violations)
    if args.json:
        doc = depgraph_report(
            graph, device, precision, prices, violations,
            passes=pass_rows,
            schedule=schedule,
            verification=verify_violations if args.verify else None,
        )
        print(_json.dumps(doc, indent=2, sort_keys=True))
        return 1 if failed else 0
    if args.dot:
        if schedule is not None:
            print(schedule_to_dot(schedule))
        else:
            print(graph.to_dot())
        return 1 if failed else 0
    counts = graph.edge_counts()
    path, span = graph.critical_path(prices)
    serialized = sum(prices)
    print(
        f"{workload.id} @ {device.name}/{precision.value} x{args.batch} "
        f"(scale {args.scale:g}): {len(graph.launches)} launches, "
        f"{len(graph.edges)} dependence edges "
        f"(RAW {counts['RAW']}, WAR {counts['WAR']}, WAW {counts['WAW']})"
    )
    print(
        f"serialized {serialized:.1f} us, critical path {span:.1f} us, "
        f"available launch parallelism {serialized / span:.2f}x"
        if span > 0
        else "empty trace"
    )
    for row in pass_rows:
        delta = row["launches_before"] - row["launches_after"]
        ws = row["peak_workspace_before"] - row["peak_workspace_after"]
        effect = (
            f"-{delta} launches, -{ws:.0f} workspace bytes"
            if row["changed"]
            else "no-op"
        )
        print(f"pass {row['name']}: {effect}")
    if schedule is not None:
        if loaded_schedule:
            print(
                f"loaded schedule ({args.schedule_json}): "
                f"{schedule.streams} streams, {schedule.makespan_us:.1f} us, "
                f"{len(schedule.events)} sync events"
            )
        else:
            print(
                f"scheduled ({schedule.streams} of {args.gpu_streams} "
                f"streams used best): {schedule.makespan_us:.1f} us, "
                f"{schedule.speedup:.2f}x over serialized, "
                f"{len(schedule.events)} sync events "
                f"({schedule.sync_us:.1f} us charged, "
                f"{schedule.redundant_events_removed} removed as redundant)"
            )
    if args.verify and schedule is not None:
        if verify_violations:
            print(
                f"schedule verification: {len(verify_violations)} "
                f"happens-before violation(s)"
            )
        else:
            print(
                "schedule verification: every dependence edge is "
                "happens-before ordered (race-free)"
            )
    rows = [
        [i, f"{prices[i]:.2f}", graph.launches[i].kind.value,
         graph.launches[i].name]
        for i in path[:args.max_rows]
    ]
    print()
    print(
        format_table(
            ["#", "us", "kind", "launch"],
            rows,
            title=f"critical path ({len(path)} launches"
            + (
                f", showing first {args.max_rows}"
                if len(path) > args.max_rows
                else ""
            )
            + ")",
        )
    )
    if failed:
        print()
        for v in violations + verify_violations:
            where = f" [{v.launch}]" if v.launch else ""
            print(f"violation {v.invariant}{where}: {v.message}")
        print(
            f"{len(violations)} dependence violation(s), "
            f"{len(verify_violations)} schedule violation(s)"
        )
        return 1
    print("\ndependence/liveness invariants: clean")
    return 0


def _cmd_memory(args) -> int:
    from repro.data.datasets import make_sample
    from repro.gpusim import memory_budget_bytes
    from repro.hw import list_devices
    from repro.models import get_workload
    from repro.nn.context import LayerConfig
    from repro.precision import Precision
    from repro.resilience import (
        DegradationLadder,
        ExecState,
        ladder_footprint,
        model_footprint,
    )

    _validate_target(args.device, args.precision)
    precision = Precision.parse(args.precision)
    workload = get_workload(args.workload)
    model = workload.build_model()
    model.eval()
    samples = [
        make_sample(
            workload.dataset,
            frames=workload.frames,
            seed=args.seed + i,
            scale=args.scale,
        )
        for i in range(args.batch)
    ]
    mib = float(1 << 20)

    # Static value-range pass: may the ladder's precision-drop rung run?
    from repro.analyze import precision_drop_veto, trace_model

    veto = precision_drop_veto(
        trace_model(model, in_channels=workload.dataset_config.in_channels)
    )

    cold = model_footprint(
        model, samples, device=args.device, precision=precision
    )
    if not args.json:
        print(
            f"{workload.id} x{args.batch} ({precision.value}, scale "
            f"{args.scale:g}): per-layer footprint (cold first run, default "
            f"dataflow)"
        )
        print(cold.table())
        print(
            f"\nweights {cold.weights_bytes / mib:.1f} MiB + features "
            f"{cold.peak_feature_bytes / mib:.1f} MiB + workspace "
            f"{cold.peak_workspace_bytes / mib:.1f} MiB = "
            f"{cold.total_bytes / mib:.1f} MiB"
        )

    footprint = ladder_footprint(model, samples, args.device)
    start = ExecState(config=LayerConfig(), precision=precision)
    ladder = DegradationLadder()
    rows = []
    device_docs = []
    for device in list_devices():
        budget = memory_budget_bytes(device, args.mem_headroom)
        if args.budget_mib is not None:
            budget = min(budget, args.budget_mib * mib)
        if footprint(start) <= budget:
            verdict, taken = "fits", ()
        else:
            plan = ladder.plan(footprint, start, budget, precision_veto=veto)
            verdict = "fits degraded" if plan.fits else "DOES NOT FIT"
            taken = plan.taken
        rungs = " -> ".join(taken) if taken else "-"
        rows.append(
            [
                device.name,
                f"{device.dram_gib:g}",
                f"{budget / mib:.0f}",
                f"{footprint(start) / mib:.1f}",
                verdict,
                rungs,
            ]
        )
        device_docs.append(
            {
                "device": device.name,
                "dram_gib": device.dram_gib,
                "budget_mib": round(budget / mib, 1),
                "steady_mib": round(footprint(start) / mib, 1),
                "verdict": verdict,
                "ladder": list(taken),
            }
        )
    if args.json:
        import json

        print(
            json.dumps(
                {
                    "workload": workload.id,
                    "precision": precision.value,
                    "batch": args.batch,
                    "scale": args.scale,
                    "mem_headroom": args.mem_headroom,
                    "budget_cap_mib": args.budget_mib,
                    "cold_mib": {
                        "weights": round(cold.weights_bytes / mib, 1),
                        "features": round(cold.peak_feature_bytes / mib, 1),
                        "workspace": round(cold.peak_workspace_bytes / mib, 1),
                        "total": round(cold.total_bytes / mib, 1),
                    },
                    "precision_veto": veto,
                    "devices": device_docs,
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    print()
    print(
        format_table(
            ["device", "dram GiB", "budget MiB", "steady MiB", "verdict",
             "ladder"],
            rows,
            title=(
                f"per-device memory budget (headroom "
                f"{args.mem_headroom:.0%}"
                + (
                    f", budget capped at {args.budget_mib:g} MiB"
                    if args.budget_mib is not None
                    else ""
                )
                + ")"
            ),
        )
    )
    if veto is not None:
        print(f"\nprecision-drop rung vetoed: {veto}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="TorchSparse++ reproduction command-line interface.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("devices", help="list modelled GPUs").set_defaults(
        func=_cmd_devices
    )
    sub.add_parser("workloads", help="list benchmark workloads").set_defaults(
        func=_cmd_workloads
    )
    sub.add_parser("engines", help="list engines").set_defaults(
        func=_cmd_engines
    )
    sub.add_parser(
        "dataflows", help="list registered sparse convolution dataflows"
    ).set_defaults(func=_cmd_dataflows)

    lint = sub.add_parser(
        "lint",
        help="statically analyze a model without running it",
        description=(
            "Symbolically propagate strides and channels through a model "
            "and report stride/channel/map/precision hazards.  Exit codes: "
            "0 = clean (no finding at or above --fail-on), 1 = findings at "
            "or above --fail-on, 2 = usage error (unknown names)."
        ),
    )
    lint.add_argument(
        "target",
        nargs="?",
        help="workload id (e.g. SK-M-0.5) or module:factory import spec",
    )
    lint.add_argument("--device", default="a100")
    lint.add_argument("--precision", default="fp16")
    lint.add_argument(
        "--in-channels", type=int, default=4,
        help="input channels for module:factory targets "
             "(workloads use their dataset's)",
    )
    lint.add_argument(
        "--policy",
        help="lint against a tuned policy JSON saved by `tune --output`",
    )
    lint.add_argument(
        "--rules", help="comma-separated subset of rules to run"
    )
    lint.add_argument(
        "--fail-on", choices=("warning", "error"), default="error",
        help="exit 1 when any finding is at or above this severity",
    )
    lint.add_argument(
        "--json", action="store_true",
        help="print findings as a JSON document instead of text",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="list the registered lint rules and exit",
    )
    lint.add_argument(
        "--no-trace", action="store_true",
        help="skip the simulated execution that feeds the trace-level "
             "dependence/liveness rules (static rules only)",
    )
    lint.set_defaults(func=_cmd_lint)

    keycheck = sub.add_parser(
        "keycheck",
        help="audit cache-key soundness of the registered memoizations",
        description=(
            "Probe every registered cache site with recording proxies, "
            "diff the observed read set against the site's declared key "
            "schema, and report unkeyed reads (stale-hit hazards) and "
            "overkeyed components (needless misses).  Exit codes: 0 = "
            "every audited site is sound (and fuzzing passed), 1 = any "
            "unkeyed read or fuzz failure, 2 = usage error."
        ),
    )
    keycheck.add_argument(
        "--site",
        action="append",
        help="audit only this site (repeatable; default: all registered)",
    )
    keycheck.add_argument(
        "--fuzz", action="store_true",
        help="also run each site's seeded differential fuzzer",
    )
    keycheck.add_argument(
        "--seed", type=int, default=0,
        help="base seed for --fuzz (per-site seeds derive from it)",
    )
    keycheck.add_argument(
        "--json", action="store_true",
        help="print the audit as a JSON document (sorted keys, "
             "deterministic across runs)",
    )
    keycheck.add_argument(
        "--register",
        help="module:function called before auditing to register extra "
             "cache sites (e.g. a fixture planting an unsound schema)",
    )
    keycheck.set_defaults(func=_cmd_keycheck)

    measure = sub.add_parser("measure", help="measure one engine/workload")
    measure.add_argument("workload", help="e.g. SK-M-0.5")
    measure.add_argument("--engine", default="torchsparse++")
    measure.add_argument("--device", default="a100")
    measure.add_argument("--precision", default="fp16")
    measure.add_argument("--scenes", type=int, default=1)
    measure.add_argument(
        "--layers", action="store_true", help="show a per-layer breakdown"
    )
    measure.set_defaults(func=_cmd_measure)

    tune = sub.add_parser("tune", help="run the Sparse Autotuner")
    tune.add_argument("workload")
    tune.add_argument("--device", default="a100")
    tune.add_argument("--precision", default="fp16")
    tune.add_argument("--scenes", type=int, default=2)
    tune.add_argument("--output", help="save the policy JSON here")
    tune.set_defaults(func=_cmd_tune)

    serve = sub.add_parser(
        "serve-bench",
        help="benchmark the request-driven serving runtime",
    )
    serve.add_argument("--workload", default="SK-M-1.0", help="e.g. SK-M-1.0")
    serve.add_argument("--device", default="a100")
    serve.add_argument("--precision", default="fp16")
    serve.add_argument("--requests", type=int, default=64)
    serve.add_argument(
        "--rate", type=float, default=30.0,
        help="mean arrival rate in requests per simulated second",
    )
    serve.add_argument(
        "--arrivals", choices=("poisson", "bursty"), default="poisson"
    )
    serve.add_argument(
        "--burst-rate", type=float, default=None,
        help="burst-phase rate for --arrivals bursty (default 4x --rate)",
    )
    serve.add_argument("--replicas", type=int, default=1)
    serve.add_argument(
        "--balancer", default="round_robin",
        help="replica load balancer: round_robin, least_loaded, jsq, "
             "or cache_affinity",
    )
    serve.add_argument(
        "--replica-queue-depth", type=int, default=1,
        help="in-flight batches one replica may hold (>1 lets load-aware "
             "balancers pipeline work behind busy replicas)",
    )
    serve.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="inject faults, e.g. 'stall=2,fail=0.1,skew=3' "
             "(stall windows/s per replica, per-batch failure probability, "
             "slow-replica service multiplier)",
    )
    serve.add_argument(
        "--fault-seed", type=int, default=None,
        help="seed of the fault streams (default: --seed)",
    )
    serve.add_argument(
        "--retries", type=int, default=0,
        help="max retries for transiently failed batches",
    )
    serve.add_argument("--retry-backoff-ms", type=float, default=5.0,
                       help="base of the exponential retry backoff")
    serve.add_argument(
        "--timeout-ms", type=float, default=0.0,
        help="drop queued requests older than this (0 = no timeouts)",
    )
    serve.add_argument(
        "--hedge-ms", type=float, default=0.0,
        help="hedge batches predicted to run longer than this onto a "
             "second replica (0 = no hedging)",
    )
    serve.add_argument("--streams", type=int, default=4,
                       help="scene streams (vehicles) in the request mix")
    serve.add_argument(
        "--gpu-streams", type=int, default=1,
        help="virtual GPU streams per replica: kernel launches overlap "
             "across the dependence DAG (default 1 = serialized)",
    )
    serve.add_argument("--deadline-ms", type=float, default=200.0)
    serve.add_argument("--queue-depth", type=int, default=32)
    serve.add_argument("--point-budget", type=int, default=400_000)
    serve.add_argument("--max-batch", type=int, default=8)
    serve.add_argument("--window-ms", type=float, default=10.0)
    serve.add_argument("--kmap-cache", type=int, default=16)
    serve.add_argument(
        "--warm", action="store_true",
        help="pre-warm the policy cache by tuning before serving",
    )
    serve.add_argument(
        "--policy", help="pre-warm from a policy JSON saved by `tune --output`"
    )
    serve.add_argument(
        "--tuning-db", default=None, metavar="PATH",
        help="persistent policy store: a policy-cache miss installs the "
             "stored policy at once, or tunes in the background on the "
             "virtual clock when the store has none; the path may not "
             "exist yet (cold start)",
    )
    serve.add_argument(
        "--tuning-db-save", action="store_true",
        help="persist what the run tuned back to --tuning-db after the run",
    )
    serve.add_argument(
        "--scale", type=float, default=0.25,
        help="scene resolution scale (wall-clock knob; 1.0 = full)",
    )
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--json", help="also write metrics JSON here")
    serve.add_argument(
        "--mem-headroom", type=float, default=0.1,
        help="fraction of replica DRAM reserved for untraced allocations",
    )
    serve.add_argument(
        "--oom-rate", type=float, default=0.0,
        help="per-batch simulated-OOM probability; OOMed batches recover "
             "via the degradation ladder (shorthand for faults key oom=)",
    )
    serve.add_argument(
        "--traffic", default=None, metavar="SPEC",
        help="trace-driven arrival program (overrides --arrivals/--rate): "
             "'steady', 'bursty', 'flash', 'diurnal', or preset:key=value,... "
             "e.g. 'flash:peak=400,ramp=200'",
    )
    serve.add_argument(
        "--tenants", default=None, metavar="SPEC",
        help="tenant roster, e.g. "
             "'gold:prio=0,share=3;bronze:prio=2,rps=50' "
             "(keys: prio, share, rps, burst, retry_budget, deadline, "
             "streams, mix)",
    )
    serve.add_argument(
        "--autoscale", action="store_true",
        help="enable the SLO-driven autoscaler (grows the fleet from "
             "--replicas up to --max-replicas, drains it when idle)",
    )
    serve.add_argument(
        "--max-replicas", type=int, default=8,
        help="autoscaler fleet ceiling (with --autoscale)",
    )
    serve.add_argument(
        "--slo-ms", type=float, default=0.0,
        help="target p99 latency: drives SLO attainment reporting and the "
             "autoscaler (0 = use per-request deadlines for attainment)",
    )
    serve.add_argument(
        "--retry-budget", type=float, default=-1.0,
        help="per-tenant retry budget as retries per success (e.g. 0.1); "
             "-1 = unlimited unless the tenant spec sets one",
    )
    serve.add_argument(
        "--breaker-failures", type=int, default=0,
        help="consecutive batch failures that open a replica's circuit "
             "breaker (0 = breakers off)",
    )
    serve.add_argument(
        "--breaker-cooldown-ms", type=float, default=250.0,
        help="open-state cooldown before a breaker probes the replica",
    )
    serve.add_argument(
        "--no-retry-jitter", action="store_true",
        help="disable seeded jitter on the exponential retry backoff",
    )
    serve.add_argument(
        "--no-priority-shedding", action="store_true",
        help="shed newest-first under queue pressure instead of "
             "lowest-priority-first",
    )
    serve.set_defaults(func=_cmd_serve_bench)

    autotune = sub.add_parser(
        "autotune",
        help="persistent policy store: search, inspect, merge",
        description=(
            "Operate the persistent policy store that serve-bench "
            "--tuning-db reads: search (tune a workload into it with the "
            "Sparse Autotuner), inspect, or merge replica stores.  Exit "
            "codes: 0 = success, 2 = usage error (unknown names, missing "
            "or malformed store)."
        ),
    )
    autotune_sub = autotune.add_subparsers(
        dest="autotune_command", required=True
    )

    search = autotune_sub.add_parser(
        "search",
        help="tune one workload into a policy store (a stored entry "
             "short-circuits the tuner)",
    )
    search.add_argument("workload", help="e.g. SK-M-0.5")
    search.add_argument("--device", default="a100")
    search.add_argument("--precision", default="fp16")
    search.add_argument(
        "--db", required=True, metavar="PATH",
        help="policy store to consult and update (created if missing)",
    )
    search.add_argument(
        "--seed", type=int, default=9000,
        help="seed of the sample scene the tuner runs on (default 9000, "
             "the scene serve-bench tunes on)",
    )
    search.add_argument(
        "--scale", type=float, default=0.25,
        help="scene resolution scale (wall-clock knob; 1.0 = full)",
    )
    search.add_argument("--json", action="store_true",
                        help="print the search summary as JSON")
    search.set_defaults(func=_cmd_autotune_search)

    inspect = autotune_sub.add_parser(
        "inspect", help="show a policy store's entries"
    )
    inspect.add_argument("db", help="policy store path")
    inspect.add_argument("--json", action="store_true",
                         help="print the raw store document")
    inspect.set_defaults(func=_cmd_autotune_inspect)

    merge = autotune_sub.add_parser(
        "merge", help="merge replica policy stores (best entry wins)"
    )
    merge.add_argument("inputs", nargs="+", help="replica store paths")
    merge.add_argument(
        "--output", required=True, metavar="PATH",
        help="write the merged store here",
    )
    merge.add_argument("--json", action="store_true",
                       help="print the merge summary as JSON")
    merge.set_defaults(func=_cmd_autotune_merge)

    memory = sub.add_parser(
        "memory",
        help="model a workload's DRAM footprint and degradation ladder",
    )
    memory.add_argument("workload", help="e.g. SK-M-0.5")
    memory.add_argument("--device", default="a100",
                        help="device for the per-layer table/latency")
    memory.add_argument("--precision", default="fp16")
    memory.add_argument("--batch", type=int, default=2,
                        help="scenes per batch in the footprint model")
    memory.add_argument(
        "--scale", type=float, default=0.25,
        help="scene resolution scale (wall-clock knob; 1.0 = full)",
    )
    memory.add_argument("--seed", type=int, default=0)
    memory.add_argument(
        "--mem-headroom", type=float, default=0.1,
        help="fraction of device DRAM reserved for untraced allocations",
    )
    memory.add_argument(
        "--budget-mib", type=float, default=None,
        help="cap every device's budget at this many MiB (demonstrates "
             "the degradation ladder on tight budgets)",
    )
    memory.add_argument(
        "--json", action="store_true",
        help="print the report as a JSON document instead of tables",
    )
    memory.set_defaults(func=_cmd_memory)

    depgraph = sub.add_parser(
        "depgraph",
        help="launch-level dependence DAG, critical path and invariants",
        description=(
            "Simulate a workload execution, build the launch-level "
            "dependence DAG from the kernels' buffer read/write sets, "
            "report the critical path and available launch parallelism, "
            "and check use-before-def / workspace-lifetime / write-order "
            "invariants plus the serialized-latency lower bound.  With "
            "--verify, the happens-before race detector checks that the "
            "multi-stream schedule orders every dependence edge through "
            "stream program order and explicit sync events.  Exit codes: "
            "0 = clean, 1 = dependence/schedule violations, 2 = usage "
            "error."
        ),
    )
    depgraph.add_argument("workload", help="e.g. SK-M-0.5")
    depgraph.add_argument("--device", default="a100")
    depgraph.add_argument("--precision", default="fp16")
    depgraph.add_argument("--batch", type=int, default=1,
                          help="scenes to trace through the model")
    depgraph.add_argument(
        "--scale", type=float, default=0.25,
        help="scene resolution scale (wall-clock knob; 1.0 = full)",
    )
    depgraph.add_argument("--seed", type=int, default=0)
    depgraph.add_argument(
        "--max-rows", type=int, default=15,
        help="critical-path table rows in text output",
    )
    depgraph.add_argument(
        "--schedule", action="store_true",
        help="list-schedule the DAG onto virtual streams and report the "
             "makespan (critical_path <= scheduled <= serialized)",
    )
    depgraph.add_argument(
        "--gpu-streams", type=int, default=4,
        help="virtual streams available to --schedule (default 4)",
    )
    depgraph.add_argument(
        "--verify", action="store_true",
        help="run the happens-before race detector over the schedule "
             "(built by --schedule/--gpu-streams, or loaded via "
             "--schedule-json); races exit 1",
    )
    depgraph.add_argument(
        "--schedule-json", default=None, metavar="FILE",
        help="verify/inspect an externally supplied schedule document "
             "(the `schedule` fragment of --schedule --json output) "
             "instead of scheduling the trace",
    )
    depgraph.add_argument(
        "--passes", default=None, metavar="P1,P2,...",
        help="run these optimization passes (repro.opt) on the trace "
             "before analysis; names: hoist-maps, fuse, hoist-invariants, "
             "dle, plan-workspace",
    )
    depgraph.add_argument(
        "-O", "--optimize", action="store_true",
        help="run the default optimization pipeline before analysis",
    )
    export = depgraph.add_mutually_exclusive_group()
    export.add_argument(
        "--json", action="store_true",
        help="print the DAG summary + violations as a JSON document",
    )
    export.add_argument(
        "--dot", action="store_true",
        help="print the DAG in Graphviz DOT format",
    )
    depgraph.set_defaults(func=_cmd_depgraph)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
