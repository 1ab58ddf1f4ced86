"""Happens-before race detector tests (``repro.analyze.hb``).

Four layers of coverage:

* pure HB-relation properties (transitivity, cycle handling);
* the ISSUE's property test — on seeded random DAGs, the transitive
  reduction never removes a sync edge whose ordering was required:
  the HB closure is bit-identical before and after reduction;
* adversarial fixtures from ``tests/broken_schedules.py``: every
  tampered schedule of a real workload trace is rejected, with the
  race message naming the buffer and both launches;
* the CLI contract: ``--verify`` exits 0 on the scheduler's own output
  and 1 on a tampered ``--schedule-json`` document.
"""

import dataclasses
import json
import random

import pytest

from repro.analyze.depgraph import DependenceGraph
from repro.analyze.hb import (
    MALFORMED_SCHEDULE_INVARIANT,
    MALFORMED_SYNC_INVARIANT,
    RACE_INVARIANT,
    HappensBefore,
    SyncEvent,
    check_schedule,
    find_redundant_events,
    redundant_sync_edges,
)
from repro.cli import main
from repro.gpusim.engine import estimate_trace_us, launch_prices
from repro.hw import get_device
from repro.opt.schedule import (
    best_schedule,
    list_schedule,
    schedule_report_json,
)
from repro.precision import Precision
from tests.broken_schedules import (
    TAMPERS,
    healthy_schedule,
    workload_trace,
)
from tests.test_opt_scheduler import random_dag_trace

A100 = get_device("a100")
FP16 = Precision.FP16

WORKLOAD = "SK-M-0.5"
FAST = ["--scale", "0.1", "--batch", "1"]


# --------------------------------------------------------------------- #
# shared workload fixture (one trace build for the whole module)
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def workload_case():
    launches = workload_trace()
    graph = DependenceGraph.build(launches)
    schedule = healthy_schedule(launches, graph)
    return launches, graph, schedule


# --------------------------------------------------------------------- #
# HB relation basics
# --------------------------------------------------------------------- #
class TestHappensBefore:
    def test_transitive_chain(self):
        hb = HappensBefore(3, [(0, 1), (1, 2)])
        assert hb.acyclic
        assert hb.ordered(0, 1)
        assert hb.ordered(0, 2)
        assert hb.ordered(1, 2)
        assert not hb.ordered(2, 0)
        assert not hb.ordered(1, 0)

    def test_reflexive(self):
        hb = HappensBefore(2, [])
        assert hb.ordered(0, 0)
        assert not hb.ordered(0, 1)

    def test_cycle_is_conservative(self):
        hb = HappensBefore(2, [(0, 1), (1, 0)])
        assert not hb.acyclic
        assert not hb.ordered(0, 1)
        assert not hb.ordered(1, 0)

    def test_diamond(self):
        hb = HappensBefore(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        assert hb.ordered(0, 3)
        assert not hb.ordered(1, 2)
        assert not hb.ordered(2, 1)


# --------------------------------------------------------------------- #
# the ISSUE property test: reduction never removes a required ordering
# --------------------------------------------------------------------- #
def _random_hb_instance(rng):
    """Random per-stream chains + random forward sync edges.

    Node index order is a valid topological order by construction, so
    the instance is always acyclic — the setting the reduction is
    specified for.
    """
    n = rng.randrange(8, 25)
    streams = rng.randrange(2, 5)
    chains = [[] for _ in range(streams)]
    for node in range(n):
        chains[rng.randrange(streams)].append(node)
    program = []
    for chain in chains:
        program.extend(zip(chain, chain[1:]))
    sync = []
    for _ in range(rng.randrange(1, 2 * n)):
        a = rng.randrange(n - 1)
        b = rng.randrange(a + 1, n)
        sync.append((a, b))
    return n, program, sync


class TestTransitiveReductionProperty:
    @pytest.mark.parametrize("seed", range(30))
    def test_reduction_preserves_closure(self, seed):
        rng = random.Random(seed)
        n, program, sync = _random_hb_instance(rng)
        before = HappensBefore(n, program + sync)
        removed = set(redundant_sync_edges(n, program, sync))
        kept = [e for i, e in enumerate(sync) if i not in removed]
        after = HappensBefore(n, program + kept)
        assert after.acyclic
        for a in range(n):
            for b in range(n):
                assert before.ordered(a, b) == after.ordered(a, b), (
                    f"reduction changed HB({a}, {b}) with seed {seed}"
                )

    @pytest.mark.parametrize("seed", range(10))
    def test_reduction_is_idempotent(self, seed):
        rng = random.Random(1000 + seed)
        n, program, sync = _random_hb_instance(rng)
        removed = set(redundant_sync_edges(n, program, sync))
        kept = [e for i, e in enumerate(sync) if i not in removed]
        assert redundant_sync_edges(n, program, kept) == []


# --------------------------------------------------------------------- #
# scheduler output verifies clean on random DAGs and real workloads
# --------------------------------------------------------------------- #
class TestScheduleVerifiesClean:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("streams", (2, 4))
    def test_random_dag_schedule_is_race_free(self, seed, streams):
        trace = random_dag_trace(seed)
        launches = list(trace)
        graph = DependenceGraph.build(launches)
        schedule = list_schedule(
            launches, A100, streams, graph, launch_prices(launches, A100, FP16)
        )
        assert check_schedule(launches, schedule, graph) == []
        assert find_redundant_events(schedule) == []
        assert (
            schedule.critical_path_us
            <= schedule.makespan_us
            <= schedule.serialized_us * (1 + 1e-9)
        )

    def test_workload_schedule_is_race_free(self, workload_case):
        launches, graph, schedule = workload_case
        assert check_schedule(launches, schedule, graph) == []
        assert find_redundant_events(schedule) == []

    def test_events_are_cross_stream_and_charged(self, workload_case):
        launches, _, schedule = workload_case
        assert schedule.events
        assert schedule.sync_event_us == A100.sync_event_us > 0.0
        assert schedule.sync_us == len(schedule.events) * A100.sync_event_us
        stream_of = {a.index: a.stream for a in schedule.assignments}
        ids = [e.event_id for e in schedule.events]
        assert len(set(ids)) == len(ids)
        for event in schedule.events:
            assert event.record_stream != event.wait_stream
            assert stream_of[event.record_index] == event.record_stream
            assert stream_of[event.wait_index] == event.wait_stream

    def test_single_stream_needs_no_events(self, workload_case):
        launches, graph, _ = workload_case
        schedule = list_schedule(
            launches, A100, 1, graph, launch_prices(launches, A100, FP16)
        )
        assert schedule.events == ()
        assert schedule.makespan_us == estimate_trace_us(
            launches, A100, FP16
        )


# --------------------------------------------------------------------- #
# adversarial fixtures: every tamper is rejected with a race report
# --------------------------------------------------------------------- #
class TestTamperedSchedules:
    @pytest.mark.parametrize("kind", sorted(TAMPERS))
    def test_tamper_is_rejected(self, kind, workload_case):
        launches, graph, schedule = workload_case
        tampered = TAMPERS[kind](launches, graph, schedule)
        violations = check_schedule(launches, tampered, graph)
        assert violations, f"{kind} tamper was not detected"
        invariants = {v.invariant for v in violations}
        assert RACE_INVARIANT in invariants
        race = next(v for v in violations if v.invariant == RACE_INVARIANT)
        assert "buffer" in race.message
        assert "launch" in race.message
        assert race.launch is not None

    def test_reorder_names_the_stream_reorder(self, workload_case):
        launches, graph, schedule = workload_case
        tampered = TAMPERS["reordered-placement"](launches, graph, schedule)
        violations = check_schedule(launches, tampered, graph)
        assert any(
            "reordered within their stream" in v.message for v in violations
        )


# --------------------------------------------------------------------- #
# malformed schedules and sync events (structure before HB reasoning)
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def small_case():
    trace = random_dag_trace(3, n=12)
    launches = list(trace)
    graph = DependenceGraph.build(launches)
    schedule = list_schedule(
        launches, A100, 2, graph, launch_prices(launches, A100, FP16)
    )
    assert check_schedule(launches, schedule, graph) == []
    return launches, graph, schedule


def _invariants(violations):
    return {v.invariant for v in violations}


class TestMalformedSchedules:
    def test_duplicate_index_is_flagged(self, small_case):
        launches, graph, schedule = small_case
        first = schedule.assignments[0]
        tampered = dataclasses.replace(
            schedule,
            assignments=(
                dataclasses.replace(schedule.assignments[1], index=first.index),
            ) + schedule.assignments[1:],
        )
        violations = check_schedule(launches, tampered, graph)
        assert MALFORMED_SCHEDULE_INVARIANT in _invariants(violations)

    def test_negative_duration_is_flagged(self, small_case):
        launches, graph, schedule = small_case
        victim = schedule.assignments[0]
        tampered = dataclasses.replace(
            schedule,
            assignments=(
                dataclasses.replace(
                    victim, start_us=victim.end_us + 1.0
                ),
            ) + schedule.assignments[1:],
        )
        violations = check_schedule(launches, tampered, graph)
        assert MALFORMED_SCHEDULE_INVARIANT in _invariants(violations)

    def test_out_of_range_stream_is_flagged(self, small_case):
        launches, graph, schedule = small_case
        victim = schedule.assignments[0]
        tampered = dataclasses.replace(
            schedule,
            assignments=(
                dataclasses.replace(victim, stream=schedule.streams + 7),
            ) + schedule.assignments[1:],
        )
        violations = check_schedule(launches, tampered, graph)
        assert MALFORMED_SCHEDULE_INVARIANT in _invariants(violations)

    def test_event_with_bad_index_is_flagged(self, small_case):
        launches, graph, schedule = small_case
        bogus = SyncEvent(
            event_id=999,
            record_index=len(launches) + 5,
            record_stream=0,
            wait_index=0,
            wait_stream=0,
        )
        tampered = dataclasses.replace(
            schedule, events=schedule.events + (bogus,)
        )
        violations = check_schedule(launches, tampered, graph)
        assert MALFORMED_SYNC_INVARIANT in _invariants(violations)

    def test_event_with_wrong_stream_claim_is_flagged(self, small_case):
        launches, graph, schedule = small_case
        stream_of = {a.index: a.stream for a in schedule.assignments}
        a, b = 0, 1
        bogus = SyncEvent(
            event_id=998,
            record_index=a,
            record_stream=stream_of[a] + 1,
            wait_index=b,
            wait_stream=stream_of[b],
        )
        tampered = dataclasses.replace(
            schedule, events=schedule.events + (bogus,)
        )
        violations = check_schedule(launches, tampered, graph)
        assert MALFORMED_SYNC_INVARIANT in _invariants(violations)


# --------------------------------------------------------------------- #
# CLI contract: --verify exits 0 clean / 1 on a tampered document
# --------------------------------------------------------------------- #
def run_cli(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestCliVerify:
    def test_verify_clean_exits_zero(self, capsys):
        rc, out, _ = run_cli(
            capsys, ["depgraph", WORKLOAD, *FAST, "--schedule", "--verify"]
        )
        assert rc == 0
        assert "schedule verification" in out
        assert "sync events" in out

    def test_verify_json_lists_empty_verification(self, capsys):
        rc, out, _ = run_cli(
            capsys,
            ["depgraph", WORKLOAD, *FAST, "--schedule", "--verify", "--json"],
        )
        assert rc == 0
        doc = json.loads(out)
        assert doc["schedule_verification"] == []
        assert doc["schedule"]["sync_events"] == len(doc["schedule"]["events"])

    def test_tampered_document_exits_one(
        self, capsys, tmp_path, workload_case
    ):
        launches, graph, schedule = workload_case
        tampered = TAMPERS["dropped-sync"](launches, graph, schedule)
        doc_path = tmp_path / "tampered.json"
        doc_path.write_text(json.dumps(schedule_report_json(tampered)))
        rc, out, _ = run_cli(
            capsys,
            [
                "depgraph", WORKLOAD, *FAST,
                "--schedule-json", str(doc_path), "--verify",
            ],
        )
        assert rc == 1
        assert RACE_INVARIANT in out

    def test_tampered_document_json_reports_violations(
        self, capsys, tmp_path, workload_case
    ):
        launches, graph, schedule = workload_case
        tampered = TAMPERS["wrong-stream-wait"](launches, graph, schedule)
        doc_path = tmp_path / "tampered.json"
        doc_path.write_text(json.dumps(schedule_report_json(tampered)))
        rc, out, _ = run_cli(
            capsys,
            [
                "depgraph", WORKLOAD, *FAST,
                "--schedule-json", str(doc_path), "--verify", "--json",
            ],
        )
        assert rc == 1
        doc = json.loads(out)
        assert doc["schedule_verification"]
        assert any(
            v["invariant"] == RACE_INVARIANT
            for v in doc["schedule_verification"]
        )


# --------------------------------------------------------------------- #
# sync-aware best_schedule: monotone, bounded, smallest-K on ties
# --------------------------------------------------------------------- #
class TestSyncAwareBestSchedule:
    @pytest.mark.parametrize("seed", range(4))
    def test_monotone_and_bounded(self, seed):
        trace = random_dag_trace(100 + seed)
        launches = list(trace)
        graph = DependenceGraph.build(launches)
        serialized = estimate_trace_us(launches, A100, FP16)
        prices = launch_prices(launches, A100, FP16)
        previous = None
        for streams in (1, 2, 4, 8):
            schedule = best_schedule(launches, A100, streams, graph, prices)
            assert schedule.makespan_us <= serialized * (1 + 1e-9)
            assert (
                schedule.critical_path_us
                <= schedule.makespan_us * (1 + 1e-9)
            )
            if previous is not None:
                assert schedule.makespan_us <= previous * (1 + 1e-9)
            previous = schedule.makespan_us

    def test_huge_sync_cost_falls_back_to_serial(self):
        trace = random_dag_trace(7)
        launches = list(trace)
        graph = DependenceGraph.build(launches)
        expensive = dataclasses.replace(A100, sync_event_us=1e9)
        schedule = best_schedule(
            launches, expensive, 4, graph, launch_prices(launches, A100, FP16)
        )
        assert schedule.events == ()
        assert schedule.makespan_us == estimate_trace_us(
            launches, expensive, FP16
        )
