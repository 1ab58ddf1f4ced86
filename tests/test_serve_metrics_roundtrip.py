"""JSON round-trip and schema-stability tests for ServingMetrics.

The metrics JSON is the machine-readable contract of every serving run
(``serve-bench --json``, the CI determinism smoke, the benchmark
regression gate all consume it).  The golden snapshot in
``tests/golden/serving_metrics_schema.json`` pins the field set and the
table column sets: adding a field is fine (regenerate the snapshot with
the script in this file's docstring below), but renaming or dropping one
silently breaks downstream consumers and must fail loudly here.

Regenerate after an intentional schema change::

    PYTHONPATH=src python -c "
    import dataclasses, json
    from repro.serve.metrics import ServingMetrics
    path = 'tests/golden/serving_metrics_schema.json'
    schema = json.load(open(path))
    schema['fields'] = sorted(
        f.name for f in dataclasses.fields(ServingMetrics))
    json.dump(schema, open(path, 'w'), indent=2, sort_keys=True)"
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.serve import (
    FaultPlan,
    ServeConfig,
    ServingMetrics,
    ServingRuntime,
    generate_requests,
    parse_tenants,
    parse_traffic,
)

GOLDEN = Path(__file__).parent / "golden" / "serving_metrics_schema.json"


@pytest.fixture(scope="module")
def served_metrics():
    """Metrics of one small multi-tenant faulty run (real populated rows)."""
    tenants = parse_tenants("gold:prio=0,share=2;free:prio=1,share=1")
    config = ServeConfig(
        device="rtx3090", precision="fp16", scene_scale=0.1,
        replicas=2, tenants=tenants, slo_ms=400.0,
        faults=FaultPlan(fail_rate=0.2, seed=1), max_retries=2,
        breaker_failures=2,
    )
    requests = generate_requests(
        "SK-M-0.5", parse_traffic("steady:rate=200", seed=1), count=24,
    )
    return ServingRuntime(config).serve(requests).metrics


class TestRoundTrip:
    def test_served_run_roundtrips_exactly(self, served_metrics):
        text = served_metrics.to_json()
        again = ServingMetrics.from_json(text)
        assert again == served_metrics
        # And the round-trip is a fixed point byte-wise.
        assert again.to_json() == text

    def test_unknown_field_rejected(self, served_metrics):
        payload = json.loads(served_metrics.to_json())
        payload["zz_new_metric"] = 1
        with pytest.raises(ValueError, match="zz_new_metric"):
            ServingMetrics.from_json(json.dumps(payload))

    def test_json_is_sorted_and_native(self, served_metrics):
        payload = json.loads(served_metrics.to_json())
        assert list(payload) == sorted(payload)


class TestGoldenSchema:
    def golden(self):
        return json.loads(GOLDEN.read_text())

    def test_field_set_matches_snapshot(self):
        fields = sorted(f.name for f in dataclasses.fields(ServingMetrics))
        assert fields == self.golden()["fields"], (
            "ServingMetrics fields changed; if intentional, regenerate "
            f"{GOLDEN} (see module docstring)"
        )

    def test_table_columns_match_snapshot(self, served_metrics):
        golden = self.golden()
        cluster_header = served_metrics.cluster_table().splitlines()[1]
        for column in golden["cluster_table_columns"]:
            assert column in cluster_header
        tenant_header = served_metrics.tenant_table().splitlines()[1]
        for column in golden["tenant_table_columns"]:
            assert column in tenant_header

    def test_tenant_row_keys_match_snapshot(self, served_metrics):
        assert served_metrics.per_tenant, "fixture run produced no tenants"
        for row in served_metrics.per_tenant:
            assert sorted(row) == self.golden()["tenant_row_keys"]

    def test_tenant_rows_sorted_by_priority(self, served_metrics):
        priorities = [row["priority"] for row in served_metrics.per_tenant]
        assert priorities == sorted(priorities)
