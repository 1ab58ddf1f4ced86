"""Figure 20: loop-invariant hoisting vs fixed-shape kernels."""

from repro.experiments import fig20_hoisting


def test_fig20_hoisting(run_experiment):
    result = run_experiment(fig20_hoisting)
    m = result.metrics
    # Paper: naive dynamic conversion costs 1.5-1.7x.
    assert 1.2 < m["max_naive_overhead"] < 1.9
    assert m["min_naive_overhead"] > 1.1
    # Hoisting fully closes the gap (and usually beats fixed-shape).
    assert m["max_hoisted_overhead"] <= 1.02
    assert m["hoisted_faster_than_fixed_fraction"] >= 0.5
    # The hoist-invariants pass applied to the naive trace reproduces
    # the hand-modeled hoisted schedule exactly.
    assert m["pass_vs_schedule_max_rel_diff"] < 1e-9
