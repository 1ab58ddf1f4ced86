"""Deliberately unsound cache-site schema for keycheck negative tests.

``register_unsound()`` plants a launch-pricing cache whose declared key
omits ``launch.flops`` — a field the priced computation demonstrably
reads — so ``python -m repro keycheck --register
tests.broken_caches:register_unsound`` must exit 1 with an
``unkeyed-read`` for exactly that path.  CI runs this to prove the
analyzer actually fails on a broken key rather than rubber-stamping
whatever is registered.
"""

from __future__ import annotations

from repro.analyze.provenance import (
    KeyComponent,
    KeySchema,
    ReadLog,
    register_cache_site,
    wrap,
)

SITE = "test.broken-pricing-key"

#: Every launch field ``estimate_launch_us`` prices except ``flops``, the
#: one the planted key "forgets".
_PARTIAL_FIELDS = (
    "kind",
    "dram_read_bytes",
    "dram_write_bytes",
    "atomic_write_bytes",
    "scalar_ops",
    "ctas",
    "overlapped",
    "tensor_core_eligible",
    "compute_efficiency",
)


def _probe_broken() -> ReadLog:
    import numpy as np

    from repro.gpusim.engine import estimate_launch_us
    from repro.hw.specs import get_device
    from repro.kernels.registry import Dataflow, trace_dataflow
    from repro.precision import Precision
    from repro.sparse.kmap import build_kernel_map

    log = ReadLog()
    rng = np.random.default_rng(0)
    coords = np.unique(
        np.concatenate(
            [
                np.zeros((120, 1), np.int32),
                rng.integers(0, 10, (120, 3)).astype(np.int32),
            ],
            axis=1,
        ),
        axis=0,
    )
    kmap = build_kernel_map(coords, kernel_size=3, stride=1)
    trace = trace_dataflow(
        Dataflow.IMPLICIT_GEMM, kmap, 16, 16, precision="fp16"
    )
    device = wrap(get_device("a100"), "device", log)
    total = sum(
        estimate_launch_us(wrap(launch, "launch", log), device, Precision.FP16)
        for launch in trace
    )
    assert total > 0.0
    return log


def register_unsound() -> None:
    """Register the broken schema (called via ``keycheck --register``)."""
    register_cache_site(
        KeySchema(
            site=SITE,
            description=(
                "launch-pricing cache whose key forgets launch.flops "
                "(negative fixture: must be reported as an unkeyed read)"
            ),
            components=(
                KeyComponent(
                    "partial_signature",
                    covers=tuple(f"launch.{f}" for f in _PARTIAL_FIELDS),
                ),
                KeyComponent("device", covers=("device",)),
                KeyComponent("precision", note="by value"),
            ),
            probe=_probe_broken,
        )
    )
