"""Device cost of kernel-map construction and preparation.

Mapping operations — building the coordinate hash table, querying it for
every (output, offset) pair, sorting/reordering maps — run on CUDA cores
with *random-access* memory patterns and account for up to 50% of
end-to-end sparse convolution time (Section 6.3, Tables 3/4).  Two effects
dominate and are modelled explicitly:

* **sector waste**: a random 4-16 byte probe still moves a full 32-byte
  DRAM sector (often two, for the key+value of an open-addressing slot), so
  effective traffic is ``SECTOR_BYTES``-granular;
* **kernel fragmentation**: real map pipelines (thrust sort + unique +
  hash build + query) issue many small launches with synchronization,
  charged as multiple launches here.
"""

from __future__ import annotations

from repro.gpusim.trace import KernelLaunch, KernelTrace, LaunchKind, TraceScope
from repro.sparse.kmap import KernelMap

#: Scalar ops per hash probe (hash mix, compare, CAS/select, loop control).
OPS_PER_PROBE = 24.0
#: Effective DRAM bytes per random probe: key + value slots, each touching
#: a 32-byte sector.
BYTES_PER_PROBE = 96.0
#: Random-scatter amplification for map reordering (4-byte elements moved
#: at 32-byte sector granularity).
SECTOR_FACTOR = 8.0
#: Radix-sort passes for 64-bit coordinate keys.
COORD_SORT_PASSES = 8


def map_build_trace(kmap: KernelMap, name: str = "map") -> KernelTrace:
    """Launches for constructing ``kmap`` on device.

    ``name`` scopes the trace: launches are ``<name>/<stage>`` and buffer
    ids ``<class>:<name>:<buffer>``, so maps built by different layers
    never alias; the empty name keeps both local.
    """
    scope = TraceScope(name, sep="/")
    stats = kmap.build_stats
    trace = KernelTrace()
    # Open-addressing hash table (key + value slots at ~1.5x load factor),
    # live from build through the last query.
    hash_bytes = 24.0 * max(stats.inserts, 1)
    # The hash table is trace-local workspace when a query consumes it in
    # this same build; with no queries it would look leaked, so it stays
    # external-class in that (degenerate) case.
    hash_cls = scope.ws if stats.queries else scope.ext
    nbmap_bytes = 4.0 * kmap.num_outputs * kmap.volume
    if stats.inserts:
        trace.add(
            KernelLaunch(
                name=scope.name("hash_build"),
                kind=LaunchKind.MAPPING,
                scalar_ops=OPS_PER_PROBE * stats.insert_probes,
                dram_read_bytes=8.0 * stats.inserts,
                dram_write_bytes=BYTES_PER_PROBE * stats.insert_probes,
                workspace_bytes=hash_bytes,
                ctas=max(1, stats.inserts // 256),
                reads=(scope.ext("coords", 8.0 * stats.inserts),),
                writes=(hash_cls("hash", hash_bytes),),
            )
        )
    if stats.queries:
        trace.add(
            KernelLaunch(
                name=scope.name("hash_query"),
                kind=LaunchKind.MAPPING,
                scalar_ops=OPS_PER_PROBE * stats.query_probes,
                dram_read_bytes=BYTES_PER_PROBE * stats.query_probes,
                dram_write_bytes=4.0 * kmap.num_outputs * kmap.volume,
                workspace_bytes=hash_bytes
                + 4.0 * kmap.num_outputs * kmap.volume,
                ctas=max(1, stats.queries // 256),
                reads=(
                    hash_cls("hash", hash_bytes),
                    scope.ext("coords", 8.0 * stats.queries),
                ),
                writes=(scope.ext("nbmap", nbmap_bytes),),
            )
        )
        # The query pipeline is several kernels (candidate generation,
        # probe, compaction) with host synchronization between them.
        candidates = 8.0 * stats.queries
        stages = (
            (
                "candidates",
                (scope.ext("coords", candidates), hash_cls("hash", hash_bytes)),
                (scope.ws("candidates", candidates),),
            ),
            (
                "compact",
                # Compaction rewrites the probe results in place.
                (scope.ws("candidates", candidates), scope.ext("nbmap", candidates)),
                (scope.ext("nbmap", candidates),),
            ),
        )
        for stage, reads, writes in stages:
            trace.add(
                KernelLaunch(
                    name=scope.name(stage),
                    kind=LaunchKind.MAPPING,
                    scalar_ops=4.0 * stats.queries,
                    dram_read_bytes=8.0 * stats.queries,
                    dram_write_bytes=8.0 * stats.queries,
                    workspace_bytes=hash_bytes + 16.0 * stats.queries,
                    ctas=max(1, stats.queries // 256),
                    reads=reads,
                    writes=writes,
                )
            )
    if kmap.key.stride and any(s != 1 for s in kmap.key.stride):
        # Strided convolutions deduplicate the coarsened coordinates with a
        # radix sort + unique over 64-bit keys.
        n = max(kmap.num_inputs, 2)
        trace.add(
            KernelLaunch(
                name=scope.name("downsample_sort"),
                kind=LaunchKind.MAPPING,
                scalar_ops=8.0 * n * COORD_SORT_PASSES,
                dram_read_bytes=16.0 * n * COORD_SORT_PASSES,
                dram_write_bytes=2.0 * SECTOR_FACTOR * 8.0 * n,
                # 64-bit keys in a radix ping-pong pair.
                workspace_bytes=32.0 * n,
                ctas=max(1, n // 256),
                reads=(scope.ext("coords", 16.0 * n),),
                writes=(scope.ws("coord_keys", 32.0 * n),),
            )
        )
        trace.add(
            KernelLaunch(
                name=scope.name("downsample_unique"),
                kind=LaunchKind.MAPPING,
                scalar_ops=8.0 * n,
                dram_read_bytes=16.0 * n,
                dram_write_bytes=16.0 * kmap.num_outputs,
                # The sorted key ping-pong pair is still live while unique
                # consumes it (a fix forced by the lifetime checker).
                workspace_bytes=32.0 * n,
                ctas=max(1, n // 256),
                reads=(scope.ws("coord_keys", 32.0 * n),),
                writes=(scope.ext("coords_out", 16.0 * kmap.num_outputs),),
            )
        )
    return trace


def map_reorder_trace(kmap: KernelMap, name: str = "map") -> KernelTrace:
    """Launches for re-materializing a map in a new order/structure.

    Used when the backward pass needs the maps prepared under a different
    dataflow configuration than an existing preparation (the training
    tuner's binding penalty, Section 4.2), and for weight-stationary /
    output-stationary conversions.  ``name`` scopes the trace as in
    :func:`map_build_trace`.
    """
    scope = TraceScope(name, sep="/")
    n, volume = kmap.num_outputs, kmap.volume
    trace = KernelTrace()
    trace.add(
        KernelLaunch(
            name=scope.name("restructure"),
            kind=LaunchKind.MAPPING,
            scalar_ops=6.0 * n * volume,
            dram_read_bytes=4.0 * n * volume,
            dram_write_bytes=SECTOR_FACTOR * 4.0 * kmap.total_pairs
            + 4.0 * n * volume,
            # Source map plus the re-materialised copy being written.
            workspace_bytes=8.0 * n * volume,
            ctas=max(1, n // 256),
            reads=(scope.ext("nbmap", 4.0 * n * volume),),
            # The restructured copy outlives the trace (layers reuse it),
            # so it is external-class, not workspace.
            writes=(scope.ext("nbmap_restructured", 4.0 * n * volume),),
        )
    )
    trace.add(
        KernelLaunch(
            name=scope.name("restructure_index"),
            kind=LaunchKind.MAPPING,
            scalar_ops=8.0 * n,
            dram_read_bytes=8.0 * n,
            dram_write_bytes=8.0 * n,
            ctas=max(1, n // 256),
            reads=(scope.ext("nbmap_restructured", 8.0 * n),),
            writes=(scope.ext("map_index", 8.0 * n),),
        )
    )
    return trace
