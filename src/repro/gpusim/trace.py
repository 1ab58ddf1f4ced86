"""Kernel execution traces: what a dataflow did, independent of any device."""

from __future__ import annotations

import dataclasses
import enum
from typing import Iterable, Iterator, List, Optional, Tuple


class LaunchKind(enum.Enum):
    """What hardware pipe a launch predominantly exercises."""

    GEMM = "gemm"  # matrix multiply: tensor-core eligible
    MAPPING = "mapping"  # hash build/query, bitmask, sort, reorder: CUDA cores
    MEMORY = "memory"  # gather/scatter/transpose: bandwidth bound
    REDUCTION = "reduction"  # partial-sum reduction for mask splits


@dataclasses.dataclass(frozen=True)
class BufferAccess:
    """One named-buffer access by a kernel launch.

    Buffer ids carry a storage-class tag before the first colon:

    * ``ext:<name>`` — external/resident buffers that exist (and are
      initialized, e.g. allocator-zeroed accumulators) before the trace
      starts: features, weights, kernel-map pair lists, gradients.
    * ``ws:<name>`` — transient workspace that is *defined by the trace
      itself*: staging buffers, sort keys, split partials.  A ``ws:``
      buffer read before any in-trace write is an uninitialized read;
      one written but never read is a leak; and every launch touching
      ``ws:`` buffers must account for their full extents in its
      :attr:`KernelLaunch.workspace_bytes`.

    Inside a model the name after the tag is namespaced by the layer and
    pass that owns the buffer (``ws:<layer>/<pass>:<name>``); trace
    generators build that final id directly (:class:`TraceScope`).

    ``nbytes`` is the byte extent of the access; ``atomic`` marks
    read-modify-write traffic whose ordering the hardware resolves
    (atomic writers to one buffer don't race each other).
    """

    buffer: str
    nbytes: float
    atomic: bool = False

    @property
    def workspace(self) -> bool:
        """Whether this access targets a trace-defined ``ws:`` buffer."""
        return self.buffer.startswith("ws:")


class TraceScope:
    """The namespace a trace generator builds its final names in.

    Every launch name and buffer id is built once, already final: under
    ``TraceScope("conv1/fwd")`` launch ``gather/offset0`` is named
    ``conv1/fwd:gather/offset0`` and buffer ``ws:gs_in.k0`` is
    ``ws:conv1/fwd:gs_in.k0`` (``sep`` joins the prefix to launch
    names).  ``feats_in`` is the full id that ``ext("feats_in")``
    resolves to instead of the scoped one: a forward convolution reads
    the previous layer's ``feats_out``, chaining consecutive layers by
    real RAW edges.  The empty prefix (:data:`UNSCOPED`) keeps names and
    ids local.
    """

    __slots__ = ("prefix", "feats_in", "_launch", "_ext", "_ws")

    def __init__(
        self, prefix: str = "", feats_in: Optional[str] = None, sep: str = ":"
    ) -> None:
        self.prefix = prefix
        self._launch = f"{prefix}{sep}" if prefix else ""
        self._ext = f"ext:{prefix}:" if prefix else "ext:"
        self._ws = f"ws:{prefix}:" if prefix else "ws:"
        self.feats_in = feats_in or f"{self._ext}feats_in"

    def name(self, local: str) -> str:
        """The final name of launch ``local``."""
        return self._launch + local

    def ext(self, name: str, nbytes: float, atomic: bool = False) -> BufferAccess:
        """Access to an external (pre-existing, pre-initialized) buffer."""
        buffer = self.feats_in if name == "feats_in" else self._ext + name
        return BufferAccess(buffer, float(nbytes), atomic)

    def ws(self, name: str, nbytes: float, atomic: bool = False) -> BufferAccess:
        """Access to a transient workspace buffer defined by the trace."""
        return BufferAccess(self._ws + name, float(nbytes), atomic)


#: Local names and ids (``ext:<name>``, ``ws:<name>``), for traces that
#: are not part of a model.
UNSCOPED = TraceScope()


@dataclasses.dataclass
class KernelLaunch:
    """One GPU kernel launch with its resource demands.

    Attributes:
        name: Diagnostic label (e.g. ``"implicit_gemm/main"``).
        kind: Which pipe the launch exercises (:class:`LaunchKind`).
        flops: Floating-point operations *issued*, including redundant
            warp-lockstep work (2 x MACs).
        dram_read_bytes / dram_write_bytes: Off-chip traffic.
        atomic_write_bytes: Bytes written with atomic read-modify-write
            operations, charged *in addition to* ``dram_write_bytes`` and
            subject to serialization on conflicts.  A launch whose writes
            all conflict (fetch-on-demand) may have ``dram_write_bytes=0``
            with all traffic here.
        scalar_ops: Integer/address/control operations executed on CUDA
            cores alongside the main pipe — un-hoisted pointer arithmetic
            and boundary checks land here (Section 3.2).
        workspace_bytes: Transient DRAM *live* while this launch executes —
            gather/scatter staging buffers, kmap structures, sort key
            arrays, split partial sums.  Excludes resident features and
            weights (those are the caller's to account).  Because launches
            serialize on one stream, the trace-wide peak is the *max* over
            launches, not the sum: a buffer freed before the next launch
            never stacks.
        ctas: Thread blocks launched (drives occupancy).
        overlapped: Whether compute and memory are pipelined (Figure 3).
        tensor_core_eligible: GEMM launches may still be barred from tensor
            cores (e.g. MinkowskiEngine FP32 paths).
        compute_efficiency: Fraction of peak MMA throughput the inner loop
            can sustain (tile quantization, pipeline fill), in ``(0, 1]``.
        reads / writes: Named-buffer access sets (:class:`BufferAccess`)
            used by the dependence analyzer to build RAW/WAR/WAW edges.
            Empty sets mean "unannotated" and opt the launch out of
            dependence checking (the byte counters above stay the source
            of truth for the latency model).
        fuse_group: Optimizer metadata: launches that share a non-empty
            ``fuse_group`` form one fusable producer/consumer chain (e.g.
            the gather -> gemm -> scatter triple for one offset).  The
            fusion pass may replace a *contiguous* run of same-group
            launches with a single fused launch; ``""`` opts out.
        hoistable_scalar_ops: Optimizer metadata: the portion of
            ``scalar_ops`` that is loop-invariant address arithmetic a
            hoisting pass may remove (Section 3.2 / Figure 20).  Must not
            exceed ``scalar_ops``.
        untracked_workspace_bytes: Optimizer metadata: transient bytes
            inside ``workspace_bytes`` that are *not* named in
            ``reads``/``writes`` (pair lists, per-CTA scratch).  The
            workspace-reuse planner keeps at least this much headroom when
            tightening a launch's declared workspace.
    """

    name: str
    kind: LaunchKind
    flops: float = 0.0
    dram_read_bytes: float = 0.0
    dram_write_bytes: float = 0.0
    atomic_write_bytes: float = 0.0
    scalar_ops: float = 0.0
    workspace_bytes: float = 0.0
    ctas: int = 1
    overlapped: bool = False
    tensor_core_eligible: bool = True
    compute_efficiency: float = 1.0
    reads: Tuple[BufferAccess, ...] = ()
    writes: Tuple[BufferAccess, ...] = ()
    fuse_group: str = ""
    hoistable_scalar_ops: float = 0.0
    untracked_workspace_bytes: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.compute_efficiency <= 1.0:
            raise ValueError(
                f"compute_efficiency must be in (0, 1], got {self.compute_efficiency}"
            )
        if self.ctas < 1:
            raise ValueError(f"ctas must be >= 1, got {self.ctas}")
        for field in ("flops", "dram_read_bytes", "dram_write_bytes",
                      "atomic_write_bytes", "scalar_ops", "workspace_bytes",
                      "hoistable_scalar_ops", "untracked_workspace_bytes"):
            if getattr(self, field) < 0:
                raise ValueError(f"{field} must be non-negative")
        if self.hoistable_scalar_ops > self.scalar_ops:
            raise ValueError(
                f"hoistable_scalar_ops ({self.hoistable_scalar_ops}) must not "
                f"exceed scalar_ops ({self.scalar_ops})"
            )
        if self.untracked_workspace_bytes > self.workspace_bytes:
            raise ValueError(
                f"untracked_workspace_bytes ({self.untracked_workspace_bytes}) "
                f"must not exceed workspace_bytes ({self.workspace_bytes})"
            )
        if not isinstance(self.reads, tuple):
            self.reads = tuple(self.reads)
        if not isinstance(self.writes, tuple):
            self.writes = tuple(self.writes)

    @property
    def is_barrier(self) -> bool:
        """Unannotated launches carry no hazard info: schedulers and
        analyzers order them against everything."""
        return not self.reads and not self.writes


@dataclasses.dataclass
class TraceSummary:
    """Aggregate resource counts over a trace (device independent)."""

    launches: int = 0
    flops: float = 0.0
    dram_read_bytes: float = 0.0
    dram_write_bytes: float = 0.0
    atomic_write_bytes: float = 0.0
    scalar_ops: float = 0.0
    #: Liveness-aware peak transient workspace: the max over launches of
    #: :attr:`KernelLaunch.workspace_bytes` (launches serialize, so buffers
    #: freed between layers don't stack).
    peak_workspace_bytes: float = 0.0

    @property
    def dram_bytes(self) -> float:
        return self.dram_read_bytes + self.dram_write_bytes


class KernelTrace:
    """An ordered sequence of kernel launches for one operation or network."""

    def __init__(self, launches: Optional[Iterable[KernelLaunch]] = None) -> None:
        self._launches: List[KernelLaunch] = list(launches or [])

    def add(self, launch: KernelLaunch) -> KernelLaunch:
        self._launches.append(launch)
        return launch

    def extend(self, other: "KernelTrace") -> "KernelTrace":
        self._launches.extend(other._launches)
        return self

    def __iter__(self) -> Iterator[KernelLaunch]:
        return iter(self._launches)

    def __len__(self) -> int:
        return len(self._launches)

    @property
    def launches(self) -> List[KernelLaunch]:
        return list(self._launches)

    def filter(self, kind: LaunchKind) -> "KernelTrace":
        """Sub-trace of launches of one kind (e.g. kernel-only, Table 4)."""
        return KernelTrace(l for l in self._launches if l.kind is kind)

    def filter_name(self, substring: str) -> "KernelTrace":
        return KernelTrace(l for l in self._launches if substring in l.name)

    def summary(self) -> TraceSummary:
        agg = TraceSummary()
        for launch in self._launches:
            agg.launches += 1
            agg.flops += launch.flops
            agg.dram_read_bytes += launch.dram_read_bytes
            agg.dram_write_bytes += launch.dram_write_bytes
            agg.atomic_write_bytes += launch.atomic_write_bytes
            agg.scalar_ops += launch.scalar_ops
            agg.peak_workspace_bytes = max(
                agg.peak_workspace_bytes, launch.workspace_bytes
            )
        return agg

    def __repr__(self) -> str:
        s = self.summary()
        return (
            f"KernelTrace(launches={s.launches}, flops={s.flops:.3g}, "
            f"dram={s.dram_bytes:.3g}B)"
        )
