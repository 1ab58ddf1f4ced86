"""Wall-clock span tracer that wraps the program's public entry points
from outside the program.

Each target is a ``(layer, module, attribute)`` triple.  A function
target is rebound on its defining module and on every ``repro.*`` module
in ``sys.modules`` that holds the same object, so ``from X import f``
aliases (``repro.nn.conv.build_kernel_map``) are caught too; a
``Class.method`` target is rebound as a class attribute.  A target that
cannot be resolved is reported as absent instead of raising, so the
benchmark keeps running when a later change removes an entry point.

Spans (name, start, end, parent) are kept in memory;
:meth:`Tracer.summary` folds them into per-layer self time, total time
and call counts, and :meth:`Tracer.chrome_trace` exports them as Chrome
trace-event JSON.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from typing import Dict, Iterator, List, Sequence, Tuple

Target = Tuple[str, str, str]

_MISSING = object()


class Tracer:
    """Records nested wall-clock spans around wrapped entry points."""

    def __init__(self) -> None:
        #: ``[name, start_s, end_s, parent_index]`` per span; -1 = no parent.
        self.spans: List[list] = []
        self._stack: List[int] = []
        #: Undo log: ``(owner, attribute, original or _MISSING)``.
        self._patched: List[tuple] = []
        #: Wrappers whose original function was rebound in module namespaces.
        self._wrapped_functions: List[tuple] = []

    # ------------------------------------------------------------------ #
    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[int]:
        """Record a span around the ``with`` body; yields its index."""
        index = self._open(name)
        try:
            yield index
        finally:
            self._close(index)

    def _wrap(self, name: str, fn):
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = open_(name)
            try:
                return fn(*args, **kwargs)
            finally:
                close(index)

        return traced

    # ------------------------------------------------------------------ #
    def install(self, targets: Sequence[Target]) -> List[str]:
        """Wrap every target; returns ``module:attribute`` of absent ones."""
        absent = []
        for layer, module_name, attribute in targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                absent.append(f"{module_name}:{attribute}")
                continue
            owner_name, _, method = attribute.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                fn = vars(owner).get(method) if isinstance(owner, type) else None
                if not callable(fn):
                    absent.append(f"{module_name}:{attribute}")
                    continue
                self._patched.append((owner, method, fn))
                setattr(owner, method, self._wrap(layer, fn))
                continue
            fn = getattr(module, attribute, None)
            if not callable(fn):
                absent.append(f"{module_name}:{attribute}")
                continue
            wrapper = self._wrap(layer, fn)
            self._wrapped_functions.append((fn, wrapper))
            for loaded in list(sys.modules.values()):
                self._rebind(loaded, fn, wrapper)
        return absent

    def _rebind(self, module, fn, wrapper) -> None:
        if not getattr(module, "__name__", "").startswith("repro"):
            return
        for attr, value in list(vars(module).items()):
            if value is fn:
                self._patched.append((module, attr, fn))
                setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every rebinding, including aliases created after
        :meth:`install` by modules that imported a wrapper by name."""
        for fn, wrapper in self._wrapped_functions:
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").startswith("repro"):
                    for attr, value in list(vars(module).items()):
                        if value is wrapper:
                            setattr(module, attr, fn)
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        self._wrapped_functions.clear()

    # ------------------------------------------------------------------ #
    def children(self) -> Dict[int, List[int]]:
        out: Dict[int, List[int]] = {}
        for index, span in enumerate(self.spans):
            out.setdefault(span[3], []).append(index)
        return out

    def summary(self, root: int) -> Dict[str, Dict[str, float]]:
        """Per-layer ``self_s``, ``total_s`` and ``calls`` under ``root``.

        A span's self time is its duration minus its direct children's
        durations, so the self times of all spans under ``root`` plus the
        root's own self time add up to the root's duration.  ``total_s``
        counts only outermost spans of a layer, so recursion is not
        double counted.
        """
        kids = self.children()
        out: Dict[str, Dict[str, float]] = {}

        def visit(index: int, active: frozenset) -> None:
            name, start, end, _ = self.spans[index]
            duration = end - start
            child_time = sum(
                self.spans[c][2] - self.spans[c][1] for c in kids.get(index, ())
            )
            row = out.setdefault(
                name, {"self_s": 0.0, "total_s": 0.0, "calls": 0}
            )
            row["self_s"] += duration - child_time
            row["calls"] += 1
            if name not in active:
                row["total_s"] += duration
            for child in kids.get(index, ()):
                visit(child, active | {name})

        for child in kids.get(root, ()):
            visit(child, frozenset())
        return out

    def chrome_trace(self, pid: int = 0) -> dict:
        """Spans as Chrome trace-event JSON (complete ``X`` events, µs)."""
        origin = min((s[1] for s in self.spans), default=0.0)
        return {
            "displayTimeUnit": "ms",
            "traceEvents": [
                {
                    "name": name,
                    "ph": "X",
                    "pid": pid,
                    "tid": 0,
                    "ts": (start - origin) * 1e6,
                    "dur": (end - start) * 1e6,
                }
                for name, start, end, _ in self.spans
            ],
        }
