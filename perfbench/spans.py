"""In-memory span recorder for the traced benchmark run.

The benchmark traces the program from outside: :meth:`Recorder.wrap`
replaces a public method on an object the benchmark built (or a public
function on a module) with a wrapper that records one span per call.
A span is ``(layer, start_ns, end_ns, parent, op, depth, phase)``:
``parent`` is the index of the enclosing span (-1 at the top),
``op`` the workload operation the span belongs to, ``depth`` its
nesting level and ``phase`` the benchmark phase (set-up, measure,
recover). Spans live in flat ``array('q')`` columns and are written out
once, when the run ends.

Self time is derived from the spans afterwards. On one thread the
running code at any instant belongs to the deepest span open at that
instant, so each layer's self time is the measure of the instants at
which one of its spans is the deepest open one. In synchronous code
this is the usual "span time minus the time its children cover"; on an
event loop it also keeps one request's front span from being charged
with another request's work that ran while it was suspended.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import time
from array import array
from typing import Dict, Optional

import numpy as np

PHASES = ("setup", "measure", "recover")

#: Depth given to the benchmark's own client bookkeeping: deeper than
#: any layer, so time the client spends between requests is never
#: charged to a request span that happens to be suspended around it.
CLIENT_DEPTH = 1 << 20

_CURRENT = contextvars.ContextVar("perfbench_span", default=(-1, -1))
_OP = contextvars.ContextVar("perfbench_op", default=-1)


def current_op() -> int:
    """The operation id the running task's spans are tagged with."""
    return _OP.get()


class Recorder:
    """Records spans around wrapped calls; derives per-layer totals."""

    def __init__(self):
        self.layers: list = []
        self._layer_ids: Dict[str, int] = {}
        self.phase = 0
        self.layer = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.depth = array("q")
        self.span_phase = array("q")
        self._restore = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def layer_id(self, name: str) -> int:
        """Stable small integer for a layer name."""
        index = self._layer_ids.get(name)
        if index is None:
            index = self._layer_ids[name] = len(self.layers)
            self.layers.append(name)
        return index

    def set_phase(self, name: str) -> None:
        """Tag later spans with benchmark phase ``name``."""
        self.phase = PHASES.index(name)

    @staticmethod
    def set_op(op: int) -> None:
        """Mark the current task's spans as belonging to operation ``op``."""
        _OP.set(op)

    def _open(self, layer: int, depth: Optional[int] = None) -> tuple:
        parent, parent_depth = _CURRENT.get()
        index = len(self.start)
        if depth is None:
            depth = parent_depth + 1
        self.layer.append(layer)
        self.parent.append(parent)
        self.op.append(_OP.get())
        self.depth.append(depth)
        self.span_phase.append(self.phase)
        self.end.append(0)
        self.start.append(time.perf_counter_ns())
        return index, _CURRENT.set((index, depth))

    def _close(self, index: int, token) -> None:
        self.end[index] = time.perf_counter_ns()
        _CURRENT.reset(token)

    def traced(self, fn, layer: str, depth: Optional[int] = None):
        """``fn`` wrapped so every call records one ``layer`` span."""
        layer_index = self.layer_id(layer)
        open_span = self._open
        close_span = self._close
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                index, token = open_span(layer_index, depth)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    close_span(index, token)
            return traced_async

        @functools.wraps(fn)
        def traced_call(*args, **kwargs):
            index, token = open_span(layer_index, depth)
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(index, token)
        return traced_call

    def wrap(self, owner, attribute: str, layer: str) -> None:
        """Replace ``owner.attribute`` with its traced version.

        ``owner`` is an instance (the wrapper shadows the class method
        on that instance only) or a module (the module-level binding
        is replaced until :meth:`unwrap_all`).
        """
        original = getattr(owner, attribute)
        if inspect.ismodule(owner):
            self.patch(owner, attribute, self.traced(original, layer))
        else:
            setattr(owner, attribute, self.traced(original, layer))

    def patch(self, module, attribute: str, replacement) -> None:
        """Rebind ``module.attribute`` until :meth:`unwrap_all`."""
        self._restore.append((module, attribute, getattr(module, attribute)))
        setattr(module, attribute, replacement)

    def unwrap_all(self) -> None:
        """Put back every module-level binding :meth:`wrap` replaced."""
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    def client(self):
        """A span for the benchmark's own per-request bookkeeping."""
        return _ClientSpan(self)

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------

    def columns(self) -> Dict[str, np.ndarray]:
        """Every span as numpy columns (one row per span)."""
        # Copies, so the arrays stay free to grow afterwards.
        return {
            name: np.frombuffer(column, dtype=np.int64).copy()
            for name, column in (
                ("layer", self.layer), ("start", self.start),
                ("end", self.end), ("parent", self.parent),
                ("op", self.op), ("depth", self.depth),
                ("phase", self.span_phase),
            )
        }

    def totals(self, phase: str) -> Dict[str, dict]:
        """Per-layer ``{"calls", "total_ns", "self_ns"}`` for one phase."""
        cols = self.columns()
        mask = cols["phase"] == PHASES.index(phase)
        layer = cols["layer"][mask]
        start = cols["start"][mask]
        end = cols["end"][mask]
        depth = cols["depth"][mask]
        out = {}
        for index, name in enumerate(self.layers):
            chosen = layer == index
            out[name] = {
                "calls": int(chosen.sum()),
                "total_ns": int((end[chosen] - start[chosen]).sum()),
                "self_ns": 0,
            }
        if start.size == 0:
            return out
        # Elementary segments between consecutive span boundaries.
        bounds = np.unique(np.concatenate([start, end]))
        seg_start = bounds[:-1]
        seg_len = np.diff(bounds)
        owner = np.full(seg_start.size, -1, dtype=np.int64)
        owner_depth = np.full(seg_start.size, -1, dtype=np.int64)
        for index in range(len(self.layers)):
            chosen = layer == index
            if not chosen.any():
                continue
            starts = np.sort(start[chosen])
            ends = np.sort(end[chosen])
            # Spans of this layer open during [seg_start, next bound).
            open_count = (np.searchsorted(starts, seg_start, side="right")
                          - np.searchsorted(ends, seg_start, side="right"))
            layer_depth = int(depth[chosen].max())
            claim = (open_count > 0) & (layer_depth > owner_depth)
            owner[claim] = index
            owner_depth[claim] = layer_depth
        for index, name in enumerate(self.layers):
            out[name]["self_ns"] = int(seg_len[owner == index].sum())
        return out

    def save(self, path: str) -> None:
        """Write every span (plus the layer names) to ``path`` (.npz)."""
        np.savez_compressed(
            path, layers=np.array(self.layers, dtype=str), **self.columns()
        )


class _ClientSpan:
    """Context manager recording one client-bookkeeping span."""

    __slots__ = ("recorder", "index", "token")

    def __init__(self, recorder: Recorder):
        self.recorder = recorder

    def __enter__(self):
        recorder = self.recorder
        self.index, self.token = recorder._open(
            recorder.layer_id("bench.client"), CLIENT_DEPTH
        )
        return self

    def __exit__(self, *exc):
        self.recorder._close(self.index, self.token)
        return False
