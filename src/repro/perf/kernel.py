"""Columnar shadow-directory kernel for the adaptive hotpath.

The scalar hotpath (:meth:`repro.cache.cache.SetAssociativeCache.access_many`)
pays Algorithm 1's full price on every reference: two shadow tag-array
lookups, a miss-history update, and the victim imitation dance, all through
per-access method dispatch. This module replays the same batch *columnar*:

* the address batch is decomposed and grouped by set with numpy
  (``argsort``/``bincount``/``cumsum`` — a struct-of-arrays view of the
  access stream: one column of tags, one of arrival ranks, one of write
  flags);
* each touched set is then simulated to completion in one fused Python
  loop whose state — the real set's tag dict, both shadow directories,
  and the selector's bit-vector window — has been hoisted into local
  scalars, dicts and flat lists (the shadow directories' struct-of-arrays
  form: a key list per way for LFU ranks, a recency-ordered dict for LRU,
  stamp rows for MRU);
* the loop body is *generated* per (policyA, policyB) duel pair, so each
  registered pair gets a specialized fast path with no per-access
  polymorphism, and compiled once per process.

Decision identity
-----------------

The kernel is byte-identical to the scalar path in every observable
output: ``CacheStats``, per-set miss counters, the full policy
``state_dict()`` (component metadata, shadow contents, selector windows,
switch counts, decision counters, fallback evictions) and the resulting
``CacheSet`` tags/dirty bits. The golden digests and the differential
oracle campaign run with the kernel on and must not move. Three pieces
of *non-observable* internal state are allowed to differ, exactly as
they are after a ``load_state_dict`` round-trip (all are excluded from
``state_dict()``):

* ``AdaptivePolicy._last_outcomes`` is left reset (it only carries
  information between ``observe`` and ``victim`` within one access);
* the LRU shadow ``TagArray``'s per-set dict iteration order is recency
  order rather than fill order (the dict is an index, not state;
  ``state_dict`` serializes the way-indexed tag list);
* the derived victim indexes of the policy and both components are
  dropped (``invalidate_derived()``) and rebuilt at each set's next
  scalar ``victim()``.

Saturation skipping
-------------------

When a set's selector window is pegged — full and unanimous
(:meth:`repro.core.selector.PolicySelector.pegged`) — a decisive event
that blames the *same* loser is a provable no-op on the window, the
counts, and the imitated component: the history update is elided
entirely. The guard automatically fails on a phase change (the first
decisive event blaming the other component), so the window resumes
recording with no re-arm protocol. Unlike SBAR's leader-set sampling,
nothing else may be skipped without breaking byte-identity: the shadow
directories themselves are observable state.

When the scalar path is used
----------------------------

:func:`kernel_plan` returns None — and every entry point falls back to
the scalar loop — for anything outside the specialized envelope:
non-adaptive policies, more or fewer than two components, unregistered
component kinds, non-identity tag transforms, a random fallback, counter
histories, an attached fault injector or vote sink, and (in ``auto``
mode) batches too small to amortize the columnar setup.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.adaptive import AdaptivePolicy
from repro.core.history import BitVectorHistory
from repro.core.selector import PolicySelector
from repro.perf.kernel_codegen import build_duel_source
from repro.policies.fifo import FIFOPolicy
from repro.policies.lfu import LFUPolicy
from repro.policies.lru import LRUPolicy
from repro.policies.mru import MRUPolicy

KERNEL_MODES = ("scalar", "columnar", "auto")

#: In ``auto`` mode, batches below this size stay on the scalar path —
#: the numpy decompose/sort setup costs more than it saves.
AUTO_MIN_BATCH = 512

_DEFAULT_KERNEL = "auto"
_SATURATION_SKIP = True


def set_default_kernel(mode: str) -> None:
    """Select the process-wide batch kernel: scalar, columnar or auto.

    ``auto`` (the default) engages the columnar kernel for supported
    caches on batches of at least :data:`AUTO_MIN_BATCH` accesses;
    ``columnar`` engages it for supported caches regardless of batch
    size; ``scalar`` disables it. The CLI ``--kernel`` flag and the
    parallel sweep workers route through this switch.
    """
    if mode not in KERNEL_MODES:
        known = ", ".join(KERNEL_MODES)
        raise ValueError(f"unknown kernel mode {mode!r}; known: {known}")
    global _DEFAULT_KERNEL
    _DEFAULT_KERNEL = mode


def get_default_kernel() -> str:
    """The current process-wide kernel mode."""
    return _DEFAULT_KERNEL


def set_saturation_skip(enabled: bool) -> None:
    """Enable/disable eliding history updates for pegged selectors.

    On by default; it is a provable no-op elision (see the module
    docstring), so the only reason to turn it off is to exercise both
    paths in differential tests.
    """
    global _SATURATION_SKIP
    _SATURATION_SKIP = bool(enabled)


def get_saturation_skip() -> bool:
    """Whether pegged-selector history updates are currently elided."""
    return _SATURATION_SKIP


_COMPONENT_KINDS = {
    LRUPolicy: "lru",
    FIFOPolicy: "fifo",
    LFUPolicy: "lfu",
    MRUPolicy: "mru",
}


def kernel_plan(cache) -> Optional[Tuple[str, str]]:
    """The (kindA, kindB) duel pair the kernel would specialize for
    ``cache``, or None when the cache is outside the supported envelope
    and the scalar path must be used.

    The envelope (checked exactly, on concrete types, so subclasses with
    overridden behavior never silently take the fast path): an
    :class:`~repro.core.adaptive.AdaptivePolicy` over exactly two
    components drawn from {lru, fifo, lfu, mru}, identity tag transform,
    ``lru`` fallback, per-set :class:`PolicySelector` instances over
    :class:`BitVectorHistory` windows, and no fault injector or vote
    sink attached.
    """
    policy = cache.policy
    if type(policy) is not AdaptivePolicy:
        return None
    if policy.fault_injector is not None or policy.vote_sink is not None:
        return None
    if not policy._identity or policy.fallback != "lru":
        return None
    components = policy.components
    if len(components) != 2:
        return None
    kind_a = _COMPONENT_KINDS.get(type(components[0]))
    kind_b = _COMPONENT_KINDS.get(type(components[1]))
    if kind_a is None or kind_b is None:
        return None
    for selector in policy.selectors:
        if type(selector) is not PolicySelector:
            return None
        if type(selector.history) is not BitVectorHistory:
            return None
    return (kind_a, kind_b)


def kernel_name(cache, batch_size: Optional[int] = None) -> str:
    """Which kernel a batch against ``cache`` would run on, as a label
    for benchmark output: ``"columnar"`` or ``"scalar"``."""
    mode = _DEFAULT_KERNEL
    if mode == "scalar":
        return "scalar"
    if mode == "auto" and batch_size is not None and batch_size < AUTO_MIN_BATCH:
        return "scalar"
    return "columnar" if kernel_plan(cache) is not None else "scalar"


_DUEL_FNS: dict = {}


def _duel_fn(plan: Tuple[str, str]):
    fn = _DUEL_FNS.get(plan)
    if fn is None:
        source = build_duel_source(*plan)
        namespace = {"deque": deque, "np": np}
        exec(compile(source, f"<columnar {plan[0]}+{plan[1]}>", "exec"), namespace)
        fn = namespace["_kernel"]
        _DUEL_FNS[plan] = fn
    return fn


def _run_decomposed(fn, cache, sets_arr, tags_arr, writes, rec, skip) -> int:
    n = int(sets_arr.shape[0])
    order = np.argsort(sets_arr, kind="stable")
    counts = np.bincount(sets_arr, minlength=cache.config.num_sets)
    starts = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    touched = np.flatnonzero(counts).tolist()
    writes_sorted = None
    if writes is not None:
        writes_sorted = np.asarray(writes, dtype=bool)[order].tolist()
    return fn(
        cache,
        n,
        touched,
        starts.tolist(),
        tags_arr[order].tolist(),
        order.tolist(),
        writes_sorted,
        rec,
        skip,
    )


def _run_addresses(fn, cache, addresses, writes, rec, skip) -> int:
    offset_bits, index_mask, tag_shift = cache.config.decomposition()
    arr = np.asarray(addresses, dtype=np.int64)
    return _run_decomposed(
        fn, cache, (arr >> offset_bits) & index_mask, arr >> tag_shift, writes, rec, skip
    )


def maybe_columnar(cache, addresses, writes=None) -> Optional[int]:
    """The dispatch hook behind ``SetAssociativeCache.access_many``.

    Returns the hit count when the columnar kernel ran the batch, or
    None when the scalar loop should (kernel mode, batch size, or an
    unsupported cache — see :func:`kernel_plan`).
    """
    mode = _DEFAULT_KERNEL
    if mode == "scalar":
        return None
    n = len(addresses)
    if n == 0 or (mode == "auto" and n < AUTO_MIN_BATCH):
        return None
    if writes is not None and len(writes) != n:
        return None
    plan = kernel_plan(cache)
    if plan is None:
        return None
    return _run_addresses(_duel_fn(plan), cache, addresses, writes, None, _SATURATION_SKIP)


def columnar_access_many(
    cache,
    addresses: Sequence[int],
    writes: Optional[Sequence[bool]] = None,
    record: Optional[List[bool]] = None,
    saturation_skip: Optional[bool] = None,
) -> int:
    """Run one batch through the columnar kernel unconditionally.

    Unlike :func:`maybe_columnar` this ignores the kernel mode and batch
    threshold, and raises ValueError for unsupported caches — the entry
    point for differential tests and the oracle's columnar lane.

    Args:
        record: optional ``[False] * len(addresses)`` list; the kernel
            sets ``record[i]`` True for every hit, in original access
            order.
        saturation_skip: override the process-wide saturation-skip flag
            for this batch.
    """
    plan = kernel_plan(cache)
    if plan is None:
        raise ValueError(
            "columnar kernel does not support this cache; see kernel_plan() "
            "for the supported envelope"
        )
    if writes is not None and len(writes) != len(addresses):
        raise ValueError("writes must have the same length as addresses")
    skip = _SATURATION_SKIP if saturation_skip is None else bool(saturation_skip)
    return _run_addresses(_duel_fn(plan), cache, addresses, writes, record, skip)


def columnar_hit_stream(
    cache,
    addresses: Sequence[int],
    writes: Optional[Sequence[bool]] = None,
) -> Optional[List[bool]]:
    """Advance ``cache`` through a whole batch, returning the per-access
    hit stream — or None when the scalar path should run.

    The timing model replays its compiled L2 records and only consumes
    ``result.hit`` per access, so it can precompute the whole hit stream
    here and keep its cycle-accounting loop unchanged.
    """
    mode = _DEFAULT_KERNEL
    if mode == "scalar":
        return None
    n = len(addresses)
    if n == 0 or (mode == "auto" and n < AUTO_MIN_BATCH):
        return None
    plan = kernel_plan(cache)
    if plan is None:
        return None
    rec = [False] * n
    _run_addresses(_duel_fn(plan), cache, addresses, writes, rec, _SATURATION_SKIP)
    return rec
