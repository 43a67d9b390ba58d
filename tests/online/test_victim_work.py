"""Victim selection does a bounded amount of work per operation.

A shard is one set whose associativity is its entry capacity, so a
victim choice that scans the set costs O(capacity) per miss. These
tests count work deterministically, without timing: the shard's slot
table, the policies' per-way tables and the shadow directories' tag
rows are swapped for lists that count every element read through them,
by index or by iteration. Bulk scans
done in C (``min`` over a row, a ``zip`` of two rows) are counted too,
since they iterate through the counting list.

The per-operation count must stay under a small constant, and must not
grow from capacity 64 to capacity 4096. The ``-bytes`` cases give the
shard a byte budget of half its capacity, so every eviction is a
byte-pressure one through a view that hides the entry just written,
with half the ways empty.
"""

from __future__ import annotations

import pytest

from repro.online.policies import build_shard_policy
from repro.online.shard import CacheShard
from repro.workloads.keystreams import zipf_keys

CAPACITIES = (64, 4096)
OPS = 3000
#: Element reads per operation allowed; the fixed cost of one get and
#: (on a miss) one put is about a dozen.
MAX_WORK_PER_OP = 40

CASES = {
    "adaptive-partial16": dict(kind="adaptive", partial_bits=16),
    "adaptive-full": dict(kind="adaptive", partial_bits=None),
    "lfu": dict(kind="lfu"),
    "lru": dict(kind="lru"),
    "adaptive-partial16-bytes": dict(kind="adaptive", partial_bits=16,
                                     bytes=True),
    "adaptive-full-bytes": dict(kind="adaptive", partial_bits=None,
                                bytes=True),
    "lfu-bytes": dict(kind="lfu", bytes=True),
    "lru-bytes": dict(kind="lru", bytes=True),
    "fifo-bytes": dict(kind="fifo", bytes=True),
}

#: Per-way tables a victim choice could scan, by attribute name.
_ROW_TABLES = ("_count", "_fill_stamp", "_stamp")


class _Meter:
    reads = 0


class _CountingList(list):
    """A list that charges every element read to a meter."""

    def __init__(self, items, meter: _Meter):
        super().__init__(items)
        self.meter = meter

    def __getitem__(self, index):
        self.meter.reads += 1
        return super().__getitem__(index)

    def __iter__(self):
        self.meter.reads += len(self)
        return super().__iter__()


def _instrument(shard: CacheShard, meter: _Meter) -> None:
    """Route the shard's slots, every per-way policy row and the shadow
    directories' tag rows through counting lists."""
    slots = _CountingList(shard._slots, meter)
    shard._slots = slots
    shard._view._slots = slots
    policies = [shard.policy] + list(getattr(shard.policy, "components", []))
    for policy in policies:
        for name in _ROW_TABLES:
            table = getattr(policy, name, None)
            if table is not None:
                table[0] = _CountingList(table[0], meter)
    for shadow in getattr(shard.policy, "shadows", []):
        shadow_set = shadow.sets[0]
        shadow_set._tags = _CountingList(shadow_set._tags, meter)


def _work_per_op(case: dict, capacity: int) -> float:
    kind = case["kind"]
    policy = build_shard_policy(
        kind, capacity, partial_bits=case.get("partial_bits", 16)
    )
    if case.get("bytes"):
        shard = CacheShard(capacity, policy, capacity_bytes=capacity // 2,
                           sizeof=lambda value: 1)
    else:
        shard = CacheShard(capacity, policy)
    meter = _Meter()
    _instrument(shard, meter)
    # Filling an empty shard must be cheap too, so the count starts
    # with it. The one-off builds of the derived indexes are amortized
    # over the run.
    for i in range(capacity):
        shard.put(("warm", i), i)
    keys = zipf_keys(4 * capacity, OPS, alpha=0.9, seed=11)
    miss = object()
    for key in keys:
        if shard.get(key, miss) is miss:
            shard.put(key, key)
    assert shard.evictions > OPS // 4
    return meter.reads / (capacity + len(keys))


@pytest.mark.parametrize("name", sorted(CASES))
def test_work_per_op_is_bounded_and_capacity_independent(name):
    case = CASES[name]
    small, large = (_work_per_op(case, c) for c in CAPACITIES)
    assert small <= MAX_WORK_PER_OP, (name, small)
    assert large <= MAX_WORK_PER_OP, (name, large)
    assert large <= 1.5 * small + 2, (name, small, large)


def test_counting_list_sees_a_scan():
    """The meter charges a full-row scan (the regression it guards)."""
    meter = _Meter()
    row = _CountingList(range(100), meter)
    min(zip(row, row))
    assert meter.reads == 200
