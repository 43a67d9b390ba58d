"""Differential tests for the derived victim indexes.

The adaptive policy answers Algorithm 1's steps 2 and 3 from an
incrementally maintained per-set index, and LFU picks full-set victims
from a lazily corrected heap. Both are derived state, so after every
step of a random interleaving:

* the adaptive index must equal one rebuilt from scratch;
* every LFU heap must still hold an up-to-date entry for each valid
  way, and the adaptive LRU fallback's heap one entry per valid way;
* every victim must equal the one a literal scan would choose, and
  (where the reference spec models the operations) the spec's choice.

The interleavings mix the operations that write state: get/put/delete,
TTL expiry, byte-budget evictions (which go through a view hiding the
entry just written), shadow-tag fault flips, state round-trips, and
columnar ``access_many`` batches between scalar accesses.
"""

from __future__ import annotations

import copy
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.cache import SetAssociativeCache
from repro.cache.config import CacheConfig
from repro.core.adaptive import AdaptivePolicy
from repro.core.multi import make_adaptive
from repro.faults import FaultInjector
from repro.faults.plan import SITE_SHADOW_TAGS, FaultPlan
from repro.online.keyspace import partial_fingerprint_transform
from repro.online.policies import build_shard_policy
from repro.online.shard import CacheShard
from repro.oracle.harness import HardwarePair, ShardPair
from repro.oracle.spec import SpecCache, make_adaptive_spec, make_spec
from repro.perf.kernel import columnar_access_many
from repro.policies.base import SetView
from repro.policies.fifo import FIFOPolicy
from repro.policies.lfu import LFUPolicy
from repro.policies.lru import LRUPolicy

#: Shard operations, weighted towards the ones that fill. ``snapshot``
#: saves the shard's state; ``restore`` loads the last one saved, so
#: the policy jumps back to an earlier state.
SHARD_OPS = ("get", "put", "put", "put_ttl", "get_or_compute",
             "get_or_compute", "delete", "tick", "snapshot", "restore")

shard_steps = st.lists(
    st.tuples(st.sampled_from(SHARD_OPS), st.integers(0, 24),
              st.integers(1, 9)),
    min_size=1, max_size=300,
)


# ----------------------------------------------------------------------
# Reference answers and invariants
# ----------------------------------------------------------------------

def scan_adaptive_victim(policy: AdaptivePolicy, set_index: int, view) -> int:
    """Algorithm 1 by scanning the set's ways in order (LRU fallback)."""
    chosen = policy.selectors[set_index].best_component()
    outcome = policy._last_outcomes[chosen]
    ways = list(view.valid_ways())
    prints = {way: policy.tag_transform(view.tag_at(way)) for way in ways}
    if outcome.missed and outcome.victim_tag is not None:
        for way in ways:
            if prints[way] == outcome.victim_tag:
                return way
    resident = policy.shadows[chosen].sets[set_index]._tag_to_way
    for way in ways:
        if prints[way] not in resident:
            return way
    return min(ways, key=policy._stamp[set_index].__getitem__)


def scan_lfu_victim(policy: LFUPolicy, set_index: int, view) -> int:
    counts = policy._count[set_index]
    stamps = policy._fill_stamp[set_index]
    return min(view.valid_ways(), key=lambda w: (counts[w], stamps[w]))


def scan_lru_victim(policy: LRUPolicy, set_index: int, view) -> int:
    return policy.recency_order(set_index, view)[0]


def scan_fifo_victim(policy: FIFOPolicy, set_index: int, view) -> int:
    """The oldest-filled linked way the view exposes."""
    nxt = policy._nxt[set_index]
    allowed = set(view.valid_ways())
    way = nxt[policy.ways]
    while way not in allowed:
        way = nxt[way]
    return way


def check_victims(policy) -> None:
    """Make every ``victim()`` call of ``policy`` (and of an adaptive
    policy's components) assert against the scan."""
    targets = [policy] + list(getattr(policy, "components", []))
    for target in targets:
        if isinstance(target, AdaptivePolicy):
            reference = scan_adaptive_victim
        elif isinstance(target, LFUPolicy):
            reference = scan_lfu_victim
        elif isinstance(target, LRUPolicy):
            reference = scan_lru_victim
        elif isinstance(target, FIFOPolicy):
            reference = scan_fifo_victim
        else:
            continue
        real = target.victim

        def victim(set_index, view, real=real, target=target,
                   reference=reference):
            expected = reference(target, set_index, view)
            chosen = real(set_index, view)
            assert chosen == expected, (target.name, chosen, expected)
            return chosen

        target.victim = victim


def assert_index_fresh(policy: AdaptivePolicy, set_index: int, view) -> None:
    index = policy._index[set_index]
    if index is None:
        return
    fresh = policy._build_index(set_index, view)
    assert index.prints == fresh.prints
    assert index.valid == fresh.valid
    assert index.ways_of == fresh.ways_of
    assert index.absent == fresh.absent
    if index.recency is not None:
        stamps = policy._stamp[set_index]
        heaped = [way for _, way in index.recency]
        assert len(heaped) == len(set(heaped))
        for i in range(1, len(index.recency)):
            assert index.recency[(i - 1) // 2] <= index.recency[i]
        assert all(stamp <= stamps[way] for stamp, way in index.recency)
        for way in range(policy.ways):
            assert (way in heaped) != bool(index.unheaped >> way & 1)
            if index.valid >> way & 1:
                assert way in heaped, (set_index, way)


def assert_heaps_sound(policy: LFUPolicy, valid_ways_of) -> None:
    """Each built heap is a heap, is bounded, and holds, for every
    valid way, an entry of its current fill whose count has not run
    ahead of the way's count."""
    for set_index, heap in enumerate(policy._heaps):
        if heap is None:
            continue
        assert len(heap) <= policy._heap_limit
        for i in range(1, len(heap)):
            assert heap[(i - 1) // 2] <= heap[i]
        counts = policy._count[set_index]
        stamps = policy._fill_stamp[set_index]
        assert policy._valid[set_index] == sum(
            1 << way for way in valid_ways_of(set_index)
        )
        for way in valid_ways_of(set_index):
            assert any(
                w == way and stamp == stamps[way] and count <= counts[way]
                for count, stamp, w in heap
            ), (set_index, way)


def assert_derived_state(policy, views) -> None:
    """``views`` maps a set index to that set's real view."""
    if isinstance(policy, AdaptivePolicy):
        for set_index, view in views.items():
            assert_index_fresh(policy, set_index, view)
        lfus = [c for c in policy.components if isinstance(c, LFUPolicy)]
        for lfu, shadow in zip(policy.components, policy.shadows):
            if lfu in lfus:
                assert_heaps_sound(
                    lfu, lambda s, sh=shadow: sh.sets[s].valid_ways()
                )
    elif isinstance(policy, LFUPolicy):
        assert_heaps_sound(policy, lambda s: views[s].valid_ways())


# ----------------------------------------------------------------------
# Online shard: TTL, byte budgets, faults, reloads
# ----------------------------------------------------------------------

def run_shard_steps(steps, kind, components, partial_bits, capacity,
                    capacity_bytes, fault_rate, seed):
    policy = build_shard_policy(kind, capacity, components=components,
                                partial_bits=partial_bits, seed=seed)
    now = [0.0]
    shard = CacheShard(
        capacity, policy,
        capacity_bytes=capacity_bytes,
        sizeof=(lambda value: 4) if capacity_bytes else None,
        clock=lambda: now[0],
    )
    if kind == "adaptive" and fault_rate:
        plan = FaultPlan.uniform(fault_rate, sites=(SITE_SHADOW_TAGS,),
                                 seed=seed, bits=2)
        FaultInjector(plan).arm(policy)
    check_victims(policy)
    saved = shard.state_dict()

    for op, key, arg in steps:
        if op == "get":
            shard.get(key)
        elif op == "put":
            shard.put(key, key, size=arg if capacity_bytes else None)
        elif op == "put_ttl":
            shard.put(key, key, ttl=float(arg))
        elif op == "get_or_compute":
            shard.get_or_compute(key, lambda k: k)
        elif op == "delete":
            shard.delete(key)
        elif op == "tick":
            now[0] += arg
        elif op == "snapshot":
            saved = shard.state_dict()
        else:
            shard.load_state_dict(copy.deepcopy(saved))
        assert_derived_state(policy, {0: shard._view})
    return policy


shard_configs = dict(
    kind=st.sampled_from(["adaptive", "lfu", "lru", "fifo"]),
    components=st.sampled_from([("lru", "lfu"), ("lfu", "lru"),
                                ("lfu", "fifo")]),
    partial_bits=st.sampled_from([2, 4, 16, None]),
    capacity=st.sampled_from([3, 8, 13]),
    capacity_bytes=st.sampled_from([None, 30]),
    fault_rate=st.sampled_from([0.0, 0.05, 0.5]),
    seed=st.integers(0, 2**16),
)


@given(steps=shard_steps, **shard_configs)
@settings(max_examples=150, deadline=None)
def test_shard_index_matches_rebuild_and_scan(steps, **config):
    run_shard_steps(steps, **config)


@pytest.mark.parametrize("seed", range(8))
def test_long_shard_streams_match_rebuild_and_scan(seed):
    """Long seeded interleavings: the hypothesis test shrinks well but
    rarely reaches the states only long eviction-heavy runs visit."""
    rng = random.Random(seed)
    steps = [(rng.choice(SHARD_OPS), rng.randrange(40), rng.randrange(1, 10))
             for _ in range(1500)]
    policy = run_shard_steps(
        steps, kind="lfu" if seed % 4 == 3 else "adaptive",
        components=[("lru", "lfu"), ("lfu", "lru")][seed % 2],
        partial_bits=[2, 3, 16, None][seed % 4], capacity=[8, 13][seed % 2],
        capacity_bytes=[None, 40][seed // 4], fault_rate=0.02, seed=seed,
    )
    if seed % 4 < 2:
        assert policy.fallback_evictions > 0


@pytest.mark.parametrize("kind", ["lru", "fifo"])
def test_long_list_policy_streams_match_scan(kind):
    rng = random.Random(kind)
    steps = [(rng.choice(SHARD_OPS), rng.randrange(40), rng.randrange(1, 10))
             for _ in range(1500)]
    run_shard_steps(steps, kind=kind, components=("lru", "lfu"),
                    partial_bits=None, capacity=13, capacity_bytes=40,
                    fault_rate=0.0, seed=0)


@given(
    steps=st.lists(
        st.tuples(st.sampled_from(["get", "get_or_compute", "put",
                                   "delete", "reload"]),
                  st.integers(0, 30)),
        min_size=1, max_size=250,
    ),
    kind=st.sampled_from(["adaptive", "lfu", "lru"]),
    partial_bits=st.sampled_from([2, 16, None]),
    capacity=st.sampled_from([4, 8]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=100, deadline=None)
def test_shard_victims_match_spec_across_reloads(
    steps, kind, partial_bits, capacity, seed
):
    components = ("lru", "lfu")
    policy = build_shard_policy(kind, capacity, components=components,
                                partial_bits=partial_bits, seed=seed)
    shard = CacheShard(capacity, policy)
    if kind == "adaptive":
        spec = make_adaptive_spec(
            1, capacity, components,
            tag_transform=partial_fingerprint_transform(partial_bits),
            seed=seed,
        )
    else:
        spec = make_spec(kind, 1, capacity)
    pair = ShardPair(shard, SpecCache(1, capacity, spec, allocation="stack"),
                     f"shard:{kind}")
    for op, key in steps:
        if op == "reload":
            shard.load_state_dict(json.loads(json.dumps(shard.state_dict())))
        else:
            engine, expected = pair.apply((op, key))
            assert engine == expected, (op, key)
            assert pair.verify_state((op, key)) is None
        assert_derived_state(policy, {0: shard._view})


class _HidingView(SetView):
    """A set of ``tags`` (None = invalid way) hiding one valid way."""

    def __init__(self, tags, hidden):
        self.tags = tags
        self.hidden = hidden

    @property
    def ways(self):
        return len(self.tags)

    def tag_at(self, way):
        return self.tags[way]

    def valid_ways(self):
        return [w for w, tag in enumerate(self.tags)
                if tag is not None and w != self.hidden]

    def hidden_way(self):
        return self.hidden


@pytest.mark.parametrize("kind", ["lru", "lfu", "fifo"])
def test_hidden_way_is_never_the_victim(kind):
    """A shard only hides the entry it just touched, which LRU never
    picks anyway; hiding each valid way directly must still give the
    scan's answer."""
    policy_class, reference = {
        "lru": (LRUPolicy, scan_lru_victim),
        "lfu": (LFUPolicy, scan_lfu_victim),
        "fifo": (FIFOPolicy, scan_fifo_victim),
    }[kind]
    tags = [0, 1, None, 3, 4]
    for hidden in (0, 1, 3, 4):
        policy = policy_class(1, len(tags))
        for way in range(len(tags)):
            policy.on_fill(0, way, way)
        for way in (3, 1, 3, 4):
            policy.on_hit(0, way)
        policy.on_invalidate(0, 2)
        view = _HidingView(tags, hidden)
        for _ in range(2):
            assert policy.victim(0, view) == reference(policy, 0, view)


# ----------------------------------------------------------------------
# Hardware cache: columnar batches between scalar accesses
# ----------------------------------------------------------------------

NUM_SETS = 4
WAYS = 4

hardware_steps = st.lists(
    st.one_of(
        st.tuples(st.just("access"),
                  st.tuples(st.integers(0, NUM_SETS - 1),
                            st.integers(0, 11), st.booleans())),
        st.tuples(st.just("batch"),
                  st.lists(st.tuples(st.integers(0, NUM_SETS - 1),
                                     st.integers(0, 11), st.booleans()),
                           min_size=1, max_size=40)),
    ),
    min_size=1, max_size=40,
)


@given(steps=hardware_steps,
       components=st.sampled_from([("lru", "lfu"), ("lfu", "lru"),
                                   ("lfu", "mru"), ("fifo", "lfu")]))
@settings(max_examples=100, deadline=None)
def test_columnar_batches_between_scalar_accesses(steps, components):
    config = CacheConfig(size_bytes=NUM_SETS * WAYS * 64, ways=WAYS)

    def build():
        return SetAssociativeCache(
            config, make_adaptive(NUM_SETS, WAYS, components)
        )

    mixed = build()
    check_victims(mixed.policy)
    spec = make_adaptive_spec(NUM_SETS, WAYS, components)
    pair = HardwarePair(build(), SpecCache(NUM_SETS, WAYS, spec,
                                           allocation="lowest"),
                        "hardware:adaptive")

    def address(set_index, tag):
        return (tag << mixed._tag_shift) | (set_index << mixed._offset_bits)

    for kind, payload in steps:
        events = [payload] if kind == "access" else payload
        for event in events:
            engine, expected = pair.apply(event)
            assert engine == expected
            assert pair.verify_state(event) is None
        if kind == "access":
            mixed.access_decomposed(*payload)
        else:
            columnar_access_many(
                mixed, [address(s, t) for s, t, _ in payload],
                [w for _, _, w in payload],
            )
        assert mixed.policy.state_dict() == pair.cache.policy.state_dict()
        assert [s.state_dict() for s in mixed.sets] == \
            [s.state_dict() for s in pair.cache.sets]
        assert_derived_state(mixed.policy, dict(enumerate(mixed.sets)))
