"""The adaptive replacement policy (Sections 2.2-2.3, Algorithm 1).

:class:`AdaptivePolicy` is a :class:`~repro.policies.base.ReplacementPolicy`,
so it plugs into an unmodified :class:`~repro.cache.cache.SetAssociativeCache`
— mirroring the paper's hardware claim that adaptivity adds structures
*beside* the conventional cache (Figure 1) without touching its critical
path.

Per access (the ``observe`` hook, which the cache invokes before lookup):

1. Replay the reference into each component's parallel tag array,
   recording whether that component would have hit or missed and which
   block it evicted.
2. If the outcome was decisive (some but not all components missed),
   record it in the set's miss history buffer.

On a real miss the cache asks for a victim; Algorithm 1 runs:

1. Pick the component with the fewest recorded misses (ties go to the
   first component, as in the paper's worked example).
2. If that component itself missed and the block it just evicted is in
   the real cache, evict the same block.
3. Otherwise evict any real block *not* present in that component's tag
   array. With full tags such a block must exist whenever the contents
   differ; with partial tags aliasing can hide every candidate, in which
   case an arbitrary block is evicted (Section 3.1).

The policy generalizes transparently from two components to N — the
paper's five-policy experiment (Section 4.4) uses the same class.

Steps 2 and 3 are scans over the set in hardware, where a set is 8
ways. An online shard is one set with thousands of ways, so the policy
answers both from a per-set index instead (:class:`_SetIndex`), kept up
to date by ``observe``, ``on_fill`` and ``on_invalidate``: each real
block's shadow print, a bitmask of the valid ways, a print -> ways map,
and per component a bitmask of real ways that component's shadow does
not hold. The lowest set bit of a mask is the lowest way a scan would
have found, so the decisions are the scan's, bit for bit. A view that
withholds a way (:meth:`~repro.policies.base.SetView.hidden_way`) is
masked out, so byte-pressure evictions in a shard cost the same. The
index is derived state: it is not saved, and
:meth:`AdaptivePolicy.invalidate_derived` drops it after an
out-of-band write, to be rebuilt at the set's next ``victim()``.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush, heapreplace
from typing import Callable, List, Optional, Sequence

from repro.cache.tag_array import ShadowOutcome, TagArray, identity_tag
from repro.core.history import BitVectorHistory, MissHistory
from repro.core.selector import PolicySelector
from repro.policies.base import ReplacementPolicy, SetView
from repro.utils.rng import DeterministicRNG


class _SetIndex:
    """Shadow-membership index of one real set (internal).

    Attributes:
        prints: per way, the shadow print (transformed tag) of the real
            block there, or None if the way is invalid.
        valid: bitmask of the valid real ways.
        ways_of: print -> bitmask of the real ways holding that print
            (several, when partial tags alias).
        absent: per component, bitmask of the valid real ways whose
            print that component's shadow set does not hold.
        recency: the LRU fallback's heap of ``(stamp, way)``, built at
            its first use, or None.
        unheaped: bitmask of the ways with no entry in ``recency``
            (invalid when it was built, or dropped since).
    """

    __slots__ = ("prints", "valid", "ways_of", "absent", "recency",
                 "unheaped")

    def __init__(self, ways: int, components: int):
        self.prints: List[Optional[int]] = [None] * ways
        self.valid = 0
        self.ways_of = {}
        self.absent = [0] * components
        self.recency: Optional[list] = None
        self.unheaped = 0


class AdaptivePolicy(ReplacementPolicy):
    """Adaptive replacement over N >= 2 component policies.

    Args:
        num_sets: cache geometry (must match the component policies).
        ways: cache associativity.
        components: component policy instances; each becomes the manager
            of one parallel tag array. Order matters: ties in the history
            favour earlier components, and reports use this order.
        tag_transform: full-tag identity or a
            :class:`~repro.core.partial.PartialTagScheme`.
        history_factory: per-set miss history constructor; defaults to
            the paper's m-bit vector with m = ``ways``.
        fallback: victim choice when aliasing defeats the "not in
            component" search — ``"lru"`` (default; the paper suggests
            keeping a recency order, Section 3.3) or ``"random"``.
        seed: RNG seed for the random fallback.
        vote_sink: optional callable receiving each access's
            per-component miss vector; lets sampled leader units feed a
            shared :class:`~repro.core.selector.GlobalSelector` (used by
            the online engine's SBAR-style mode).
    """

    name = "adaptive"

    def __init__(
        self,
        num_sets: int,
        ways: int,
        components: Sequence[ReplacementPolicy],
        tag_transform: Callable[[int], int] = identity_tag,
        history_factory: Optional[Callable[[int], MissHistory]] = None,
        fallback: str = "lru",
        seed: int = 0,
        vote_sink: Optional[Callable[[List[bool]], None]] = None,
    ):
        super().__init__(num_sets, ways)
        if len(components) < 2:
            raise ValueError(
                f"adaptivity needs at least 2 components, got {len(components)}"
            )
        if fallback not in ("lru", "random"):
            raise ValueError(f"unknown fallback {fallback!r}")
        for component in components:
            if component.num_sets != num_sets or component.ways != ways:
                raise ValueError(
                    f"component {component.name!r} geometry "
                    f"({component.num_sets}x{component.ways}) does not match "
                    f"({num_sets}x{ways})"
                )
        self.components = list(components)
        self.tag_transform = tag_transform
        self.fallback = fallback
        self.name = "adaptive(" + "+".join(c.name for c in self.components) + ")"

        if history_factory is None:
            def history_factory(n):
                return BitVectorHistory(n, window=ways)
        self.selectors: List[PolicySelector] = [
            PolicySelector(history_factory(len(self.components)))
            for _ in range(num_sets)
        ]
        self.vote_sink = vote_sink
        self.shadows = [
            TagArray(num_sets, ways, component, tag_transform)
            for component in self.components
        ]

        # Bound methods of the shadow arrays, hoisted once: observe()
        # runs every access and pays one replay per component. The
        # two-component case (the paper's default) is unrolled.
        self._shadow_lookups = [
            shadow.lookup_update for shadow in self.shadows
        ]
        self._lookup_pair = (
            tuple(self._shadow_lookups)
            if len(self._shadow_lookups) == 2
            else None
        )
        self._identity = tag_transform is identity_tag
        self._rng = DeterministicRNG(seed)
        # Recency stamps for the LRU fallback and the imitate-LRU shortcut.
        self._clock = 0
        self._stamp = [[0] * ways for _ in range(num_sets)]
        # Derived state (see the module docstring). Sets start empty, so
        # their indexes start built; None marks one to rebuild.
        self._shadow_sets = [shadow.sets for shadow in self.shadows]
        self._all_ways = (1 << ways) - 1
        self._index: List[Optional[_SetIndex]] = [
            _SetIndex(ways, len(self.components)) for _ in range(num_sets)
        ]
        # Outcomes of the current access's shadow replays, consumed by
        # victim(); the cache calls observe() exactly once per access.
        self._last_outcomes: List[ShadowOutcome] = []
        self._last_set = -1
        # Imitation decisions per set per component, drained by Figure 7.
        self._decisions = [[0] * len(self.components) for _ in range(num_sets)]
        self.fallback_evictions = 0
        # Armed by repro.faults.FaultInjector; None costs one pointer
        # comparison per access and nothing else.
        self.fault_injector = None

    # ------------------------------------------------------------------
    # ReplacementPolicy events
    # ------------------------------------------------------------------

    @property
    def histories(self) -> List[MissHistory]:
        """Per-set miss-history buffers (fault-injection surface)."""
        return [selector.history for selector in self.selectors]

    def observe(self, set_index: int, tag: int, is_write: bool) -> None:
        pair = self._lookup_pair
        if pair is not None:
            first = pair[0](set_index, tag, is_write)
            second = pair[1](set_index, tag, is_write)
            outcomes = [first, second]
            missed = [first.missed, second.missed]
        else:
            outcomes = [
                lookup(set_index, tag, is_write)
                for lookup in self._shadow_lookups
            ]
            missed = [o.missed for o in outcomes]
        self.selectors[set_index].record(missed)
        if self.vote_sink is not None:
            self.vote_sink(missed)
        self._last_outcomes = outcomes
        self._last_set = set_index
        index = self._index[set_index]
        if index is not None and True in missed:
            self._track_shadow_misses(index, tag, outcomes)
        if self.fault_injector is not None:
            self.fault_injector.tick()

    def on_hit(self, set_index: int, way: int) -> None:
        self._check_slot(set_index, way)
        self._clock += 1
        self._stamp[set_index][way] = self._clock

    def on_fill(self, set_index: int, way: int, tag: int) -> None:
        self._check_slot(set_index, way)
        self._clock += 1
        self._stamp[set_index][way] = self._clock
        index = self._index[set_index]
        if index is not None:
            stored = tag if self._identity else self.tag_transform(tag)
            self._place(set_index, index, way, stored)

    def victim(self, set_index: int, set_view: SetView) -> int:
        if set_index != self._last_set or not self._last_outcomes:
            raise RuntimeError(
                "victim() called without a preceding observe() for set "
                f"{set_index}; the adaptive policy must be driven by a "
                "SetAssociativeCache"
            )
        chosen = self.selectors[set_index].best_component()
        self._decisions[set_index][chosen] += 1
        outcome = self._last_outcomes[chosen]
        index = self._index[set_index]
        if index is None:
            index = self._build_index(set_index, set_view)
            self._index[set_index] = index
        allowed = index.valid
        hidden = set_view.hidden_way()
        if hidden is not None:
            # A shard protecting the entry just written.
            allowed &= ~(1 << hidden)

        # Step 2: the imitated component evicted a block that the real
        # cache also holds -> evict the same block. Lowest set bit =
        # lowest way, the one a scan in way order finds first.
        if outcome.missed and outcome.victim_tag is not None:
            ways = index.ways_of.get(outcome.victim_tag, 0) & allowed
            if ways:
                return (ways & -ways).bit_length() - 1

        # Step 3: evict any real block not in the imitated component.
        ways = index.absent[chosen] & allowed
        if ways:
            return (ways & -ways).bit_length() - 1

        # Aliasing (partial tags) hid every candidate: arbitrary victim.
        self.fallback_evictions += 1
        if self.fallback == "random":
            candidates = (
                range(self.ways) if allowed == self._all_ways
                else [w for w in range(self.ways) if allowed >> w & 1]
            )
            return candidates[self._rng.choice_index(len(candidates))]
        return self._least_recent(set_index, index, allowed)

    def on_invalidate(self, set_index: int, way: int) -> None:
        # Stale recency stamps are harmless: the index's valid mask
        # keeps invalid ways out of every victim choice.
        self._check_slot(set_index, way)
        index = self._index[set_index]
        if index is not None and index.prints[way] is not None:
            self._unplace(index, way)

    def invalidate_derived(self) -> None:
        """Drop the membership index (and recency heap) of every set."""
        self._index = [None] * self.num_sets

    # ------------------------------------------------------------------
    # Internals: the derived per-set index
    # ------------------------------------------------------------------

    def _track_shadow_misses(
        self, index: _SetIndex, tag: int, outcomes: List[ShadowOutcome]
    ) -> None:
        """Apply this access's shadow fills and evictions to ``absent``."""
        stored = tag if self._identity else self.tag_transform(tag)
        ways_of = index.ways_of
        filled = ways_of.get(stored, 0)
        absent = index.absent
        for component, outcome in enumerate(outcomes):
            if not outcome.missed:
                continue
            ways = absent[component]
            if filled:
                ways &= ~filled
            if outcome.victim_tag is not None:
                ways |= ways_of.get(outcome.victim_tag, 0)
            absent[component] = ways

    def _place(
        self, set_index: int, index: _SetIndex, way: int, stored: int
    ) -> None:
        """Record the real block with print ``stored`` now in ``way``,
        replacing whatever the index held there."""
        bit = 1 << way
        ways_of = index.ways_of
        old = index.prints[way]
        if old is None:
            index.valid |= bit
            if index.unheaped & bit:
                index.unheaped ^= bit
                heappush(index.recency, (self._stamp[set_index][way], way))
        else:
            rest = ways_of[old] ^ bit
            if rest:
                ways_of[old] = rest
            else:
                del ways_of[old]
        index.prints[way] = stored
        ways_of[stored] = ways_of.get(stored, 0) | bit
        absent = index.absent
        for component, sets in enumerate(self._shadow_sets):
            if stored in sets[set_index]._tag_to_way:
                absent[component] &= ~bit
            else:
                absent[component] |= bit

    @staticmethod
    def _unplace(index: _SetIndex, way: int) -> None:
        """Forget the real block in ``way``."""
        bit = 1 << way
        stored = index.prints[way]
        index.prints[way] = None
        index.valid ^= bit
        rest = index.ways_of[stored] ^ bit
        if rest:
            index.ways_of[stored] = rest
        else:
            del index.ways_of[stored]
        absent = index.absent
        for component, ways in enumerate(absent):
            if ways & bit:
                absent[component] = ways ^ bit

    def _build_index(self, set_index: int, set_view: SetView) -> _SetIndex:
        """Rebuild one set's index from the real set and the shadows."""
        index = _SetIndex(self.ways, len(self.components))
        transform = self.tag_transform
        for way in range(self.ways):
            tag = set_view.tag_at(way)
            if tag is not None:
                stored = tag if self._identity else transform(tag)
                self._place(set_index, index, way, stored)
        return index

    def _least_recent(
        self, set_index: int, index: _SetIndex, allowed: int
    ) -> int:
        """The allowed way with the oldest recency stamp (lowest way on
        ties) — the LRU fallback.

        The set's heap holds one ``(stamp, way)`` entry per valid way.
        Stamps only grow, so an entry's stamp is at most its way's
        current one; an outdated top entry is re-keyed, and an
        up-to-date one is the true minimum. The entry of a way found
        invalid is dropped (``unheaped``; ``_place`` pushes a new one
        when the way is filled again); the way a view hides is set
        aside and put back afterwards.
        """
        stamps = self._stamp[set_index]
        heap = index.recency
        if heap is None:
            valid = index.valid
            heap = [(stamp, way) for way, stamp in enumerate(stamps)
                    if valid >> way & 1]
            heapify(heap)
            index.recency = heap
            index.unheaped = self._all_ways ^ valid
        hidden = []
        while True:
            stamp, way = heap[0]
            if not index.valid >> way & 1:
                heappop(heap)
                index.unheaped |= 1 << way
            elif stamp != stamps[way]:
                heapreplace(heap, (stamps[way], way))
            elif allowed >> way & 1:
                break
            else:
                hidden.append(heappop(heap))
        for entry in hidden:
            heappush(heap, entry)
        return way

    # ------------------------------------------------------------------
    # Introspection for experiments
    # ------------------------------------------------------------------

    def component_misses(self) -> List[int]:
        """Total shadow misses per component (what each policy alone
        would have suffered — up to partial-tag optimism)."""
        return [shadow.misses for shadow in self.shadows]

    def selector_switches(self) -> int:
        """Total imitation-target changes across all per-set selectors."""
        return sum(selector.switches for selector in self.selectors)

    def drain_decisions(self) -> List[List[int]]:
        """Per-set imitation decision counts since the previous drain.

        Figure 7's set-vs-time maps sample this every time quantum: the
        majority component per set paints the pixel.
        """
        drained = [list(row) for row in self._decisions]
        for row in self._decisions:
            for i in range(len(row)):
                row[i] = 0
        return drained

    # ------------------------------------------------------------------
    # Crash-recovery state capture
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        """JSON-serializable snapshot of the full adaptive machinery.

        Covers the component policies, shadow tag arrays, per-set
        selectors, fallback RNG, recency stamps and decision counters —
        everything Algorithm 1 consults. The transient per-access replay
        outcomes (``_last_outcomes``) are *not* saved: snapshots are
        taken between accesses, where they are dead state, and
        :meth:`load_state_dict` resets them so a restored policy demands
        a fresh ``observe()`` before its first ``victim()``.
        """
        return {
            "components": [c.state_dict() for c in self.components],
            "shadows": [s.state_dict() for s in self.shadows],
            "selectors": [s.state_dict() for s in self.selectors],
            "rng": self._rng.state(),
            "clock": self._clock,
            "stamp": [list(row) for row in self._stamp],
            "decisions": [list(row) for row in self._decisions],
            "fallback_evictions": self.fallback_evictions,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (JSON round-trip safe)."""
        for component, comp_state in zip(self.components, state["components"]):
            component.load_state_dict(comp_state)
        for shadow, shadow_state in zip(self.shadows, state["shadows"]):
            shadow.load_state_dict(shadow_state)
        for selector, sel_state in zip(self.selectors, state["selectors"]):
            selector.load_state_dict(sel_state)
        self._rng.restore(state["rng"])
        self._clock = int(state["clock"])
        self._stamp = [list(map(int, row)) for row in state["stamp"]]
        self._decisions = [list(map(int, row)) for row in state["decisions"]]
        self.fallback_evictions = int(state["fallback_evictions"])
        self._last_outcomes = []
        self._last_set = -1
        self.invalidate_derived()
