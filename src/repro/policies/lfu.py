"""Least-Frequently-Used replacement with saturating counters."""

from __future__ import annotations

from heapq import heapify, heappop, heappush, heapreplace

from repro.policies.base import ReplacementPolicy, SetView
from repro.utils.bitops import mask


class LFUPolicy(ReplacementPolicy):
    """In-cache LFU with per-way saturating frequency counters.

    The paper's simulated configuration (Table 1) uses 5-bit LFU counters,
    so counters saturate at 31 by default. A newly filled block starts at
    frequency 1; every hit increments (saturating). The victim is the
    valid block with the lowest count, breaking ties in favour of the
    oldest fill — this makes LFU deterministic and keeps single-use scan
    blocks (count 1) flowing through one way while frequently reused data
    is retained, the behaviour the paper highlights for media workloads.

    Victims come from a per-set heap of ``(count, fill_stamp, way)``
    entries, derived from the count and stamp tables: built at the
    set's first victim (with a bitmask of its valid ways), pushed to on
    fill, and never touched on a hit. An entry whose stamp is not the
    way's current one belongs to an earlier fill, and one whose way is
    invalid has no block behind it; both are dropped. One whose count
    lags (the block was hit since) is re-keyed. Counts only grow within
    a fill, so every entry's key is at most its way's true key, and a
    top entry that is up to date is the true minimum. The way a view
    hides is set aside and put back afterwards. A heap grown past
    ``4 * ways`` entries is rebuilt instead of pushed to.
    """

    name = "lfu"

    def __init__(self, num_sets: int, ways: int, counter_bits: int = 5):
        super().__init__(num_sets, ways)
        if counter_bits <= 0:
            raise ValueError(
                f"counter_bits must be positive, got {counter_bits}"
            )
        self.counter_bits = counter_bits
        self._max_count = mask(counter_bits)
        self._count = [[0] * ways for _ in range(num_sets)]
        self._clock = 0
        self._fill_stamp = [[0] * ways for _ in range(num_sets)]
        self._heaps = [None] * num_sets
        self._valid = [0] * num_sets
        self._heap_limit = 4 * ways

    def frequency(self, set_index: int, way: int) -> int:
        """Current saturating frequency count of (set_index, way)."""
        self._check_slot(set_index, way)
        return self._count[set_index][way]

    def on_hit(self, set_index: int, way: int) -> None:
        self._check_slot(set_index, way)
        counts = self._count[set_index]
        if counts[way] < self._max_count:
            counts[way] += 1

    def on_fill(self, set_index: int, way: int, tag: int) -> None:
        self._check_slot(set_index, way)
        self._count[set_index][way] = 1
        self._clock += 1
        self._fill_stamp[set_index][way] = self._clock
        heap = self._heaps[set_index]
        if heap is not None:
            if len(heap) < self._heap_limit:
                heappush(heap, (1, self._clock, way))
                self._valid[set_index] |= 1 << way
            else:
                self._heaps[set_index] = None

    def on_invalidate(self, set_index: int, way: int) -> None:
        self._check_slot(set_index, way)
        if self._heaps[set_index] is not None:
            self._valid[set_index] &= ~(1 << way)

    def victim(self, set_index: int, set_view: SetView) -> int:
        # Fill stamps are globally unique, so the heap order never falls
        # through to the way index and equals the keyed min over
        # (count, stamp).
        counts = self._count[set_index]
        stamps = self._fill_stamp[set_index]
        heap = self._heaps[set_index]
        if heap is None:
            heap = self._build_heap(set_index, set_view)
        valid = self._valid[set_index]
        hidden = set_view.hidden_way()
        held = None
        while heap:
            count, stamp, way = heap[0]
            if stamp != stamps[way] or not valid >> way & 1:
                heappop(heap)
            elif count != counts[way]:
                heapreplace(heap, (counts[way], stamp, way))
            elif way == hidden:
                held = heappop(heap)
            else:
                break
        else:
            raise ValueError("victim() called on a view with no valid ways")
        if held is not None:
            heappush(heap, held)
        return way

    def _build_heap(self, set_index: int, set_view: SetView) -> list:
        """Build one set's heap and valid-way mask from the set view."""
        counts = self._count[set_index]
        stamps = self._fill_stamp[set_index]
        if set_view.valid_count() == self.ways:
            heap = list(zip(counts, stamps, range(self.ways)))
            valid = (1 << self.ways) - 1
        else:
            ways = [w for w in range(self.ways)
                    if set_view.tag_at(w) is not None]
            heap = [(counts[w], stamps[w], w) for w in ways]
            valid = sum(1 << w for w in ways)
        heapify(heap)
        self._heaps[set_index] = heap
        self._valid[set_index] = valid
        return heap

    def state_dict(self) -> dict:
        """JSON-serializable snapshot of counters, clock and fill stamps."""
        return {
            "count": [list(row) for row in self._count],
            "clock": self._clock,
            "fill_stamp": [list(row) for row in self._fill_stamp],
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (JSON round-trip safe)."""
        self._count = [list(map(int, row)) for row in state["count"]]
        self._clock = int(state["clock"])
        self._fill_stamp = [list(map(int, row)) for row in state["fill_stamp"]]
        self.invalidate_derived()

    def invalidate_derived(self) -> None:
        """Drop the victim heaps (and valid-way masks); each is rebuilt
        at its set's next victim."""
        self._heaps = [None] * self.num_sets
