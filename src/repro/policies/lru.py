"""Least-Recently-Used replacement."""

from __future__ import annotations

from repro.policies.base import ReplacementPolicy, SetView


class LRUPolicy(ReplacementPolicy):
    """Classic LRU: evict the valid block touched longest ago.

    Recency is an intrusive doubly-linked list per set, threaded through
    way indices with a sentinel node: hits and fills move a way to the
    MRU end in O(1), and the victim of a full set is simply the list
    head — no per-eviction scan over stamps. The order produced is
    identical to the textbook monotonic-stamp formulation (ways sorted
    by last-touch time), which is what the differential oracle's LRU
    spec checks decision-for-decision.
    """

    name = "lru"

    def __init__(self, num_sets: int, ways: int):
        super().__init__(num_sets, ways)
        # Per set: next/prev way indices with sentinel index ``ways``.
        # prev == -1 marks a way not currently linked (never filled, or
        # invalidated). An empty list has the sentinel pointing at
        # itself.
        self._nxt = [[0] * (ways + 1) for _ in range(num_sets)]
        self._prv = [[0] * (ways + 1) for _ in range(num_sets)]
        for nxt, prv in zip(self._nxt, self._prv):
            nxt[ways] = ways
            prv[ways] = ways
            for way in range(ways):
                prv[way] = -1

    def _touch(self, set_index: int, way: int) -> None:
        """Move ``way`` to the MRU (tail) end, linking it if needed."""
        nxt = self._nxt[set_index]
        prv = self._prv[set_index]
        sentinel = self.ways
        before = prv[way]
        if before != -1:
            after = nxt[way]
            nxt[before] = after
            prv[after] = before
        tail = prv[sentinel]
        nxt[tail] = way
        prv[way] = tail
        nxt[way] = sentinel
        prv[sentinel] = way

    def on_hit(self, set_index: int, way: int) -> None:
        self._check_slot(set_index, way)
        self._touch(set_index, way)

    def on_fill(self, set_index: int, way: int, tag: int) -> None:
        self._check_slot(set_index, way)
        self._touch(set_index, way)

    def on_invalidate(self, set_index: int, way: int) -> None:
        """Unlink an invalidated way so it cannot surface as a victim."""
        self._check_slot(set_index, way)
        prv = self._prv[set_index]
        before = prv[way]
        if before == -1:
            return
        nxt = self._nxt[set_index]
        after = nxt[way]
        nxt[before] = after
        prv[after] = before
        prv[way] = -1

    def victim(self, set_index: int, set_view: SetView) -> int:
        # The list links exactly the valid ways, so its head is the
        # LRU-most one; a view hiding that way (a shard protecting the
        # entry just written) gets the next-oldest.
        nxt = self._nxt[set_index]
        way = nxt[self.ways]
        if way == set_view.hidden_way():
            way = nxt[way]
        if way == self.ways:
            raise ValueError("victim() called on a view with no valid ways")
        return way

    def state_dict(self) -> dict:
        """JSON-serializable snapshot of the per-set recency lists."""
        return {
            "nxt": [list(row) for row in self._nxt],
            "prv": [list(row) for row in self._prv],
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (JSON round-trip safe)."""
        self._nxt = [list(map(int, row)) for row in state["nxt"]]
        self._prv = [list(map(int, row)) for row in state["prv"]]

    def recency_order(self, set_index: int, set_view: SetView) -> list:
        """Ways of the set ordered least- to most-recently used.

        Exposed for the adaptive policy's "keep a recency order" shortcut
        (Section 3.3) and for tests of the LRU stack property.
        """
        nxt = self._nxt[set_index]
        sentinel = self.ways
        allowed = set(set_view.valid_ways())
        order = []
        way = nxt[sentinel]
        while way != sentinel:
            if way in allowed:
                order.append(way)
            way = nxt[way]
        return order
