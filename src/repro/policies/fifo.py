"""First-In-First-Out replacement."""

from __future__ import annotations

from repro.policies.base import ReplacementPolicy, SetView


class FIFOPolicy(ReplacementPolicy):
    """FIFO: evict the valid block that was *installed* longest ago.

    Fill order is an intrusive doubly-linked list per set (same scheme
    as :class:`~repro.policies.lru.LRUPolicy`), except that hits do not
    move a way — a block's position is fixed at fill time. The victim
    of a full set is the list head in O(1).
    """

    name = "fifo"

    def __init__(self, num_sets: int, ways: int):
        super().__init__(num_sets, ways)
        # Sentinel index ``ways``; prev == -1 marks an unlinked way.
        self._nxt = [[0] * (ways + 1) for _ in range(num_sets)]
        self._prv = [[0] * (ways + 1) for _ in range(num_sets)]
        for nxt, prv in zip(self._nxt, self._prv):
            nxt[ways] = ways
            prv[ways] = ways
            for way in range(ways):
                prv[way] = -1

    def on_hit(self, set_index: int, way: int) -> None:
        self._check_slot(set_index, way)

    def on_fill(self, set_index: int, way: int, tag: int) -> None:
        self._check_slot(set_index, way)
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
        # The list links exactly the valid ways, oldest fill first; a
        # view hiding the head (a shard protecting the entry just
        # written) gets the next one.
        nxt = self._nxt[set_index]
        way = nxt[self.ways]
        if way == set_view.hidden_way():
            way = nxt[way]
        if way == self.ways:
            raise ValueError("victim() called on a view with no valid ways")
        return way

    def state_dict(self) -> dict:
        """JSON-serializable snapshot of the per-set fill-order lists."""
        return {
            "nxt": [list(row) for row in self._nxt],
            "prv": [list(row) for row in self._prv],
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (JSON round-trip safe)."""
        self._nxt = [list(map(int, row)) for row in state["nxt"]]
        self._prv = [list(map(int, row)) for row in state["prv"]]
