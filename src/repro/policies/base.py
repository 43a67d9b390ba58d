"""The replacement-policy interface.

A policy manages metadata for every (set, way) slot of one cache and is
driven by the cache through a small set of events:

* :meth:`ReplacementPolicy.observe` — every access, before lookup. Simple
  policies ignore it; the adaptive policy uses it to update its shadow tag
  arrays and miss-history buffers (off the critical path, per Section 3.3).
* :meth:`ReplacementPolicy.on_hit` — the access hit at (set, way).
* :meth:`ReplacementPolicy.victim` — the set is full; choose a way to evict.
* :meth:`ReplacementPolicy.on_fill` — a block was installed at (set, way).
* :meth:`ReplacementPolicy.on_invalidate` — the block was removed without
  replacement (e.g. coherence invalidation).

The cache guarantees that ``victim`` is only called on a full set and that
every miss is followed by exactly one ``on_fill``.
"""

from __future__ import annotations

import abc
from typing import Optional, Sequence


class SetView(abc.ABC):
    """Read-only view of one cache set, passed to ``victim``.

    The adaptive policy needs to compare the real set's contents against
    its shadow tag arrays ("evict a block that is not in B's cache");
    this view is how it sees them. Conventional policies never look at it.
    """

    @property
    @abc.abstractmethod
    def ways(self) -> int:
        """Associativity of the set."""

    @abc.abstractmethod
    def tag_at(self, way: int) -> Optional[int]:
        """Tag stored at ``way``, or None if the way is invalid."""

    @abc.abstractmethod
    def valid_ways(self) -> Sequence[int]:
        """Indices of ways currently holding valid blocks."""

    def valid_count(self) -> int:
        """Number of valid ways.

        Hot-path helper: policies keeping an intrusive recency/fill
        order (LRU, FIFO) use this to recognise the common full-set
        case in O(1) and return their list head directly instead of
        materialising ``valid_ways``. Views with a cheaper census
        override it; the default just counts ``valid_ways``.
        """
        return len(self.valid_ways())

    def hidden_way(self) -> Optional[int]:
        """A valid way this view withholds from victim choice, or None.

        A view may narrow the candidates only this way: they are the
        set's valid ways minus this one (a shard protecting the entry
        just written). Policies that track which ways are valid can
        then answer without materialising ``valid_ways``. Default:
        None, every valid way is a candidate.
        """
        return None


class ReplacementPolicy(abc.ABC):
    """Base class for replacement policies.

    Subclasses set :attr:`name` (used by the registry and in reports) and
    implement the event methods. State must be reconstructible from the
    event stream alone, so a policy can equally manage a real data cache
    or a tags-only shadow array.
    """

    name: str = "abstract"

    def __init__(self, num_sets: int, ways: int):
        if num_sets <= 0:
            raise ValueError(f"num_sets must be positive, got {num_sets}")
        if ways <= 0:
            raise ValueError(f"ways must be positive, got {ways}")
        self.num_sets = num_sets
        self.ways = ways

    def observe(self, set_index: int, tag: int, is_write: bool) -> None:
        """Called once per access before lookup. Default: no-op."""

    @abc.abstractmethod
    def on_hit(self, set_index: int, way: int) -> None:
        """The current access hit the block at (set_index, way)."""

    @abc.abstractmethod
    def victim(self, set_index: int, set_view: SetView) -> int:
        """Choose the way to evict from a full set."""

    @abc.abstractmethod
    def on_fill(self, set_index: int, way: int, tag: int) -> None:
        """A new block with ``tag`` was installed at (set_index, way)."""

    def on_invalidate(self, set_index: int, way: int) -> None:
        """Block removed without replacement. Default: no-op.

        Policies whose victim choice iterates valid ways only (all of the
        built-ins) need no cleanup; policies keeping ordered structures
        override this.
        """

    def invalidate_derived(self) -> None:
        """Drop derived indexes after an out-of-band state write.

        Some policies keep indexes derived from their state (the
        adaptive policy's shadow-membership masks, LFU's victim heaps)
        and update them from the event stream. Anything that writes
        state outside that stream must call this afterwards: the
        columnar kernel, a shadow-tag fault flip, ``load_state_dict``.
        The indexes are rebuilt on the next ``victim()``. Default:
        no-op.
        """

    def state_dict(self) -> dict:
        """JSON-serializable snapshot of all replacement state.

        Together with :meth:`load_state_dict` this is the contract that
        makes checkpoint/resume and the online engine's crash recovery
        *decision-identical*: a policy restored from a snapshot must
        pick byte-identical victims to the instance that produced it.
        Every built-in policy implements the pair; custom policies that
        want to ride through :mod:`repro.online.persistence` snapshots
        must too.
        """
        raise NotImplementedError(
            f"policy {self.name!r} does not implement state_dict(); "
            "snapshot/restore requires it"
        )

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (JSON round-trip safe)."""
        raise NotImplementedError(
            f"policy {self.name!r} does not implement load_state_dict(); "
            "snapshot/restore requires it"
        )

    def _check_slot(self, set_index: int, way: int) -> None:
        """Validate a (set, way) pair; shared guard for subclasses."""
        if not 0 <= set_index < self.num_sets:
            raise IndexError(
                f"set index {set_index} out of range [0, {self.num_sets})"
            )
        if not 0 <= way < self.ways:
            raise IndexError(f"way {way} out of range [0, {self.ways})")
