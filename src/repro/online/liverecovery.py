"""Live recovery: serve traffic while the write-ahead log replays.

:func:`~repro.online.persistence.recover` is stop-the-world — it
materializes the snapshot and replays the whole WAL before a single
request is served. For a cache holding workload-shaped selector and
history state that stall is exactly the wrong trade: the state exists
to keep serving well. :class:`LiveRecoveringKVCache` replays the same
snapshot + WAL chain **incrementally**, in bounded chunks interleaved
with request service, and converges to a state byte-identical to
stop-the-world recovery.

The correctness argument rests on shard independence:

* In ``"adaptive"`` and fixed modes every shard is a self-contained
  replica of the paper's machinery — no cross-shard state. Replay
  therefore proceeds **shard by shard** (per-shard replay cursors over
  a one-pass positional index of the WAL chain), preserving each
  shard's record order exactly while permuting the commuting
  cross-shard order. A shard whose cursor is exhausted is *ready*: its
  state equals what stop-the-world recovery would produce, so it
  serves (and logs) traffic normally while later shards still replay.
  Batched ``gmany`` records are split per shard — the engine's
  ``get_many`` groups keys by shard preserving per-shard key order, so
  applying a record's shard-local key subset raises exactly the events
  the full batch would.
* In ``"sampled"`` mode leader shards vote into one
  :class:`~repro.core.selector.GlobalSelector`, and live traffic on an
  early-promoted leader would inject votes that reorder against
  not-yet-replayed records. Replay then runs in global log order and
  no shard serves normally until the chain is drained — reads degrade
  to the honest recovering path below, writes defer; the engine's
  decision stream stays identical to the reference.

While a shard is still replaying:

* **Reads** are served honestly from what is actually known — a
  pending (acked but deferred) write, else a non-destructive
  ``peek_stale`` of the partially replayed shard — and otherwise
  refused with :class:`RecoveryInProgress`. These paths raise no
  policy events, are never logged, and count into wrapper-level
  :class:`LiveRecoveryStats` — engine hit/miss counters never inflate
  and the engine state stays byte-identical to the reference.
* **Writes** are dual-logged: the record is appended to the newest WAL
  (after its torn tail was truncated at open) *before* the op is
  acknowledged, then queued per shard and applied the moment the
  shard's cursor drains. A second crash mid-recovery recovers by
  replaying the original intact prefix followed by the accepted live
  ops — the reference order — so acked writes survive.

The class subclasses :class:`~repro.online.persistence.PersistentKVCache`
and overrides only its lock-held logged bodies, each with one branch
for a key on a replaying shard; a key on a ready shard runs the
persistence layer's body unchanged. Once every cursor drains and all
pending writes are applied the wrapper behaves exactly as a
``PersistentKVCache``: automatic snapshot rotation re-arms and every
key takes the plain logged path.

TTL caveat: replay applies records at recovery time, as any recovery
(including stop-the-world at a later wall clock) does; with per-entry
TTLs the identity guarantee holds under a frozen clock — drive the
engine with a virtual ``clock`` if expiry during the replay window
matters.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import BinaryIO, Callable, Dict, List, Optional, Tuple

from repro.online.persistence import (
    PersistentKVCache,
    _read_frame,
    _wal_name,
    apply_wal_record,
    iter_wal,
    load_snapshot_engine,
)

#: Pending-view marker for a deferred delete.
_TOMBSTONE = object()
#: Default marking a recovering read that must raise, not fall back.
_REFUSE = object()


class RecoveryInProgress(RuntimeError):
    """Read refused: the key's shard has not finished WAL replay.

    Raised instead of serving a value the replayed prefix cannot yet
    vouch for. Callers (the resilient ladder, the serving front) treat
    it as an honest unavailability, never as a miss.
    """


@dataclass
class LiveRecoveryStats:
    """Wrapper-level counters for one live recovery.

    Kept outside the engine on purpose: engine counters are part of
    the persisted ``state_dict``, so recovery bookkeeping must not
    touch them or the byte-identity guarantee breaks.
    """

    #: Replay work items indexed from the WAL chain (a ``gmany`` record
    #: counts once per shard it touches in per-shard order).
    total_records: int = 0
    #: Work items applied so far.
    applied_records: int = 0
    #: Writes accepted (logged durable) but queued for a replaying shard.
    deferred_writes: int = 0
    #: Reads answered from pending writes or a stale peek of a
    #: partially replayed shard.
    stale_serves: int = 0
    #: Reads refused because nothing trustworthy was available (a
    #: deferred delete included).
    refused_reads: int = 0


class LiveRecoveringKVCache(PersistentKVCache):
    """A :class:`PersistentKVCache` that recovers while serving.

    Construct it on a persistence directory (where stop-the-world
    :func:`~repro.online.persistence.recover` would run), then call
    :meth:`step` on whatever cadence the serving loop can afford; each
    call replays at most ``chunk_ops`` WAL records. Probe readiness
    with :meth:`shard_serving` / :meth:`serving_fraction` /
    :meth:`replay_progress`; :meth:`finish` drains synchronously.

    Args:
        directory: persistence directory of the crashed run.
        chunk_ops: default replay records per :meth:`step`.
        snapshot_every: automatic-snapshot cadence once recovery
            completes (rotation is held off during replay — a snapshot
            of a half-replayed engine would orphan the unreplayed
            suffix).
        wal_flush_ops: WAL flush cadence; 1 makes every accepted write
            durable before it is acknowledged.
        sizeof / history_factory / clock: engine overrides, as in
            :func:`~repro.online.persistence.recover`.
    """

    def __init__(
        self,
        directory: str,
        chunk_ops: int = 256,
        snapshot_every: Optional[int] = 10_000,
        wal_flush_ops: int = 64,
        sizeof: Optional[Callable] = None,
        history_factory=None,
        clock: Callable[[], float] = None,
    ):
        if chunk_ops <= 0:
            raise ValueError(f"chunk_ops must be positive, got {chunk_ops}")
        if snapshot_every is not None and snapshot_every <= 0:
            raise ValueError(
                f"snapshot_every must be positive, got {snapshot_every}"
            )
        directory = os.fspath(directory)
        cache, loaded_gen, latest = load_snapshot_engine(
            directory,
            sizeof=sizeof,
            history_factory=history_factory,
            clock=clock,
        )
        self.chunk_ops = chunk_ops
        self._target_snapshot_every = snapshot_every
        self._recovering = True
        # Sampled mode couples leader shards through the global
        # selector: replay must keep global log order and no shard may
        # serve (and vote) early.
        self._global_order = cache.mode == "sampled"
        num_shards = cache.num_shards

        # One streaming pass over the WAL chain builds a positional
        # index — (generation, start offset, shard) per work item, ints
        # only, never the decoded records. Records are re-read lazily
        # during replay.
        items: List[Tuple[int, int, Optional[int]]] = []
        per_shard: List[List[Tuple[int, int, Optional[int]]]] = [
            [] for _ in range(num_shards)
        ]
        for generation in range(loaded_gen, latest + 1):
            path = os.path.join(directory, _wal_name(generation))
            start = 0
            for record, end in iter_wal(path):
                if self._global_order:
                    items.append((generation, start, None))
                else:
                    for index in _record_shards(record, cache.shard_index):
                        per_shard[index].append((generation, start, index))
                start = end
        if not self._global_order:
            # Shard-major order: shard 0 drains (and starts serving)
            # first, then shard 1, ... — progressive readiness.
            for queue in per_shard:
                items.extend(queue)
        self._items = items
        self._cursor = 0
        self._shard_remaining = [len(queue) for queue in per_shard]
        self._serving = [False] * num_shards
        # Deferred writes as (shard, op) in acceptance order. Promoted
        # shards apply theirs in that order — in sampled mode all shards
        # at once, so leader votes reach the global selector in the
        # order a post-crash replay would cast them.
        self._pending: List[Tuple[int, tuple]] = []
        self._pending_view: List[dict] = [{} for _ in range(num_shards)]
        self._readers: Dict[int, BinaryIO] = {}
        self.recovery = LiveRecoveryStats(total_records=len(items))

        # ``start`` is now the intact length of the newest WAL. The
        # superclass truncates its torn tail and appends at the intact
        # end: accepted live ops dual-log right after the prefix replay
        # reads from.
        super().__init__(
            cache,
            directory,
            snapshot_every=None,
            wal_flush_ops=wal_flush_ops,
            _generation=latest,
            _wal_offset=start,
        )
        with self._lock:
            self._promote_locked()

    # ------------------------------------------------------------------
    # Replay control and readiness probes
    # ------------------------------------------------------------------

    @property
    def recovering(self) -> bool:
        """Whether WAL replay is still in progress."""
        return self._recovering

    def serving_fraction(self) -> float:
        """Fraction of shards serving normally, 0.0..1.0."""
        return sum(self._serving) / len(self._serving)

    def pending_writes(self) -> int:
        """Accepted writes still queued for replaying shards."""
        return len(self._pending)

    def replay_progress(self) -> dict:
        """Snapshot of the recovery's progress and honesty counters."""
        with self._lock:
            return {
                "recovering": self._recovering,
                "total_records": self.recovery.total_records,
                "applied_records": self.recovery.applied_records,
                "num_shards": self.cache.num_shards,
                "serving_shards": sum(self._serving),
                "pending_writes": len(self._pending),
                "deferred_writes": self.recovery.deferred_writes,
                "stale_serves": self.recovery.stale_serves,
                "refused_reads": self.recovery.refused_reads,
            }

    def step(self, max_ops: Optional[int] = None) -> int:
        """Replay up to ``max_ops`` records (default ``chunk_ops``).

        Returns the number applied; 0 once recovery is complete.
        Newly drained shards have their pending writes applied and
        start serving before the call returns.
        """
        with self._lock:
            if not self._recovering:
                return 0
            budget = self.chunk_ops if max_ops is None else max_ops
            applied = 0
            while applied < budget and self._cursor < len(self._items):
                generation, start, shard = self._items[self._cursor]
                record = self._read_record_at(generation, start)
                self._apply_item_locked(record, shard)
                if shard is not None:
                    self._shard_remaining[shard] -= 1
                self._cursor += 1
                applied += 1
            self.recovery.applied_records += applied
            self._promote_locked()
            return applied

    def finish(self) -> None:
        """Drain the remaining replay synchronously."""
        while self._recovering:
            self.step()

    def close(self) -> None:
        """Close replay readers, flush the WAL, release handles."""
        with self._lock:
            self._close_readers_locked()
        super().close()

    # ------------------------------------------------------------------
    # Store surface and serving: only the replaying-shard branch
    # ------------------------------------------------------------------

    def shard_serving(self, index: int) -> bool:
        """Whether ``index``'s shard serves normally (replay drained).

        While this is False, an access to the shard takes the honest
        recovering path — stale-marked or refused, and *not logged*.
        A caller that needs every access applied and logged (e.g. a
        resumed deterministic stream) should :meth:`step` until this
        turns True before issuing the access.
        """
        return self._serving[index]

    def rebuild_shard(self, index: int, shard_state: Optional[dict] = None):
        """Durable shard rebuild, refused while the WAL replays.

        The rebuild is made durable by a snapshot rotation, and a
        snapshot of a half-replayed engine would orphan the unreplayed
        suffix — the reason rotation is held off during replay.

        Raises:
            RecoveryInProgress: replay has not finished.
        """
        if self._recovering:
            raise RecoveryInProgress(
                f"cannot rebuild shard {index} while the WAL replays"
            )
        return super().rebuild_shard(index, shard_state)

    def recovering_read(self, key):
        """Value for ``key`` by the recovering rules, however degraded.

        The resilient ladder's entry point for keys on replaying
        shards: pending write, else stale peek, else
        :class:`RecoveryInProgress`. Raises no policy events and logs
        nothing.
        """
        index = self.cache.shard_index(key)
        with self._lock:
            return self._recovering_read_locked(index, key)

    def __contains__(self, key) -> bool:
        """Residency probe; consults pending writes while recovering."""
        if self._recovering:
            with self._lock:
                index = self._replaying(key)
                if index is not None:
                    view = self._pending_view[index]
                    if key in view:
                        return view[key] is not _TOMBSTONE
        return key in self.cache

    # ------------------------------------------------------------------
    # Logged bodies (caller holds the wrapper lock): a key on a ready
    # shard runs the persistence layer's body unchanged
    # ------------------------------------------------------------------

    def _replaying(self, key) -> Optional[int]:
        """``key``'s shard index while that shard replays, else None."""
        if not self._recovering:
            return None
        index = self.cache.shard_index(key)
        return None if self._serving[index] else index

    def _get_locked(self, key, default):
        index = self._replaying(key)
        if index is None:
            return super()._get_locked(key, default)
        return self._recovering_read_locked(index, key, default)

    def _get_many_locked(self, keys: list, default) -> list:
        if self._recovering and any(
            self._replaying(key) is not None for key in keys
        ):
            # Split per key: ready shards log a plain get each.
            return [self._get_locked(key, default) for key in keys]
        return super()._get_many_locked(keys, default)

    def _get_or_compute_locked(self, key, compute, ttl):
        # Never compute into a replaying shard: the fill would land
        # before replay reaches its position, breaking identity with
        # the reference.
        index = self._replaying(key)
        if index is None:
            return super()._get_or_compute_locked(key, compute, ttl)
        return self._recovering_read_locked(index, key)

    def _log_write_locked(self, op: tuple) -> bool:
        # A write to a replaying shard is logged now (durable before it
        # is acknowledged) and applied when the shard's cursor drains.
        index = self._replaying(op[1])
        if index is None:
            return super()._log_write_locked(op)
        self._log(op)
        self._pending.append((index, op))
        self._pending_view[index][op[1]] = (
            op[2] if op[0] == "put" else _TOMBSTONE
        )
        self.recovery.deferred_writes += 1
        # Not applied now; a deferred delete also reports False, since
        # residency at apply time is unknowable.
        return False

    def _recovering_read_locked(self, index: int, key, default=_REFUSE):
        """Pending write, else stale peek of the partial shard.

        Counts a stale serve when either answers; otherwise — a
        deferred delete included — counts a refusal and returns
        ``default``, or raises :class:`RecoveryInProgress` without one.
        """
        view = self._pending_view[index]
        if key in view:
            value = view[key]
            found = value is not _TOMBSTONE
        else:
            found, value = self.cache.shards[index].peek_stale(key)
        if found:
            self.recovery.stale_serves += 1
            return value
        self.recovery.refused_reads += 1
        if default is _REFUSE:
            raise RecoveryInProgress(
                f"shard {index} is still replaying its WAL prefix"
            )
        return default

    def _apply_item_locked(
        self, record: tuple, shard: Optional[int]
    ) -> None:
        if shard is not None and record[0] == "gmany":
            # Per-shard replay of a batched get: apply only this
            # shard's key subset — the engine groups by shard anyway,
            # so the shard sees exactly the events of the full batch.
            shard_index = self.cache.shard_index
            self.cache.get_many(
                [key for key in record[1] if shard_index(key) == shard]
            )
        else:
            apply_wal_record(self.cache, record)

    def _promote_locked(self) -> None:
        done = self._cursor >= len(self._items)
        ready = {
            index
            for index in range(self.cache.num_shards)
            if not self._serving[index]
            and (done if self._global_order
                 else self._shard_remaining[index] == 0)
        }
        if ready:
            # Apply the ready shards' acked-but-deferred writes in
            # acceptance order; they were logged at accept time, so a
            # later crash replays them in exactly this position.
            waiting = []
            for index, op in self._pending:
                if index in ready:
                    apply_wal_record(self.cache, op)
                else:
                    waiting.append((index, op))
            self._pending = waiting
            for index in ready:
                self._pending_view[index] = {}
                self._serving[index] = True
        if done and all(self._serving):
            self._complete_locked()

    def _complete_locked(self) -> None:
        self._recovering = False
        self._items = []
        self._close_readers_locked()
        # Re-arm automatic rotation; the accumulated op count means the
        # next logged operation compacts the recovered chain into a
        # fresh snapshot generation.
        self.snapshot_every = self._target_snapshot_every

    def _close_readers_locked(self) -> None:
        for handle in self._readers.values():
            handle.close()
        self._readers.clear()

    def _read_record_at(self, generation: int, start: int) -> tuple:
        reader = self._readers.get(generation)
        if reader is None:
            path = self._path(_wal_name(generation))
            reader = self._readers[generation] = open(path, "rb")
        reader.seek(start)
        frame = _read_frame(reader)
        if frame is None:
            raise RuntimeError(
                f"WAL record at generation {generation} offset {start} "
                "changed underneath live recovery"
            )
        return frame[0]


def _record_shards(record: tuple, shard_index: Callable) -> List[int]:
    """Shards a WAL record raises events on, in first-touch order."""
    if record[0] == "gmany":
        return list(dict.fromkeys(shard_index(key) for key in record[1]))
    return [shard_index(record[1])]


def live_recover(directory: str, **kwargs) -> LiveRecoveringKVCache:
    """Open ``directory`` for live recovery (constructor convenience)."""
    return LiveRecoveringKVCache(directory, **kwargs)
