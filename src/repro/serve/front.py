"""The asyncio serving front: admission control, deadlines, service slots.

:class:`AsyncServingFront` is what sits between an open-loop arrival
stream and a :class:`~repro.online.resilience.ResilientKVCache`. It
adds the three things an overloadable service needs that the cache
itself does not provide:

* **bounded in-flight admission** — at most ``max_pending`` requests
  may be queued-or-in-service; arrivals beyond that are *shed*
  immediately (:class:`RequestShed`) instead of growing an unbounded
  queue whose tail latency diverges;
* **service concurrency** — ``concurrency`` slots (an
  ``asyncio.Semaphore``) model the server's parallel capacity; under
  overload, requests queue FIFO for a slot and the queueing delay is
  what the tail-latency report measures;
* **per-request deadlines** — the whole sojourn (queue wait + service)
  must finish by admission + ``deadline``; a request that cannot is
  cancelled and counted (:class:`RequestTimeout`), the SLO-miss signal.

Every request runs in the caller's own task. Because the deadline is
one fixed duration, expiries come due in admission order, so the
front keeps its live requests in one FIFO deadline queue served by a
single armed timer (:meth:`AsyncServingFront._expire`): a request
costs a deque append and removal, not a Task, waiter future and
``TimerHandle`` of its own, and a request the ladder answers
synchronously completes without yielding to the loop. A request turns
the cancellation its own expiry caused into :class:`RequestTimeout`;
any other cancellation propagates — on Python 3.11+ always, since the
task counts its pending cancels; before 3.11 an outside ``cancel()``
landing after the expiry's, before the request resumes, is merged
into it and reported as the timeout.

While the cache underneath is live-recovering (WAL replay in
progress), the admission bound additionally scales with the resilient
cache's :meth:`~repro.online.resilience.ResilientKVCache.serving_fraction`:
with only a fraction of shards serving, the front sheds earlier rather
than queueing depth the reduced capacity cannot drain — backpressure
that relaxes automatically as replay cursors drain and shards promote.

Each admitted request is served by the cache's async resilient ladder
(:meth:`~repro.online.resilience.ResilientKVCache.aget_or_compute`),
optionally under a shared :class:`~repro.online.resilience.RetryBudget`
so a browning-out backend cannot multiply offered load through retries.
"""

from __future__ import annotations

import asyncio
import sys
from collections import deque
from typing import Optional

from repro.online.resilience import ResilientKVCache, RetryBudget

#: ``Task.cancelling()``/``uncancel()`` (3.11+) count a task's pending
#: cancel requests: they tell an expiry's cancel from anyone else's,
#: and withdrawing the expiry's keeps a later ``asyncio.timeout`` or
#: TaskGroup in the caller's task from mistaking it for its own.
_UNCANCEL = sys.version_info >= (3, 11)

#: Fields of a deadline-queue entry, ``[expires_at, task, state,
#: cancels]``; ``cancels`` is the task's ``cancelling()`` at admission
#: (0 before 3.11).
_TASK = 1
_STATE = 2
_CANCELS = 3

#: Entry states: live; expired, its task cancelled by the expiry;
#: expired in the same timer pass as an enclosing request of the same
#: task (a loader that re-entered the front), whose one cancel covers
#: both.
_LIVE = 0
_EXPIRED = 1
_EXPIRED_INNER = 2


class RequestShed(RuntimeError):
    """The request was refused at admission: too many in flight."""


class RequestTimeout(RuntimeError):
    """The request missed its deadline and was cancelled."""


class AsyncServingFront:
    """Admission control and deadlines over the async resilient ladder.

    Args:
        resilient: the resilient cache to serve through.
        concurrency: parallel service slots (>= 1).
        max_pending: bound on requests queued-or-in-service; None
            disables shedding (an unbounded queue — only sensible when
            offered load is known to be under capacity).
        deadline: per-request sojourn deadline in seconds (queue wait
            plus service); None disables timeouts. Fixed for the
            front's life: the deadline queue relies on expiries coming
            due in admission order.
        retry_budget: optional shared retry-token pool passed through
            to the resilient ladder.
        service_time: fixed in-slot cost awaited by *every* admitted
            request, hit or miss — the server-side work of serving at
            all. With it, capacity is bounded at roughly
            ``concurrency / service_time`` even at a 100% hit ratio,
            which is what lets the harness overload the front.

    The semaphore and the deadline timer bind to the loop running the
    first request, so one front can be constructed before the loop
    exists (and a front must not be shared across loops).
    """

    def __init__(
        self,
        resilient: ResilientKVCache,
        concurrency: int = 8,
        max_pending: Optional[int] = None,
        deadline: Optional[float] = None,
        retry_budget: Optional[RetryBudget] = None,
        service_time: float = 0.0,
    ):
        if concurrency < 1:
            raise ValueError(f"concurrency must be >= 1, got {concurrency}")
        if max_pending is not None and max_pending < 1:
            raise ValueError(
                f"max_pending must be >= 1 or None, got {max_pending}"
            )
        if deadline is not None and deadline <= 0:
            raise ValueError(
                f"deadline must be positive or None, got {deadline}"
            )
        if service_time < 0:
            raise ValueError(
                f"service_time must be >= 0, got {service_time}"
            )
        self.resilient = resilient
        self.concurrency = concurrency
        self.max_pending = max_pending
        self._deadline = deadline
        self.retry_budget = retry_budget
        self.service_time = service_time
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._slots: Optional[asyncio.Semaphore] = None
        self._pending = 0
        #: Live requests' deadline entries (see ``_TASK``), in
        #: admission (= expiry) order. An entry leaves when its request
        #: settles or its deadline fires.
        self._deadlines: deque = deque()
        #: Whether the one deadline timer is scheduled.
        self._armed = False
        # Outcome counters (monotonic; read for reports). Every admitted
        # request lands in exactly one of completed, timeouts and
        # unavailable, except one cancelled from outside before its
        # deadline fired, which none counts.
        self.admitted = 0
        self.shed = 0
        self.timeouts = 0
        self.completed = 0
        self.unavailable = 0

    @property
    def deadline(self) -> Optional[float]:
        """Per-request sojourn deadline, seconds (None: no timeouts)."""
        return self._deadline

    @property
    def pending(self) -> int:
        """Requests currently queued or in service."""
        return self._pending

    async def handle(self, key, loader, ttl: Optional[float] = None):
        """Serve one request end to end.

        Raises:
            RequestShed: refused at admission (``max_pending`` hit);
                the cache never sees the request.
            RequestTimeout: deadline exceeded; the in-flight work was
                cancelled (retry tokens and breaker probes released by
                the ladder's cancellation accounting).
            LoaderUnavailable: the ladder exhausted loader, retries and
                stale fallback.
        """
        entry = self._admit(key)
        try:
            async with self._slots:
                if self.service_time > 0:
                    await asyncio.sleep(self.service_time)
                try:
                    value = await self.resilient.aget_or_compute(
                        key, loader, ttl=ttl, retry_budget=self.retry_budget
                    )
                except Exception:
                    self.unavailable += 1
                    raise
            self.completed += 1
            return value
        except asyncio.CancelledError:
            timeout = self._timeout(entry, key)
            if timeout is None:
                raise
            raise timeout from None
        finally:
            self._settle(entry)

    async def write(self, key, value, ttl: Optional[float] = None) -> None:
        """Apply one write (update/insert) under the same admission
        control, deadline and service slots as reads."""
        entry = self._admit(key)
        try:
            async with self._slots:
                if self.service_time > 0:
                    await asyncio.sleep(self.service_time)
                self.resilient.put(key, value, ttl=ttl)
            self.completed += 1
        except asyncio.CancelledError:
            timeout = self._timeout(entry, key)
            if timeout is None:
                raise
            raise timeout from None
        finally:
            self._settle(entry)

    def _admission_bound(self) -> Optional[int]:
        """The effective in-flight bound, scaled by serving capacity.

        ``max_pending * serving_fraction`` (never below 1) while some
        shards are out of service — replaying their WAL or
        quarantined; ``max_pending`` otherwise.
        """
        bound = self.max_pending
        if bound is None:
            return None
        return max(1, int(bound * self.resilient.serving_fraction()))

    def _admit(self, key) -> Optional[list]:
        """Admit one request or shed it; start its deadline.

        Returns the request's deadline entry (None without a deadline).

        Raises:
            RequestShed: ``pending`` is at the admission bound.
        """
        bound = self._admission_bound()
        if bound is not None and self._pending >= bound:
            self.shed += 1
            raise RequestShed(
                f"{self._pending} requests in flight (bound "
                f"{bound}); shedding {key!r}"
            )
        loop = self._loop
        if loop is None:
            loop = self._loop = asyncio.get_running_loop()
            self._slots = asyncio.Semaphore(self.concurrency)
        self.admitted += 1
        self._pending += 1
        if self._deadline is None:
            return None
        expires_at = loop.time() + self._deadline
        task = asyncio.current_task()
        entry = [expires_at, task, _LIVE,
                 task.cancelling() if _UNCANCEL else 0]
        self._deadlines.append(entry)
        if not self._armed:
            self._armed = True
            loop.call_at(expires_at, self._expire, expires_at)
        return entry

    def _settle(self, entry: Optional[list]) -> None:
        """Release a finished request's place and its deadline entry.

        An expired request's entry already left the queue; on 3.11+ the
        cancel request its expiry made is withdrawn here, whether the
        request raised or its loader swallowed the cancellation.
        """
        self._pending -= 1
        if entry is None:
            return
        state = entry[_STATE]
        if state == _LIVE:
            deadlines = self._deadlines
            if deadlines[0] is entry:
                deadlines.popleft()
            else:
                # Found by identity, not equality: a loader that
                # re-enters the front adds a second entry for the same
                # task, equal to the first when admitted at the same
                # instant.
                del deadlines[next(index for index, other
                                   in enumerate(deadlines)
                                   if other is entry)]
        elif state == _EXPIRED and _UNCANCEL:
            entry[_TASK].uncancel()

    def _expire(self, when: float) -> None:
        """The deadline timer: cancel every request due by now, then
        re-arm for the earliest live one.

        ``when`` is the time the timer was armed for; a real loop may
        run a timer up to its clock resolution early, and the entry it
        was armed for is due all the same. A task is cancelled once per
        pass: entries of one task are nested requests (a loader that
        re-entered the front), and the outermost one's cancel unwinds
        them all.
        """
        now = max(when, self._loop.time())
        deadlines = self._deadlines
        cancelled = set()
        while deadlines and deadlines[0][0] <= now:
            entry = deadlines.popleft()
            task = entry[_TASK]
            if task in cancelled:
                entry[_STATE] = _EXPIRED_INNER
            else:
                cancelled.add(task)
                entry[_STATE] = _EXPIRED
                task.cancel()
        if deadlines:
            when = deadlines[0][0]
            self._loop.call_at(when, self._expire, when)
        else:
            self._armed = False

    def _timeout(self, entry: Optional[list],
                 key) -> Optional[RequestTimeout]:
        """Account a request that a ``CancelledError`` is unwinding.

        Returns None for a request whose deadline has not fired: the
        cancellation came from outside and propagates uncounted. An
        expired request counts one timeout, and the error returned is
        raised in the cancellation's place — unless the cancellation
        is not the expiry's alone: an enclosing request's expiry
        unwinding an inner one, or (3.11+) another cancel of the
        caller's task pending besides the expiry's, which then
        propagates as it came.

        Before 3.11 a task keeps no count of pending cancels, so an
        outside ``cancel()`` that lands after the expiry's but before
        the request resumes merges into it and is reported as the
        ``RequestTimeout``.
        """
        if entry is None:
            return None
        state = entry[_STATE]
        if state == _LIVE:
            return None
        self.timeouts += 1
        if state == _EXPIRED_INNER or (
            _UNCANCEL
            and entry[_TASK].cancelling() > entry[_CANCELS] + 1
        ):
            return None
        return RequestTimeout(
            f"request for {key!r} missed its "
            f"{self._deadline * 1000.0:.1f} ms deadline"
        )

    def counters(self) -> dict:
        """One dict of the front's outcome counters."""
        return {
            "admitted": self.admitted,
            "completed": self.completed,
            "shed": self.shed,
            "timeouts": self.timeouts,
            "unavailable": self.unavailable,
        }
