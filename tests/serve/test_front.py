"""The async serving front: admission, deadlines, slots, counters."""

from __future__ import annotations

import asyncio
import sys

import pytest

from repro.online.engine import AdaptiveKVCache
from repro.online.liverecovery import LiveRecoveringKVCache
from repro.online.persistence import PersistentKVCache
from repro.online.resilience import (
    CircuitBreaker,
    LoaderUnavailable,
    ResilientKVCache,
    RetryBudget,
    RetryPolicy,
)
from repro.serve.front import AsyncServingFront, RequestShed, RequestTimeout
from repro.serve.vloop import VirtualTimeEventLoop


def make_front(loop, retry=None, breaker=None, shards=4, **kwargs):
    engine = AdaptiveKVCache(capacity_entries=64, num_shards=shards,
                             clock=loop.time)
    resilient = ResilientKVCache(
        engine, retry=retry or RetryPolicy(attempts=1),
        breaker_factory=breaker, clock=loop.time,
    )
    return AsyncServingFront(resilient, **kwargs)


def slow_loader(delay):
    async def loader(key):
        await asyncio.sleep(delay)
        return ("v", key)

    return loader


class TestServing:
    def test_hit_after_miss(self):
        loop = VirtualTimeEventLoop()
        front = make_front(loop, concurrency=2)
        loader = slow_loader(0.01)

        async def main():
            first = await front.handle("k", loader)
            second = await front.handle("k", loader)
            return first, second, loop.time()

        first, second, elapsed = loop.run_until_complete(main())
        assert first == second == ("v", "k")
        # Only the miss paid the loader's latency; the hit was free.
        assert elapsed == pytest.approx(0.01)
        assert front.completed == 2
        assert front.counters()["admitted"] == 2

    def test_write_then_read_hits_without_loader(self):
        loop = VirtualTimeEventLoop()
        front = make_front(loop, concurrency=2)

        async def never(key):
            raise AssertionError("loader must not run on a hit")

        async def main():
            await front.write("k", "stored")
            return await front.handle("k", never)

        assert loop.run_until_complete(main()) == "stored"
        assert front.completed == 2

    def test_service_time_bounds_capacity(self):
        loop = VirtualTimeEventLoop()
        front = make_front(loop, concurrency=2, service_time=0.1)

        async def main():
            await asyncio.gather(*(
                asyncio.get_running_loop().create_task(
                    front.write(f"k{i}", i)
                )
                for i in range(8)
            ))
            return loop.time()

        # 8 writes, 2 slots, 0.1 s each: exactly 0.4 virtual seconds.
        assert loop.run_until_complete(main()) == pytest.approx(0.4)


class TestShedding:
    def test_sheds_beyond_max_pending(self):
        loop = VirtualTimeEventLoop()
        front = make_front(loop, concurrency=1, max_pending=2)
        loader = slow_loader(1.0)
        outcomes = []

        async def one(i):
            try:
                await front.handle(f"k{i}", loader)
                outcomes.append("ok")
            except RequestShed:
                outcomes.append("shed")

        async def main():
            inner = asyncio.get_running_loop()
            await asyncio.gather(*(inner.create_task(one(i))
                                   for i in range(5)))

        loop.run_until_complete(main())
        assert outcomes.count("shed") == 3
        assert outcomes.count("ok") == 2
        assert front.shed == 3
        assert front.admitted == 2
        assert front.pending == 0

    def test_no_shedding_when_unbounded(self):
        loop = VirtualTimeEventLoop()
        front = make_front(loop, concurrency=1, max_pending=None)
        loader = slow_loader(0.5)

        async def main():
            inner = asyncio.get_running_loop()
            await asyncio.gather(*(
                inner.create_task(front.handle(f"k{i}", loader))
                for i in range(4)
            ))

        loop.run_until_complete(main())
        assert front.shed == 0
        assert front.completed == 4


class TestDeadlines:
    def test_timeout_counts_and_raises(self):
        loop = VirtualTimeEventLoop()
        front = make_front(loop, concurrency=1, deadline=0.2)
        loader = slow_loader(1.0)

        async def main():
            with pytest.raises(RequestTimeout):
                await front.handle("k", loader)
            return loop.time()

        assert loop.run_until_complete(main()) == pytest.approx(0.2)
        assert front.timeouts == 1
        assert front.completed == 0
        assert front.pending == 0

    def test_queue_wait_counts_against_deadline(self):
        loop = VirtualTimeEventLoop()
        front = make_front(loop, concurrency=1, deadline=0.3)
        loader = slow_loader(0.2)
        outcomes = []

        async def one(i):
            try:
                await front.handle(f"k{i}", loader)
                outcomes.append(("ok", i))
            except RequestTimeout:
                outcomes.append(("timeout", i))

        async def main():
            inner = asyncio.get_running_loop()
            await asyncio.gather(*(inner.create_task(one(i))
                                   for i in range(3)))

        loop.run_until_complete(main())
        # First serves in 0.2 s; second waits 0.2 then misses its 0.3 s
        # deadline mid-service at 0.3; third would also blow through.
        assert ("ok", 0) in outcomes
        assert ("timeout", 1) in outcomes
        assert front.timeouts == 2

    def test_deadline_none_never_times_out(self):
        loop = VirtualTimeEventLoop()
        front = make_front(loop, concurrency=1, deadline=None)
        loader = slow_loader(10.0)

        async def main():
            return await front.handle("k", loader)

        assert loop.run_until_complete(main()) == ("v", "k")
        assert front.timeouts == 0


class TestDeadlineQueue:
    """One FIFO deadline queue and one armed timer serve every request
    in the caller's own task."""

    def test_external_cancel_is_not_a_timeout(self):
        loop = VirtualTimeEventLoop()
        front = make_front(loop, concurrency=1, deadline=1.0)

        async def main():
            inner = asyncio.get_running_loop()
            task = inner.create_task(front.handle("k", slow_loader(5.0)))
            await asyncio.sleep(0.3)
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            cancelled_at = loop.time()
            # The timer armed for the cancelled request fires at 1.0
            # mid-way through this one, and must leave it alone.
            await asyncio.sleep(0.5)
            value = await front.handle("j", slow_loader(0.5))
            return cancelled_at, value, loop.time()

        cancelled_at, value, finished = loop.run_until_complete(main())
        assert cancelled_at == pytest.approx(0.3)
        assert value == ("v", "j")
        assert finished == pytest.approx(1.3)
        assert front.timeouts == 0
        assert front.completed == 1
        assert front.pending == 0
        assert not front._deadlines

    def test_expiry_mid_loader_returns_the_retry_token(self):
        loop = VirtualTimeEventLoop()
        breakers = []

        def factory():
            breakers.append(CircuitBreaker(failure_threshold=5,
                                           recovery_timeout=9.0,
                                           clock=loop.time))
            return breakers[-1]

        budget = RetryBudget(tokens=2)
        front = make_front(loop, retry=RetryPolicy(attempts=3,
                                                   backoff=0.01),
                           breaker=factory, shards=1, deadline=0.5,
                           retry_budget=budget)
        calls = []

        async def fails_then_hangs(key):
            calls.append(loop.time())
            if len(calls) == 1:
                raise IOError("down")
            await asyncio.sleep(100.0)

        async def main():
            inner = asyncio.get_running_loop()
            task = inner.create_task(front.handle("k", fails_then_hangs))
            await asyncio.sleep(0.25)
            assert budget.in_use == 1  # the retry holds a token
            with pytest.raises(RequestTimeout):
                await task
            return loop.time()

        assert loop.run_until_complete(main()) == pytest.approx(0.5)
        assert calls == [0.0, pytest.approx(0.01)]
        assert budget.in_use == 0
        with pytest.raises(RuntimeError, match="released more"):
            budget.release()
        # One real failure recorded; the expiry recorded no outcome.
        assert breakers[0].state == "closed"
        assert breakers[0]._failures == 1
        assert front.timeouts == 1

    def test_expiry_mid_probe_aborts_the_probe(self):
        loop = VirtualTimeEventLoop()
        front = make_front(
            loop,
            breaker=lambda: CircuitBreaker(failure_threshold=1,
                                           recovery_timeout=0.5,
                                           clock=loop.time),
            shards=1, deadline=0.2,
        )
        breaker = front.resilient.breakers[0]

        async def failing(key):
            raise IOError("down")

        async def main():
            with pytest.raises(LoaderUnavailable):
                await front.handle("trip", failing)
            assert breaker.state == "open"
            await asyncio.sleep(0.6)  # -> half-open
            admitted_at = loop.time()
            with pytest.raises(RequestTimeout):
                await front.handle("probe", slow_loader(100.0))
            return admitted_at, loop.time()

        admitted_at, raised_at = loop.run_until_complete(main())
        assert raised_at == pytest.approx(admitted_at + 0.2)
        # The expired probe released its slot: the next caller probes.
        assert breaker.admit() == (True, True)
        assert front.counters() == {"admitted": 2, "completed": 0,
                                    "shed": 0, "timeouts": 1,
                                    "unavailable": 1}

    def test_expiry_while_queued_frees_the_queue(self):
        loop = VirtualTimeEventLoop()
        front = make_front(loop, concurrency=1, deadline=0.5)
        loaded = []

        def recording(delay):
            async def loader(key):
                loaded.append((key, loop.time()))
                await asyncio.sleep(delay)
                return ("v", key)
            return loader

        outcomes = {}

        async def one(key, delay):
            try:
                outcomes[key] = await front.handle(key, recording(delay))
            except RequestTimeout:
                outcomes[key] = ("timeout", loop.time())

        async def main():
            inner = asyncio.get_running_loop()
            # "a" holds the only slot past its deadline; "b", admitted
            # with it, expires in the queue at the same instant; "c"
            # must then get the slot and finish inside its own deadline.
            tasks = [inner.create_task(one("a", 10.0)),
                     inner.create_task(one("b", 0.01))]
            await asyncio.sleep(0.2)
            tasks.append(inner.create_task(one("c", 0.05)))
            await asyncio.gather(*tasks)
            return loop.time()

        assert loop.run_until_complete(main()) == pytest.approx(0.55)
        assert outcomes["a"] == ("timeout", pytest.approx(0.5))
        assert outcomes["b"] == ("timeout", pytest.approx(0.5))
        assert outcomes["c"] == ("v", "c")
        assert [key for key, _ in loaded] == ["a", "c"]
        assert loaded[1][1] == pytest.approx(0.5)
        assert front.timeouts == 2
        assert front.completed == 1
        assert front.pending == 0

    def test_each_timeout_at_admission_plus_deadline(self):
        loop = VirtualTimeEventLoop()
        deadline = 0.3
        front = make_front(loop, concurrency=8, deadline=deadline)
        expiries = []

        async def miss(key):
            admitted = loop.time()
            with pytest.raises(RequestTimeout):
                await front.handle(key, slow_loader(1.0))
            expiries.append(loop.time() - admitted)

        async def main():
            inner = asyncio.get_running_loop()
            for i in range(4):
                await front.write(f"hot{i}", i)
            misses = []
            for i in range(12):
                misses.append(inner.create_task(miss(f"cold{i}")))
                # Hits in between complete at once, never waiting out
                # anyone's deadline.
                started = loop.time()
                assert await front.handle(f"hot{i % 4}", None) == i % 4
                assert loop.time() == started
                await asyncio.sleep(0.04 if i % 3 else 0.07)
            await asyncio.gather(*misses)

        loop.run_until_complete(main())
        assert expiries == [pytest.approx(deadline, abs=1e-9)] * 12
        assert front.timeouts == 12
        assert front.completed == 4 + 12

    def test_reentrant_request_settles_its_own_entry(self):
        loop = VirtualTimeEventLoop()
        front = make_front(loop, concurrency=2, deadline=0.5)

        async def inner_loader(key):
            return ("inner", key)

        async def outer_loader(key):
            # Admitted by the same task at the same instant as "outer",
            # so the two deadline entries compare equal.
            assert await front.handle("inner", inner_loader) == (
                "inner", "inner")
            await asyncio.sleep(1.0)

        async def main():
            with pytest.raises(RequestTimeout):
                await front.handle("outer", outer_loader)
            return loop.time()

        assert loop.run_until_complete(main()) == pytest.approx(0.5)
        assert front.completed == 1
        assert front.timeouts == 1
        assert not front._deadlines

    @pytest.mark.parametrize("uncancel", [
        False,
        pytest.param(True, marks=pytest.mark.skipif(
            sys.version_info < (3, 11),
            reason="Task.cancelling()/uncancel() need 3.11+")),
    ])
    def test_reentrant_requests_expiring_together_both_time_out(
            self, monkeypatch, uncancel):
        import repro.serve.front as front_mod

        # Without uncancel() this is the pre-3.11 path, on any version.
        monkeypatch.setattr(front_mod, "_UNCANCEL", uncancel)
        loop = VirtualTimeEventLoop()
        front = make_front(
            loop,
            breaker=lambda: CircuitBreaker(failure_threshold=1,
                                           recovery_timeout=9.0,
                                           clock=loop.time),
            shards=1, concurrency=2, deadline=0.5,
        )

        async def outer_loader(key):
            # Admitted by the same task at the same instant: both
            # entries expire in one timer pass.
            return await front.handle("inner", slow_loader(5.0))

        async def main():
            with pytest.raises(RequestTimeout):
                await front.handle("outer", outer_loader)
            if uncancel:
                assert asyncio.current_task().cancelling() == 0
            return loop.time()

        assert loop.run_until_complete(main()) == pytest.approx(0.5)
        # The inner request unwound as a cancellation, not a loader
        # failure: the breaker saw no outcome, and both are timeouts.
        assert front.resilient.breakers[0].state == "closed"
        assert front.resilient.breakers[0]._failures == 0
        assert front.counters() == {"admitted": 2, "completed": 0,
                                    "shed": 0, "timeouts": 2,
                                    "unavailable": 0}
        assert front.pending == 0
        assert not front._deadlines

    def test_queue_bounded_by_pending_and_empty_when_idle(self):
        loop = VirtualTimeEventLoop()
        front = make_front(loop, concurrency=2, max_pending=6,
                           deadline=0.2, service_time=0.01)
        samples = []

        def sample():
            samples.append((len(front._deadlines), front.pending))

        def sampled(delay):
            async def loader(key):
                sample()
                await asyncio.sleep(delay)
                sample()
                return ("v", key)
            return loader

        async def one(i):
            try:
                await front.handle(f"k{i}", sampled(0.06 * (i % 5)))
            except (RequestShed, RequestTimeout):
                pass
            sample()

        async def monitor(until):
            while loop.time() < until:
                sample()
                await asyncio.sleep(0.005)

        async def main():
            inner = asyncio.get_running_loop()
            watcher = inner.create_task(monitor(1.0))
            burst = []
            for i in range(40):
                burst.append(inner.create_task(one(i)))
                await asyncio.sleep(0.01 * (i % 3))
            await asyncio.gather(*burst)
            await watcher
            idle = len(front._deadlines), front.pending, front._armed
            await asyncio.sleep(1.0)  # past every deadline
            return idle, front._armed

        (queue, pending, armed), later = loop.run_until_complete(main())
        counters = front.counters()
        assert counters["timeouts"] > 0 and counters["shed"] > 0
        assert (counters["completed"] + counters["shed"]
                + counters["timeouts"] + counters["unavailable"]) == 40
        assert all(length <= live for length, live in samples)
        assert max(length for length, _ in samples) > 1
        assert (queue, pending) == (0, 0)
        # The one timer disarms once it fires on an empty queue.
        assert later is False

    def test_hits_arm_one_timer_and_create_no_task(self):
        loop = VirtualTimeEventLoop()
        front = make_front(loop, concurrency=8, deadline=0.1)
        timers = []
        tasks = []
        call_at = loop.call_at
        create_task = loop.create_task

        async def main():
            await front.write("k", "v")
            loop.call_at = lambda *a, **k: timers.append(a) or call_at(
                *a, **k)
            loop.create_task = lambda *a, **k: tasks.append(a) or (
                create_task(*a, **k))
            for _ in range(500):
                assert await front.handle("k", None) == "v"
            # Each hit completed without yielding: no time passed.
            return loop.time()

        assert loop.run_until_complete(main()) == 0.0
        assert front.completed == 501
        assert timers == []  # the write's timer still covers them all
        assert tasks == []
        assert len(front._deadlines) == 0


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="Task.cancelling()/uncancel() need 3.11+")
class TestDeadlineCancelCount:
    def test_timeout_leaves_no_cancel_request_behind(self):
        loop = VirtualTimeEventLoop()
        front = make_front(loop, concurrency=1, deadline=0.2)

        async def main():
            task = asyncio.current_task()
            with pytest.raises(RequestTimeout):
                await front.handle("k", slow_loader(1.0))
            assert task.cancelling() == 0
            # A later timeout scope in the same task works as usual.
            async with asyncio.timeout(1.0):
                await asyncio.sleep(0.5)
            return loop.time()

        assert loop.run_until_complete(main()) == pytest.approx(0.7)

    def test_simultaneous_external_cancel_wins(self):
        loop = VirtualTimeEventLoop()
        front = make_front(loop, concurrency=1, deadline=0.2)

        async def main():
            inner = asyncio.get_running_loop()
            task = inner.create_task(front.handle("k", slow_loader(1.0)))
            await asyncio.sleep(0)  # admitted; its timer is armed
            # Scheduled after the deadline timer, at the same instant.
            inner.call_at(0.2, task.cancel)
            with pytest.raises(asyncio.CancelledError):
                await task

        loop.run_until_complete(main())
        # Its deadline fired, so it counts as a timeout all the same.
        assert front.counters() == {"admitted": 1, "completed": 0,
                                    "shed": 0, "timeouts": 1,
                                    "unavailable": 0}
        assert front.pending == 0

    def test_admitted_while_cancelling_still_times_out(self):
        loop = VirtualTimeEventLoop()
        front = make_front(loop, concurrency=1, deadline=0.2)

        async def main():
            task = asyncio.current_task()
            task.cancel()
            try:
                await asyncio.sleep(0)
            except asyncio.CancelledError:
                pass  # swallowed without uncancel()
            assert task.cancelling() == 1
            with pytest.raises(RequestTimeout):
                await front.handle("k", slow_loader(1.0))
            assert task.cancelling() == 1
            return loop.time()

        assert loop.run_until_complete(main()) == pytest.approx(0.2)
        assert front.counters() == {"admitted": 1, "completed": 0,
                                    "shed": 0, "timeouts": 1,
                                    "unavailable": 0}

    def test_swallowed_expiry_restores_the_cancel_count(self):
        loop = VirtualTimeEventLoop()
        front = make_front(loop, concurrency=1, deadline=0.2)

        async def stubborn(key):
            try:
                await asyncio.sleep(1.0)
            except asyncio.CancelledError:
                pass
            return ("v", key)

        async def main():
            task = asyncio.current_task()
            value = await front.handle("k", stubborn)
            assert task.cancelling() == 0
            async with asyncio.timeout(1.0):
                await asyncio.sleep(0.5)
            return value, loop.time()

        value, finished = loop.run_until_complete(main())
        assert value == ("v", "k")
        assert finished == pytest.approx(0.7)
        assert front.completed == 1
        assert front.timeouts == 0


class TestAdmissionBound:
    MAX_PENDING = 10

    def _crashed(self, directory):
        """A persistence directory with a WAL prefix over 4 shards."""
        persistent = PersistentKVCache(
            AdaptiveKVCache(capacity_entries=64, num_shards=4), directory,
            snapshot_every=None, wal_flush_ops=1,
        )
        for key in range(80):
            persistent.get_or_compute(key, lambda k: ("v", k))
        persistent.close()

    def test_scaled_by_serving_fraction_during_live_recovery(
        self, tmp_path
    ):
        directory = str(tmp_path / "state")
        self._crashed(directory)
        live = LiveRecoveringKVCache(directory, chunk_ops=5)
        resilient = ResilientKVCache(live)
        front = AsyncServingFront(resilient, max_pending=self.MAX_PENDING)
        seen = set()
        while live.recovering:
            fraction = resilient.serving_fraction()
            assert fraction == live.serving_fraction()
            assert front._admission_bound() == max(
                1, int(self.MAX_PENDING * fraction)
            )
            seen.add(front._admission_bound())
            live.step()
        # Mid-replay bounds were scaled down, from the floor of 1 up.
        assert 1 in seen and len(seen) > 2
        assert max(seen) < self.MAX_PENDING
        assert front._admission_bound() == self.MAX_PENDING
        live.close()

    @pytest.mark.parametrize("persistent", [False, True])
    def test_never_scaled_over_a_ready_chain(self, tmp_path, persistent):
        loop = VirtualTimeEventLoop()
        store = AdaptiveKVCache(capacity_entries=64, num_shards=4,
                                clock=loop.time)
        if persistent:
            store = PersistentKVCache(store, str(tmp_path / "state"))
        front = AsyncServingFront(ResilientKVCache(store),
                                  max_pending=self.MAX_PENDING)

        async def main():
            for key in range(20):
                await front.handle(key, slow_loader(0.001))
                assert front._admission_bound() == self.MAX_PENDING

        loop.run_until_complete(main())
        assert front.completed == 20
        unbounded = AsyncServingFront(ResilientKVCache(store))
        assert unbounded._admission_bound() is None


class TestValidation:
    def test_rejects_bad_parameters(self):
        loop = VirtualTimeEventLoop()
        with pytest.raises(ValueError, match="concurrency"):
            make_front(loop, concurrency=0)
        with pytest.raises(ValueError, match="max_pending"):
            make_front(loop, max_pending=0)
        with pytest.raises(ValueError, match="deadline"):
            make_front(loop, deadline=0.0)
        with pytest.raises(ValueError, match="service_time"):
            make_front(loop, service_time=-0.1)

    def test_unavailable_counted(self):
        loop = VirtualTimeEventLoop()
        front = make_front(loop, concurrency=1)

        async def failing(key):
            raise IOError("backend down")

        from repro.online.resilience import LoaderUnavailable

        async def main():
            with pytest.raises(LoaderUnavailable):
                await front.handle("k", failing)

        loop.run_until_complete(main())
        assert front.unavailable == 1
        assert front.completed == 0
