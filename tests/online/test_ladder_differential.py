"""Differential test: the sync and async resilient ladders decide alike.

:meth:`ResilientKVCache.get_or_compute` and
:meth:`~ResilientKVCache.aget_or_compute` serve through one ladder. Twin
stacks — one driven synchronously on a hand-advanced clock, one on the
virtual-time event loop — see the same seeded loader failure stream,
the same TTL ageing and the same quarantine → rebuild, and must agree
request by request and in every counter.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.faults.online import AsyncFlakyLoader, FlakyLoader
from repro.online.engine import AdaptiveKVCache
from repro.online.persistence import kv_stats_digest
from repro.online.resilience import (
    CircuitBreaker,
    LoaderUnavailable,
    ResilientKVCache,
    RetryPolicy,
)
from repro.serve.vloop import VirtualTimeEventLoop
from repro.utils.rng import DeterministicRNG

REQUESTS = 600
#: Virtual seconds between requests; entries live ``TTL`` seconds, so
#: keys unread for a while age into stale-only territory.
GAP = 0.05
TTL = 1.5
QUARANTINE_AT, REBUILD_AT = 200, 320
QUARANTINED = 2


def _value(key):
    return ("v", key)


def _stack(clock, sleep):
    engine = AdaptiveKVCache(capacity_entries=48, num_shards=4,
                             default_ttl=TTL, seed=3, clock=clock)
    return ResilientKVCache(
        engine,
        retry=RetryPolicy(attempts=3, backoff=0.02, budget=0.1),
        breaker_factory=lambda: CircuitBreaker(
            failure_threshold=3, recovery_timeout=0.4, clock=clock
        ),
        sleep=sleep,
        clock=clock,
    )


def _no_sync_sleep(seconds):
    raise AssertionError("the async ladder paused through the sync sleep")


def _keys(seed):
    rng = DeterministicRNG(seed).fork(5)
    return [rng.choice_index(40) for _ in range(REQUESTS)]


def _chaos(resilient, request):
    if request == QUARANTINE_AT:
        resilient.quarantine(QUARANTINED)
    elif request == REBUILD_AT:
        resilient.rebuild(QUARANTINED)


def _loader_kwargs(seed):
    return {"failure_rate": 0.3, "burst": 2, "seed": seed}


def _run_sync(seed):
    now = [0.0]

    def clock():
        return now[0]

    def sleep(seconds):
        now[0] += seconds

    resilient = _stack(clock, sleep)
    loader = FlakyLoader(_value, **_loader_kwargs(seed))
    outcomes = []
    for request, key in enumerate(_keys(seed)):
        _chaos(resilient, request)
        sleep(GAP)
        try:
            outcomes.append(resilient.get_or_compute(key, loader))
        except LoaderUnavailable:
            outcomes.append(LoaderUnavailable)
    return outcomes, resilient, loader


def _run_async(seed):
    loop = VirtualTimeEventLoop()
    resilient = _stack(loop.time, _no_sync_sleep)
    loader = AsyncFlakyLoader(_value, **_loader_kwargs(seed))

    async def main():
        outcomes = []
        for request, key in enumerate(_keys(seed)):
            _chaos(resilient, request)
            await asyncio.sleep(GAP)
            try:
                outcomes.append(await resilient.aget_or_compute(key, loader))
            except LoaderUnavailable:
                outcomes.append(LoaderUnavailable)
        return outcomes

    return loop.run_until_complete(main()), resilient, loader


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sync_and_async_ladders_decide_alike(seed):
    sync_outcomes, sync_stack, sync_loader = _run_sync(seed)
    async_outcomes, async_stack, async_loader = _run_async(seed)

    assert async_outcomes == sync_outcomes
    assert (kv_stats_digest(async_stack.stats())
            == kv_stats_digest(sync_stack.stats()))
    assert ([breaker.trips for breaker in async_stack.breakers]
            == [breaker.trips for breaker in sync_stack.breakers])
    assert (async_loader.calls, async_loader.failures) == (
        sync_loader.calls, sync_loader.failures
    )

    # The stream exercises every rung, so agreement is not vacuous.
    stats = sync_stack.stats()
    assert LoaderUnavailable in sync_outcomes
    assert stats.stale_hits > 0 and stats.degraded > 0
    assert stats.expirations > 0
    assert sum(breaker.trips for breaker in sync_stack.breakers) > 0
    assert sync_loader.calls > stats.misses  # retries happened
