"""The fault injector: arms a :class:`~repro.faults.plan.FaultPlan` on a
policy and corrupts auxiliary state as the access stream flows.

The injector attaches to an :class:`~repro.core.adaptive.AdaptivePolicy`
or :class:`~repro.core.sbar.SbarPolicy` through the single
``fault_injector`` attribute those classes expose; the policy calls
:meth:`FaultInjector.tick` once per ``observe``. When nothing is armed
the hook is one ``is not None`` check — zero overhead by design, so the
production simulation path is untouched.

Every corruption goes through a narrow, documented mutation hook on the
target structure (``TagArray.corrupt_stored``, ``MissHistory.clear`` /
``scramble``, ``SbarPolicy.set_selector``), never through private state,
so the faulted structures keep their internal invariants and the
simulation is guaranteed to terminate with consistent statistics.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.cache.tag_array import TagArray
from repro.core.history import MissHistory
from repro.core.partial import stored_tag_width
from repro.faults.plan import (
    SITE_HISTORY,
    SITE_SELECTOR,
    SITE_SHADOW_TAGS,
    FaultLog,
    FaultPlan,
)
from repro.utils.rng import DeterministicRNG


class FaultInjector:
    """Executes a fault plan against one armed policy.

    Args:
        plan: the campaign description.

    Usage::

        policy = make_adaptive(num_sets, ways, ("lru", "lfu"))
        injector = FaultInjector(FaultPlan.uniform(0.01)).arm(policy)
        ...  # simulate as usual
        print(injector.log.injected())
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.log = FaultLog()
        self._rng = DeterministicRNG(plan.seed)
        self._shadows: List[TagArray] = []
        self._histories: List[MissHistory] = []
        self._set_selector: Optional[Callable[[int], None]] = None
        self._selector_max = 0
        self._tag_width = 1
        self._armed = None

    def arm(self, policy) -> "FaultInjector":
        """Attach to ``policy`` (adaptive or SBAR) and start injecting.

        Discovers the policy's auxiliary structures — shadow tag arrays,
        per-set miss histories, and (for SBAR) the selector counter —
        and registers itself as the policy's ``fault_injector``.

        Returns:
            self, for chaining.
        """
        if self._armed is not None:
            raise RuntimeError("injector is already armed; use one per policy")
        shadows = getattr(policy, "shadows", None)
        histories = getattr(policy, "histories", None)
        if not shadows or not histories:
            raise TypeError(
                f"policy {getattr(policy, 'name', policy)!r} exposes no "
                "shadow arrays / histories to inject into"
            )
        self._shadows = list(shadows)
        self._histories = list(histories)
        setter = getattr(policy, "set_selector", None)
        if callable(setter):
            self._set_selector = setter
            self._selector_max = policy.selector_max
        self._tag_width = stored_tag_width(policy.tag_transform)
        policy.fault_injector = self
        self._armed = policy
        return self

    def disarm(self) -> None:
        """Detach from the armed policy; the plan stops firing."""
        if self._armed is not None:
            self._armed.fault_injector = None
            self._armed = None

    def tick(self) -> None:
        """One policy access: roll each active spec and maybe inject."""
        index = self.log.accesses
        self.log.accesses += 1
        for spec in self.plan.specs:
            if spec.rate <= 0.0 or not spec.active_at(index):
                continue
            if self._rng.random() >= spec.rate:
                continue
            if spec.site == SITE_SHADOW_TAGS:
                self._flip_shadow_tag(spec.bits)
            elif spec.site == SITE_HISTORY:
                self._corrupt_history(spec.mode)
            elif spec.site == SITE_SELECTOR:
                self._corrupt_selector()

    # ------------------------------------------------------------------
    # Site-specific corruption
    # ------------------------------------------------------------------

    def _flip_shadow_tag(self, bits: int) -> None:
        shadow = self._shadows[self._rng.choice_index(len(self._shadows))]
        set_index = self._rng.choice_index(shadow.num_sets)
        tags = shadow.resident_tags(set_index)
        if not tags:
            self.log.shadow_tag_vacant += 1
            return
        old = tags[self._rng.choice_index(len(tags))]
        new = old
        for _ in range(bits):
            new ^= 1 << self._rng.choice_index(self._tag_width)
        if new == old:
            # An even number of flips landed on the same bit.
            self.log.shadow_tag_vacant += 1
            return
        aliased = shadow.contains_stored(set_index, new)
        if shadow.corrupt_stored(set_index, old, new):
            self._armed.invalidate_derived()
            self.log.shadow_tag_flips += 1
            if aliased:
                self.log.shadow_tag_aliased += 1

    def _corrupt_history(self, mode: str) -> None:
        history = self._histories[self._rng.choice_index(len(self._histories))]
        if mode == "clear":
            history.clear()
            self.log.history_clears += 1
        else:
            history.scramble(self._rng)
            self.log.history_scrambles += 1

    def _corrupt_selector(self) -> None:
        if self._set_selector is None:
            self.log.inapplicable += 1
            return
        self._set_selector(self._rng.randint(0, self._selector_max))
        self.log.selector_writes += 1
