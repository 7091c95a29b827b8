"""Counting resources and stores for the simulation kernel.

:class:`Resource` models anything with finite concurrent capacity: a flash
channel, a DMA engine, an NVMe submission queue slot.  :class:`Store` is an
unbounded produce/consume buffer used where backpressure is not modeled.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator, Tuple

from repro.sim.engine import Event, Simulator

__all__ = ["Resource", "Store"]


class Resource:
    """A counting resource with FIFO grant order.

    ``request(n)`` returns an event that triggers once ``n`` units are held;
    ``release(n)`` returns them.  Use :meth:`acquire` inside a fiber for the
    common request/hold pattern.
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError("resource capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: Deque[Tuple[Event, int]] = deque()
        # Utilization accounting: busy integral in unit·ns.
        self._busy_area = 0
        self._last_change = sim.now

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def available(self) -> int:
        return self.capacity - self._in_use

    def grantable(self) -> bool:
        """True when a one-unit request made now would be granted at once."""
        return not self._waiters and self._in_use < self.capacity

    def request(self, units: int = 1) -> Event:
        if units < 1 or units > self.capacity:
            raise ValueError(
                "cannot request %d units of %d-capacity resource" % (units, self.capacity)
            )
        if self.sim.race is not None:
            # FIFO traffic: grant order among tied requesters is pinned by
            # the engine's sequence numbers by design — ordered, not a
            # hazard, but it pins the batch against perturbation.
            self.sim.race.on_ordered(self, "queue")
        event = Event(self.sim)
        self._waiters.append((event, units))
        self._grant()
        return event

    def release(self, units: int = 1) -> None:
        if units < 1 or units > self._in_use:
            raise ValueError("release of %d units but only %d in use" % (units, self._in_use))
        if self.sim.race is not None:
            self.sim.race.on_ordered(self, "queue")
        self._account()
        self._in_use -= units
        self._grant()

    def acquire(self, units: int = 1) -> Generator:
        """Fiber helper: ``yield from resource.acquire()`` blocks until held."""
        yield self.request(units)

    def _account(self) -> None:
        now = self.sim.now
        self._busy_area += self._in_use * (now - self._last_change)
        self._last_change = now

    def _grant(self) -> None:
        while self._waiters:
            event, units = self._waiters[0]
            if event.abandoned:  # requester was interrupted while queued
                self._waiters.popleft()
                continue
            if self._in_use + units > self.capacity:
                break
            self._waiters.popleft()
            self._account()
            self._in_use += units
            # The waiter can still be interrupted between this grant and the
            # event processing (same timestep); the reclaim callback checks
            # the abandoned flag at processing time and returns the units —
            # without it an interrupted hedged/coalesced read would hold the
            # grant forever (a doubly-granted leak).
            event.add_callback(lambda ev, n=units: self._reclaim(ev, n))
            event.succeed()

    def _reclaim(self, event: Event, units: int) -> None:
        if event.abandoned:
            self.release(units)

    def utilization(self) -> float:
        """Mean fraction of capacity held since t=0."""
        self._account()
        elapsed = self.sim.now
        if elapsed == 0:
            return 0.0
        return self._busy_area / (self.capacity * elapsed)

    def busy_area(self) -> int:
        """Cumulative unit·ns of held capacity (for windowed accounting)."""
        self._account()
        return self._busy_area

    def backfill_busy(self, area: int) -> None:
        """Credit ``area`` unit·ns of held capacity retroactively.

        The fused NAND fast path and the quiet-window host read
        (:mod:`repro.sim.fastpath`) hold no real units while in flight;
        when they settle they deposit the exact busy integral their holds
        would have accrued, keeping :meth:`utilization` identical to the
        per-event path at settle points.
        """
        self._busy_area += area


class Store:
    """Unbounded FIFO buffer: immediate puts, event-returning gets."""

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        if self.sim.race is not None:
            # FIFO hand-off: ordered by design (see Resource.request).
            self.sim.race.on_ordered(self, "items")
        while self._getters:
            getter = self._getters.popleft()
            if not getter.abandoned:  # skip getters interrupted while queued
                # As with Resource grants, the getter may be interrupted
                # after this hand-off but before the event processes; the
                # item is then re-put instead of vanishing with the fiber.
                getter.add_callback(self._reclaim)
                getter.succeed(item)
                return
        self._items.append(item)

    def _reclaim(self, event: Event) -> None:
        if event.abandoned:
            self.put(event._value)

    def get(self) -> Event:
        if self.sim.race is not None:
            self.sim.race.on_ordered(self, "items")
        event = Event(self.sim)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event
