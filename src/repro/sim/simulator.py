"""The simulator facade: clock + event queue + run loop."""

from __future__ import annotations

import math
from typing import Any, Callable, Optional

from repro.errors import SimulationError
from repro.sim.clock import SimClock
from repro.sim.events import EventHandle, EventQueue


class Simulator:
    """Drives a discrete-event simulation.

    Components hold a reference to the simulator and use
    :meth:`schedule` / :meth:`schedule_at` to arrange future work
    (:meth:`post` / :meth:`post_at` when no cancellation handle is
    needed).  The experiment driver then calls :meth:`run` (to drain
    all events) or :meth:`run_until` (to advance to a deadline).

    ``run_limit`` is the deadline of the :meth:`run_until` call in
    progress (``-inf`` outside one, or when it counts ``max_events``).
    A callback that applies a batch of future events in one pass (an
    idle epoch, :mod:`repro.speakers.idle`) must apply none past it.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(2.5, fired.append, "hello")
    >>> sim.run()
    >>> (sim.now, fired)
    (2.5, ['hello'])
    """

    def __init__(self, start: float = 0.0) -> None:
        self._clock = SimClock(start)
        self._queue = EventQueue()
        self._running = False
        self.run_limit = -math.inf

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._clock._now

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return len(self._queue)

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule an event {delay!r} s in the past")
        return self._queue.push(self._clock._now + delay, callback, args)

    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute simulated ``time``."""
        if time < self._clock._now:
            raise SimulationError(
                f"cannot schedule at {time:.6f}, which is before now ({self.now:.6f})"
            )
        return self._queue.push(time, callback, args)

    def post(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """Like :meth:`schedule` but fire-and-forget: no handle, not
        cancellable.  The cheap path for high-volume internal events
        (packet deliveries, scheduled sends)."""
        if delay < 0:
            raise SimulationError(f"cannot schedule an event {delay!r} s in the past")
        self._queue.post(self._clock._now + delay, callback, args)

    def post_at(self, time: float, callback: Callable[..., None], *args: Any) -> None:
        """Like :meth:`schedule_at` but fire-and-forget (no handle)."""
        if time < self._clock._now:
            raise SimulationError(
                f"cannot schedule at {time:.6f}, which is before now ({self.now:.6f})"
            )
        self._queue.post(time, callback, args)

    def step(self) -> bool:
        """Fire the next event, advancing the clock.

        Returns ``True`` if an event fired, ``False`` if the queue was
        empty.
        """
        entry = self._queue.pop_entry()
        if entry is None:
            return False
        self._clock.advance_to(entry[0])
        entry[1](*entry[2])
        return True

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the queue drains (or ``max_events`` fired).

        Returns the number of events fired.  ``max_events`` guards
        against accidentally unbounded simulations (e.g. a periodic
        task that is never stopped).
        """
        fired = 0
        while max_events is None or fired < max_events:
            if not self.step():
                break
            fired += 1
        return fired

    def run_until(self, time: float, max_events: Optional[int] = None) -> int:
        """Run events scheduled at or before ``time``; then advance to it.

        The clock always ends exactly at ``time`` even if the queue is
        empty, so periodic measurements can rely on the deadline.
        """
        clock = self._clock
        if time < clock._now:
            raise SimulationError(
                f"run_until({time:.6f}) is before now ({self.now:.6f})"
            )
        pop_entry_before = self._queue.pop_entry_before
        outer_limit = self.run_limit
        self.run_limit = time if max_events is None else -math.inf
        fired = 0
        try:
            while max_events is None or fired < max_events:
                entry = pop_entry_before(time)
                if entry is None:
                    break
                # The heap pops in time order and never yields past
                # events, so advance_to's monotonicity check is
                # redundant here.
                clock._now = entry[0]
                entry[1](*entry[2])
                fired += 1
        finally:
            self.run_limit = outer_limit
        clock.advance_to(time)
        return fired

    def run_for(self, duration: float, max_events: Optional[int] = None) -> int:
        """Convenience wrapper: :meth:`run_until` ``now + duration``."""
        return self.run_until(self._clock._now + duration, max_events=max_events)
