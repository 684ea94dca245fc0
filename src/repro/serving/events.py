"""Discrete-event simulation core for the serving layer.

Everything the online schedulers share lives here: the simulated clock
and event-ordering rules, the :class:`Server` busy/free model, and the
:class:`EventLoop` that interleaves a time-sorted arrival stream with
server completions and controller timers.  The single-server
:class:`repro.serving.scheduler.Scheduler`, both of its baselines, and
the multi-server :class:`repro.serving.cluster.Router` all ride this
loop — policy code never touches time-advance logic.

The loop is deliberately minimal: it owns *when* (time advance, event
ordering, termination) and delegates *what* to a controller object
implementing four hooks:

``on_arrival(now, seq, arrival)``
    An arrival crossed the clock; admit it (open or join a batch).
``dispatch(now) -> bool``
    Try to start one unit of work on an idle server at ``now``; return
    ``True`` if something launched (the loop calls again until ``False``).
``next_timer(now) -> float``
    Earliest *future* instant the controller wants to act (e.g. a batch
    launch deadline), or ``math.inf``.  Must be ``> now`` — instants
    already due are ``dispatch``'s job.
``has_pending() -> bool``
    Work is queued (the loop must keep running after the stream ends,
    and server completions become wake-up events).

All times are in the modeled-millisecond domain of the cost reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from repro.serving.arrivals import Arrival

#: Tolerance for simulated-clock comparisons.
EPS = 1e-9


@dataclass
class Server:
    """One serving backend slot with busy/free transitions.

    A server is *idle* at ``now`` when ``free_at <= now`` (within
    :data:`EPS`); :meth:`start` transitions it to busy until the modeled
    service completes, accumulating the busy-time and launch counters
    the reports aggregate.

    ``speed`` is the per-server speed factor: a launch whose speed-1
    service estimate is ``s`` occupies this server for ``s / speed``
    modeled ms, so a 2.0 server is twice as fast and a 0.5 server twice
    as slow.  ``up``/``draining`` carry the fault/elasticity state — a
    crashed server refuses launches, a draining one finishes in-flight
    work but receives no new placements (stop-placing-then-finish).
    """

    sid: int
    free_at: float = 0.0
    busy_ms: float = 0.0
    launches: int = 0
    speed: float = 1.0
    up: bool = True
    draining: bool = False

    @property
    def available(self) -> bool:
        """May new work be placed here?"""
        return self.up and not self.draining

    def idle(self, now: float) -> bool:
        """Is the server free to start work at ``now``?"""
        return self.free_at <= now + EPS

    def start(self, now: float, service_ms: float) -> float:
        """Begin a launch at ``now``; returns the completion instant.

        ``service_ms`` is in speed-1 units; the actual occupancy is
        scaled by this server's speed factor.
        """
        if not self.up:
            raise RuntimeError(
                f"server {self.sid} is down, cannot start at {now}"
            )
        if not self.idle(now):
            raise RuntimeError(
                f"server {self.sid} is busy until {self.free_at}, "
                f"cannot start at {now}"
            )
        duration = service_ms / self.speed
        self.free_at = now + duration
        self.busy_ms += duration
        self.launches += 1
        return self.free_at

    def crash(self, now: float) -> float:
        """Take the server down at ``now``; returns the modeled ms of
        in-flight work that was lost (0.0 if it was idle).

        The lost remainder is refunded from ``busy_ms`` so utilization
        only counts work that actually completed; the interrupted
        batch's re-queue is the controller's job.
        """
        self.up = False
        self.draining = False
        lost = max(0.0, self.free_at - now)
        if lost > 0.0:
            self.busy_ms = max(0.0, self.busy_ms - lost)
            self.free_at = now
        return lost

    def recover(self, now: float) -> None:
        """Bring a crashed server back, idle, at ``now``."""
        self.up = True
        self.draining = False
        self.free_at = max(self.free_at, now)


class Controller(Protocol):
    """Scheduling logic plugged into the :class:`EventLoop`."""

    def on_arrival(self, now: float, seq: int, arrival: Arrival) -> None:
        ...

    def dispatch(self, now: float) -> bool:
        ...

    def next_timer(self, now: float) -> float:
        ...

    def has_pending(self) -> bool:
        ...


#: No-progress bound of :meth:`EventLoop.run`: consecutive time advances
#: with no arrival, no launch and no server busy.  Such advances come
#: only from controller timers (batch deadlines, fault and mutation
#: events, autoscaler ticks); a legitimate run needs a handful between
#: launches, while a controller that keeps waking with nothing it can
#: start would otherwise spin forever.
MAX_IDLE_ADVANCES = 10_000


class EventLoop:
    """Drive a controller over a time-sorted arrival stream.

    Event ordering (the contract the scheduler tests pin down):

    * work dispatches the moment it becomes possible — after every time
      advance the controller gets to launch on idle servers until it
      declines;
    * an arrival ties with any other event at the same instant are
      resolved *arrival first* (a query landing exactly when a server
      frees may still join the batch about to launch);
    * with nothing dispatchable, time jumps to the earliest of the next
      arrival, the controller's next timer, and — while work is
      pending — the earliest busy server's completion.
    """

    def __init__(self, servers: list[Server]) -> None:
        if not servers:
            raise ValueError("EventLoop needs at least one server")
        self.servers = servers
        self.now = 0.0
        #: Whether the last :meth:`run` stopped on its no-progress bound.
        self.stalled = False

    def run(self, stream: list[Arrival], controller: Controller) -> float:
        """Simulate until the stream is drained and nothing is pending,
        or until :data:`MAX_IDLE_ADVANCES` time advances in a row pass
        with no arrival, no launch and nothing in flight (``stalled``;
        the controller then fails what is left closed).  Returns the
        final simulated clock."""
        now = 0.0
        i = 0
        idle = 0
        self.stalled = False
        while i < len(stream) or controller.has_pending():
            launched = False
            while controller.dispatch(now):
                launched = True
            next_t = stream[i].time_ms if i < len(stream) else math.inf
            wake = [next_t, controller.next_timer(now)]
            if controller.has_pending():
                frees = [
                    s.free_at for s in self.servers
                    if s.free_at > now + EPS
                ]
                if frees:
                    wake.append(min(frees))
            target = min(wake)
            if math.isinf(target):
                # No wake source left.  Reachable under fault injection
                # when pending work has no surviving server and no
                # recovery event is scheduled; the controller fails the
                # stranded queries closed after the loop returns.
                break
            if next_t <= target + EPS:
                now = next_t
                controller.on_arrival(now, i, stream[i])
                i += 1
                idle = 0
                continue
            in_flight = any(s.free_at > now + EPS for s in self.servers)
            idle = 0 if launched or in_flight else idle + 1
            if idle > MAX_IDLE_ADVANCES:
                self.stalled = True
                break
            now = target
        self.now = now
        return now


@dataclass
class QueryOutcome:
    """One served query: its answer plus the full latency decomposition.

    ``version`` is the graph epoch the query was admitted against — under
    a versioned store, every member of a batch shares it (batches never
    mix versions across an epoch swap).

    Under fault injection a query can *fail closed*: ``result`` is then
    ``None`` and ``failure`` carries the reason (retry budget exhausted,
    no surviving capacity).  Failed queries always count as SLO misses.
    ``retries`` counts how many times the query's batch was re-queued or
    re-executed before this outcome.
    """

    arrival: Arrival
    result: np.ndarray | None
    launch_ms: float
    finish_ms: float
    batch_width: int
    joined: bool
    baseline_ms: float | None = None
    server: int = 0
    version: int = 0
    failure: str | None = None
    retries: int = 0

    @property
    def failed(self) -> bool:
        """Did the query fail closed instead of being served?"""
        return self.failure is not None

    @property
    def queue_ms(self) -> float:
        """Time spent waiting for admission (launch − arrival)."""
        return self.launch_ms - self.arrival.time_ms

    @property
    def service_ms(self) -> float:
        """Modeled service time of the batch the query rode."""
        return self.finish_ms - self.launch_ms

    @property
    def latency_ms(self) -> float:
        """End-to-end latency (queueing + service)."""
        return self.finish_ms - self.arrival.time_ms

    @property
    def slo_met(self) -> bool:
        """Did the query finish within its budget?  Failed-closed
        queries never meet their SLO."""
        if self.failure is not None:
            return False
        return self.finish_ms <= self.arrival.deadline_ms + EPS


__all__ = [
    "EPS", "MAX_IDLE_ADVANCES", "Controller", "EventLoop", "QueryOutcome",
    "Server",
]
