"""Discrete-event simulation core.

The simulator dispatches ``(time, seq, handler, args)`` entries in strict
``(time, seq)`` order.  ``seq`` is a monotonically increasing sequence
number that makes event ordering fully deterministic: two events scheduled
for the same simulated time always fire in the order they were scheduled,
regardless of Python hash randomization or container internals.
Determinism is a hard requirement here — the property-based tests compare
runs event-for-event.

Two queue implementations share that total order bit-for-bit:

* ``queue="calendar"`` (default) — a time-bucketed queue.  A dict maps
  each pending timestamp to one FIFO list of ``(fn, args)`` entries in
  push order, and a ``heapq`` holds the distinct pending timestamps.  A
  push appends to its timestamp's list, or opens the list and
  heap-pushes the timestamp, so a tie costs O(1) and only a new
  timestamp pays O(log T) in the number T of distinct pending times —
  not in the number of events in flight.  The run loop pops a time and
  walks that list with a plain ``for``; a handler that pushes at ``now``
  appends to the list being walked, so the same pass dispatches it.
  ``now`` is set per dispatched entry, so a timestamp whose entries were
  all cancelled leaves the clock where it was, as with the heap.
  Push order within one timestamp *is* ``seq`` order, so dispatch is
  exactly ``(time, seq)`` order, identical to the heap, as long as no
  entry is pushed before ``now`` (the :meth:`Simulator.push` contract).
* ``queue="heap"`` — the original binary heap of ``(time, seq, fn,
  args)``, retained as the reference implementation and pinned against
  the calendar queue by an event-for-event ``EventTrace`` equivalence
  suite.

Cancellable timers use *lazy deletion*: :meth:`Simulator.schedule_cancellable`
returns a :class:`TimerHandle` whose O(1) :meth:`~TimerHandle.cancel` blanks
the handler; the run loop discards blanked entries without dispatching them
(they do not count as processed events).  When dead entries ever make up
more than half the queue it is compacted in one O(n) pass (in place — the
run loops hold direct references to the queue containers), so the queue
stays proportional to the number of *live* timers no matter how often
producers re-arm.

Time is measured in **nanoseconds** (floats), sizes in **bytes**, and
bandwidths in **bytes per nanosecond** (so 200 Gb/s == 25 B/ns).  These
units are used consistently across the whole package; see
``repro.network.units`` for named constants and converters.

Producer contract (v2, stable): hot producers enqueue through

    sim.push(t, fn, args)

with an absolute time ``t >= sim.now`` and a pre-built args *tuple*.
``push`` assigns the tie-break sequence number and routes the entry to
whichever queue implementation this simulator runs — it is bit- and
order-identical to :meth:`Simulator.schedule` minus the negative-delay
guard and the ``*args`` packing frame.  The v1 contract (inlining
``sim._seq += 1; heappush(sim._queue, ...)``) is retired: ``_queue`` only
exists in heap mode, and no code outside this module may touch ``_seq``
or the queue containers (grep for ``sim._seq`` / ``sim._queue`` must come
up empty outside ``repro.sim``).

:meth:`Simulator.run` picks one of five loop variants once per call —
the queue kind, and whether an event hook or a watchdog is attached —
so the default (time-bucketed, unhooked, unguarded) loop carries no
per-event instrumentation test.
"""

from __future__ import annotations

import contextlib
import time
from heapq import heapify, heappop, heappush
from operator import length_hint
from typing import Any, Callable, Dict, List, Optional

__all__ = [
    "Simulator",
    "Event",
    "StopSimulation",
    "TimerHandle",
    "SimStall",
    "set_default_watchdog",
    "default_watchdog",
]

#: Absolute-time deltas smaller than this are float drift, not user error:
#: repeated ``now + rto`` style arithmetic can land an attoseconds-stale
#: deadline.  ``schedule_at`` clamps these to "now" instead of raising.
_NEGATIVE_DRIFT_NS = 1e-6

#: Guarded run loop: events dispatched between wall-clock deadline checks.
#: A tripped deadline is detected at most this many events late; the
#: regression test pins that bound.
_WALL_STRIDE = 256


class StopSimulation(Exception):
    """Raised internally to stop :meth:`Simulator.run` early."""


class SimStall(RuntimeError):
    """A watchdog limit tripped: the simulation is wedged (or runaway).

    Carries enough context to *classify* the stall without a debugger:
    which guard fired, the simulated clock and event count at the trip,
    queue depths, the timestamp of the next pending event, and — when the
    owning fabric registered :attr:`Simulator.stall_diagnostics` — a
    structured quiescence snapshot (stuck packets, deepest VOQ, pending
    retransmissions).  The campaign harness (:mod:`repro.resilient`)
    ships this across the worker pipe so a wedged cell is killed,
    classified, and retried or quarantined instead of hanging the pool.
    """

    def __init__(
        self,
        reason: str,
        *,
        now: float = 0.0,
        events_processed: int = 0,
        queue_length: int = 0,
        live_queue_length: int = 0,
        next_event_ns: Optional[float] = None,
        diagnostics: Optional[Dict[str, Any]] = None,
    ):
        self.reason = reason
        self.now = now
        self.events_processed = events_processed
        self.queue_length = queue_length
        self.live_queue_length = live_queue_length
        self.next_event_ns = next_event_ns
        self.diagnostics = diagnostics
        super().__init__(self._describe())

    def _describe(self) -> str:
        msg = (
            f"simulation stalled ({self.reason}): now={self.now:.0f}ns, "
            f"{self.events_processed} events processed, "
            f"{self.live_queue_length} live / {self.queue_length} queued entries"
        )
        if self.next_event_ns is not None:
            msg += f", next event at {self.next_event_ns:.0f}ns"
        if self.diagnostics:
            stuck = self.diagnostics.get("stuck") or []
            if stuck:
                msg += f"; {len(stuck)} stuck location(s)"
            deepest = self.diagnostics.get("deepest_voq")
            if deepest:
                msg += (
                    f"; deepest VOQ {deepest.get('port')} "
                    f"({deepest.get('queued_pkts')} pkts)"
                )
        return msg

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data view (journal records, cross-process failure reports)."""
        return {
            "reason": self.reason,
            "now": self.now,
            "events_processed": self.events_processed,
            "queue_length": self.queue_length,
            "live_queue_length": self.live_queue_length,
            "next_event_ns": self.next_event_ns,
            "diagnostics": self.diagnostics,
        }


#: process-wide watchdog applied to every *new* Simulator (see
#: :func:`set_default_watchdog`).  None = no guards, default hot loop.
_DEFAULT_WATCHDOG: Optional[tuple] = None


def _watchdog_tuple(
    max_events: Optional[int],
    max_sim_time_ns: Optional[float],
    wall_deadline_s: Optional[float],
) -> Optional[tuple]:
    for name, v in (
        ("max_events", max_events),
        ("max_sim_time_ns", max_sim_time_ns),
        ("wall_deadline_s", wall_deadline_s),
    ):
        if v is not None and v <= 0:
            raise ValueError(f"watchdog {name} must be positive, got {v}")
    if max_events is None and max_sim_time_ns is None and wall_deadline_s is None:
        return None
    return (max_events, max_sim_time_ns, wall_deadline_s)


def set_default_watchdog(
    max_events: Optional[int] = None,
    max_sim_time_ns: Optional[float] = None,
    wall_deadline_s: Optional[float] = None,
) -> None:
    """Arm (or, with no arguments, disarm) a process-wide default watchdog.

    Every :class:`Simulator` constructed *after* this call starts with the
    given guards, exactly as if :meth:`Simulator.watchdog` had been called
    on it.  This is how the campaign harness arms in-sim watchdogs inside
    worker functions it cannot modify: the supervisor sets the default in
    the child process before invoking the cell worker, and every fabric
    the cell builds inherits the guards.  Existing simulators are
    untouched; passing no limits restores the unguarded default.
    """
    global _DEFAULT_WATCHDOG
    _DEFAULT_WATCHDOG = _watchdog_tuple(
        max_events, max_sim_time_ns, wall_deadline_s
    )


@contextlib.contextmanager
def default_watchdog(
    max_events: Optional[int] = None,
    max_sim_time_ns: Optional[float] = None,
    wall_deadline_s: Optional[float] = None,
):
    """Context manager form of :func:`set_default_watchdog` (restores the
    previous default on exit, even on error)."""
    global _DEFAULT_WATCHDOG
    prev = _DEFAULT_WATCHDOG
    _DEFAULT_WATCHDOG = _watchdog_tuple(
        max_events, max_sim_time_ns, wall_deadline_s
    )
    try:
        yield
    finally:
        _DEFAULT_WATCHDOG = prev


class TimerHandle:
    """A scheduled callback that can be cancelled in O(1).

    Returned by :meth:`Simulator.schedule_cancellable` /
    :meth:`Simulator.schedule_at_cancellable`.  ``cancel()`` blanks the
    handler; the queue entry stays behind (lazy deletion) and is skipped —
    without being dispatched or counted — when it reaches the front.
    The run loop blanks the handle at dispatch, so cancelling after the
    timer fired, or twice, is a safe no-op (and ``cancelled`` reads True
    once the timer can no longer fire, for either reason).
    """

    __slots__ = ("fn", "args", "sim")

    def __init__(self, sim: "Simulator", fn: Callable, args: tuple):
        self.sim = sim
        self.fn: Optional[Callable] = fn
        self.args = args

    @property
    def cancelled(self) -> bool:
        return self.fn is None

    def cancel(self) -> None:
        if self.fn is None:
            return
        self.fn = None
        self.args = ()
        sim = self.sim
        sim._dead += 1
        sim._cancelled += 1
        # Amortized queue hygiene: rebuild once dead entries dominate.
        if sim._dead > 64 and sim._dead * 2 > sim.queue_length:
            sim._compact()


class Event:
    """A one-shot occurrence that callbacks and processes can wait on.

    An event starts *pending*; :meth:`succeed` (or :meth:`fail`) triggers
    it exactly once, delivering a value (or an exception) to every
    registered callback.  Triggering is processed through the simulator's
    event queue so that all state observed by callbacks is the state at
    the trigger time.
    """

    __slots__ = ("sim", "callbacks", "_triggered", "_value", "_exc")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: List[Callable[["Event"], None]] = []
        self._triggered = False
        self._value: Any = None
        self._exc: Optional[BaseException] = None

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def value(self) -> Any:
        if self._exc is not None:
            raise self._exc
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exc

    def succeed(self, value: Any = None) -> "Event":
        if self._triggered:
            raise RuntimeError("event already triggered")
        self._triggered = True
        self._value = value
        self.sim.schedule(0.0, self._dispatch)
        return self

    def fail(self, exc: BaseException) -> "Event":
        if self._triggered:
            raise RuntimeError("event already triggered")
        self._triggered = True
        self._exc = exc
        self.sim.schedule(0.0, self._dispatch)
        return self

    def _dispatch(self) -> None:
        callbacks, self.callbacks = self.callbacks, []
        for cb in callbacks:
            cb(self)

    def add_callback(self, cb: Callable[["Event"], None]) -> None:
        """Register *cb*; fires immediately (via the queue) if triggered."""
        if self._triggered:
            self.sim.schedule(0.0, cb, self)
        else:
            self.callbacks.append(cb)


class Timeout(Event):
    """An event that triggers automatically after a fixed delay."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        super().__init__(sim)
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        sim.schedule(delay, self._fire, value)

    def _fire(self, value: Any) -> None:
        # Like succeed(), but dispatches inline: the engine already charged
        # the delay, so a second zero-delay hop would only add overhead.
        self._triggered = True
        self._value = value
        self._dispatch()


class Simulator:
    """Deterministic discrete-event simulator.

    >>> sim = Simulator()
    >>> hits = []
    >>> sim.schedule(5.0, hits.append, "a")
    >>> sim.schedule(2.0, hits.append, "b")
    >>> sim.run()
    >>> hits
    ['b', 'a']

    ``queue`` selects the event-queue implementation: ``"calendar"``
    (default, time-bucketed: O(1) per tie, O(log T) per new timestamp)
    or ``"heap"`` (the binary heap reference).  Both dispatch in
    bit-identical order.
    """

    # Slotted: sim.now and the queue containers are the most-read
    # attributes in the whole simulator (every event touches them), so
    # they bypass the instance dict.
    __slots__ = (
        "now",
        "_queue",
        "_buckets",
        "_times",
        "_heapmode",
        "_seq",
        "_events_processed",
        "_stopped",
        "_dead",
        "_cancelled",
        "last_run_events",
        "last_run_wall_s",
        "event_hook",
        "_watchdog",
        "stall_diagnostics",
    )

    def __init__(self, queue: str = "calendar"):
        if queue not in ("calendar", "heap"):
            raise ValueError(f"unknown queue kind {queue!r} (calendar|heap)")
        self.now: float = 0.0
        self._heapmode: bool = queue == "heap"
        #: heap mode only: plain heapq of (time, seq, fn, args)
        self._queue: Optional[list] = [] if self._heapmode else None
        #: calendar mode only: pending time -> FIFO list of (fn, args)
        #: in push order.  The list being dispatched stays in the dict
        #: until it is exhausted, so pushes at ``now`` join it.
        self._buckets: Optional[Dict[float, list]] = (
            None if self._heapmode else {}
        )
        #: calendar mode only: heapq of the distinct times in _buckets,
        #: minus the one being dispatched.  Both containers are mutated
        #: strictly in place — run loops hold direct references.
        self._times: Optional[List[float]] = None if self._heapmode else []
        self._seq: int = 0
        self._events_processed: int = 0
        self._stopped = False
        #: cancelled-but-unpopped queue entries (lazy deletion bookkeeping)
        self._dead: int = 0
        #: every cancel() ever; cancelled - dead = entries already dropped
        self._cancelled: int = 0
        # event-loop diagnostics for the telemetry scraper: how the last
        # run() call performed in *wall-clock* terms (pure observation;
        # never feeds back into simulated behaviour)
        self.last_run_events: int = 0
        self.last_run_wall_s: float = 0.0
        #: per-event observer ``hook(t, fn, args)`` (repro.validate's
        #: determinism differ); None routes run() to the unhooked hot
        #: loop, so a hookless run pays nothing per event
        self.event_hook: Optional[Callable] = None
        #: watchdog guards (max_events, max_sim_time_ns, wall_deadline_s);
        #: None routes run() to the unguarded hot loop.  New simulators
        #: inherit the process-wide default (set_default_watchdog).
        self._watchdog: Optional[tuple] = _DEFAULT_WATCHDOG
        #: zero-argument callable returning a plain-data quiescence
        #: snapshot, attached to any SimStall this simulator raises.  The
        #: fabric registers its quiescence_snapshot here at build time.
        self.stall_diagnostics: Optional[Callable[[], Dict[str, Any]]] = None

    # -- queue configuration ----------------------------------------------

    @property
    def queue_kind(self) -> str:
        """``"calendar"`` or ``"heap"`` — which implementation runs."""
        return "heap" if self._heapmode else "calendar"

    # -- scheduling -------------------------------------------------------

    def push(self, t: float, fn: Callable, args: tuple = ()) -> None:
        """Enqueue ``fn(*args)`` at absolute time *t* — the producer API.

        The stable hot-path contract (v2): *t* must satisfy ``t >= now``
        and *args* must be a tuple.  No guards run here; :meth:`schedule`
        / :meth:`schedule_at` are the checked front doors (they clamp
        sub-ns float drift to ``now``).  An entry pushed before ``now``
        would be dispatched after the rest of the current timestamp by
        the calendar queue but before it by the heap.  Exactly one
        sequence number is consumed per call, in call order, for either
        queue kind.
        """
        seq = self._seq = self._seq + 1
        if self._heapmode:
            heappush(self._queue, (t, seq, fn, args))
            return
        bucket = self._buckets.get(t)
        if bucket is None:
            self._buckets[t] = [(fn, args)]
            heappush(self._times, t)
        else:
            bucket.append((fn, args))

    def schedule(self, delay: float, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` after *delay* ns of simulated time."""
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        self.push(self.now + delay, fn, args)

    def schedule_at(self, when: float, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` at absolute simulated time *when*.

        Sub-nanosecond *negative* deltas are float drift from repeated
        ``now + delta`` arithmetic (e.g. retransmission deadlines) and are
        clamped to "now"; genuinely past times still raise.
        """
        delay = when - self.now
        if delay < 0.0:
            if delay < -_NEGATIVE_DRIFT_NS:
                raise ValueError(
                    f"cannot schedule in the past (delay={delay})"
                )
            delay = 0.0
        self.push(self.now + delay, fn, args)

    def schedule_cancellable(
        self, delay: float, fn: Callable, *args: Any
    ) -> TimerHandle:
        """Like :meth:`schedule`, returning a cancellable :class:`TimerHandle`."""
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        handle = TimerHandle(self, fn, args)
        # entry layout: fn=None marks a cancellable entry, args IS the handle
        self.push(self.now + delay, None, handle)
        return handle

    def schedule_at_cancellable(
        self, when: float, fn: Callable, *args: Any
    ) -> TimerHandle:
        """Cancellable :meth:`schedule_at` (same drift clamping)."""
        delay = when - self.now
        if delay < 0.0:
            if delay < -_NEGATIVE_DRIFT_NS:
                raise ValueError(
                    f"cannot schedule in the past (delay={delay})"
                )
            delay = 0.0
        handle = TimerHandle(self, fn, args)
        self.push(self.now + delay, None, handle)
        return handle

    def _compact(self) -> None:
        """Drop cancelled entries in place (live entries keep their order).

        In place matters: the run loops bind the queue containers to
        locals, so rebuilding into a *new* container would strand events
        pushed after a mid-run compaction (a cancel inside a dispatched
        handler can get here while run() is on the stack).  For the same
        reason the calendar's bucket at ``now`` is left alone: mid-run it
        is the list the loop is walking.
        """
        if self._heapmode:
            self._queue[:] = [
                e for e in self._queue if e[2] is not None or e[3].fn is not None
            ]
            heapify(self._queue)
            self._dead = 0
            return
        buckets = self._buckets
        current = buckets.get(self.now)
        removed = 0
        for t, bucket in list(buckets.items()):
            if bucket is current:
                continue
            if len(bucket) == 1:  # the common case: no list copy
                fn, args = bucket[0]
                if fn is None and args.fn is None:
                    del buckets[t]
                    removed += 1
                continue
            live = [e for e in bucket if e[0] is not None or e[1].fn is not None]
            removed += len(bucket) - len(live)
            if live:
                buckets[t] = live
            else:
                del buckets[t]
        times = self._times
        times[:] = [t for t in times if t in buckets]
        heapify(times)
        self._dead -= removed

    def _requeue(self, t: float, bucket: list, it, keep: int) -> None:
        """Return the undispatched rest of the bucket at *t* to the queue.

        Called when a run leaves mid-bucket (StopSimulation, a watchdog
        trip, a handler exception).  *it* is the loop's iterator over
        *bucket*; its length hint is the count of entries it has not
        yielded yet.  *keep* = 1 also keeps the entry last yielded (a
        guard tripped before dispatching it), so a later run() resumes
        exactly here.
        """
        del bucket[: len(bucket) - length_hint(it) - keep]
        if bucket:
            heappush(self._times, t)
        else:
            del self._buckets[t]

    def watchdog(
        self,
        max_events: Optional[int] = None,
        max_sim_time_ns: Optional[float] = None,
        wall_deadline_s: Optional[float] = None,
    ) -> None:
        """Arm in-sim stall guards (pass no limits to disarm).

        * ``max_events`` — budget of *additional* events each subsequent
          :meth:`run` may dispatch before raising :class:`SimStall`;
        * ``max_sim_time_ns`` — ceiling on the simulated clock: the first
          event scheduled past it trips the guard (unlike ``run(until=)``,
          which silently stops — a watchdog trip is an *error*);
        * ``wall_deadline_s`` — wall-clock budget per :meth:`run` call,
          checked every ``_WALL_STRIDE`` events (a trip is detected at
          most one stride late, never per-event syscall cost).

        The guarded run loop is a separate code path: an unguarded
        simulator keeps the default hot loop untouched (one ``is None``
        check per run() call, nothing per event).
        """
        self._watchdog = _watchdog_tuple(
            max_events, max_sim_time_ns, wall_deadline_s
        )

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Event:
        return Timeout(self, delay, value)

    # -- processes (imported lazily to avoid a cycle) ----------------------

    def process(self, generator) -> "Any":
        from .process import Process

        return Process(self, generator)

    # -- execution ---------------------------------------------------------

    def run(self, until: Optional[float] = None) -> None:
        """Process events until the queue drains or *until* is reached.

        When *until* is given, ``now`` is advanced to exactly *until* even
        if the queue drains earlier, matching SimPy semantics.
        """
        # Route to the loop variant for this queue kind / hook / guard.
        if not self._heapmode:
            if self._watchdog is None and self.event_hook is None:
                return self._run_calendar(until)
            return self._run_calendar_instrumented(until)
        if self._watchdog is not None:
            return self._run_guarded_heap(until)
        if self.event_hook is not None:
            return self._run_hooked_heap(until)
        return self._run_heap(until)

    def _run_calendar(self, until: Optional[float]) -> None:
        """Default hot loop (calendar queue, no hook, no watchdog)."""
        self._stopped = False
        wall_start = time.perf_counter()
        events_before = self._events_processed
        # Hot loop: the queue containers as locals (mutated strictly in
        # place, so the bindings stay valid), `until` tested once per
        # timestamp, and a dispatch-free fast skip for cancelled timers.
        # The event counter stays on `self` because handlers observe it
        # mid-run (queue_length is derived from it).
        buckets = self._buckets
        times = self._times
        try:
            while times:
                t = heappop(times)
                if until is not None and t > until:
                    heappush(times, t)
                    break
                bucket = buckets[t]
                it = iter(bucket)
                for fn, args in it:
                    if fn is None:  # cancellable entry: args is the handle
                        handle = args
                        fn = handle.fn
                        if fn is None:  # cancelled — skip, uncounted
                            self._dead -= 1
                            continue
                        args = handle.args
                        # Blank at dispatch so a late cancel() is a true
                        # no-op instead of corrupting _dead accounting.
                        handle.fn = None
                        handle.args = ()
                    self.now = t
                    self._events_processed += 1
                    fn(*args)
                del buckets[t]
        except StopSimulation:
            self._stopped = True
            self._requeue(t, bucket, it, 0)
        except BaseException:
            self._requeue(t, bucket, it, 0)
            raise
        self.last_run_wall_s = time.perf_counter() - wall_start
        self.last_run_events = self._events_processed - events_before
        if until is not None and not self._stopped and self.now < until:
            self.now = until

    def _run_calendar_instrumented(self, until: Optional[float]) -> None:
        """Calendar loop taken when an event hook or a watchdog is set.

        Dispatch order, timestamps, and event accounting are identical to
        the hot loop; the hook sees each event before it runs, and the
        guards only *bound* how far the run gets.  A tripping guard keeps
        the undispatched entry at the head of its bucket (a later run()
        with the watchdog disarmed or widened resumes exactly there) and
        raises :class:`SimStall`.  The wall-clock deadline is checked once
        every ``_WALL_STRIDE`` events, not per event — a syscall per
        dispatch is exactly the overhead the guard exists to avoid.
        """
        max_events, max_time, wall_s = self._watchdog or (None, None, None)
        event_budget = (
            self._events_processed + max_events if max_events is not None else None
        )
        perf = time.perf_counter
        wall_deadline = perf() + wall_s if wall_s is not None else None
        self._stopped = False
        wall_start = perf()
        events_before = self._events_processed
        buckets = self._buckets
        times = self._times
        hook = self.event_hook
        wall_countdown = _WALL_STRIDE
        keep = 0  # 1 once a guard trips: the current entry stays queued
        try:
            while times:
                t = heappop(times)
                if until is not None and t > until:
                    heappush(times, t)
                    break
                bucket = buckets[t]
                it = iter(bucket)
                for fn, args in it:
                    handle = None
                    if fn is None:
                        handle = args
                        fn = handle.fn
                        if fn is None:
                            self._dead -= 1
                            continue
                        args = handle.args
                    if max_time is not None and t > max_time:
                        keep = 1
                        self._stall(f"sim time exceeded {max_time:.0f}ns", t)
                    if event_budget is not None and self._events_processed >= event_budget:
                        keep = 1
                        self._stall(f"event budget of {max_events} exhausted", t)
                    if wall_deadline is not None:
                        wall_countdown -= 1
                        if wall_countdown <= 0:
                            wall_countdown = _WALL_STRIDE
                            if perf() > wall_deadline:
                                keep = 1
                                self._stall(
                                    f"wall-clock deadline of {wall_s}s exceeded", t
                                )
                    if handle is not None:
                        # the entry survives the guards: blank the handle
                        # so a late cancel() stays a no-op
                        handle.fn = None
                        handle.args = ()
                    self.now = t
                    self._events_processed += 1
                    if hook is not None:
                        hook(t, fn, args)
                    fn(*args)
                del buckets[t]
        except StopSimulation:
            self._stopped = True
            self._requeue(t, bucket, it, 0)
        except BaseException:
            self._requeue(t, bucket, it, keep)
            raise
        finally:
            self.last_run_wall_s = perf() - wall_start
            self.last_run_events = self._events_processed - events_before
        if until is not None and not self._stopped and self.now < until:
            self.now = until

    def _run_heap(self, until: Optional[float]) -> None:
        """Hot loop for ``queue="heap"`` (the reference implementation)."""
        self._stopped = False
        wall_start = time.perf_counter()
        events_before = self._events_processed
        queue = self._queue
        pop = heappop
        try:
            if until is None:
                while queue:
                    t, _seq, fn, args = pop(queue)
                    if fn is None:
                        handle = args
                        fn = handle.fn
                        if fn is None:
                            self._dead -= 1
                            continue
                        args = handle.args
                        handle.fn = None
                        handle.args = ()
                    self.now = t
                    self._events_processed += 1
                    fn(*args)
            else:
                while queue:
                    if queue[0][0] > until:
                        break
                    t, _seq, fn, args = pop(queue)
                    if fn is None:
                        handle = args
                        fn = handle.fn
                        if fn is None:
                            self._dead -= 1
                            continue
                        args = handle.args
                        handle.fn = None
                        handle.args = ()
                    self.now = t
                    self._events_processed += 1
                    fn(*args)
        except StopSimulation:
            self._stopped = True
        self.last_run_wall_s = time.perf_counter() - wall_start
        self.last_run_events = self._events_processed - events_before
        if until is not None and not self._stopped and self.now < until:
            self.now = until

    def _run_hooked_heap(self, until: Optional[float]) -> None:
        """Hooked loop (heap reference)."""
        self._stopped = False
        wall_start = time.perf_counter()
        events_before = self._events_processed
        queue = self._queue
        pop = heappop
        hook = self.event_hook
        try:
            while queue:
                if until is not None and queue[0][0] > until:
                    break
                t, _seq, fn, args = pop(queue)
                if fn is None:
                    handle = args
                    fn = handle.fn
                    if fn is None:
                        self._dead -= 1
                        continue
                    args = handle.args
                    handle.fn = None
                    handle.args = ()
                self.now = t
                self._events_processed += 1
                hook(t, fn, args)
                fn(*args)
        except StopSimulation:
            self._stopped = True
        self.last_run_wall_s = time.perf_counter() - wall_start
        self.last_run_events = self._events_processed - events_before
        if until is not None and not self._stopped and self.now < until:
            self.now = until

    def _stall(self, reason: str, next_event_ns: float) -> None:
        """Raise :class:`SimStall` with queue context + fabric diagnostics.

        *next_event_ns* is the time of the entry the tripped guard held
        back, which is the next entry a resumed run dispatches.
        """
        diag = None
        if self.stall_diagnostics is not None:
            try:
                diag = self.stall_diagnostics()
            except Exception as exc:  # diagnostics must never mask the stall
                diag = {"error": f"diagnostics failed: {exc!r}"}
        raise SimStall(
            reason,
            now=self.now,
            events_processed=self._events_processed,
            queue_length=self.queue_length,
            live_queue_length=self.live_queue_length,
            next_event_ns=next_event_ns,
            diagnostics=diag,
        )

    def _run_guarded_heap(self, until: Optional[float]) -> None:
        """:meth:`run` variant taken when a watchdog is armed (heap).

        Dispatch order, timestamps, and event accounting are identical to
        the default loop; the guards only *bound* how far it gets.  A
        tripping guard pushes the undispatched entry back on the heap
        (the queue stays consistent — a later run() with the watchdog
        disarmed or widened resumes exactly where this one stopped) and
        raises :class:`SimStall`.  Honors :attr:`event_hook` too, so the
        determinism differ and a watchdog can coexist.  The wall-clock
        deadline is checked once every ``_WALL_STRIDE`` events, not per
        event — a syscall per dispatch is exactly the overhead the guard
        exists to avoid.
        """
        max_events, max_time, wall_s = self._watchdog
        event_budget = (
            self._events_processed + max_events if max_events is not None else None
        )
        perf = time.perf_counter
        wall_deadline = perf() + wall_s if wall_s is not None else None
        self._stopped = False
        wall_start = perf()
        events_before = self._events_processed
        queue = self._queue
        pop = heappop
        push = heappush
        hook = self.event_hook
        wall_countdown = _WALL_STRIDE
        try:
            while queue:
                if until is not None and queue[0][0] > until:
                    break
                entry = pop(queue)
                t, _seq, fn, args = entry
                if fn is None:
                    handle = args
                    fn = handle.fn
                    if fn is None:
                        self._dead -= 1
                        continue
                    args = handle.args
                if max_time is not None and t > max_time:
                    push(queue, entry)
                    self._stall(f"sim time exceeded {max_time:.0f}ns", t)
                if event_budget is not None and self._events_processed >= event_budget:
                    push(queue, entry)
                    self._stall(f"event budget of {max_events} exhausted", t)
                if wall_deadline is not None:
                    wall_countdown -= 1
                    if wall_countdown <= 0:
                        wall_countdown = _WALL_STRIDE
                        if perf() > wall_deadline:
                            push(queue, entry)
                            self._stall(f"wall-clock deadline of {wall_s}s exceeded", t)
                if entry[2] is None:
                    handle.fn = None
                    handle.args = ()
                self.now = t
                self._events_processed += 1
                if hook is not None:
                    hook(t, fn, args)
                fn(*args)
        except StopSimulation:
            self._stopped = True
        finally:
            self.last_run_wall_s = perf() - wall_start
            self.last_run_events = self._events_processed - events_before
        if until is not None and not self._stopped and self.now < until:
            self.now = until

    def stop(self) -> None:
        """Stop the current :meth:`run` after the current event."""
        raise StopSimulation()

    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def queue_length(self) -> int:
        """Pending queue entries, *including* cancelled-but-unpopped ones.

        O(1) and exact mid-run: every push is eventually either dispatched
        or dropped as cancelled (skipped by the run loop or compacted).
        """
        return self._seq - self._events_processed - self._cancelled + self._dead

    @property
    def live_queue_length(self) -> int:
        """Pending entries that will actually dispatch."""
        return self.queue_length - self._dead

    @property
    def events_per_wall_second(self) -> float:
        """Throughput of the most recent :meth:`run` (0 before any run)."""
        if self.last_run_wall_s <= 0.0:
            return 0.0
        return self.last_run_events / self.last_run_wall_s
