"""Property: calendar queue == heap queue, event for event.

The calendar queue (``Simulator(queue="calendar")``, the default) keeps
one FIFO list per pending timestamp plus a heap of the distinct times;
the binary heap (``queue="heap"``) is the retained reference.  None of
that may be *observable*: across random operation interleavings
(schedule / schedule_at / push / cancellable timers / cancel /
re-arm, same-tick ties, negative-drift clamps), across the bucket
regimes (one huge timestamp, one entry per timestamp, pushes at ``now``
mid-bucket, stops, watchdog trips and compaction mid-bucket) and across
whole-fabric runs (healthy and faulted), the dispatched event stream
must be identical — same times, same order, same event accounting.  The
fabric comparison reuses the determinism differ's
:class:`~repro.validate.differ.EventTrace` so any divergence reports the
exact first event where the two queue implementations disagreed.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultSchedule
from repro.network.dragonfly import DragonflyParams
from repro.sim import SimStall, Simulator
from repro.systems import slingshot_config
from repro.validate.differ import EventTrace

# Delay palette chosen to force every interesting queue regime: exact
# ties (0.0 and repeated values, which share a bucket), sub-ns fractions,
# and far-future outliers that keep many distinct timestamps pending.
_DELAYS = (
    0.0,
    0.0,
    1.0,
    1.0,
    0.25,
    3.5,
    7.0,
    64.0,
    1_000.0,
    1_000.0,
    250_000.0,
    9e6,
)


def _drive(sim, ops, budget):
    """Run *ops* against *sim*; return the dispatch log [(now, tag)].

    Pre-schedules one entry per op, then lets handlers schedule, cancel,
    and re-arm timers mid-run from a seeded RNG.  Both queue kinds see
    the same op list and the same RNG seed, so as long as dispatch stays
    identical the two runs make identical draws — the assertion below
    verifies exactly that.
    """
    rng = random.Random(20_260_808)
    log = []
    handles = []
    fuel = [budget]

    def fire(tag):
        log.append((sim.now, tag))
        if fuel[0] <= 0:
            return
        fuel[0] -= 1
        r = rng.random()
        if r < 0.20 and handles:
            handles.pop(rng.randrange(len(handles))).cancel()
        elif r < 0.45:
            h = sim.schedule_cancellable(
                rng.choice(_DELAYS), fire, tag * 31 + 7
            )
            handles.append(h)
        elif r < 0.60 and handles:
            # re-arm: cancel a pending timer and replace it immediately
            h = handles.pop(rng.randrange(len(handles)))
            h.cancel()
            handles.append(
                sim.schedule_cancellable(rng.choice(_DELAYS), fire, tag + 17)
            )
        elif r < 0.80:
            sim.schedule(rng.choice(_DELAYS), fire, tag + 1_000)
        else:
            # negative-drift clamp: a deadline an attosecond in the past
            sim.schedule_at(sim.now - 1e-9, fire, tag + 2_000)

    for i, (kind, delay_idx) in enumerate(ops):
        delay = _DELAYS[delay_idx]
        if kind == 0:
            sim.schedule(delay, fire, i)
        elif kind == 1:
            sim.schedule_at(delay, fire, i)
        elif kind == 2:
            sim.push(delay, fire, (i,))
        else:
            handles.append(sim.schedule_cancellable(delay, fire, i))
    sim.run()
    return log


@settings(max_examples=30, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, len(_DELAYS) - 1)),
        min_size=1,
        max_size=40,
    ),
    budget=st.integers(0, 400),
)
def test_random_interleavings_dispatch_identically(ops, budget):
    log_cal = _drive(Simulator(queue="calendar"), ops, budget)
    log_heap = _drive(Simulator(queue="heap"), ops, budget)
    assert log_cal == log_heap


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_run_until_stepping_dispatches_identically(seed):
    """Repeated run(until=...) slices must agree too (the calendar puts
    the first timestamp past the boundary back on its heap)."""

    def stepped(sim):
        rng = random.Random(seed)
        log = []

        def fire(tag):
            log.append((sim.now, tag))
            if tag < 300:
                sim.schedule(rng.choice(_DELAYS), fire, tag + 1)

        for i in range(8):
            sim.schedule(rng.choice(_DELAYS), fire, i)
        t = 0.0
        while sim.queue_length:
            t += 2_000.0
            sim.run(until=t)
        return log

    assert stepped(Simulator(queue="calendar")) == stepped(
        Simulator(queue="heap")
    )


def _probe(sim, log, tag):
    """Handler body shared by the bucket regimes: record the clock, the
    tag and both queue counters as a handler sees them mid-bucket."""
    log.append((sim.now, tag, sim.queue_length, sim.live_queue_length))


def _one_timestamp(sim, log):
    for i in range(2_000):
        sim.schedule(42.0, _probe, sim, log, i)
    sim.run()


def _one_per_timestamp(sim, log):
    for i in range(2_000):
        sim.schedule(float(2_000 - i) * 1.5, _probe, sim, log, i)
    sim.run()


def _pushes_at_now(sim, log):
    def fire(tag):
        _probe(sim, log, tag)
        if tag < 200:
            sim.schedule(0.0, fire, tag * 2 + 1)  # joins the live bucket
            sim.schedule_at(sim.now, fire, tag * 2 + 2)
            sim.schedule(3.0, _probe, sim, log, -tag)

    for i in range(5):
        sim.schedule(10.0, fire, i)
    sim.run()


def _cancelled_tail(sim, log):
    """Timestamps whose entries were all cancelled do not move the clock:
    ``now`` ends at the last *dispatched* event, as with the heap."""
    for i in range(4):
        sim.schedule(float(i), _probe, sim, log, i)
    for t in (2.5, 9.0, 9.0, 12.0):
        sim.schedule_cancellable(t, _probe, sim, log, "dead").cancel()
    sim.run()
    log.append(("end", sim.now))


def _stop_then_resume(sim, log):
    def fire(tag):
        _probe(sim, log, tag)
        if tag == 3:
            sim.schedule(0.0, _probe, sim, log, "pushed-by-stopper")
            sim.stop()

    for i in range(8):
        sim.schedule(5.0, fire, i)
    sim.schedule(9.0, fire, 99)
    sim.run()
    log.append(("stopped", sim.now, sim.queue_length, sim.live_queue_length))
    sim.run()


def _raise_then_resume(sim, log):
    """A handler exception mid-bucket consumes only the raising entry."""

    def fire(tag):
        _probe(sim, log, tag)
        if tag == 2:
            raise KeyError(tag)

    for i in range(6):
        sim.schedule(5.0, fire, i)
    with pytest.raises(KeyError):
        sim.run()
    log.append(("raised", sim.now, sim.queue_length, sim.live_queue_length))
    sim.run()


def _trip_then_resume(arm):
    """A watchdog trips inside a bucket; disarming and re-running must
    dispatch the held-back entry and the rest of the bucket."""

    def scenario(sim, log):
        handles = [
            sim.schedule_cancellable(100.0, _probe, sim, log, f"dead{i}")
            for i in range(3)
        ]
        for i in range(600):
            sim.schedule(100.0, _probe, sim, log, i)
        for h in handles:
            h.cancel()  # leading dead entries: a time trip lands mid-bucket
        sim.schedule(1.0, _probe, sim, log, "early")
        arm(sim)
        with pytest.raises(SimStall) as exc:
            sim.run()
        stall = exc.value
        log.append(
            (
                "stall",
                stall.reason,
                stall.next_event_ns,
                stall.queue_length,
                stall.live_queue_length,
                stall.events_processed,
                sim.now,
            )
        )
        sim.watchdog()
        sim.run()

    return scenario


def _compaction_mid_bucket(sim, log):
    """A cancel storm inside a handler compacts the queue while the
    bucket at ``now`` is being dispatched.  Heap compaction also drops
    the dead entries at ``now``; the calendar must leave that bucket
    alone, so only the live count is compared between the two."""
    fired = []

    def storm():
        handles = [
            sim.schedule_cancellable(float(k % 3) * 50.0, fired.append, "never")
            for k in range(300)
        ]
        for h in handles:
            h.cancel()
        assert sim.queue_length < 300  # compaction ran

    def fire(tag):
        log.append((sim.now, tag, sim.live_queue_length))
        if tag == 2:
            storm()
            sim.schedule(0.0, fire, "after-storm")

    for i in range(6):
        sim.schedule(7.0, fire, i)
    sim.schedule(60.0, fire, "later")
    sim.run()
    assert fired == []
    log.append(("drained", sim.queue_length, sim.live_queue_length))


def _rearm_while_queued(sim, log):
    """The scraper / time-series pattern: a sampler re-arms while
    ``queue_length > 0``.  It must stop once only its own entry is left,
    so the counter may not include entries already dispatched."""

    def sample():
        _probe(sim, log, "sample")
        if sim.queue_length > 0:
            sim.schedule(4.0, sample)

    for i in range(40):
        sim.schedule(float(i // 8), _probe, sim, log, i)
    sim.schedule(0.0, sample)
    sim.watchdog(max_events=10_000)  # a regression fails, never hangs
    sim.run()


@pytest.mark.parametrize(
    "scenario",
    [
        _one_timestamp,
        _one_per_timestamp,
        _pushes_at_now,
        _cancelled_tail,
        _stop_then_resume,
        _raise_then_resume,
        _trip_then_resume(lambda sim: sim.watchdog(max_events=300)),
        _trip_then_resume(lambda sim: sim.watchdog(max_sim_time_ns=50.0)),
        _trip_then_resume(lambda sim: sim.watchdog(wall_deadline_s=1e-9)),
        _compaction_mid_bucket,
        _rearm_while_queued,
    ],
    ids=[
        "one-timestamp",
        "one-per-timestamp",
        "pushes-at-now",
        "cancelled-tail",
        "stop-then-resume",
        "raise-then-resume",
        "budget-trip",
        "sim-time-trip",
        "wall-trip",
        "compaction-mid-bucket",
        "rearm-while-queued",
    ],
)
def test_bucket_regimes_match_heap(scenario):
    logs = []
    for kind in ("calendar", "heap"):
        sim = Simulator(queue=kind)
        log = []
        scenario(sim, log)
        assert sim.queue_length == 0 and sim.live_queue_length == 0, kind
        logs.append((log, sim.events_processed, sim.now))
    assert logs[0] == logs[1]


def test_queue_kind_property_and_validation():
    assert Simulator().queue_kind == "calendar"
    assert Simulator(queue="heap").queue_kind == "heap"
    try:
        Simulator(queue="ladderzzz")
    except ValueError as exc:
        assert "queue kind" in str(exc)
    else:  # pragma: no cover
        raise AssertionError("bogus queue kind accepted")


def test_mid_run_compaction_keeps_new_events_live():
    """Regression: _compact() must mutate the queue lists in place.

    The run loop binds the queue container to a local; the old heap
    implementation *reassigned* ``_queue`` during compaction, so a
    compaction triggered from inside a handler (a cancel storm) would
    strand every event scheduled afterwards in a list the loop never
    reads.  Both queue kinds must survive this.
    """
    for kind in ("calendar", "heap"):
        sim = Simulator(queue=kind)
        fired = []

        def storm():
            # create + cancel enough timers to cross the compaction
            # threshold (dead > 64 and dead*2 > queue length) mid-run
            for _ in range(200):
                sim.schedule_cancellable(50.0, fired.append, "never").cancel()
            sim.schedule(1.0, fired.append, "after-compact")

        sim.schedule(0.0, storm)
        sim.run()
        assert fired == ["after-compact"], kind
        assert sim.queue_length == 0, kind


# -- whole-fabric equivalence (EventTrace) --------------------------------


def _run_traced(cfg, seed, schedule_of=None):
    fabric = cfg.build()
    if schedule_of is not None:
        fabric.attach_faults(
            schedule_of(fabric), base_rto_ns=100_000.0, max_rto_ns=400_000.0
        )
    trace = EventTrace()
    fabric.sim.event_hook = trace
    rng = random.Random(seed)
    nn = fabric.topology.n_nodes
    sent = 0
    while sent < 12:
        src, dst = rng.randrange(nn), rng.randrange(nn)
        if src == dst:
            continue
        fabric.send(src, dst, rng.choice([8, 4_000, 24_000]))
        sent += 1
    fabric.sim.run()
    return fabric, trace


def _assert_fabric_equivalent(cfg, seed, schedule_of=None):
    fab_cal, trace_cal = _run_traced(cfg, seed, schedule_of)
    assert fab_cal.sim.queue_kind == "calendar"
    fab_heap, trace_heap = _run_traced(
        cfg.with_(queue="heap"), seed, schedule_of
    )
    assert fab_heap.sim.queue_kind == "heap"
    n = min(len(trace_cal), len(trace_heap))
    for i in range(n):
        assert trace_cal.events[i] == trace_heap.events[i], (
            f"first divergence at event {i}: "
            f"calendar={trace_cal.events[i]!r} heap={trace_heap.events[i]!r}"
        )
    assert len(trace_cal) == len(trace_heap)
    assert fab_cal.sim.events_processed == fab_heap.sim.events_processed
    assert fab_cal.sim.now == fab_heap.sim.now
    assert fab_cal.packets_delivered() == fab_heap.packets_delivered()
    assert fab_cal.packets_dropped() == fab_heap.packets_dropped()


@settings(max_examples=6, deadline=None)
@given(
    p=st.integers(1, 2),
    a=st.integers(2, 3),
    g=st.integers(2, 4),
    links=st.integers(1, 2),
    seed=st.integers(0, 1_000),
)
def test_calendar_matches_heap_healthy_fabric(p, a, g, links, seed):
    cfg = slingshot_config(
        DragonflyParams(p, a, g, links_per_pair=links), seed=seed
    )
    _assert_fabric_equivalent(cfg, seed)


@settings(max_examples=6, deadline=None)
@given(
    p=st.integers(1, 2),
    a=st.integers(2, 3),
    g=st.integers(2, 4),
    seed=st.integers(0, 1_000),
    n_faults=st.integers(1, 4),
)
def test_calendar_matches_heap_under_faults(p, a, g, seed, n_faults):
    """Fault schedules exercise retransmission timers (cancel/re-arm
    churn), port fail/recover drops, and watchdog-free long horizons."""
    cfg = slingshot_config(
        DragonflyParams(p, a, g, links_per_pair=2), seed=seed
    )

    def schedule_of(fabric):
        return FaultSchedule.generate(
            fabric,
            seed=seed,
            n_faults=n_faults,
            t_start=5_000.0,
            t_end=400_000.0,
            switch_faults=seed % 2,
        )

    _assert_fabric_equivalent(cfg, seed, schedule_of)
