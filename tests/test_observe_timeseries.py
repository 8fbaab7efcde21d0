"""Windowed time-series engine: mechanics, merging, parallel cells.

The merge property under test is the one :mod:`repro.parallel` relies
on: combining per-cell window series must be exact for deltas and
order-independent for level sketches, so a sweep gets the same merged
view whether its cells ran serially or across a process pool, and
whatever shape the merge tree takes.
"""

import hashlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultSchedule
from repro.network.units import KiB
from repro.observe import (
    LevelAgg,
    TimeSeriesEngine,
    TimeWindow,
    merge_window_series,
)
from repro.observe.timeseries import _RAW_CAP
from repro.parallel import run_cells
from repro.systems import malbec_mini


def _run_with_engine(window_ns=5_000.0, n_messages=40, seed=7, **engine_kw):
    fabric = malbec_mini().build()
    obs = fabric.attach_observer(window_ns=window_ns, **engine_kw)
    rng = random.Random(seed)
    n = fabric.topology.n_nodes
    sent = 0
    while sent < n_messages:
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            fabric.send(a, b, rng.choice([8, 4 * KiB, 64 * KiB]))
            sent += 1
    fabric.sim.run()
    obs.stop()
    return fabric, obs


# -- engine mechanics ---------------------------------------------------------


def test_windows_cover_the_run_contiguously():
    fabric, obs = _run_with_engine()
    ws = list(obs.windows)
    assert len(ws) >= 2
    assert ws[0].t0 == 0.0
    for a, b in zip(ws, ws[1:]):
        assert a.t1 == b.t0  # no gaps, no overlap
    assert ws[-1].t1 == fabric.sim.now  # stop() sealed the partial window


def test_window_deltas_sum_to_final_totals():
    fabric, obs = _run_with_engine()
    # windows partition the run, so per-window deltas of any cumulative
    # metric must sum to its final value (it started at zero)
    total_tx = sum(
        w.deltas.get("nic.0.rx_pkts", 0.0) for w in obs.windows
    )
    assert total_tx == float(fabric.nics[0].pkts_delivered)
    delivered = sum(
        sum(v for k, v in w.deltas.items()
            if k.startswith("nic.") and k.endswith(".rx_pkts"))
        for w in obs.windows
    )
    assert delivered == float(fabric.packets_delivered())


def test_levels_and_rates_are_sane():
    fabric, obs = _run_with_engine()
    eng = obs.engine
    # every window rates a busy injection port consistently with its delta
    name = "nic.0.port.I0->0.tx_bytes"
    for t1, r in eng.rate_series(name):
        assert r >= 0.0
    ewma = eng.ewma_series(name)
    assert len(ewma) == len(obs.windows)
    # level gauges (voq_depth) were sampled and answer summaries
    sampled = [w for w in obs.windows
               for agg in [w.levels.get("sim.queue_depth")] if agg and agg.n]
    assert sampled
    agg = next(iter(sampled)).levels["sim.queue_depth"]
    s = agg.summary()
    assert s["min"] <= s["p50"] <= s["max"]


def test_ring_capacity_bounds_memory():
    _, obs = _run_with_engine(window_ns=500.0, max_windows=4)
    assert len(obs.windows) == 4  # older windows fell off the front


def test_engine_never_keeps_a_finished_run_alive():
    fabric = malbec_mini().build()
    obs = fabric.attach_observer(window_ns=1_000.0)
    fabric.send(0, 5, 4 * KiB)
    fabric.sim.run()  # must terminate even though the engine re-arms
    obs.stop()
    assert fabric.sim.queue_length == 0


def test_counter_tracks_emit_rates_and_utils():
    _, obs = _run_with_engine()
    tracks = dict(obs.engine.counter_tracks(["nic.0.port"]))
    rate_tracks = [n for n in tracks if n.endswith(".rate")]
    util_tracks = [n for n in tracks if n.endswith(".util")]
    assert rate_tracks and util_tracks
    for points in tracks.values():
        assert len(points) == len(obs.windows)
        assert all(v >= 0.0 for _, v in points)


# -- merge properties ---------------------------------------------------------


def _agg_from(samples):
    agg = LevelAgg()
    for s in samples:
        agg.observe(s)
    return agg


def _aggs_equal(a: LevelAgg, b: LevelAgg) -> bool:
    # totals are float sums: association order may differ by ulps
    if a.n != b.n or not math.isclose(a.total, b.total,
                                      rel_tol=1e-9, abs_tol=1e-6):
        return False
    if a.n == 0:
        return True
    if (a.vmin, a.vmax) != (b.vmin, b.vmax):
        return False
    if (a.sketch is None) != (b.sketch is None):
        return False
    if a.sketch is not None:
        return a.sketch.counts == b.sketch.counts
    return sorted(a.samples) == sorted(b.samples)


values = st.floats(min_value=0.0, max_value=1e9,
                   allow_nan=False, allow_infinity=False)
sample_lists = st.lists(values, max_size=_RAW_CAP + 10)


@settings(max_examples=60, deadline=None)
@given(sample_lists, sample_lists, sample_lists)
def test_levelagg_merge_is_associative_and_commutative(xs, ys, zs):
    a, b, c = _agg_from(xs), _agg_from(ys), _agg_from(zs)
    left = a.merge(b).merge(c)
    right = a.merge(b.merge(c))
    assert _aggs_equal(left, right)
    assert _aggs_equal(a.merge(b), b.merge(a))
    # and the merged state matches observing the union directly
    assert _aggs_equal(left, _agg_from(xs + ys + zs))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from(["m.a", "m.b", "m.c"]), values),
             max_size=8),
    st.lists(st.tuples(st.sampled_from(["m.a", "m.b", "m.c"]), values),
             max_size=8),
)
def test_window_merge_deltas_add_by_union(da, db):
    def window(pairs):
        deltas = {}
        for k, v in pairs:
            deltas[k] = deltas.get(k, 0.0) + v
        return TimeWindow(0.0, 100.0, deltas, {})

    wa, wb = window(da), window(db)
    merged = wa.merge(wb)
    for k in set(merged.deltas):
        expect = wa.deltas.get(k, 0.0) + wb.deltas.get(k, 0.0)
        assert math.isclose(merged.deltas[k], expect, rel_tol=1e-12)
    # commutative
    flipped = wb.merge(wa)
    assert merged.deltas == flipped.deltas
    assert (merged.t0, merged.t1) == (flipped.t0, flipped.t1)


# -- serial == parallel (the repro.parallel contract) -------------------------


def _cell_worker(cell):
    """Module-level (picklable) sweep cell: its own fabric + engine."""
    seed, n_messages = cell
    _, obs = _run_with_engine(window_ns=5_000.0, n_messages=n_messages,
                              seed=seed)
    return obs.engine.series()


def _fingerprint_series(series):
    out = []
    for w in series:
        deltas = tuple(sorted((k, v) for k, v in w.deltas.items() if v))
        # events_per_wall_s is wall-clock derived — the one legitimately
        # nondeterministic gauge; everything else must match exactly
        levels = tuple(sorted(
            (k, agg.n, agg.total, agg.vmin, agg.vmax)
            for k, agg in w.levels.items()
            if agg.n and "per_wall" not in k
        ))
        out.append((w.t0, w.t1, deltas, levels))
    return out


def _series_close(a, b):
    """Fingerprint equality up to float-summation association order."""
    if len(a) != len(b):
        return False
    for (t0a, t1a, da, la), (t0b, t1b, db, lb) in zip(a, b):
        if (t0a, t1a) != (t0b, t1b) or len(da) != len(db) or len(la) != len(lb):
            return False
        for (ka, va), (kb, vb) in zip(da, db):
            if ka != kb or not math.isclose(va, vb, rel_tol=1e-9, abs_tol=1e-6):
                return False
        for (ka, na, ta, mna, mxa), (kb, nb, tb, mnb, mxb) in zip(la, lb):
            if (ka, na, mna, mxa) != (kb, nb, mnb, mxb):
                return False
            if not math.isclose(ta, tb, rel_tol=1e-9, abs_tol=1e-6):
                return False
    return True


def test_parallel_cells_merge_to_the_serial_result():
    cells = [(11, 20), (22, 20), (33, 20)]
    serial = run_cells(_cell_worker, cells, jobs=1)
    parallel = run_cells(_cell_worker, cells, jobs=2)
    # identical per-cell series regardless of execution mode...
    for s, p in zip(serial, parallel):
        assert _fingerprint_series(s) == _fingerprint_series(p)
    # ...and merging them in different orders gives the same fabric view
    merged_lr = serial[0]
    for s in serial[1:]:
        merged_lr = merge_window_series(merged_lr, s)
    merged_rl = parallel[-1]
    for p in reversed(parallel[:-1]):
        merged_rl = merge_window_series(p, merged_rl)
    assert _series_close(_fingerprint_series(merged_lr),
                         _fingerprint_series(merged_rl))
    # the merged view accumulates every cell's traffic
    total = sum(w.deltas.get("fabric.messages_completed", 0.0)
                for w in merged_lr)
    assert total == 60.0


# -- golden window digests ----------------------------------------------------
#
# The engine's read schedule (which metrics it reads, when, and how
# often) is an implementation detail; the windows it produces are not.
# These digests pin every window of a seeded, faulted cell bit for bit:
# bounds, every delta in dict order, and each level's count, total,
# extremes and raw samples.  They were recorded with the engine that
# snapshotted the whole registry on every tick, and must not move.

#: wall-clock derived, so legitimately different on every run
_WALL_GAUGE = "sim.events_per_wall_s"


def _window_digest(windows) -> str:
    h = hashlib.sha256()
    for w in windows:
        h.update(repr((w.t0, w.t1)).encode())
        for name, v in w.deltas.items():
            h.update(f"d {name} {v!r}\n".encode())
        for name, agg in w.levels.items():
            if name == _WALL_GAUGE:
                continue
            sketch = agg.sketch.counts if agg.sketch is not None else None
            h.update(repr((name, agg.n, agg.total, agg.vmin, agg.vmax,
                           agg.samples, sketch)).encode())
    return h.hexdigest()[:16]


def _faulted_cell(samples_per_window, late_metrics=False):
    fabric = malbec_mini(seed=3).build()
    fabric.attach_faults(FaultSchedule.generate(
        fabric, seed=3, n_faults=3, t_start=5_000.0, t_end=120_000.0,
        switch_faults=1,
    ), base_rto_ns=50_000.0)
    obs = fabric.attach_observer(window_ns=5_000.0,
                                 samples_per_window=samples_per_window)
    sim, reg = fabric.sim, obs.registry
    if late_metrics:
        # a component that registers its metrics mid-run (mid-window,
        # between two ticks): one counter, one level gauge and one
        # cumulative-suffix gauge, with names that sort into the middle
        # of the registry
        state = {"n": 0}

        def bump():
            state["n"] += 3
            reg.counter("fabric.late.counter").inc(2.0)

        def register():
            reg.gauge("nic.0.late_level", fn=lambda: float(state["n"] % 7))
            reg.gauge("nic.0.late.tx_bytes", fn=lambda: float(state["n"]))
            bump()

        sim.schedule_at(12_345.0, register)
        for k in range(1, 20):
            sim.schedule_at(12_345.0 + 3_100.0 * k, bump)
    rng = random.Random(3)
    n = fabric.topology.n_nodes
    for _ in range(60):
        src = rng.randrange(n)
        dst = (src + 1 + rng.randrange(n - 1)) % n
        sim.schedule_at(rng.uniform(0.0, 60_000.0),
                        lambda s=src, d=dst: fabric.send(s, d, 16 * KiB))
    sim.run()
    obs.stop()
    return fabric, obs


_GOLDEN_WINDOWS = {
    (1, False): "ecaf7de8f7ec2d10",
    (4, False): "dc3b1461e4819df4",
    (4, True): "ddb0690054ef892f",
}


@pytest.mark.parametrize("samples_per_window,late_metrics",
                         sorted(_GOLDEN_WINDOWS))
def test_window_series_matches_golden_digest(samples_per_window, late_metrics):
    fabric, obs = _faulted_cell(samples_per_window, late_metrics)
    windows = list(obs.windows)
    # the cell really is faulted, retransmits, and spans many windows
    assert fabric.fault_injector.events_applied > 0
    assert sum(w.deltas.get("faults.retransmits", 0.0) for w in windows) > 0
    assert len(windows) > 20
    if late_metrics:
        late = [w for w in windows if "fabric.late.counter" in w.deltas]
        assert late and "nic.0.late_level" in late[0].levels
        assert sum(w.deltas["fabric.late.counter"] for w in late) == 40.0
        assert sum(w.deltas["nic.0.late.tx_bytes"] for w in late) == 60.0
    assert _window_digest(windows) == _GOLDEN_WINDOWS[
        (samples_per_window, late_metrics)]
