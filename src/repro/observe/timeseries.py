"""Windowed time-series engine over the telemetry registry.

The PR 1 scraper produces raw snapshot columns; analysis code then
differences, rates, and percentiles them by hand, per experiment.  This
module replaces that with a first-class windowed view: sim time is cut
into fixed ``window_ns`` windows, each holding

* **deltas** — the increase of every *cumulative* metric (counters,
  histogram observation counts, and monotone gauges such as
  ``...tx_bytes`` or ``...credit_stall_ns``) over the window, so
  per-window rates and utilizations fall out as ``delta / width``;
* **levels** — a :class:`LevelAgg` sketch of every instantaneous gauge
  (``...voq_depth``, ``...cc_queued_bytes`` …) sampled
  ``samples_per_window`` times per window, answering mean/min/max and
  p50–p99 questions without storing every sample.

Windows live in a bounded ring (``max_windows``), so a long run keeps a
sliding recent view at O(windows x metrics) memory.

Windows **merge**: ``TimeWindow.merge`` combines the same window of two
independent runs (deltas add, level sketches fold together), and
:func:`merge_window_series` aligns and merges whole series — this is
what lets :func:`repro.parallel.run_cells` workers return their window
series and the parent combine them into one fabric-wide view.  Merging
is exact for deltas and order-independent for sketches (raw samples up
to a cap, then a shared-layout log-binned histogram), so any merge tree
over the same cells yields the same result.

Like the scraper, the engine schedules ordinary simulator events and
re-arms only while real events remain, so it never keeps a finished run
alive and a fabric without an engine schedules nothing.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Tuple

from ..telemetry.registry import Histogram, TelemetryRegistry

__all__ = [
    "LevelAgg",
    "TimeWindow",
    "TimeSeriesEngine",
    "merge_window_series",
    "CUMULATIVE_SUFFIXES",
]

#: gauge-name suffixes that are monotone totals in disguise (exposed as
#: callable-backed gauges for zero hot-path cost, but semantically
#: counters — windowing must difference, not average, them)
CUMULATIVE_SUFFIXES: Tuple[str, ...] = (
    ".tx_bytes",
    ".rx_bytes",
    ".tx_pkts",
    ".rx_pkts",
    ".acks_marked",
    ".marks",
    ".drops",
    ".credited_bytes",
    ".credit_stall_ns",
    ".credit_stalls",
    ".pkts_forwarded",
    ".pkts_dropped",
    ".pkts_injected",
    ".messages_sent",
    ".messages_completed",
    ".events_processed",
    ".reroutes",
    ".no_route",
    ".retransmits",
    ".dup_pkts",
    ".giveups",
    ".events",
)

#: raw samples kept per level aggregate before spilling to a sketch
_RAW_CAP = 64

#: shared sketch layout — every LevelAgg sketch uses it, so any two
#: sketches merge bin-for-bin (coarse on purpose: 4 bins/decade over
#: 12 decades is 50 ints)
_SKETCH = dict(lo=1.0, hi=1e12, bins_per_decade=4)


class LevelAgg:
    """Order-independent aggregate of one gauge's samples in one window.

    Exact (raw samples) up to :data:`_RAW_CAP` observations; beyond that
    everything spills into a log-binned :class:`Histogram` sketch.  The
    spill rule depends only on the *count*, and sketch bins add
    elementwise, so the aggregate state is a pure function of the sample
    multiset — the property window merging relies on.
    """

    __slots__ = ("n", "total", "vmin", "vmax", "samples", "sketch")

    def __init__(self):
        self.n = 0
        self.total = 0.0
        self.vmin = math.inf
        self.vmax = -math.inf
        self.samples: Optional[List[float]] = []
        self.sketch: Optional[Histogram] = None

    def observe(self, v: float) -> None:
        self.n += 1
        self.total += v
        if v < self.vmin:
            self.vmin = v
        if v > self.vmax:
            self.vmax = v
        if self.sketch is not None:
            self.sketch.observe(v)
        else:
            self.samples.append(v)
            if len(self.samples) > _RAW_CAP:
                self._spill()

    def _spill(self) -> None:
        self.sketch = Histogram("level", **_SKETCH)
        for s in self.samples:
            self.sketch.observe(s)
        self.samples = None

    # -- summaries ------------------------------------------------------------

    def mean(self) -> float:
        return self.total / self.n if self.n else math.nan

    def percentile(self, q: float) -> float:
        if self.n == 0:
            return math.nan
        if self.sketch is not None:
            return self.sketch.percentile(q)
        from ..analysis.stats import percentile  # deferred: pulls in numpy

        return percentile(self.samples, q)

    def summary(self) -> Dict[str, float]:
        if self.n == 0:
            return {"n": 0}
        return {
            "n": self.n,
            "mean": self.mean(),
            "min": self.vmin,
            "max": self.vmax,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }

    # -- merging --------------------------------------------------------------

    def merge(self, other: "LevelAgg") -> "LevelAgg":
        """A new aggregate over the union of both sample multisets."""
        out = LevelAgg()
        out.n = self.n + other.n
        out.total = self.total + other.total
        out.vmin = min(self.vmin, other.vmin)
        out.vmax = max(self.vmax, other.vmax)
        if self.sketch is None and other.sketch is None and out.n <= _RAW_CAP:
            out.samples = self.samples + other.samples
            return out
        out.samples = None
        out.sketch = Histogram("level", **_SKETCH)
        for src in (self, other):
            if src.sketch is not None:
                out.sketch.merge(src.sketch)
            else:
                for s in src.samples:
                    out.sketch.observe(s)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"LevelAgg(n={self.n}, mean={self.mean():g})"


class TimeWindow:
    """One ``[t0, t1)`` slice of the run: metric deltas + level sketches.

    Plain data (floats, dicts, :class:`LevelAgg`) — picklable, so
    parallel sweep workers can return window series across the process
    boundary.
    """

    __slots__ = ("t0", "t1", "deltas", "levels")

    def __init__(self, t0: float, t1: float,
                 deltas: Optional[Dict[str, float]] = None,
                 levels: Optional[Dict[str, LevelAgg]] = None):
        self.t0 = t0
        self.t1 = t1
        self.deltas = deltas if deltas is not None else {}
        self.levels = levels if levels is not None else {}

    @property
    def width(self) -> float:
        return self.t1 - self.t0

    def rate(self, name: str) -> float:
        """Per-ns rate of a cumulative metric over this window."""
        w = self.width
        return self.deltas.get(name, 0.0) / w if w > 0 else 0.0

    def utilization(self, name: str, bandwidth: float) -> float:
        """Fraction of ``bandwidth`` (B/ns) a ``...tx_bytes`` delta used."""
        w = self.width
        return self.deltas.get(name, 0.0) / (bandwidth * w) if w > 0 else 0.0

    def merge(self, other: "TimeWindow") -> "TimeWindow":
        """Combine the same window observed by two independent runs."""
        deltas = dict(self.deltas)
        for k, v in other.deltas.items():
            deltas[k] = deltas.get(k, 0.0) + v
        levels: Dict[str, LevelAgg] = {}
        for k in set(self.levels) | set(other.levels):
            a, b = self.levels.get(k), other.levels.get(k)
            if a is not None and b is not None:
                levels[k] = a.merge(b)
            else:
                levels[k] = (a if a is not None else b).merge(LevelAgg())
        return TimeWindow(min(self.t0, other.t0), max(self.t1, other.t1),
                          deltas, levels)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"TimeWindow([{self.t0:g}, {self.t1:g}), "
                f"{len(self.deltas)} deltas, {len(self.levels)} levels)")


def merge_window_series(a: Iterable[TimeWindow],
                        b: Iterable[TimeWindow]) -> List[TimeWindow]:
    """Merge two window series, aligning windows by their start time.

    Windows present in only one series pass through unchanged (cells of
    different simulated length produce different tails).  The result is
    sorted by ``t0``; merging is associative and commutative, so any
    fold order over a set of cell series gives the same answer.
    """
    by_t0: Dict[float, TimeWindow] = {}
    for w in a:
        by_t0[w.t0] = by_t0[w.t0].merge(w) if w.t0 in by_t0 else w
    for w in b:
        by_t0[w.t0] = by_t0[w.t0].merge(w) if w.t0 in by_t0 else w
    return [by_t0[t] for t in sorted(by_t0)]


class TimeSeriesEngine:
    """Cuts a run into fixed sim-time windows over a telemetry registry.

    Parameters
    ----------
    sim, registry:
        The simulator to schedule ticks on and the registry to sample.
    window_ns:
        Window width in simulated nanoseconds.
    samples_per_window:
        Level-gauge sampling ticks per window (the tick interval is
        ``window_ns / samples_per_window``; deltas are exact regardless).
    max_windows:
        Ring capacity — older windows fall off the front.
    capacities:
        Optional ``{"<base>.tx_bytes": bandwidth_B_per_ns}`` map used by
        :meth:`utilization` and :meth:`counter_tracks` to turn byte
        deltas into link utilizations.
    cumulative_suffixes:
        Extra gauge-name suffixes to treat as monotone totals, on top of
        :data:`CUMULATIVE_SUFFIXES`.
    """

    def __init__(
        self,
        sim,
        registry: TelemetryRegistry,
        window_ns: float = 10_000.0,
        samples_per_window: int = 4,
        max_windows: int = 256,
        capacities: Optional[Dict[str, float]] = None,
        cumulative_suffixes: Tuple[str, ...] = (),
    ):
        if window_ns <= 0:
            raise ValueError("window_ns must be positive")
        if samples_per_window < 1:
            raise ValueError("samples_per_window must be >= 1")
        if max_windows < 1:
            raise ValueError("max_windows must be >= 1")
        self.sim = sim
        self.registry = registry
        self.window_ns = float(window_ns)
        self.samples_per_window = samples_per_window
        self.interval_ns = self.window_ns / samples_per_window
        self.capacities: Dict[str, float] = dict(capacities or {})
        self._suffixes = CUMULATIVE_SUFFIXES + tuple(cumulative_suffixes)
        #: the finished-window ring
        self.windows: Deque[TimeWindow] = deque(maxlen=max_windows)
        self._armed = False
        self._started = False
        self._ticks_in_window = 0
        self._open_t0 = 0.0
        self._open_snap: Dict[str, float] = {}
        self._open_levels: Dict[str, LevelAgg] = {}
        self._read_plan: Tuple[List, List] = ([], [])  # see _plan()

    # -- control --------------------------------------------------------------

    def start(self) -> "TimeSeriesEngine":
        """Open the first window at the current sim time (idempotent)."""
        if not self._armed:
            self._armed = True
            self._started = True
            self._open_t0 = self.sim.now
            # every metric's baseline (the read plan is built at first use)
            self._open_snap = self.registry.snapshot()
            self._open_levels = {}
            self._ticks_in_window = 0
            self.sim.schedule(self.interval_ns, self._tick)
        return self

    def stop(self) -> None:
        """Seal the open window (possibly partial) and stop re-arming.

        Works whether the engine is still armed or disarmed itself when
        the event queue drained — any time that has passed since the
        last window boundary becomes a final partial window.  Idempotent.
        """
        if not self._started:
            return
        self._armed = False
        if self.sim.now > self._open_t0:
            self._sample_levels()
            self._close_window(self.sim.now)

    # -- internals -------------------------------------------------------------

    def _plan(self) -> Tuple[List, List]:
        """Name-sorted ``(name, read)`` pairs of cumulative metrics and of
        level gauges, classified once; rebuilt when the registry grows."""
        reg, plan = self.registry, self._read_plan
        if len(reg) != len(plan[0]) + len(plan[1]):
            self._read_plan = plan = ([], [])
            for name in reg.names():
                m = reg.get(name)
                cum = m.kind != "gauge" or name.endswith(self._suffixes)
                plan[0 if cum else 1].append((name, m.read))
        return plan

    def _sample_levels(self) -> None:
        levels = self._open_levels
        for name, read in self._plan()[1]:
            agg = levels.get(name)
            if agg is None:
                agg = levels[name] = LevelAgg()
            agg.observe(read())

    def _close_window(self, t1: float) -> None:
        # one read per cumulative metric: this window's ends are the next
        # one's baselines (a metric registered mid-window starts at 0.0)
        snap = {name: read() for name, read in self._plan()[0]}
        base = self._open_snap
        deltas = {name: v - base.get(name, 0.0) for name, v in snap.items()}
        self.windows.append(
            TimeWindow(self._open_t0, t1, deltas, self._open_levels)
        )
        self._open_t0 = t1
        self._open_snap = snap
        self._open_levels = {}
        self._ticks_in_window = 0

    def _tick(self) -> None:
        if not self._armed:
            return
        self._sample_levels()
        self._ticks_in_window += 1
        if self._ticks_in_window >= self.samples_per_window:
            self._close_window(self.sim.now)
        # Re-arm only while real simulation events remain, so the engine
        # never keeps an otherwise-finished run alive (scraper rule).
        if self.sim.queue_length > 0:
            self.sim.schedule(self.interval_ns, self._tick)
        else:
            self._armed = False

    # -- queries ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.windows)

    def rate_series(self, name: str) -> List[Tuple[float, float]]:
        """``(window_end_ns, units_per_ns)`` per window for a cumulative
        metric (empty list for an unknown name)."""
        return [(w.t1, w.rate(name)) for w in self.windows]

    def ewma_series(self, name: str, alpha: float = 0.3) -> List[Tuple[float, float]]:
        """Exponentially-weighted moving average of the per-window rate."""
        if not (0.0 < alpha <= 1.0):
            raise ValueError("alpha must be in (0, 1]")
        out: List[Tuple[float, float]] = []
        acc = None
        for t1, r in self.rate_series(name):
            acc = r if acc is None else alpha * r + (1 - alpha) * acc
            out.append((t1, acc))
        return out

    def level_series(self, name: str) -> List[Tuple[float, LevelAgg]]:
        """``(window_end_ns, LevelAgg)`` per window for a gauge."""
        return [(w.t1, w.levels[name]) for w in self.windows
                if name in w.levels]

    def utilization(self, window: TimeWindow) -> Dict[str, float]:
        """Per-port utilization for one window: ``{base: fraction}`` for
        every ``<base>.tx_bytes`` capacity the engine knows about."""
        out = {}
        for name, bw in self.capacities.items():
            base = name[: -len(".tx_bytes")] if name.endswith(".tx_bytes") else name
            out[base] = window.utilization(name, bw)
        return out

    def counter_tracks(
        self, prefixes: Optional[List[str]] = None
    ) -> List[Tuple[str, List[Tuple[float, float]]]]:
        """Per-window rate (and utilization) tracks for trace export.

        Returns ``(track_name, [(t_ns, value), ...])`` pairs: every
        cumulative metric becomes a ``<name>.rate`` track (units/ns at
        each window end) and every known capacity a ``<base>.util``
        track.  *prefixes* restricts by metric-name prefix.
        """
        if not self.windows:
            return []

        def wanted(name: str) -> bool:
            return prefixes is None or any(
                name == p or name.startswith(p) for p in prefixes
            )

        names = sorted(
            {n for w in self.windows for n in w.deltas if wanted(n)}
        )
        tracks = [
            (f"{name}.rate", [(w.t1, w.rate(name)) for w in self.windows])
            for name in names
        ]
        for cap_name in sorted(self.capacities):
            if not wanted(cap_name):
                continue
            bw = self.capacities[cap_name]
            base = (cap_name[: -len(".tx_bytes")]
                    if cap_name.endswith(".tx_bytes") else cap_name)
            tracks.append(
                (f"{base}.util",
                 [(w.t1, w.utilization(cap_name, bw)) for w in self.windows])
            )
        return tracks

    def series(self) -> List[TimeWindow]:
        """The finished windows as a plain (picklable) list — what a
        parallel sweep worker should return to its parent."""
        return list(self.windows)
