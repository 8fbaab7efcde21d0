"""Observer microbenchmark: the windowed time-series engine's sampling cost.

Not a paper figure — isolates what ``fabric.attach_observer()`` costs
per simulated window on malbec-mini (2,796 registry metrics).  Two
meters:

* **ticks/s** — engine sampling ticks per host second on an idle fabric
  whose only events are the engine's own ticks, so nothing but sampling
  and window closing is on the clock;
* **registry reads per closed window** — an exact, machine-independent
  count: every ``Counter``/``Gauge``/``Histogram`` read between two
  window closes of a loaded run.  Each level gauge is read once per
  tick and each cumulative metric once per window (that read is also
  the next window's baseline), so the count is
  ``cumulative + samples_per_window * level`` — the metric count at
  ``samples_per_window=1``.

Numbers merge into ``results/BENCH_engine.json`` under ``observer``; CI
perf-smoke asserts the exact read count.
"""

import random
import time
from contextlib import contextmanager

from conftest import run_once, save_metrics, save_result
from repro.analysis import render_table
from repro.network.units import KiB
from repro.observe import CUMULATIVE_SUFFIXES
from repro.systems import malbec_mini
from repro.telemetry.registry import Counter, Gauge, Histogram

WINDOW_NS = 10_000.0
#: simulated time of the idle tick-rate run (100 windows)
IDLE_HORIZON_NS = 1_000_000.0


@contextmanager
def counting_reads():
    """Count every metric read while active (class-level wrappers)."""
    count = [0]
    saved = [(cls, cls.read) for cls in (Counter, Gauge, Histogram)]

    def counted(read):
        def wrapper(self):
            count[0] += 1
            return read(self)

        return wrapper

    for cls, read in saved:
        cls.read = counted(read)
    try:
        yield count
    finally:
        for cls, read in saved:
            cls.read = read


def read_counts(samples_per_window: int) -> dict:
    """Registry reads per closed window of a loaded malbec-mini run,
    against the count expected from the registry's composition."""
    with counting_reads() as count:
        fabric = malbec_mini().build()
        obs = fabric.attach_observer(window_ns=WINDOW_NS,
                                     samples_per_window=samples_per_window)
        engine = obs.engine
        marks = [count[0]]
        close = engine._close_window

        def marked_close(t1):
            close(t1)
            marks.append(count[0])

        engine._close_window = marked_close
        # 400 random-pair 16 KiB messages over 200 us: about 20 windows
        rng = random.Random(1)
        n, sim = fabric.topology.n_nodes, fabric.sim
        for _ in range(400):
            src = rng.randrange(n)
            dst = (src + 1 + rng.randrange(n - 1)) % n
            sim.schedule_at(rng.uniform(0.0, 200_000.0),
                            lambda s=src, d=dst: fabric.send(s, d, 16 * KiB))
        sim.run()
    reg = obs.registry
    cumulative = sum(
        1 for name in reg.names()
        if reg.get(name).kind != "gauge" or name.endswith(CUMULATIVE_SUFFIXES)
    )
    level = len(reg) - cumulative
    per_window = sorted({b - a for a, b in zip(marks, marks[1:])})
    return {
        "metrics": len(reg),
        "cumulative": cumulative,
        "level": level,
        "windows": len(marks) - 1,
        "reads_per_window": per_window,
        "expected": cumulative + samples_per_window * level,
    }


def tick_rate(samples_per_window: int, repeats: int = 3) -> float:
    """Best-of-*repeats* engine ticks per host second on an idle fabric."""
    best = 0.0
    for _ in range(repeats):
        fabric = malbec_mini().build()
        obs = fabric.attach_observer(window_ns=WINDOW_NS,
                                     samples_per_window=samples_per_window)
        # the only other event: keeps the engine sampling to the horizon
        fabric.sim.schedule_at(IDLE_HORIZON_NS, lambda: None)
        t0 = time.perf_counter()
        fabric.sim.run()
        dt = time.perf_counter() - t0
        ticks = len(obs.windows) * samples_per_window
        best = max(best, ticks / dt)
    return best


def test_observer_sampling_cost(benchmark, report):
    def run():
        return {spw: (read_counts(spw), tick_rate(spw)) for spw in (1, 4)}

    results = run_once(benchmark, run)
    rows, metrics = [], {}
    for spw, (counts, rate) in results.items():
        rows.append([
            spw, counts["metrics"], counts["cumulative"], counts["level"],
            ", ".join(str(r) for r in counts["reads_per_window"]),
            counts["expected"], f"{rate:,.0f}",
        ])
        metrics[f"samples_per_window_{spw}"] = dict(
            counts, ticks_per_s=rate, windows_per_s=rate / spw)
    table = render_table(
        ["samples/window", "metrics", "cumulative", "level",
         "reads/window", "expected", "ticks/s"],
        rows,
        title="Observer microbench (malbec-mini; ticks/s best-of-3, idle fabric)",
    )
    report(table)
    save_result("observer", table)
    save_metrics("observer", metrics)
    for counts, rate in results.values():
        assert counts["windows"] > 10
        assert counts["reads_per_window"] == [counts["expected"]], counts
        assert rate > 100, rate  # sanity floor only
