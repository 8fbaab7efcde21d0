"""The benchmark's three workloads, each split into inputs and one run.

``make_inputs(seed)`` draws everything random from the workload seed;
``run_once(inputs)`` builds, injects, simulates and post-processes once
and returns a :class:`Rep` with host times, exact work counters, the
simulated outputs and any output-check violation.  Host time is taken
from outside the simulator: :class:`Probe` wraps ``FabricConfig.build``
and ``Simulator.run`` at class level for the duration of one run.

* ``shandy-bisection`` -- paper Fig. 6: every node of the 1024-node
  SHANDY streams 64 KiB across the bisection; no MPI, no instruments.
* ``malbec-incast`` -- one Fig. 9/10 cell at paper scale: an 8 B
  allreduce victim on 256 random nodes of MALBEC against an incast
  congestor on the other 256, isolated and congested simulations.
* ``malbec-chaos-observed`` -- malbec-mini under a seeded fault schedule
  with a full-sampling observer and an armed watchdog, random-pair
  16 KiB traffic, then latency attribution and congestion forensics.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple

from repro.faults import FaultSchedule
from repro.network.fabric import FabricConfig
from repro.network.units import KiB
from repro.sim import Simulator
from repro.sim.rng import stable_hash
from repro.systems import malbec_mini, malbec_paper, shandy_paper
from repro.workloads import (
    allreduce_bench,
    congestion_impact,
    incast_congestor,
    split_nodes,
)


@dataclass
class Rep:
    """One run of a workload."""

    wall_s: float = 0.0
    setup_s: float = 0.0
    build_s: float = 0.0
    run_s: float = 0.0
    post_s: float = 0.0
    #: calibration kernel seconds around the run and the factor that
    #: scales its host times to the reference host (see calibrate.py)
    kernel_s: float = 0.0
    scale: float = 1.0
    #: operations attempted (set by the caller) and failed
    attempted: int = 0
    failed: int = 0
    #: simulated outputs: deterministic for a given input
    outputs: Dict[str, object] = field(default_factory=dict)
    #: exact work counters (deterministic): events, packets, per layer
    counters: Dict[str, float] = field(default_factory=dict)
    #: output-check violations (empty when the run is correct)
    errors: List[str] = field(default_factory=list)


class Probe:
    """Times ``FabricConfig.build`` and ``Simulator.run`` and keeps every
    fabric built, while installed (a context manager)."""

    def __init__(self):
        self.fabrics = []
        self.build_s = 0.0
        #: (enter, exit) perf_counter stamps of each Simulator.run call
        self.runs: List[tuple] = []

    def __enter__(self) -> "Probe":
        self._build = FabricConfig.build
        self._run = Simulator.run
        probe, build, run = self, self._build, self._run
        perf = time.perf_counter

        def timed_build(config, *args, **kwargs):
            t0 = perf()
            fabric = build(config, *args, **kwargs)
            probe.build_s += perf() - t0
            probe.fabrics.append(fabric)
            return fabric

        def timed_run(sim, *args, **kwargs):
            t0 = perf()
            try:
                return run(sim, *args, **kwargs)
            finally:
                probe.runs.append((t0, perf()))

        FabricConfig.build = timed_build
        Simulator.run = timed_run
        return self

    def __exit__(self, *exc) -> None:
        FabricConfig.build = self._build
        Simulator.run = self._run

    def split(self, t_start: float, t_end: float, rep: Rep) -> None:
        """Fill the rep's host times: set-up is the time before each
        ``Simulator.run`` call not spent in an earlier one, post-processing
        the time after the last."""
        rep.wall_s = t_end - t_start
        rep.build_s = self.build_s
        mark = t_start
        for enter, leave in self.runs:
            rep.setup_s += enter - mark
            rep.run_s += leave - enter
            mark = leave
        rep.post_s = t_end - mark


def fabric_counters(fabrics) -> Dict[str, float]:
    """Exact work counters summed over the fabrics of one run."""
    c = dict.fromkeys(
        ("sim.events", "packets.injected", "packets.delivered",
         "packets.dropped", "routing.forwarded", "routing.reroutes",
         "routing.no_route", "port.marks", "port.drops", "cc.acks",
         "cc.acks_marked", "faults.retransmits", "faults.dup_pkts",
         "faults.giveups", "messages.sent", "messages.completed"),
        0,
    )
    for f in fabrics:
        c["sim.events"] += f.sim.events_processed
        c["packets.injected"] += f.packets_injected()
        c["packets.delivered"] += f.packets_delivered()
        c["packets.dropped"] += f.packets_dropped()
        c["routing.forwarded"] += sum(sw.pkts_forwarded for sw in f.switches)
        c["routing.reroutes"] += getattr(f.router, "reroutes", 0)
        c["routing.no_route"] += getattr(f.router, "no_route", 0)
        for _, port in f.all_ports():
            c["port.marks"] += port.marks_set
            c["port.drops"] += port.pkts_dropped
        for nic in f.nics:
            c["cc.acks"] += nic.acks_marked + nic.acks_clean
            c["cc.acks_marked"] += nic.acks_marked
        inj = f.fault_injector
        if inj is not None:
            c["faults.retransmits"] += inj.retransmits()
            c["faults.dup_pkts"] += inj.dup_pkts()
            c["faults.giveups"] += inj.giveups()
        c["messages.sent"] += f.messages_sent
        c["messages.completed"] += f.messages_completed
    return c


def _check_drained(fabric, rep: Rep, label: str) -> None:
    """Packet conservation on a drained fabric: injected = delivered +
    dropped, no residual backlog, every credit returned, nothing unacked."""
    try:
        fabric.assert_quiescent()
    except AssertionError as err:
        rep.errors.append(f"{label}: {str(err).splitlines()[0]}")


def _goodput_gbps(fabric, makespan_ns: float) -> float:
    return fabric.bytes_delivered() * 8.0 / makespan_ns if makespan_ns else 0.0


# -- shandy-bisection ---------------------------------------------------------

SHANDY_MSG_BYTES = 64 * KiB


def shandy_inputs(seed: int) -> dict:
    config = shandy_paper(seed=seed)  # the seed drives adaptive routing
    n = config.params.n_nodes
    return {
        "config": config,
        "pairs": [(i, (i + n // 2) % n) for i in range(n)],
        "nbytes": SHANDY_MSG_BYTES,
    }


def shandy_run(inputs: dict) -> Rep:
    rep = Rep()
    with Probe() as probe:
        t0 = time.perf_counter()
        fabric = inputs["config"].build()
        msgs = [fabric.send(s, d, inputs["nbytes"]) for s, d in inputs["pairs"]]
        fabric.sim.run()
        makespan = max(m.complete_time or 0.0 for m in msgs)
        goodput = _goodput_gbps(fabric, makespan)
        t1 = time.perf_counter()
    probe.split(t0, t1, rep)
    rep.counters = fabric_counters(probe.fabrics)
    rep.failed = sum(1 for m in msgs if not m.complete)
    _check_drained(fabric, rep, "bisection")
    rep.outputs = {"makespan_ns": makespan, "goodput_gbps": goodput}
    return rep


# -- malbec-incast ------------------------------------------------------------

INCAST_VICTIM_ITERATIONS = 6


def incast_inputs(seed: int) -> dict:
    config = malbec_paper()
    nodes = list(range(config.params.n_nodes))
    victim, aggressor = split_nodes(nodes, len(nodes) // 2, "random", seed=seed)
    return {"config": config, "victim": victim, "aggressor": aggressor,
            "iterations": INCAST_VICTIM_ITERATIONS}


def _counting_victim(workload: Callable, records: Dict) -> Callable:
    """The victim workload, with every ``record(iteration, dt)`` also
    counted per (simulator, iteration) so completion can be checked."""

    def main(rank, record):
        sim_key = id(rank.sim)

        def counted(it, dt):
            key = (sim_key, it)
            records[key] = records.get(key, 0) + 1
            record(it, dt)

        return workload(rank, counted)

    main.name = getattr(workload, "name", "victim")
    return main


def incast_run(inputs: dict) -> Rep:
    iterations = inputs["iterations"]
    n_victim = len(inputs["victim"])
    rep = Rep()
    records: Dict = {}
    victim = _counting_victim(allreduce_bench(8, iterations=iterations), records)
    with Probe() as probe:
        t0 = time.perf_counter()
        result = congestion_impact(
            inputs["config"], inputs["victim"], victim,
            inputs["aggressor"], incast_congestor(),
        )
        t1 = time.perf_counter()
    probe.split(t0, t1, rep)
    rep.counters = fabric_counters(probe.fabrics)
    done = sum(1 for count in records.values() if count == n_victim)
    rep.failed = 2 * iterations - done  # isolated + congested iterations
    if len(probe.fabrics) != 2:
        rep.errors.append(f"expected 2 simulations, saw {len(probe.fabrics)}")
    else:
        isolated, congested = probe.fabrics
        # The isolated run stops when the last victim rank finishes, by
        # which time every victim message has arrived.
        _check_drained(isolated, rep, "isolated")
        # The congestor runs forever: what is not delivered or dropped
        # must be in flight, i.e. held in some sender's window.
        in_fabric = (congested.packets_injected() - congested.packets_delivered()
                     - congested.packets_dropped())
        windows = sum(s.in_flight for nic in congested.nics
                      for s in nic.pairs.values())
        if not 0 <= in_fabric <= windows:
            rep.errors.append(
                f"congested: {in_fabric} packets neither delivered nor "
                f"dropped, but {windows} in flight"
            )
    rep.outputs = {k: result[k] for k in ("ti", "tc", "impact")}
    return rep


# -- malbec-chaos-observed ----------------------------------------------------

CHAOS_MESSAGES = 1000
CHAOS_MSG_BYTES = 16 * KiB
CHAOS_SPREAD_NS = 200_000.0
#: fault window: faults strike in its first 60% and are all restored
CHAOS_FAULT_WINDOW_NS = (5_000.0, 250_000.0)
#: end-to-end retransmission timeout: long against the fabric RTT (a few
#: microseconds) but short enough that the run, and so the observer's
#: sampling, ends soon after the last retransmission
CHAOS_BASE_RTO_NS = 200_000.0
#: one level sample per 10 us window: counter deltas stay exact, and the
#: registry snapshots that dominate the observer's cost (and its
#: run-to-run noise on a busy host) drop to a quarter of the default
CHAOS_SAMPLES_PER_WINDOW = 1
#: simulated time observed on every seed: traffic, faults and all
#: retransmissions end well before it, and a marker event keeps the
#: observer sampling until then, so its cost does not vary with the seed
CHAOS_HORIZON_NS = 1_000_000.0
#: a run that has not drained by then is a failure (SimStall)
CHAOS_MAX_SIM_NS = 60_000_000.0
#: wall-clock watchdog per Simulator.run (generous: traced runs are slower)
CHAOS_WATCHDOG_S = 60.0


def chaos_inputs(seed: int) -> dict:
    config = malbec_mini(seed=seed)
    rng = random.Random(stable_hash("perfbench-chaos-traffic", seed))
    n = config.params.n_nodes
    traffic = []
    for _ in range(CHAOS_MESSAGES):
        src = rng.randrange(n)
        dst = rng.randrange(n - 1)
        if dst >= src:
            dst += 1  # never self-send: every message crosses the fabric
        traffic.append((rng.uniform(0.0, CHAOS_SPREAD_NS), src, dst))
    return {"config": config, "traffic": traffic, "fault_seed": seed}


def _horizon() -> None:
    """Marks the end of the observed horizon (does nothing)."""


def chaos_run(inputs: dict) -> Rep:
    rep = Rep()
    t_lo, t_hi = CHAOS_FAULT_WINDOW_NS
    completed: List = []
    with Probe() as probe:
        t0 = time.perf_counter()
        fabric = inputs["config"].build()
        schedule = FaultSchedule.generate(
            fabric, seed=inputs["fault_seed"], n_faults=3,
            t_start=t_lo, t_end=t_hi, switch_faults=1,
        )
        # faults first, so the observer's telemetry also hooks the injector
        injector = fabric.attach_faults(schedule, base_rto_ns=CHAOS_BASE_RTO_NS)
        obs = fabric.attach_observer(samples_per_window=CHAOS_SAMPLES_PER_WINDOW)
        sim = fabric.sim
        sim.watchdog(max_sim_time_ns=CHAOS_MAX_SIM_NS,
                     wall_deadline_s=CHAOS_WATCHDOG_S)
        send = fabric.send
        for t, src, dst in inputs["traffic"]:
            sim.schedule_at(
                t, lambda s=src, d=dst: send(s, d, CHAOS_MSG_BYTES,
                                             on_complete=completed.append)
            )
        sim.schedule_at(CHAOS_HORIZON_NS, _horizon)
        sim.run()
        obs.stop()
        attribution = obs.attribution()
        forensics = obs.forensics()
        t1 = time.perf_counter()
    probe.split(t0, t1, rep)
    rep.counters = fabric_counters(probe.fabrics)
    rep.counters["telemetry.spans"] = len(obs.spans)
    rep.counters["observe.metrics"] = len(obs.registry)
    rep.counters["observe.windows"] = len(obs.windows)
    rep.failed = len(inputs["traffic"]) - len(completed)
    _check_drained(fabric, rep, "chaos")
    if injector.events_applied != len(schedule):
        rep.errors.append(
            f"{injector.events_applied} of {len(schedule)} faults applied")
    if not attribution.check_sum():
        rep.errors.append("attribution stage budgets do not sum to latency")
    makespan = max((m.complete_time for m in completed), default=0.0)
    rep.outputs = {
        "makespan_ns": makespan,
        "goodput_gbps": _goodput_gbps(fabric, makespan),
        "faults": [f"{ev.t:.3f}:{ev.action}:{ev.target}" for ev in schedule],
        "attribution_mean_ns": attribution.overall.total_mean_ns,
        "attribution_stage_ns": attribution.overall.stage_means_ns,
        "hot_ports": [(h.name, h.kind, h.hot_windows) for h in forensics.hot_ports],
        "peak_util_percentiles": forensics.peak_util_percentiles,
    }
    return rep


class Workload(NamedTuple):
    make_inputs: Callable[[int], dict]
    run_once: Callable[[dict], Rep]
    #: operations one run attempts (messages, or victim iterations)
    operations: Callable[[dict], int]


WORKLOADS = {
    "shandy-bisection": Workload(
        shandy_inputs, shandy_run, lambda i: len(i["pairs"])),
    "malbec-incast": Workload(
        incast_inputs, incast_run, lambda i: 2 * i["iterations"]),
    "malbec-chaos-observed": Workload(
        chaos_inputs, chaos_run, lambda i: len(i["traffic"])),
}
