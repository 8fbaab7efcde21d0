"""Per-hop latency attribution: span streams → named stage budgets.

The paper's congestion story is about *where* a delivered packet's
latency went — waiting for the congestion window, sitting in a VOQ
behind an aggressor, serializing onto a slow wire, or crossing switch
pipelines.  This module decomposes exactly that from the PR 1 span
stream (``injected → voq_enqueue → arbitrated → wire_tx → switch_rx →
routed … → delivered``), with PR 2's retransmission clones stitched
back into one logical packet via the ``(mid, seq)`` identity stamped on
every ``injected`` event.

Stage semantics (each consecutive event gap is assigned to exactly one
stage, so the stages of one delivery attempt *partition* its latency —
the budgets sum to the total by construction):

==============  ==========================================================
``host_inject``  injection-port wait: window admission to first wire
                 (``injected → voq_enqueue`` plus the NIC injection
                 port's ``voq_enqueue → arbitrated``)
``voq_wait``     switch VOQ queueing (``voq_enqueue → arbitrated`` on a
                 switch port) — where victim flows stall behind
                 aggressors
``arbitration``  routing decision to VOQ admission (``routed →
                 voq_enqueue``)
``wire``         serialization + propagation (``arbitrated → wire_tx``,
                 ``wire_tx → switch_rx``, ``wire_tx → delivered``)
``switch``       switch input pipeline (``switch_rx → routed``)
``retry``        time lost to end-to-end retransmission: first
                 injection of the logical packet to the injection of
                 the attempt that finally delivered
``other``        any gap not covered above (e.g. spans truncated by the
                 recorder's event cap)
==============  ==========================================================

All percentile/summary math comes from :mod:`repro.analysis.stats` —
this module adds no percentile code of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..analysis.stats import column_percentiles
from ..analysis.reporting import render_table

__all__ = [
    "STAGES",
    "PacketBudget",
    "StageAggregate",
    "AttributionReport",
    "attribute_packets",
    "attribution_report",
    "VictimReport",
    "victim_aggressor_report",
]

#: stage names in render order
STAGES: Tuple[str, ...] = (
    "host_inject", "voq_wait", "arbitration", "wire", "switch",
    "retry", "other",
)

#: the lifecycle events that delimit stages (everything else —
#: ``ecn_marked``, ``cc_window``, ``pkt_dropped`` — is out-of-band)
_PHASE_EVENTS = frozenset(
    ["injected", "voq_enqueue", "arbitrated", "wire_tx", "switch_rx",
     "routed", "delivered"]
)


def _classify(prev: Dict, cur: Dict) -> str:
    """Stage owning the ``prev → cur`` gap (see module docstring)."""
    ce = cur["ev"]
    if ce == "voq_enqueue":
        return "host_inject" if prev["ev"] == "injected" else "arbitration"
    if ce == "arbitrated":
        return "host_inject" if cur.get("layer") == "nic" else "voq_wait"
    if ce in ("wire_tx", "switch_rx", "delivered"):
        return "wire"
    if ce == "routed":
        return "switch"
    return "other"


@dataclass
class PacketBudget:
    """One delivered logical packet's latency, split into stages.

    ``port_waits`` maps port name → VOQ wait accumulated at that port
    (the raw material of the victim-vs-aggressor report).
    """

    pid: int
    src: int
    dst: int
    tc: int
    mid: Optional[int]
    seq: Optional[int]
    total_ns: float
    stages: Dict[str, float]
    port_waits: Dict[str, float] = field(default_factory=dict)
    attempts: int = 1

    @property
    def flow(self) -> Tuple[int, int]:
        return (self.src, self.dst)

    def stage_sum(self) -> float:
        return sum(self.stages.values())


def _decompose_attempt(events: List[Dict]) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Stage budgets + per-port VOQ waits for one attempt's event chain."""
    stages = {s: 0.0 for s in STAGES}
    port_waits: Dict[str, float] = {}
    phases = [e for e in events if e["ev"] in _PHASE_EVENTS]
    for prev, cur in zip(phases, phases[1:]):
        gap = cur["t"] - prev["t"]
        if gap < 0:  # same-timestamp reordering noise; never attribute it
            gap = 0.0
        stage = _classify(prev, cur)
        stages[stage] += gap
        if stage == "voq_wait":
            port = cur.get("port", "?")
            port_waits[port] = port_waits.get(port, 0.0) + gap
    return stages, port_waits


def attribute_packets(spans) -> List[PacketBudget]:
    """Decompose every *delivered* sampled packet in a span stream.

    *spans* is a :class:`~repro.telemetry.SpanRecorder` (or anything
    with ``by_packet()``).  Retransmission clones carry fresh pids but
    the same ``(mid, seq)``; the chain is folded into one budget whose
    ``retry`` stage is the time between the first injection and the
    injection of the delivering attempt.
    """
    by_pid = spans.by_packet()
    # logical identity: (mid, seq) -> earliest injection time seen
    first_inject: Dict[Tuple[int, int], float] = {}
    attempts_seen: Dict[Tuple[int, int], int] = {}
    for events in by_pid.values():
        for e in events:
            if e["ev"] == "injected" and "mid" in e:
                key = (e["mid"], e["seq"])
                t = e["t"]
                if key not in first_inject or t < first_inject[key]:
                    first_inject[key] = t
                attempts_seen[key] = attempts_seen.get(key, 0) + 1

    budgets: List[PacketBudget] = []
    for pid, events in sorted(by_pid.items()):
        injected = next((e for e in events if e["ev"] == "injected"), None)
        delivered = next((e for e in events if e["ev"] == "delivered"), None)
        if injected is None or delivered is None:
            continue  # undelivered, unsampled mid-stream, or truncated
        stages, port_waits = _decompose_attempt(events)
        key = None
        if "mid" in injected:
            key = (injected["mid"], injected["seq"])
        t0 = injected["t"]
        if key is not None and key in first_inject:
            stages["retry"] = t0 - first_inject[key]
            t0 = first_inject[key]
        total = delivered["t"] - t0
        budgets.append(
            PacketBudget(
                pid=pid,
                src=injected.get("src", -1),
                dst=injected.get("dst", -1),
                tc=injected.get("tc", 0),
                mid=key[0] if key else None,
                seq=key[1] if key else None,
                total_ns=total,
                stages=stages,
                port_waits=port_waits,
                attempts=attempts_seen.get(key, 1) if key else 1,
            )
        )
    return budgets


@dataclass
class StageAggregate:
    """Stage budgets aggregated over a set of packets."""

    n: int
    total_mean_ns: float
    stage_means_ns: Dict[str, float]
    stage_percentiles: Dict[str, Dict[float, float]]

    def stage_share(self, stage: str) -> float:
        return (self.stage_means_ns.get(stage, 0.0) / self.total_mean_ns
                if self.total_mean_ns else 0.0)


def _aggregate(budgets: Sequence[PacketBudget]) -> StageAggregate:
    n = len(budgets)
    if n == 0:
        return StageAggregate(0, 0.0, {s: 0.0 for s in STAGES},
                              {s: {} for s in STAGES})
    totals = [b.total_ns for b in budgets]
    means = {
        s: sum(b.stages.get(s, 0.0) for b in budgets) / n for s in STAGES
    }
    # Filled row by row: a list-of-lists table would hold every stage
    # value as a Python float at once (about 1 MB more peak memory on a
    # 4,000-packet run).
    table = np.empty((n, len(STAGES)))
    for i, b in enumerate(budgets):
        get = b.stages.get
        table[i] = [get(s, 0.0) for s in STAGES]
    pcts = dict(zip(STAGES, column_percentiles(table, (50, 95, 99))))
    return StageAggregate(n, sum(totals) / n, means, pcts)


@dataclass
class AttributionReport:
    """Fleet-wide stage budgets plus per-flow and per-TC breakdowns."""

    overall: StageAggregate
    per_flow: Dict[Tuple[int, int], StageAggregate]
    per_tc: Dict[int, StageAggregate]

    def check_sum(self, tol_ns: float = 1.0) -> bool:
        """Mean stage budgets must sum to the mean total within *tol_ns*
        (they partition each packet's latency by construction)."""
        if self.overall.n == 0:
            return True
        return abs(sum(self.overall.stage_means_ns.values())
                   - self.overall.total_mean_ns) <= tol_ns

    def render(self, top_flows: int = 8) -> str:
        o = self.overall
        if o.n == 0:
            return "latency attribution: no delivered sampled packets"
        rows = []
        for s in STAGES:
            m = o.stage_means_ns[s]
            if m == 0.0 and s in ("retry", "other"):
                continue
            p = o.stage_percentiles[s]
            rows.append([
                s, f"{m:.1f}", f"{o.stage_share(s):.1%}",
                f"{p.get(50, 0.0):.1f}", f"{p.get(99, 0.0):.1f}",
            ])
        out = [render_table(
            ["stage", "mean ns", "share", "p50 ns", "p99 ns"], rows,
            title=f"Latency attribution ({o.n} delivered packets, "
                  f"mean {o.total_mean_ns:.1f} ns)",
        )]
        budget_sum = sum(o.stage_means_ns.values())
        out.append(
            f"stage budgets sum to {budget_sum:.1f} ns of "
            f"{o.total_mean_ns:.1f} ns mean latency "
            f"(residual {abs(budget_sum - o.total_mean_ns):.3f} ns)"
        )
        if self.per_flow:
            slowest = sorted(self.per_flow.items(),
                             key=lambda kv: -kv[1].total_mean_ns)[:top_flows]
            rows = []
            for (src, dst), agg in slowest:
                top_stage = max(agg.stage_means_ns,
                                key=lambda s: agg.stage_means_ns[s])
                rows.append([
                    f"{src}->{dst}", agg.n, f"{agg.total_mean_ns:.1f}",
                    top_stage, f"{agg.stage_share(top_stage):.1%}",
                ])
            out.append(render_table(
                ["flow", "pkts", "mean ns", "dominant stage", "share"],
                rows, title="Slowest flows",
            ))
        if len(self.per_tc) > 1:
            rows = [
                [tc, agg.n, f"{agg.total_mean_ns:.1f}",
                 f"{agg.stage_means_ns['voq_wait']:.1f}"]
                for tc, agg in sorted(self.per_tc.items())
            ]
            out.append(render_table(
                ["tc", "pkts", "mean ns", "voq wait ns"], rows,
                title="Per traffic class",
            ))
        return "\n\n".join(out)


def attribution_report(spans_or_budgets) -> AttributionReport:
    """Build the full report from a span stream (or pre-built budgets)."""
    if isinstance(spans_or_budgets, (list, tuple)):
        budgets = list(spans_or_budgets)
    else:
        budgets = attribute_packets(spans_or_budgets)
    per_flow: Dict[Tuple[int, int], List[PacketBudget]] = {}
    per_tc: Dict[int, List[PacketBudget]] = {}
    for b in budgets:
        per_flow.setdefault(b.flow, []).append(b)
        per_tc.setdefault(b.tc, []).append(b)
    return AttributionReport(
        overall=_aggregate(budgets),
        per_flow={k: _aggregate(v) for k, v in per_flow.items()},
        per_tc={k: _aggregate(v) for k, v in per_tc.items()},
    )


@dataclass
class VictimReport:
    """Where a victim flow's excess latency came from.

    ``shared_ports`` rows: ``(port, victim_wait_ns, aggressor_bytes)`` —
    the top-k ports ranked by the VOQ wait victim packets accumulated
    there, alongside how many aggressor bytes crossed the same port
    (shared ports with zero aggressor bytes are self-congestion).
    """

    victim_flows: Set[Tuple[int, int]]
    n_victim_pkts: int
    victim_mean_ns: float
    aggressor_mean_ns: float
    shared_ports: List[Tuple[str, float, float]]

    def render(self) -> str:
        head = (
            f"Victim flows {sorted(self.victim_flows)}: "
            f"{self.n_victim_pkts} pkts, mean {self.victim_mean_ns:.1f} ns "
            f"(aggressor mean {self.aggressor_mean_ns:.1f} ns)"
        )
        if not self.shared_ports:
            return head + "\nno shared congested ports found"
        rows = [
            [port, f"{wait:.1f}", f"{int(abytes)}"]
            for port, wait, abytes in self.shared_ports
        ]
        return head + "\n\n" + render_table(
            ["port", "victim VOQ wait ns", "aggressor bytes"], rows,
            title="Top shared ports (victim wait vs aggressor traffic)",
        )


def victim_aggressor_report(
    spans,
    victims: Iterable[Tuple[int, int]],
    aggressors: Optional[Iterable[Tuple[int, int]]] = None,
    top_k: int = 5,
) -> VictimReport:
    """Attribute victim flows' VOQ waits to the ports they shared with
    aggressor traffic.

    *victims* is a set of ``(src, dst)`` flows; *aggressors* defaults to
    every other flow in the span stream.  Per port, the victim packets'
    accumulated VOQ wait is set against the bytes aggressor packets put
    on the wire at that same port (from their ``wire_tx`` events), and
    ports are ranked by victim wait.
    """
    victims = set(victims)
    budgets = attribute_packets(spans)
    victim_b = [b for b in budgets if b.flow in victims]
    if aggressors is None:
        aggressor_flows = {b.flow for b in budgets} - victims
    else:
        aggressor_flows = set(aggressors)

    # aggressor bytes per port, straight from the span stream (budgets
    # only cover delivered packets; in-flight aggressors still count)
    pid_flow: Dict[int, Tuple[int, int]] = {}
    for e in spans.events:
        if e["ev"] == "injected" and "src" in e:
            pid_flow[e["pid"]] = (e["src"], e["dst"])
    agg_bytes: Dict[str, float] = {}
    for e in spans.events:
        if e["ev"] == "wire_tx" and pid_flow.get(e["pid"]) in aggressor_flows:
            port = e.get("port", "?")
            agg_bytes[port] = agg_bytes.get(port, 0.0) + e.get("bytes", 0)

    waits: Dict[str, float] = {}
    for b in victim_b:
        for port, w in b.port_waits.items():
            waits[port] = waits.get(port, 0.0) + w
    ranked = sorted(waits.items(), key=lambda kv: -kv[1])[:top_k]
    shared = [(port, w, agg_bytes.get(port, 0.0)) for port, w in ranked]

    aggressor_b = [b for b in budgets if b.flow in aggressor_flows]
    return VictimReport(
        victim_flows=victims,
        n_victim_pkts=len(victim_b),
        victim_mean_ns=(sum(b.total_ns for b in victim_b) / len(victim_b)
                        if victim_b else 0.0),
        aggressor_mean_ns=(sum(b.total_ns for b in aggressor_b)
                           / len(aggressor_b) if aggressor_b else 0.0),
        shared_ports=shared,
    )
