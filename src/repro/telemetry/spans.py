"""Packet-lifecycle span recording.

A *span event* is one timestamped step in a packet's life:

``injected`` → ``voq_enqueue`` → ``arbitrated`` → ``wire_tx`` →
``switch_rx`` / ``routed`` (per hop) → ``delivered``, plus out-of-band
instants such as ``ecn_marked``, ``cc_window`` updates and the adaptive
router's minimal/non-minimal decision.

Recording every packet of a large run would dominate memory, so packets
are *sampled* at injection time: a packet is traced iff a stable hash of
its pid (and the sampler seed) falls under ``sample_rate``.  The
decision is sticky — every later hop sees ``pkt.traced`` already set —
and consumes **no** simulation randomness, so enabling or disabling
tracing can never perturb routing or congestion control.

Each event is a plain dict ``{"t": ns, "pid": packet id, "layer": ...,
"ev": ..., **attrs}``; exporters consume the list directly.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..sim.rng import stable_hash

__all__ = ["SpanRecorder"]

#: hash-space denominator for the sampling decision
_SAMPLE_SPACE = float(2**64)


class SpanRecorder:
    """Accumulates packet-lifecycle events for sampled packets."""

    __slots__ = ("sample_rate", "seed", "events", "max_events", "dropped")

    def __init__(self, sample_rate: float = 1.0, seed: int = 0,
                 max_events: int = 2_000_000):
        if not (0.0 <= sample_rate <= 1.0):
            raise ValueError("sample_rate must be in [0, 1]")
        self.sample_rate = sample_rate
        self.seed = seed
        #: flat, append-only event log (dicts; see module docstring)
        self.events: List[Dict] = []
        #: hard cap so a forgotten sampler cannot eat all memory
        self.max_events = max_events
        #: events discarded after hitting :attr:`max_events`
        self.dropped = 0

    # -- sampling -------------------------------------------------------------

    def sample(self, pid: int) -> bool:
        """Deterministic per-packet sampling decision (no RNG draw)."""
        if self.sample_rate >= 1.0:
            return True
        if self.sample_rate <= 0.0:
            return False
        return stable_hash("span", self.seed, pid) < self.sample_rate * _SAMPLE_SPACE

    # -- recording ------------------------------------------------------------

    def record(self, t: float, pid: int, layer: str, ev: str, **attrs) -> None:
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append(
            {"t": t, "pid": pid, "layer": layer, "ev": ev, **attrs})

    # -- queries --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def by_packet(self) -> Dict[int, List[Dict]]:
        """Events grouped by packet id, in recorded (time) order."""
        out: Dict[int, List[Dict]] = {}
        for e in self.events:
            out.setdefault(e["pid"], []).append(e)
        return out

    def layers(self) -> List[str]:
        return sorted({e["layer"] for e in self.events})

    def packet_events(self, pid: int) -> List[Dict]:
        return [e for e in self.events if e["pid"] == pid]

    def filter(self, layer: Optional[str] = None, ev: Optional[str] = None) -> List[Dict]:
        out = self.events
        if layer is not None:
            out = [e for e in out if e["layer"] == layer]
        if ev is not None:
            out = [e for e in out if e["ev"] == ev]
        return list(out)
