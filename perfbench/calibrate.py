"""Host-speed calibration: a fixed pure-Python kernel timed between
repetitions.

The benchmark runs on shared hosts whose speed drifts by up to 2x over
minutes (a neighbour on the same core or memory bus slows every
instruction; no steal time shows).  Raw host seconds of identical work
then spread far past any useful regression bound.  ``kernel()`` does the
same kind of work as the simulator -- a heap-ordered event loop over a
graph of ``__slots__`` objects larger than the caches, allocating a
packet object per hop -- but it imports nothing from ``src/``, so its
time depends only on the host.  ``run.py`` times it before and after
each repetition and scales the repetition's host times by
``REF_KERNEL_S / kernel_s``: the scaled value is what the repetition
would have taken on a host that runs the kernel in ``REF_KERNEL_S``.

Never change the kernel or ``REF_KERNEL_S`` in a change that is measured
against its parent: both sides must be scaled by the same kernel.
"""

from __future__ import annotations

import gc
import heapq
import random
import time

#: the reference host runs ``kernel()`` in this many seconds (about the
#: kernel's time on a 2-vCPU Xeon in a quiet phase)
REF_KERNEL_S = 0.25

_N_PORTS = 20_000
_N_EVENTS = 100_000
_N_PACKETS = 2_000
_HOPS = 6


class _Port:
    __slots__ = ("q", "n", "nxt", "busy")

    def __init__(self):
        self.q = []
        self.n = 0
        self.nxt = None
        self.busy = 0.0


class _Pkt:
    __slots__ = ("src", "dst", "size", "hops")

    def __init__(self, src, dst, size):
        self.src = src
        self.dst = dst
        self.size = size
        self.hops = 0


def _simulate() -> int:
    rng = random.Random(12345)
    ports = [_Port() for _ in range(_N_PORTS)]
    for p in ports:
        p.nxt = [ports[rng.randrange(_N_PORTS)] for _ in range(4)]
    heap = []
    push, pop = heapq.heappush, heapq.heappop
    seq = 0

    def arrive(port, pkt, now):
        nonlocal seq
        port.n += 1
        pkt.hops += 1
        port.q.append(pkt)
        if len(port.q) > 2:
            port.q.pop(0)
        if pkt.hops < _HOPS:
            nxt = port.nxt[(pkt.dst + pkt.hops) & 3]
            nxt.busy = max(now, nxt.busy) + pkt.size * 0.001
            seq += 1
            push(heap, (nxt.busy, seq, arrive, (nxt, pkt)))
        else:
            new = _Pkt(pkt.dst, rng.randrange(_N_PORTS), pkt.size)
            seq += 1
            push(heap, (now + 1.0, seq, arrive, (ports[new.src], new)))

    for i in range(_N_PACKETS):
        pkt = _Pkt(i, rng.randrange(_N_PORTS), 64 + (i & 255))
        seq += 1
        push(heap, (rng.random(), seq, arrive, (ports[i * 7 % _N_PORTS], pkt)))
    for _ in range(_N_EVENTS):
        t, _, fn, args = pop(heap)
        fn(args[0], args[1], t)
    return sum(p.n for p in ports)


#: exact hop count of one kernel run (checked, so the work never changes)
KERNEL_HOPS = _N_EVENTS


def kernel() -> float:
    """Host seconds of one fixed kernel run (garbage collected after)."""
    t0 = time.perf_counter()
    hops = _simulate()
    dt = time.perf_counter() - t0
    gc.collect()
    if hops != KERNEL_HOPS:
        raise RuntimeError(f"calibration kernel did {hops} hops, not {KERNEL_HOPS}")
    return dt
