"""Benchmark entry point: one workload, one seed, one process.

    python3 perfbench/run.py --workload shandy-bisection --seed 1 \\
        --seconds 40 --trace 0

Run from the repository root; the simulator is imported from ``src/``.
The workload is repeated until ``--seconds`` have passed (at least
``MIN_REPS`` times), a fixed calibration kernel is timed between
repetitions, and each end-to-end metric is reported as the median over
the repetitions of its host time scaled to the reference host speed
(see calibrate.py).  ``--trace 1`` alternates untraced and traced
repetitions and reports the per-layer metrics instead (see README.md).

Every repetition is checked: packet conservation, message and victim
iteration completion, exact work counters and simulated outputs equal
across repetitions (and between traced and untraced ones).  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the full result, with its
provenance, is also written to ``perfbench/results/``.  The exit code
is 0 when every check passed, 1 when one failed and 2 when the
benchmark could not run at all.

``--workload all`` runs every workload in its own fresh process and
prints each one's metrics.
"""

from __future__ import annotations

import argparse
import datetime
import gc
import hashlib
import json
import os
import platform
import resource
import signal
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

WORKLOAD_NAMES = ("shandy-bisection", "malbec-incast", "malbec-chaos-observed")
#: held-out workload seed: a performance claim tuned on other seeds must
#: also hold on this one (never use it while developing a change)
HELD_OUT_SEED = 7919
MIN_REPS = 3
MIN_TRACED_PAIRS = 2
#: no new repetition starts after this many seconds, and a repetition
#: still running at ALARM_S is interrupted and fails (exit within 180 s)
HARD_STOP_S = 100.0
ALARM_S = 170


def declared_units() -> tuple:
    """(end-to-end, per-layer) metric name -> unit, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return tuple({m["name"]: m["unit"] for m in bench[key]}
                 for key in ("end_to_end", "per_layer"))


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--results", default=RESULTS,
                   help="directory for the result file (default %(default)s)")
    return p.parse_args(argv)


# -- provenance ---------------------------------------------------------------


def _git(*args) -> str:
    out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                         text=True, timeout=30)
    return out.stdout.strip() if out.returncode == 0 else ""


def source_digest() -> str:
    """sha256 over every source file of the simulator (path and bytes)."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args) -> dict:
    sha = dirty = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        sha = _git("rev-parse", "HEAD") or None
        dirty = bool(_git("status", "--porcelain", "--untracked-files=no"))
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "source_digest": source_digest(),
        "python": platform.python_version(),
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# -- repetitions --------------------------------------------------------------


def digest(rep) -> str:
    blob = json.dumps({"outputs": rep.outputs, "counters": rep.counters},
                      sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def one_rep(workload, inputs, tracer_cls=None):
    """One repetition, untraced or under a fresh LayerTracer; an exception
    becomes a rep whose every operation failed."""
    from repro.network.packet import drain_packet_pool
    from workloads import Rep

    tracer = None
    n = workload.operations(inputs)
    try:
        if tracer_cls is None:
            rep = workload.run_once(inputs)
        else:
            with tracer_cls() as tracer:
                rep = workload.run_once(inputs)
    except Exception as err:  # a raising or stalled run fails as a whole
        rep = Rep(failed=n, errors=[f"{type(err).__name__}: {err}"])
    rep.attempted = n
    # every repetition starts like a fresh process: no pooled packets
    drain_packet_pool()
    gc.collect()
    return rep, tracer


def end_to_end(reps) -> dict:
    """Medians of the repetitions' host times, each scaled to the
    reference host speed measured around it."""
    def med(fn):
        return median([fn(r) * r.scale for r in reps])

    return {
        "wall_s": med(lambda r: r.wall_s),
        "setup_s": med(lambda r: r.setup_s),
        "run_s": med(lambda r: r.run_s),
        "pkt_per_s": median([r.counters["packets.delivered"] / (r.run_s * r.scale)
                             for r in reps]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(plain, traced) -> dict:
    """Per-layer metrics from untraced reps (phase times) and traced reps
    (layer self times and call counts)."""
    c = plain[0].counters
    pkts = c["packets.delivered"] or 1
    events = c["sim.events"]
    tracer = traced[0][1]

    def self_s(layer):
        return median([t.layers[layer][1] for _, t in traced])

    def calls(layer):
        return tracer.layers[layer][0]

    def per_call_ns(layer):
        return self_s(layer) / calls(layer) * 1e9 if calls(layer) else 0.0

    route_calls = calls("routing")
    waits = tracer.calls("OutputPort._arm_retry")
    acquires = tracer.calls("VcBufferPool.acquire")
    untraced_run = median([r.run_s for r in plain])
    traced_run = median([r.run_s for r, _ in traced])
    post = median([t.self_outside_run()["observe"]
                   + t.self_outside_run()["telemetry"] for _, t in traced])
    m = {
        "host.kernel_s": median([r.kernel_s for r in plain]),
        "host.raw_run_s": untraced_run,
        "setup.build_s": median([r.build_s for r in plain]),
        "setup.inject_s": median([r.setup_s - r.build_s for r in plain]),
        "sim.events": events,
        "sim.events_per_pkt": events / pkts,
        "sim.ns_per_event": untraced_run / events * 1e9 if events else 0.0,
        "sim.self_s": self_s("sim"),
        "routing.calls": route_calls,
        "routing.calls_per_pkt": route_calls / pkts,
        "routing.self_s": self_s("routing"),
        "routing.ns_per_call": per_call_ns("routing"),
        "routing.reroutes": c["routing.reroutes"],
        "routing.no_route": c["routing.no_route"],
        "switch.calls": calls("switch"),
        "switch.self_s": self_s("switch"),
        "port.calls": calls("port"),
        "port.self_s": self_s("port"),
        "port.ns_per_call": per_call_ns("port"),
        "port.marks": c["port.marks"],
        "port.drops": c["port.drops"],
        "buffers.calls": calls("buffers"),
        "buffers.self_s": self_s("buffers"),
        "buffers.acquire_fail_frac": (
            waits / (waits + acquires) if waits + acquires else 0.0),
        "nic.calls": calls("nic"),
        "nic.self_s": self_s("nic"),
        "nic.ns_per_pkt": self_s("nic") / pkts * 1e9,
        "cc.calls": calls("cc"),
        "cc.self_s": self_s("cc"),
        "cc.marked_frac": (
            c["cc.acks_marked"] / c["cc.acks"] if c["cc.acks"] else 0.0),
        "mpi.calls": calls("mpi"),
        "mpi.self_s": self_s("mpi"),
        "mpi.msgs": tracer.calls("Rank.isend") + tracer.calls("Rank.put"),
        "telemetry.calls": calls("telemetry"),
        "telemetry.self_s": self_s("telemetry"),
        "telemetry.spans": c.get("telemetry.spans", 0),
        "observe.samples": tracer.calls("TimeSeriesEngine._tick"),
        "observe.self_s": self_s("observe"),
        "observe.post_s": post,
        "observe.metrics": c.get("observe.metrics", 0),
        "faults.retransmits": c["faults.retransmits"],
        "faults.dup_pkts": c["faults.dup_pkts"],
        "faults.giveups": c["faults.giveups"],
        "faults.self_s": self_s("faults"),
        "trace.overhead_frac": traced_run / untraced_run - 1.0,
    }
    # Each layer's share of the traced run time: unlike self times, shares
    # do not move when the whole machine runs faster or slower.
    for layer in tracer.layers:
        m[f"{layer}.share"] = median(
            [t.layers[layer][1] / t.run_s for _, t in traced])
    return m


def check_reps(reps, tracers) -> list:
    """Cross-repetition checks: every rep's own violations, identical
    simulated outputs and exact counters in every rep (traced or not),
    traced layer self times accounting for the traced run time, and the
    traced route() count matching the switches' forwarding count."""
    errors = []
    for i, rep in enumerate(reps):
        errors += [f"rep {i}: {e}" for e in rep.errors]
    good = [r for r in reps if not r.errors]
    digests = {digest(r) for r in good}
    if len(digests) > 1:
        errors.append(f"simulated outputs differ across repetitions: {sorted(digests)}")
    for i, tracer in enumerate(tracers):
        if tracer is None:
            continue
        if tracer.unaccounted_frac() > 1e-6:
            errors.append(f"traced rep {i}: layer self times miss "
                          f"{tracer.unaccounted_frac():.2e} of run time")
        routed = tracer.layers["routing"][0]
        forwarded = good[0].counters["routing.forwarded"] if good else routed
        if routed != forwarded:
            errors.append(f"traced rep {i}: {routed} route() calls but "
                          f"{forwarded} packets forwarded")
    return errors


# -- main ---------------------------------------------------------------------


def run_all(args) -> int:
    """Every workload in its own fresh process; prints each one's metrics
    and fails if any of them fails."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--results", args.results]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=900)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.stderr.write(proc.stderr)
        if proc.returncode not in (0, 1) or not lines:
            fail(f"{name} could not run (exit {proc.returncode})")
        result = json.loads(lines[-1])
        status = max(status, proc.returncode)
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, v in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = v
    print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        fail("--seconds must be positive")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        fail(f"simulator sources not found under {SRC}; "
             "run from the repository root")
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [SRC, HERE]
    try:
        import repro  # noqa: F401
        from calibrate import REF_KERNEL_S, kernel
        from layers import LayerTracer
        from workloads import WORKLOADS
    except ImportError as err:
        fail(f"cannot import the simulator: {err}")

    def timed_out(signum, frame):
        raise TimeoutError(f"repetition still running after {ALARM_S} s")

    signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(ALARM_S)
    prov = provenance(args)
    workload = WORKLOADS[args.workload]
    inputs = workload.make_inputs(args.seed)

    plain, traced, all_reps, tracers = [], [], [], []
    n_min = MIN_TRACED_PAIRS if args.trace else MIN_REPS
    t_start = time.perf_counter()
    k_before = kernel()

    def calibrated(rep):
        # the host speed around a repetition: the mean of the kernel
        # times just before and just after it
        nonlocal k_before
        k_after = kernel()
        rep.kernel_s = (k_before + k_after) / 2
        rep.scale = REF_KERNEL_S / rep.kernel_s
        k_before = k_after
        return rep

    while True:
        t_rep = time.perf_counter()
        rep, _ = one_rep(workload, inputs)
        plain.append(calibrated(rep))
        all_reps.append(rep)
        tracers.append(None)
        if args.trace:
            rep_t, tracer = one_rep(workload, inputs, LayerTracer)
            traced.append((calibrated(rep_t), tracer))
            all_reps.append(rep_t)
            tracers.append(tracer)
        if any(r.errors for r in all_reps[-2:]):
            break
        # Stop before a repetition that would end past --seconds, so a
        # run lasts about --seconds whatever one repetition costs.
        now = time.perf_counter()
        if now - t_start >= HARD_STOP_S or (
            len(plain) >= n_min
            and now - t_start + (now - t_rep) > args.seconds
        ):
            break

    signal.alarm(0)
    prov["runs"] = {"untraced": len(plain), "traced": len(traced)}
    errors = check_reps(all_reps, tracers)
    good = next((r for r in all_reps if not r.errors), None)
    attempted = sum(r.attempted for r in all_reps)
    failed = sum(r.failed for r in all_reps)
    correct = not errors and failed == 0

    if good is None:
        metrics = {}
    elif args.trace:
        ok_traced = [(r, t) for r, t in traced if not r.errors]
        ok_plain = [r for r in plain if not r.errors]
        metrics = per_layer(ok_plain, ok_traced) if ok_traced and ok_plain else {}
    else:
        metrics = end_to_end([r for r in plain if not r.errors])
    units = declared_units()[args.trace]
    if metrics and set(metrics) != set(units):
        fail(f"metrics {sorted(set(metrics) ^ set(units))} are not as "
             "declared in BENCHMARK.json")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }

    # human-readable report, then the result line
    print(f"perfbench {args.workload} seed {args.seed}: {len(plain)} untraced"
          + (f" + {len(traced)} traced" if args.trace else "") + " repetitions")
    print("provenance " + json.dumps(prov, sort_keys=True))
    if good is not None:
        print("outputs " + json.dumps(good.outputs, sort_keys=True, default=repr))
        print("counters " + json.dumps(good.counters, sort_keys=True))
        print(f"digest {digest(good)}")
    for m, v in metrics.items():
        print(f"  {m:28s} {v:>16.6g} {units[m]}")
    for e in errors:
        print(f"CHECK FAILED: {e}")

    os.makedirs(args.results, exist_ok=True)
    out = os.path.join(
        args.results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    record = {
        "provenance": prov,
        "result": result,
        "errors": errors,
        "digest": digest(good) if good else None,
        "outputs": good.outputs if good else None,
        "counters": good.counters if good else None,
        "reps": [
            {"traced": t is not None, "wall_s": r.wall_s, "setup_s": r.setup_s,
             "build_s": r.build_s, "run_s": r.run_s, "post_s": r.post_s,
             "kernel_s": r.kernel_s, "scale": r.scale,
             "errors": r.errors,
             **({"layer_self_in_run_s": t.self_in_run(),
                 "layer_self_outside_run_s": t.self_outside_run(),
                 "layer_calls": {k: v[0] for k, v in t.layers.items()},
                 "entry_calls": {k: v[0] for k, v in t.entry_calls.items()}}
                if t is not None else {})}
            for r, t in zip(all_reps, tracers)
        ],
    }
    with open(out + ".tmp", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True, default=repr)
    os.replace(out + ".tmp", out)

    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
