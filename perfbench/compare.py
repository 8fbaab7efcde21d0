"""Compare two sets of benchmark results (a parent and a change).

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds result files written by ``run.py --results DIR``
for the same workloads and seeds.  Runs are paired by (workload, seed).
For every end-to-end metric of every workload this prints both sides'
median and quartiles, the share of pairs the change wins, and a verdict:

* ``better`` / ``worse``: the change wins (loses) at least nine tenths
  of the pairs and the medians differ by more than the spread between
  the base's own runs (the distance between its quartiles);
* ``better in pairs`` / ``worse in pairs``: the pair rule holds but the
  medians differ by less than that spread;
* ``unresolved``: the medians differ by more than the bound and neither
  rule holds;
* ``same``: otherwise.

``ratio`` is the median over pairs of change / base.

Per-layer metrics (``--trace 1`` files) are compared the same way, so a
saving can be located in the layer that was changed.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(directory: str) -> dict:
    """{(workload, trace): {seed: {metric: value}}} from result files."""
    out: dict = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as fh:
            rec = json.load(fh)
        prov = rec["provenance"]
        if not rec["result"]["correct"]:
            print(f"warning: {path} failed its output checks", file=sys.stderr)
        metrics = {m: v["value"] for m, v in rec["result"]["metrics"].items()}
        out.setdefault((prov["workload"], prov["trace"]), {})[prov["seed"]] = metrics
    return out


def spec() -> dict:
    """metric -> (better, bound) from BENCHMARK.json (bound None per layer)."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    s = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}
    s.update({m["name"]: (m["better"], None) for m in bench["per_layer"]})
    return s


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(base, change, better, bound):
    seeds = sorted(set(base) & set(change))
    b = [base[s] for s in seeds]
    c = [change[s] for s in seeds]
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for x, y in zip(b, c) if sign * (y - x) > 0)
    losses = sum(1 for x, y in zip(b, c) if sign * (y - x) < 0)
    mb, mc = statistics.median(b), statistics.median(c)
    q1, q3 = quartiles(b)
    gap = abs(mc - mb)
    if wins >= 0.9 * len(seeds):
        word = "better" if gap > q3 - q1 else "better in pairs"
    elif losses >= 0.9 * len(seeds):
        word = "worse" if gap > q3 - q1 else "worse in pairs"
    elif bound is not None and mb and gap / abs(mb) > bound:
        word = "unresolved"
    else:
        word = "same"
    ratios = [y / x for x, y in zip(b, c) if x]
    ratio = statistics.median(ratios) if ratios else float("nan")
    return len(seeds), mb, (q1, q3), mc, quartiles(c), wins, ratio, word


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    base, change = load(argv[0]), load(argv[1])
    metric_spec = spec()
    for key in sorted(set(base) & set(change)):
        workload, trace = key
        print(f"\n{workload} ({'per layer' if trace else 'end to end'})")
        print(f"  {'metric':28s} {'n':>3s} {'base median [q1, q3]':>36s}"
              f" {'change median [q1, q3]':>36s} {'wins':>5s} {'ratio':>7s}"
              "  verdict")
        metrics = sorted({m for v in base[key].values() for m in v})
        for m in metrics:
            better, bound = metric_spec.get(m, ("lower", None))
            b = {s: v[m] for s, v in base[key].items() if m in v}
            c = {s: v[m] for s, v in change[key].items() if m in v}
            if not set(b) & set(c):
                continue
            n, mb, (b1, b3), mc, (c1, c3), wins, ratio, word = verdict(
                b, c, better, bound)
            print(f"  {m:28s} {n:3d} {mb:12.5g} [{b1:9.4g}, {b3:9.4g}]"
                  f" {mc:12.5g} [{c1:9.4g}, {c3:9.4g}] {wins:3d}/{n:<2d}"
                  f" {ratio:7.3f}  {word}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
