#!/usr/bin/env python3
"""Compare two sets of perfbench results, such as a parent commit and a change.

usage: python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the result files perfbench writes to
.bench_out/results/ (move that directory aside between the two sets).
Results recorded on hosts of different shapes (cores, pool width, SIMD
level) are refused with exit code 2. For each workload and end-to-end
metric the script prints both medians and quartile spreads, and exits
with code 1 when a median is worse than the base by more than the bound
BENCHMARK.json fixes. Failed runs (correct == false) are refused too.
"""
import json
import statistics
import sys
from pathlib import Path

SHAPE = ("cores", "pool_width", "simd")


def load(directory):
    runs = [json.loads(p.read_text()) for p in sorted(Path(directory).glob("*.json"))]
    if not runs:
        sys.exit(f"compare: no results in {directory}")
    bad = [r for r in runs if not r["result"]["correct"]]
    if bad:
        print(f"compare: {directory} holds {len(bad)} failed run(s); refusing")
        sys.exit(2)
    return runs


def summary(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, float("nan")
    q = statistics.quantiles(values, n=4)
    return med, (q[2] - q[0]) / abs(med)


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, new = load(sys.argv[1]), load(sys.argv[2])
    shapes = {tuple(r["host"][k] for k in SHAPE) for r in base + new}
    if len(shapes) != 1:
        print(f"compare: refusing results from different host shapes {sorted(shapes)} {SHAPE}")
        sys.exit(2)
    bench = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    regressions = 0
    print(f"{'workload':12} {'metric':20} {'base':>14} {'spread':>7} {'new':>14} {'spread':>7} {'worse':>7} bound")
    for w in (w["name"] for w in bench["workloads"]):
        for m in bench["end_to_end"]:
            name = m["name"]

            def values(runs):
                return [
                    r["result"]["metrics"][name]["value"]
                    for r in runs
                    if r["workload"] == w and r["trace"] == 0
                ]

            b, n = values(base), values(new)
            if not b or not n:
                continue
            (bm, bs), (nm, ns) = summary(b), summary(n)
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (nm - bm) / abs(bm)
            flag = worse > m["bound"]
            regressions += flag
            print(
                f"{w:12} {name:20} {bm:14.4f} {bs:7.3f} {nm:14.4f} {ns:7.3f} {worse:+7.3f} "
                f"{m['bound']}{'  REGRESSION' if flag else ''}"
            )
    sys.exit(1 if regressions else 0)


if __name__ == "__main__":
    main()
