#!/usr/bin/env python3
"""Regenerate POOL_WIDTH.md: every workload's end-to-end host metrics at
pool width 1 and at pool width `nproc`, set through WG_THREADS.

usage: python3 perfbench/pool_table.py [SEED]   (run from the repository root)

The table is a one-off record of where the work-stealing pool helps or
hurts, not a gated metric. It runs the command in BENCHMARK.json, so it
takes about 8 runs of the benchmark.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

HOST_METRICS = ("setup_s", "train_seeds_per_s", "serve_host_rps")


def run(cmd, workload, seed, seconds, threads):
    env = dict(os.environ, WG_THREADS=str(threads))
    args = cmd + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(args, env=env, capture_output=True, text=True, check=True).stdout.splitlines()
    host = json.loads(next(line[5:] for line in out if line.startswith("host ")))
    result = json.loads(out[-1])
    assert result["correct"], f"{workload} at width {threads} failed its checks"
    return host, {k: v["value"] for k, v in result["metrics"].items()}


def main():
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    bench = json.loads(Path("BENCHMARK.json").read_text())
    width = os.cpu_count() or 1
    rows, host = [], None
    for w in (w["name"] for w in bench["workloads"]):
        _, one = run(bench["command"], w, seed, bench["run_seconds"], 1)
        host, wide = run(bench["command"], w, seed, bench["run_seconds"], width)
        for m in HOST_METRICS:
            ratio = wide[m] / one[m]
            rows.append(f"| {w} | {m} | {one[m]:.4g} | {wide[m]:.4g} | {ratio:.2f} |")
    lines = [
        "# Pool width 1 against pool width nproc",
        "",
        "A one-off record, not a gated metric: the end-to-end host metrics of every",
        f"workload at `WG_THREADS=1` and at `WG_THREADS={width}` (`nproc`), seed {seed},",
        f"{bench['run_seconds']} s runs. Regenerate with `python3 perfbench/pool_table.py`.",
        "",
        f"Host: {host['cores']} cores, SIMD {host['simd']}, revision {host['git_rev']}.",
        "",
        f"| workload | metric | width 1 | width {width} | width {width} / width 1 |",
        "|---|---|---|---|---|",
        *rows,
        "",
    ]
    Path("perfbench/POOL_WIDTH.md").write_text("\n".join(lines))
    print("\n".join(lines))


if __name__ == "__main__":
    main()
