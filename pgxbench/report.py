"""Run every workload of the benchmark and print all its metrics.

    python3 pgxbench/report.py [--seeds 1,2,3] [--workloads audit,formula,io]
                               [--baseline pgxbench/BASELINE.json]

For each workload it makes one untraced run per seed and prints, per
end-to-end metric, the median over the seeds and the spread (distance
between the first and third quartile as a share of the median) next to the
metric's bound. It then makes one traced run on the first seed and prints
the per-layer metrics with the tracing overhead. --baseline writes all of it,
with the layer-to-end-to-end mapping below, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# Which end-to-end metric each layer metric should move, and on which
# workload. A change to a layer is judged by the end-to-end metric named here.
LAYER_TO_END_TO_END = {
    "constructors.build_group.{calls,busy_s,table_mb}":
        "audit peak_rss_mb and latency_p90_ms; also io",
    "groups.element_orders.{calls,busy_s,elements}":
        "audit ops_per_s; about 0 on formula",
    "powergraph.oracle_counts.{calls,busy_s,matrix_mb}":
        "audit ops_per_s and peak_rss_mb; io must not move",
    "powergraph.build_graph.{busy_s,pairs}, powergraph.export.{busy_s,bytes}":
        "io latency_p90_ms",
    "groups.read_cayley.{busy_s,bytes}, groups.validate.{busy_s,triples}":
        "io ops_per_s",
    "constructors.p_group_catalog.{calls,busy_s,distinct_ratio}, "
    "census.enumerate_nilpotent.{calls,busy_s,members}":
        "formula ops_per_s; audit must not move",
    "spectrum.spectrum_product.calls, spectrum.spectrum_cyclic.calls, spectrum.self_s":
        "formula latency_p90_ms (factoring lives in spectrum)",
    "census.verify.busy_s, census.scan.{busy_s,rows}, census.self_s":
        "formula ops_per_s",
    "cli.self_s, cli.stdout_bytes":
        "all workloads, small",
    "constructors.self_s, groups.self_s, powergraph.self_s":
        "the workload where the layer is named above",
}


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["digest"] = next(line.split()[-1] for line in lines if "stdout sha256" in line)
    result["samples"] = next((line.strip() for line in lines if "samples:" in line), "")
    return result


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else 0.0


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--baseline", type=Path)
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    baseline = {"run_seconds": spec["run_seconds"], "seeds": seeds,
                "machine": f"{os.cpu_count()} CPUs, {platform.machine()}, "
                           f"Python {platform.python_version()}",
                "layer_to_end_to_end": LAYER_TO_END_TO_END, "workloads": []}
    for workload in args.workloads.split(","):
        runs = [run(workload, s, spec["run_seconds"], 0) for s in seeds]
        print(f"{workload}: {why[workload]}")
        print(f"  {'metric':40s} {'median':>14s} {'unit':6s} {'spread':>7s} {'bound':>6s}  "
              f"(over seeds {args.seeds})")
        e2e = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            e2e[m["name"]] = {"median": statistics.median(values), "unit": m["unit"],
                              "spread": spread(values), "values": values}
            print(f"  {m['name']:40s} {statistics.median(values):14.4f} {m['unit']:6s} "
                  f"{spread(values):7.4f} {bounds[m['name']]:6.3g}")
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print(f"  fail_ratio {failed / attempted:.4g} ({failed} of {attempted})")
        for seed, r in zip(seeds, runs):
            print(f"  seed {seed} {r['samples']}")
        traced = run(workload, seeds[0], spec["run_seconds"], 1)
        layers = {name: v["value"] for name, v in traced["metrics"].items()}
        print(f"  traced run, seed {seeds[0]}:")
        for m in spec["per_layer"]:
            print(f"    {m['name']:46s} {layers[m['name']]:16.4f} {m['unit']}")
        baseline["workloads"].append({
            "name": workload, "why": why[workload], "end_to_end": e2e,
            "fail_ratio": failed / attempted,
            "samples": {str(s): r["samples"] for s, r in zip(seeds, runs)},
            "stdout_sha256": {
                str(s): r["digest"] for s, r in zip(seeds, runs)},
            "per_layer": {"seed": seeds[0], **layers},
            "trace_overhead_pct": layers["trace.overhead_pct"]})
    if args.baseline:
        args.baseline.write_text(json.dumps(baseline, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
