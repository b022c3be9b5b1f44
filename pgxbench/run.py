"""pgx benchmark: one run of one workload.

    python3 pgxbench/run.py --workload {audit,formula,io} --seed N \
        --seconds S --trace {0,1}

Run it from anywhere inside a checkout; it measures the pgx in the checkout's
src directory. With --trace 0 it prints the end-to-end metrics, with --trace 1
the per-layer metrics of a traced run, as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Every run is hermetic: the measured process is a fresh interpreter that gets
the absolute src path, no PGX_* variables, and a scratch working directory
with no pgx.toml; every operation names the census directory explicitly.
Scratch files live in .pgxbench_work/ and are removed when the run ends;
span files of traced runs are kept in .pgxbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# setup_s is the median of this many cold starts; io's each write a census.
SETUP_REPS = {"audit": 7, "formula": 7, "io": 3}
RUN_BUDGET_S = 170       # the one time limit of a run; children are killed past it
WRAP_UP_S = 5            # the worker's last op ends this long before the budget
MIN_ABOVE_P90 = 10       # latency samples a run must have above its p90

class BenchError(Exception):
    pass


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PGX_") and k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["OMP_NUM_THREADS"] = "1"
    return env


def python(script: str, args: list[str], cwd: Path, deadline: float) -> None:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("run budget exhausted")
    try:
        proc = subprocess.run([sys.executable, str(BENCH / script), *args], cwd=cwd,
                              env=child_env(), capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{script} did not finish within the run budget") from None
    if proc.returncode != 0:
        raise BenchError(f"{script} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")


def start_once(args, work: Path, tag: str, setup_only: bool, deadline: float) -> dict:
    """One cold start: census generation (io), then the worker. Returns the
    worker's result with setup_s, the time from this call to its first op."""
    t0 = time.monotonic()
    gen = work / f"gen-{tag}"
    common = ["--seed", str(args.seed)] + (["--tiny"] if args.tiny else [])
    if args.workload == "io":
        python("gencensus.py", common + ["--out", str(gen)], work, deadline)
    result_file = work / f"result-{tag}.json"
    wargs = common + ["--workload", args.workload, "--seconds", str(args.seconds),
                      "--trace", str(args.trace), "--result", str(result_file),
                      "--census", str(ROOT / "census"), "--gen", str(gen),
                      "--work", str(work), "--corrupt-op", str(args.corrupt_op),
                      "--deadline", repr(deadline - WRAP_UP_S)]
    if setup_only:
        wargs.append("--setup-only")
    if args.trace:
        wargs += ["--spans", str(ROOT / ".pgxbench_out" /
                                 f"spans-{args.workload}-seed{args.seed}.jsonl.gz")]
    python("worker.py", wargs, work, deadline)
    result = json.loads(result_file.read_text())
    result["setup_s"] = result["t_first"] - t0
    shutil.rmtree(gen, ignore_errors=True)
    return result


def window_mean(lat: list[float], lo: float, hi: float) -> float:
    """The mean of the sorted values ranked from lo to hi (shares of the
    sample). It estimates a percentile: a single order statistic jumps between
    neighbouring op sizes from seed to seed; the window mean does not."""
    a = int(lo * len(lat))
    return statistics.fmean(lat[a:max(int(hi * len(lat)), a + 1)])


def end_to_end(result: dict, setups: list[float]) -> dict[str, float]:
    lat = sorted(result["latencies"])
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(lat) / sum(lat),
        "latency_p50_ms": 1e3 * window_mean(lat, 0.45, 0.55),
        # The p90 window ends below the top 7 %, so a round of 143 or more
        # ops has 10 or more samples above p90.
        "latency_p90_ms": 1e3 * window_mean(lat, 0.86, 0.93),
        "peak_rss_mb": result["peak_rss_mb"],
        # The share of the round's ops that never failed: one failing op
        # moves it by more than its bound, however many runs there were.
        "ok_ratio": 1 - result["failed_ops"] / result["round_ops"],
    }


def above_p90(result: dict, metrics: dict[str, float]) -> int:
    return sum(1e3 * x > metrics["latency_p90_ms"] for x in result["latencies"])


def report(args, result: dict, metrics: dict[str, float], units: dict[str, str]) -> None:
    lat = result["latencies"]
    failed = len(result["failures"])
    print(f"pgxbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(f"  round: {result['round_ops']} ops, argv sha256 {result['argv_sha256']}")
    print(f"  stdout sha256 over the first pass ({result['digest_ops']} ops): "
          f"{result['stdout_sha256']}")
    if not args.trace:
        p90 = metrics["latency_p90_ms"] / 1e3
        print(f"  samples: {len(lat)} distinct ops, each timed as the least of its "
              f"runs; {above_p90(result, metrics)} above p90")
        print(f"  fail_ratio {failed / result['attempted']:.4g} "
              f"({failed} of {result['attempted']} runs of an op; "
              f"{result['failed_ops']} of {result['round_ops']} ops failed at least once)")
        print(f"  setup_s of each cold start: "
              + ", ".join(f"{s:.4f}" for s in result["setups"]))
    for name, value in metrics.items():
        print(f"  {name:48s} {value:16.6f} {units[name]}")
    if result["cut_short"]:
        print(f"  the run budget of {RUN_BUDGET_S} s cut the run short after "
              f"{result['attempted']} runs of an op")
    for line in result["failures"][:10]:
        print(f"  FAILED {line}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs, for the self-test")
    ap.add_argument("--corrupt-op", type=int, default=-1,
                    help="corrupt the output of this op before checking it "
                         "(self-test of the checks)")
    args = ap.parse_args()
    deadline = time.monotonic() + RUN_BUDGET_S

    if not (ROOT / "src" / "pgx" / "cli.py").is_file() or not (ROOT / "census" / "16").is_dir():
        print(f"error: {ROOT} holds no pgx checkout (src/pgx and census/16)", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    scratch = ROOT / ".pgxbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=scratch))
    try:
        # Setup-only cold starts, half before the measured one and half after
        # it, so that setup_s samples the host over the whole run.
        probes = 0 if args.trace else SETUP_REPS[args.workload] - 1
        probe = lambda i: start_once(args, work, f"probe{i}", True, deadline)["setup_s"]
        setups = [probe(i) for i in range(probes // 2)]
        # The measured worker leaves time for the later probes, at half the
        # pace of the earlier ones.
        reserve = 2 * (probes - len(setups)) * max(setups, default=0.0)
        result = start_once(args, work, "run", False, deadline - reserve)
        setups += [result["setup_s"]] + [probe(i) for i in range(len(setups), probes)]
        result["setups"] = setups
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(scratch.iterdir()):
            scratch.rmdir()

    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        metrics = {n: float(result["layers"].get(n, 0.0)) for n in names}
    else:
        metrics = end_to_end(result, result["setups"])
        # A run that fails ops may tie many samples at the op timeout; it is
        # reported as not correct instead.
        if not args.tiny and not result["failures"] and above_p90(result, metrics) < MIN_ABOVE_P90:
            print(f"error: fewer than {MIN_ABOVE_P90} latency samples above p90", file=sys.stderr)
            return 1
    report(args, result, metrics, units)
    failed = len(result["failures"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
