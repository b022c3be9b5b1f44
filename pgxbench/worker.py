"""The measured process: one fresh interpreter per run.

It imports pgx (from the src directory on PYTHONPATH), builds the seeded
round, then calls pgx.cli.main(argv) in-process, one operation at a time,
checking each output. It writes its result as JSON to --result.

Usage: worker.py --workload W --seed N --seconds S --trace 0|1 --result FILE
       --census DIR --gen DIR --work DIR --deadline T [--setup-only] [--tiny]
       [--corrupt-op I]

--deadline is a time.monotonic() value (CLOCK_MONOTONIC, the same in every
process): no operation is started that could still run past it.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import ctypes.util
import gc
import hashlib
import io
import json
import resource
import signal
import sys
import time
from pathlib import Path

import checks
import workloads

MIN_PASSES = 3       # every op runs at least this often; its time is the least
OP_TIMEOUT_S = 20    # an op that never succeeds is timed at this


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout


def fill(argv, paths: dict[str, str]) -> list[str]:
    return [a.format(**paths) for a in argv]


def _malloc_trim():
    try:
        return ctypes.CDLL(ctypes.util.find_library("c")).malloc_trim
    except (OSError, AttributeError):    # not glibc
        return lambda pad: 0


MALLOC_TRIM = _malloc_trim()


def settle() -> None:
    """Between operations: collect garbage and hand free heap memory back to
    the OS, so each operation starts close to the state of a fresh `pgx`
    process and peak RSS does not depend on what ran before."""
    gc.collect()
    MALLOC_TRIM(0)


class Runner:
    def __init__(self, main, ops, paths, corrupt_op: int, deadline: float):
        self.main = main
        self.deadline = deadline
        self.cut_short = False
        self.ops = ops
        self.paths = paths
        self.corrupt_op = corrupt_op
        self.best = [float("inf")] * len(ops)
        self.runs = [0] * len(ops)
        self.failures: list[str] = []
        self.failed_ops: set[int] = set()     # ops of the round with a failed run
        self.attempted = 0
        self.stdout_bytes = 0
        self.digest = hashlib.sha256()
        self.digest_ops = 0

    def run_op(self, i: int, main) -> float:
        """Run op i of the round; return its time and record the outcome."""
        op = self.ops[i]
        argv = fill(op.argv, self.paths)
        path = {"graph": Path(self.paths["out"]),     # what the op wrote or read
                "ingest": Path(argv[2])}.get(op.kind)
        out, err = io.StringIO(), io.StringIO()
        self.attempted += 1
        self.runs[i] += 1
        settle()
        signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
        start = time.perf_counter()
        try:
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
            finally:
                elapsed = time.perf_counter() - start
                signal.setitimer(signal.ITIMER_REAL, 0)
        except OpTimeout:
            reason = f"timed out after {OP_TIMEOUT_S} s"
        except Exception as exc:  # an exception escaping main is a failure
            reason = f"{type(exc).__name__}: {exc}"
        else:
            reason = None
        stdout = out.getvalue()
        if reason is None:
            if self.attempted - 1 == self.corrupt_op:   # keep only the first line
                stdout = stdout.partition("\n")[0]
                if op.kind == "graph":
                    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
            reason = checks.CHECKS[op.kind](op, code, stdout, path)
        if reason is None:
            self.best[i] = min(self.best[i], elapsed)
        else:
            self.failures.append(f"{' '.join(argv)}: {reason}")
            self.failed_ops.add(i)
        self.stdout_bytes += len(stdout.encode())
        if self.digest_ops == i:      # the first pass over the round, in order
            self.digest.update(stdout.encode())
            if op.kind == "graph":
                self.digest.update(path.read_bytes())
            self.digest_ops += 1
        return elapsed

    def out_of_time(self) -> bool:
        """True once an op started now could run past the deadline."""
        self.cut_short = time.monotonic() + OP_TIMEOUT_S > self.deadline
        return self.cut_short

    def run_for(self, seconds: float, t_first: float) -> None:
        """Cycle through the round until the time is up and every op has run
        MIN_PASSES times."""
        n = len(self.ops)
        i = 0
        while not (time.monotonic() - t_first >= seconds and i >= MIN_PASSES * n):
            if self.out_of_time():
                break
            self.run_op(i % n, self.main)
            i += 1

    def count_unrun(self) -> None:
        """An op the deadline kept from running counts as attempted and failed."""
        for i, (op, runs) in enumerate(zip(self.ops, self.runs)):
            if not runs:
                self.attempted += 1
                self.failures.append(f"{' '.join(op.argv)}: not run before the run deadline")
                self.failed_ops.add(i)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", required=True)
    ap.add_argument("--census", required=True)
    ap.add_argument("--gen", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--deadline", type=float, required=True)
    ap.add_argument("--spans")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--corrupt-op", type=int, default=-1)
    args = ap.parse_args()

    import pgx.cli as cli

    ops, _ = workloads.build_round(args.workload, args.seed, args.tiny)
    argv_digest = hashlib.sha256(json.dumps([op.argv for op in ops]).encode()).hexdigest()
    paths = {"census": args.census, "gen": args.gen, "out": str(Path(args.work) / "graph.out")}
    t_first = time.monotonic()
    result: dict = {"t_first": t_first, "round_ops": len(ops), "argv_sha256": argv_digest}
    if not args.setup_only:
        signal.signal(signal.SIGALRM, _alarm)
        runner = Runner(cli.main, ops, paths, args.corrupt_op, args.deadline)
        if args.trace:
            result.update(traced_run(runner, args))
        else:
            runner.run_for(args.seconds, t_first)
        runner.count_unrun()
        result.update(
            # An op that never succeeded is timed at OP_TIMEOUT_S, so that a
            # hang or a crash cannot make the latency figures better.
            latencies=[min(t, OP_TIMEOUT_S) for t in runner.best],
            cut_short=runner.cut_short, failures=runner.failures,
            failed_ops=len(runner.failed_ops),
            attempted=runner.attempted, stdout_bytes=runner.stdout_bytes,
            stdout_sha256=runner.digest.hexdigest(), digest_ops=runner.digest_ops,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    Path(args.result).write_text(json.dumps(result))
    return 0


def traced_run(runner: Runner, args) -> dict:
    """An untraced warm-up pass over the round, then a pass in which each op
    runs untraced and traced, back to back, so that both see the host at about
    the same speed; which goes first alternates. The ratio of the two time
    sums of the second pass is the tracing overhead."""
    import pgx.census, pgx.cli, pgx.constructors, pgx.groups, pgx.powergraph, pgx.spectrum
    from spans import Tracer

    layer_modules = {"cli": pgx.cli, "constructors": pgx.constructors,
                     "groups": pgx.groups, "spectrum": pgx.spectrum,
                     "powergraph": pgx.powergraph, "census": pgx.census}
    tracer = Tracer()
    root = tracer.wrap("cli.main", runner.main)
    for i in range(len(runner.ops)):     # first runs pay one-off costs
        if runner.out_of_time():
            break
        runner.run_op(i, runner.main)
    plain = traced = 0.0
    stdout_bytes = 0
    t0 = time.perf_counter()
    for i in range(len(runner.ops)):
        for with_spans in ((True, False) if i % 2 else (False, True)):
            if runner.out_of_time():
                break
            if not with_spans:
                plain += runner.run_op(i, runner.main)
                continue
            tracer.install(layer_modules)
            tracer.op = i
            before = runner.stdout_bytes
            traced += runner.run_op(i, root)
            stdout_bytes += runner.stdout_bytes - before
            tracer.uninstall()
    layers = tracer.summary()
    layers["cli.stdout_bytes"] = stdout_bytes
    layers["trace.overhead_pct"] = 100 * (traced / plain - 1) if plain else 0.0
    if args.spans:
        tracer.write(Path(args.spans), t0)
    return {"layers": layers}


if __name__ == "__main__":
    sys.exit(main())
