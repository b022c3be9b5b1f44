"""Quick self-test of the benchmark at tiny sizes (about half a minute).

    python3 pgxbench/selftest.py

It checks that every workload emits exactly the metrics BENCHMARK.json
names, untraced and traced; that a deliberately corrupted output is counted
as a failure and moves ok_ratio past its bound; and that the benchmark refuses to run, printing no result,
in a directory holding only BENCHMARK.json and the benchmark itself.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(*args: str, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(root / BENCH.name / "run.py"), "--seed", "1",
                           "--seconds", "1", *args], capture_output=True, text=True,
                          cwd=root, timeout=180)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok_bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "ok_ratio")
    names = {0: [m["name"] for m in spec["end_to_end"]],
             1: [m["name"] for m in spec["per_layer"]]}
    for w in spec["workloads"]:
        for trace in (0, 1):
            r = result(run("--workload", w["name"], "--trace", str(trace), "--tiny"))
            assert set(r) == {"correct", "attempted", "failed", "metrics"}, r
            assert r["correct"] and r["failed"] == 0 and r["attempted"] >= 1, r
            assert list(r["metrics"]) == names[trace], (w["name"], trace)
            assert all(math.isfinite(m["value"]) for m in r["metrics"].values())
        r = result(run("--workload", w["name"], "--trace", "0", "--tiny", "--corrupt-op", "0"))
        assert not r["correct"] and r["failed"] == 1, r
        assert r["metrics"]["ok_ratio"]["value"] < 1 - ok_bound, r   # breaches its bound
        print(f"{w['name']}: metrics complete, corrupted output counted as a failure")

    out = ROOT / ".pgxbench_out"
    out.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="selftest-", dir=out))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("--workload", "audit", "--trace", "0", root=bare)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    finally:
        shutil.rmtree(bare)
    print("bare directory: refused without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
