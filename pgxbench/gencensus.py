"""Write the io workload's generated census: one directory per order,
laid out like the shipped census (DIR/<order>/<name>.cayley).

It runs in its own process, so the tables' memory stays out of the measured
process. The same seed always writes the same files.

Usage: gencensus.py --seed N --out DIR [--tiny]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import workloads


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()

    from pgx.constructors import build_group, parse_group_spec
    from pgx.groups import write_cayley

    _, specs = workloads.build_round("io", args.seed, args.tiny)
    for spec in specs:
        d = Path(args.out) / str(spec.order)
        d.mkdir(parents=True, exist_ok=True)
        write_cayley(build_group(parse_group_spec(spec.text)),
                     d / f"{workloads.slug(spec.text)}.cayley")
    return 0


if __name__ == "__main__":
    sys.exit(main())
