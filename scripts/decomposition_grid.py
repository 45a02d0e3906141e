#!/usr/bin/env python3
"""Sweep equal-length trail decompositions of complete loop-digraphs.

For every n up to --max-n and every divisor d of n*n, report whether the
decomposition exists, which route produced it (as `decompose_equal`
records it: "euler" for d = n*n, "blowup" when K~_m's trails for a divisor
m < n of n with d | m*m are blown up, or else, for d = n*j, when the
blown-up copies of a smaller decomposition are merged, and "cyclic" for
odd n = d otherwise), and how long it took.

    python scripts/decomposition_grid.py --max-n 12
"""
import argparse
import sys
import time

from ucycle.decomp import Impossible, decompose_equal


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=10)
    args = ap.parse_args()

    for n in range(1, args.max_n + 1):
        for d in range(1, n * n + 1):
            if (n * n) % d:
                continue
            t0 = time.time()
            try:
                dec = decompose_equal(n, d)
                status = f"{len(dec.trails)} trails ({dec.route})"
            except Impossible as exc:
                status = f"impossible [{exc.reason}]"
            print(f"n={n:2d} d={d:3d}  {status}  {time.time() - t0:6.2f}s",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
