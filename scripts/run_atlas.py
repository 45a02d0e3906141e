#!/usr/bin/env python3
"""Long-running atlas driver with checkpointing.

The (2,5) size-5 atlas is the big one: 454 affine classes, about two
minutes on one core (2-core x86 VM, Python 3.11).  Interrupt at will;
rerunning with the same --checkpoint file resumes and produces
byte-identical output.  One progress line is printed per class decided,
with --jobs > 1 too.

    python scripts/run_atlas.py --q 2 --n 5 --size 5 \
        --checkpoint atlas25.ck --out atlas25.tsv --jobs 4

Compare the result against the checked-in reference table afterwards:

    ucycle diff-golden --atlas atlas25.tsv --table obs3
"""
import argparse
import sys
import time

from ucycle.search import atlas


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--q", type=int, required=True)
    ap.add_argument("--n", type=int, required=True)
    ap.add_argument("--size", type=int, required=True)
    ap.add_argument("--checkpoint", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--jobs", type=int, default=1)
    args = ap.parse_args()

    done = {"count": 0}
    t0 = time.time()

    def progress(rep, verdict):
        done["count"] += 1
        print(f"[{time.time() - t0:8.0f}s] {done['count']:5d}  "
              f"{','.join(map(str, rep))}\t{verdict}", flush=True)

    result = atlas(args.q, args.n, args.size, checkpoint=args.checkpoint,
                   jobs=args.jobs, progress=progress)
    with open(args.out, "w") as fh:
        fh.write("\n".join(result.lines()) + "\n")
    print(f"classes: {result.totals}  elapsed: {time.time() - t0:.0f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
