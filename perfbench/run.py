"""ucycle benchmark: one workload, one process, one caller in a closed loop.

    python3 perfbench/run.py --workload refute25 --seed 1 --seconds 10 --trace 0

Workloads: refute25, witness25, cli-construct (see NOTES.md).  The run sets
up (fresh import of ucycle from ./src, golden-table load, input generation)
at least SETUP_MIN_REPS times and for at least SETUP_MIN_S seconds, half
before and half after it runs whole passes over the workload's operations
until --seconds have passed.
Every outcome is checked with refcheck; a wrong one is counted as failed and
the run goes on.

--trace 0 reports the end-to-end metrics.  --trace 1 runs the same untraced
passes, then one traced set-up and one traced pass, and reports the
per-layer metrics with a self-time table.  The last line of standard output
is one JSON object: correct, attempted, failed, metrics.
"""
import argparse
import gc
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_MIN_REPS = 6
SETUP_MIN_S = 1.5
CLEARED_ENV = ("UCYCLE_FIELD_CACHE", "UCYCLE_BUDGET_NODES",
               "UCYCLE_BUDGET_SECS")

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s",
              "peak_rss_mb": "MB"}
SELF_TIMED = (
    "search.decide_valid", "core.verify_cover", "core.canonicalize_affine",
    "core.affine_class_representatives", "lift.de_bruijn_sequence",
    "lift.splice_ap_cycle", "lift.double_ap3", "galois.build_field",
    "galois.find_primitive_modulus", "galois.build_reduced_cycle",
    "galois.is_exceptional_bruteforce", "decomp.decompose_equal",
    "decomp.decompose_loopless", "decomp.chi_from_decomposition",
    "approx.type1_construct", "approx.type2_random", "approx.patch_sequence",
    "cli.main",
)
PER_LAYER = {
    "search.decide_valid.calls": "count",
    **{f"{name}.self_s": "s" for name in SELF_TIMED},
    "search.nodes": "count",
    "search.nodes_per_op_p50": "count",
    "search.nodes_per_s": "1/s",
    "core.verify_cover.calls": "count",
    "core.verify_cover.windows_per_s": "1/s",
    "decomp.exact_fallbacks": "count",
    "cli.output_bytes": "bytes",
    "bench.check_s": "s",
    "trace.overhead_frac": "ratio",
}


def fresh_import():
    """Import ucycle anew from ./src and return its modules by layer."""
    for name in [m for m in sys.modules
                 if m == "ucycle" or m.startswith("ucycle.")]:
        del sys.modules[name]
    package = importlib.import_module("ucycle")
    if Path(package.__file__).resolve().parent != SRC / "ucycle":
        raise ImportError(f"ucycle came from {package.__file__}, not {SRC}")
    return SimpleNamespace(package=package, **{
        layer: importlib.import_module(f"ucycle.{layer}")
        for layer in spans.LAYERS})


def set_up(name, seed, tiny, work):
    gc.collect()    # drop the previous set-up's modules, untimed
    start = time.perf_counter()
    mods = fresh_import()
    sizes, ops = workloads.WORKLOADS[name](mods, random.Random(seed), work,
                                           tiny)
    return time.perf_counter() - start, mods, sizes, ops


def set_ups(name, seed, tiny, work):
    """Half of a run's set-ups: their times and the last one's result."""
    times = []
    while len(times) < SETUP_MIN_REPS / 2 or sum(times) < SETUP_MIN_S / 2:
        setup_s, mods, sizes, ops = set_up(name, seed, tiny, work)
        times.append(setup_s)
    return times, mods, sizes, ops


def measure(ops, seconds=0.0, passes=None, tracer=None):
    """Whole passes over `ops` until `seconds` of wall time have passed (or
    exactly `passes` passes).  `op_s` sums the timed `op.run` calls;
    `wall_s` also holds the untimed collections and checks between them."""
    results = []        # (label, seconds, failure reason or None, bytes out)
    check_s = 0.0
    done = 0
    start = time.perf_counter()
    while True:
        for op in ops:
            if tracer is not None:
                tracer.op_id = len(results)
            gc.collect()    # start each operation on a clean heap, untimed
            t0 = time.perf_counter()
            try:
                outcome, err = op.run(), None
            except Exception as exc:    # a failed operation; the run goes on
                outcome, err = None, f"raised {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            c0 = time.perf_counter()
            out_bytes = (os.path.getsize(op.out)
                         if op.out and os.path.exists(op.out) else 0)
            if err is None:
                try:
                    err = op.check(outcome)
                except Exception as exc:
                    err = f"check raised {type(exc).__name__}: {exc}"
            check_s += time.perf_counter() - c0
            results.append((op.label, elapsed, err, out_bytes))
        done += 1
        if passes is not None:
            if done >= passes:
                break
        elif time.perf_counter() - start >= seconds:
            break
    if tracer is not None:
        tracer.op_id = None
    return SimpleNamespace(results=results, passes=done, check_s=check_s,
                           op_s=sum(r[1] for r in results),
                           wall_s=time.perf_counter() - start)


def tail(times):
    """(seconds, percentile) at the highest percentile with at least ten
    samples beyond it, or None when there are fewer than 11 samples."""
    if len(times) < 11:
        return None
    ordered = sorted(times)
    i = len(ordered) - 11
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return "unknown (not a git checkout)"
    return "unknown"


def layer_metrics(tracer, traced, overhead):
    values = {"search.decide_valid.calls":
              tracer.get("search.decide_valid")[0],
              "core.verify_cover.calls": tracer.get("core.verify_cover")[0]}
    for name in SELF_TIMED:
        values[f"{name}.self_s"] = tracer.get(name)[1]
    search_s = tracer.get("search.decide_valid")[1]
    verify_s = tracer.get("core.verify_cover")[1]
    per_op = [v for op, v in tracer.op_nodes.items() if op is not None]
    values.update({
        "search.nodes": tracer.nodes,
        "search.nodes_per_op_p50": statistics.median(per_op) if per_op else 0,
        "search.nodes_per_s": tracer.nodes / search_s if search_s else 0.0,
        "core.verify_cover.windows_per_s":
            tracer.windows / verify_s if verify_s else 0.0,
        "decomp.exact_fallbacks": tracer.get("decomp.decompose_exact")[0],
        "cli.output_bytes": sum(r[3] for r in traced.results),
        "bench.check_s": traced.check_s,
        "trace.overhead_frac": overhead,
    })
    return {k: {"value": values[k], "unit": PER_LAYER[k]} for k in PER_LAYER}


def run_workload(name, seed, seconds, trace=False, tiny=False, work=None):
    """Set up, measure and check one workload; returns (report lines,
    result object for the last line)."""
    setups, mods, sizes, ops = set_ups(name, seed, tiny, work)
    base = measure(ops, seconds)
    # the other half after the passes, so the median spans the whole run
    later, mods, _, _ = set_ups(name, seed, tiny, work)
    setups += later
    runs = [base]
    lines = [
        f"# workload={name} seed={seed} seconds={seconds} trace={int(trace)}"
        f" tiny={int(tiny)}",
        f"# python={sys.version.split()[0]} nproc={os.cpu_count()}"
        f" affinity={len(os.sched_getaffinity(0))} commit={git_commit()}"
        f" cleared={','.join(CLEARED_ENV)}",
        f"# sizes={json.dumps(sizes)}",
        f"# passes={base.passes} ops_per_pass={len(ops)}"
        f" distinct_ops={len({op.label for op in ops})}"
        f" setup_reps={len(setups)}",
    ]
    if trace:
        tracer = spans.Tracer()
        tracer.install([mods.package] + [getattr(mods, layer)
                                         for layer in spans.LAYERS])
        try:
            _, traced_ops = workloads.WORKLOADS[name](
                mods, random.Random(seed), work, tiny)
            traced = measure(traced_ops, passes=1, tracer=tracer)
        finally:
            tracer.uninstall()
        runs.append(traced)
        overhead = traced.op_s / (base.op_s / base.passes) - 1.0
        metrics = layer_metrics(tracer, traced, overhead)
        OUT.mkdir(exist_ok=True)
        span_file = OUT / f"spans-{name}-seed{seed}.jsonl"
        tracer.write_spans(span_file)
        lines.append(f"# traced: one set-up and one pass, "
                     f"{traced.op_s:.4f} s of operations, overhead "
                     f"{100 * overhead:.1f}% over the untraced pass; "
                     f"{len(tracer.spans)} spans in {span_file.name}"
                     f" ({tracer.dropped} dropped)")
        lines += ["# " + ln for ln in tracer.table(traced.op_s)]
        labels = {i: r[0] for i, r in enumerate(traced.results)}
        if len(set(labels.values())) <= 40:
            lines.append("# per operation:")
            lines += ["#   " + ln for ln in tracer.op_breakdown(labels)]
    else:
        times = [r[1] for r in base.results]
        by_label = {}
        for label, elapsed, _, _ in base.results:
            by_label.setdefault(label, []).append(elapsed)
        ok = sum(1 for r in base.results if r[2] is None)
        metrics = {
            "setup_s": statistics.median(setups),
            "ops_per_s": ok / base.wall_s,
            "op_p50_s": statistics.median(
                statistics.median(ts) for ts in by_label.values()),
            "peak_rss_mb": peak_rss_mb(),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in metrics.items()}
        t = tail(times)
        lines.append(f"# op_tail_s={t[0]:.6f} at p{t[1]:.1f} of {len(times)}"
                     if t else f"# op_tail_s omitted: {len(times)} samples,"
                     f" a tail needs at least 11")
        lines.append(f"# setup_s min={min(setups):.4f} max={max(setups):.4f}"
                     f" wall_s={base.wall_s:.4f} op_s={base.op_s:.4f}")
    results = [r for m in runs for r in m.results]
    failures = [r for r in results if r[2] is not None]
    lines.append(f"# attempted={len(results)} failed={len(failures)}"
                 f" failed_frac={len(failures) / len(results):.4f}"
                 f" check_s={sum(m.check_s for m in runs):.4f}")
    lines += [f"# FAILED {label}: {err}" for label, _, err, _ in failures[:10]]
    result = {"correct": not failures, "attempted": len(results),
              "failed": len(failures), "metrics": metrics}
    return lines, result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    for var in CLEARED_ENV:
        os.environ.pop(var, None)
    if not (SRC / "ucycle" / "__init__.py").is_file():
        print(f"error: no ucycle sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        lines, result = run_workload(args.workload, args.seed, args.seconds,
                                     bool(args.trace), False, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
