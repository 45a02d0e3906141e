"""Command-line surface: every subcommand delegates to a library module.
A command that emits a cycle emits with it the report of the builder's own
`verify_cover` run: every builder verifies what it returns and raises when
the check fails, so nothing unverified is written out.  `verify` and
`approx --type 2`, whose strings no builder vouches for, call
`verify_cover` themselves.  Commands read the parsed arguments directly;
the budget flags are checked as they are parsed (`node_budget`,
`time_budget`), and a JSON document echoes the seed and budgets it ran with.

A command writes the one document `--format` asks for.  JSON is one line
with sorted keys, which `json.dumps` writes with its C encoder
(`python -m json.tool` indents it); `decompose`, whose documents list every
edge, builds only the one asked for.  `search --format json` names the
`engine` that ran the exact cover: "c" for the compiled kernel, else
"python".

Exit codes: 0 verified result (including proven negative verdicts),
1 a check that failed (`verify` on an incomplete cycle, `diff-golden` on a
mismatch), 2 usage errors, 3 budget/inconclusive outcomes and running out
of memory, which claim no verdict, 141 (128 + SIGPIPE) when the reader of
stdout closes the pipe early, with no error line.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from importlib import resources

from . import approx as approx_mod
from . import decomp as decomp_mod
from . import galois as galois_mod
from . import lift as lift_mod
from . import search as search_mod
from .core import (
    CycleParams,
    CyclicString,
    UcycleError,
    canonicalize_affine,
    content_lines,
    desk_size,
    verify_cover,
)

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3
EXIT_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process SIGPIPE ended

GOLDEN_TABLES = {
    "obs1": {"file": "obs1.txt", "q": 3, "n": 3, "verdict": "invalid"},
    "obs2": {"file": "obs2.txt", "q": 2, "n": 4, "verdict": "valid"},
    "obs3": {"file": "obs3.txt", "q": 2, "n": 5, "verdict": "invalid"},
}


def _emit(args, doc, text_lines):
    """`doc` as one line of JSON with sorted keys, or `text_lines` as lines,
    as `args.format` asks.  A command whose documents are costly builds only
    the one asked for and passes None for the other."""
    if args.format == "json":
        payload = dict(doc)
        payload.setdefault("schema", 1)
        payload["config"] = {"seed": getattr(args, "seed", 0),
                             "node_limit": getattr(args, "budget_nodes", None),
                             "time_limit": getattr(args, "budget_secs", None)}
        # no indent: any indent sends json to its pure-Python encoder
        out = json.dumps(payload, sort_keys=True)
    else:
        out = "\n".join(text_lines)
    _write(args, out)


def _write(args, text):
    """`text` and a newline, to the `--out` file or to stdout."""
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")
    else:
        print(text)


def _emit_cycle(args, chi, report, extra=None):
    text = chi.text()
    doc = {"cycle": text, "q": chi.q, "length": len(chi),
           "verification": report.to_json_dict()}
    if extra:
        doc.update(extra)
    lines = [text,
             f"# verified: complete={report.complete} q={report.q} "
             f"n={report.n} set={','.join(map(str, report.index_set))}"]
    if extra:
        for k, v in extra.items():
            lines.append(f"# {k}: {v}")
    _emit(args, doc, lines)


def _read_cycle(path, q):
    """The cycle in a text file as `--out` writes it, its `#` lines skipped;
    a ValueError names the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return CyclicString.from_text(fh.read(), q)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_search(args):
    I = search_mod.parse_set(args.set)
    cert = search_mod.decide_valid(args.q, args.n, I,
                                   node_limit=args.budget_nodes,
                                   time_limit=args.budget_secs)
    doc = {
        "verdict": cert.verdict,
        "index_set": list(cert.index_set),
        "nodes": cert.nodes_explored,
        "elapsed": round(cert.elapsed, 6),
        "method": cert.method,
        "engine": cert.engine,
    }
    lines = [f"{cert.verdict}"]
    if cert.witness is not None:
        doc["witness"] = cert.witness.text()
        lines.append(cert.witness.text())
    lines.append(f"# nodes={cert.nodes_explored} method={cert.method}")
    _emit(args, doc, lines)
    return EXIT_OK


def cmd_atlas(args):
    if args.size != args.n:
        raise ValueError(f"--size {args.size} must equal --n {args.n}: "
                         "a valid index set has n elements")
    verdicts = search_mod.atlas(args.q, args.n,
                                node_limit=args.budget_nodes,
                                time_limit=args.budget_secs,
                                checkpoint=args.resume,
                                jobs=args.jobs)
    _write(args, "\n".join(search_mod.format_line(rep, v)
                            for rep, v in verdicts.items()))
    undecided = sum(v == search_mod.INCONCLUSIVE for v in verdicts.values())
    if undecided:
        print(f"inconclusive: {undecided} classes ran out of budget",
              file=sys.stderr)
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def cmd_gen_ap(args):
    q, n = args.q, args.n
    if q < 2:
        raise ValueError("need q >= 2")
    if n == 2 and q % 2 == 0:
        if q == 2:
            print("no {0,2}-cycle exists for q=2 (two-element criterion)",
                  file=sys.stderr)
            return EXIT_USAGE
        if args.seed_cycle:
            raise ValueError("--seed-cycle does not apply to even q at "
                             "n = 2 (trail-decomposition route)")
        dec = decomp_mod.decompose_equal(q, q)
        chi, report = decomp_mod.chi_from_decomposition(dec)
        route = "trail-decomposition"
    else:
        seed_cycle = None
        if args.seed_cycle:
            seed_cycle = _read_cycle(args.seed_cycle, q)
        chi, report = lift_mod.splice_ap_cycle(q, n, seed=seed_cycle)
        route = "lift-splice"
    _emit_cycle(args, chi, report, extra={"route": route})
    return EXIT_OK


def cmd_double_ap3(args):
    chi = _read_cycle(args.input, args.q)
    doubled, report = lift_mod.double_ap3(chi, args.d)
    _emit_cycle(args, doubled, report)
    return EXIT_OK


def cmd_gen_reduced(args):
    I = search_mod.parse_set(args.set)
    seq, report = galois_mod.build_reduced_cycle(I, args.q, args.n)
    _emit_cycle(args, seq.chi, report)
    return EXIT_OK


def cmd_classify(args):
    I = search_mod.parse_set(args.set)
    verdict = galois_mod.is_exceptional_bruteforce(I, args.q, args.n)
    doc = {"verdict": verdict.verdict, "index_set": list(verdict.index_set)}
    lines = [verdict.verdict]
    if verdict.ordinary:
        doc["witness_poly"] = list(verdict.witness_poly)
        lines.append(f"# witness poly (ascending): {verdict.witness_poly}")
    else:
        sample = dict(list(verdict.dependencies.items())[:4])
        doc["dependencies_sample"] = {str(k): list(v)
                                      for k, v in sample.items()}
        lines.append(f"# dependent for every generator; "
                     f"{len(verdict.dependencies)} dependencies recorded")
    if args.n == 3 and len(I) == 3:
        doc["triple_criterion"] = galois_mod.exceptional_triple(*I, args.q)
    _emit(args, doc, lines)
    return EXIT_OK


def cmd_decompose(args):
    if args.emit_chi and args.n < 2:
        raise ValueError(f"--emit-chi needs n >= 2, got n = {args.n}: the "
                         "cycle's alphabet has n symbols")
    try:
        dec = decomp_mod.decompose_equal(args.n, args.d)
    except decomp_mod.Impossible as exc:
        doc = {"verdict": "impossible", "reason": exc.reason,
               "n": args.n, "d": args.d}
        _emit(args, doc, [f"impossible ({exc.reason})"])
        return EXIT_OK
    chi = None
    if args.emit_chi:
        chi = decomp_mod.chi_from_decomposition(dec)[0].text()
    # each document lists every edge: build only the one asked for
    if args.format == "json":
        doc = dec.to_json_obj()
        doc["verdict"] = "decomposed"
        if chi is not None:
            doc["chi"] = chi
            doc["chi_index_set"] = [0, len(dec.trails)]
        _emit(args, doc, None)
    else:
        lines = dec.to_text_lines()
        if chi is not None:
            lines.append(chi)
        _emit(args, None, lines)
    return EXIT_OK


def cmd_approx(args):
    I = search_mod.parse_set(args.set)
    q, n = args.q, args.n
    if args.type == 1:
        if args.m is not None:
            raise ValueError("--m applies only to --type 2")
        chi, report, log = approx_mod.type1_construct(q, n, I, seed=args.seed)
        _emit_cycle(args, chi, report, extra={"construction": log})
        return EXIT_OK
    m = args.m if args.m is not None else 4 * desk_size(q, n)
    chi, missing = approx_mod.type2_random(q, n, I, m, seed=args.seed)
    report = verify_cover(chi, (q, n), I)
    doc = {"cycle": chi.text(), "missing": missing, "m": m,
           "seed": args.seed, "verification": report.to_json_dict()}
    lines = [chi.text(), f"# missing words: {missing} of {desk_size(q, n)}"]
    _emit(args, doc, lines)
    return EXIT_OK


def cmd_janson(args):
    value = approx_mod.janson_bound(args.mu, args.Delta, args.delta)
    _emit(args, {"bound": value}, [str(value)])
    return EXIT_OK


def cmd_verify(args):
    I = search_mod.parse_set(args.set)
    chi = _read_cycle(args.file, args.q)
    q, n = args.q, args.n
    if args.reduced or len(chi) == desk_size(q, n) - 1:
        report = verify_cover(chi, CycleParams.reduced(q, n), I)
    else:
        report = verify_cover(chi, (q, n), I)
    doc = report.to_json_dict()
    lines = [f"complete={report.complete}"]
    if report.missing:
        lines.append(f"# missing {len(report.missing)} words, first: "
                     f"{report.missing[0]}")
    _emit(args, doc, lines)
    return EXIT_OK if report.complete else EXIT_FAILED


def load_golden(table_id):
    meta = GOLDEN_TABLES[table_id]
    text = (resources.files("ucycle") / "data" / meta["file"]).read_text(
        encoding="utf-8")
    return meta, [search_mod.parse_set(line)
                  for _, line in content_lines(text.splitlines())]


def diff_golden(atlas_lines, table_id):
    """Orbit-wise comparison of an atlas against a checked-in table; a line
    that is not a `format_line` record raises ValueError naming it.  An
    inconclusive class never matches."""
    meta, rows = load_golden(table_id)
    L = meta["q"] ** meta["n"]
    golden = {canonicalize_affine(row, L).canonical for row in rows}
    mine = {canonicalize_affine(rep, L).canonical
            for _, _, rep, verdict, _ in search_mod.read_records(atlas_lines)
            if verdict == meta["verdict"]}
    return {
        "table": table_id,
        "golden_classes": len(golden),
        "atlas_classes": len(mine),
        "matched": len(golden & mine),
        "missing": sorted(golden - mine),
        "extra": sorted(mine - golden),
    }


def cmd_diff_golden(args):
    try:
        with open(args.atlas, encoding="utf-8") as fh:
            report = diff_golden(fh, args.table)
    except ValueError as exc:
        raise ValueError(f"atlas {args.atlas}: {exc}") from None
    ok = not report["missing"] and not report["extra"]
    doc = dict(report)
    doc["match"] = ok
    text = [f"match={ok} matched={report['matched']} "
            f"missing={len(report['missing'])} extra={len(report['extra'])}"]
    for kind in ("missing", "extra"):
        for row in report[kind][:10]:
            text.append(f"# {kind}: {','.join(map(str, row))}")
    _emit(args, doc, text)
    return EXIT_OK if ok else EXIT_FAILED


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def node_budget(text):
    """argparse type of --budget-nodes: a positive integer."""
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("node budget must be positive")
    return value


def time_budget(text):
    """argparse type of --budget-secs: a positive finite number of seconds."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError("time budget must be finite")
    if value <= 0:
        raise argparse.ArgumentTypeError("time budget must be positive")
    return value


def _add_common(sp, budgets=False):
    """--format and --out, plus the budget flags if the command reads them."""
    sp.add_argument("--format", choices=["text", "json"], default="text")
    sp.add_argument("--out", help="write the result to this file")
    if budgets:
        sp.add_argument("--budget-nodes", type=node_budget, default=None,
                        help="no proxy for time: a node costs 0.2-0.6 us "
                             "at q**n <= 64, 140-240 us at q**n = 4096")
        sp.add_argument("--budget-secs", type=time_budget, default=None)


@functools.lru_cache(maxsize=None)
def build_parser():
    """The argparse tree, built once and reused by every `main` call: each
    parse starts from a new namespace and no default is mutable."""
    ap = argparse.ArgumentParser(
        prog="ucycle",
        description="generalized de Bruijn cycles: build, search, verify")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("search", help="decide validity of an index set")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--set", required=True)
    _add_common(sp, budgets=True)
    sp.set_defaults(func=cmd_search)

    sp = sub.add_parser("atlas", help="classify every affine class")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--size", type=int, required=True)
    sp.add_argument("--resume", help="append-only checkpoint file")
    sp.add_argument("--jobs", type=int, default=1)
    _add_common(sp, budgets=True)
    sp.set_defaults(func=cmd_atlas)

    sp = sub.add_parser("gen-ap", help="cycle for {0, q, ..., (n-1)q}")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--seed-cycle", help="file with a starting cycle")
    _add_common(sp)
    sp.set_defaults(func=cmd_gen_ap)

    sp = sub.add_parser("double-ap3", help="alphabet-doubling step")
    sp.add_argument("--input", required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    _add_common(sp)
    sp.set_defaults(func=cmd_double_ap3)

    sp = sub.add_parser("gen-reduced", help="reduced cycle via field tables")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--set", required=True)
    _add_common(sp)
    sp.set_defaults(func=cmd_gen_reduced)

    sp = sub.add_parser("classify", help="ordinary/exceptional verdict")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--set", required=True)
    _add_common(sp)
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("decompose", help="equal-length trail decomposition")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--emit-chi", action="store_true")
    _add_common(sp)
    sp.set_defaults(func=cmd_decompose)

    sp = sub.add_parser("approx", help="approximate cycles")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--set", required=True)
    sp.add_argument("--type", type=int, choices=[1, 2], required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--m", type=int, default=None)
    _add_common(sp)
    sp.set_defaults(func=cmd_approx)

    sp = sub.add_parser("janson", help="tail probability bound")
    sp.add_argument("--mu", type=float, required=True)
    sp.add_argument("--Delta", type=float, required=True)
    sp.add_argument("--delta", type=float, required=True)
    _add_common(sp)
    sp.set_defaults(func=cmd_janson)

    sp = sub.add_parser("verify", help="re-check a cycle file")
    sp.add_argument("--file", required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--set", required=True)
    sp.add_argument("--reduced", action="store_true")
    _add_common(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("diff-golden", help="orbit-compare an atlas file "
                                            "against a checked-in table")
    sp.add_argument("--atlas", required=True)
    sp.add_argument("--table", choices=sorted(GOLDEN_TABLES), required=True)
    _add_common(sp)
    sp.set_defaults(func=cmd_diff_golden)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader of stdout is gone: point stdout at devnull so the flush
        # at exit stays quiet, and print no error line
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    except search_mod.BudgetExceeded as exc:
        print(f"inconclusive: {exc} (nodes={exc.nodes})", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except MemoryError:
        # sizes inside the desk scale can still exceed the memory at hand
        print("error: out of memory", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except (ValueError, OSError, UcycleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
