"""Command-line surface: every subcommand delegates to a library module.
A command that emits a cycle emits with it the report of the builder's own
`verify_cover` run: every builder verifies what it returns and raises when
the check fails, so nothing unverified is written out.  `verify` and
`approx --type 2`, whose strings no builder vouches for, call
`verify_cover` themselves.

Exit codes: 0 verified result (including proven negative verdicts),
1 a check that failed (`verify` on an incomplete cycle, `diff-golden` on a
mismatch), 2 usage errors, 3 budget/inconclusive outcomes.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass, field
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
    verify_cover,
)

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3

GOLDEN_TABLES = {
    "obs1": {"file": "obs1.txt", "q": 3, "n": 3, "size": 3,
             "verdict": "invalid"},
    "obs2": {"file": "obs2.txt", "q": 2, "n": 4, "size": 4,
             "verdict": "valid"},
    "obs3": {"file": "obs3.txt", "q": 2, "n": 5, "size": 5,
             "verdict": "invalid"},
}


@dataclass
class RunConfig:
    node_limit: int | None = None
    time_limit: float | None = None
    seed: int = 0
    fmt: str = "text"
    checkpoint: str | None = None
    out: str | None = None

    @classmethod
    def from_args(cls, args):
        node = getattr(args, "budget_nodes", None)
        secs = getattr(args, "budget_secs", None)
        if node is not None and node <= 0:
            raise ValueError("node budget must be positive")
        if secs is not None and secs <= 0:
            raise ValueError("time budget must be positive")
        return cls(
            node_limit=node,
            time_limit=secs,
            seed=getattr(args, "seed", 0) or 0,
            fmt=getattr(args, "format", "text"),
            checkpoint=getattr(args, "resume", None),
            out=getattr(args, "out", None),
        )

    def echo(self):
        return {"seed": self.seed, "node_limit": self.node_limit,
                "time_limit": self.time_limit}


def _parse_set(text):
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"bad index set {text!r}; expected e.g. 0,9,18")


def _emit(cfg, doc, text_lines):
    if cfg.fmt == "json":
        payload = dict(doc)
        payload.setdefault("schema", 1)
        payload["config"] = cfg.echo()
        out = json.dumps(payload, indent=2, sort_keys=True)
    else:
        out = "\n".join(text_lines)
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(out + "\n")
    else:
        print(out)


def _emit_cycle(cfg, chi, report, extra=None):
    doc = {"cycle": chi.text(), "q": chi.q, "length": len(chi),
           "verification": report.to_json_dict()}
    if extra:
        doc.update(extra)
    lines = [chi.text(),
             f"# verified: complete={report.complete} q={report.q} "
             f"n={report.n} set={','.join(map(str, report.index_set))}"]
    if extra:
        for k, v in extra.items():
            lines.append(f"# {k}: {v}")
    _emit(cfg, doc, lines)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_search(args):
    cfg = RunConfig.from_args(args)
    I = _parse_set(args.set)
    cert = search_mod.decide_valid(args.q, args.n, I,
                                   node_limit=cfg.node_limit,
                                   time_limit=cfg.time_limit)
    doc = {
        "verdict": cert.verdict,
        "index_set": list(cert.index_set),
        "nodes": cert.nodes_explored,
        "elapsed": round(cert.elapsed, 6),
        "method": cert.method,
    }
    lines = [f"{cert.verdict}"]
    if cert.witness is not None:
        doc["witness"] = cert.witness.text()
        lines.append(cert.witness.text())
    lines.append(f"# nodes={cert.nodes_explored} method={cert.method}")
    _emit(cfg, doc, lines)
    return EXIT_OK


def cmd_atlas(args):
    cfg = RunConfig.from_args(args)
    result = search_mod.atlas(args.q, args.n, args.size,
                              node_limit=cfg.node_limit,
                              time_limit=cfg.time_limit,
                              checkpoint=cfg.checkpoint,
                              jobs=args.jobs)
    text = "\n".join(result.lines())
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


def cmd_gen_ap(args):
    cfg = RunConfig.from_args(args)
    q, n = args.q, args.n
    if n == 2 and q % 2 == 0:
        if q == 2:
            print("no {0,2}-cycle exists for q=2 (two-element criterion)",
                  file=sys.stderr)
            return EXIT_USAGE
        if args.seed_cycle:
            raise ValueError("--seed-cycle does not apply to even q at "
                             "n = 2 (trail-decomposition route)")
        dec = decomp_mod.decompose_equal(q, q)
        chi, report = decomp_mod.chi_from_decomposition(q, dec)
        route = "trail-decomposition"
    else:
        seed_cycle = None
        if args.seed_cycle:
            with open(args.seed_cycle) as fh:
                seed_cycle = CyclicString.from_text(fh.read(), q)
        chi, report = lift_mod.splice_ap_cycle(q, n, seed=seed_cycle)
        route = "lift-splice"
    _emit_cycle(cfg, chi, report, extra={"route": route})
    return EXIT_OK


def cmd_double_ap3(args):
    cfg = RunConfig.from_args(args)
    with open(args.input) as fh:
        chi = CyclicString.from_text(fh.read(), args.q)
    doubled, report = lift_mod.double_ap3(chi, args.d)
    _emit_cycle(cfg, doubled, report)
    return EXIT_OK


def cmd_gen_reduced(args):
    cfg = RunConfig.from_args(args)
    I = _parse_set(args.set)
    seq, report = galois_mod.build_reduced_cycle(I, args.q, args.n)
    _emit_cycle(cfg, seq.chi, report)
    return EXIT_OK


def cmd_classify(args):
    cfg = RunConfig.from_args(args)
    I = _parse_set(args.set)
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
    _emit(cfg, doc, lines)
    return EXIT_OK


def cmd_decompose(args):
    cfg = RunConfig.from_args(args)
    try:
        dec = decomp_mod.decompose_equal(args.n, args.d,
                                         node_limit=cfg.node_limit
                                         or 2_000_000)
    except decomp_mod.Impossible as exc:
        doc = {"verdict": "impossible", "reason": exc.reason,
               "n": args.n, "d": args.d}
        _emit(cfg, doc, [f"impossible ({exc.reason})"])
        return EXIT_OK
    doc = dec.to_json_obj()
    doc["verdict"] = "decomposed"
    lines = [f"{len(dec.trails)} trails of length {args.d}"]
    for t in dec.trails:
        lines.append(" ".join(f"{u}>{v}" for u, v in t.edges))
    if args.emit_chi:
        chi, _ = decomp_mod.chi_from_decomposition(args.n, dec)
        doc["chi"] = chi.text()
        doc["chi_index_set"] = [0, len(dec.trails)]
        lines.append(chi.text())
    _emit(cfg, doc, lines)
    return EXIT_OK


def cmd_approx(args):
    cfg = RunConfig.from_args(args)
    I = _parse_set(args.set)
    q, n = args.q, args.n
    if args.type == 1:
        result = approx_mod.type1_construct(q, n, I, seed=cfg.seed)
        _emit_cycle(cfg, result.chi, result.report,
                    extra={"construction": result.construction_log})
        return EXIT_OK
    m = args.m if args.m is not None else max(1, int(4 * q ** n))
    chi, missing = approx_mod.type2_random(q, n, I, m, seed=cfg.seed)
    report = verify_cover(chi, (q, n), I)
    doc = {"cycle": chi.text(), "missing": missing, "m": m,
           "seed": cfg.seed, "verification": report.to_json_dict()}
    lines = [chi.text(), f"# missing words: {missing} of {q ** n}"]
    _emit(cfg, doc, lines)
    return EXIT_OK


def cmd_janson(args):
    cfg = RunConfig.from_args(args)
    value = approx_mod.janson_bound(args.mu, args.Delta, args.delta)
    _emit(cfg, {"bound": value}, [str(value)])
    return EXIT_OK


def cmd_verify(args):
    cfg = RunConfig.from_args(args)
    I = _parse_set(args.set)
    with open(args.file) as fh:
        chi = CyclicString.from_text(fh.read(), args.q)
    q, n = args.q, args.n
    if args.reduced or len(chi) == q ** n - 1:
        params = CycleParams.reduced(q, n)
        report = verify_cover(chi, params, I, reduced=True)
    else:
        report = verify_cover(chi, (q, n), I)
    doc = report.to_json_dict()
    lines = [f"complete={report.complete}"]
    if report.missing:
        lines.append(f"# missing {len(report.missing)} words, first: "
                     f"{report.missing[0]}")
    _emit(cfg, doc, lines)
    return EXIT_OK if report.complete else EXIT_FAILED


def load_golden(table_id):
    meta = GOLDEN_TABLES[table_id]
    text = (resources.files("ucycle") / "data" / meta["file"]).read_text()
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        rows.append(tuple(int(x) for x in line.split(",")))
    return meta, rows


def diff_golden(atlas_lines, table_id):
    """Orbit-wise comparison of an atlas against a checked-in table; a line
    that is not set<TAB>verdict raises ValueError naming it."""
    meta, rows = load_golden(table_id)
    L = meta["q"] ** meta["n"]
    golden = {canonicalize_affine(row, L).canonical for row in rows}
    mine = set()
    for num, line in enumerate(atlas_lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        setpart, _, verdict = line.partition("\t")
        try:
            rep = tuple(int(x) for x in setpart.split(","))
        except ValueError:
            rep = None
        if rep is None or verdict not in (search_mod.VALID,
                                          search_mod.INVALID):
            raise ValueError(f"bad line {num}: {line!r}")
        if verdict == meta["verdict"]:
            mine.add(canonicalize_affine(rep, L).canonical)
    return {
        "table": table_id,
        "golden_classes": len(golden),
        "atlas_classes": len(mine),
        "matched": len(golden & mine),
        "missing": sorted(golden - mine),
        "extra": sorted(mine - golden),
    }


def cmd_diff_golden(args):
    cfg = RunConfig.from_args(args)
    with open(args.atlas) as fh:
        lines = fh.readlines()
    try:
        report = diff_golden(lines, args.table)
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
    _emit(cfg, doc, text)
    return EXIT_OK if ok else EXIT_FAILED


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(sp, budgets=()):
    """--format and --out, plus the budget flags the command reads."""
    sp.add_argument("--format", choices=["text", "json"], default="text")
    sp.add_argument("--out", help="write the result to this file")
    if "nodes" in budgets:
        sp.add_argument("--budget-nodes", type=int, default=None)
    if "secs" in budgets:
        sp.add_argument("--budget-secs", type=float, default=None)


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
    _add_common(sp, budgets=("nodes", "secs"))
    sp.set_defaults(func=cmd_search)

    sp = sub.add_parser("atlas", help="classify every affine class")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--size", type=int, required=True)
    sp.add_argument("--resume", help="append-only checkpoint file")
    sp.add_argument("--jobs", type=int, default=1)
    _add_common(sp, budgets=("nodes", "secs"))
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
    _add_common(sp, budgets=("nodes",))
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
        return args.func(args)
    except search_mod.BudgetExceeded as exc:
        print(f"inconclusive: {exc} (nodes={exc.nodes})", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except (ValueError, OSError, UcycleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
