"""The benchmark's workloads.

Each builder takes the freshly imported ucycle modules, a seeded
`random.Random`, a work directory and the `tiny` flag, and returns the
sizes it chose and one pass of operations.  An operation's `run` is the
timed call into ucycle; its `check` judges the outcome with `refcheck`
only, returning None when the outcome is right and a reason otherwise.
See NOTES.md for why each workload and size was chosen.
"""
import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import gcd
from pathlib import Path
from typing import Callable

import refcheck

DATA = Path(__file__).resolve().parent.parent / "src" / "ucycle" / "data"

# The three obs3 rows whose refutation cost was nearest the median of eleven
# measured rows (9.5 s to 12.4 s of 1.6 s to 23.5 s; see NOTES.md).
REFUTE_PANEL = [(0, 1, 2, 6, 26), (0, 1, 3, 10, 12), (0, 1, 2, 6, 19)]
# Affine classes of 5-subsets of Z_32 that are not in obs3.
VALID_25 = 230


@dataclass
class Op:
    label: str
    run: Callable
    check: Callable
    out: str = None      # file the operation writes, for cli.output_bytes


@lru_cache(maxsize=None)
def table_classes(table):
    """Canonical forms (by refcheck) of the rows of a checked-in table,
    read straight from the data file."""
    q, n = {"obs1": (3, 3), "obs2": (2, 4), "obs3": (2, 5)}[table]
    rows = [tuple(int(x) for x in line.split(","))
            for line in (DATA / f"{table}.txt").read_text().splitlines()
            if line.strip() and not line.startswith("#")]
    return frozenset(refcheck.canonical(r, q ** n) for r in rows)


@lru_cache(maxsize=None)
def class_count(L, size):
    """Number of affine classes of size-`size` subsets of Z_L (refcheck)."""
    return len({refcheck.canonical(c, L) for c in combinations(range(L), size)})


# ---------------------------------------------------------------------------
# refute25
# ---------------------------------------------------------------------------


def refute25(mods, rng, work, tiny):
    """A fixed panel of invalid classes, each decided by exhaustive search;
    the seed orders the panel.  Membership in the table is checked per
    operation, so a panel row the table does not list fails."""
    if tiny:
        q, n, table = 2, 4, "obs2"   # obs2 lists the valid (2,4) classes
        panel = [(0, 1, 2, 4), (0, 1, 3, 5)]
    else:
        q, n, table = 2, 5, "obs3"   # obs3 lists the invalid (2,5) classes
        panel = list(REFUTE_PANEL)
    rng.shuffle(panel)
    L = q ** n

    def op(row):
        def check(cert):
            listed = refcheck.canonical(row, L) in table_classes(table)
            expected = "valid" if listed == (table == "obs2") else "invalid"
            if cert.verdict != expected:
                return f"verdict {cert.verdict}, table says {expected}"
            return None
        return Op(f"decide_valid {','.join(map(str, row))}",
                  lambda: mods.search.decide_valid(q, n, row), check)

    sizes = {"q": q, "n": n, "panel": [list(r) for r in panel]}
    return sizes, [op(row) for row in panel]


# ---------------------------------------------------------------------------
# witness25
# ---------------------------------------------------------------------------


def witness25(mods, rng, work, tiny):
    """Every valid class once per pass, in seeded order, each presented as a
    seeded affine image: canonicalize it, then decide it (first witness).
    A class list of the wrong size adds one failed operation, so a library
    that drops classes fails instead of reading as a faster one."""
    q, n = (2, 4) if tiny else (2, 5)
    L = q ** n
    reps = mods.core.affine_class_representatives(L, n)
    # the tiny run takes the valid (2,4) table, the full one avoids obs3
    _, rows = mods.cli.load_golden("obs2" if tiny else "obs3")
    rows = set(rows)
    valid = [r for r in reps if (r in rows) == tiny]
    rng.shuffle(valid)
    units = [k for k in range(1, L) if gcd(k, L) == 1]
    inputs = []
    for rep in valid:
        k, b = rng.choice(units), rng.randrange(L)
        image = [(k * i + b) % L for i in rep]
        rng.shuffle(image)
        inputs.append((rep, tuple(image)))

    def op(rep, image):
        def run():
            cls = mods.core.canonicalize_affine(image, L)
            return cls.canonical, mods.search.decide_valid(q, n, cls.canonical)

        def check(outcome):
            canonical, cert = outcome
            if canonical != rep or refcheck.canonical(image, L) != rep:
                return f"canonical form {canonical} != {rep}"
            # the tiny run draws from obs2 (valid), the full one avoids obs3
            listed = rep in table_classes("obs2" if tiny else "obs3")
            if listed != tiny:
                return f"{rep} is not a valid class by the table"
            if cert.verdict != "valid" or cert.witness is None:
                return f"verdict {cert.verdict} for a valid class"
            if not refcheck.covers(cert.witness.symbols, q, n, rep):
                return "witness does not cover every word"
            return None
        return Op(f"witness {','.join(map(str, rep))}", run, check)

    expected = len(table_classes("obs2")) if tiny else VALID_25
    ops = [op(rep, image) for rep, image in inputs]
    if len(valid) != expected or len(set(valid)) != len(valid):
        ops.append(Op("class count", lambda: len(valid),
                      lambda got: f"{got} classes ({len(set(valid))} distinct),"
                      f" expected {expected}"))
    sizes = {"q": q, "n": n, "classes": len(valid)}
    return sizes, ops


# ---------------------------------------------------------------------------
# cli-construct
# ---------------------------------------------------------------------------


def _ap_image(rng, q, n):
    """A seeded affine image of {0, ..., n-1} mod q**n - 1.  The consecutive
    set is ordinary (1, b, ..., b**(n-1) are independent for any generator
    b) and being ordinary is invariant under k*I + b, so every image is."""
    L = q ** n - 1
    k = rng.choice([u for u in range(1, L) if gcd(u, L) == 1])
    b = rng.randrange(L)
    return tuple(sorted((b + k * j) % L for j in range(n)))


def _spread_set(rng, n):
    """0 plus n-1 seeded distinct offsets below 3n."""
    return tuple(sorted([0] + rng.sample(range(1, 3 * n), n - 1)))


def _csv(I):
    return ",".join(map(str, I))


def cli_construct(mods, rng, work, tiny):
    """A fixed list of in-process `ucycle` CLI calls, one per constructing
    route, each writing JSON to a file that is then checked.  A pass runs
    each slow call once and, after each, one round of the quick calls
    (under 0.2 s each at the seed), so every quick call is timed at as many
    points of the pass as there are slow calls (see NOTES.md)."""
    work = Path(work)
    (work / "db.txt").write_text("00010111\n")   # the order-3 binary string
    if tiny:
        sizes = {"gen_ap": [(2, 5), (3, 3), (4, 2)], "doublings": 1,
                 "gen_reduced": [(2, 4), (3, 3)], "classify": (2, 4),
                 "decompose": [(6, 3), (3, 9)],
                 "decompose_quick": [(4, 4), (6, 9)],
                 "approx": [(2, 5), (3, 3)]}
    else:
        sizes = {"gen_ap": [(2, 14), (3, 8), (4, 2)], "doublings": 3,
                 "gen_reduced": [(2, 10), (3, 6)], "classify": (2, 6),
                 "decompose": [(12, 3), (30, 25), (30, 18)],
                 "decompose_quick": [(12, 4), (6, 36), (24, 9)],
                 "approx": [(2, 12), (3, 7)]}
    ops = []
    quick = set()

    def add(label, argv, check, then=None, is_quick=True):
        out = str(work / f"{len(ops):02d}.out")
        argv = argv + ["--format", "json", "--out", out]

        def judge(code):
            if code != 0:
                return f"exit code {code}"
            text = Path(out).read_text()
            reason = check(text)
            if reason is None and then is not None:
                then(text)
            return reason
        ops.append(Op(label, lambda: mods.cli.main(argv), judge, out))
        if is_quick:
            quick.add(label)

    def cycle_check(q, n, I, reduced=False, length=None):
        def check(text):
            doc = json.loads(text)
            symbols = refcheck.parse_cycle(doc["cycle"], q)
            if length is not None and len(symbols) != length:
                return f"length {len(symbols)} != {length}"
            if not refcheck.covers(symbols, q, n, I, reduced):
                return "cycle does not cover every word"
            return None
        return check

    def save_cycle(path):
        return lambda text: Path(path).write_text(json.loads(text)["cycle"])

    for q, n in sizes["gen_ap"]:
        first = (q, n) == sizes["gen_ap"][0]
        add(f"gen-ap q={q} n={n}",
            ["gen-ap", "--q", str(q), "--n", str(n)],
            cycle_check(q, n, refcheck.ap(n, q), length=q ** n),
            save_cycle(work / "ap.txt") if first else None, not first)
    q, n = sizes["gen_ap"][0]
    add(f"verify gen-ap q={q} n={n}",
        ["verify", "--file", str(work / "ap.txt"), "--q", str(q),
         "--n", str(n), "--set", _csv(refcheck.ap(n, q))],
        lambda text: None if json.loads(text)["complete"] is True
        else "verify did not report complete")

    src, q, d = work / "db.txt", 2, 1
    for step in range(sizes["doublings"]):
        dst = work / f"double{step}.txt"
        add(f"double-ap3 q={q} d={d}",
            ["double-ap3", "--input", str(src), "--q", str(q), "--d", str(d)],
            cycle_check(2 * q, 3, refcheck.ap(3, 8 * d), length=(2 * q) ** 3),
            save_cycle(dst))
        src, q, d = dst, 2 * q, 8 * d

    for q, n in sizes["gen_reduced"]:
        I = _ap_image(rng, q, n)
        add(f"gen-reduced q={q} n={n}",
            ["gen-reduced", "--q", str(q), "--n", str(n), "--set", _csv(I)],
            cycle_check(q, n, I, reduced=True), is_quick=False)

    q, n = sizes["classify"]
    I = _ap_image(rng, q, n)
    add(f"classify q={q} n={n}",
        ["classify", "--q", str(q), "--n", str(n), "--set", _csv(I)],
        lambda text: None if json.loads(text)["verdict"] == "ordinary"
        else "an image of {0..n-1} classified as exceptional")

    for n, d in sizes["decompose"] + sizes["decompose_quick"]:
        def check(text, n=n, d=d):
            doc = json.loads(text)
            trails = doc["trails"]
            if not refcheck.decomposition_ok(n, d, trails):
                return "trails do not decompose the complete loop-digraph"
            symbols = refcheck.parse_cycle(doc["chi"], n)
            if not refcheck.covers(symbols, n, 2, (0, len(trails))):
                return "emitted chi does not cover every 2-word"
            return None
        add(f"decompose n={n} d={d}",
            ["decompose", "--n", str(n), "--d", str(d), "--emit-chi"], check,
            is_quick=(n, d) in sizes["decompose_quick"])

    for q, n in sizes["approx"]:
        I = _spread_set(rng, n)
        add(f"approx type 1 q={q} n={n}",
            ["approx", "--q", str(q), "--n", str(n), "--set", _csv(I),
             "--type", "1", "--seed", str(rng.randrange(2 ** 31))],
            cycle_check(q, n, I), is_quick=False)

    def search_check(text):
        doc = json.loads(text)
        invalid = refcheck.canonical((0, 9, 18), 27) in table_classes("obs1")
        if doc["verdict"] != ("invalid" if invalid else "valid"):
            return f"verdict {doc['verdict']} disagrees with obs1"
        if doc["verdict"] == "valid" and not refcheck.covers(
                refcheck.parse_cycle(doc["witness"], 3), 3, 3, (0, 9, 18)):
            return "witness does not cover every word"
        return None
    add("search q=3 n=3 set=0,9,18",
        ["search", "--q", "3", "--n", "3", "--set", "0,9,18"], search_check)

    atlas_out = str(work / f"{len(ops):02d}.out")

    def atlas_check(text):
        # `atlas --format json` writes TSV lines, not JSON (see NOTES.md)
        lines = [ln.split("\t") for ln in text.splitlines() if ln.strip()]
        forms = [(refcheck.canonical(tuple(map(int, s.split(","))), 16), v)
                 for s, v in lines]
        if not len({c for c, _ in forms}) == len(forms) == class_count(16, 4):
            return f"{len(forms)} lines for {class_count(16, 4)} classes"
        if any(v not in ("valid", "invalid") for _, v in forms):
            return "a verdict is neither valid nor invalid"
        if {c for c, v in forms if v == "valid"} != table_classes("obs2"):
            return "valid classes differ from obs2"
        return None
    add("atlas q=2 n=4 size=4",
        ["atlas", "--q", "2", "--n", "4", "--size", "4"], atlas_check)
    add("diff-golden obs2",
        ["diff-golden", "--atlas", atlas_out, "--table", "obs2"],
        lambda text: None if json.loads(text)["match"] is True
        else "diff-golden reported a mismatch")
    rounds = [op for op in ops if op.label in quick]
    slow = [op for op in ops if op.label not in quick]
    return sizes, [op for first in slow for op in [first] + rounds]


WORKLOADS = {"refute25": refute25, "witness25": witness25,
             "cli-construct": cli_construct}
