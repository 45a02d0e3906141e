"""Byte-identity pins.

`PINNED_SHA256` is one sha256 over the outputs of every route that the
shared primitives (window scan, least rotation, de Bruijn sequence,
closed-trail backtracker) feed.  The digest was computed before those routes were moved
onto the shared primitives; a change to any emitted cycle, decomposition or
coverage report changes it.  It was re-pinned five times.  When length-3
trails moved from a search to the Latin-square construction, only the
(9, 3) trails and their reading changed.  When trail lengths 6 and >= 8
moved from the atom packer to the {0, n*n/d}-cycle search, only the (6, 6),
(8, 8), (10, 20) and (12, 9) trails and their readings changed, and the
strings of the deleted exact-search route were dropped.  When the blow-up
replaced the 4-cycle families, the Latin square and the hub gadgets, only
the (6, 4), (8, 4), (7, 7), (9, 3), (10, 5), (8, 8) and (12, 9) trails and
their readings changed.  When `double_ap3` replaced its parity-mixing
4-cycles by the eight parity patterns of F_2^3, only the three doubled
cycles (q = 4, 8, 16) changed.  When the cyclic trails and the merged
blow-up replaced the {0, n*n/d}-cycle search, only the (7, 7), (9, 3),
(10, 5), (6, 6), (8, 8) and (10, 20) trails and their readings changed:
each of those rows had a searched row in its base chain.

`GALOIS_SHA256` covers the galois layer: field tables, the explicit-modulus
path, subfield bases, brute-force classification, reduced cycles, the
triple criterion and Jacobi logarithms.  It was computed before field
construction became a single walk over the powers of x.  It was re-pinned
twice.  The first time, the triple criterion kept only its universal reading
(each triple line holds one bool, not a pair: 255 lines) and brute-force
classification began to test one exponent per Frobenius orbit (each
exceptional line keeps only the dependencies of the orbits' least
exponents: 81 lines); verdicts, witnesses, fields and reduced cycles did
not change.  The second time, coordinate sequences became the linear
recurrence of the generator's minimal polynomial and subfield bases lost
their inverse coordinate matrix: each subfield basis line dropped its
`inverse_rows` member (59 lines), and nothing else changed.

`CLI_SHA256` covers the text and JSON bytes the CLI writes for the commands
whose builders verify their own output.  It was computed while the CLI still
re-ran `verify_cover` after each of those builders, so it pins that emitting
the builder's own report leaves every byte unchanged.  It was re-pinned
three times: when `gen-ap --q 4 --n 2` began to read its (4, 4)
decomposition off the blow-up of K~_2's Euler circuit, only those two
outputs changed; when `double_ap3` moved to the parity patterns, only the
four double-ap3 outputs (text and JSON of both steps) changed; when JSON
documents became one line with sorted keys instead of an indented layout,
only the JSON layout changed: every text byte stayed the same, and every
JSON document is equal to the one before under `json.loads`."""

import hashlib
import itertools

from ucycle.approx import (
    linear_missing,
    patch_sequence,
    type1_construct,
    type2_random,
)
from ucycle.cli import main
from ucycle.core import CycleParams, CyclicString, verify_cover
from ucycle.decomp import (
    chi_from_decomposition,
    decompose_equal,
    decompose_loopless,
    trail_edges,
)
from ucycle.galois import (
    ORDINARY,
    build_field,
    build_reduced_cycle,
    exceptional_triple,
    is_exceptional_bruteforce,
    jacobi_log,
    prime_power,
    psi_map,
    subfield_basis,
)
from ucycle.lift import de_bruijn_sequence, double_ap3, splice_ap_cycle

PINNED_SHA256 = (
    "a94b31c39eea58313b49db2633a368164fc589e3747d1adc6808223c81fa59a5")
GALOIS_SHA256 = (
    "8d1719697600d7a943ceb3b5616ba6f6f1a834765f2ccaf2a2c46d0e781ab502")


def _report_lines(chi, params, I):
    rep = verify_cover(chi, params, I)
    return [repr(rep.missing), repr(list(rep.hits.items())),
            repr(sorted(rep.to_json_dict().items()))]


def _trails(trails):
    return repr([trail_edges(t) for t in trails])


def pinned_outputs():
    out = []
    for q, order in [(2, 10), (3, 6)]:
        out.append(de_bruijn_sequence(q, order).text())
    for q, n in [(2, 4), (3, 3), (5, 2)]:
        out.append(splice_ap_cycle(q, n)[0].text())
    chi = CyclicString.from_text("00010111", 2)
    for d in (1, 8, 64):
        chi, _ = double_ap3(chi, d)
        out.append(chi.text())

    # euler (d = n*n), blowup (merged too) and cyclic routes
    for n, d in [(3, 9), (4, 16), (6, 4), (8, 4), (7, 7), (9, 3), (10, 5),
                 (6, 6), (8, 8), (10, 20), (12, 9)]:
        dec = decompose_equal(n, d)
        out.append(_trails(dec.trails))
        out.append(chi_from_decomposition(dec)[0].text())
    out.append(_trails(decompose_loopless(5, [5, 5, 5, 5])))
    out.append(_trails(decompose_loopless(6, [4, 4, 4, 3, 3, 3, 3, 3, 3])))

    for q, n, I, seed in [(2, 3, (0, 1, 3), 1), (2, 4, (0, 2, 3, 7), 7),
                          (3, 2, (0, 5), 3), (2, 6, (0, 1, 3, 7, 12, 20), 5)]:
        chi, _, log = type1_construct(q, n, I, seed)
        out.append(chi.text())
        out.append(repr(sorted(log.items())))
        out.extend(_report_lines(chi, (q, n), I))
    for q, n, I, m, seed in [(2, 3, (0, 1, 2), 12, 4), (3, 3, (0, 2, 5), 40, 9),
                             (2, 5, (0, 3, 4, 9, 11), 64, 2)]:
        chi, missing = type2_random(q, n, I, m, seed)
        out.append(f"{chi.text()} {missing}")
        out.append(repr(linear_missing(q, n, I, chi)))
        out.extend(_report_lines(chi, (q, n), I))
    out.append(patch_sequence((0, 100), [(0, 1), (1, 1), (1, 0)], 2).text())
    out.append(patch_sequence((0, 2, 5), [(0, 1, 2), (2, 2, 0)], 3).text())

    for text, q, n, I in [("00010111", 2, 3, (0, 1, 2)),
                          ("00110101", 2, 3, (0, 2, 5)),
                          ("021210210210102021102210210", 3, 3, (0, 3, 6)),
                          ("012210021", 3, 2, (0, 4))]:
        chi = CyclicString.from_text(text, q)
        out.extend(_report_lines(chi, CycleParams.unreduced(q, n), I))
    chi = CyclicString.from_text("0010111", 2)
    out.extend(_report_lines(chi, CycleParams.reduced(2, 3), (0, 1, 2)))

    for q, n, I in [(2, 4, (0, 1, 2, 3)), (3, 2, (0, 3))]:
        seq, _ = build_reduced_cycle(I, q, n)
        out.append(seq.chi.text())
        p, k = prime_power(q)
        sb = subfield_basis(build_field(p, k * n), k)
        out.append(repr(sorted(psi_map(seq, sb, I).items())))
    return out


def outputs_digest():
    return hashlib.sha256("\n".join(pinned_outputs()).encode()).hexdigest()


def test_outputs_match_pinned_digest():
    assert outputs_digest() == PINNED_SHA256


def galois_outputs():
    out = []
    fields = ([(p, 1) for p in (2, 3, 5, 7, 11)]
              + [(2, m) for m in range(2, 13)]
              + [(3, m) for m in range(2, 9)] + [(5, 2), (5, 3), (7, 2)])
    for p, m in fields:
        ctx = build_field(p, m)
        out.append(repr((p, m, ctx.modulus, ctx.exp, ctx.log)))
        for k in range(1, m + 1):
            # F_2 is left out: its subfield basis could not be built before
            if m % k == 0 and 2 < p ** m <= 4096:
                sb = subfield_basis(ctx, k)
                out.append(repr((k, ctx.exp[:m // k], sb.sym_elem)))
    for code in range(16):
        modulus = tuple([(code >> i) & 1 for i in range(4)] + [1])
        try:
            ctx = build_field(2, 4, modulus=modulus)
            out.append(repr((modulus, ctx.exp, ctx.log)))
        except ValueError:
            out.append(repr((modulus, "ValueError")))
    for q, n in [(3, 1), (5, 1), (2, 2), (3, 2), (4, 2), (5, 2), (7, 2),
                 (8, 2), (9, 2), (2, 3), (3, 3), (4, 3), (2, 4)]:
        order = q ** n - 1
        sets = [(0,) + c
                for c in itertools.combinations(range(1, order), n - 1)]
        for I in sets[:150] + [(0,) * n]:
            v = is_exceptional_bruteforce(I, q, n)
            out.append(repr((q, n, v.verdict, v.index_set,
                             v.witness_generator, v.witness_poly,
                             sorted(v.dependencies.items()))))
            if v.verdict == ORDINARY and q ** n <= 64 and n > 1:
                out.append(build_reduced_cycle(I, q, n)[0].chi.text())
    for q in (2, 3, 4):
        order = q ** 3 - 1
        for j, k in list(itertools.combinations(range(1, order), 2))[:120]:
            out.append(repr((q, j, k, exceptional_triple(0, j, k, q))))
    for p, m in [(2, 3), (2, 6), (3, 2), (3, 3), (5, 3)]:
        out.append(repr(jacobi_log(build_field(p, m))))
    return out


def test_galois_outputs_match_pinned_digest():
    digest = hashlib.sha256("\n".join(galois_outputs()).encode()).hexdigest()
    assert digest == GALOIS_SHA256


CLI_SHA256 = (
    "4ecd5cbb98c26562ba970051c129808091aef5758e1b52ea189e6045fec43e01")


def cli_outputs(tmp_path):
    """Text and JSON bytes of the commands whose builders verify their own
    output: gen-ap (lift and decomposition routes), the double-ap3 chain,
    gen-reduced and approx type 1."""
    (tmp_path / "d0.txt").write_text("00010111\n")
    calls = [(["gen-ap", "--q", str(q), "--n", str(n)], None)
             for q, n in [(2, 5), (3, 3), (4, 2)]]
    for step, (q, d) in enumerate([(2, 1), (4, 8)]):
        calls.append((["double-ap3", "--input", str(tmp_path / f"d{step}.txt"),
                       "--q", str(q), "--d", str(d)],
                      tmp_path / f"d{step + 1}.txt"))
    calls += [(["gen-reduced", "--q", "2", "--n", "4", "--set", "0,1,2,3"],
               None),
              (["gen-reduced", "--q", "3", "--n", "3", "--set", "0,1,3"],
               None),
              (["approx", "--q", "2", "--n", "6", "--set", "0,1,2,3,4,5",
                "--type", "1", "--seed", "7"], None)]
    out = []
    dst = tmp_path / "out.txt"
    for argv, save in calls:
        for fmt in ("text", "json"):
            code = main(argv + ["--format", fmt, "--out", str(dst)])
            out.append(f"{code}\n{dst.read_text()}")
            if save is not None and fmt == "text":
                # the next doubling reads this cycle, the first text line
                save.write_text(dst.read_text().splitlines()[0])
    return out


def test_cli_outputs_match_pinned_digest(tmp_path):
    digest = hashlib.sha256("\n".join(cli_outputs(tmp_path)).encode()
                            ).hexdigest()
    assert digest == CLI_SHA256, digest
