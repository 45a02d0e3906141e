"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; tolerances are pinned here, not configurable.
"""

import collections
import itertools
import math
import random

import pytest

from ucycle.cli import diff_golden, load_golden
from ucycle.core import (
    CycleParams,
    CyclicString,
    canonicalize_affine,
    equal_up_to_rotation_and_translate,
    verify_cover,
)
from ucycle.decomp import Impossible, decompose_equal, decompose_loopless
from ucycle.galois import (
    EXCEPTIONAL,
    ORDINARY,
    build_field,
    exceptional_triple,
    is_exceptional_bruteforce,
    lambda_sequence,
    build_reduced_cycle,
    prime_power,
    psi_map,
    subfield_basis,
    two_element_ordinary,
)
from ucycle.lift import de_bruijn_sequence, double_ap3, splice_ap_cycle
from ucycle.approx import plan_dilation, type1_construct, type2_random
from ucycle.search import (INVALID, VALID, atlas, decide_valid, format_line,
                           two_element_validity)

REF_SEED = "001122021"
REF_SPLICED = "021210210210102021102210210"


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion} PASS - {detail}")


def test_c01_atlas_3_3():
    a = atlas(3, 3)
    assert [rep for rep, v in a.items() if v == INVALID] == [(0, 9, 18)]
    report("C01", "atlas(3,3): only invalid orbit is {0,9,18}")


def test_c02_atlas_2_4():
    a = atlas(2, 4)
    _, golden = load_golden("obs2")
    want = {canonicalize_affine(r, 16).canonical for r in golden}
    got = {rep for rep, v in a.items() if v == VALID}
    assert got == want
    report("C02", "atlas(2,4): the nine published valid orbits, exactly")


def test_c03_atlas_2_5_smoke():
    # a fixed random sample of transcription rows must each refute, row by
    # row as transcribed (not canonicalized); the orbit-for-orbit comparison
    # of the whole table is test_c03_atlas_2_5_full below
    _, rows = load_golden("obs3")
    sample = random.Random(2025).sample(rows, 20)
    for row in sample:
        assert decide_valid(2, 5, row).verdict == INVALID, row
    report("C03", f"atlas(2,5) smoke: 20 of {len(rows)} transcribed rows "
                  "refuted (full table checked by test_c03_atlas_2_5_full)")


def test_c03_atlas_2_5_full():
    # the whole 454-class atlas: 27 s of search on one core of a 2-core
    # x86 VM
    import multiprocessing

    jobs = min(multiprocessing.cpu_count(), 4)
    a = atlas(2, 5, jobs=jobs)
    diff = diff_golden([format_line(rep, v) for rep, v in a.items()], "obs3")
    assert diff["missing"] == [] and diff["extra"] == [], diff
    assert diff["matched"] == diff["golden_classes"] == 224
    assert collections.Counter(a.values()) == {VALID: 230, INVALID: 224}
    report("C03", "atlas(2,5): all 454 classes decided; the 224 invalid "
                  "orbits match the published table exactly")


def test_c04_two_element_grid():
    checked = 0
    for q in range(2, 7):
        for d in range(1, q * q):
            if (q * q) % d:
                continue
            cert = decide_valid(q, 2, (0, d))
            expect = two_element_validity(q, d)
            assert (cert.verdict == VALID) == expect, (q, d)
            if cert.witness is not None:
                rep = verify_cover(cert.witness, CycleParams.unreduced(q, 2),
                                   (0, d))
                assert rep.complete
            checked += 1
    report("C04", f"pair windows: {checked} (q,d) cases match q*q/d != 2, "
                  "witnesses verified")


def test_c05_splice_reference_example():
    chi, _ = splice_ap_cycle(3, 3, seed=REF_SEED)
    rep = verify_cover(chi, CycleParams.unreduced(3, 3), (0, 3, 6))
    assert rep.complete
    assert len(chi) == 27
    ref = CyclicString.from_text(REF_SPLICED, 3)
    assert equal_up_to_rotation_and_translate(chi, ref)
    report("C05", "splice from the reference starting cycle reproduces the "
                  "published 27-string up to rotation and translate")


def test_c06_doubling_chain():
    start = de_bruijn_sequence(2, 3)
    step1, _ = double_ap3(start, 1)
    assert len(step1) == 64 and step1.q == 4
    rep1 = verify_cover(step1, CycleParams.unreduced(4, 3), (0, 8, 16))
    assert rep1.complete
    step2, _ = double_ap3(step1, 8)
    assert len(step2) == 512 and step2.q == 8
    rep2 = verify_cover(step2, CycleParams.unreduced(8, 3), (0, 64, 128))
    assert rep2.complete
    report("C06", "doubling chain: verified window-8 cycle (len 64, q=4) "
                  "and window-64 cycle (len 512, q=8)")


def test_c07_equal_decomposition_grid():
    succeeded = 0
    for n in range(1, 9):
        for d in range(1, n * n + 1):
            if (n * n) % d:
                continue
            if d in (1, 2) and n >= 2:
                with pytest.raises(Impossible):
                    decompose_equal(n, d)
                continue
            dec = decompose_equal(n, d)  # verifier runs in the constructor
            assert len(dec.trails) == n * n // d
            succeeded += 1
    report("C07", f"loop-digraph grid n<=8: {succeeded} feasible (n,d) "
                  "decomposed and certified; lengths 1 and 2 impossible")


def test_c08_loopless_exception():
    with pytest.raises(Impossible) as exc:
        decompose_loopless(6, [3] * 10)
    assert exc.value.reason == "exhausted"
    report("C08", "six vertices into ten triangles refuted by exhaustion")


def test_c09_field_criteria():
    pairs = 0
    for q in (2, 3, 4, 5):
        order = q * q - 1
        for i, j in itertools.combinations(range(order), 2):
            bf = is_exceptional_bruteforce((i, j), q, 2)
            assert (bf.verdict == ORDINARY) == two_element_ordinary(q, j - i)
            pairs += 1
    triples = 0
    for q in (2, 3):
        order = q ** 3 - 1
        for i, j, k in itertools.combinations(range(order), 3):
            bf = is_exceptional_bruteforce((i, j, k), q, 3)
            assert (bf.verdict == EXCEPTIONAL) == \
                exceptional_triple(i, j, k, q), (q, i, j, k)
            triples += 1
    report("C09", f"criteria: {pairs} pairs and {triples} triples agree "
                  "with brute force, 100%")


def test_c10_reduced_cycles_sampled():
    rng = random.Random(77)
    built = 0
    for q, n in ((2, 3), (2, 4), (3, 2), (3, 3)):
        order = q ** n - 1
        target = min(50, math.comb(order, n))
        seen = set()
        while len(seen) < target:
            I = tuple(sorted(rng.sample(range(order), n)))
            if I in seen:
                continue
            seen.add(I)
            verdict = is_exceptional_bruteforce(I, q, n)
            if verdict.verdict != ORDINARY:
                continue
            seq, _ = build_reduced_cycle(I, q, n)
            rep = verify_cover(seq.chi, CycleParams.reduced(q, n), I)
            assert rep.complete, (q, n, I)
            built += 1
    report("C10", f"reduced cycles: {built} ordinary sets across four (q,n) "
                  "pairs all built and verified, 100%")


def test_c11_additive_transport():
    fields = [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6),
              (3, 2), (3, 3), (3, 4), (4, 2), (5, 2)]
    rng = random.Random(11)
    triples_checked = 0
    for q, n in fields:
        p, k = prime_power(q)
        ctx = build_field(p, k * n)
        sb = subfield_basis(ctx, k)
        order = q ** n - 1
        per_field = 0
        while per_field < 2:
            I = tuple(sorted(rng.sample(range(order), n)))
            verdict = is_exceptional_bruteforce(I, q, n)
            if verdict.verdict != ORDINARY:
                continue
            v = tuple(rng.randrange(q) for _ in range(n))
            if all(s == 0 for s in v):
                continue
            seq = lambda_sequence(sb, verdict.witness_generator, v)
            psi = psi_map(seq, sb, I)
            for g1 in range(q ** n):
                for g2 in range(q ** n):
                    s = ctx.add(g1, g2)
                    combined = tuple(
                        sb.elem_sym[ctx.add(sb.sym_elem[a], sb.sym_elem[b])]
                        for a, b in zip(psi[g1], psi[g2]))
                    assert psi[s] == combined, (q, n, I, g1, g2)
            assert len(set(psi.values())) == q ** n, (q, n, I)
            per_field += 1
            triples_checked += 1
    report("C11", f"additive transport: {triples_checked} (I, g, v) triples "
                  "additive and injective over all element pairs, 100%")


def test_c12_approximate_cycles():
    rng = random.Random(123)
    for n in (6, 8, 10):
        q = 2
        bound = 16 * q ** n * math.log(n)
        contiguous = tuple(range(n))
        for seed in range(5):
            chi, _, _ = type1_construct(q, n, contiguous, seed=seed)
            rep = verify_cover(chi, (q, n), contiguous)
            assert rep.complete
            assert len(chi) <= bound, (n, seed, len(chi))
        for seed in range(5):
            I = tuple(sorted(rng.sample(range(q ** n), n)))
            chi, _, _ = type1_construct(q, n, I, seed=seed)
            rep = verify_cover(chi, (q, n), I)
            assert rep.complete
            assert len(chi) <= bound, (n, seed, len(chi))
        m = math.ceil(4 * q ** n * math.log(n))
        total_missing = sum(
            type2_random(q, n, contiguous, m, seed=s)[1] for s in range(30))
        mean_missing = total_missing / 30
        assert mean_missing <= 2 * q ** n / n ** 2, (n, mean_missing)
    report("C12", "two-stage covers verified under the 16 q^n ln n ceiling; "
                  "random-stage mean misses under 2 q^n / n^2")


def test_c13_dilation_plans():
    q = 2
    count = 0
    for n in range(2, 9):
        for S in sorted({1, q ** n // 4, q ** n}):
            if S < 1:
                continue
            I = tuple(range(n))
            p, k = plan_dilation(I, S)
            bound = n * n * (S + 3)
            assert p > bound
            assert all(not _is_prime(x) for x in range(bound + 1, p))
            dilated = sorted(k * i % p for i in I)
            gaps = [b - a for a, b in zip(dilated, dilated[1:])]
            assert min(gaps + [dilated[0] + p - dilated[-1]]) >= S, (n, S)
            count += 1
    report("C13", f"dilation plans: {count} (n, S) instances, exact smallest "
                  "prime and accepting multiplier every time, 100%")


def _is_prime(x):
    return x >= 2 and all(x % d for d in range(2, int(x ** 0.5) + 1))
