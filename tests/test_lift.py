"""Quotient map, lifting, splicing, and the alphabet-doubling step."""

import itertools
import tracemalloc

import pytest

from ucycle.core import (
    DESK_SCALE,
    CycleParams,
    CyclicString,
    equal_up_to_rotation_and_translate,
    verify_cover,
    windows,
)
from ucycle.lift import (
    DivisibilityViolation,
    InvalidInput,
    ZeroSumViolation,
    ap_index_set,
    chi_to_trail_symbols,
    de_bruijn_sequence,
    double_ap3,
    lift_cycle,
    project_cycle,
    quotient_lambda,
    splice_ap_cycle,
    trails_to_chi,
)
from ucycle.search import decide_valid

REF_SEED = "001122021"
REF_LIFT = "100021200"
REF_SPLICED = "021210210210102021102210210"


class TestQuotient:
    def test_difference_formula(self):
        assert quotient_lambda((1, 0, 0), 3) == (1, 0)

    def test_constant_translates_collapse(self):
        assert quotient_lambda((0, 0, 0), 3) == quotient_lambda((1, 1, 1), 3)
        assert quotient_lambda((2, 2, 2), 3) == (0, 0)

    def test_bijection_on_classes(self):
        # oracle: partition all 27 ternary 3-strings into translate classes
        classes = {}
        for w in itertools.product(range(3), repeat=3):
            key = min(tuple((s + k) % 3 for s in w) for k in range(3))
            classes.setdefault(key, set()).add(w)
        assert len(classes) == 9
        images = {quotient_lambda(next(iter(c)), 3) for c in classes.values()}
        assert len(images) == 9
        for members in classes.values():
            assert len({quotient_lambda(w, 3) for w in members}) == 1


class TestLift:
    def test_round_trip_exact(self):
        c = CyclicString(3, tuple(int(x) for x in REF_SEED))
        lifted = lift_cycle(c)
        assert project_cycle(lifted).symbols == c.symbols

    def test_reference_lift_up_to_rotation_translate(self):
        c = CyclicString(3, tuple(int(x) for x in REF_SEED))
        lifted = CyclicString(3, lift_cycle(c).symbols)
        ref = CyclicString.from_text(REF_LIFT, 3)
        assert equal_up_to_rotation_and_translate(lifted, ref)

    def test_zero_sum_violation(self):
        with pytest.raises(ZeroSumViolation):
            lift_cycle(CyclicString(2, (0, 1)))

    def test_all_zero_loop(self):
        lifted = lift_cycle(CyclicString(3, (0,)))
        assert lifted.symbols == (0,)

    def test_one_vertex_per_class(self):
        c = CyclicString(3, tuple(int(x) for x in REF_SEED))
        vertices = list(windows(lift_cycle(c).symbols, range(3)))
        reps = {min(tuple((s + k) % 3 for s in v) for k in range(3))
                for v in vertices}
        assert len(vertices) == 9
        assert len(set(vertices)) == 9
        assert len(reps) == 9

    def test_translate_disjointness(self):
        c = CyclicString(3, tuple(int(x) for x in REF_SEED))
        vertices = list(windows(lift_cycle(c).symbols, range(3)))
        seen = set()
        for j in range(3):
            verts = {tuple((s + j) % 3 for s in v) for v in vertices}
            assert not (verts & seen)
            seen |= verts
        assert len(seen) == 27


def least_de_bruijn(q, order):
    """Oracle: the lexicographically least string of length q**order whose
    cyclic order-windows are all distinct, by depth-first search over the
    symbols in increasing order."""
    N = q ** order
    seq, seen = [], set()

    def dfs():
        if len(seq) == N:
            ring = seq + seq[:order - 1]
            wrap = {tuple(ring[t:t + order]) for t in range(N - order + 1, N)}
            return len(seen | wrap) == N
        for s in range(q):
            seq.append(s)
            word = tuple(seq[-order:])
            if len(seq) < order or word not in seen:
                if len(seq) >= order:
                    seen.add(word)
                if dfs():
                    return True
                seen.discard(word)
            seq.pop()
        return False

    assert dfs()
    return tuple(seq)


class TestDeBruijn:
    def test_classic_binary_order3(self):
        assert de_bruijn_sequence(2, 3).text() == "00010111"

    def test_lexicographically_least(self):
        cases = [(q, order) for q in range(2, 129) for order in range(1, 8)
                 if q ** order <= 128]
        assert len(cases) == 146
        for q, order in cases:
            assert de_bruijn_sequence(q, order).symbols == \
                least_de_bruijn(q, order), (q, order)

    @pytest.mark.parametrize("q,order", [(1, 3), (2, 0), (2, 25),
                                         (DESK_SCALE + 1, 1)])
    def test_bad_sizes_raise_before_allocating(self, q, order):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError):
                de_bruijn_sequence(q, order)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16

    @pytest.mark.parametrize("q,order", [(2, 1), (2, 4), (3, 2), (3, 3),
                                         (4, 2), (5, 1)])
    def test_covers_all_windows(self, q, order):
        chi = de_bruijn_sequence(q, order)
        rep = verify_cover(chi, CycleParams.unreduced(q, order),
                           tuple(range(order)))
        assert rep.complete


class TestSplice:
    def test_reference_example(self):
        chi, _ = splice_ap_cycle(3, 3, seed=REF_SEED)
        ref = CyclicString.from_text(REF_SPLICED, 3)
        assert equal_up_to_rotation_and_translate(chi, ref)
        rep = verify_cover(chi, CycleParams.unreduced(3, 3), (0, 3, 6))
        assert rep.complete

    def test_binary_order3(self):
        chi, _ = splice_ap_cycle(2, 3)
        assert len(chi) == 8
        rep = verify_cover(chi, CycleParams.unreduced(2, 3), (0, 2, 4))
        assert rep.complete

    @pytest.mark.parametrize("q,n", [(3, 2), (2, 4), (3, 3), (4, 3), (5, 2)])
    def test_default_constructions_verify(self, q, n):
        chi, _ = splice_ap_cycle(q, n)
        rep = verify_cover(chi, CycleParams.unreduced(q, n),
                           ap_index_set(n, q))
        assert rep.complete

    def test_even_q_n2_refused(self):
        with pytest.raises(ZeroSumViolation):
            splice_ap_cycle(2, 2)
        with pytest.raises(ZeroSumViolation):
            splice_ap_cycle(4, 2)

    def test_bad_seed_rejected(self):
        with pytest.raises(InvalidInput):
            splice_ap_cycle(3, 3, seed="000000000")


class TestTrailsRoundTrip:
    def test_split_and_rebuild(self):
        chi, _ = splice_ap_cycle(3, 3, seed=REF_SEED)
        trails = chi_to_trail_symbols(chi, 3)
        assert trails_to_chi(trails, 3) == chi
        assert all(len(t) == 9 for t in trails)


class TestDoubleAp3:
    def test_binary_debruijn_doubles(self):
        chi = de_bruijn_sequence(2, 3)
        doubled, _ = double_ap3(chi, 1)
        assert len(doubled) == 64 and doubled.q == 4
        rep = verify_cover(doubled, CycleParams.unreduced(4, 3), (0, 8, 16))
        assert rep.complete

    def test_divisibility_violation(self):
        chi = de_bruijn_sequence(3, 3)
        with pytest.raises(DivisibilityViolation):
            double_ap3(chi, 1)

    def test_four_divides_k_is_enough(self):
        # k = q**3/d = 4 at every step, (2, 2) -> (4, 16) -> (8, 128): the
        # parity pattern has period 4, so each trail closes
        chi, _ = splice_ap_cycle(2, 3)
        q, d = 2, 2
        for _ in range(3):
            assert len(chi) // d == 4
            chi, _ = double_ap3(chi, d)
            q, d = 2 * q, 8 * d
            assert chi.q == q
            assert verify_cover(chi, CycleParams.unreduced(q, 3),
                                (0, d, 2 * d)).complete
        assert (q, d) == (16, 1024)

    @pytest.mark.parametrize("d", [0, -1])
    def test_nonpositive_d_rejected(self, d):
        with pytest.raises(ValueError, match="need d >= 1"):
            double_ap3(de_bruijn_sequence(2, 3), d)

    def test_bad_input_rejected(self):
        with pytest.raises(InvalidInput):
            double_ap3(CyclicString(2, (0,) * 8), 1)

    def test_chain_to_512(self):
        chi = de_bruijn_sequence(2, 3)
        step1, _ = double_ap3(chi, 1)
        step2, _ = double_ap3(step1, 8)
        assert len(step2) == 512 and step2.q == 8
        rep = verify_cover(step2, CycleParams.unreduced(8, 3), (0, 64, 128))
        assert rep.complete

    def test_chain_to_32768(self):
        # q = 2 -> 4 -> 8 -> 16 -> 32; the last step doubles 512 trails
        chi = de_bruijn_sequence(2, 3)
        for d in (1, 8, 64, 512):
            chi, _ = double_ap3(chi, d)
        assert len(chi) == 32768 and chi.q == 32
        rep = verify_cover(chi, CycleParams.unreduced(32, 3), (0, 4096, 8192))
        assert rep.complete

    def test_single_trail_input_doubles(self):
        # d = 1 at q = 4: one input trail of length 64 becomes eight
        chi = de_bruijn_sequence(4, 3)
        doubled, _ = double_ap3(chi, 1)
        assert len(doubled) == 512 and doubled.q == 8
        rep = verify_cover(doubled, CycleParams.unreduced(8, 3), (0, 8, 16))
        assert rep.complete

    @pytest.mark.parametrize("q,d", [(4, 1), (4, 2), (4, 4), (4, 8), (6, 1),
                                     (6, 3), (6, 9)])
    def test_searched_witness_doubles(self, q, d):
        # inputs found by the search rather than built by a construction
        cert = decide_valid(q, 3, (0, d, 2 * d), node_limit=200_000)
        assert cert.verdict == "valid"
        doubled, _ = double_ap3(cert.witness, d)
        assert len(doubled) == 8 * q ** 3 and doubled.q == 2 * q
        rep = verify_cover(doubled, CycleParams.unreduced(2 * q, 3),
                           (0, 8 * d, 16 * d))
        assert rep.complete

    def test_trail_j_adds_the_parities_of_j(self):
        # trail j*d + a is class a of the input, doubled, plus the parity
        # <f_(i mod 4), j> at position i, f = (e1, e2, e3, e1 + e2 + e3)
        chi = de_bruijn_sequence(2, 3)
        doubled, _ = double_ap3(chi, 1)
        trails = chi_to_trail_symbols(doubled, 8)
        base = chi.symbols
        assert trails[0] == tuple(2 * x for x in base)
        assert trails[7] == tuple(2 * x + 1 for x in base)
        for j, trail in enumerate(trails):
            bits = [bin(f & j).count("1") % 2 for f in (1, 2, 4, 7)]
            assert trail == tuple(2 * x + bits[i % 4]
                                  for i, x in enumerate(base))
