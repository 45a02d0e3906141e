"""Quotient map, lifting, splicing, and the alphabet-doubling step."""

import itertools

import pytest

from ucycle.core import (
    CycleParams,
    CyclicString,
    equal_up_to_rotation_and_translate,
    verify_cover,
)
from ucycle.lift import (
    DivisibilityViolation,
    InvalidInput,
    VertexCycle,
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
        c = VertexCycle(3, 2, tuple(int(x) for x in REF_SEED))
        lifted = lift_cycle(c)
        assert project_cycle(lifted).symbols == c.symbols

    def test_reference_lift_up_to_rotation_translate(self):
        c = VertexCycle(3, 2, tuple(int(x) for x in REF_SEED))
        lifted = CyclicString(3, lift_cycle(c).symbols)
        ref = CyclicString.from_text(REF_LIFT, 3)
        assert equal_up_to_rotation_and_translate(lifted, ref)

    def test_zero_sum_violation(self):
        with pytest.raises(ZeroSumViolation):
            lift_cycle(VertexCycle(2, 1, (0, 1)))

    def test_all_zero_loop(self):
        lifted = lift_cycle(VertexCycle(3, 1, (0,)))
        assert lifted.symbols == (0,)

    def test_one_vertex_per_class(self):
        c = VertexCycle(3, 2, tuple(int(x) for x in REF_SEED))
        lifted = lift_cycle(c)
        reps = {min(tuple((s + k) % 3 for s in v) for k in range(3))
                for v in lifted.vertices()}
        assert len(lifted.vertices()) == 9
        assert len(set(lifted.vertices())) == 9
        assert len(reps) == 9

    def test_translate_disjointness(self):
        c = VertexCycle(3, 2, tuple(int(x) for x in REF_SEED))
        lifted = lift_cycle(c)
        seen = set()
        for j in range(3):
            verts = {tuple((s + j) % 3 for s in v) for v in lifted.vertices()}
            assert not (verts & seen)
            seen |= verts
        assert len(seen) == 27


class TestDeBruijn:
    def test_classic_binary_order3(self):
        assert de_bruijn_sequence(2, 3).text() == "00010111"

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

    def test_larger_group_packing(self):
        # d=1 at q=4 forces 16-piece groups instead of pairs
        chi = de_bruijn_sequence(4, 3)
        doubled, _ = double_ap3(chi, 1)
        assert len(doubled) == 512 and doubled.q == 8
        rep = verify_cover(doubled, CycleParams.unreduced(8, 3), (0, 8, 16))
        assert rep.complete

    def test_edge_partition_accounting(self):
        # pieces must partition the parity-mixing triples exactly
        from ucycle.lift import _parity_cross_pieces, _walk_edges
        for q in (2, 4):
            pieces = _parity_cross_pieces(q)
            edges = []
            for piece in pieces:
                edges.extend(_walk_edges(piece))
            assert len(edges) == 6 * q ** 3
            assert len(set(edges)) == 6 * q ** 3
            for x, y, z in edges:
                assert not (x % 2 == y % 2 == z % 2)

    def test_piece_groups_partition_into_connected_groups(self):
        # the greedy grouping never gets stuck for any valid (q, d) with
        # q <= 8: the groups partition the pieces, and within a group every
        # piece reaches every other through shared pair-vertices
        from ucycle.lift import _group_pieces, _parity_cross_pieces
        for q in (2, 4, 6, 8):
            pieces = _parity_cross_pieces(q)
            for d in range(1, q ** 3 + 1):
                k, rem = divmod(q ** 3, d)
                if rem or k % 8:
                    continue
                groups = _group_pieces(pieces, k // 4)
                assert sorted(p for g in groups for p in g) == sorted(pieces)
                assert all(len(g) == k // 4 for g in groups)
                for g in groups:
                    pairs = [set(zip(p, p[1:] + p[:1])) for p in g]
                    reached, todo = set(pairs[0]), pairs[1:]
                    while todo:
                        near = [s for s in todo if s & reached]
                        assert near, (q, d)
                        for s in near:
                            reached |= s
                            todo.remove(s)
