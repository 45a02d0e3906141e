"""Trail decompositions of complete loop-digraphs."""

import importlib.util
import pathlib
import sys
import time

import pytest

from ucycle import decomp, search
from ucycle.core import (BudgetExceeded, CycleParams, VerificationError,
                         verify_cover)
from ucycle.decomp import (
    Impossible,
    check_decomposition,
    chi_from_decomposition,
    decompose_equal,
    decompose_loopless,
    trail_edges,
)
from ucycle.lift import de_bruijn_sequence
from ucycle.search import two_element_validity


class TestClosedTrail:
    """A closed trail is its cyclic vertex tuple; `trail_edges` reads its
    edges."""

    def test_loop_is_a_trail(self):
        assert trail_edges((1,)) == ((1, 1),)

    def test_edges_chain_cyclically(self):
        # the repeated vertex 2 carries the loop (2, 2)
        assert trail_edges((1, 2, 2, 3)) == ((1, 2), (2, 2), (2, 3), (3, 1))

    def test_empty_trail_rejected(self):
        with pytest.raises(VerificationError,
                           match=r"^trail length 0 != 1$"):
            check_decomposition(1, 1, [()])


class TestChecker:
    def test_detects_missing_edge(self):
        dec = decompose_equal(2, 4)
        bad = [dec.trails[0]]
        with pytest.raises(VerificationError):
            check_decomposition(2, 4, bad + bad)

    def test_repeat_edge_rejected(self):
        # 1 2 1 2 walks (1,2) and (2,1) twice within one trail
        with pytest.raises(VerificationError,
                           match=r"^edge \(1,2\) covered twice$"):
            check_decomposition(2, 4, [(1, 2, 1, 2)])

    def test_detects_wrong_length(self):
        with pytest.raises(VerificationError):
            check_decomposition(2, 2, [(1,)] * 2)

    def test_names_the_first_repeated_edge(self):
        trails = decompose_equal(3, 3).trails
        u, v = trail_edges(trails[0])[0]
        with pytest.raises(VerificationError,
                           match=rf"^edge \({u},{v}\) covered twice$"):
            check_decomposition(3, 3, [trails[0], trails[1], trails[0]])

    def test_names_the_first_edge_out_of_range(self):
        trail = (1, 1, 3, 3)
        with pytest.raises(VerificationError,
                           match=r"^edge \(1,3\) out of range$"):
            check_decomposition(2, 4, [trail])

    @pytest.mark.parametrize("trail,message", [
        # vertex 0 or n + 1 at either end: indexed without the range check,
        # (0,2) and (1,0) would take the slot of (2,2), (1,3) that of (2,1)
        ((0, 2, 2, 1), r"\(0,2\) out of range"),
        ((2, 1, 0, 2), r"\(1,0\) out of range"),
        ((3, 1, 1, 2), r"\(3,1\) out of range"),
        ((2, 2, 1, 3), r"\(1,3\) out of range"),
        # a repeated edge out of range is named as repeated
        ((1, 0, 1, 0), r"\(1,0\) covered twice")])
    def test_vertex_zero_or_past_n(self, trail, message):
        with pytest.raises(VerificationError, match=rf"^edge {message}$"):
            check_decomposition(2, 4, [trail])

    def test_detects_uncovered_edges(self):
        # one trail of length 3 cannot cover the four edges of K~_2
        trail = (1, 1, 2)
        with pytest.raises(VerificationError, match="edges left uncovered"):
            check_decomposition(2, 3, [trail])


class TestEuler:
    def test_euler_route_is_the_order_2_de_bruijn_cycle(self):
        # K~_n is the order-1 de Bruijn digraph: its one closed trail of
        # length n*n reads the order-2 de Bruijn cycle, symbols plus 1
        for n in range(2, 13):
            dec = decompose_equal(n, n * n)
            assert dec.route == "euler"
            assert dec.trails == [tuple(
                x + 1 for x in de_bruijn_sequence(n, 2).symbols)]


class TestEqualDecomposition:
    def test_n2_d4_single_trail(self):
        dec = decompose_equal(2, 4)
        assert len(dec.trails) == 1
        assert set(trail_edges(dec.trails[0])) == {(1, 1), (1, 2), (2, 2),
                                                   (2, 1)}

    def test_n2_d2_impossible(self):
        with pytest.raises(Impossible):
            decompose_equal(2, 2)

    def test_n4_d4_four_trails(self):
        dec = decompose_equal(4, 4)
        assert len(dec.trails) == 4

    def test_n3_d3_three_trails(self):
        dec = decompose_equal(3, 3)
        assert len(dec.trails) == 3

    def test_d_not_dividing_rejected(self):
        with pytest.raises(ValueError):
            decompose_equal(3, 4)

    def test_n1_trivial(self):
        dec = decompose_equal(1, 1)
        assert len(dec.trails) == 1

    @pytest.mark.parametrize("n", range(2, 9))
    def test_grid_impossible_lengths(self, n):
        for d in (1, 2):
            if (n * n) % d == 0:
                with pytest.raises(Impossible):
                    decompose_equal(n, d)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_grid_feasible_lengths(self, n):
        for d in range(3, n * n + 1):
            if (n * n) % d:
                continue
            dec = decompose_equal(n, d)  # checker runs in the constructor
            assert len(dec.trails) == n * n // d

    def test_route_names_the_construction(self):
        # blowup takes the least divisor m of n with d | m*m; where no such
        # m < n exists, d = n*j merges blown-up copies and odd n = d is
        # cyclic
        for (n, d), route in [((1, 1), "euler"), ((3, 9), "euler"),
                              ((6, 4), "blowup"), ((9, 3), "blowup"),
                              ((10, 5), "blowup"), ((24, 16), "blowup"),
                              ((30, 18), "blowup"), ((3, 3), "cyclic"),
                              ((7, 7), "cyclic"), ((10, 10), "blowup"),
                              ((10, 20), "blowup"), ((4, 8), "blowup"),
                              ((6, 6), "blowup")]:
            assert decompose_equal(n, d).route == route

    def test_blowup_builds_large_n_fast(self):
        # each row blows up a base of at most five vertices
        t0 = time.process_time()
        for n, d in [(90, 5), (100, 5), (99, 3), (100, 4)]:
            assert decompose_equal(n, d).route == "blowup"
        assert time.process_time() - t0 < 1.0

    def test_every_length_up_to_128_is_built_without_search(
            self, monkeypatch):
        # every feasible (n, d) with n <= 128 is one of the three
        # constructions, checked in the constructor, about 4.5 s of CPU
        def no_search(*args, **kwargs):
            raise AssertionError("a decomposition ran the search")

        monkeypatch.setattr(search, "decide_valid", no_search)
        monkeypatch.setattr(search, "_dfs", no_search)
        t0 = time.process_time()
        routes = set()
        for n in range(1, 129):
            for d in range(3, n * n + 1):
                if (n * n) % d == 0:
                    routes.add(decompose_equal(n, d).route)
        assert routes == {"euler", "blowup", "cyclic"}
        assert time.process_time() - t0 < 30.0

    def test_every_reading_up_to_64_verifies(self):
        # chi_from_decomposition raises unless its {0, D}-cycle is complete
        for n in range(2, 65):
            for d in range(3, n * n + 1):
                if (n * n) % d == 0:
                    chi, rep = chi_from_decomposition(decompose_equal(n, d))
                    assert rep.complete and len(chi) == n * n

    def test_cyclic_trails_for_odd_n_up_to_201(self):
        for n in range(3, 202, 2):
            check_decomposition(n, n, decomp._cyclic_trails(n))

    def test_past_the_first_need_threshold_by_construction(self):
        # N = 65 * 65 > 4096, past the exact cover; 65 is odd with no
        # m < 65, m | 65 and 65 | m*m, so the trails are cyclic
        dec = decompose_equal(65, 65)
        assert dec.route == "cyclic" and len(dec.trails) == 65

    def test_length3_trails_by_construction(self):
        # past n = 3, length 3 is blown up from K~_3's three trails: every
        # n = 3k from 6 to 150 and the stride-3 reading at n = 36 take well
        # under a second of CPU
        t0 = time.process_time()
        for n in range(6, 151, 3):
            assert decompose_equal(n, 3).route == "blowup"
        chi, rep = chi_from_decomposition(decompose_equal(36, 3))
        assert rep.complete and len(chi) == 36 * 36
        assert time.process_time() - t0 < 1.0


class TestGridScript:
    def test_sweep_prints_every_row_to_the_last(self, monkeypatch, capsys):
        path = pathlib.Path(__file__).resolve().parents[1] / "scripts" / \
            "decomposition_grid.py"
        spec = importlib.util.spec_from_file_location("decomposition_grid",
                                                      path)
        grid = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(grid)
        monkeypatch.setattr(sys, "argv", ["decomposition_grid.py",
                                          "--max-n", "3"])
        assert grid.main() == 0
        rows = capsys.readouterr().out.splitlines()
        assert len(rows) == 1 + 3 + 3  # the divisors of 1, 4 and 9
        assert rows[-1].startswith("n= 3 d=  9")


class TestLoopless:
    def test_two_triangles(self):
        trails = decompose_loopless(3, [3, 3])
        edges = [e for t in trails for e in trail_edges(t)]
        assert sorted(edges) == sorted(
            (u, v) for u in (1, 2, 3) for v in (1, 2, 3) if u != v)

    def test_known_exception_exhausted(self):
        with pytest.raises(Impossible) as exc:
            decompose_loopless(6, [3] * 10)
        assert exc.value.reason == "exhausted"

    def test_five_vertices_length5(self):
        trails = decompose_loopless(5, [5, 5, 5, 5])
        assert all(len(t) == 5 for t in trails)

    def test_backtracking_past_a_trail_keeps_its_prefix_edges_used(self):
        # this split backtracks into a suspended walk; once the walk's edges
        # were unmarked there, it extended into its own prefix and raised
        # "repeated edge in trail"
        trails = decompose_loopless(6, [4, 4, 6, 7, 9])
        assert sorted(len(t) for t in trails) == [4, 4, 6, 7, 9]
        edges = [e for t in trails for e in trail_edges(t)]
        assert sorted(edges) == sorted(
            (u, v) for u in range(1, 7) for v in range(1, 7) if u != v)

    def test_one_long_trail_needs_no_recursion_per_edge(self):
        # 1056 edges in one trail, more than Python's recursion limit
        # allows frames if the walk took one per edge
        try:
            trails = decompose_loopless(33, [1056], node_limit=2000)
        except BudgetExceeded:
            return
        assert [len(t) for t in trails] == [1056]

    def test_split_budget_is_not_a_verdict(self):
        # all-3 splits of the 132 edges at m = 12 exist, so running out of
        # nodes raises BudgetExceeded, not Impossible
        with pytest.raises(BudgetExceeded,
                           match="trail split budget exceeded") as info:
            decompose_loopless(12, [3] * 44, node_limit=10_000)
        assert info.value.nodes == 10_001

    def test_split_that_misses_an_edge_is_not_returned(self, monkeypatch):
        # the digon 1 2 twice and 2 3 never: the lengths add up, the cover
        # does not
        split = [(1, 2), (1, 3), (1, 2)]
        monkeypatch.setattr(decomp, "_split_trails", lambda *a: split)
        with pytest.raises(VerificationError, match="exactly once"):
            decompose_loopless(3, [2, 2, 2])

    def test_sum_mismatch_rejected(self):
        with pytest.raises(ValueError):
            decompose_loopless(4, [3, 3])

    def test_length_one_rejected(self):
        with pytest.raises(ValueError):
            decompose_loopless(3, [1, 5])


class TestBridge:
    def test_two_element_grid(self):
        # q <= 6, every proper divisor d of q*q: decomposition exists iff
        # the arithmetic criterion says so, and the reading verifies
        for q in range(2, 7):
            for ddiff in range(1, q * q):
                if (q * q) % ddiff:
                    continue
                dlen = q * q // ddiff
                possible = True
                try:
                    dec = decompose_equal(q, dlen)
                except Impossible:
                    possible = False
                assert possible == two_element_validity(q, ddiff), (q, ddiff)
                if possible:
                    chi, _ = chi_from_decomposition(dec)
                    rep = verify_cover(chi, CycleParams.unreduced(q, 2),
                                       (0, ddiff))
                    assert rep.complete

    def test_order2_debruijn_from_euler(self):
        dec = decompose_equal(2, 4)
        chi, _ = chi_from_decomposition(dec)
        rep = verify_cover(chi, CycleParams.unreduced(2, 2), (0, 1))
        assert rep.complete

    def test_three_trails_gives_stride3(self):
        dec = decompose_equal(3, 3)
        chi, _ = chi_from_decomposition(dec)
        rep = verify_cover(chi, CycleParams.unreduced(3, 2), (0, 3))
        assert rep.complete


class TestSerialization:
    def test_json_shape(self):
        dec = decompose_equal(3, 3)
        obj = dec.to_json_obj()
        assert obj["schema"] == 1
        assert len(obj["trails"]) == 3
        assert all(len(t) == 3 for t in obj["trails"])
        assert all(len(pair) == 2 for t in obj["trails"] for pair in t)
        assert "route" not in obj
