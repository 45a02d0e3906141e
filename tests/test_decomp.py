"""Trail decompositions of complete loop-digraphs."""

import importlib.util
import pathlib
import sys
import time
from types import SimpleNamespace

import pytest

from ucycle import decomp
from ucycle.core import (BudgetExceeded, CycleParams, VerificationError,
                         verify_cover)
from ucycle.decomp import (
    ClosedTrail,
    Impossible,
    check_decomposition,
    chi_from_decomposition,
    decompose_equal,
    decompose_loopless,
    euler_trail,
)
from ucycle.search import two_element_validity


class TestClosedTrail:
    def test_loop_is_a_trail(self):
        t = ClosedTrail((1,))
        assert len(t) == 1 and t.edges == ((1, 1),)

    def test_edges_chain_cyclically(self):
        t = ClosedTrail((1, 2, 2, 3))
        assert t.edges == ((1, 2), (2, 2), (2, 3), (3, 1))

    def test_empty_trail_rejected(self):
        with pytest.raises(ValueError):
            ClosedTrail(())


class TestChecker:
    def test_detects_missing_edge(self):
        dec = decompose_equal(2, 4)
        bad = [ClosedTrail(dec.trails[0].vertices)]
        with pytest.raises(VerificationError):
            check_decomposition(2, 4, bad + bad)

    def test_repeat_edge_rejected(self):
        # 1 2 1 2 walks (1,2) and (2,1) twice within one trail
        with pytest.raises(VerificationError,
                           match=r"^edge \(1,2\) covered twice$"):
            check_decomposition(2, 4, [ClosedTrail((1, 2, 1, 2))])

    def test_detects_wrong_length(self):
        with pytest.raises(VerificationError):
            check_decomposition(2, 2, [ClosedTrail((1,))] * 2)

    def test_names_the_first_repeated_edge(self):
        trails = decompose_equal(3, 3).trails
        with pytest.raises(VerificationError,
                           match=rf"^edge \({trails[0].edges[0][0]},"
                                 rf"{trails[0].edges[0][1]}\) covered twice$"):
            check_decomposition(3, 3, [trails[0], trails[1], trails[0]])

    def test_names_the_first_edge_out_of_range(self):
        trail = ClosedTrail((1, 1, 3, 3))
        with pytest.raises(VerificationError,
                           match=r"^edge \(1,3\) out of range$"):
            check_decomposition(2, 4, [trail])

    def test_detects_uncovered_edges(self):
        # one trail of length 3 cannot cover the four edges of K~_2
        trail = ClosedTrail((1, 1, 2))
        with pytest.raises(VerificationError, match="edges left uncovered"):
            check_decomposition(2, 3, [trail])


class TestEuler:
    def test_k2_circuit(self):
        # the four edges of the 2-vertex loop-digraph chain into one trail
        t = euler_trail([(1, 1), (1, 2), (2, 2), (2, 1)])
        assert len(t) == 4
        assert set(t.edges) == {(1, 1), (1, 2), (2, 2), (2, 1)}

    def test_disconnected_rejected(self):
        with pytest.raises(VerificationError):
            euler_trail([(1, 1), (2, 2)])

    def test_unbalanced_rejected(self):
        # the walk uses the one edge but ends at 2, so it does not close
        with pytest.raises(VerificationError):
            euler_trail([(1, 2)])


class TestEqualDecomposition:
    def test_n2_d4_single_trail(self):
        dec = decompose_equal(2, 4)
        assert len(dec.trails) == 1
        assert set(dec.trails[0].edges) == {(1, 1), (1, 2), (2, 2), (2, 1)}

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
        # blowup takes the least divisor m of n with d | m*m; search is
        # left for the rows where no such m < n exists
        for (n, d), route in [((1, 1), "euler"), ((3, 9), "euler"),
                              ((6, 4), "blowup"), ((9, 3), "blowup"),
                              ((10, 5), "blowup"), ((24, 16), "blowup"),
                              ((30, 18), "blowup"), ((3, 3), "search"),
                              ((7, 7), "search"), ((10, 10), "search"),
                              ((10, 20), "search")]:
            assert decompose_equal(n, d).route == route

    def test_blowup_builds_large_n_fast(self):
        # each row blows up a base of at most five vertices
        t0 = time.process_time()
        for n, d in [(90, 5), (100, 5), (99, 3), (100, 4)]:
            assert decompose_equal(n, d).route == "blowup"
        assert time.process_time() - t0 < 1.0

    def test_every_length_up_to_40_is_built_or_searched_fast(self):
        # every feasible (n, d) with n <= 40 takes one of the three routes,
        # about 1.5 s of CPU in all
        t0 = time.process_time()
        routes = set()
        for n in range(1, 41):
            for d in range(3, n * n + 1):
                if (n * n) % d == 0:
                    routes.add(decompose_equal(n, d).route)
        assert routes == {"euler", "blowup", "search"}
        assert time.process_time() - t0 < 10.0

    def test_search_route_past_the_first_need_threshold(self):
        # N = 65 * 65 > 4096, where sets of more than two positions leave
        # the exact cover for the position search; {0, 65} is searched one
        # trail at a time
        dec = decompose_equal(65, 65)
        assert dec.route == "search" and len(dec.trails) == 65

    def test_search_route_reports_an_exhausted_search(self, monkeypatch):
        cert = SimpleNamespace(valid=False)
        monkeypatch.setattr(decomp, "decide_valid", lambda *a, **k: cert)
        with pytest.raises(Impossible) as exc:
            decompose_equal(6, 6)
        assert exc.value.reason == "exhausted"

    def test_length3_trails_by_construction(self):
        # past n = 3, length 3 is blown up from K~_3's three trails: every
        # n = 3k from 6 to 150 and the stride-3 reading at n = 36 take well
        # under a second of CPU
        t0 = time.process_time()
        for n in range(6, 151, 3):
            assert decompose_equal(n, 3).route == "blowup"
        chi, rep = chi_from_decomposition(36, decompose_equal(36, 3))
        assert rep.complete and len(chi) == 36 * 36
        assert time.process_time() - t0 < 1.0

    def test_budget_propagates_from_the_search_route(self):
        with pytest.raises(BudgetExceeded):
            decompose_equal(10, 10, node_limit=5)


class TestGridScript:
    def test_budget_row_is_reported_and_the_sweep_finishes(
            self, monkeypatch, capsys):
        path = pathlib.Path(__file__).resolve().parents[1] / "scripts" / \
            "decomposition_grid.py"
        spec = importlib.util.spec_from_file_location("decomposition_grid",
                                                      path)
        grid = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(grid)

        def decompose(n, d):
            if (n, d) == (2, 2):
                raise BudgetExceeded("trail split budget exceeded", 17)
            return decompose_equal(n, d)

        monkeypatch.setattr(grid, "decompose_equal", decompose)
        monkeypatch.setattr(sys, "argv", ["decomposition_grid.py",
                                          "--max-n", "3"])
        assert grid.main() == 3
        rows = capsys.readouterr().out.splitlines()
        assert "budget [nodes=17]" in rows[2]  # n=2: d=1, d=2, d=4
        assert len(rows) == 1 + 3 + 3  # the divisors of 1, 4 and 9
        assert rows[-1].startswith("n= 3 d=  9")


class TestLoopless:
    def test_two_triangles(self):
        trails = decompose_loopless(3, [3, 3])
        edges = [e for t in trails for e in t.edges]
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
        edges = [e for t in trails for e in t.edges]
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

    def test_split_that_misses_an_edge_is_not_returned(self, monkeypatch):
        # the digon 1 2 twice and 2 3 never: the lengths add up, the cover
        # does not
        split = [ClosedTrail((1, 2)), ClosedTrail((1, 3)), ClosedTrail((1, 2))]
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
                    chi, _ = chi_from_decomposition(q, dec)
                    rep = verify_cover(chi, CycleParams.unreduced(q, 2),
                                       (0, ddiff))
                    assert rep.complete

    def test_order2_debruijn_from_euler(self):
        dec = decompose_equal(2, 4)
        chi, _ = chi_from_decomposition(2, dec)
        rep = verify_cover(chi, CycleParams.unreduced(2, 2), (0, 1))
        assert rep.complete

    def test_three_trails_gives_stride3(self):
        dec = decompose_equal(3, 3)
        chi, _ = chi_from_decomposition(3, dec)
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
