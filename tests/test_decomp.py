"""Trail decompositions of complete loop-digraphs."""

import importlib.util
import pathlib
import sys
import time

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
    decompose_exact,
    decompose_loopless,
    euler_trail,
    is_eulerian,
    prop17_trails,
)
from ucycle.search import two_element_validity


class TestClosedTrail:
    def test_chaining_enforced(self):
        with pytest.raises(ValueError):
            ClosedTrail(((1, 2), (3, 1)))

    def test_repeat_edge_rejected(self):
        with pytest.raises(ValueError):
            ClosedTrail(((1, 2), (2, 1), (1, 2), (2, 1)))

    def test_loop_is_a_trail(self):
        t = ClosedTrail(((1, 1),))
        assert len(t) == 1 and t.vertices() == {1}


class TestChecker:
    def test_detects_missing_edge(self):
        dec = decompose_equal(2, 4)
        bad = [ClosedTrail(dec.trails[0].edges[:])]
        with pytest.raises(VerificationError):
            check_decomposition(2, 4, bad + bad)

    def test_detects_wrong_length(self):
        with pytest.raises(VerificationError):
            check_decomposition(2, 2, [ClosedTrail(((1, 1),))] * 2)


class TestEuler:
    def test_k2_circuit(self):
        # the four edges of the 2-vertex loop-digraph chain into one trail
        t = euler_trail([(1, 1), (1, 2), (2, 2), (2, 1)])
        assert len(t) == 4
        assert set(t.edges) == {(1, 1), (1, 2), (2, 2), (2, 1)}

    def test_disconnected_rejected(self):
        with pytest.raises(VerificationError):
            euler_trail([(1, 1), (2, 2)])

    def test_is_eulerian_helper(self):
        assert is_eulerian([(1, 2), (2, 1)])
        assert not is_eulerian([(1, 2)])
        assert not is_eulerian([(1, 1), (2, 2)])


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

    def test_prop17_families_exact_cover_up_to_12(self):
        for n in range(2, 13, 2):
            trails = prop17_trails(n)
            edges = [e for t in trails for e in t.edges]
            assert len(edges) == n * n
            assert len(set(edges)) == n * n
            assert all(len(t) == 4 for t in trails)

    def test_exact_fallback_small(self):
        trails = decompose_exact(3, 3)
        check_decomposition(3, 3, trails)

    def test_route_names_the_construction(self):
        for (n, d), route in [((1, 1), "euler"), ((3, 9), "euler"),
                              ((6, 4), "families"), ((6, 3), "latin"),
                              ((9, 3), "latin"), ((10, 5), "hub"),
                              ((10, 10), "packing"), ((30, 18), "packing"),
                              ((24, 16), "packing")]:
            assert decompose_equal(n, d).route == route

    def test_length3_trails_by_construction(self):
        # the length-3 route builds, never searches: every n = 3k up to 150
        # and the stride-3 reading at n = 36 take well under a second of CPU
        t0 = time.process_time()
        for n in range(3, 151, 3):
            assert decompose_equal(n, 3).route == "latin"
        chi, rep = chi_from_decomposition(36, decompose_equal(36, 3))
        assert rep.complete and len(chi) == 36 * 36
        assert time.process_time() - t0 < 1.0

    def test_unpacked_atoms_fall_back_to_exact_search(self, monkeypatch):
        monkeypatch.setattr(decomp, "_assemble_groups", lambda *a, **k: None)
        dec = decompose_equal(6, 6)
        assert dec.route == "exact"
        assert dec.trails == decompose_exact(6, 6)

    def test_broken_packing_is_not_hidden_by_the_fallback(self, monkeypatch):
        monkeypatch.setattr(decomp, "is_eulerian", lambda edges: False)
        with pytest.raises(VerificationError):
            decompose_equal(10, 10)

    def test_loopless_budget_propagates_from_the_packing_route(self):
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


# ---------------------------------------------------------------------------
# differential test: the atom packer against the same packer without its
# stranding rule, which must agree exactly, since pruning keeps the
# branching order
# ---------------------------------------------------------------------------


def _unpruned_assemble_groups(t_pieces, inner, a, b, d, node_cap=400_000):
    """Pack leftover trails, per-vertex gadget atoms, and hub atoms into
    connected groups of exactly d edges (exact backtracking search).

    Atoms are individually balanced, and a group only ever grows through a
    shared vertex, so each finished group is Eulerian by construction.
    None when the search exhausts or passes `node_cap` nodes.
    """
    atoms = []
    for idx, t in enumerate(t_pieces):
        atoms.append((("t", idx), len(t.edges), frozenset(t.vertices()),
                      tuple(t.edges)))
    for j in inner:
        atoms.append((("loop", j), 1, frozenset({j}), ((j, j),)))
        atoms.append((("pa", j), 2, frozenset({j, a}), ((j, a), (a, j))))
        atoms.append((("pb", j), 2, frozenset({j, b}), ((j, b), (b, j))))
    atoms.append((("ha",), 1, frozenset({a}), ((a, a),)))
    atoms.append((("hb",), 1, frozenset({b}), ((b, b),)))
    atoms.append((("hab",), 2, frozenset({a, b}), ((a, b), (b, a))))

    total = sum(size for _, size, _, _ in atoms)
    if total % d:
        raise VerificationError("atom supply not a multiple of d")
    n_groups = total // d
    marked = {j for t in t_pieces for j in t.vertices()}
    order = {atom[0]: i for i, atom in enumerate(atoms)}
    unused = set(order.values())
    nodes = [0]

    groups = []

    def fresh_js():
        """Inner vertices untouched so far, mutually interchangeable."""
        out = []
        for j in inner:
            if j in marked:
                continue
            if all(order[(kind, j)] in unused for kind in ("loop", "pa", "pb")):
                out.append(j)
        return out

    def dfs(cur, cur_size, cur_verts):
        nodes[0] += 1
        if nodes[0] > node_cap:
            return False  # over the cap: unwind as if exhausted
        if cur_size == d:
            groups.append(list(cur))
            if not unused:
                return True
            if dfs([], 0, frozenset()):
                return True
            groups.pop()
            return False
        room = d - cur_size
        fresh = fresh_js()
        skip_fresh = set(fresh[1:])
        cands = []
        for i in sorted(unused):
            key, size, verts, _ = atoms[i]
            if size > room:
                continue
            if cur and not (verts & cur_verts):
                continue
            if key[0] in ("loop", "pa", "pb") and key[1] in skip_fresh:
                continue
            if not cur and key[0] != "t" and any(
                    atoms[k][0][0] == "t" for k in unused):
                continue  # leftover trails seed their own groups
            cands.append((-size, i))
        if not cur and cands:
            cands = cands[:1]  # seeding is canonical: groups are unordered
        for _, i in sorted(cands):
            key, size, verts, _ = atoms[i]
            unused.discard(i)
            was_fresh = key[0] in ("loop", "pa", "pb") and key[1] in fresh
            if was_fresh:
                marked.add(key[1])
            if dfs(cur + [i], cur_size + size, cur_verts | verts):
                return True
            if was_fresh:
                marked.discard(key[1])
            unused.add(i)
        return False

    if not dfs([], 0, frozenset()):
        return None
    out = []
    for g in groups:
        edges = []
        for i in g:
            edges.extend(atoms[i][3])
        if not is_eulerian(edges):
            raise VerificationError("assembled group is not Eulerian")
        out.append(euler_trail(edges))
    assert len(out) == n_groups
    return out



class TestPruningAgainstUnprunedSearch:
    def test_every_packing_route_case(self, monkeypatch):
        pruned = decomp._assemble_groups
        packed = []

        def both(t_pieces, inner, a, b, d):
            got = pruned(t_pieces, inner, a, b, d)
            assert got == _unpruned_assemble_groups(t_pieces, inner, a, b, d)
            packed.append(d)
            return got

        monkeypatch.setattr(decomp, "_assemble_groups", both)
        cases = [(n, d) for n in range(2, 17) for d in range(6, n * n)
                 if (n * n) % d == 0 and (d == 6 or d >= 8)]
        for n, d in cases:
            decompose_equal(n, d)
        assert len(packed) == len(cases)
