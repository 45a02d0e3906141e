"""Validity search: verdicts, pruning soundness, and atlas reproduction."""

import itertools
import math
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ucycle.core import (
    CycleParams,
    CyclicString,
    affine_class_representatives,
    canonicalize_affine,
    verify_cover,
    window,
)
from ucycle import search
from ucycle.search import (
    INVALID,
    VALID,
    BudgetExceeded,
    atlas,
    decide_valid,
    two_element_validity,
)


def brute_force_valid(q, n, I):
    """Oracle: try every string of length q**n, no pruning of any kind."""
    N = q ** n
    params = CycleParams.unreduced(q, n)
    for syms in itertools.product(range(q), repeat=N):
        chi = CyclicString(q, syms)
        if verify_cover(chi, params, I).complete:
            return True
    return False


class TestDecideValid:
    def test_known_invalid_3_3(self):
        cert = decide_valid(3, 3, (0, 9, 18))
        assert cert.verdict == INVALID

    def test_known_valid_2_4(self):
        cert = decide_valid(2, 4, (0, 1, 2, 6))
        assert cert.verdict == VALID
        rep = verify_cover(cert.witness, CycleParams.unreduced(2, 4),
                           (0, 1, 2, 6))
        assert rep.complete

    def test_known_invalid_2_2(self):
        assert decide_valid(2, 2, (0, 2)).verdict == INVALID

    def test_classical_window_valid(self):
        cert = decide_valid(2, 5, (0, 1, 2, 3, 4))
        assert cert.verdict == VALID

    def test_witness_deterministic(self):
        w1 = decide_valid(2, 4, (0, 1, 3, 7)).witness
        w2 = decide_valid(2, 4, (0, 1, 3, 7)).witness
        assert w1 == w2

    def test_search_order_3_4_witness(self):
        # 908,823 nodes under the static position order, a few thousand
        # under the most-constrained-item order
        cert = decide_valid(3, 4, (0, 1, 7, 8), node_limit=100_000)
        assert cert.verdict == VALID
        assert verify_cover(cert.witness, CycleParams.unreduced(3, 4),
                            (0, 1, 7, 8)).complete

    @pytest.mark.parametrize("q,n", [(2, 13), (4, 5)])
    def test_contiguous_window_at_large_n(self, q, n):
        # the classical de Bruijn window: (4,5) takes the exact cover, whose
        # frontier stays near the fixed positions, and (2,13), past
        # N = 4096, the position search; each needs a few nodes per word
        cert = decide_valid(q, n, range(n), node_limit=4 * q ** n)
        assert cert.verdict == VALID

    def test_large_n_memory_stays_linear(self):
        # at (2,16) the exact cover would keep n live masks of N bits per
        # fixed position, several GB; the position search peaks near
        # 140 MB.  The child runs under a 1 GB address-space cap, so memory
        # that grows with N**2 fails fast instead of filling the machine.
        import ucycle

        src = str(pathlib.Path(ucycle.__file__).resolve().parents[1])
        code = (
            "import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from ucycle.search import decide_valid\n"
            "c = decide_valid(2, 16, range(16), node_limit=4 * 2 ** 16)\n"
            "peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "print(c.verdict, peak // 1024)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=120,
                              env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0, proc.stderr
        verdict, peak_mb = proc.stdout.split()
        assert verdict == VALID
        assert int(peak_mb) < 512

    def test_time_budget_raises_not_a_verdict(self):
        # undecided within 2M nodes, so 0.3 s cannot decide it
        with pytest.raises(BudgetExceeded, match="time budget") as info:
            decide_valid(3, 4, (0, 1, 3, 35), time_limit=0.3)
        assert 0.3 <= info.value.elapsed < 10
        assert info.value.nodes > 0

    def test_position_search_serves_two_positions_and_large_n(
            self, monkeypatch):
        calls = []
        dfs = search._dfs
        monkeypatch.setattr(search, "_dfs",
                            lambda *a: calls.append(a[:2]) or dfs(*a))
        decide_valid(2, 4, (0, 1, 2, 6))
        decide_valid(3, 3, (0, 1, 3))
        decide_valid(3, 2, (0, 1))
        decide_valid(2, 1, (0,))
        decide_valid(2, 12, range(12))
        decide_valid(2, 13, range(13))
        assert calls == [(3, 2), (2, 1), (2, 13)]

    def test_budget_raises_not_invalid(self):
        with pytest.raises(BudgetExceeded):
            decide_valid(2, 5, (0, 1, 2, 3, 12), node_limit=100)

    def test_rejects_bad_index_set(self):
        with pytest.raises(ValueError):
            decide_valid(2, 3, (0, 1))  # wrong size


class TestTwoElement:
    def test_q2_grid(self):
        assert two_element_validity(2, 1) is True
        assert two_element_validity(2, 2) is False

    def test_q6_cases(self):
        assert two_element_validity(6, 18) is False  # 36/18 = 2
        assert two_element_validity(6, 12) is True   # 36/12 = 3

    def test_rejects_non_divisor(self):
        with pytest.raises(ValueError):
            two_element_validity(2, 3)

    def test_matches_decide_valid(self):
        # every 2-subset of Z_(q*q): a translation and a unit multiple take
        # {a, b} to {0, g} with g = gcd(b - a, q*q), and affine maps of
        # Z_(q*q) keep validity
        pairs = 0
        for q in range(2, 8):
            N = q * q
            for a, b in itertools.combinations(range(N), 2):
                cert = decide_valid(q, 2, (a, b))
                assert cert.valid == two_element_validity(
                    q, math.gcd(b - a, N)), (q, a, b)
                pairs += 1
        assert pairs == 2268


class TestPruningSoundness:
    """The pruned search must agree with unpruned enumeration wherever the
    latter is feasible."""

    @pytest.mark.parametrize("q,n", [(2, 2), (2, 3), (3, 1), (4, 1), (3, 2)])
    def test_full_cross_check(self, q, n):
        N = q ** n
        for I in itertools.combinations(range(N), n):
            cert = decide_valid(q, n, I)
            assert (cert.verdict == VALID) == brute_force_valid(q, n, I), I

    @settings(max_examples=15, deadline=None)
    @given(st.data())
    def test_sampled_cross_check_2_4(self, data):
        I = tuple(sorted(data.draw(
            st.sets(st.integers(0, 15), min_size=4, max_size=4))))
        cert = decide_valid(2, 4, I)
        assert (cert.verdict == VALID) == brute_force_valid(2, 4, I)

    @settings(max_examples=10, deadline=None)
    @given(st.data())
    def test_sampled_cross_check_3_2(self, data):
        I = tuple(sorted(data.draw(
            st.sets(st.integers(0, 8), min_size=2, max_size=2))))
        cert = decide_valid(3, 2, I)
        assert (cert.verdict == VALID) == brute_force_valid(3, 2, I)

    @pytest.mark.parametrize("q,n", [(2, 4), (3, 3)])
    def test_witnesses_read_zero_on_index_set(self, q, n):
        # rotation rule: the search pins translate 0 to the word 0**n
        for rep in affine_class_representatives(q ** n, n):
            cert = decide_valid(q, n, rep)
            if cert.valid:
                assert all(cert.witness.symbols[i] == 0 for i in rep), rep

    def test_rotation_rule_cuts_refutation_nodes(self):
        # about 1.61M nodes without the rotation rule, about 33k with it;
        # the complement rule halves that again, to about 15k
        cert = decide_valid(2, 5, (0, 1, 2, 6, 26))
        assert cert.verdict == INVALID
        assert cert.nodes_explored < 1_000_000
        assert cert.nodes_explored < 20_000

    @pytest.mark.parametrize("n", [3, 4])
    def test_complement_rule_reads_ones_in_the_first_half(self, n):
        # the q = 2 witness reads 1**n on one translate r <= N/2, and
        # s -> 1 - s(x + r) maps it to a complete string that reads 0**n at
        # 0 and 1**n at N - r: the member of the orbit the rule skips
        N = 2 ** n
        params = CycleParams.unreduced(2, n)
        ones = (1,) * n
        checked = 0
        for rep in affine_class_representatives(N, n):
            cert = decide_valid(2, n, rep)
            if not cert.valid:
                continue
            s = cert.witness.symbols
            at = [t for t in range(N) if window(cert.witness, rep, t) == ones]
            assert len(at) == 1 and 1 <= at[0] <= N // 2, (rep, at)
            r = at[0]
            sigma = CyclicString(2, tuple(1 - s[(x + r) % N]
                                          for x in range(N)))
            assert verify_cover(sigma, params, rep).complete, rep
            assert window(sigma, rep, 0) == (0,) * n
            assert window(sigma, rep, N - r) == ones
            checked += 1
        assert checked > 0

    @pytest.mark.parametrize("q,n", [(3, 3), (2, 4), (2, 3)])
    def test_cover_search_matches_position_search(self, q, n, monkeypatch):
        # every 3-subset of Z_27, every 4-subset of Z_16 and every 3-subset
        # of Z_8 that holds 0, without the stabilizer bound: the exact-cover
        # search against the position search, which still runs any |I|.
        # `_dfs` is exhaustive under any position order, so only its speed
        # depends on the order; the greedy completion order keeps the (3,3)
        # run near 0.75M nodes, where the first-need order takes 18M
        monkeypatch.setattr(search, "_first_need_order",
                            lambda N, I, step: _scan_greedy_completion_order(
                                N, I, q))
        N = q ** n
        verdicts = set()
        for rest in itertools.combinations(range(1, N), n - 1):
            I = (0,) + rest
            found, syms, _ = search._cover_search(q, n, I, N, None, None, 0)
            assert found == search._dfs(q, n, I, N, None, None, 0)[0], I
            if found:
                assert verify_cover(CyclicString(q, tuple(syms)),
                                    CycleParams.unreduced(q, n), I).complete
            verdicts.add(found)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("I", [(0, 1, 2, 5, 28), (0, 2, 4, 6, 14),
                                   (0, 2, 4, 8, 22)])
    def test_complement_rule_keeps_the_middle_translate(self, I):
        # sigma maps a string that reads 1**n at N/2 to one that reads it at
        # N/2 again, so the word branch must include r = N/2 itself: these
        # (2,5) classes have witnesses only there, and a branch that stops
        # at N/2 - 1 calls all three invalid
        cert = decide_valid(2, 5, I)
        assert cert.verdict == VALID
        at = [t for t in range(32) if window(cert.witness, I, t) == (1,) * 5]
        assert at == [16]

    @pytest.mark.parametrize("q", [3, 4])
    def test_relabeling_keeps_one_word_per_orbit(self, q):
        # the exact-cover search keeps only these words on a translate
        # branch; sound and not redundant when each orbit of the words
        # under the permutations of the unused symbols keeps exactly one
        n = 3
        powers = [q ** (n - 1 - j) for j in range(n)]
        words = list(range(q ** n))
        for r in range(1, q + 1):
            for used in itertools.combinations(range(q), r):
                counts = [int(c in used) for c in range(q)]
                unused = [c for c in range(q) if c not in used]
                kept = set(search._least_new_symbols(words, q, powers,
                                                     counts))
                orbits = {}
                for w in words:
                    digits = [w // d % q for d in powers]
                    images = []
                    for perm in itertools.permutations(unused):
                        to = dict(zip(unused, perm))
                        images.append(sum(to.get(x, x) * d
                                          for x, d in zip(digits, powers)))
                    orbits.setdefault(min(images), set()).add(w)
                for orbit in orbits.values():
                    assert len(orbit & kept) == 1, (used, sorted(orbit))

    @pytest.mark.parametrize("I", [(0, 4, 8, 12), (0, 2, 8, 10),
                                   (1, 5, 9, 13), (0, 1, 8, 9)])
    def test_stabilized_sets_match_brute_force(self, I):
        # sets fixed by a translation exercise the counting refutation
        cert = decide_valid(2, 4, I)
        assert cert.method == "stabilizer-count"
        assert (cert.verdict == VALID) == brute_force_valid(2, 4, I)


def _scan_greedy_completion_order(N, I, q):
    """Oracle: the greedy completion order by a full O(N) scan per pick."""
    n = len(I)
    pos_windows = [[] for _ in range(N)]
    for i in I:
        for t in range(N):
            pos_windows[(i + t) % N].append(t)
    rem = [n] * N
    weight = [0] + [q ** (n - 1 - (r - 1)) for r in range(1, n + 1)]
    score = [0] * N
    for p in range(N):
        score[p] = sum(weight[rem[t]] for t in pos_windows[p])
    assigned = bytearray(N)
    order = []
    for step in range(N):
        if step < n:
            best = I[step]
        else:
            best, best_score = -1, -1
            for p in range(N):
                if not assigned[p] and score[p] > best_score:
                    best, best_score = p, score[p]
        assigned[best] = 1
        order.append(best)
        for t in pos_windows[best]:
            old = rem[t]
            rem[t] = old - 1
            delta = weight[old - 1] - weight[old]
            if old > 1:
                for i in I:
                    p2 = (i + t) % N
                    if not assigned[p2]:
                        score[p2] += delta
    return order


def _full_scan_stabilizer_bound(q, n, I, N):
    """Oracle: the stabilizer counting bound, trying every shift 1..N-1
    (each as a rotation of I's N-bit mask)."""
    mask = sum(1 << i for i in I)
    full = (1 << N) - 1
    s_min = next((s for s in range(1, N)
                  if ((mask << s) | (mask >> (N - s))) & full == mask), 0)
    if s_min == 0:
        return None
    h = N // s_min
    index_of = {i: j for j, i in enumerate(I)}
    free = 0
    for e in search._divisors(h):
        mu = search._mobius(e)
        if mu == 0:
            continue
        s_e = s_min * (h // e)
        if s_e % N == 0:
            cycles = n
        else:
            perm = [index_of[(i + s_e) % N] for i in I]
            cycles = search._cycle_count(perm)
        free += mu * q ** cycles
    return free


class TestOrderAgainstScans:
    """The trail-by-trail order and the trimmed stabilizer scan must give
    what the scans they replaced give, so search results stay byte for byte
    the same."""

    def test_first_need_order_on_decomposition_sets(self):
        # every {0, D} with D | n*n over n <= 30 symbols, the sets the
        # decomposition search route asks for: walking the trails one after
        # another is the greedy completion order, so the decomposition
        # witnesses are the ones that order found
        for q in range(2, 31):
            N = q * q
            for D in range(1, N):
                if N % D == 0:
                    assert search._first_need_order(N, (0, D), D) == \
                        _scan_greedy_completion_order(N, (0, D), q), (q, D)

    def test_trimmed_stabilizer_scan(self):
        # every set with N <= 32, wrap-around progressions such as
        # (0, 4, 8, 12) mod 16 among them
        stabilized = 0
        for q, n in [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (4, 2),
                     (5, 2)]:
            N = q ** n
            for I in itertools.combinations(range(N), n):
                got = search._stabilizer_counting_bound(q, n, I, N)
                assert got == _full_scan_stabilizer_bound(q, n, I, N), I
                stabilized += got is not None
        assert stabilized > 0

    def test_two_positions_past_4096_walk_the_trails(self):
        # N = 65 * 65 > 4096: walking {0, 65} trail by trail takes 50,830
        # nodes; translate order ran out of the decomposition route's
        # default 2M-node budget
        cert = decide_valid(65, 2, (0, 65), node_limit=2_000_000)
        assert cert.verdict == VALID
        assert cert.nodes_explored < 100_000


class TestInvariants:
    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_affine_consistency(self, data):
        q, n = 2, 4
        N = q ** n
        I = tuple(sorted(data.draw(
            st.sets(st.integers(0, N - 1), min_size=n, max_size=n))))
        canon = canonicalize_affine(I, N).canonical
        assert decide_valid(q, n, I).verdict == decide_valid(q, n, canon).verdict

    def test_wraparound_progressions_invalid(self):
        # AP(r, q**r / r) for r | q, r >= 2, within in-memory scale.
        # (r = 1 is the degenerate singleton {0}, which is trivially valid.)
        cases = []
        for q in range(2, 9):
            for r in range(2, q + 1):
                if q % r == 0 and q ** r <= 2 ** 20:
                    cases.append((q, r))
        assert cases  # grid is nonempty
        for q, r in cases:
            d = q ** r // r
            I = tuple(j * d for j in range(r))
            cert = decide_valid(q, r, I)
            assert cert.verdict == INVALID, (q, r)

    def test_singleton_window_valid(self):
        cert = decide_valid(2, 1, (0,))
        assert cert.verdict == VALID


class TestAtlas:
    def test_atlas_3_3(self):
        a = atlas(3, 3, 3)
        assert a.classes(INVALID) == [(0, 9, 18)]

    def test_atlas_2_4_valid_classes(self):
        a = atlas(2, 4, 4)
        assert a.classes(VALID) == [
            (0, 1, 2, 3), (0, 1, 2, 6), (0, 1, 2, 7), (0, 1, 3, 4),
            (0, 1, 3, 7), (0, 1, 3, 8), (0, 1, 3, 9), (0, 1, 3, 14),
            (0, 2, 4, 6),
        ]

    def test_atlas_2_3_single_invalid(self):
        a = atlas(2, 3, 3)
        assert a.classes(INVALID) == [(0, 1, 3)]

    def test_lines_are_sorted_and_tab_separated(self):
        a = atlas(2, 3, 3)
        lines = a.lines()
        assert lines == sorted(lines)
        assert all("\t" in ln for ln in lines)

    def test_run_atlas_script_reports_progress_under_jobs(self, tmp_path):
        import ucycle

        src = str(pathlib.Path(ucycle.__file__).resolve().parents[1])
        script = pathlib.Path(__file__).resolve().parents[1] / "scripts" / \
            "run_atlas.py"
        out = tmp_path / "atlas.tsv"
        proc = subprocess.run(
            [sys.executable, str(script), "--q", "2", "--n", "3", "--size",
             "3", "--checkpoint", str(tmp_path / "ck.tsv"), "--out",
             str(out), "--jobs", "2"],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0, proc.stderr
        classes = [ln.split("\t")[0] for ln in out.read_text().splitlines()]
        # progress lines read "[  elapsed s] count  set<TAB>verdict"
        progress = [ln.split("\t")[0].split()[-1]
                    for ln in proc.stdout.splitlines() if ln.startswith("[")]
        assert sorted(progress) == sorted(classes)

    def test_resume_is_byte_identical(self, tmp_path):
        ck = tmp_path / "ck.tsv"
        full = atlas(2, 3, 3, checkpoint=str(ck))
        # simulate interruption: keep only the first two checkpoint lines
        lines = ck.read_text().splitlines()
        ck.write_text("\n".join(lines[:2]) + "\n")
        resumed = atlas(2, 3, 3, checkpoint=str(ck))
        assert resumed.lines() == full.lines()
