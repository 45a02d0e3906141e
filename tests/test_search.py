"""Validity search: verdicts, pruning soundness, and atlas reproduction."""

import hashlib
import itertools
import math
import os
import pathlib
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from multiprocessing.connection import Connection

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
from ucycle import kernel, search
from ucycle.search import (
    INVALID,
    VALID,
    BudgetExceeded,
    atlas,
    decide_valid,
    format_line,
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

    def test_time_budget_of_the_position_search(self):
        # {0, 27} over 9 symbols runs past 3M nodes, and the position search
        # reads the clock every 8192 of them
        with pytest.raises(BudgetExceeded,
                           match="time budget exceeded") as info:
            decide_valid(9, 2, (0, 27), time_limit=0.05)
        assert info.value.nodes >= 8192

    @pytest.mark.parametrize("limit", [1, 1_000, 8_192, 100_000])
    def test_node_budget_of_the_position_search(self, limit):
        # {0, 27} over 9 symbols, and a 13-element set past N = 4096, both
        # run past 100,000 nodes; the search stops at the first node over
        rng = random.Random(8192)
        for q, n, I in [(9, 2, (0, 27)),
                        (2, 13, tuple(rng.sample(range(8192), 13)))]:
            with pytest.raises(BudgetExceeded,
                               match="node budget exceeded") as info:
                decide_valid(q, n, I, node_limit=limit)
            assert info.value.nodes == limit + 1, (q, n)

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
        # of Z_8 that holds 0, without the stabilizer rule: the exact-cover
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
            kind, _, syms = search._cover_search(
                search._cover_tables(q, n, I, N), None, None)
            assert kind == search._dfs(q, n, I, N, None, None)[0], I
            found = kind == "found"
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
        assert cert.method == "stabilizer"
        assert (cert.verdict == VALID) == brute_force_valid(2, 4, I)


REFUTE25 = [(0, 1, 2, 6, 26), (0, 1, 3, 10, 12), (0, 1, 2, 6, 19)]


def _cert_key(cert):
    return (cert.verdict, cert.witness, cert.nodes_explored, cert.method)


class TestCubes:
    """The exact cover split at its first real branch: every process count
    gives the same certificate, the same budget point and the same node
    count, which is the prefix's plus the cubes' up to the deciding one."""

    def test_jobs_give_identical_certificates(self, forks, monkeypatch):
        # forking after every first cube makes the small classes use helpers
        # too.  (3,4) 0,1,2,6 forks at the default point: its witness lies
        # in the first of four cubes, after 140,296 nodes
        small = [(q, n, rep) for q, n in [(2, 4), (3, 3)]
                 for rep in affine_class_representatives(q ** n, n)]
        for fork_after in (0, search._FORK_AFTER):
            monkeypatch.setattr(search, "_FORK_AFTER", fork_after)
            cases = small if fork_after == 0 else [(3, 4, (0, 1, 2, 6))]
            for q, n, I in cases:
                certs = [decide_valid(q, n, I, jobs=jobs)
                         for jobs in (1, 2, 3)]
                assert len({_cert_key(c) for c in certs}) == 1, (q, n, I)
            # decide_valid falls back to one process while another thread
            # runs, and then compares one process with itself
            assert forks, fork_after
            forks.clear()

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    @pytest.mark.parametrize("q,n,I", [(2, 5, (0, 1, 2, 6, 26)),
                                       (3, 3, (0, 1, 2))])
    def test_budget_raises_where_one_process_would(self, jobs, q, n, I,
                                                   monkeypatch):
        # 0,1,2 forces a move before its first branch and is cheap enough
        # to try every limit; forking after the first cube gives it helpers
        monkeypatch.setattr(search, "_FORK_AFTER", 0)
        total = decide_valid(q, n, I, jobs=1).nodes_explored
        limits = range(total) if total < 100 else (10, 1_000, 5_000, 9_000,
                                                   total - 1)
        for limit in limits:
            with pytest.raises(BudgetExceeded, match="node budget") as info:
                decide_valid(q, n, I, node_limit=limit, jobs=jobs)
            assert info.value.nodes == limit + 1
        cert = decide_valid(q, n, I, node_limit=total, jobs=jobs)
        assert cert.nodes_explored == total

    @pytest.mark.parametrize("q,n,I", [(2, 5, I) for I in REFUTE25] + [
        (2, 5, (0, 1, 2, 10, 13)), (3, 4, (0, 1, 7, 8)), (3, 3, (0, 1, 2))])
    def test_nodes_are_the_prefix_plus_the_cubes(self, q, n, I):
        # each cube searched on its own from a fresh state; it runs the
        # prefix's nodes again
        N = q ** n
        tables = search._cover_tables(q, n, I, N)
        kind, prefix, count = search._cover_tree(tables, None, None)
        assert kind == "branch" and count > 1
        total = prefix
        for cube in range(count):
            kind, nodes, _ = search._cover_tree(tables, cube, None)
            found = kind == "found"
            total += nodes - prefix
            if found:
                break
        cert = decide_valid(q, n, I)
        assert cert.valid == found
        assert cert.nodes_explored == total


@pytest.fixture
def python_engine(monkeypatch):
    """The exact cover on its Python body, as where no compiler exists."""
    monkeypatch.setattr(kernel, "load", lambda: None)


class TestCubesPython(TestCubes):
    """The same checks on the Python search."""

    pytestmark = pytest.mark.usefixtures("python_engine")


@pytest.fixture
def forks(monkeypatch):
    """The calls to `os.fork`, on a host taken to have 3 CPUs."""
    monkeypatch.setattr(search, "_cpus", lambda: 3)
    calls = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: calls.append(1) or fork())
    return calls


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _wait_for(path, timeout=30):
    deadline = time.monotonic() + timeout
    while not path.exists():
        assert time.monotonic() < deadline, f"{path.name} never appeared"
        time.sleep(0.001)


# cube 0 of this class is exhausted after 1,971 nodes, cube 1 holds the
# first witness (235 nodes), and cube 2 is exhausted after 1,257 nodes
HAND_OFF = (0, 1, 2, 6, 8)


def _steer(monkeypatch, tmp_path, abandon):
    """Make the one helper of `decide_valid(2, 5, HAND_OFF, jobs=2)` take
    cube 1, by marker files rather than timing.  The caller forks inside
    cube 0 and waits until the helper has started its first cube.  With
    `abandon`, the helper starts cube 1 only once the caller has taken
    cube 2, and the caller searches cube 2 only once the helper has sent
    cube 1's witness.  Returns the (cube, result) pairs of the caller's own
    cube searches; the prefix is cube None."""
    caller = os.getpid()
    started, taken, sent = (tmp_path / m for m in ("started", "taken", "sent"))
    tree, fork, send = search._cover_tree, os.fork, Connection.send
    searched = []

    def steered_tree(tables, i, *args):
        if os.getpid() != caller:
            started.touch()
            if abandon and i == 1:
                _wait_for(taken)
            return tree(tables, i, *args)
        if abandon and i not in (None, 0):
            taken.touch()
            _wait_for(sent)
        got = tree(tables, i, *args)
        searched.append((i, got))
        return got

    def steered_fork():
        pid = fork()
        if pid:
            _wait_for(started)
        return pid

    def steered_send(conn, obj):
        send(conn, obj)
        if obj[1][0] == "found":
            sent.touch()

    monkeypatch.setattr(search, "_FORK_AFTER", 0)
    monkeypatch.setattr(search, "_cpus", lambda: 2)
    monkeypatch.setattr(search, "_cover_tree", steered_tree)
    monkeypatch.setattr(Connection, "send", steered_send)
    monkeypatch.setattr(os, "fork", steered_fork)
    return searched


class TestHelpers:
    """Forked helpers never outlive a call, whatever ends it."""

    @pytest.fixture(autouse=True)
    def fork_early(self, monkeypatch):
        # the (2,5) classes here take 10,469 nodes at most, below the
        # default fork point; each forks once its first cube has spent 2,048
        monkeypatch.setattr(search, "_FORK_AFTER", 2048)

    @pytest.mark.parametrize("I,verdict", [((0, 1, 2, 10, 13), VALID),
                                           ((0, 1, 4, 15, 20), INVALID)])
    def test_verdicts(self, forks, I, verdict):
        # both classes spend over 2,048 nodes in their first cube
        assert decide_valid(2, 5, I, jobs=2).verdict == verdict
        assert forks
        _no_child_left()

    def test_node_budget(self, forks):
        with pytest.raises(BudgetExceeded, match="node budget") as info:
            decide_valid(2, 5, (0, 1, 4, 15, 20), node_limit=5_000, jobs=2)
        assert info.value.nodes == 5_001
        assert forks
        _no_child_left()

    def test_time_budget(self, forks):
        with pytest.raises(BudgetExceeded, match="time budget"):
            decide_valid(3, 4, (0, 1, 3, 35), time_limit=0.3, jobs=2)
        assert forks
        _no_child_left()

    def test_a_failing_helper_is_an_error(self, forks, monkeypatch):
        # the caller forks inside cube 0; the helper inherits the patched
        # cube search and fails on its first cube, unless the caller takes
        # cube 1 first and fails there itself: an error either way
        I = (0, 1, 4, 15, 20)
        tree = search._cover_tree

        def failing(tables, cube, *args):
            if cube is not None and cube >= 1:
                raise ZeroDivisionError("cube search failed")
            return tree(tables, cube, *args)

        monkeypatch.setattr(search, "_cover_tree", failing)
        with pytest.raises((RuntimeError, ZeroDivisionError),
                           match="cube search failed"):
            decide_valid(2, 5, I, jobs=2)
        assert forks
        _no_child_left()

    def test_a_helper_that_exits_without_a_result(self, forks, monkeypatch,
                                                  tmp_path):
        # the helper takes a cube and exits without sending its result; the
        # caller, out of cubes, must find no helper left to wait for, and
        # not block on one.  The fork returns once the helper has left
        caller, left = os.getpid(), tmp_path / "left"
        tree, fork = search._cover_tree, os.fork

        def exiting(*args):
            if os.getpid() != caller:
                left.touch()
                os._exit(0)
            return tree(*args)

        def waiting_fork():
            pid = fork()
            if pid:
                _wait_for(left)
            return pid

        def timeout(*_):
            raise TimeoutError("the caller waited for an exited helper")

        monkeypatch.setattr(search, "_cover_tree", exiting)
        monkeypatch.setattr(os, "fork", waiting_fork)
        old = signal.signal(signal.SIGALRM, timeout)
        signal.alarm(60)
        try:
            with pytest.raises(RuntimeError, match="exited before every"):
                decide_valid(2, 5, (0, 1, 4, 15, 20), jobs=2)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)
        assert forks
        _no_child_left()

    def test_a_slow_helper_keeps_cube_order(self, forks, monkeypatch):
        # cubes 0 and 1 hold no witness, cube 2 does.  The helper takes
        # cube 1 and answers late, while the caller finds the witness in
        # cube 2; the class is decided only once cube 1 is in.
        I = (0, 1, 2, 10, 13)
        expected = _cert_key(decide_valid(2, 5, I, jobs=1))
        caller = os.getpid()
        tree = search._cover_tree

        def slow(*args):
            if os.getpid() != caller:
                time.sleep(0.2)
            return tree(*args)

        monkeypatch.setattr(search, "_cover_tree", slow)
        assert _cert_key(decide_valid(2, 5, I, jobs=2)) == expected
        assert forks
        _no_child_left()

    def test_the_witness_of_a_helper_cube(self, monkeypatch, tmp_path):
        # the caller never searches cube 1, so the certificate's witness is
        # the one the helper sent
        expected = _cert_key(decide_valid(2, 5, HAND_OFF, jobs=1))
        searched = _steer(monkeypatch, tmp_path, abandon=False)
        assert _cert_key(decide_valid(2, 5, HAND_OFF, jobs=2)) == expected
        assert 1 not in [i for i, _ in searched]
        _no_child_left()

    def test_the_caller_abandons_its_cube(self, monkeypatch, tmp_path):
        # the helper's witness in cube 1 decides the class while the caller
        # searches cube 2, which it drops at its first poll
        expected = _cert_key(decide_valid(2, 5, HAND_OFF, jobs=1))
        searched = _steer(monkeypatch, tmp_path, abandon=True)
        assert _cert_key(decide_valid(2, 5, HAND_OFF, jobs=2)) == expected
        assert [i for i, _ in searched] == [None, 0, 2]
        assert searched[-1][1] is None
        _no_child_left()

    def test_no_fork_while_other_threads_run(self, forks):
        import threading

        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            cert = decide_valid(2, 5, (0, 1, 4, 15, 20), jobs=2)
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert cert.verdict == INVALID and not forks

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError, match="jobs"):
            decide_valid(2, 3, (0, 1, 2), jobs=0)


class TestHelpersPython(TestHelpers):
    """The same checks on the Python search."""

    pytestmark = pytest.mark.usefixtures("python_engine")


def _outcome(q, n, I, **kw):
    try:
        cert = decide_valid(q, n, I, **kw)
    except BudgetExceeded as exc:
        return "budget", exc.nodes
    return _cert_key(cert)


# sha256 of one line `rep verdict witness nodes method` per (2,5) class, in
# canonical order, as the Python search gives them
CERTS_25_SHA256 = (
    "f66a56a45a132fcf66aceefb1d85f0b95f2b3e97de039b1ff6417ecd7b70542c")


class TestKernel:
    """The compiled exact cover against its Python reference: the same
    certificates, budget points and errors, and no silent fallback."""

    def test_loads_where_cc_is_on_path(self):
        if shutil.which("cc") is None:
            pytest.skip("no cc on PATH: the Python search runs alone")
        assert kernel.load() is not None
        assert decide_valid(2, 4, (0, 1, 2, 6)).engine == "c"

    def test_python_engine_when_it_is_off(self, python_engine):
        assert decide_valid(2, 4, (0, 1, 2, 6)).engine == "python"

    def test_leaves_no_build_directory(self, monkeypatch, tmp_path):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        lib = kernel.load.__wrapped__()
        assert (lib is None) == (shutil.which("cc") is None)
        assert list(tmp_path.iterdir()) == []

    def test_no_temporary_directory_means_no_kernel(self, monkeypatch,
                                                    tmp_path):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
        assert kernel.load.__wrapped__() is None
        assert list(tmp_path.iterdir()) == []

    def test_the_compile_counts_against_no_budget(self, monkeypatch):
        # a first load that takes 1 s, as a slow compile would; the search
        # itself takes a few ms in C and about 0.2 s in Python
        lib = kernel.load()
        calls = []

        def slow_load():
            if not calls:
                time.sleep(1.0)
            calls.append(1)
            return lib

        monkeypatch.setattr(kernel, "load", slow_load)
        cert = decide_valid(2, 5, REFUTE25[0], time_limit=0.5, jobs=1)
        assert calls and cert.verdict == INVALID
        assert cert.elapsed < 0.5

    def test_same_certificates_on_every_small_class(self, forks,
                                                    monkeypatch):
        # at jobs 2 and 3 every class forks after its first cube
        monkeypatch.setattr(search, "_FORK_AFTER", 0)
        cases = [(q, n, rep) for q, n in [(2, 3), (2, 4), (3, 3)]
                 for rep in affine_class_representatives(q ** n, n)]
        for jobs in (1, 2, 3):
            compiled = [_outcome(*c, jobs=jobs) for c in cases]
            with monkeypatch.context() as m:
                m.setattr(kernel, "load", lambda: None)
                assert [_outcome(*c, jobs=jobs) for c in cases] == compiled
        assert forks

    def test_every_2_5_certificate(self):
        # all 454 classes on the default engine against the Python
        # search's pinned certificates; a seeded sample below runs both
        lines = []
        for rep in affine_class_representatives(32, 5):
            cert = decide_valid(2, 5, rep, jobs=1)
            lines.append(" ".join([",".join(map(str, rep)), cert.verdict,
                                   cert.witness.text() if cert.witness
                                   else "-", str(cert.nodes_explored),
                                   cert.method]))
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == CERTS_25_SHA256, digest

    @pytest.mark.parametrize("limit", [None, 5_000])
    def test_same_certificates_on_a_2_5_sample(self, limit, monkeypatch):
        sample = random.Random(25).sample(
            affine_class_representatives(32, 5), 24)
        compiled = [_outcome(2, 5, I, node_limit=limit, jobs=1)
                    for I in sample]
        monkeypatch.setattr(kernel, "load", lambda: None)
        assert [_outcome(2, 5, I, node_limit=limit, jobs=1)
                for I in sample] == compiled

    @pytest.mark.parametrize("q,n,limit", [(3, 4, 5_000), (2, 7, 3_000),
                                           (2, 10, 400), (4, 5, 1_000),
                                           (2, 12, 150), (16, 3, 300)])
    def test_same_budget_point_on_seeded_samples(self, q, n, limit,
                                                 monkeypatch):
        # N = 81, 128, 1024 and 4096: a live set spans several words
        N = q ** n
        rng = random.Random(N + q)
        sets = [tuple(rng.sample(range(N), n)) for _ in range(3)]
        compiled = [_outcome(q, n, I, node_limit=limit, jobs=1)
                    for I in sets]
        monkeypatch.setattr(kernel, "load", lambda: None)
        assert [_outcome(q, n, I, node_limit=limit, jobs=1)
                for I in sets] == compiled

    def test_node_limit_reaches_the_kernel_whole(self):
        # (4,3) 0,8,24 runs past 30M nodes.  A limit passed as a C int
        # instead of a long long was once ignored here, and one past 2**31
        # must not wrap
        with pytest.raises(BudgetExceeded, match="node budget") as info:
            decide_valid(4, 3, (0, 8, 24), node_limit=100, jobs=1)
        assert info.value.nodes == 101
        I = REFUTE25[0]
        assert _outcome(2, 5, I, node_limit=2 ** 40, jobs=1) == \
            _outcome(2, 5, I, jobs=1)

    def test_a_limit_below_zero_stops_at_the_first_node(self, monkeypatch):
        # a cube's budget is what the lower cubes left, below 0 once they
        # spent it; the kernel reads a limit below 0 as none, so the
        # binding must pass it on as 0
        def cube_zero():
            tables = search._cover_tables(2, 5, REFUTE25[0], 32)
            return search._cover_tree(tables, 0, -5)

        compiled = cube_zero()
        monkeypatch.setattr(kernel, "load", lambda: None)
        assert cube_zero() == compiled == ("nodes", 1, None)

    def test_an_interrupt_stops_the_search(self):
        # a signal is handled when the kernel hands back to Python every
        # 1,024 nodes; (4,3) 0,8,24 would run for minutes
        import ucycle

        src = str(pathlib.Path(ucycle.__file__).resolve().parents[1])
        code = ("import sys\n"
                "from ucycle import search\n"
                "search.decide_valid(2, 5, (0, 1, 2, 6, 26), jobs=1)\n"
                "print('ready', flush=True)\n"
                "try:\n"
                "    search.decide_valid(4, 3, (0, 8, 24), jobs=1)\n"
                "except KeyboardInterrupt:\n"
                "    print('interrupted')\n")
        proc = subprocess.Popen([sys.executable, "-c", code],
                                stdout=subprocess.PIPE, text=True,
                                env=dict(os.environ, PYTHONPATH=src))
        try:
            assert proc.stdout.readline() == "ready\n"
            time.sleep(0.2)
            proc.send_signal(signal.SIGINT)
            out, _ = proc.communicate(timeout=10)
        finally:
            proc.kill()
            proc.wait()
        assert out == "interrupted\n"

    @pytest.mark.parametrize("exc", [ZeroDivisionError, KeyboardInterrupt])
    def test_an_exception_in_poll_reaches_the_caller(self, exc):
        # poll runs every 1,024 nodes; a helper's failure and an interrupt
        # both arrive there
        tables = search._cover_tables(2, 5, REFUTE25[0], 32)
        polled = []

        def poll(nodes):
            polled.append(nodes)
            raise exc("poll failed")

        with pytest.raises(exc, match="poll failed"):
            search._cover_tree(tables, 0, None, poll)
        assert polled == [1024]


class TestDriver:
    """One driver runs the cubes of a search and the classes of an atlas:
    results in unit order for any process count, and no helper left."""

    @pytest.mark.parametrize("q,n", [(2, 4), (3, 3)])
    def test_atlas_is_the_same_for_any_jobs(self, q, n, forks, monkeypatch,
                                            tmp_path):
        monkeypatch.setattr(search, "_FORK_AFTER", 0)
        runs = []
        for jobs in (1, 2, 3):
            ck = tmp_path / f"ck{jobs}.tsv"
            lines = list(atlas(q, n, checkpoint=str(ck), jobs=jobs).items())
            runs.append((lines, ck.read_bytes()))
            assert bool(forks) == (jobs > 1), jobs
            forks.clear()
            _no_child_left()
        assert runs[0] == runs[1] == runs[2]

    def test_no_child_left_after_a_budgeted_atlas(self, forks, monkeypatch):
        monkeypatch.setattr(search, "_FORK_AFTER", 0)
        a = atlas(2, 4, node_limit=5, jobs=2)
        assert list(a.values()).count(search.INCONCLUSIVE) == 22
        assert forks
        _no_child_left()

    def test_no_child_left_after_a_failing_atlas(self, forks, monkeypatch):
        # every class after the first fails, in the caller or in a helper
        monkeypatch.setattr(search, "_FORK_AFTER", 0)
        decide, first = search.decide_valid, (0, 1, 2, 3)

        def failing(q, n, I, **kw):
            if I != first:
                raise ZeroDivisionError("class search failed")
            return decide(q, n, I, **kw)

        monkeypatch.setattr(search, "decide_valid", failing)
        with pytest.raises((RuntimeError, ZeroDivisionError),
                           match="class search failed"):
            atlas(2, 4, jobs=2)
        assert forks
        _no_child_left()

    def test_no_more_processes_than_cpus(self, monkeypatch):
        # fork, kill and waitpid are stubbed, so no process starts: each
        # helper is a made-up pid whose result pipe is closed at once, and
        # the caller decides every class itself.  Before the cap, jobs=1000
        # forked once per class left, 24 times here
        kernel.load()   # built by a subprocess, before the stubs
        expected = atlas(2, 4, jobs=1)
        forked, killed, reaped = [], [], []
        fake = 1_000_000
        monkeypatch.setattr(search, "_FORK_AFTER", 0)
        monkeypatch.setattr(search, "_cpus", lambda: 2)
        monkeypatch.setattr(os, "fork", lambda: forked.append(1) or fake)
        monkeypatch.setattr(os, "kill", lambda pid, sig: killed.append(pid))
        monkeypatch.setattr(os, "waitpid",
                            lambda pid, opts: reaped.append(pid) or (pid, 0))
        assert atlas(2, 4, jobs=1000) == expected
        assert forked == [1]
        assert killed == reaped == [fake]

    def test_many_units_come_back_in_order(self, forks, monkeypatch):
        # far more unit indices than a pipe holds: the helper takes them
        # one at a time, so the caller never blocks on a full pipe
        def timeout(*_):
            raise TimeoutError("driver did not finish")

        monkeypatch.setattr(search, "_FORK_AFTER", 0)
        count = 70_000
        old = signal.signal(signal.SIGALRM, timeout)
        signal.alarm(120)
        try:
            got = list(search._drive(count, lambda i, results, poll:
                                     ("done", 0, [i]), 2))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)
        assert got == [("done", 0, [i]) for i in range(count)]
        assert forks
        _no_child_left()


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


def _full_scan_stabilized(I, N):
    """Oracle: whether some shift 1..N-1 maps I onto itself, trying every
    one as a rotation of I's N-bit mask."""
    mask = sum(1 << i for i in I)
    full = (1 << N) - 1
    return any(((mask << s) | (mask >> (N - s))) & full == mask
               for s in range(1, N))


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
                got = search._stabilized(I, N)
                assert got == _full_scan_stabilized(I, N), I
                stabilized += got
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
        a = atlas(3, 3)
        assert [rep for rep, v in a.items() if v == INVALID] == [(0, 9, 18)]

    def test_atlas_2_4_valid_classes(self):
        a = atlas(2, 4)
        assert [rep for rep, v in a.items() if v == VALID] == [
            (0, 1, 2, 3), (0, 1, 2, 6), (0, 1, 2, 7), (0, 1, 3, 4),
            (0, 1, 3, 7), (0, 1, 3, 8), (0, 1, 3, 9), (0, 1, 3, 14),
            (0, 2, 4, 6),
        ]

    def test_atlas_2_3_single_invalid(self):
        a = atlas(2, 3)
        assert [rep for rep, v in a.items() if v == INVALID] == [(0, 1, 3)]

    def test_lines_are_sorted_and_tab_separated(self):
        a = atlas(2, 3)
        lines = [format_line(rep, v) for rep, v in a.items()]
        assert lines == sorted(lines)
        assert all("\t" in ln for ln in lines)

    def test_resume_is_byte_identical(self, tmp_path):
        ck = tmp_path / "ck.tsv"
        full = atlas(2, 3, checkpoint=str(ck))
        # simulate interruption: keep only the first two checkpoint lines
        lines = ck.read_text().splitlines()
        ck.write_text("\n".join(lines[:2]) + "\n")
        resumed = atlas(2, 3, checkpoint=str(ck))
        assert list(resumed.items()) == list(full.items())
