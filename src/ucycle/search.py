"""Validity decisions for index sets by pruned exhaustive search, plus the
affine-class atlas machinery.

A set I of n residues mod N = q**n is valid when some cyclic string achieves
every n-word on a translate of I.  There are exactly N translates and N
words, so a complete string makes the translate-to-word map a bijection.

Exact cover.  For n >= 3 and N <= 4096 the search treats that bijection as
an exact cover with colours (Knuth, TAOCP 4B, 7.2.2.1, Algorithm C): the
translates and the words are the items, each matched exactly once, and the
option (t, w) colours the positions t + I with the symbols of w.

* Live sets.  A translate with some but not all of its positions fixed is
  on the frontier; its live set is the bitmask of the words that agree
  with those positions.  Fixing a position ANDs one coordinate mask into
  the n translates through it.  A translate whose last position is fixed
  closes at once on its word, and the node fails if a closed translate
  already reads that word.
* Most constrained item (MRV; Haralick and Elliott, AIJ 1980).  Each node
  scans the frontier, in ascending translate order, for the translate with
  the fewest live unused words.  The scan stops at the first translate it
  meets with at most one: with none the node fails, with one that word is
  forced.  Otherwise the node branches on the least translate among those
  with the fewest, trying words in ascending order.  Once at most one
  translate is untouched, one pass over the frontier also finds the words
  with no candidate translate, which fail the node, and those with exactly
  one, which are forced; before that, every word still has two untouched
  candidates.  Forced
  moves reach the same state in any order, so the verdict and the witness
  do not depend on which one the scan meets first; the node count does,
  hence the fixed scan order.
* Cubes (cube-and-conquer; Heule, Kullmann, Wieringa and Biere, HVC 2011).
  The search is split at its first real branch, after the pin and its
  forced moves (at q = 2, the complement rule's branch below).  Cube i,
  option i there, is a fresh search that runs that prefix again, takes
  only option i and exhausts it, so it does not depend on which process
  runs it or what ran before.  The class is decided in cube order: valid
  at the least cube with a witness once every lower cube is exhausted,
  invalid when all are.  `nodes_explored` is the prefix's nodes plus, in
  cube order up to and including the deciding cube, each cube's nodes
  less the prefix's: one number whatever the CPU count.
* CPUs.  One driver (`_drive`) runs numbered units on up to `jobs`
  processes, never more than `_cpus()`: the cubes of one search, or the
  classes of an atlas, each decided there by a one-process
  `decide_valid`.  The caller runs units
  itself; once they have spent 65,536 nodes with two units left, its own
  included, it forks one helper per further process.  Helpers take the
  next unit from one pipe that holds it as a single token, so the pipe
  never fills however many units there are, and each sends its results
  back on its own pipe.  The caller reads them before each unit and every
  1,024 nodes, yields the results in unit order, drops a cube once the
  answer no longer depends on it, and kills and reaps every helper when it
  is done.  While other threads run, or where `os.fork` is missing, it
  runs everything in one process.  Each cube runs under the node budget
  and every process reads the clock against the same deadline.  Every
  search returns an outcome (kind, nodes, symbols), a budget that ran out
  included, and only `decide_valid` raises: where a one-process run
  would, with the node count at the limit + 1.

Kernel.  Where a C compiler is on PATH, `_cover_tree` runs in C
(`kernel.c`, built by `kernel.load` when a process first reaches the
exact cover, before `decide_valid` starts its clock, so the compile
counts against no budget); the cube order, `_drive`, the clock and the
final `verify_cover` stay here.  Both engines call the same `tick` every
1,024 nodes and return the same outcomes.  The kernel walks the same
tree in the same order, so the certificate, node count included, is the
same on either engine.  The Python body is the fallback and the reference
that the tests hold the kernel to.  `ValidityCertificate.engine` says
which one ran.

The live masks are N-bit ints (ceil(N/64) 64-bit words in the kernel) and
the trail keeps n of them per fixed position, so the exact cover's memory
grows as n*N**2 bits and its time per node with N.  Sets with |I| <= 2,
and sets past N = 4096, are searched depth-first over positions instead
(`_dfs`), in O(n*N) memory, taking the positions in the order that
translates first need them.  For I = {a, b} the translates are walked 0,
D, 2D, ... with D = b - a, coset by coset of <D>, so each window closes as
soon as it opens and a {0, D}-cycle finishes one trail before it starts
the next: (9, 2) {0, 9} is decided in 204 nodes, against more than 2M in
plain order.  Other sets take the translates 0, 1, 2, ...

Symmetry breaking.  Rotating a string, relabeling its symbols and, at
q = 2, complementing it all map complete strings to complete strings, so
the search explores one member of each orbit:

* rotation - a complete string has exactly one translate reading 0**n, and
  rotating the string moves that translate to 0.  So the search fixes I's
  positions to 0 before anything else (a lex-leader rule for the cyclic
  group, after Crawford, Ginsberg, Luks and Roy, KR 1996);
* relabeling - symbols that no position holds yet are interchangeable: a
  permutation of them fixes every fixed position, every closed word and
  every symbol count, so it maps the subtree below one option onto the
  subtree below another (Van Hentenryck, Flener, Pearson and Agren, IJCAI
  2003).  So the exact-cover search, branching on a translate, keeps only
  the words whose new symbols are the least unused ones in first-occurrence
  order along the coordinates, and `_dfs` uses a symbol only after every
  smaller one.  Neither argument depends on the order of the branching, so
  both stay sound under a dynamic order.  The permutation leaves 0 fixed,
  because the rotation rule places 0 first, so the two rules together
  still reach every orbit.  A word with one candidate translate is never
  filtered: relabeling it would name another word;
* complement (q = 2) - right after the pin the exact-cover search branches
  on the word 1**n, over the translates r = 1, 2, ..., N//2 in ascending
  order.  If s is complete, reads 0**n at 0 and 1**n at r, then
  sigma(s)(x) = 1 - s(x + r) reads at translate t the complement of what
  s reads at t + r: it is complete, reads 0**n at 0 and 1**n at N - r.  So
  each orbit {s, sigma(s)} has a member with r <= N/2.  At q = 2 only one
  symbol is unused after the pin, so relabeling does nothing and the two
  rules cannot conflict.  For q >= 3 the same idea (1**n on r <= N/q, the
  other constant words kept in [2r, N - r]) is sound but costs nodes under
  MRV: (3,3) went from 55,909 to 70,921 nodes and the (3,4) class
  0,1,7,8 from 3,491 to 387,528, so q >= 3 searches as before.

Two further sound rules:

* symbol counting - in any valid string each symbol occurs exactly q**(n-1)
  times (sum the per-coordinate symbol tallies over all words);
* stabilizer (the repeated constant word) - if I + s = I for some s != 0,
  the windows at t and t + s read the same positions in another order.  A
  complete string reads 0**n at exactly one translate t, but then the window
  at t + s != t reads the same n zeros, so the set is invalid before any
  search.  This refutes arithmetic-progression sets with wrap-around
  instantly.  The same argument with 1**n refutes a stabilized set for
  reduced cycles on Z_(q**n - 1), which omit 0**n.

``invalid`` is only ever reported after exhaustion under these rules (a
stabilized set exhausts the tree at its root); running out of budget raises
:class:`BudgetExceeded` instead, and the atlas records such a class as
``inconclusive``.
"""
from __future__ import annotations

import math
import os
import sys
import time
from contextlib import closing, nullcontext, suppress
from dataclasses import dataclass

from .core import (
    BudgetExceeded,
    CycleParams,
    CyclicString,
    VerificationError,
    affine_class_representatives,
    content_lines,
    normalize_index_set,
    verify_cover,
)

VALID = "valid"
INVALID = "invalid"
INCONCLUSIVE = "inconclusive"   # an atlas class that ran out of budget

# Largest N for the exact-cover search.  Its live masks are N-bit ints and
# its trail keeps n of them per fixed position, so time per node and memory
# grow with N; past 4096 the position search wins on both.
_COVER_MAX_N = 4096

# the kinds of a search outcome (kind, nodes, symbols) that are a budget
# run out, with the message `decide_valid` raises for each
_BUDGETS = {"nodes": "node budget exceeded", "time": "time budget exceeded"}


@dataclass
class ValidityCertificate:
    index_set: tuple
    verdict: str
    witness: CyclicString | None
    nodes_explored: int
    elapsed: float
    method: str  # "search" or "stabilizer"
    engine: str  # "c" when the compiled kernel ran the exact cover

    @property
    def valid(self):
        return self.verdict == VALID


def _stabilized(I, N):
    """Whether I + s = I for some shift s != 0 mod N.  Such a shift maps
    I[0] onto another element of I, so only those shifts are tried."""
    iset = set(I)
    return any(all((i + s) % N in iset for i in I)
               for s in ((j - I[0]) % N for j in I[1:]))


def _first_need_order(N, I, step):
    # positions in the order translates first need them, the translates
    # taken 0, step, 2*step, ... around each coset of <step>, cosets by
    # least translate; I's own positions (pinned to 0) come first
    g = math.gcd(step, N)
    order = []
    seen = bytearray(N)
    for c in range(g):
        for k in range(N // g):
            t = c + k * step
            for i in I:
                p = (i + t) % N
                if not seen[p]:
                    seen[p] = 1
                    order.append(p)
    return order


def decide_valid(q, n, I, node_limit=None, time_limit=None, jobs=None):
    """Decide q-validity of I with a verified witness or a refutation.

    For |I| >= 3 and N <= 4096 this is the exact-cover search of the
    module docstring: each node branches on the most constrained translate
    or word, and `nodes_explored` counts the options it tried, forced ones
    included, summed over the prefix and the cubes up to the deciding one.
    Otherwise it is the depth-first search over positions in first-need
    order (trail by trail when |I| = 2), and `nodes_explored` counts
    symbol assignments.  A set that some shift s != 0 maps onto itself is
    refuted first, with 0 nodes and method "stabilizer": the window
    at t + s reads 0**n whenever the one at t does.

    `jobs` caps the processes one exact-cover search may use, and `_cpus()`
    caps `jobs`; None means all of those CPUs.  It is one process where
    `os.fork` is missing or while other threads run.  The verdict, witness and `nodes_explored`
    are the same for every `jobs`, and for either engine: the certificate's
    `engine` is "c" when the compiled kernel ran the exact cover, else
    "python".

    Deterministic: translate 0 is pinned to the word 0**n, at q = 2 the
    exact cover then places 1**n on translates 1 .. N//2 in ascending
    order, a real branch goes to the least translate among the most
    constrained, words and symbols are tried in ascending order, and
    relabeling is broken by first occurrence.  The witness is the first
    complete string in that order; it reads 0 at every position of I and
    passes `verify_cover`, in the calling process, before it is returned.
    A node or time budget that runs out raises `BudgetExceeded` and
    reports no verdict.  The clock starts after the kernel's compile, so
    neither the time budget nor `elapsed` includes it.
    """
    if jobs is None:
        jobs = _cpus()
    if jobs < 1:
        raise ValueError(f"jobs must be positive, got {jobs}")
    params = CycleParams.unreduced(q, n)
    N = params.L
    I = normalize_index_set(I, N)
    if len(I) != n:
        raise ValueError(f"index set must have {n} distinct residues mod {N}")
    stabilized = _stabilized(I, N)
    cover = not stabilized and n >= 3 and N <= _COVER_MAX_N
    engine = "python"
    if cover:
        from . import kernel

        if kernel.load() is not None:
            engine = "c"
    start = time.monotonic()    # after the compile: no budget pays for it
    deadline = None if time_limit is None else start + time_limit
    kind, nodes, chi_syms = (
        ("exhausted", 0, None) if stabilized
        else _cover_search(q, n, I, N, node_limit, deadline, jobs) if cover
        else _dfs(q, n, I, N, node_limit, deadline))
    elapsed = time.monotonic() - start
    if kind in _BUDGETS:
        raise BudgetExceeded(_BUDGETS[kind], nodes, elapsed)
    witness = None
    if kind == "found":
        witness = CyclicString(q, tuple(chi_syms))
        report = verify_cover(witness, params, I)
        if not report.complete:
            raise VerificationError("search produced a non-covering witness")
    return ValidityCertificate(
        index_set=I, verdict=VALID if kind == "found" else INVALID,
        witness=witness, nodes_explored=nodes, elapsed=elapsed,
        method="stabilizer" if stabilized else "search", engine=engine,
    )


def _cpus():
    """The CPUs this process may run on."""
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def _dfs(q, n, I, N, node_limit, deadline):
    target = q ** (n - 1)
    powers = [q ** (n - 1 - j) for j in range(n)]
    W = q ** n
    # flat arrays first: a size the memory cannot hold then fails at one
    # large allocation, with room left to raise MemoryError.  top: the
    # highest symbol allowed at each depth, 0 on I (translate 0 reads
    # 0**n), then any symbol the first-occurrence relabeling admits
    top = [0] * n + [q - 1] * (N - n)
    # state[t] packs (unassigned count)*W + (partial word code); an update
    # completes the window exactly when the packed value drops below W
    chi = [-1] * N
    state = [n * W] * N
    wrem = [sum(powers)] * N  # weight of the unassigned positions
    used = bytearray(W)
    counts = [0] * q
    sym = [-1] * N
    maxseen = [-1] * (N + 1)
    undo = [()] * N
    qrange = tuple(range(q))
    order = _first_need_order(N, I, I[1] - I[0] if n == 2 else 1)
    pos_wins = [[] for _ in range(N)]
    for j, i in enumerate(I):
        w = powers[j]
        for t in range(N):
            pos_wins[(i + t) % N].append((t, w))
    pos_wins = [tuple(x) for x in pos_wins]

    nodes = 0
    depth = 0
    while True:
        if depth == N:
            return "found", nodes, chi
        p = order[depth]
        cap = maxseen[depth] + 1
        if cap > top[depth]:
            cap = top[depth]
        s = sym[depth] + 1
        advanced = False
        wins = pos_wins[p]
        while s <= cap:
            if counts[s] < target:
                nodes += 1
                if node_limit is not None and nodes > node_limit:
                    return "nodes", nodes, None
                if deadline is not None and nodes % 8192 == 0 and \
                        time.monotonic() > deadline:
                    return "time", nodes, None
                completed = []
                applied = 0
                ok = True
                for t, w in wins:
                    v = state[t] + s * w - W
                    state[t] = v
                    wr = wrem[t] - w
                    wrem[t] = wr
                    applied += 1
                    if v < W:
                        if used[v]:
                            ok = False
                            break
                        used[v] = 1
                        completed.append(v)
                    elif v < 2 * W:
                        # one position left: prune when every symbol there
                        # lands on an already-used word
                        base = v - W
                        for s2 in qrange:
                            if not used[base + s2 * wr]:
                                break
                        else:
                            ok = False
                            break
                if ok:
                    chi[p] = s
                    counts[s] += 1
                    sym[depth] = s
                    undo[depth] = tuple(completed)
                    maxseen[depth + 1] = \
                        s if s > maxseen[depth] else maxseen[depth]
                    depth += 1
                    advanced = True
                    break
                for c in completed:
                    used[c] = 0
                for t, w in wins[:applied]:
                    state[t] += W - s * w
                    wrem[t] += w
            s += 1
        if advanced:
            continue
        sym[depth] = -1
        depth -= 1
        if depth < 0:
            return "exhausted", nodes, None
        p2 = order[depth]
        s2 = chi[p2]
        for c in undo[depth]:
            used[c] = 0
        for t, w in pos_wins[p2]:
            state[t] += W - s2 * w
            wrem[t] += w
        chi[p2] = -1
        counts[s2] -= 1


def _bits(m):
    """The set bits of m, ascending."""
    out = []
    while m:
        low = m & -m
        m ^= low
        out.append(low.bit_length() - 1)
    return out


def _least_new_symbols(words, q, powers, counts):
    """The words whose unused symbols (counts[c] == 0) first occur along
    the coordinates as the least unused ones, in ascending order: one word
    of each orbit under the permutations of the unused symbols."""
    unused = [c for c in range(q) if not counts[c]]
    if len(unused) < 2:
        return words
    rank = {c: r for r, c in enumerate(unused)}
    kept = []
    for w in words:
        k = 0
        for d in powers:
            r = rank.get(w // d % q, -1)
            if r > k:
                break
            if r == k:
                k += 1
        else:
            kept.append(w)
    return kept


def _periodic(block, period, N):
    """The N-bit mask that repeats the `period`-bit `block`, by doubling."""
    while period < N:
        block |= block << period
        period *= 2
    return block & ((1 << N) - 1)


def _cover_tables(q, n, I, N):
    """What every cube of one exact cover reads: the compiled kernel bound
    to I (`kernel.bind`) or, where it did not load, the Python search's
    (q, n, N, powers, cmask, pos_tr, tr_pos)."""
    from . import kernel

    tree = kernel.bind(q, n, N, I)
    if tree is not None:
        return tree
    powers = [q ** (n - 1 - j) for j in range(n)]
    # cmask[c][j]: bitmask of the words whose coordinate j reads c
    cmask = [tuple(_periodic(((1 << p) - 1) << c * p, q * p, N)
                   for p in powers) for c in range(q)]
    pos_tr = [tuple((p - i) % N for i in I) for p in range(N)]
    tr_pos = [tuple((t + i) % N for i in I) for t in range(N)]
    return q, n, N, powers, cmask, pos_tr, tr_pos


def _cover_tree(tables, cube, limit, tick=None):
    """The exact cover of the module docstring from a fresh state, as the
    outcome (kind, nodes, symbols).  With `cube` None it runs the pin and
    its forced moves and, at the first real branch, returns ("branch",
    nodes, the number of options).  With `cube` i it runs the same prefix,
    counting its nodes again, takes only option i of that branch and
    exhausts it.  Past `limit` nodes it ends as ("nodes", limit + 1, None).
    Every 1,024 nodes `tick(nodes)` may end it: "time" as ("time", nodes,
    None), "abandon" with the result None.  The compiled kernel runs it
    when it loaded; the body below is the fallback and the reference the
    kernel is tested against."""
    if callable(tables):
        return tables(cube, limit, tick)
    q, n, N, powers, cmask, pos_tr, tr_pos = tables
    target = q ** (n - 1)
    chi = [-1] * N
    nfix = [0] * N        # fixed positions of each translate
    live = [0] * N        # words consistent with them, on touched translates
    frontier = set()      # open translates with a fixed position
    counts = [0] * q
    trail = []            # fixed positions, in order
    olds = []             # the live masks each fix replaced, n per position
    untouched = N
    free = (1 << N) - 1   # words no closed translate reads
    nodes = 0
    stack = []            # frames [options, next, trail mark, free]
    two_n = 2 * N

    def place(t, w):
        # fix the open positions of t + I to the digits of w; False when a
        # symbol is over-used, a closed translate repeats a word or an open
        # one loses its last live word
        nonlocal untouched, free
        ok = True
        for p, d in zip(tr_pos[t], powers):
            if chi[p] >= 0:
                continue
            c = w // d % q
            chi[p] = c
            counts[c] += 1
            trail.append(p)
            if counts[c] > target:
                ok = False
            for u, m in zip(pos_tr[p], cmask[c]):
                k = nfix[u]
                if k:
                    old = live[u]
                    lv = old & m
                else:
                    old = lv = m
                    untouched -= 1
                    frontier.add(u)
                olds.append(old)
                live[u] = lv
                k += 1
                nfix[u] = k
                if k == n:
                    frontier.discard(u)
                    if lv & free:
                        free ^= lv
                    else:
                        ok = False
                elif not lv & free:
                    ok = False
            if not ok:
                return False
        return True

    def undo(mark):
        nonlocal untouched
        while len(trail) > mark:
            p = trail.pop()
            c = chi[p]
            chi[p] = -1
            counts[c] -= 1
            for u in reversed(pos_tr[p]):
                k = nfix[u]
                if k == n:
                    frontier.add(u)
                elif k == 1:
                    frontier.discard(u)
                    untouched += 1
                nfix[u] = k - 1
                live[u] = olds.pop()

    def branch():
        # the item to branch on, as its (translate, word) options; the scan
        # takes translates in ascending order, as the kernel does, and stops
        # at the first with at most one live word
        best = two_n * N
        for t in sorted(frontier):
            key = (live[t] & free).bit_count() * N + t
            if key < best:
                best = key
                if key < two_n:
                    break
        if best < N:
            return ()
        if best < two_n:
            t = best - N
            return ((t, (live[t] & free).bit_length() - 1),)
        if not frontier:
            # I lies in a proper subgroup and the cosets begun are done:
            # open the least untouched translate
            t = nfix.index(0)
            words = _least_new_symbols(_bits(free), q, powers, counts)
            return [(t, w) for w in words]
        if untouched < 2:
            # the words with no or one candidate translate; an untouched
            # translate is a candidate for every word
            once = twice = 0
            for t in frontier:
                m = live[t] & free
                twice |= once & m
                once |= m
            if untouched:
                twice |= once
                once = free
            if once != free:
                return ()
            if once != twice:
                single = once ^ twice
                w = (single & -single).bit_length() - 1
                for t in frontier:
                    if live[t] >> w & 1:
                        return ((t, w),)
                return ((nfix.index(0), w),)
        t = best % N
        words = _least_new_symbols(_bits(live[t] & free), q, powers, counts)
        return [(t, w) for w in words]

    # rotation rule: translate 0 reads 0**n
    if not place(0, 0):
        return "exhausted", nodes, None
    if q == 2:
        # complement rule: 1**n (word N - 1) goes on a translate r <= N/2
        # that it can still take (one through a position of I reads a 0)
        opts = [(r, N - 1) for r in range(1, N // 2 + 1) if not nfix[r]]
    else:
        opts = branch()
    while True:
        # a lone option is forced and gets no frame: when it fails, the
        # innermost real branch moves on
        if len(opts) > 1:
            if cube is None:
                return "branch", nodes, len(opts)
            if cube < 0:
                stack.append([opts, 1, len(trail), free])
            else:
                # the cube's option, alone; later branches try them all
                opts, cube = opts[cube:cube + 1], -1
        opt = opts[0] if opts else None
        while True:
            if opt is not None:
                nodes += 1
                if limit is not None and nodes > limit:
                    return "nodes", nodes, None
                if not nodes & 1023 and tick and (end := tick(nodes)):
                    return None if end == "abandon" else (end, nodes, None)
                if place(*opt):
                    break
            if not stack:
                return "exhausted", nodes, None
            frame = stack[-1]
            opts, i, mark, free = frame
            undo(mark)
            if i < len(opts):
                frame[1] = i + 1
                opt = opts[i]
            else:
                stack.pop()
                opt = None
        if not frontier and not untouched:
            return "found", nodes, chi
        opts = branch()


# The caller's nodes before it forks helpers.  A fork costs a few ms, the
# kernel's time for some 10,000 nodes, so a search smaller than this one
# (every (2,5) class) runs faster in one process.
_FORK_AFTER = 65536


def _cover_search(q, n, I, N, node_limit, deadline, jobs=1):
    """The exact-cover search of the module docstring, for |I| >= 3 and
    N <= 4096: the outcome (kind, nodes, symbols) as `_dfs` returns it,
    from the prefix and cubes 0, 1, ... on at most `jobs` processes."""
    tables = _cover_tables(q, n, I, N)

    def tick(nodes, poll=None):
        # end on the clock, or abandon the cube once the driver's `poll`
        # says it no longer matters
        if deadline is not None and time.monotonic() > deadline:
            return "time"
        if poll and poll(nodes):
            return "abandon"

    outcome = _cover_tree(tables, None, node_limit, tick)
    if outcome[0] != "branch":
        return outcome
    _, prefix, count = outcome

    def run(i, results, poll):
        # cube i's outcome, None when abandoned, less the prefix's nodes,
        # which the cube runs again.  Its budget is what the lower cubes
        # known exhausted leave.
        limit = node_limit
        if limit is not None:
            limit -= sum(r[1] for j, r in results.items()
                         if j < i and r[0] == "exhausted")
        res = _cover_tree(tables, i, limit, lambda nodes: tick(nodes, poll))
        return res and (res[0], res[1] - prefix, res[2])

    total = prefix
    with closing(_drive(count, run, jobs,
                        ("found", "nodes", "time"))) as cubes:
        for kind, nodes, syms in cubes:
            total += nodes
            # a cube past its own limit, or past one that left out lower
            # cubes not yet reported when it started, is past the budget
            if kind != "time" and node_limit is not None and \
                    total > node_limit:
                return "nodes", node_limit + 1, None
            if kind != "exhausted":
                return kind, total, syms
    return "exhausted", total, None


def _drive(count, run, jobs, stop=()):
    """Run units 0 .. count - 1 on at most `jobs` processes, and no more
    than `_cpus()`, as the module docstring says, and yield their results, (kind, nodes, symbols), in unit
    order.  `run(i, results, poll)` gives unit i's result, or None once
    `poll(nodes)` is true; `results` holds the units decided so far.  A
    unit whose kind is in `stop` is the last one yielded.  Closing the
    generator kills and reaps every helper."""
    threading = sys.modules.get("threading")
    if not hasattr(os, "fork") or threading and threading.active_count() > 1:
        jobs = 1    # a fork copies no other thread, but may copy its locks
    jobs = min(jobs, _cpus())   # processes past the CPUs would take turns
    results = {}
    spent = 0         # the caller's own nodes
    nxt = 0           # the next unit, until the fork
    tasks = ()        # then a pipe that holds the next unit as one token
    helpers = {}      # helper pid -> read end of its result pipe
    bufs = {}         # result pipe -> bytes of a line not yet complete

    def settled(i):
        # a unit below i settled the answer; none can without `stop` kinds
        return bool(stop) and any(j < i and r[0] in stop
                                  for j, r in results.items())

    def take():
        # the next unit, None once all are taken; after the fork a taker
        # swaps the pipe's one token for its successor, so it never fills
        nonlocal nxt
        if tasks:
            i = int.from_bytes(os.read(tasks[0], 8), "little")
            os.write(tasks[1], (i + 1).to_bytes(8, "little"))
        else:
            i = nxt
            nxt += 1
        return i if i < count else None

    def fork():
        nonlocal tasks
        tasks = os.pipe()
        os.write(tasks[1], nxt.to_bytes(8, "little"))
        for _ in range(min(jobs - 1, count - nxt)):
            fd, out = os.pipe()
            try:
                pid = os.fork()
            except OSError:   # no process to spare: go on with those forked
                os.close(fd)
                os.close(out)
                break
            if pid == 0:
                os.close(fd)
                status = 1
                try:
                    while (i := take()) is not None:
                        kind, nodes, syms = run(i, results, None)
                        msg = f"{i} {kind} {nodes} " + (
                            ",".join(map(str, syms)) if syms else "-")
                        _write_all(out, msg)
                    status = 0
                except BaseException as exc:  # reported, then _exit below
                    _write_all(out, f"-1 error 0 {exc!r}".replace("\n", " "))
                finally:
                    os._exit(status)
            os.close(out)
            helpers[pid] = fd
            bufs[fd] = b""

    def drain(block):
        # record the result lines helpers have sent; with `block`, wait
        # for some
        if not bufs:
            if block:
                raise RuntimeError("search helpers exited before every unit "
                                   "was decided")
            return
        import select

        for fd in select.select(list(bufs), [], [], None if block else 0)[0]:
            data = os.read(fd, 1 << 16)
            if not data:
                del bufs[fd]
                continue
            *lines, bufs[fd] = (bufs[fd] + data).split(b"\n")
            for line in lines:
                i, kind, nodes, syms = line.decode().split(" ", 3)
                if kind == "error":
                    raise RuntimeError(f"search helper failed: {syms}")
                results[int(i)] = (kind, int(nodes), None if syms == "-"
                                   else list(map(int, syms.split(","))))

    def poll(nodes, i=None):
        # every 1,024 nodes of the caller's own unit i, and after each unit:
        # fork once the caller has spent enough with two units left, then
        # read what helpers sent; true when unit i no longer matters
        left = count - nxt + (i is not None)
        if not tasks and jobs > 1 and left > 1 and \
                spent + nodes >= _FORK_AFTER:
            fork()
        drain(False)
        return i is not None and settled(i)

    try:
        for k in range(count):
            while k not in results:
                i = take()
                if i is None:
                    drain(True)
                elif not settled(i):
                    res = run(i, results, lambda nodes: poll(nodes, i))
                    if res is not None:
                        results[i] = res
                        spent += res[1]
                    poll(0)
            yield results[k]
            if results[k][0] in stop:
                return
    finally:
        if helpers:
            import signal

            for pid, fd in helpers.items():
                with suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
                with suppress(ChildProcessError):
                    os.waitpid(pid, 0)
                os.close(fd)
        for fd in tasks:
            os.close(fd)


def _write_all(fd, line):
    data = (line + "\n").encode()
    while data:
        data = data[os.write(fd, data):]


def two_element_validity(q, d):
    """Arithmetic shortcut for I = {0, d}: valid iff q*q/d != 2."""
    if d <= 0 or d >= q * q:
        raise ValueError("need 1 <= d < q**2")
    if (q * q) % d != 0:
        raise ValueError(f"{d} does not divide {q * q}")
    return (q * q) // d != 2


# ---------------------------------------------------------------------------
# atlas
# ---------------------------------------------------------------------------


def parse_set(text):
    """The integers of a comma-separated set such as ``0,9,18``."""
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"bad index set {text!r}; expected e.g. 0,9,18")


def format_line(rep, verdict, witness=None):
    """One atlas record: the set, a tab, the verdict (``0,1,3<TAB>invalid``)
    and, in a checkpoint, a tab and the `text()` of a valid class's
    witness."""
    line = ",".join(map(str, rep)) + "\t" + verdict
    return line + "\t" + witness if witness else line


def read_records(lines):
    """Yield (line number from 1, line, set, verdict, witness text or None)
    for each `format_line` record of `lines`, blank and `#` lines skipped.
    Any other line raises ValueError ``bad line K: 'text'``."""
    for num, line in content_lines(lines):
        try:
            setpart, verdict, *witness = line.split("\t")
            # only a valid record may carry one more field, its witness
            if verdict not in (VALID, INVALID, INCONCLUSIVE) or \
                    len(witness) > (verdict == VALID):
                raise ValueError
            rep = parse_set(setpart)
        except ValueError:
            raise ValueError(f"bad line {num}: {line!r}") from None
        yield num, line, rep, verdict, witness[0] if witness else None


def _parse_checkpoint(path, params, reps):
    """Verdicts recorded in a checkpoint file for the classes `reps`.

    Every complete line is checked before the file changes.  A `valid`
    line must carry a witness that `verify_cover` accepts for its class
    under `params`; an `invalid` line is trusted.  A line that is not a
    `format_line` record, whose set is not one of `reps`, or that is
    `valid` without such a witness raises ValueError naming the file and
    the line, and leaves the file as it was; so does a file with no
    complete line at all.  Then a last line without its newline, torn by
    an interrupted write, is cut off the file, so the next append starts a
    fresh line, and its class is recomputed.  A class recorded
    `inconclusive` and never decided comes back `inconclusive`, for the
    caller to retry.
    """
    done = {}
    if not (path and os.path.exists(path)):
        return done
    with open(path, "rb+") as fh:
        data = fh.read()
        whole = data.rfind(b"\n") + 1
        try:
            if data and not whole:
                raise ValueError("no complete line; remove the file to "
                                 "start afresh")
            for num, line, key, verdict, witness in read_records(
                    data[:whole].decode("utf-8").splitlines()):
                if key not in reps:
                    raise ValueError(f"line {num}: {line!r} does not name "
                                     "a class representative")
                if verdict == VALID and not _covers(witness, params, key):
                    raise ValueError(f"line {num}: {line!r} has no witness "
                                     "that covers every word")
                if done.get(key, INCONCLUSIVE) == INCONCLUSIVE:
                    done[key] = verdict
        except ValueError as exc:
            raise ValueError(f"checkpoint {path}: {exc}") from None
        if whole < len(data):
            fh.truncate(whole)
    return done


def _covers(text, params, I):
    """Whether `text` reads back as an I-cycle for `params`."""
    try:
        chi = CyclicString.from_text(text or "", params.q)
        return verify_cover(chi, params, I).complete
    except ValueError:
        return False


def atlas(q, n, node_limit=None, time_limit=None, checkpoint=None, jobs=1):
    """Classify every affine class of n-element subsets of Z_{q**n}.

    The classes are the units of `_drive` on at most `jobs` processes and
    `_cpus()`, each decided by `decide_valid(..., jobs=1)` in whichever
    process takes it.  A class that runs out of budget is `inconclusive`,
    and the run goes on.  Returns {class representative: verdict} in canonical order.
    With a `checkpoint` path each decided class is appended to that file
    as one `format_line` record, a valid one with its witness, and
    flushed, in canonical order whatever the number of processes, so
    `tail -f` shows the progress of a long run.  A rerun with the same
    file decides only the classes it lacks or left inconclusive and
    returns the same map; it appends a class that is still inconclusive
    only if the file does not say so.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be positive, got {jobs}")
    params = CycleParams.unreduced(q, n)  # the size check, before the list
    reps = affine_class_representatives(params.L, n)
    done = _parse_checkpoint(checkpoint, params, set(reps))
    pending = [rep for rep in reps
               if done.get(rep, INCONCLUSIVE) == INCONCLUSIVE]

    def run(i, results, poll):
        try:
            cert = decide_valid(q, n, pending[i], node_limit=node_limit,
                                time_limit=time_limit, jobs=1)
        except BudgetExceeded as exc:
            return INCONCLUSIVE, exc.nodes, None
        return cert.verdict, cert.nodes_explored, \
            cert.witness and cert.witness.symbols

    verdicts = dict(done)
    append = open(checkpoint, "a", encoding="utf-8") if checkpoint \
        else nullcontext()
    with append as ck, closing(_drive(len(pending), run, jobs)) as decided:
        for rep, (verdict, _, syms) in zip(pending, decided):
            verdicts[rep] = verdict
            if ck and verdict != done.get(rep):
                witness = syms and CyclicString(q, tuple(syms)).text()
                ck.write(format_line(rep, verdict, witness) + "\n")
                ck.flush()
    return {rep: verdicts[rep] for rep in reps}
