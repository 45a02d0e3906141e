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
  scans the frontier for the translate with the fewest live unused words.
  The scan stops at the first translate it meets with at most one: with
  none the node fails, with one that word is forced.  Otherwise the node
  branches on the least translate among those with the fewest, trying
  words in ascending order.  Once at most one translate is untouched, one
  pass over the frontier also finds the words with no candidate translate,
  which fail the node, and those with exactly one, which are forced;
  before that, every word still has two untouched candidates.  Forced
  moves reach the same state in any order, so the verdict and the witness
  do not depend on which one the scan meets first.  Only `nodes_explored`
  does: it follows the frontier's iteration order, which is the same on
  every run.

The live masks are N-bit ints and the trail keeps n of them per fixed
position, so the exact cover's memory grows as n*N**2 bits and its time per
node with N.  Sets with |I| <= 2, and sets past N = 4096, are searched
depth-first over positions instead (`_dfs`), in O(n*N) memory, taking the
positions in the order that translates first need them.  For I = {a, b}
the translates are walked 0, D, 2D, ... with D = b - a, coset by coset of
<D>, so each window closes as soon as it opens and the {0, D} sets of the
decomposition route finish one trail before they start the next; that
serves them up to N = 127**2.  Other sets take the translates 0, 1, 2, ...

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
* stabilizer counting - if I + s = I for some s != 0, windows at t and t + s
  are coordinate rotations of one another, so each stabilizer coset needs a
  full orbit of distinct words; when fewer such words exist than translates,
  the set is invalid before any search.  This refutes arithmetic-progression
  sets with wrap-around instantly.

``invalid`` is only ever reported after exhaustion under these rules (the
stabilizer bound exhausts the tree at its root); running out of budget raises
:class:`BudgetExceeded` instead.
"""
from __future__ import annotations

import math
import os
import time
from contextlib import ExitStack
from dataclasses import dataclass, field

from .core import (
    BudgetExceeded,
    CycleParams,
    CyclicString,
    VerificationError,
    affine_class_representatives,
    normalize_index_set,
    verify_cover,
)

VALID = "valid"
INVALID = "invalid"

# Largest N for the exact-cover search.  Its live masks are N-bit ints and
# its trail keeps n of them per fixed position, so time per node and memory
# grow with N; past 4096 the position search wins on both.
_COVER_MAX_N = 4096


@dataclass
class ValidityCertificate:
    q: int
    n: int
    index_set: tuple
    verdict: str
    witness: CyclicString | None
    nodes_explored: int
    elapsed: float
    method: str  # "search" or "stabilizer-count"

    @property
    def valid(self):
        return self.verdict == VALID


def _mobius(n):
    result = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    if n > 1:
        result = -result
    return result


def _stabilizer_counting_bound(q, n, I, N):
    """Number of words usable per translate under the stabilizer of I,
    or None when the stabilizer is trivial."""
    iset = set(I)
    s_min = 0
    # a shift that fixes I maps I[0] onto another element of I
    for s in sorted((i - I[0]) % N for i in I[1:]):
        if all((i + s) % N in iset for i in I):
            s_min = s
            break
    if s_min == 0:
        return None
    h = N // s_min
    index_of = {i: j for j, i in enumerate(I)}
    free = 0
    for e in _divisors(h):
        mu = _mobius(e)
        if mu == 0:
            continue
        s_e = s_min * (h // e)
        if s_e % N == 0:
            cycles = n
        else:
            perm = [index_of[(i + s_e) % N] for i in I]
            cycles = _cycle_count(perm)
        free += mu * q ** cycles
    return free


def _divisors(n):
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def _cycle_count(perm):
    seen = [False] * len(perm)
    count = 0
    for i in range(len(perm)):
        if not seen[i]:
            count += 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = perm[j]
    return count


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


def decide_valid(q, n, I, node_limit=None, time_limit=None):
    """Decide q-validity of I with a verified witness or a refutation.

    For |I| >= 3 and N <= 4096 this is the exact-cover search of the
    module docstring: each node branches on the most constrained translate
    or word, and `nodes_explored` counts the options it tried, forced ones
    included.  Otherwise it is the depth-first search over positions in
    first-need order (trail by trail when |I| = 2), and `nodes_explored`
    counts symbol assignments.

    Deterministic: translate 0 is pinned to the word 0**n, at q = 2 the
    exact cover then places 1**n on translates 1 .. N//2 in ascending
    order, a real branch goes to the least translate among the most
    constrained, words and symbols are tried in ascending order, and
    relabeling is broken by first occurrence.  Forced moves are taken in
    the frontier's iteration order, which moves `nodes_explored` but not
    the witness.  The witness is the first complete string in that order;
    it reads 0 at every position of I and passes `verify_cover` before it
    is returned.  A node or time budget that runs out raises
    `BudgetExceeded` and reports no verdict.
    """
    N = q ** n
    if N > 2 ** 24:
        raise ValueError("q**n too large for in-memory search")
    I = normalize_index_set(I, N)
    if len(I) != n:
        raise ValueError(f"index set must have {n} distinct residues mod {N}")
    start = time.monotonic()

    free = _stabilizer_counting_bound(q, n, I, N)
    if free is not None and free < N:
        return ValidityCertificate(
            q=q, n=n, index_set=I, verdict=INVALID, witness=None,
            nodes_explored=0, elapsed=time.monotonic() - start,
            method="stabilizer-count",
        )

    search = _cover_search if n >= 3 and N <= _COVER_MAX_N else _dfs
    found, chi_syms, nodes = search(q, n, I, N, node_limit, time_limit, start)
    elapsed = time.monotonic() - start
    if found:
        witness = CyclicString(q, tuple(chi_syms))
        report = verify_cover(witness, CycleParams.unreduced(q, n), I)
        if not report.complete:
            raise VerificationError("search produced a non-covering witness")
        return ValidityCertificate(
            q=q, n=n, index_set=I, verdict=VALID, witness=witness,
            nodes_explored=nodes, elapsed=elapsed, method="search",
        )
    return ValidityCertificate(
        q=q, n=n, index_set=I, verdict=INVALID, witness=None,
        nodes_explored=nodes, elapsed=elapsed, method="search",
    )


def _dfs(q, n, I, N, node_limit, time_limit, start):
    target = q ** (n - 1)
    order = _first_need_order(N, I, I[1] - I[0] if n == 2 else 1)
    # highest symbol allowed at each depth: 0 on I (translate 0 reads 0**n),
    # then any symbol the first-occurrence relabeling admits
    top = [0] * n + [q - 1] * (N - n)
    powers = [q ** (n - 1 - j) for j in range(n)]
    pos_wins = [[] for _ in range(N)]
    for j, i in enumerate(I):
        w = powers[j]
        for t in range(N):
            pos_wins[(i + t) % N].append((t, w))
    pos_wins = [tuple(x) for x in pos_wins]

    W = q ** n
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

    nodes = 0
    depth = 0
    while True:
        if depth == N:
            return True, chi, nodes
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
                    raise BudgetExceeded("node budget exceeded", nodes,
                                         time.monotonic() - start)
                if time_limit is not None and nodes % 8192 == 0:
                    if time.monotonic() - start > time_limit:
                        raise BudgetExceeded("time budget exceeded", nodes,
                                             time.monotonic() - start)
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
            return False, None, nodes
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


def _cover_search(q, n, I, N, node_limit, time_limit, start):
    """The exact-cover search of the module docstring, for |I| >= 3 and
    N <= 4096: (found, symbols, nodes) as `_dfs` returns them."""
    target = q ** (n - 1)
    full = (1 << N) - 1
    powers = [q ** (n - 1 - j) for j in range(n)]
    # cmask[c][j]: bitmask of the words whose coordinate j reads c
    cmask = [tuple(_periodic(((1 << p) - 1) << c * p, q * p, N)
                   for p in powers) for c in range(q)]
    pos_tr = [tuple((p - i) % N for i in I) for p in range(N)]
    tr_pos = [tuple((t + i) % N for i in I) for t in range(N)]
    chi = [-1] * N
    nfix = [0] * N        # fixed positions of each translate
    live = [0] * N        # words consistent with them, on touched translates
    frontier = set()      # open translates with a fixed position
    counts = [0] * q
    trail = []            # fixed positions, in order
    olds = []             # the live masks each fix replaced, n per position
    untouched = N
    free = full           # words no closed translate reads
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
        # stops at the first translate with at most one live word
        best = two_n * N
        for t in frontier:
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
        return False, None, nodes
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
            stack.append([opts, 1, len(trail), free])
        opt = opts[0] if opts else None
        while True:
            if opt is not None:
                nodes += 1
                if node_limit is not None and nodes > node_limit:
                    raise BudgetExceeded("node budget exceeded", nodes,
                                         time.monotonic() - start)
                if time_limit is not None and not nodes & 1023:
                    if time.monotonic() - start > time_limit:
                        raise BudgetExceeded("time budget exceeded", nodes,
                                             time.monotonic() - start)
                if place(*opt):
                    break
            if not stack:
                return False, None, nodes
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
            return True, chi, nodes
        opts = branch()


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


@dataclass
class AtlasEntry:
    canonical: tuple
    verdict: str


@dataclass
class Atlas:
    q: int
    n: int
    set_size: int
    entries: list = field(default_factory=list)

    @property
    def totals(self):
        t = {VALID: 0, INVALID: 0}
        for e in self.entries:
            t[e.verdict] += 1
        return t

    def classes(self, verdict):
        return [e.canonical for e in self.entries if e.verdict == verdict]

    def lines(self):
        return [
            ",".join(str(i) for i in e.canonical) + "\t" + e.verdict
            for e in self.entries
        ]


def _format_set(canonical):
    return ",".join(str(i) for i in canonical)


def _parse_checkpoint(path, reps):
    """Verdicts recorded in a checkpoint file for the classes `reps`.

    A last line without its newline was torn by an interrupted write: it is
    cut off the file, so the next append starts a fresh line, and its class
    is recomputed.  Any other line that does not end in a verdict, or whose
    set is not one of `reps`, raises ValueError naming the line.
    """
    done = {}
    if not (path and os.path.exists(path)):
        return done
    with open(path, "rb+") as fh:
        data = fh.read()
        whole = data.rfind(b"\n") + 1
        if whole < len(data):
            fh.truncate(whole)
    for line in data[:whole].decode().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        setpart, _, verdict = line.partition("\t")
        if verdict not in (VALID, INVALID):
            raise ValueError(f"checkpoint {path}: bad line {line!r}")
        try:
            key = tuple(int(x) for x in setpart.split(","))
        except ValueError:
            key = None
        if key not in reps:
            raise ValueError(f"checkpoint {path}: line {line!r} does not "
                             "name a class representative")
        done[key] = verdict
    return done


def _decide_worker(args):
    q, n, rep, node_limit, time_limit = args
    cert = decide_valid(q, n, rep, node_limit=node_limit, time_limit=time_limit)
    return rep, cert.verdict


def atlas(q, n, set_size, node_limit=None, time_limit=None, checkpoint=None,
          jobs=1, progress=None):
    """Classify every affine class of size-`set_size` subsets of Z_{q**n}.

    Entries come back sorted by canonical representative regardless of how
    the per-class work was scheduled, and a checkpoint file (append-only
    "set<TAB>verdict" lines) makes long runs resumable with byte-identical
    output.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be positive, got {jobs}")
    L = q ** n
    reps = affine_class_representatives(L, set_size)
    done = _parse_checkpoint(checkpoint, set(reps))
    pending = [rep for rep in reps if rep not in done]

    results = dict(done)
    work = [(q, n, rep, node_limit, time_limit) for rep in pending]
    with ExitStack() as stack:
        ck = stack.enter_context(open(checkpoint, "a")) if checkpoint else None
        if jobs > 1 and pending:
            import multiprocessing

            pool = stack.enter_context(multiprocessing.Pool(jobs))
            decided = pool.imap_unordered(_decide_worker, work)
        else:
            decided = map(_decide_worker, work)
        for rep, verdict in decided:
            results[rep] = verdict
            if ck:
                ck.write(_format_set(rep) + "\t" + verdict + "\n")
                ck.flush()
            if progress:
                progress(rep, verdict)

    out = Atlas(q=q, n=n, set_size=set_size)
    for rep in reps:
        out.entries.append(AtlasEntry(canonical=rep, verdict=results[rep]))
    return out
