"""Equal-length closed-trail decompositions of complete loop-digraphs.

K~_n has vertex set {1..n} and all n*n ordered pairs as edges, loops
included.  For d | n^2 and d >= 3 the edge set splits into n^2/d closed
trails of length d ("closed trail": chained edges, all distinct, vertices
free to repeat); d = 1 fails for n >= 2 because only n loops exist, and
d = 2 fails because loops cannot sit on a 2-trail.  A closed trail is
its cyclic vertex tuple, so its edges (`trail_edges`) chain by
construction, and `check_decomposition` checks them once per decomposition.

Routes, tried in this order:

* euler    d = n^2: the order-2 de Bruijn cycle over n symbols
           (`lift.de_bruijn_sequence`, built from Lyndon words), each symbol
           plus 1.  Its n^2 windows are the n^2 edges, so as a closed walk
           it is an Euler circuit of K~_n, which names the route;
* blowup   the least m with 2 <= m < n, m | n and d | m^2 exists: K~_m's
           length-d trails, each vertex blown up into n/m copies (see
           `_blowup_trails`).  Otherwise n | d (if not, some prime p has
           v_p(d) < v_p(n), and m = n/p would do), so d = n*j with j | n:
           for 2 <= j < n K~_j's Euler trail is blown up by k = n/j, and
           for j = 1, n even (so n >= 6), K~_(n/2)'s length-n/2 trails by
           k = 2, with each k copies that share a start merged;
* cyclic   d = n odd, no such m: the n translates of one trail whose steps
           are every residue mod n (`_cyclic_trails`).

Every route is a construction, so `Impossible` from `decompose_equal`
comes only from counting.  The prescribed-length split of the loopless
complete digraph (`decompose_loopless`) is a search: `Impossible` from it
is a refutation by exhaustion, and running out of budget raises
`BudgetExceeded`.  Every emitted decomposition re-verifies through
`check_decomposition` before being returned.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import chain

from .core import (BudgetExceeded, CycleParams, UcycleError,
                   VerificationError, desk_size, least_rotation, verify_cover)
from .lift import de_bruijn_sequence, trails_to_chi

# the node budget of the loopless split (`decompose_loopless`)
NODE_BUDGET = 2_000_000


class Impossible(UcycleError):
    """No decomposition exists; `reason` says how that was established."""

    def __init__(self, message, reason):
        super().__init__(message)
        self.reason = reason


def trail_edges(trail):
    """The edges (v_a, v_(a+1 mod L)) of the closed trail v_0 .. v_(L-1)."""
    return tuple(zip(trail, trail[1:] + trail[:1]))


@dataclass
class TrailDecomposition:
    n: int
    d: int
    trails: list
    # which construction built the trails: "euler", "blowup" or "cyclic";
    # left out of the JSON document
    route: str = field(compare=False)

    def __post_init__(self):
        check_decomposition(self.n, self.d, self.trails)

    def to_json_obj(self):
        """The JSON document; each trail is a tuple of its edges, which
        `json` writes as arrays."""
        return {
            "schema": 1,
            "n": self.n,
            "d": self.d,
            "trails": [trail_edges(t) for t in self.trails],
        }

    def to_text_lines(self):
        """The text document: a count line, then one line of `u>v` edges per
        trail."""
        return [f"{len(self.trails)} trails of length {self.d}"] + [
            " ".join("%d>%d" % e for e in trail_edges(t)) for t in self.trails]


def check_decomposition(n, d, trails):
    """Independent certificate check: lengths, edge-disjointness (within a
    trail and across trails), and full coverage of the n*n edges.

    Edges are walked in trail order and edge (u, v) is marked at
    (u - 1)*n + v - 1 of one n*n-byte map, so the check holds n*n bytes
    besides the trails.  The first repeated edge is named before the first
    edge out of range, and each before any edge left uncovered."""
    if len(trails) != n * n // d:
        raise VerificationError(
            f"expected {n * n // d} trails, got {len(trails)}")
    for t in trails:
        if len(t) != d:
            raise VerificationError(f"trail length {len(t)} != {d}")
    seen = bytearray(n * n)
    outside = {}  # the edges out of range, in trail order
    for t in trails:
        # zip, not trail_edges: the Euler trail's edges would be n*n tuples
        for u, v in zip(t, t[1:] + t[:1]):
            # the range check comes first: vertex 0 would index from the end
            if 0 < u <= n and 0 < v <= n:
                i = (u - 1) * n + v - 1
                if seen[i]:
                    raise VerificationError(f"edge ({u},{v}) covered twice")
                seen[i] = 1
            elif (u, v) in outside:
                raise VerificationError(f"edge ({u},{v}) covered twice")
            else:
                outside[u, v] = None
    if outside:
        u, v = next(iter(outside))
        raise VerificationError(f"edge ({u},{v}) out of range")
    if 0 in seen:
        raise VerificationError("edges left uncovered")


# ---------------------------------------------------------------------------
# prescribed-length split of the loopless complete digraph
# ---------------------------------------------------------------------------


def decompose_loopless(m, lengths, node_limit=NODE_BUDGET):
    """Edge-disjoint closed trails of the prescribed lengths covering the
    loopless complete digraph on m vertices.

    Exact backtracking: each trail is anchored at the smallest unused edge,
    so the search space is canonical.  The one true obstruction at this
    scale is six vertices into all 3-cycles, refuted by exhausting the
    search.  A split is returned only once its trails are checked to cover
    every loopless edge exactly once.
    """
    lengths = sorted(lengths, reverse=True)
    if sum(lengths) != m * (m - 1):
        raise ValueError(f"lengths sum {sum(lengths)} != m(m-1) = {m*(m-1)}")
    if any(L < 2 for L in lengths):
        raise ValueError("every length must be >= 2")
    result = _split_trails(list(range(1, m + 1)), lengths, node_limit)
    if result is not None:
        edges = sorted(e for t in result for e in trail_edges(t))
        if edges != [(u, v) for u in range(1, m + 1)
                     for v in range(1, m + 1) if u != v]:
            raise VerificationError("trail split does not cover every "
                                    "loopless edge exactly once")
        return result
    raise Impossible(
        f"no split of the loopless digraph on {m} vertices into lengths "
        f"{lengths} exists (search exhausted)", reason="exhausted")


def _split_trails(verts, lengths, node_limit):
    """Edge-disjoint closed trails of the given lengths covering every
    loopless edge over `verts`; None when the search exhausts.  Each
    distinct remaining length is tried once per anchor; more than
    `node_limit` extension steps raise BudgetExceeded."""
    edges = sorted((u, v) for u in verts for v in verts if u != v)
    free = set(edges)
    nodes = 0
    t0 = time.monotonic()

    def trail_walks(anchor, length):
        """Closed trails of `length` free edges starting with `anchor`.
        heads[k] holds the heads still to try after walk[k], so a trail of
        any length needs no recursion."""
        nonlocal nodes
        u0 = anchor[0]
        walk = [anchor]
        free.discard(anchor)
        heads = []
        while True:
            nodes += 1
            if nodes > node_limit:
                raise BudgetExceeded("trail split budget exceeded", nodes,
                                     time.monotonic() - t0)
            v, left = walk[-1][1], length - len(walk)
            if left == 0:
                if v == u0:
                    yield list(walk)
                cand = ()
            elif left == 1:
                cand = (u0,) if (v, u0) in free else ()
            else:
                cand = [w for w in verts if (v, w) in free]
            heads.append(iter(cand))
            # take the next untried edge, backing out of exhausted heads
            while (w := next(heads[-1], None)) is None:
                heads.pop()
                free.add(walk.pop())
                if not heads:
                    return
            e = (walk[-1][1], w)
            free.discard(e)
            walk.append(e)

    def branches(remaining):
        """(walk, lengths left) for every first trail of `remaining`; the
        anchor is read when the generator first runs."""
        anchor = next(e for e in edges if e in free)
        tried = set()
        for idx, L in enumerate(remaining):
            if L in tried:
                continue
            tried.add(L)
            rest = remaining[:idx] + remaining[idx + 1:]
            # the walk's edges stay out of `free` while trail_walks is
            # suspended at its yield; trail_walks frees them as it backtracks
            for walk in trail_walks(anchor, L):
                yield walk, rest

    if not lengths:
        return []
    # stack[k] branches on trail k, and result[k] is its current walk
    result = []
    stack = [branches(lengths)]
    while stack:
        step = next(stack[-1], None)
        del result[len(stack) - 1:]
        if step is None:
            stack.pop()
            continue
        walk, rest = step
        result.append(tuple(u for u, _ in walk))
        if not rest:
            return result
        stack.append(branches(rest))
    return None


# ---------------------------------------------------------------------------
# blow-up and cyclic routes, and the dispatcher
# ---------------------------------------------------------------------------


def _blowup_trails(base, k, merge=1):
    """Length-merge*d trails of K~_{mk} from the length-d trails of K~_m.

    Vertex v becomes the k vertices (v, i), numbered (v - 1)*k + i + 1, and
    base trail v_0 ... v_{d-1} the k*k trails through (v_a, f_a(i, j)) with
    f_0 = i, f_a = j for odd a and f_a = i + j mod k for even a >= 2.  Each
    cyclically consecutive pair (f_a, f_{a+1}) is (i, j), (j, i + j),
    (i + j, j), (j, i) or (i + j, i), of determinant +-1 and so a bijection
    of Z_k^2: every arc from block v_a to block v_{a+1}, loops included,
    lies on exactly one trail.  The copies (i, j) of one i start and end at
    (v_0, i), since f_0 = i: `merge` | k consecutive ones splice into one.
    """
    fs = [(i, j, (i + j) % k) for i in range(k) for j in range(k)]
    trails = []
    for t in base:
        # cols[a] lists vertex a of each of the k*k trails of t
        cols = [[(v - 1) * k + 1 + f[1 if a % 2 else 2 if a else 0]
                 for f in fs] for a, v in enumerate(t)]
        copies = [iter(zip(*cols))] * merge  # one iterator: zip groups it
        trails.extend(tuple(chain(*group)) for group in zip(*copies))
    return trails


def _cyclic_trails(n):
    """K~_n's n trails of length n, n odd: trail a visits a + i(i-1)/2 mod n
    (plus 1) for i = 0 .. n-1.  Its steps are 0, 1, ..., n-2 and, closing,
    -(n-1)(n-2)/2 = -((n-1)/2)(n-2) = n-1 mod n: each residue once.  The
    step-i edge of trail a starts at a + i(i-1)/2, a bijection in a, so
    every edge (u, u + i), loops included, lies on exactly one trail."""
    starts = [i * (i - 1) // 2 % n for i in range(n)]
    verts = list(range(1, n + 1)) * 2  # verts[a + c] is (a + c mod n) + 1
    return [tuple(verts[a + c] for c in starts) for a in range(n)]


def decompose_equal(n, d):
    """Decompose K~_n into n*n/d closed trails of length d.

    Raises Impossible for the two genuinely infeasible lengths (1 and 2,
    for n >= 2) and ValueError when d does not divide n*n or n*n exceeds
    the desk scale.  The result's `route` names the construction that
    produced it.
    """
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    if n > 1:  # desk_size wants an alphabet; K~_1 is the one loop below
        desk_size(n, 2)
    if (n * n) % d:
        raise ValueError(f"{d} does not divide n*n = {n * n}")
    if n == 1:
        return TrailDecomposition(1, 1, [(1,)], "euler")
    if d == 1:
        raise Impossible(
            f"length 1 needs {n * n} loops but only {n} exist",
            reason="counting")
    if d == 2:
        raise Impossible(
            "length-2 trails are digon pairs and can never cover a loop",
            reason="counting")
    m = next((m for m in range(2, n) if n % m == 0 and (m * m) % d == 0),
             None)
    if d == n * n:
        debruijn = de_bruijn_sequence(n, 2).symbols
        trails, route = [tuple(x + 1 for x in debruijn)], "euler"
    elif m is not None:
        base = decompose_equal(m, d).trails
        trails, route = _blowup_trails(base, n // m), "blowup"
    elif d == n and n % 2:
        trails, route = _cyclic_trails(n), "cyclic"
    else:  # d = n*j, j | n: K~_(n/k)'s trails, k = n/j (or 2), merged
        k = n * n // d if d > n else 2
        base = decompose_equal(n // k, d // k).trails
        trails, route = _blowup_trails(base, k, k), "blowup"
    return TrailDecomposition(n, d, trails, route)


def chi_from_decomposition(decomposition):
    """Read a decomposition of K~_q (q = decomposition.n) into D trails as
    a cyclic string: residue class a mod D carries trail a's vertex
    sequence.  The result achieves every 2-word on translates of {0, D};
    it is returned with the CoverageReport that verified it."""
    q = decomposition.n
    D = len(decomposition.trails)
    norm = sorted(least_rotation(t) for t in decomposition.trails)
    chi = trails_to_chi([[v - 1 for v in seq] for seq in norm], q)
    rep = verify_cover(chi, CycleParams.unreduced(q, 2), (0, D % (q * q)))
    if not rep.complete:
        raise VerificationError("decomposition reading failed verification")
    return chi, rep
