"""Equal-length closed-trail decompositions of complete loop-digraphs.

K~_n has vertex set {1..n} and all n*n ordered pairs as edges, loops
included.  For d | n^2 and d >= 3 the edge set splits into n^2/d closed
trails of length d ("closed trail": chained edges, all distinct, vertices
free to repeat); d = 1 fails for n >= 2 because only n loops exist, and
d = 2 fails because loops cannot sit on a 2-trail.

Routes, by target length:

* d = n^2           one Euler circuit;
* d = 4, n even     explicit 4-cycle families;
* d = 3             K~_3's three trails blown up by a Latin square;
* d in {5, 7}       hub gadgets plus a prescribed-length split of the
                    loopless complete digraph;
* d = 6 or d >= 8   the validity search for a {0, n^2/d}-cycle over n
                    symbols: its n^2 windows are the n^2 edges, and each
                    residue class mod n^2/d walks one closed trail of
                    length d, the inverse of `chi_from_decomposition`.

The route taken is recorded on the returned decomposition.  The
prescribed-length split and the search are exact; `Impossible` from either
is a refutation by exhaustion, and running out of budget raises
`BudgetExceeded`.  Every emitted decomposition re-verifies through
`check_decomposition` before being returned.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

from .core import (BudgetExceeded, CyclicString, CycleParams, UcycleError,
                   VerificationError, euler_circuit, least_rotation,
                   verify_cover)
from .search import decide_valid


class Impossible(UcycleError):
    """No decomposition exists; `reason` says how that was established."""

    def __init__(self, message, reason):
        super().__init__(message)
        self.reason = reason


@dataclass(frozen=True)
class ClosedTrail:
    """Cyclic edge sequence; head of each edge is the tail of the next."""

    edges: tuple

    def __post_init__(self):
        e = self.edges
        if not e:
            raise ValueError("empty trail")
        if len(set(e)) != len(e):
            raise ValueError("repeated edge in trail")
        for i in range(len(e)):
            if e[i][1] != e[(i + 1) % len(e)][0]:
                raise ValueError("edges do not chain")

    def __len__(self):
        return len(self.edges)

    def vertices(self):
        return {v for edge in self.edges for v in edge}

    def vertex_sequence(self):
        return [edge[0] for edge in self.edges]


@dataclass
class TrailDecomposition:
    n: int
    d: int
    trails: list
    # which construction built the trails: "euler", "families", "latin",
    # "hub" or "search"; left out of the JSON document
    route: str = field(compare=False)

    def __post_init__(self):
        check_decomposition(self.n, self.d, self.trails)

    def to_json_obj(self):
        return {
            "schema": 1,
            "n": self.n,
            "d": self.d,
            "trails": [[[u, v] for u, v in t.edges] for t in self.trails],
        }


def check_decomposition(n, d, trails):
    """Independent certificate check: lengths, chaining, edge-disjointness,
    and full coverage of the n*n edges."""
    if len(trails) != n * n // d:
        raise VerificationError(
            f"expected {n * n // d} trails, got {len(trails)}")
    seen = set()
    for t in trails:
        if len(t) != d:
            raise VerificationError(f"trail length {len(t)} != {d}")
        for u, v in t.edges:
            if not (1 <= u <= n and 1 <= v <= n):
                raise VerificationError(f"edge ({u},{v}) out of range")
            if (u, v) in seen:
                raise VerificationError(f"edge ({u},{v}) covered twice")
            seen.add((u, v))
    if len(seen) != n * n:
        raise VerificationError("edges left uncovered")


def euler_trail(edges):
    """One closed trail through the given edges (Hierholzer, smallest next
    head first); requires balance and connectivity, which it verifies by
    consuming everything."""
    succ = {}
    for u, v in edges:
        succ.setdefault(u, []).append(v)
    path = euler_circuit(succ, min(succ))
    trail_edges = tuple(zip(path, path[1:]))
    if len(trail_edges) != len(edges):
        raise VerificationError("Euler walk did not use every edge")
    return ClosedTrail(trail_edges)


# ---------------------------------------------------------------------------
# prescribed-length split of the loopless complete digraph
# ---------------------------------------------------------------------------


def decompose_loopless(m, lengths, node_limit=2_000_000, vertices=None):
    """Edge-disjoint closed trails of the prescribed lengths covering the
    loopless complete digraph on m vertices.

    Exact backtracking: each trail is anchored at the smallest unused edge,
    so the search space is canonical.  The one true obstruction at this
    scale is six vertices into all 3-cycles, refuted by exhausting the
    search.
    """
    verts = list(vertices) if vertices is not None else list(range(1, m + 1))
    if len(verts) != m:
        raise ValueError("vertex list size mismatch")
    lengths = sorted(lengths, reverse=True)
    if sum(lengths) != m * (m - 1):
        raise ValueError(f"lengths sum {sum(lengths)} != m(m-1) = {m*(m-1)}")
    if any(L < 2 for L in lengths):
        raise ValueError("every length must be >= 2")
    result = _split_trails(verts, lengths, node_limit)
    if result is not None:
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
        """Closed trails of `length` free edges starting with `anchor`."""
        u0 = anchor[0]
        walk = [anchor]
        free.discard(anchor)

        def extend(v, left):
            nonlocal nodes
            nodes += 1
            if nodes > node_limit:
                raise BudgetExceeded("trail split budget exceeded", nodes,
                                     time.monotonic() - t0)
            if left == 0:
                if v == u0:
                    yield list(walk)
                return
            if left == 1:
                cand = [u0] if (v, u0) in free else []
            else:
                cand = [w for w in verts if (v, w) in free]
            for w in cand:
                e = (v, w)
                free.discard(e)
                walk.append(e)
                yield from extend(w, left - 1)
                walk.pop()
                free.add(e)

        yield from extend(anchor[1], length - 1)
        walk.pop()
        free.add(anchor)

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
        result.append(ClosedTrail(tuple(walk)))
        if not rest:
            return result
        stack.append(branches(rest))
    return None


# ---------------------------------------------------------------------------
# closed-form families and hub constructions
# ---------------------------------------------------------------------------


def _wrap(v, n):
    return (v - 1) % n + 1


def prop17_trails(n):
    """Length-4 trails covering K~_n for even n, as explicit families."""
    if n % 2:
        raise ValueError("n must be even")
    h = n // 2
    trails = []
    for j in range(1, h + 1):
        a, b = j, _wrap(j + h, n)
        trails.append(ClosedTrail(((a, a), (a, b), (b, b), (b, a))))
    if n % 4 == 2:
        for j in range(1, n + 1):
            for k in range(1, (n - 2) // 4 + 1):
                x, y = _wrap(j + 2 * k - 1, n), _wrap(j + 2 * k, n)
                trails.append(ClosedTrail(((j, x), (x, j), (j, y), (y, j))))
    else:
        for j in range(1, n + 1):
            for k in range(1, n // 4):
                x, y = _wrap(j + 2 * k, n), _wrap(j + 2 * k + 1, n)
                trails.append(ClosedTrail(((j, x), (x, j), (j, y), (y, j))))
        for j in range(1, h + 1):
            u, x, y = 2 * j, _wrap(2 * j - 1, n), _wrap(2 * j + 1, n)
            trails.append(ClosedTrail(((u, x), (x, u), (u, y), (y, u))))
    return trails


def _triple_trails(n):
    """Length-3 trails covering K~_n for 3 | n.

    K~_3 splits into the three trails x -> x -> x+1 -> x (x mod 3).  Blow
    vertex x up into the k = n/3 vertices (x, i), numbered x*k + i + 1, and
    its trail into the k*k trails (x,i) -> (x,j) -> (x+1,l) -> (x,i) with
    l = i + j mod k, a Latin square.  Any two of i, j, l fix the third, so
    each arc within block x, from x to x+1, and from x+1 to x lies on
    exactly one trail; i = j puts the loop at (x,i) on its trail.
    """
    k = n // 3
    trails = []
    for x in range(3):
        y = (x + 1) % 3
        for i in range(k):
            for j in range(k):
                u, v, w = x * k + i + 1, x * k + j + 1, y * k + (i + j) % k + 1
                trails.append(ClosedTrail(((u, v), (v, w), (w, u))))
    return trails


def _gadget_edges(j, hubs):
    edges = [(j, j)]
    for h in hubs:
        edges.extend([(j, h), (h, j)])
    return edges


def _prop18_trails(n, d, node_limit):
    if n % d:
        raise ValueError("this route needs d | n")
    if d == 5:
        a, b = n - 1, n
        inner = list(range(1, n - 1))
        K = ((n - 2) * (n - 3) - 6) // 5
        parts = decompose_loopless(n - 2, [5] * K + [4, 2], node_limit,
                                   vertices=inner)
        t4 = next(t for t in parts if len(t) == 4)
        t2 = next(t for t in parts if len(t) == 2)
        trails = [t for t in parts if len(t) == 5]
        u = min(t4.vertices())
        x = min(t2.vertices() - {u})
        trails.append(euler_trail(list(t4.edges) + [(u, u)]))
        trails.append(euler_trail(
            [(u, a), (a, u), (u, b), (b, u), (a, a)]))
        trails.append(euler_trail(list(t2.edges) + [(x, b), (b, x), (b, b)]))
        trails.append(euler_trail(
            [(x, x), (x, a), (a, x), (a, b), (b, a)]))
        for j in inner:
            if j not in (u, x):
                trails.append(euler_trail(_gadget_edges(j, [a, b])))
        return trails
    if d == 7:
        a, b, c = n - 2, n - 1, n
        inner = list(range(1, n - 2))
        K = ((n - 3) * (n - 4) - 5) // 7
        parts = decompose_loopless(n - 3, [7] * K + [5], node_limit,
                                   vertices=inner)
        t5 = next(t for t in parts if len(t) == 5)
        trails = [t for t in parts if len(t) == 7]
        u = min(t5.vertices())
        trails.append(euler_trail(list(t5.edges) + [(u, a), (a, u)]))
        trails.append(euler_trail(
            [(u, u), (u, b), (b, u), (u, c), (c, u), (a, b), (b, a)]))
        hub = [(a, a), (b, b), (c, c), (a, c), (c, a), (b, c), (c, b)]
        trails.append(euler_trail(hub))
        for j in inner:
            if j != u:
                trails.append(euler_trail(_gadget_edges(j, [a, b, c])))
        return trails
    raise ValueError("route only covers d in {5, 7}")


# ---------------------------------------------------------------------------
# search route and the dispatcher
# ---------------------------------------------------------------------------


def _search_trails(n, d, node_limit):
    """Length-d trails read off a {0, D}-cycle over n symbols, D = n*n/d:
    its windows are the n*n edges, and trail a visits x[a], x[a + D], ..."""
    D = n * n // d
    cert = decide_valid(n, 2, (0, D), node_limit=node_limit)
    if not cert.valid:
        raise Impossible(f"no {{0, {D}}}-cycle over {n} symbols exists",
                         reason="exhausted")
    x = cert.witness.symbols
    trails = []
    for a in range(D):
        seq = [x[a + b * D] + 1 for b in range(d)]
        trails.append(ClosedTrail(tuple(zip(seq, seq[1:] + seq[:1]))))
    return trails


def decompose_equal(n, d, node_limit=2_000_000):
    """Decompose K~_n into n*n/d closed trails of length d.

    Raises Impossible for the two genuinely infeasible lengths (1 and 2,
    for n >= 2) and ValueError when d does not divide n*n.  The result's
    `route` names the construction that produced it.
    """
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    if (n * n) % d:
        raise ValueError(f"{d} does not divide n*n = {n * n}")
    if n == 1:
        return TrailDecomposition(1, 1, [ClosedTrail(((1, 1),))], "euler")
    if d == 1:
        raise Impossible(
            f"length 1 needs {n * n} loops but only {n} exist",
            reason="counting")
    if d == 2:
        raise Impossible(
            "length-2 trails are digon pairs and can never cover a loop",
            reason="counting")
    if d == n * n:
        all_edges = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1)]
        trails, route = [euler_trail(all_edges)], "euler"
    elif d == 4 and n % 2 == 0:
        trails, route = prop17_trails(n), "families"
    elif d == 3:
        trails, route = _triple_trails(n), "latin"
    elif d in (5, 7):
        trails, route = _prop18_trails(n, d, node_limit), "hub"
    else:
        trails, route = _search_trails(n, d, node_limit), "search"
    return TrailDecomposition(n, d, trails, route)


def chi_from_decomposition(q, decomposition):
    """Read a decomposition of K~_q into d trails of length q*q/d as a
    cyclic string: residue class a mod d carries trail a's vertex sequence.
    The result achieves every 2-word on translates of {0, d}; it is returned
    with the CoverageReport that verified it."""
    trails = decomposition.trails if isinstance(
        decomposition, TrailDecomposition) else list(decomposition)
    d = len(trails)
    L = q * q // d
    if any(len(t) != L for t in trails):
        raise ValueError("trails must all have length q*q/d")
    for t in trails:
        if any(not (1 <= u <= q) for e in t.edges for u in e):
            raise ValueError("trail vertices must lie in 1..q")
    norm = sorted(least_rotation(t.vertex_sequence()) for t in trails)
    out = [0] * (q * q)
    for a, seq in enumerate(norm):
        for bpos in range(L):
            out[a + bpos * d] = seq[bpos] - 1
    chi = CyclicString(q, tuple(out))
    rep = verify_cover(chi, CycleParams.unreduced(q, 2), (0, d % (q * q)))
    if not rep.complete:
        raise VerificationError("decomposition reading failed verification")
    return chi, rep
