"""Constructive pipeline for arithmetic-progression window sets.

The quotient map collapses each constant-translate class of q-ary n-strings
to the (n-1)-string of consecutive differences.  A cycle downstairs lifts to
a cycle upstairs exactly when its symbol sum vanishes mod q; lifting a full
de Bruijn cycle and interleaving its q constant translates at stride q yields
a cycle achieving every n-word on translates of {0, q, ..., (n-1)q}.

`double_ap3` converts a {0, d, 2d}-cycle over alphabet q into a
{0, 8d, 16d}-cycle over alphabet 2q by splitting the doubled alphabet into
even and odd symbols: the even-even and odd-odd pair graphs carry two copies
of the input's trail decomposition, and the parity-mixing edges are covered
by an explicit family of 4-cycles, regrouped into equal-length closed trails.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import (
    CycleParams,
    CyclicString,
    UcycleError,
    VerificationError,
    debruijn_digraph,
    euler_circuit,
    least_rotation,
    verify_cover,
    windows,
)

class ZeroSumViolation(UcycleError):
    """Cycle symbol sum is nonzero mod q, so no lift exists."""


class DivisibilityViolation(UcycleError):
    """8 must divide q**3 / d for the alphabet-doubling construction."""


class InvalidInput(UcycleError):
    """Input string failed its coverage precondition."""


def ap_index_set(n, d):
    """The arithmetic progression {0, d, 2d, ..., (n-1)d}."""
    return tuple(j * d for j in range(n))


@dataclass(frozen=True)
class VertexCycle:
    """A closed walk in the order-m de Bruijn digraph, stored as the cyclic
    symbol sequence read along it; vertex i is the m-window at position i."""

    q: int
    m: int
    symbols: tuple

    def __post_init__(self):
        if self.m < 1 or self.q < 2 or not self.symbols:
            raise ValueError("need q >= 2, m >= 1, nonempty symbols")
        for s in self.symbols:
            if not 0 <= s < self.q:
                raise ValueError("symbol out of range")

    def __len__(self):
        return len(self.symbols)

    def vertices(self):
        return list(windows(self.symbols, range(self.m)))

    def symbol_sum(self):
        return sum(self.symbols) % self.q


def quotient_lambda(word, q):
    """Consecutive differences (x1 - x2, ..., x_{n-1} - x_n) mod q."""
    if len(word) < 2:
        raise ValueError("need a string of length >= 2")
    return tuple((word[j] - word[j + 1]) % q for j in range(len(word) - 1))


def project_cycle(cycle: VertexCycle):
    """Apply the quotient map vertex-wise; the image cycle's symbols are the
    consecutive differences of the input's symbols."""
    q = cycle.q
    diffs = tuple((a - b) % q for a, b in windows(cycle.symbols, (0, 1)))
    return VertexCycle(q, cycle.m - 1, diffs)


def lift_cycle(cycle: VertexCycle):
    """Lift one dimension up; exists iff the symbol sum is 0 mod q.

    Anchored so the lifted first symbol equals the base cycle's first symbol,
    after which partial sums determine everything; the round trip
    project_cycle(lift_cycle(c)) == c holds exactly.
    """
    q, c = cycle.q, cycle.symbols
    if cycle.symbol_sum() != 0:
        raise ZeroSumViolation(
            f"symbol sum {sum(c) % q} != 0 mod {q}; cycle does not lift")
    s = [c[0]]
    for sym in c[:-1]:
        s.append((s[-1] - sym) % q)
    return VertexCycle(q, cycle.m + 1, tuple(s))


def de_bruijn_sequence(q, order):
    """A cyclic string of length q**order containing every order-window once.

    Euler circuit of the order-1 digraph via Hierholzer with smallest-symbol
    edge choice, then normalized to the least rotation; deterministic.
    """
    if order == 1:
        return CyclicString(q, tuple(range(q)))
    # vertex v is an (order-1)-word as a radix-q code; edge v -> w reads the
    # symbol w % q, so the smallest head is the smallest symbol
    graph = debruijn_digraph(q, order - 1)
    succ = {v: graph.successors(v) for v in range(graph.num_vertices)}
    path = euler_circuit(succ, 0)
    seq = [w % q for w in path[1:]]
    if len(seq) != q ** order:
        raise VerificationError("Euler circuit did not use every edge")
    return CyclicString(q, least_rotation(seq))


def interleave_translates(lifted: VertexCycle):
    """Spread the q constant translates of a lifted cycle across the residue
    classes mod q: position q*t + j holds lifted[t] - j."""
    q = lifted.q
    r = len(lifted)
    out = [0] * (q * r)
    for t in range(r):
        base = lifted.symbols[t]
        for j in range(q):
            out[q * t + j] = (base - j) % q
    return CyclicString(q, tuple(out))


def splice_ap_cycle(q, n, seed=None):
    """A verified cycle of length q**n for the window set {0, q, ..., (n-1)q},
    returned with the CoverageReport that verified it.

    `seed` may supply the starting de Bruijn cycle of order n-1 (as a
    CyclicString or text); otherwise the deterministic default is used.
    For n == 2 with q even no such construction exists through this route:
    the order-1 seed has symbol sum q(q-1)/2 != 0 mod q.  (For q == 2 the
    target set {0, 2} admits no cycle at all.)
    """
    if n < 2 or q < 2:
        raise ValueError("need n >= 2 and q >= 2")
    if n == 2 and q % 2 == 0:
        raise ZeroSumViolation(
            "order-1 seed cannot lift for even q at n=2; "
            "use the trail-decomposition route instead" +
            (" (no {0,2}-cycle exists for q=2)" if q == 2 else ""))
    if seed is None:
        base = de_bruijn_sequence(q, n - 1)
    else:
        base = seed if isinstance(seed, CyclicString) else \
            CyclicString.from_text(seed, q)
        if len(base) != q ** (n - 1):
            raise InvalidInput("seed has wrong length")
        rep = verify_cover(base, CycleParams.unreduced(q, n - 1),
                           tuple(range(n - 1)))
        if not rep.complete:
            raise InvalidInput("seed is not a de Bruijn cycle of order n-1")
    cycle = VertexCycle(q, n - 1, base.symbols)
    lifted = lift_cycle(cycle)
    chi = interleave_translates(lifted)
    report = verify_cover(chi, CycleParams.unreduced(q, n),
                          ap_index_set(n, q))
    if not report.complete:
        raise VerificationError("spliced cycle failed verification")
    return chi, report


# ---------------------------------------------------------------------------
# alphabet doubling
# ---------------------------------------------------------------------------


def chi_to_trail_symbols(chi: CyclicString, d):
    """Split a {0, d, 2d}-cycle into its d residue-class strings; string a is
    a closed walk in the pair digraph covering k = len(chi)/d edges."""
    N = len(chi)
    k = N // d
    return [
        tuple(chi.symbols[(a + b * d) % N] for b in range(k))
        for a in range(d)
    ]


def trails_to_chi(trail_symbol_lists, q):
    """Inverse of the split: class a of the output reads trail a."""
    d = len(trail_symbol_lists)
    k = len(trail_symbol_lists[0])
    out = [0] * (d * k)
    for a, syms in enumerate(trail_symbol_lists):
        for b in range(k):
            out[a + b * d] = syms[b]
    return CyclicString(q, tuple(out))


def _walk_edges(symbols):
    """Edges (consecutive triples) of the closed pair-walk with these
    symbols."""
    return list(windows(symbols, (0, 1, 2)))


def _parity_cross_pieces(q):
    """4-cycles covering every triple over [2q] that is neither all-even nor
    all-odd, each exactly once.

    Family one handles the four single-parity-change classes: for even a, b
    and odd c the walk (a, b, c, a+b+c) works because each such triple has a
    unique representation in one of its four phases.  Family two handles the
    alternating classes (even,odd,even) and (odd,even,odd): walks
    (x, y, z, w) with y + w = x + z + 4 taken once per rotation-by-two class;
    the pairing has no fixed quad when q is even (and 8 | q**3/d forces q
    even), so every alternating triple lands in exactly one walk.
    """
    pieces = []
    evens = [2 * a for a in range(q)]
    odds = [2 * a + 1 for a in range(q)]
    M = 2 * q
    for a in evens:
        for b in evens:
            for c in odds:
                pieces.append((a, b, c, (a + b + c) % M))
    seen = set()
    for x in evens:
        for y in odds:
            for z in evens:
                w = (x + z + 4 - y) % M
                key = min((x, y, z, w), (z, w, x, y))
                if key in seen:
                    continue
                seen.add(key)
                pieces.append(key)
    return pieces


def _group_pieces(pieces, per_group):
    """Partition 4-symbol pieces into connected groups of `per_group` pieces.

    Greedy growth by shared vertices, least piece first; deterministic.
    Raises VerificationError when a group finds no piece to grow by.
    """
    def verts(piece):
        r = len(piece)
        return {(piece[i], piece[(i + 1) % r]) for i in range(r)}

    order = sorted(range(len(pieces)), key=lambda i: pieces[i])
    unused = set(order)
    vertex_index = {}
    for i in order:
        for v in verts(pieces[i]):
            vertex_index.setdefault(v, []).append(i)

    groups = []
    for start in order:
        if start not in unused:
            continue
        unused.discard(start)
        group = [start]
        gverts = set(verts(pieces[start]))
        while len(group) < per_group:
            cands = [i for v in gverts for i in vertex_index[v] if i in unused]
            if not cands:
                raise VerificationError("piece grouping failed")
            nxt = min(cands, key=lambda i: pieces[i])
            unused.discard(nxt)
            group.append(nxt)
            gverts |= verts(pieces[nxt])
        groups.append(group)
    return [[pieces[i] for i in g] for g in groups]


def _euler_symbols_from_triples(triples):
    """Merge edge-disjoint closed pair-walks (given as triples) into one
    closed walk; Hierholzer over pair-vertices, smallest next edge first."""
    succ = {}
    for x, y, z in triples:
        succ.setdefault((x, y), []).append((y, z))
    path = euler_circuit(succ, min(succ))
    # path vertices: v0, v1, ..., vL (vL == v0); symbols are first components
    return tuple(v[0] for v in path[:-1])


def double_ap3(chi: CyclicString, d):
    """From a verified {0, d, 2d}-cycle over q with 8 | q**3/d, build a
    verified {0, 8d, 16d}-cycle over 2q (length 8 q**3); returns it with the
    CoverageReport that verified it."""
    q = chi.q
    N = q ** 3
    if len(chi) != N:
        raise InvalidInput(f"expected length q**3 = {N}, got {len(chi)}")
    k, rem = divmod(N, d)
    if rem:
        raise ValueError(f"{d} does not divide q**3 = {N}")
    if k % 8:
        raise DivisibilityViolation(f"8 does not divide q**3/d = {k}")
    rep = verify_cover(chi, CycleParams.unreduced(q, 3), ap_index_set(3, d))
    if not rep.complete:
        raise InvalidInput("input fails verification as a {0,d,2d}-cycle")

    q2 = 2 * q
    trails = []
    # two embedded copies of the input decomposition: even and odd symbols
    for syms in chi_to_trail_symbols(chi, d):
        trails.append(tuple(2 * s for s in syms))
    for syms in chi_to_trail_symbols(chi, d):
        trails.append(tuple(2 * s + 1 for s in syms))

    pieces = _parity_cross_pieces(q)
    # exact accounting: pieces must partition the parity-mixing triples
    covered = []
    for piece in pieces:
        covered.extend(_walk_edges(piece))
    expected = 8 * q ** 3 - 2 * q ** 3
    if len(covered) != expected or len(set(covered)) != expected:
        raise VerificationError("parity-cross pieces do not partition")
    for x, y, z in covered:
        if x % 2 == y % 2 == z % 2:
            raise VerificationError("piece edge inside a parity block")

    for group in _group_pieces(pieces, k // 4):
        triples = []
        for piece in group:
            triples.extend(_walk_edges(piece))
        trails.append(_euler_symbols_from_triples(triples))

    if len(trails) != 8 * d or any(len(t) != k for t in trails):
        raise VerificationError("trail pool has wrong shape")
    out = trails_to_chi(trails, q2)
    report = verify_cover(out, CycleParams.unreduced(q2, 3),
                          ap_index_set(3, 8 * d))
    if not report.complete:
        raise VerificationError("doubled cycle failed verification")
    return out, report
