"""Constructive pipeline for arithmetic-progression window sets.

The quotient map collapses each constant-translate class of q-ary n-strings
to the (n-1)-string of consecutive differences.  A cycle downstairs lifts to
a cycle upstairs exactly when its symbol sum vanishes mod q; lifting a full
de Bruijn cycle and interleaving its q constant translates at stride q yields
a cycle achieving every n-word on translates of {0, q, ..., (n-1)q}.  The
de Bruijn cycle is built from Lyndon words (`de_bruijn_sequence`).  Every
cycle here is a `CyclicString`: read as a closed walk in the order-m de
Bruijn digraph, its vertices are its m-windows, `windows(symbols,
range(m))`, so `lift_cycle` and `project_cycle` map strings to strings.

`double_ap3` converts a {0, d, 2d}-cycle over alphabet q into a
{0, 8d, 16d}-cycle over alphabet 2q.  Each of the input's d residue-class
trails is copied eight times, once per parity pattern j in F_2^3: symbol x at
position i becomes 2x plus the parity <f_(i mod 4), j>, where f runs through
e1, e2, e3, e1+e2+e3.  Any three cyclically consecutive f's form a basis, so
every triple over [2q] lies on exactly one of the 8d trails.  The parities
have period 4, so 4 | k = q**3/d closes each trail (the paper asks 8 | k).
"""
from __future__ import annotations

from .core import (
    CycleParams,
    CyclicString,
    UcycleError,
    VerificationError,
    desk_size,
    verify_cover,
    windows,
)

class ZeroSumViolation(UcycleError):
    """Cycle symbol sum is nonzero mod q, so no lift exists."""


class DivisibilityViolation(UcycleError):
    """4 must divide q**3 / d for the alphabet-doubling construction."""


class InvalidInput(UcycleError):
    """Input string failed its coverage precondition."""


def ap_index_set(n, d):
    """The arithmetic progression {0, d, 2d, ..., (n-1)d}."""
    return tuple(j * d for j in range(n))


def quotient_lambda(word, q):
    """Consecutive differences (x1 - x2, ..., x_{n-1} - x_n) mod q."""
    if len(word) < 2:
        raise ValueError("need a string of length >= 2")
    return tuple((word[j] - word[j + 1]) % q for j in range(len(word) - 1))


def project_cycle(cycle: CyclicString):
    """Apply the quotient map vertex-wise; the image cycle's symbols are the
    consecutive differences of the input's symbols."""
    q = cycle.q
    diffs = tuple((a - b) % q for a, b in windows(cycle.symbols, (0, 1)))
    return CyclicString(q, diffs)


def lift_cycle(cycle: CyclicString):
    """Lift one dimension up; exists iff the symbol sum is 0 mod q.

    Anchored so the lifted first symbol equals the base cycle's first symbol,
    after which partial sums determine everything; the round trip
    project_cycle(lift_cycle(c)) == c holds exactly.
    """
    q, c = cycle.q, cycle.symbols
    if sum(c) % q:
        raise ZeroSumViolation(
            f"symbol sum {sum(c) % q} != 0 mod {q}; cycle does not lift")
    s = [c[0]]
    for sym in c[:-1]:
        s.append((s[-1] - sym) % q)
    return CyclicString(q, tuple(s))


def de_bruijn_sequence(q, order):
    """The lexicographically least cyclic string of length q**order that
    reads every order-word once in its consecutive windows.

    Fredricksen and Maiorana (Discrete Math. 23, 1978): the Lyndon words
    over range(q) whose length divides `order`, concatenated in
    lexicographic order.  Each Lyndon word of length at most `order` comes
    from the last by Duval's step (Theoret. Comput. Sci. 60, 1988): repeat
    the word to length `order`, drop its trailing q - 1 symbols, and add 1
    to the last symbol left.
    """
    if q < 2 or order < 1:
        raise ValueError("need q >= 2 and order >= 1")
    size = desk_size(q, order)
    seq = []
    word = [0]
    while word:
        if order % len(word) == 0:
            seq += word
        word = (word * (order // len(word) + 1))[:order]
        while word and word[-1] == q - 1:
            word.pop()
        if word:
            word[-1] += 1
    if len(seq) != size:
        raise VerificationError("Lyndon words do not fill q**order symbols")
    return CyclicString(q, tuple(seq))


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
    params = CycleParams.unreduced(q, n)  # the size check, before any build
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
    # the q constant translates of the lift as the classes mod q: position
    # q*t + j holds lifted[t] - j
    lifted = lift_cycle(base).symbols
    chi = trails_to_chi([[(x - j) % q for x in lifted] for j in range(q)], q)
    report = verify_cover(chi, params, ap_index_set(n, q))
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


_PARITY = (1, 2, 4, 7)  # e1, e2, e3, e1 + e2 + e3 in F_2^3, as bitmasks


def double_ap3(chi: CyclicString, d):
    """From a verified {0, d, 2d}-cycle over q with 4 | k = q**3/d, build a
    verified {0, 8d, 16d}-cycle over 2q (length 8 q**3); returns it with the
    CoverageReport that verified it.

    Class a of the input is a closed walk x_0 ... x_(k-1) in the pair
    digraph on [q], and the d walks use every triple once.  Trail j*d + a of
    the output, j = 0 .. 7, reads 2 x_i + <f_(i mod 4), j> with f = _PARITY.
    It uses each triple over [2q] exactly once: the halves of the triple
    fix a and i, and its parities fix j, because any three cyclically
    consecutive f's are a basis of F_2^3.  As 4 | k each trail closes.
    j = 0 and j = 7 are the all-even and all-odd copies of the input.
    """
    q = chi.q
    N = q ** 3
    if len(chi) != N:
        raise InvalidInput(f"expected length q**3 = {N}, got {len(chi)}")
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    k, rem = divmod(N, d)
    if rem:
        raise ValueError(f"{d} does not divide q**3 = {N}")
    if k % 4:
        raise DivisibilityViolation(f"4 does not divide q**3/d = {k}")
    rep = verify_cover(chi, CycleParams.unreduced(q, 3), ap_index_set(3, d))
    if not rep.complete:
        raise InvalidInput("input fails verification as a {0,d,2d}-cycle")

    base = chi_to_trail_symbols(chi, d)
    trails = []
    for j in range(8):
        bits = [bin(f & j).count("1") % 2 for f in _PARITY] * (k // 4)
        trails.extend(tuple(2 * x + b for x, b in zip(syms, bits))
                      for syms in base)
    out = trails_to_chi(trails, 2 * q)
    report = verify_cover(out, CycleParams.unreduced(2 * q, 3),
                          ap_index_set(3, 8 * d))
    if not report.complete:
        raise VerificationError("doubled cycle failed verification")
    return out, report
