"""Core domain types, the independent coverage verifier, and affine classes.

Everything downstream funnels through :func:`verify_cover`: the construction
and search modules emit cyclic strings whose coverage claims are re-checked
here, independently of how they were produced.

These primitives live here and are the only implementations in the
package; new code must call them rather than re-derive them:

* :func:`windows` -- the lazy scan of the words a cyclic string reads through
  an index set at every translate;
* :func:`least_rotation` -- the lexicographically least rotation (Booth);
* :func:`desk_size` -- q**n, refused past ``DESK_SCALE`` before any work
  that scales with it;
* :func:`least_prime_factor` -- trial division, for primality and prime
  powers;
* :func:`content_lines` -- the lines of a text file that are neither blank
  nor ``#`` comments;
* ``_least_gap_walk`` -- the affine images k*I + b that start (0, d), d the
  least gcd(y - x, L) over the pairs of I, about |I|^2 of them; affine
  canonicalization and class enumeration both walk it.

Conventions used across the package:

* alphabet symbols are ``0 .. q-1``,
* an index set is a sorted tuple of distinct residues,
* unreduced cycles live on ``Z_{q**n}``, reduced cycles on ``Z_{q**n - 1}``,
* words are tuples and, internally, radix-q integer codes (first symbol most
  significant, so code order equals lexicographic word order).
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, islice, product
from math import gcd

DESK_SCALE = 2 ** 24


class UcycleError(Exception):
    """Base error for this package."""


class VerificationError(UcycleError):
    """A constructed object failed its own verification."""


class BudgetExceeded(UcycleError):
    """Search stopped on a node or time budget; not a mathematical verdict."""

    def __init__(self, message, nodes=0, elapsed=0.0):
        super().__init__(message)
        self.nodes = nodes
        self.elapsed = elapsed


# ---------------------------------------------------------------------------
# cyclic strings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CyclicString:
    """A map from Z_N to the alphabet {0, ..., q-1}, N = len(symbols)."""

    q: int
    symbols: tuple

    def __post_init__(self):
        if self.q < 2:
            raise ValueError("alphabet size must be >= 2")
        symbols = tuple(self.symbols)
        if not symbols:
            raise ValueError("cyclic string must be nonempty")
        alphabet = range(self.q)
        # 1.0 and True equal 1, so a range check alone lets them in; the
        # range is not made a set, which would hold all q symbols
        if not ({type(s) for s in symbols} == {int}
                and all(s in alphabet for s in set(symbols))):
            s = next(s for s in symbols
                     if type(s) is not int or s not in alphabet)
            raise ValueError(f"symbol {s} out of range for q={self.q}")
        object.__setattr__(self, "symbols", symbols)

    def __len__(self):
        return len(self.symbols)

    def __getitem__(self, i):
        return self.symbols[i % len(self.symbols)]

    def rotated(self, r):
        """The string s -> self[s + r]."""
        n = len(self.symbols)
        r %= n
        return CyclicString(self.q, self.symbols[r:] + self.symbols[:r])

    def translated(self, c):
        """Add the constant c to every symbol, mod q."""
        return CyclicString(self.q, tuple((s + c) % self.q for s in self.symbols))

    def text(self):
        """Cycle text format: digits for q <= 10, comma-separated otherwise."""
        return ("" if self.q <= 10 else ",").join(map(str, self.symbols))

    @classmethod
    def from_text(cls, text, q):
        """Read back `text()`, or a file of it: blank lines and lines that
        start with '#' are skipped, and at most one line may remain."""
        lines = list(content_lines(text.splitlines()))
        if len(lines) > 1:
            raise ValueError(f"expected one cycle line, found {len(lines)} "
                             f"(lines {', '.join(str(k) for k, _ in lines)})")
        symbols = ()
        for k, line in lines:
            parts = line if q <= 10 else line.split(",")
            try:
                symbols = tuple(map(int, parts))
            except ValueError:
                for part in parts:
                    try:
                        int(part)
                    except ValueError:
                        raise ValueError(f"bad symbol {part!r} on line {k}"
                                         ) from None
        return cls(q, symbols)


def content_lines(lines):
    """Yield (line number from 1, stripped line) for each of `lines` that is
    neither blank nor a comment starting with '#'."""
    for k, line in enumerate(lines, 1):
        line = line.strip()
        if line and not line.startswith("#"):
            yield k, line


def least_rotation(seq):
    """The lexicographically least rotation of `seq`, as a tuple.

    Booth's algorithm (K. S. Booth, Lexicographically least circular
    substrings, IPL 1980): a failure function over the doubled sequence,
    linear time.
    """
    s = tuple(seq)
    doubled = s + s
    fail = [-1] * len(doubled)
    k = 0
    for j in range(1, len(doubled)):
        c = doubled[j]
        i = fail[j - k - 1]
        while i != -1 and c != doubled[k + i + 1]:
            if c < doubled[k + i + 1]:
                k = j - i - 1
            i = fail[i]
        if c != doubled[k + i + 1]:  # here i == -1
            if c < doubled[k]:
                k = j
            fail[j - k] = -1
        else:
            fail[j - k] = i + 1
    return s[k:] + s[:k]


def equal_up_to_rotation(a: CyclicString, b: CyclicString):
    if len(a) != len(b) or a.q != b.q:
        return False
    return least_rotation(a.symbols) == least_rotation(b.symbols)


def equal_up_to_rotation_and_translate(a: CyclicString, b: CyclicString):
    """True when b equals some rotation of a plus a constant, symbol-wise."""
    if len(a) != len(b) or a.q != b.q:
        return False
    return any(
        equal_up_to_rotation(a.translated(c), b) for c in range(a.q)
    )


# ---------------------------------------------------------------------------
# parameters, index sets, words
# ---------------------------------------------------------------------------


def desk_size(q, n):
    """q**n, or ValueError when q < 2, n < 1 or q**n > DESK_SCALE.  From
    n = 25 on, q**n >= 2**25 is over the bound for every q, so a huge n is
    refused without computing the power, and the message names q and n
    rather than a number too long to print."""
    if q < 2 or n < 1:
        raise ValueError("need q >= 2 and n >= 1")
    if n < DESK_SCALE.bit_length():
        size = q ** n
        if size <= DESK_SCALE:
            return size
    raise ValueError(f"{q}**{n} exceeds desk scale {DESK_SCALE}")


@dataclass(frozen=True)
class CycleParams:
    """Alphabet size q, window size n, modulus L in {q**n, q**n - 1}."""

    q: int
    n: int
    L: int

    def __post_init__(self):
        full = desk_size(self.q, self.n)
        if self.L not in (full, full - 1):
            raise ValueError(f"modulus {self.L} must be q**n or q**n - 1")

    @property
    def reduced_modulus(self):
        return self.L == self.q ** self.n - 1

    @classmethod
    def unreduced(cls, q, n):
        return cls(q, n, desk_size(q, n))

    @classmethod
    def reduced(cls, q, n):
        return cls(q, n, desk_size(q, n) - 1)


def normalize_index_set(I, L):
    """Sorted tuple of the residues of I mod L; rejects collisions."""
    reduced = sorted(i % L for i in I)
    if len(set(reduced)) != len(reduced):
        raise ValueError(f"index set {tuple(I)} has repeated residues mod {L}")
    return tuple(reduced)


# ---------------------------------------------------------------------------
# windows and the coverage verifier
# ---------------------------------------------------------------------------


def window(chi: CyclicString, I, t):
    """The word read through the index set I at translate t."""
    n = len(chi)
    return tuple(chi.symbols[(i + t) % n] for i in I)


def windows(symbols, I):
    """Lazily yield the word read through I at translates 0, 1, ..., N-1 of
    the cyclic sequence `symbols` (N = len(symbols)); each i is taken mod N.

    Built from one rotated iterator per element of I, zipped together, so
    no per-translate indexing and nothing of size N is materialized.
    """
    N = len(symbols)
    return zip(*(chain(islice(symbols, i % N, None), islice(symbols, i % N))
                 for i in I))


# how many achieved words, least first, a CoverageReport's JSON lists
WITNESS_SAMPLE = 8


@dataclass
class CoverageReport:
    """Verdict of the independent verifier.

    ``first`` maps each achieved word to the first translate that reads it,
    in scan order; ``hits`` is the same map in word order, sorted on demand.
    """

    complete: bool
    reduced: bool
    q: int
    n: int
    index_set: tuple
    missing: list
    first: dict

    @property
    def hits(self):
        return dict(sorted(self.first.items()))

    def to_json_dict(self):
        # the least achieved words: walk the words in order until enough
        # are found, instead of sorting every word read
        achieved = (w for w in product(range(self.q), repeat=self.n)
                    if w in self.first)
        sample = {",".join(map(str, w)): self.first[w] for w in
                  islice(achieved, min(WITNESS_SAMPLE, len(self.first)))}
        return {
            "schema": 1,
            "complete": self.complete,
            "reduced": self.reduced,
            "q": self.q,
            "n": self.n,
            "index_set": list(self.index_set),
            "missing": [list(w) for w in self.missing],
            "witness_sample": sample,
        }


def verify_cover(chi: CyclicString, params, I):
    """Check which n-words appear on translates of I; report the misses.

    `params` is a CycleParams (strict modulus) or a plain (q, n) pair, in
    which case the string may have any length (approximate cycles).  With
    the reduced modulus q**n - 1 the all-zeroes word is not required.

    One pass over the windows records the first translate of each word.
    Every word read is a q-ary n-word (a CyclicString holds only symbols in
    range(q)), so the string is complete exactly when it reads all q**n of
    them (q**n - 1 besides the all-zeroes word in the reduced case); the
    words themselves are listed only to name the missing ones, so q**n
    must pass `desk_size` before the scan.
    """
    if isinstance(params, CycleParams):
        q, n = params.q, params.n
        N = params.L
        if len(chi) != N:
            raise ValueError(f"string length {len(chi)} != modulus {N}")
        reduced = params.reduced_modulus
    else:
        q, n = params
        N = len(chi)
        reduced = False
    if chi.q != q:
        raise ValueError("alphabet mismatch between string and params")
    I = normalize_index_set(I, N)
    if len(I) != n:
        raise ValueError(f"index set size {len(I)} != window size {n}")
    words = desk_size(q, n) - reduced

    first = {}
    for t, word in enumerate(windows(chi.symbols, I)):
        if word not in first:
            first[word] = t

    found = len(first)
    if reduced and (0,) * n in first:
        found -= 1
    missing = []
    if found < words:
        required = product(range(q), repeat=n)
        if reduced:
            next(required)  # the all-zeroes word comes first
        missing = [w for w in required if w not in first]
    return CoverageReport(
        complete=not missing,
        reduced=reduced,
        q=q,
        n=n,
        index_set=I,
        missing=missing,
        first=first,
    )


# ---------------------------------------------------------------------------
# affine equivalence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AffineClass:
    """Canonical representative of an orbit under s -> k*s + b, k a unit."""

    canonical: tuple
    k: int
    b: int


def units(L):
    """The units of Z_L as residues 1..L-1; [1] for the trivial ring Z_1."""
    return [k for k in range(1, max(L, 2)) if gcd(k, L) == 1]


def least_prime_factor(n):
    """The least prime dividing n >= 2: trial division up to sqrt(n)."""
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


def is_prime(n):
    """Whether n is a prime."""
    return n >= 2 and least_prime_factor(n) == n


def _least_gap(I, L):
    """d = min gcd(y - x, L) over the pairs x < y of I, |I| >= 2."""
    return min(gcd(y - x, L) for x, y in combinations(I, 2))


def _least_gap_walk(I, L, d):
    """Yield (k*I + b as a sorted tuple, k, b) for every unit k and shift b
    whose image starts (0, d), where d = _least_gap(I, L) and |I| >= 2.

    The one walk over the affine group.  Why it finds the least member of
    the orbit, and every member that starts (0, d):

    * d is an affine invariant (gcd(k*(y - x), L) = gcd(y - x, L) for a unit
      k, and shifts cancel in y - x), and it divides L.
    * No member holds an element e in (0, d) together with 0, since
      gcd(e - 0, L) <= e < d.  So a member that holds 0 and d starts (0, d),
      and the least member starts (0, d) once some member holds 0 and d.
    * Take a pair with gcd(y - x, L) = d and write y - x = d*u; then u is a
      unit mod L/d.  The units of Z_L map onto those of Z_(L/d), so some
      unit k has k = u^-1 (mod L/d), i.e. k*(y - x) = d (mod L), and
      b = -k*x sends x to 0 and y to d.
    * Conversely a map onto a member that starts (0, d) sends some x to 0
      and some y to d, so gcd(y - x, L) = gcd(d, L) = d, k*(y - x) = d and
      b = -k*x: exactly the maps below.

    The units k with k*(y - x) = d are the lifts u^-1 + j*(L/d), j < d,
    that are prime to L; for d = 1 there is one, pow(y - x, -1, L).  No map
    is met twice, since (k, b) fixes x = -b/k and y = (d - b)/k.
    """
    m = L // d
    for x, y in combinations(I, 2):
        diff = y - x
        if gcd(diff, L) != d:
            continue
        for x0, u in ((x, diff // d), (y, (L - diff) // d)):
            for k in range(pow(u, -1, m), L, m):
                if gcd(k, L) == 1:
                    b = -k * x0 % L
                    yield tuple(sorted((k * i + b) % L for i in I)), k, b


def canonicalize_affine(I, L):
    """Lexicographically least sorted member of the affine orbit of I, with
    the least (k, b) that maps I onto it.

    Every map onto the least member is one of the least-gap walk's, so the
    min over (image, k, b) of that walk is the least image and, among the
    maps onto it, the least (k, b).
    """
    I = normalize_index_set(I, L)
    if len(I) == 1:
        return AffineClass(canonical=(0,), k=1, b=-I[0] % L)
    canonical, k, b = min(_least_gap_walk(I, L, _least_gap(I, L)))
    return AffineClass(canonical=canonical, k=k, b=b)


def affine_orbit(I, L):
    """All sorted tuples in the affine orbit of I: the whole k x b grid."""
    I = normalize_index_set(I, L)
    return {tuple(sorted((k * x + b) % L for x in I))
            for k in units(L) for b in range(L)}


def affine_class_representatives(L, size):
    """Canonical representatives of every affine class of size-`size` subsets,
    in lexicographic order.

    A class's least member starts (0, d), d its least gap (see
    `_least_gap_walk`), and all its other elements x > d have
    gcd(x, L) >= d.  So for each divisor d of L, ascending, this walks the
    subsets (0, d) + rest with rest drawn from those x, in lexicographic
    order, and skips a subset whose own least gap is below d (on composite L,
    gcd(x, L) >= d does not make d divide x, so the gaps inside rest can
    fall below d).  The first subset met of each class is its least member,
    hence its representative, and its walk marks every member of the class
    that starts (0, d) as seen.  Members of different d never meet, so `seen`
    restarts at each d.
    """
    if not 1 <= size <= L:
        raise ValueError("size out of range")
    if size == 1:
        return [(0,)]
    reps = []
    for d in (d for d in range(1, L // 2 + 1) if L % d == 0):
        seen = set()
        pool = [x for x in range(d + 1, L) if gcd(x, L) >= d]
        for rest in combinations(pool, size - 2):
            combo = (0, d) + rest
            if combo in seen or d > 1 and _least_gap(combo, L) < d:
                continue
            reps.append(combo)
            seen.update(image for image, _, _ in _least_gap_walk(combo, L, d))
    return reps
