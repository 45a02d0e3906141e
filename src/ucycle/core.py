"""Core domain types, the independent coverage verifier, and affine classes.

Everything downstream funnels through :func:`verify_cover`: the construction
and search modules emit cyclic strings whose coverage claims are re-checked
here, independently of how they were produced.

Three primitives live here and are the only implementations in the package;
new code must call them rather than re-derive them:

* :func:`windows` -- the lazy scan of the words a cyclic string reads through
  an index set at every translate;
* :func:`least_rotation` -- the lexicographically least rotation (Booth);
* :func:`euler_circuit` -- Hierholzer's closed walk, least head first.

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

DESK_SCALE = 2 ** 32


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
        # 1.0 and True equal 1, so a range check alone lets them in
        if not (set(symbols).issubset(alphabet)
                and {type(s) for s in symbols} == {int}):
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
        text = text.strip()
        if q <= 10:
            symbols = tuple(int(ch) for ch in text)
        else:
            symbols = tuple(int(part) for part in text.split(","))
        return cls(q, symbols)


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


@dataclass(frozen=True)
class CycleParams:
    """Alphabet size q, window size n, modulus L in {q**n, q**n - 1}."""

    q: int
    n: int
    L: int

    def __post_init__(self):
        if self.q < 2 or self.n < 1:
            raise ValueError("need q >= 2 and n >= 1")
        full = self.q ** self.n
        if full > DESK_SCALE:
            raise ValueError(f"q**n = {full} exceeds desk scale {DESK_SCALE}")
        if self.L not in (full, full - 1):
            raise ValueError(f"modulus {self.L} must be q**n or q**n - 1")

    @property
    def reduced_modulus(self):
        return self.L == self.q ** self.n - 1

    @classmethod
    def unreduced(cls, q, n):
        return cls(q, n, q ** n)

    @classmethod
    def reduced(cls, q, n):
        return cls(q, n, q ** n - 1)


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

    def to_json_dict(self, witness_sample=8):
        # the least achieved words: walk the words in order until enough
        # are found, instead of sorting every word read
        achieved = (w for w in product(range(self.q), repeat=self.n)
                    if w in self.first)
        sample = {",".join(map(str, w)): self.first[w] for w in
                  islice(achieved, min(witness_sample, len(self.first)))}
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


def verify_cover(chi: CyclicString, params, I, reduced=False):
    """Check which n-words appear on translates of I; report the misses.

    `params` is a CycleParams (strict modulus) or a plain (q, n) pair, in
    which case the string may have any length (approximate cycles).  In the
    reduced case the all-zeroes word is not required.

    One pass over the windows records the first translate of each word.
    Every word read is a q-ary n-word (a CyclicString holds only symbols in
    range(q)), so the string is complete exactly when it reads all q**n of
    them (q**n - 1 besides the all-zeroes word in the reduced case); the
    words themselves are listed only to name the missing ones.
    """
    if isinstance(params, CycleParams):
        q, n = params.q, params.n
        N = params.L
        if len(chi) != N:
            raise ValueError(f"string length {len(chi)} != modulus {N}")
        if reduced and not params.reduced_modulus:
            raise ValueError("reduced verification requires modulus q**n - 1")
    else:
        q, n = params
        N = len(chi)
        if reduced:
            raise ValueError("reduced verification needs CycleParams")
    if chi.q != q:
        raise ValueError("alphabet mismatch between string and params")
    I = normalize_index_set(I, N)
    if len(I) != n:
        raise ValueError(f"index set size {len(I)} != window size {n}")

    first = {}
    for t, word in enumerate(windows(chi.symbols, I)):
        if word not in first:
            first[word] = t

    found = len(first)
    if reduced and (0,) * n in first:
        found -= 1
    missing = []
    if found < q ** n - reduced:
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
    L: int


def units(L):
    """The units of Z_L as residues 1..L-1; [1] for the trivial ring Z_1."""
    return [k for k in range(1, max(L, 2)) if gcd(k, L) == 1]


def is_prime(n):
    """Trial division: whether n is a prime."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _zero_images(I, L):
    """Yield (k, b, k*I + b as a sorted tuple) for every image that contains
    0, i.e. b = -k*x for some x in I; k ascending, then b ascending.

    The one walk over the affine group: every orbit member is a translate of
    such an image, and the least member starts with 0, so it is one of them.
    """
    for k in units(L):
        for b in sorted(-k * x % L for x in I):
            yield k, b, tuple(sorted((k * i + b) % L for i in I))


def canonicalize_affine(I, L):
    """Lexicographically least sorted member of the affine orbit of I, with
    the least (k, b) that maps I onto it."""
    I = normalize_index_set(I, L)
    # min keeps the first least image, so ties go to the least (k, b)
    k, b, canonical = min(_zero_images(I, L), key=lambda kbi: kbi[2])
    return AffineClass(canonical=canonical, k=k, b=b, L=L)


def affine_orbit(I, L):
    """All sorted tuples in the affine orbit of I."""
    I = normalize_index_set(I, L)
    return {tuple(sorted((x + c) % L for x in image))
            for _, _, image in _zero_images(I, L) for c in range(L)}


def affine_class_representatives(L, size):
    """Canonical representatives of every affine class of size-`size` subsets.

    Walks the subsets that contain 0 in lexicographic order.  The first one
    met of each class is its least member, hence its representative, and
    marks every member of the class that contains 0 as seen.
    """
    if not 1 <= size <= L:
        raise ValueError("size out of range")
    seen = set()
    reps = []
    for rest in combinations(range(1, L), size - 1):
        combo = (0,) + rest
        if combo in seen:
            continue
        reps.append(combo)
        seen.update(image for _, _, image in _zero_images(combo, L))
    return reps


# ---------------------------------------------------------------------------
# de Bruijn digraphs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeBruijnDigraph:
    """Vertices are q-ary n-strings (encoded radix-q); x -> y iff the last
    n-1 symbols of x equal the first n-1 symbols of y.  Loops included."""

    q: int
    n: int

    def __post_init__(self):
        if self.q < 2 or self.n < 1:
            raise ValueError("need q >= 2 and n >= 1")
        if self.q ** (self.n + 1) > DESK_SCALE:
            raise ValueError("digraph exceeds desk scale")

    @property
    def num_vertices(self):
        return self.q ** self.n

    @property
    def num_edges(self):
        return self.q ** (self.n + 1)

    def successors(self, v):
        base = (v % self.q ** (self.n - 1)) * self.q
        return [base + s for s in range(self.q)]

    def edges(self):
        for v in range(self.num_vertices):
            for w in self.successors(v):
                yield (v, w)

    def loops(self):
        return [v for v in range(self.num_vertices)
                if v in self.successors(v)]


def debruijn_digraph(q, n):
    return DeBruijnDigraph(q, n)


def euler_circuit(succ, start):
    """Closed walk from `start` using every edge of the digraph `succ`
    (vertex -> heads, one entry per edge) exactly once.

    Hierholzer's algorithm, always taking the least unused head first, so
    the walk is deterministic.  Returns the vertex sequence, `start` at both
    ends; raises VerificationError when edges remain that the walk from
    `start` cannot reach.
    """
    heads = {v: sorted(ws, reverse=True) for v, ws in succ.items()}
    stack = [start]
    path = []
    while stack:
        ws = heads.get(stack[-1])
        if ws:
            stack.append(ws.pop())
        else:
            path.append(stack.pop())
    if any(heads.values()):
        raise VerificationError("edge set is not connected")
    path.reverse()
    return path
