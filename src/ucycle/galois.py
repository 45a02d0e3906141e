"""Finite-field machinery: field tables, coordinate sequences, and the
ordinary/exceptional classification of index sets.

Fields F_{p**m} are represented as integers 0..p**m-1 encoding coefficient
vectors base p against a monic modulus chosen so that x is primitive
(for m = 1, the least primitive root plays the role of x).  Multiplication
goes through exp/log tables relative to that primitive element.

A ground field F_q with q = p**k sits inside F_{p**(k*n)} as the fixed field
of the k-fold Frobenius; its elements are enumerated by coefficient vectors
against powers of a fixed subfield generator, which pins down the symbol
alphabet 0..q-1 once and for all.

One Gauss-Jordan elimination over F_p (`_reduce_mod_p`) does all the linear
algebra.  With g the subfield generator, 1, g, ..., g**(k-1) is an F_p-basis
of F_q, so elements e_1..e_r are F_q-independent exactly when the k*r
elements g**i * e_j are F_p-independent, and an F_p-dependency c among them
is the F_q-dependency with coefficients sum_i c[j*k + i] * g**i, whose
symbol is sum_i c[j*k + i] * p**i.

Coordinate sequences need no coordinates: an F_q-linear functional of
beta**j obeys the linear recurrence of beta's minimal polynomial (Lidl and
Niederreiter, *Finite Fields*, ch. 8), so `lambda_sequence` costs n field
operations per symbol once its first n symbols are read off the basis.

An index set I = {i_1..i_n} (exponents mod q**n - 1) is *ordinary* when some
generator alpha of the multiplicative group makes {alpha**i_j} linearly
independent over F_q, and *exceptional* when every generator gives a
dependent set.  Ordinary sets admit reduced cycles: the coordinate sequence
of successive powers of a witnessing generator achieves every nonzero word
on translates of I.
"""
from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

from .core import (CycleParams, CyclicString, UcycleError, VerificationError,
                   desk_size, is_prime, least_prime_factor, units,
                   verify_cover, windows)

ORDINARY = "ordinary"
EXCEPTIONAL = "exceptional"


class ExceptionalInput(UcycleError):
    """The index set is exceptional, so this construction cannot apply."""


def prime_power(q):
    """(p, k) with q = p**k, or ValueError."""
    if q >= 2:
        p, k = least_prime_factor(q), 1
        while p ** k < q:
            k += 1
        if p ** k == q:
            return p, k
    raise ValueError(f"{q} is not a prime power")


# ---------------------------------------------------------------------------
# field construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldCtx:
    """F_{p**m} with exp/log tables for the primitive element alpha."""

    p: int
    m: int
    modulus: tuple   # monic, ascending coefficients, length m+1
    exp: tuple       # exp[j] = alpha**j, j in [0, p**m - 1)
    log: tuple       # inverse of exp on nonzero elements; log[0] = -1

    @property
    def mult_order(self):
        return self.p ** self.m - 1

    @property
    def alpha(self):
        return self.exp[1 % self.mult_order]

    def add(self, x, y):
        if self.p == 2:
            return x ^ y
        p = self.p
        out = 0
        mult = 1
        for _ in range(self.m):
            out += ((x + y) % p) * mult
            x //= p
            y //= p
            mult *= p
        return out

    def mul(self, x, y):
        if x == 0 or y == 0:
            return 0
        return self.exp[(self.log[x] + self.log[y]) % self.mult_order]

    def pow(self, x, e):
        if x == 0:
            return 0 if e else 1
        return self.exp[(self.log[x] * e) % self.mult_order]

    def digits(self, x):
        p = self.p
        return tuple((x // p ** i) % p for i in range(self.m))


def _power_table(p, m, modulus):
    """Codes of x**0, x**1, ..., x**(p**m - 2) modulo the monic `modulus`
    (ascending coefficients), or None when x is not primitive.

    A zero constant term makes x a zero divisor and is rejected up front.
    Otherwise x is a unit of F_p[x]/(modulus), a ring with at most p**m - 1
    units, so x has order p**m - 1 (and the modulus is irreducible) exactly
    when no earlier power returns to 1; the walk stops at the first that does.
    """
    if modulus[0] % p == 0:
        return None
    one = [1] + [0] * (m - 1)
    cur = one
    weights = [p ** i for i in range(m)]
    exp = [1]
    for _ in range(p ** m - 2):
        top = cur[-1]  # cur = x * cur, reducing x**m by the modulus
        cur = [0] + cur[:-1]
        if top:
            cur = [(c - top * f) % p for c, f in zip(cur, modulus)]
        if cur == one:
            return None
        exp.append(sum(map(operator.mul, cur, weights)))
    return exp


def find_primitive_modulus(p, m):
    """(modulus, exp) for the first monic degree-m modulus making x
    primitive, with exp its table of powers of x.

    Candidates for m >= 2 go by ascending coefficient code.  For m = 1 they
    are x - g for g = 1, 2, ..., so x stands for the least primitive root.
    """
    if m == 1:
        candidates = ((p - g, 1) for g in range(1, p))
    else:
        candidates = (tuple((code // p ** i) % p for i in range(m)) + (1,)
                      for code in range(p ** m))
    for modulus in candidates:
        exp = _power_table(p, m, modulus)
        if exp is not None:
            return modulus, exp
    raise VerificationError(f"no primitive modulus of degree {m} over F_{p}")


def build_field(p, m, modulus=None):
    """Construct F_{p**m} from one walk over the powers of x, modulo the
    given monic modulus or the first primitive one.  The size is checked
    before p is tested, so a huge p costs nothing."""
    if m < 1:
        raise ValueError(f"field degree must be positive, got {m}")
    size = desk_size(p, m)
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if modulus is None:
        modulus, exp = find_primitive_modulus(p, m)
    else:
        modulus = tuple(modulus)
        if len(modulus) != m + 1 or modulus[m] != 1:
            raise ValueError(f"modulus must be monic of degree {m}")
        exp = _power_table(p, m, modulus)
        if exp is None:
            raise ValueError("modulus does not make x primitive")
    log = [-1] * size
    for j, e in enumerate(exp):
        log[e] = j
    return FieldCtx(p, m, modulus, tuple(exp), tuple(log))


# ---------------------------------------------------------------------------
# subfield bases and coordinate sequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubfieldBasis:
    """F_{p**(k*n)} over its subfield F_q, q = p**k, with the symbol
    encoding of F_q (see `subfield_basis`)."""

    ctx: FieldCtx
    k: int
    sym_elem: tuple       # symbol s -> subfield element
    elem_sym: dict        # inverse of sym_elem

    @property
    def q(self):
        return self.ctx.p ** self.k

    @property
    def n(self):
        return self.ctx.m // self.k


def _reduce_mod_p(vectors, p):
    """The first F_p-dependency among the vectors, or None when they are
    independent.

    Gauss-Jordan elimination, one vector at a time, each carried with its
    combination of the inputs (a unit vector to start).  The dependency is
    the combination of the first vector that reduces to zero against the
    ones before it: coefficient 1 at that vector and 0 past it, so it is the
    same whatever the column order.
    """
    size = len(vectors)
    reduced = []   # (pivot column, vector, combination), kept fully reduced
    for idx, vec in enumerate(vectors):
        vec = [x % p for x in vec]
        combo = [int(t == idx) for t in range(size)]
        for col, row, rc in reduced:
            f = vec[col]
            if f:
                vec = [(a - f * b) % p for a, b in zip(vec, row)]
                combo = [(a - f * b) % p for a, b in zip(combo, rc)]
        col = next((c for c, x in enumerate(vec) if x), None)
        if col is None:
            return tuple(combo)
        inv = pow(vec[col], -1, p)
        vec = [x * inv % p for x in vec]
        combo = [x * inv % p for x in combo]
        for t, (c, row, rc) in enumerate(reduced):
            f = row[col]
            if f:
                reduced[t] = (c, [(a - f * b) % p for a, b in zip(row, vec)],
                              [(a - f * b) % p for a, b in zip(rc, combo)])
        reduced.append((col, vec, combo))
    return None


def subfield_basis(ctx, k):
    """ctx over F_q = F_{p**k}, once 1, alpha, ..., alpha**(n-1) is checked
    to be a basis, alpha the table primitive.  Symbol s = sum_i d_i * p**i
    is sum_i d_i * g**i, g the fixed generator alpha**((p**m - 1)/(q - 1))
    of F_q; so symbol p**i is g**i."""
    if ctx.m % k:
        raise ValueError("subfield degree must divide m")
    p, n = ctx.p, ctx.m // k
    g = ctx.exp[(ctx.mult_order // (p ** k - 1)) % ctx.mult_order]
    q = p ** k
    sym_elem = []
    for s in range(q):
        acc = 0
        cur = 1
        for i in range(k):
            digit = (s // p ** i) % p
            # a digit d < p is the code of the constant d
            acc = ctx.add(acc, ctx.mul(digit, cur))
            cur = ctx.mul(cur, g)
        sym_elem.append(acc)
    if len(set(sym_elem)) != q:
        raise VerificationError("subfield enumeration collided")
    elem_sym = {e: s for s, e in enumerate(sym_elem)}

    if _reduce_mod_p([ctx.digits(ctx.mul(ctx.pow(g, i), b))
                      for b in ctx.exp[:n] for i in range(k)], p) is not None:
        raise ValueError("not a basis over the subfield")
    return SubfieldBasis(ctx=ctx, k=k, sym_elem=tuple(sym_elem),
                         elem_sym=elem_sym)


def _extension(q, n):
    """The basis of F_(q**n) over F_q.  q**n passes `desk_size` before q
    is factored, so a huge q is refused at once."""
    if n < 1:
        raise ValueError(f"field degree must be positive, got {n}")
    desk_size(q, n)
    p, k = prime_power(q)
    return subfield_basis(build_field(p, k * n), k)


@dataclass
class LambdaSeq:
    """Coordinate sequence of successive generator powers: position j holds
    v . (F_q-coordinates of generator**j), a reduced-length cyclic string."""

    chi: CyclicString
    generator: int


def lambda_sequence(sb: SubfieldBasis, g, v):
    """The length q**n - 1 string whose j-th symbol is v . coords(g**j),
    the F_q-coordinates of g**j against the basis 1, g, ..., g**(n-1), for
    g a generator of the multiplicative group of sb.ctx.

    This is the linear recurring sequence of g's minimal polynomial c:
    s_j = v_j for j < n, since g**j is basis vector j, and then
    s_(j+n) = -(c_0 s_j + ... + c_(n-1) s_(j+n-1)), computed in F_q.
    """
    ctx = sb.ctx
    q, n = sb.q, sb.n
    if len(v) != n or all(s == 0 for s in v):
        raise ValueError("v must be a nonzero length-n symbol vector")
    taps = [ctx.mul(ctx.p - 1, sb.sym_elem[c])
            for c in min_poly(sb, g)[:n]]
    elems = [sb.sym_elem[s] for s in v]
    for j in range(q ** n - 1 - n):
        acc = 0
        for t, x in zip(taps, elems[j:j + n]):
            acc = ctx.add(acc, ctx.mul(t, x))
        elems.append(acc)
    out = tuple(sb.elem_sym[e] for e in elems[:q ** n - 1])
    return LambdaSeq(chi=CyclicString(q, out), generator=g)


# ---------------------------------------------------------------------------
# ordinary / exceptional classification
# ---------------------------------------------------------------------------


@dataclass
class ExceptionalVerdict:
    verdict: str
    index_set: tuple
    witness_generator: int | None      # ordinary: a witnessing generator
    witness_poly: tuple | None         # its minimal polynomial over F_q
    dependencies: dict                 # exceptional: exponent u -> coeffs

    @property
    def ordinary(self):
        return self.verdict == ORDINARY


def _fq_dependency(sb, elements):
    """None when the elements are F_q-independent; otherwise a nonzero
    F_q-coefficient vector (as symbols) combining them to zero.

    The elements g**i * e (g the subfield generator, i < k) go through the
    F_p elimination; a dependency c among them reads off as the symbols
    s_j = sum_i c[j*k + i] * p**i, the encoding of `sym_elem`, in which
    g**i is symbol p**i.
    """
    ctx, k, p = sb.ctx, sb.k, sb.ctx.p
    g_pows = [sb.sym_elem[p ** i] for i in range(k)]
    dep = _reduce_mod_p([ctx.digits(ctx.mul(gi, e))
                         for e in elements for gi in g_pows], p)
    if dep is None:
        return None
    return tuple(sum(dep[j * k + i] * p ** i for i in range(k))
                 for j in range(len(elements)))


def min_poly(sb: SubfieldBasis, beta):
    """Minimal polynomial of beta over F_q as ascending symbol coefficients,
    monic; beta must generate the full extension (degree n).

    The dependency among 1, beta, ..., beta**n is monic as it comes: the
    first dependent F_p-vector is beta**n itself, with coefficient 1.
    """
    ctx = sb.ctx
    n = sb.n
    dep = _fq_dependency(sb, [ctx.pow(beta, j) for j in range(n + 1)])
    if dep is None or dep[n] == 0:
        raise VerificationError("element does not have degree n")
    return dep


def _frobenius_leaders(q, n):
    """The least exponent u of each Frobenius orbit {u*q**j mod q**n - 1}
    of generator exponents, ascending.  alpha**u and alpha**(u*q**j) are
    conjugate over F_q: they share a minimal polynomial, and the q-th power
    map is F_q-linear and bijective, so their powers at any index set are
    independent together or not at all."""
    order = q ** n - 1
    return [u for u in units(order)
            if all(u * q ** j % order >= u for j in range(1, n))]


def is_exceptional_bruteforce(I, q, n):
    """Classify I by sweeping the generators of the multiplicative group,
    one per Frobenius orbit (`_frobenius_leaders`).

    Ordinary verdicts come with a witnessing generator and its minimal
    polynomial: the first independent exponent, which is the least of its
    orbit.  Exceptional verdicts carry one dependency vector per orbit's
    least generator exponent, each re-verifiable by direct evaluation.
    """
    sb = _extension(q, n)
    ctx, order = sb.ctx, sb.ctx.mult_order
    if len(I) != n:
        raise ValueError(f"need {n} exponents")
    # exponents that collide mod the group order repeat the same power, so
    # the set is dependent for every generator; keep them as given
    I = tuple(sorted(i % order for i in I))
    deps = {}
    for u in _frobenius_leaders(q, n):
        dep = _fq_dependency(sb, [ctx.exp[(u * i) % order] for i in I])
        if dep is None:
            beta = ctx.exp[u % order]
            return ExceptionalVerdict(
                verdict=ORDINARY, index_set=I,
                witness_generator=beta, witness_poly=min_poly(sb, beta),
                dependencies={})
        deps[u] = dep
    return ExceptionalVerdict(
        verdict=EXCEPTIONAL, index_set=I,
        witness_generator=None, witness_poly=None, dependencies=deps)


def two_element_ordinary(q, diff):
    """Two-exponent criterion: ordinary iff q + 1 does not divide the
    difference (well-defined mod q**2 - 1)."""
    return diff % (q + 1) != 0


# ---------------------------------------------------------------------------
# Jacobi logarithm and the three-element criterion
# ---------------------------------------------------------------------------


def jacobi_log(ctx: FieldCtx):
    """Table L with 1 + alpha**t = alpha**L[t]; None at the unique excluded
    point (t = 0 in characteristic 2, t = (order-1)/2 otherwise)."""
    s = 0 if ctx.p == 2 else ctx.mult_order // 2
    table = []
    for t in range(ctx.mult_order):
        val = ctx.add(1, ctx.exp[t])
        if val == 0:
            if t != s:
                raise VerificationError("excluded point out of place")
            table.append(None)
        else:
            table.append(ctx.log[val])
    return table


@functools.lru_cache(maxsize=8)
def _jacobi_table(q):
    """Jacobi logarithm table of F_{q**3}, built once per q."""
    return tuple(jacobi_log(_extension(q, 3).ctx))


def exceptional_triple(i, j, k, q):
    """Three-exponent criterion via the Jacobi logarithm.

    True when Q = q*q + q + 1 divides one of the pairwise differences, or
    when the logarithm condition holds for every multiplier m coprime to
    q**3 - 1 (every generator alpha**m of the group)."""
    order = q ** 3 - 1
    i, j, k = i % order, j % order, k % order
    Q = q * q + q + 1
    # colliding exponents repeat a power and land in the divisibility branch
    # (order is a multiple of Q), so they classify as exceptional here
    if any(d % Q == 0 for d in ((j - i) % order, (k - j) % order,
                                (k - i) % order)):
        return True
    L = _jacobi_table(q)

    def log_condition(m):
        tgt = (m * (k - i)) % Q
        for a in range(order // Q):
            # L[t] is set: t = m(j-i) != 0 mod Q; the excluded point is 0 mod Q
            t = (a * Q + m * (j - i)) % order
            if L[t] % Q == tgt:
                return True
        return False

    return all(log_condition(m) for m in units(order))


# ---------------------------------------------------------------------------
# reduced cycles
# ---------------------------------------------------------------------------


def build_reduced_cycle(I, q, n):
    """A verified reduced cycle for an ordinary index set, returned with the
    CoverageReport that verified it.

    Scans minimal polynomials of generators in ascending coefficient order
    and keeps the first whose root powers {alpha**i_j} are independent; the
    coordinate sequence of that root is the certificate, checked against the
    reduced verifier before being returned.  Only the least exponent of
    each Frobenius orbit is examined (`_frobenius_leaders`).
    """
    sb = _extension(q, n)
    ctx, order = sb.ctx, sb.ctx.mult_order
    I = tuple(sorted(i % order for i in I))
    if len(set(I)) != n:
        raise ValueError(f"need {n} distinct exponents mod {order}")
    for u in sorted(_frobenius_leaders(q, n),
                    key=lambda u: min_poly(sb, ctx.exp[u % order])):
        beta_pows = [ctx.exp[(u * i) % order] for i in I]
        if _fq_dependency(sb, beta_pows) is not None:
            continue
        seq = lambda_sequence(sb, ctx.exp[u % order], (1,) + (0,) * (n - 1))
        report = verify_cover(seq.chi, CycleParams.reduced(q, n), I)
        if not report.complete:
            raise VerificationError(
                "reduced cycle failed verification despite independence")
        return seq, report
    raise ExceptionalInput(
        f"{I} is exceptional for q={q}; no generator gives independence")


def psi_map(seq: LambdaSeq, sb: SubfieldBasis, I):
    """The additive transport: 0 -> 0 and generator**t -> the word of
    sequence symbols at positions I + t; returns element -> word."""
    ctx = sb.ctx
    out = {0: (0,) * len(I)}
    cur = 1
    for word in windows(seq.chi.symbols, I):
        out[cur] = word
        cur = ctx.mul(cur, seq.generator)
    return out
