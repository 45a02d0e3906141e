"""Approximate cycles: dilation patch plans, randomized near-covers, and the
two-stage concatenation that upgrades a near-cover into a full cover.

The dilation plan picks a prime p slightly above n*n*(S+3) and a multiplier
k spreading the index set out mod p so that S consecutive translates can
each be assigned one prescribed word without collisions.  The randomized
stage draws a uniform string from a seeded Mersenne Twister stream; the full
construction doubles the random string, doubles a patch string for whatever
words were missed, concatenates, and re-verifies, appending further patch
blocks in the rare case a wrap-around seam still hides a word.

The tail-probability helper evaluates exp(-min(mu^2/8Delta, mu/2, mu/6delta))
exactly as written.
"""
from __future__ import annotations

import math
import random
from itertools import islice

from .core import (DESK_SCALE, CyclicString, VerificationError, desk_size,
                   is_prime, normalize_index_set, verify_cover, windows)

RNG_ALGORITHM = "MT19937 (random.Random)"


def smallest_prime_above(x):
    n = x + 1
    while not is_prime(n):
        n += 1
    return n


def _min_circular_gap(residues, p):
    # distinct: `plan_dilation` keeps I distinct mod p and k is a unit
    rs = sorted(residues)
    gaps = [rs[i + 1] - rs[i] for i in range(len(rs) - 1)]
    gaps.append(rs[0] + p - rs[-1])
    return min(gaps)


def plan_dilation(I, S, min_p=None):
    """(p, k): the smallest prime p > n*n*(S+3) that keeps the elements of
    I distinct mod p, and the multiplier k maximizing the minimum circular
    gap of k*I mod p (smallest k on ties).  `min_p` can force a larger prime
    when the plan will be embedded in a longer string.

    The gap always reaches S.  A gap below S means k*(i - j) = g (mod p)
    for an ordered pair i != j of I and some 1 <= g < S; each such (i, j, g)
    fixes k, so at most n*(n - 1)*(S - 1) multipliers fall short, fewer than
    the p - 1 there are, as p > n*n*(S + 3).  And p // n > S, so the early
    break below never stops short of S."""
    I = tuple(sorted(set(I)))
    n = len(I)
    if S < 0:
        raise ValueError("S must be nonnegative")
    bound = n * n * (S + 3)
    if min_p is not None:
        bound = max(bound, min_p - 1)
    p = smallest_prime_above(bound)
    while len({i % p for i in I}) < n:
        p = smallest_prime_above(p)
    if n == 1:
        return p, 1
    best_k, best_gap = 1, -1
    for k in range(1, p):
        gap = _min_circular_gap([k * i % p for i in I], p)
        if gap > best_gap:
            best_k, best_gap = k, gap
            if best_gap >= p // n:
                break  # n gaps sum to p, so floor(p/n) is already the max
    return p, best_k


def patch_sequence(I, words, q, min_p=None):
    """A cyclic string achieving every prescribed word on some translate of
    I: word t sits at the dilated positions, then the whole string is read
    back through the multiplier.  Unassigned positions are 0."""
    I = tuple(sorted(set(I)))
    n = len(I)
    words = list(words)
    for w in words:
        if len(w) != n or any(not 0 <= s < q for s in w):
            raise ValueError("words must be length-n over the alphabet")
    if len(set(words)) != len(words):
        raise ValueError("words must be distinct")
    S = len(words)
    p, k = plan_dilation(I, S, min_p=min_p)
    raw = [0] * p
    for t in range(1, S + 1):
        for j, i in enumerate(I):
            raw[(k * i + t) % p] = words[t - 1][j]
    dilated = [raw[(k * s) % p] for s in range(p)]
    chi = CyclicString(q, tuple(dilated))
    achieved = set(windows(chi.symbols, I))
    for w in words:
        if tuple(w) not in achieved:
            raise VerificationError("patch string missed a prescribed word")
    return chi


def type2_random(q, n, I, m, seed):
    """Uniform random string of length m from the seeded stream, plus the
    exact count of n-words never achieved on translates of I, which must be
    n residues distinct mod m.  The count holds up to m windows of n
    symbols each, so m*n is bounded like m and q**n."""
    if q < 2:
        raise ValueError("alphabet size must be >= 2")
    if m < 1:
        raise ValueError("m must be positive")
    if m > DESK_SCALE:
        raise ValueError(f"random length {m} exceeds desk scale {DESK_SCALE}")
    if m * n > DESK_SCALE:
        raise ValueError(f"{m} windows of {n} symbols exceed desk scale "
                         f"{DESK_SCALE}")
    words = desk_size(q, n)
    I = normalize_index_set(I, m)
    if len(I) != n:
        raise ValueError(f"index set size {len(I)} != window size {n}")
    rng = random.Random(seed)
    symbols = tuple(rng.randrange(q) for _ in range(m))
    chi = CyclicString(q, symbols)
    return chi, words - len(set(windows(symbols, I)))


def linear_missing(q, n, I, chi):
    """Words not achieved by any window fully inside the string (no wrap);
    monotone under extension, used by the coverage property tests.  The
    windows are read through I - min(I): those are the same words."""
    low = min(I)
    span = max(I) - low
    inside = max(0, len(chi) - span)
    shifted = windows(chi.symbols, [i - low for i in I])
    return desk_size(q, n) - len(set(islice(shifted, inside)))


def type1_construct(q, n, I, seed):
    """Doubled random stage plus doubled patch stage, re-verified; extra
    patch blocks are appended until the verifier reports full coverage.
    Returns the cover, the verifier's report on it, and the construction
    log (the generator, seed and stage lengths).

    I is read as the distinct integers given, not reduced mod q**n: the
    random stage is longer than max(I) - min(I), so the elements stay
    distinct mod the string length and the verified set is the given one.

    Termination: a patch block for the currently missing words witnesses
    each of them on a window interior to the block, and interior windows
    survive all later appends; only seam-crossing witnesses can break, and
    their words rejoin the missing set of the next round.
    """
    if q < 2:
        raise ValueError("alphabet size must be >= 2")
    word_count = desk_size(q, n)
    I = tuple(sorted(I))
    if len(set(I)) != n or len(I) != n:
        raise ValueError("index set must have n distinct elements")

    def done(chi, rep, random_length, patch_lengths, missed):
        return chi, rep, {"rng": RNG_ALGORITHM, "seed": seed,
                          "random_length": random_length,
                          "patch_lengths": patch_lengths,
                          "missing_before_patch": missed,
                          "total_length": len(chi)}

    if n == 1:
        chi = CyclicString(q, tuple(range(q)))
        rep = verify_cover(chi, (q, 1), I)
        if not rep.complete:
            raise VerificationError("alphabet run failed verification")
        return done(chi, rep, q, [], 0)

    span = max(I) - min(I)
    m = max(span + 1, math.ceil(4 * word_count * math.log(n)))
    t1, missed = type2_random(q, n, I, m, seed)
    symbols = list(t1.symbols) + list(t1.symbols)
    patch_lengths = []

    for _ in range(12):
        chi = CyclicString(q, tuple(symbols))
        rep = verify_cover(chi, (q, n), I)
        if rep.complete:
            if len(chi) < word_count:
                raise VerificationError(
                    "full cover shorter than the word count")
            return done(chi, rep, m, patch_lengths, missed)
        block = patch_sequence(I, rep.missing, q, min_p=span + 1)
        patch_lengths.append(len(block))
        symbols = symbols + list(block.symbols) + list(block.symbols)
    raise VerificationError("patch loop did not converge")


def janson_bound(mu, Delta, delta):
    """exp(-min(mu^2 / (8*Delta), mu / 2, mu / (6*delta)))."""
    if not all(map(math.isfinite, (mu, Delta, delta))):
        raise ValueError("mu, Delta and delta must be finite")
    if Delta <= 0 or delta <= 0:
        raise ValueError("Delta and delta must be positive")
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    return math.exp(-min(mu * mu / (8 * Delta), mu / 2, mu / (6 * delta)))
