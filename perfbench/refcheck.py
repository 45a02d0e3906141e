"""Reference checks that share no code with ucycle.

The benchmark judges every output with these functions, so a change to the
library's own verifier, canonicalizer or decomposition checker cannot make
a wrong answer pass.
"""
from math import gcd


def parse_cycle(text, q):
    """Symbols of a cycle in the CLI text format: one digit per symbol for
    q <= 10, comma-separated otherwise."""
    text = text.strip()
    return tuple(int(x) for x in (text.split(",") if q > 10 else text))


def window_codes(symbols, I, q):
    """Radix-q codes of the words read through I at every translate."""
    N = len(symbols)
    columns = [symbols[i % N:] + symbols[:i % N] for i in I]
    codes = set()
    for word in zip(*columns):
        c = 0
        for s in word:
            c = c * q + s
        codes.add(c)
    return codes


def covers(symbols, q, n, I, reduced=False):
    """True when every n-word over 0..q-1 (every nonzero one if `reduced`)
    is read through I at some translate of the cyclic string `symbols`."""
    symbols = tuple(symbols)
    if len(set(I)) != n or any(not 0 <= s < q for s in symbols):
        return False
    codes = window_codes(symbols, I, q)
    if reduced:
        return len(symbols) == q ** n - 1 and len(codes - {0}) == q ** n - 1
    return len(codes) == q ** n


def ap(n, d):
    """The window set {0, d, ..., (n-1)d}."""
    return tuple(j * d for j in range(n))


def canonical(I, L):
    """Least sorted member of the affine orbit {k*I + b mod L}."""
    best = None
    for k in range(1, L):
        if gcd(k, L) != 1:
            continue
        for b in range(L):
            member = tuple(sorted((k * i + b) % L for i in I))
            if best is None or member < best:
                best = member
    return best


def decomposition_ok(n, d, trails):
    """True when `trails` (lists of [u, v] edges on 1..n) are closed trails
    of length d that use every edge of the complete loop-digraph once."""
    seen = set()
    for trail in trails:
        if len(trail) != d:
            return False
        for j, (u, v) in enumerate(trail):
            if trail[(j + 1) % d][0] != v or not (1 <= u <= n and 1 <= v <= n):
                return False
            seen.add((u, v))
    return len(seen) == n * n == d * len(trails)
