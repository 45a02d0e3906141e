"""Field tables, coordinate sequences, classification criteria."""

import itertools
import random

import pytest

from ucycle.core import CycleParams, equal_up_to_rotation, units, verify_cover
from ucycle.galois import (
    EXCEPTIONAL,
    ORDINARY,
    ExceptionalInput,
    _fq_dependency,
    _frobenius_leaders,
    build_field,
    build_reduced_cycle,
    exceptional_triple,
    find_primitive_modulus,
    is_exceptional_bruteforce,
    jacobi_log,
    lambda_sequence,
    min_poly,
    prime_power,
    psi_map,
    subfield_basis,
    two_element_ordinary,
)


class TestFieldConstruction:
    def test_gf8_default_modulus(self):
        ctx = build_field(2, 3)
        assert ctx.modulus == (1, 1, 0, 1)  # x^3 + x + 1
        # x is primitive: its powers hit every nonzero element once
        assert sorted(ctx.exp) == list(range(1, 8))

    def test_gf3_primitive_root(self):
        ctx = build_field(3, 1)
        assert ctx.alpha == 2

    def test_gf16_skips_nonprimitive_modulus(self):
        ctx = build_field(2, 4)
        # the all-ones modulus x^4+x^3+x^2+x+1 gives x order 5; the chosen
        # modulus must give full order 15
        assert ctx.modulus != (1, 1, 1, 1, 1)
        assert ctx.modulus == (1, 1, 0, 0, 1)
        assert sorted(ctx.exp) == list(range(1, 16))

    def test_nonprime_p_rejected(self):
        with pytest.raises(ValueError):
            build_field(4, 2)

    @pytest.mark.parametrize("m", [0, -1])
    def test_nonpositive_degree_rejected(self, m):
        with pytest.raises(ValueError, match="degree must be positive"):
            build_field(2, m)

    def test_arithmetic_identities(self):
        ctx = build_field(3, 2)
        for x in range(9):
            assert ctx.add(x, ctx.mul(ctx.p - 1, x)) == 0
        # distributivity spot check
        for x, y, z in itertools.product(range(9), repeat=3):
            assert ctx.mul(x, ctx.add(y, z)) == ctx.add(
                ctx.mul(x, y), ctx.mul(x, z))

    def test_explicit_modulus_must_make_x_primitive(self):
        # zero constant term: x is a zero divisor
        with pytest.raises(ValueError):
            build_field(2, 4, modulus=(0, 1, 0, 0, 1))
        # all-ones modulus: x has order 5, not 15
        with pytest.raises(ValueError):
            build_field(2, 4, modulus=(1, 1, 1, 1, 1))
        with pytest.raises(ValueError):
            build_field(2, 4, modulus=(1, 1, 0, 1))
        # x^4 = x^3 + 1 modulo x^4 + x^3 + 1
        assert build_field(2, 4, modulus=(1, 0, 0, 1, 1)).exp[4] == 0b1001

    def test_primitive_modulus_comes_with_its_power_table(self):
        for p, m in [(2, 1), (3, 1), (7, 1), (2, 5), (3, 3)]:
            modulus, exp = find_primitive_modulus(p, m)
            ctx = build_field(p, m, modulus=modulus)
            assert list(ctx.exp) == exp
            assert sorted(exp) == list(range(1, p ** m))

    def test_gf2_is_the_trivial_group(self):
        ctx = build_field(2, 1)
        assert ctx.exp == (1,) and ctx.alpha == 1
        assert is_exceptional_bruteforce((0,), 2, 1).witness_poly == (1, 1)

    def test_prime_power_helper(self):
        assert prime_power(8) == (2, 3)
        assert prime_power(9) == (3, 2)
        assert prime_power(3 ** 19) == (3, 19)
        # a prime near 1e9 took a billion trial divisions
        assert prime_power(1_000_000_007) == (1_000_000_007, 1)
        for q in (0, 1, 12, 2 * 1_000_000_007):
            with pytest.raises(ValueError, match=f"{q} is not a prime power"):
                prime_power(q)


class TestLambdaSequences:
    def test_classic_reduced_debruijn(self):
        ctx = build_field(2, 3)
        sb = subfield_basis(ctx, 1)
        seq = lambda_sequence(sb, ctx.alpha, (1, 0, 0))
        rep = verify_cover(seq.chi, CycleParams.reduced(2, 3), (0, 1, 2))
        assert rep.complete

    def test_v_components_are_rotations(self):
        ctx = build_field(2, 3)
        sb = subfield_basis(ctx, 1)
        s1 = lambda_sequence(sb, ctx.alpha, (1, 0, 0))
        s2 = lambda_sequence(sb, ctx.alpha, (0, 1, 0))
        assert equal_up_to_rotation(s1.chi, s2.chi)

    def test_ternary_pairs(self):
        ctx = build_field(3, 2)
        sb = subfield_basis(ctx, 1)
        seq = lambda_sequence(sb, ctx.alpha, (1, 0))
        assert len(seq.chi) == 8
        rep = verify_cover(seq.chi, CycleParams.reduced(3, 2), (0, 1))
        assert rep.complete

    def test_zero_v_rejected(self):
        ctx = build_field(2, 3)
        sb = subfield_basis(ctx, 1)
        with pytest.raises(ValueError):
            lambda_sequence(sb, ctx.alpha, (0, 0, 0))

    @pytest.mark.parametrize("q,n", [(2, 3), (2, 5), (3, 2), (3, 3), (4, 2),
                                     (5, 2), (9, 2)])
    def test_matches_coordinates_of_each_power(self, q, n):
        # oracle: every sum_i c_i * g**i, c in F_q**n, maps back to c, so
        # symbol j must be v . c(g**j) for every generator g and vector v
        p, k = prime_power(q)
        ctx = build_field(p, k * n)
        rng = random.Random(q * 100 + n)
        sb = subfield_basis(ctx, k)
        for u in _frobenius_leaders(q, n):
            g = ctx.exp[u]
            coords = {}
            for c in itertools.product(range(q), repeat=n):
                elem = 0
                for i, ci in enumerate(c):
                    elem = ctx.add(elem, ctx.mul(sb.sym_elem[ci],
                                                 ctx.pow(g, i)))
                coords[elem] = c
            assert len(coords) == q ** n
            for _ in range(3):
                v = (0,) * n
                while not any(v):
                    v = tuple(rng.randrange(q) for _ in range(n))
                expected = []
                for j in range(q ** n - 1):
                    acc = 0
                    for vi, ci in zip(v, coords[ctx.pow(g, j)]):
                        acc = ctx.add(acc, ctx.mul(sb.sym_elem[vi],
                                                   sb.sym_elem[ci]))
                    expected.append(sb.elem_sym[acc])
                seq = lambda_sequence(sb, g, v)
                assert seq.chi.symbols == tuple(expected), (u, v)
                assert seq.generator == g


class TestJacobiLog:
    def test_gf8_value(self):
        ctx = build_field(2, 3)
        L = jacobi_log(ctx)
        assert L[0] is None  # 1 + 1 = 0 in characteristic 2
        assert L[1] == 3     # 1 + x = x^3 for modulus x^3 + x + 1

    def test_gf9_excluded_point(self):
        ctx = build_field(3, 2)
        L = jacobi_log(ctx)
        assert L[4] is None  # alpha^4 = -1
        assert all(v is not None for t, v in enumerate(L) if t != 4)

    def test_defining_identity(self):
        ctx = build_field(3, 2)
        L = jacobi_log(ctx)
        for t, v in enumerate(L):
            if v is not None:
                assert ctx.add(1, ctx.exp[t]) == ctx.exp[v]
                assert v != 0 or ctx.exp[t] == 0  # range excludes 0


class TestPairCriterion:
    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_exhaustive_agreement(self, q):
        order = q * q - 1
        for i in range(order):
            for j in range(i + 1, order):
                bf = is_exceptional_bruteforce((i, j), q, 2)
                assert (bf.verdict == ORDINARY) == \
                    two_element_ordinary(q, j - i), (q, i, j)

    def test_colliding_exponents_exceptional(self):
        v = is_exceptional_bruteforce((0, 3), 2, 2)
        assert v.verdict == EXCEPTIONAL

    def test_witnesses_reverify(self):
        ctx = build_field(5, 2)
        sb = subfield_basis(ctx, 1)
        v = is_exceptional_bruteforce((0, 6), 5, 2)
        assert v.verdict == EXCEPTIONAL
        order = 24
        for u, coeffs in v.dependencies.items():
            beta_pows = [ctx.exp[(u * i) % order] for i in (0, 6)]
            acc = 0
            for c, e in zip(coeffs, beta_pows):
                acc = ctx.add(acc, ctx.mul(sb.sym_elem[c], e))
            assert acc == 0
            assert any(c for c in coeffs)


class TestFqDependency:
    @pytest.mark.parametrize("q,n", [(2, 3), (3, 2), (4, 2), (2, 4), (3, 3)])
    def test_agrees_with_brute_force(self, q, n):
        # None exactly when none of the q**n - 1 nonzero coefficient vectors
        # combines the elements to 0; a returned vector does, with 1 at its
        # last nonzero place and independent elements before that place
        p, k = prime_power(q)
        ctx = build_field(p, k * n)
        sb = subfield_basis(ctx, k)
        order = q ** n - 1
        rng = random.Random(100 * q + n)

        def value(vec, elems):
            acc = 0
            for s, e in zip(vec, elems):
                acc = ctx.add(acc, ctx.mul(sb.sym_elem[s], e))
            return acc

        outcomes = set()
        for t in range(40):
            if t % 5:
                I = (0,) + tuple(rng.sample(range(1, order), n - 1))
            else:  # any n-tuple, so exponents may collide
                I = tuple(rng.randrange(order) for _ in range(n))
            u = rng.choice(units(order))
            elems = [ctx.exp[u * i % order] for i in I]
            dependent = any(
                value(vec, elems) == 0
                for vec in itertools.product(range(q), repeat=n) if any(vec))
            dep = _fq_dependency(sb, elems)
            assert (dep is not None) == dependent, (q, n, I, u)
            outcomes.add(dependent)
            if dep is not None:
                last = max(j for j, s in enumerate(dep) if s)
                assert value(dep, elems) == 0 and dep[last] == 1
                assert _fq_dependency(sb, elems[:last]) is None
        assert outcomes == {True, False}

    def test_coefficient_one_at_first_dependent_element(self):
        # the second alpha is the first element that depends on the ones
        # before it, so it gets coefficient 1: -alpha + alpha + 0 = 0
        ctx = build_field(3, 2)
        sb = subfield_basis(ctx, 1)
        assert _fq_dependency(sb, [ctx.alpha, ctx.alpha, 1]) == (2, 1, 0)


class TestFrobeniusOrbits:
    @pytest.mark.parametrize("q,n", [(2, 3), (3, 2), (4, 2), (2, 4), (3, 3),
                                     (5, 2)])
    def test_least_of_each_orbit_decides_like_every_generator(self, q, n):
        # sweeping every generator exponent (no orbit rule) gives the same
        # verdict and witness; an exceptional set keeps one dependency per
        # orbit, at the orbit's least exponent
        p, k = prime_power(q)
        ctx = build_field(p, k * n)
        sb = subfield_basis(ctx, k)
        order = q ** n - 1
        least = sorted({min(u * q ** j % order for j in range(n))
                        for u in units(order)})
        sets = [(0,) + c
                for c in itertools.combinations(range(1, order), n - 1)]
        for I in sets[:80]:
            indep = [u for u in units(order) if _fq_dependency(
                sb, [ctx.exp[u * i % order] for i in I]) is None]
            v = is_exceptional_bruteforce(I, q, n)
            assert v.ordinary == bool(indep), (q, n, I)
            if indep:
                assert v.witness_generator == ctx.exp[indep[0]]
                assert indep[0] in least
            else:
                assert sorted(v.dependencies) == least


class TestTripleCriterion:
    @pytest.mark.parametrize("q", [2, 3])
    def test_exhaustive_agreement(self, q):
        order = q ** 3 - 1
        for i, j, k in itertools.combinations(range(order), 3):
            bf = is_exceptional_bruteforce((i, j, k), q, 3)
            crit = exceptional_triple(i, j, k, q)
            assert (bf.verdict == EXCEPTIONAL) == crit, (q, i, j, k)

    def test_divisibility_branch(self):
        # Q = 7 for q = 2; offsets by Q collapse mod 7
        assert exceptional_triple(0, 7, 14, 2) is True

    def test_ordinary_progression(self):
        assert exceptional_triple(0, 1, 2, 2) is False


class TestOrdinaryFamilies:
    @pytest.mark.parametrize("q,n,d", [(2, 3, 3), (3, 2, 3), (2, 4, 7),
                                       (3, 3, 5)])
    def test_coprime_progressions_ordinary(self, q, n, d):
        from math import gcd
        order = q ** n - 1
        assert gcd(d, order) == 1
        I = tuple(j * d % order for j in range(n))
        v = is_exceptional_bruteforce(I, q, n)
        assert v.verdict == ORDINARY

    def test_generator_independent_verdict(self):
        # same verdicts from a field built on a different primitive modulus
        default = build_field(2, 4)
        alt = None
        for code in range(16):
            cand = tuple([(code >> i) & 1 for i in range(4)] + [1])
            if cand == default.modulus:
                continue
            try:
                alt = build_field(2, 4, modulus=cand)
                break
            except ValueError:
                continue
        assert alt is not None and alt.modulus != default.modulus
        sb_d = subfield_basis(default, 1)
        sb_a = subfield_basis(alt, 1)
        from ucycle.galois import _fq_dependency
        order = 15
        for I in [(0, 1, 3, 7), (0, 5, 10, 2), (0, 3, 6, 9)]:
            verdicts = []
            for ctx, sb in ((default, sb_d), (alt, sb_a)):
                dep_all = all(
                    _fq_dependency(
                        sb, [ctx.exp[(u * i) % order] for i in I]) is not None
                    for u in range(1, order) if __import__("math").gcd(
                        u, order) == 1)
                verdicts.append(dep_all)
            assert verdicts[0] == verdicts[1], I


class TestReducedCycles:
    def test_classic_case(self):
        seq, _ = build_reduced_cycle((0, 1, 2), 2, 3)
        assert len(seq.chi) == 7

    def test_ternary_013(self):
        seq, _ = build_reduced_cycle((0, 1, 3), 3, 3)
        assert len(seq.chi) == 26
        rep = verify_cover(seq.chi, CycleParams.reduced(3, 3), (0, 1, 3))
        assert rep.complete

    def test_exceptional_input_raises(self):
        with pytest.raises(ExceptionalInput):
            build_reduced_cycle((0, 4), 3, 2)

    def test_prime_power_ground_field(self):
        seq, _ = build_reduced_cycle((0, 1), 4, 2)
        assert len(seq.chi) == 15
        rep = verify_cover(seq.chi, CycleParams.reduced(4, 2), (0, 1))
        assert rep.complete

    def test_deterministic(self):
        a, _ = build_reduced_cycle((0, 1, 3), 3, 3)
        b, _ = build_reduced_cycle((0, 1, 3), 3, 3)
        assert a.chi == b.chi


class TestPsiTransport:
    @pytest.mark.parametrize("q,n", [(2, 2), (2, 3), (3, 2)])
    def test_additive_and_injective(self, q, n):
        ctx = build_field(*[prime_power(q)[0], prime_power(q)[1] * n])
        sb = subfield_basis(ctx, prime_power(q)[1])
        order = q ** n - 1
        I = tuple(range(n))
        v = is_exceptional_bruteforce(I, q, n)
        assert v.verdict == ORDINARY
        seq = lambda_sequence(sb, v.witness_generator, (1,) + (0,) * (n - 1))
        psi = psi_map(seq, sb, I)
        for g1 in range(q ** n):
            for g2 in range(q ** n):
                s = ctx.add(g1, g2)
                combined = tuple(
                    sb.elem_sym[ctx.add(sb.sym_elem[a], sb.sym_elem[b])]
                    for a, b in zip(psi[g1], psi[g2]))
                assert psi[s] == combined
        assert len(set(psi.values())) == q ** n


class TestMinPoly:
    def test_gf8_alpha(self):
        ctx = build_field(2, 3)
        sb = subfield_basis(ctx, 1)
        assert min_poly(sb, ctx.alpha) == (1, 1, 0, 1)

    def test_root_evaluates_to_zero(self):
        # monic with the root as a zero, also where q > 2 gives the leading
        # coefficient room to be another unit
        cases = [(3, 2, (1, 3, 5))] + [
            (q, n, _frobenius_leaders(q, n))
            for q, n in [(4, 2), (5, 2), (9, 2), (3, 3)]]
        for q, n, exponents in cases:
            p, k = prime_power(q)
            ctx = build_field(p, k * n)
            sb = subfield_basis(ctx, k)
            for u in exponents:
                beta = ctx.exp[u]
                g = min_poly(sb, beta)
                assert len(g) == n + 1 and g[n] == 1, (q, n, u)
                acc = 0
                for e, coeff in enumerate(g):
                    term = ctx.mul(sb.sym_elem[coeff], ctx.pow(beta, e))
                    acc = ctx.add(acc, term)
                assert acc == 0, (q, n, u)
