"""Core types, the coverage verifier, affine classes, least rotations."""

import itertools
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ucycle.core import (
    CycleParams,
    CyclicString,
    affine_class_representatives,
    affine_orbit,
    canonicalize_affine,
    content_lines,
    equal_up_to_rotation,
    equal_up_to_rotation_and_translate,
    is_prime,
    least_prime_factor,
    least_rotation,
    normalize_index_set,
    units,
    verify_cover,
    window,
    windows,
)

REF_27 = "021210210210102021102210210"  # known {0,3,6}-cycle, q=3


def brute_missing(chi, q, n, I, reduced=False):
    """Oracle: enumerate every translate directly, no codes, no shortcuts."""
    N = len(chi)
    achieved = set()
    for t in range(N):
        achieved.add(tuple(chi[(i + t) % N] for i in I))
    words = set(itertools.product(range(q), repeat=n))
    if reduced:
        words.discard((0,) * n)
    return sorted(words - achieved)


class TestWindow:
    def test_contiguous_t0(self):
        chi = CyclicString.from_text("00010111", 2)
        assert window(chi, (0, 1, 2), 0) == (0, 0, 0)

    def test_contiguous_t3(self):
        chi = CyclicString.from_text("00010111", 2)
        assert window(chi, (0, 1, 2), 3) == (1, 0, 1)

    def test_reference_string_stride3(self):
        # oracle: direct indexing of positions 0, 3, 6
        chi = CyclicString.from_text(REF_27, 3)
        expect = (chi.symbols[0], chi.symbols[3], chi.symbols[6])
        assert expect == (0, 2, 2)
        assert window(chi, (0, 3, 6), 0) == (0, 2, 2)

    def test_wraparound(self):
        chi = CyclicString.from_text("0123", 4)
        assert window(chi, (0, 1), 3) == (3, 0)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_windows_agree_with_window(self, data):
        # the lazy scan against per-translate indexing, with elements of I
        # at or beyond N so each must be reduced mod N
        q = data.draw(st.sampled_from([2, 3]))
        N = data.draw(st.integers(1, 30))
        chi = CyclicString(
            q, tuple(data.draw(st.integers(0, q - 1)) for _ in range(N)))
        I = data.draw(st.lists(st.integers(0, 3 * N + 5), min_size=1,
                               max_size=5))
        assert list(windows(chi.symbols, I)) == [
            window(chi, I, t) for t in range(N)]


class TestLeastRotation:
    def test_matches_brute_force(self):
        rng = random.Random(11)
        cases = [(0,), (1, 0), (0, 0, 0), (1, 0, 1, 0), (2, 1, 2, 1, 2, 1)]
        for _ in range(400):
            q = rng.choice([2, 3])
            base = tuple(rng.randrange(q) for _ in range(rng.randint(1, 12)))
            cases.append(base)
            reps = rng.randint(2, 4)
            if len(base) * reps <= 12:
                cases.append(base * reps)  # periodic
        for seq in cases:
            brute = min(seq[r:] + seq[:r] for r in range(len(seq)))
            assert least_rotation(seq) == brute
            assert least_rotation(list(seq)) == brute


class TestVerifyCover:
    def test_debruijn_complete(self):
        chi = CyclicString.from_text("00010111", 2)
        rep = verify_cover(chi, CycleParams.unreduced(2, 3), (0, 1, 2))
        assert rep.complete
        assert rep.missing == []
        assert brute_missing(chi, 2, 3, (0, 1, 2)) == []

    def test_reference_string_complete(self):
        chi = CyclicString.from_text(REF_27, 3)
        rep = verify_cover(chi, CycleParams.unreduced(3, 3), (0, 3, 6))
        assert rep.complete

    def test_no_length4_string_covers_0_2(self):
        # every candidate string fails for I = {0, 2}, q = 2
        params = CycleParams.unreduced(2, 2)
        for bits in itertools.product((0, 1), repeat=4):
            chi = CyclicString(2, bits)
            rep = verify_cover(chi, params, (0, 2))
            assert not rep.complete
            assert rep.missing == brute_missing(chi, 2, 2, (0, 2))

    def test_hits_witness_translates(self):
        chi = CyclicString.from_text("00010111", 2)
        rep = verify_cover(chi, CycleParams.unreduced(2, 3), (0, 1, 2))
        for word, t in rep.hits.items():
            assert window(chi, (0, 1, 2), t) == word

    def test_hits_keep_the_first_translate_in_word_order(self):
        # (1, 0) is read at translates 1 and 3, (0, 1) at 2 and 4
        chi = CyclicString(2, (1, 1, 0, 1, 0))
        rep = verify_cover(chi, (2, 2), (0, 1))
        assert list(rep.hits.items()) == [((0, 1), 2), ((1, 0), 1),
                                          ((1, 1), 0)]
        assert rep.missing == [(0, 0)]

    def test_reduced_case(self):
        # 7-symbol reduced string covering all nonzero 3-words on {0,1,2}
        chi = CyclicString.from_text("0010111", 2)
        rep = verify_cover(chi, CycleParams.reduced(2, 3), (0, 1, 2))
        assert rep.complete
        assert brute_missing(chi, 2, 3, (0, 1, 2), reduced=True) == []

    def test_length_mismatch_rejected(self):
        chi = CyclicString(2, (0, 1))
        with pytest.raises(ValueError):
            verify_cover(chi, CycleParams.unreduced(2, 2), (0, 1))

    def test_json_document(self):
        chi = CyclicString.from_text("00010111", 2)
        rep = verify_cover(chi, CycleParams.unreduced(2, 3), (0, 1, 2))
        doc = rep.to_json_dict()
        assert doc["schema"] == 1
        assert doc["complete"] is True
        assert doc["index_set"] == [0, 1, 2]

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_bijection_criterion(self, data):
        # complete iff translate -> word map injective, both directions
        q = data.draw(st.sampled_from([2, 3]))
        n = data.draw(st.sampled_from([2, 3]))
        N = q ** n
        chi = CyclicString(
            q, tuple(data.draw(st.integers(0, q - 1)) for _ in range(N)))
        I = tuple(sorted(data.draw(
            st.sets(st.integers(0, N - 1), min_size=n, max_size=n))))
        rep = verify_cover(chi, CycleParams(q, n, N), I)
        words = [window(chi, I, t) for t in range(N)]
        injective = len(set(words)) == N
        assert rep.complete == injective

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_translation_invariance(self, data):
        q, n = 2, 3
        N = q ** n
        chi = CyclicString(
            q, tuple(data.draw(st.integers(0, q - 1)) for _ in range(N)))
        I = tuple(sorted(data.draw(
            st.sets(st.integers(0, N - 1), min_size=n, max_size=n))))
        b = data.draw(st.integers(0, N - 1))
        shifted = tuple(sorted((i + b) % N for i in I))
        r1 = verify_cover(chi, CycleParams(q, n, N), I)
        r2 = verify_cover(chi, CycleParams(q, n, N), shifted)
        assert r1.complete == r2.complete

    def test_dilation_invariance_on_certificate(self):
        # from a complete chi for I, the dilated string covers k*I
        chi = CyclicString.from_text("00010111", 2)
        N, I = 8, (0, 1, 2)
        for k in units(N):
            kinv = pow(k, -1, N)
            chi2 = CyclicString(2, tuple(chi.symbols[(kinv * s) % N]
                                         for s in range(N)))
            kI = tuple(sorted(k * i % N for i in I))
            rep = verify_cover(chi2, CycleParams.unreduced(2, 3), kI)
            assert rep.complete


class TestVerifierAgainstWindowOracle:
    """`verify_cover` against `window` read at every translate, on seeded
    random strings: strict and reduced moduli, lengths other than q**n,
    complete and incomplete strings."""

    @staticmethod
    def oracle(chi, q, n, I, reduced):
        first = {}
        for t in range(len(chi)):
            first.setdefault(window(chi, I, t), t)
        required = set(itertools.product(range(q), repeat=n))
        if reduced:
            required.discard((0,) * n)
        return sorted(required - first.keys()), sorted(first.items())

    def cases(self, rng):
        """(kind, chi, params, I, reduced) for 150 strings of each kind."""
        for kind in ("strict", "reduced", "shorter", "longer"):
            for _ in range(150):
                q, n = rng.choice([(2, 2), (2, 3), (3, 2), (2, 4)])
                full = q ** n
                reduced = kind == "reduced"
                N = {"strict": full, "reduced": full - 1,
                     "shorter": rng.randrange(n, full),
                     "longer": rng.randrange(full + 1, 4 * full)}[kind]
                params = (CycleParams(q, n, N)
                          if kind in ("strict", "reduced") else (q, n))
                chi = CyclicString(
                    q, tuple(rng.randrange(q) for _ in range(N)))
                I = tuple(sorted(rng.sample(range(min(N, 3 * n)), n)))
                yield kind, chi, params, I, reduced

    def test_matches_the_window_oracle(self):
        seen = set()
        for kind, chi, params, I, reduced in self.cases(random.Random(8)):
            q, n = chi.q, len(I)
            missing, hits = self.oracle(chi, q, n, I, reduced)
            rep = verify_cover(chi, params, I)
            assert rep.missing == missing, (kind, chi, I)
            assert rep.complete == (not missing)
            assert list(rep.hits.items()) == hits
            sample = rep.to_json_dict()["witness_sample"]
            assert list(sample.items()) == [
                (",".join(map(str, w)), t) for w, t in hits[:8]]
            seen.add((kind, rep.complete))
        assert seen == {("strict", True), ("strict", False),
                        ("reduced", True), ("reduced", False),
                        ("shorter", False),
                        ("longer", True), ("longer", False)}

    def test_symbol_outside_the_alphabet_rejected(self):
        # 0.5 lies between 0 and q but is no word symbol, so the count in
        # verify_cover could not decide completeness
        with pytest.raises(ValueError, match="symbol 0.5 out of range"):
            CyclicString(2, (0, 0.5))

    @pytest.mark.parametrize("symbols, bad", [
        ((0, 1.0, True), "1.0"), ((0, 1, True), "True"), ((1, 0, 0.0), "0.0")])
    def test_symbol_equal_to_an_int_rejected(self, symbols, bad):
        # 1.0 and True compare equal to 1, so a range check alone took them
        # and text() wrote "01.0True", which from_text cannot read back
        with pytest.raises(ValueError, match=rf"^symbol {bad} out of range"):
            CyclicString(2, symbols)


class TestAffine:
    def test_translate_canonical(self):
        assert canonicalize_affine((1, 10, 19), 27).canonical == (0, 9, 18)

    def test_orbit_of_0_2_mod_4(self):
        # oracle: all 8 affine maps of Z_4 (units 1,3 x shifts 0..3)
        orbit = set()
        for k in (1, 3):
            for b in range(4):
                orbit.add(tuple(sorted((k * i + b) % 4 for i in (0, 2))))
        assert orbit == {(0, 2), (1, 3)}
        assert canonicalize_affine((0, 2), 4).canonical == (0, 2)
        assert affine_orbit((0, 2), 4) == orbit

    def test_even_stride_class_distinct(self):
        c1 = canonicalize_affine((0, 2, 4, 6), 16).canonical
        c2 = canonicalize_affine((0, 1, 2, 3), 16).canonical
        assert c1 == (0, 2, 4, 6)
        assert c1 != c2

    def test_witness_map_lands_on_canonical(self):
        ac = canonicalize_affine((1, 10, 19), 27)
        mapped = tuple(sorted((ac.k * i + ac.b) % 27 for i in (1, 10, 19)))
        assert mapped == ac.canonical

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_canonical_constant_on_orbit(self, data):
        L = data.draw(st.sampled_from([8, 9, 12, 16]))
        size = data.draw(st.integers(2, 4))
        I = tuple(sorted(data.draw(
            st.sets(st.integers(0, L - 1), min_size=size, max_size=size))))
        k = data.draw(st.sampled_from(units(L)))
        b = data.draw(st.integers(0, L - 1))
        moved = tuple(sorted((k * i + b) % L for i in I))
        c1 = canonicalize_affine(I, L).canonical
        c2 = canonicalize_affine(moved, L).canonical
        assert c1 == c2
        # idempotent
        assert canonicalize_affine(c1, L).canonical == c1

    def test_class_representatives_cover_everything(self):
        L, size = 9, 2
        reps = affine_class_representatives(L, size)
        covered = set()
        for rep in reps:
            covered |= affine_orbit(rep, L)
        assert len(covered) == len(list(itertools.combinations(range(L), size)))
        # pairwise inequivalent
        for a, b in itertools.combinations(reps, 2):
            assert b not in affine_orbit(a, L)


def brute_orbit(I, L):
    """(image, k, b) for every map s -> k*s + b, the whole k x b grid."""
    return [(tuple(sorted((k * i + b) % L for i in I)), k, b)
            for k in units(L) for b in range(L)]


class TestAffineWalkAgainstBruteForce:
    """The orbit walk visits only the images that start (0, d), d the least
    gcd(y - x, L) over the pairs of I; the oracle walks every unit k and
    every shift b."""

    def test_canonical_form_and_map(self):
        rng = random.Random(11)
        for _ in range(400):
            L = rng.randint(1, 32)
            I = rng.sample(range(L), rng.randint(1, min(L, 6)))
            ac = canonicalize_affine(I, L)
            # min over (image, k, b): the least image, then the least map
            assert (ac.canonical, ac.k, ac.b) == min(brute_orbit(I, L))

    @staticmethod
    def brute_representatives(L, size):
        seen, reps = set(), []
        for combo in itertools.combinations(range(L), size):
            if combo not in seen:
                orbit = {image for image, _, _ in brute_orbit(combo, L)}
                seen |= orbit
                reps.append(min(orbit))
        return sorted(reps)

    @pytest.mark.parametrize("L", range(1, 33))
    def test_class_representatives(self, L):
        for size in range(1, min(L, 4) + 1):
            assert (affine_class_representatives(L, size)
                    == self.brute_representatives(L, size))

    def test_class_representatives_2_5(self):
        reps = affine_class_representatives(32, 5)
        assert len(reps) == 454
        assert reps == self.brute_representatives(32, 5)

    def test_class_count_3_4(self):
        assert len(affine_class_representatives(81, 4)) == 426


def least_gap(I, L):
    return min(math.gcd(y - x, L) for x, y in itertools.combinations(I, 2))


def zero_image_representatives(L, size):
    """The earlier walk: every subset that holds 0, in lexicographic order,
    each new one marking all images k*I + b that hold 0 as seen."""
    seen, reps = set(), []
    for rest in itertools.combinations(range(1, L), size - 1):
        combo = (0,) + rest
        if combo not in seen:
            reps.append(combo)
            seen.update(tuple(sorted((k * i - k * x) % L for i in combo))
                        for k in units(L) for x in combo)
    return reps


class TestLeastGapWalk:
    """Composite moduli, where gcd(x, L) >= d does not make d divide x."""

    @pytest.mark.parametrize("L", range(1, 37))
    def test_representatives_match_the_zero_image_walk(self, L):
        for size in range(1, min(L, 5) + 1):
            assert (affine_class_representatives(L, size)
                    == zero_image_representatives(L, size))

    @pytest.mark.parametrize("L", [12, 18, 24, 30, 36, 15, 26, 63, 80])
    def test_canonical_form_and_map_at_a_gap_above_one(self, L):
        rng = random.Random(L)
        divisors = [d for d in range(2, L // 2 + 1) if L % d == 0]
        sets = []
        while len(sets) < 40:
            d = rng.choice(divisors)
            pool = [x for x in range(1, L) if math.gcd(x, L) >= d]
            size = rng.randint(2, min(6, len(pool) + 1))
            I = (0,) + tuple(rng.sample(pool, size - 1))
            if least_gap(I, L) > 1:
                k, b = rng.choice(units(L)), rng.randrange(L)
                sets.append([(k * i + b) % L for i in I])
        for I in sets:
            ac = canonicalize_affine(I, L)
            assert (ac.canonical, ac.k, ac.b) == min(brute_orbit(I, L))

    def test_gap_that_does_not_divide_an_element(self):
        # {0, 2, 5} mod 30: every gap 2, 5, 3 shares a factor with 30, so
        # d = 2, yet 5 is odd; the class starts (0, 2)
        assert least_gap((0, 2, 5), 30) == 2
        ac = canonicalize_affine((0, 2, 5), 30)
        assert (ac.canonical, ac.k, ac.b) == min(brute_orbit((0, 2, 5), 30))
        assert ac.canonical[:2] == (0, 2)
        assert ac.canonical in affine_class_representatives(30, 3)

    def test_class_count_2_6(self):
        # the zero-image walk took about 32 s for this count
        assert len(affine_class_representatives(64, 6)) == 38494


class TestStrings:
    def test_text_round_trip_small_q(self):
        chi = CyclicString(3, (0, 2, 1))
        assert CyclicString.from_text(chi.text(), 3) == chi

    def test_text_round_trip_large_q(self):
        chi = CyclicString(16, (0, 11, 15, 3))
        assert chi.text() == "0,11,15,3"
        assert CyclicString.from_text(chi.text(), 16) == chi

    def test_symbol_list_is_stored_as_a_tuple(self):
        symbols = [0, 1, 1]
        chi = CyclicString(2, symbols)
        symbols[0] = 5
        assert chi.symbols == (0, 1, 1)

    def test_rotation_translate_equality(self):
        a = CyclicString(3, (0, 1, 2, 0))
        assert equal_up_to_rotation(a, a.rotated(2))
        assert equal_up_to_rotation_and_translate(a, a.rotated(3).translated(2))
        assert not equal_up_to_rotation_and_translate(
            a, CyclicString(3, (0, 0, 0, 0)))

    @pytest.mark.parametrize("symbols, first_bad", [
        ((0, 3, -1), 3), ((0, -1, 5), -1), ((2, 1, 0, 4), 4)])
    def test_out_of_range_symbol_names_the_first_one(self, symbols,
                                                     first_bad):
        with pytest.raises(ValueError,
                           match=rf"^symbol {first_bad} out of range for q=3$"):
            CyclicString(3, symbols)

    def test_normalize_rejects_collisions(self):
        with pytest.raises(ValueError):
            normalize_index_set((0, 8), 8)

    def test_huge_alphabet_is_not_listed(self):
        # the range check built a set of all q symbols: 2**61 - 1 of them
        # for `verify --q 2305843009213693951`, 67 MB traced at q = 10**6
        tracemalloc.start()
        try:
            CyclicString(10 ** 6, (0, 999_999))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_content_lines_skip_blanks_and_comments(self):
        lines = ["# header", "0,1,3\tvalid\n", "   ", "  # indented",
                 "  0,1,2\tinvalid  ", ""]
        assert list(content_lines(lines)) == [(2, "0,1,3\tvalid"),
                                              (5, "0,1,2\tinvalid")]


class TestFactoring:
    def test_least_prime_factor_against_the_definition(self):
        for n in range(2, 2000):
            p = min(d for d in range(2, n + 1) if n % d == 0)
            assert least_prime_factor(n) == p, n
            assert is_prime(n) == (p == n), n
        assert not any(map(is_prime, (-7, 0, 1)))

    def test_large_prime_costs_its_square_root(self):
        # 2**31 - 1 takes 46,341 divisions, not 2**31
        assert least_prime_factor(2 ** 31 - 1) == 2 ** 31 - 1
        assert least_prime_factor(3 * (2 ** 31 - 1)) == 3


def test_every_export_is_an_attribute():
    # a name left in __all__ after its object is deleted breaks
    # `from ucycle import *`
    import ucycle

    assert [name for name in ucycle.__all__ if not hasattr(ucycle, name)] == []
