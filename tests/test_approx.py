"""Dilation plans, patch strings, randomized and two-stage constructions."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ucycle.core import verify_cover, window
from ucycle.approx import (
    janson_bound,
    linear_missing,
    patch_sequence,
    plan_dilation,
    smallest_prime_above,
    type1_construct,
    type2_random,
)


def circular_gap(residues, p):
    """Least distance mod p between cyclically consecutive residues; 0 when
    two coincide, p for a single one."""
    rs = sorted(residues)
    return min([b - a for a, b in zip(rs, rs[1:])] + [rs[0] + p - rs[-1]])


class TestDilationPlan:
    def test_small_pair_s1(self):
        p, k = plan_dilation((0, 1), 1)
        assert p == 17  # smallest prime above 2*2*(1+3) = 16
        assert circular_gap([k * i % p for i in (0, 1)], p) >= 1

    def test_small_pair_s4(self):
        assert plan_dilation((0, 1), 4)[0] == 29  # above 2*2*7 = 28

    def test_singleton_degenerate(self):
        p, k = plan_dilation((5,), 3)
        assert k == 1 and circular_gap([5 % p], p) == p

    def test_gap_is_attained(self):
        # k is the least multiplier of the widest spread, which reaches S
        p, k = plan_dilation((0, 3, 11), 5)
        gaps = [circular_gap([j * i % p for i in (0, 3, 11)], p)
                for j in range(p)]
        assert gaps.index(max(gaps)) == k and gaps[k] >= 5

    def test_primes(self):
        assert smallest_prime_above(16) == 17
        assert smallest_prime_above(1) == 2
        assert smallest_prime_above(2) == 3


class TestPatch:
    def test_single_word(self):
        chi = patch_sequence((0, 1), [(1, 1)], 2)
        assert len(chi) == 17
        assert any(window(chi, (0, 1), t) == (1, 1) for t in range(17))

    def test_all_four_words(self):
        chi = patch_sequence((0, 1), [(0, 0), (0, 1), (1, 0), (1, 1)], 2)
        assert len(chi) == 29
        achieved = {window(chi, (0, 1), t) for t in range(29)}
        assert achieved == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_index_set_wider_than_default_prime(self):
        # 17 is the smallest prime above 2*2*(1+3), and 0 = 17 mod 17
        chi = patch_sequence((0, 17), [(1, 1)], 2)
        assert len(chi) == 19
        assert any(window(chi, (0, 17), t) == (1, 1) for t in range(19))

    def test_empty_request(self):
        chi = patch_sequence((0, 1), [], 2)
        assert set(chi.symbols) == {0}

    def test_duplicate_words_rejected(self):
        with pytest.raises(ValueError):
            patch_sequence((0, 1), [(1, 1), (1, 1)], 2)

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_every_prescribed_word_appears(self, data):
        q = data.draw(st.sampled_from([2, 3]))
        n = data.draw(st.sampled_from([2, 3]))
        I = tuple(sorted(data.draw(st.sets(
            st.integers(0, 30), min_size=n, max_size=n))))
        count = data.draw(st.integers(1, min(6, q ** n)))
        pool = [tuple((c // q ** j) % q for j in range(n))
                for c in range(q ** n)]
        words = data.draw(st.permutations(pool))[:count]
        chi = patch_sequence(I, words, q)
        achieved = {window(chi, I, t) for t in range(len(chi))}
        assert set(map(tuple, words)) <= achieved


class TestType2:
    def test_deterministic(self):
        a = type2_random(2, 4, (0, 1, 2, 3), 64, seed=9)
        b = type2_random(2, 4, (0, 1, 2, 3), 64, seed=9)
        assert a == b

    def test_pigeonhole_lower_bound(self):
        _, missing = type2_random(2, 4, (0, 1, 2, 3), 8, seed=1)
        assert missing >= 8  # only 8 translates for 16 words

    def test_exact_missing_count(self):
        chi, missing = type2_random(2, 3, (0, 1, 2), 16, seed=3)
        achieved = {window(chi, (0, 1, 2), t) for t in range(16)}
        assert missing == 8 - len(achieved)

    def test_linear_vs_cyclic_coverage(self):
        # wrap-around windows only ever add coverage
        for seed in range(6):
            chi, cyclic_missing = type2_random(2, 4, (0, 1, 2, 3), 40,
                                               seed=seed)
            assert cyclic_missing <= linear_missing(2, 4, (0, 1, 2, 3), chi)

    def test_linear_missing_without_zero_in_index_set(self):
        # reading past the end once raised IndexError when min(I) > 0
        chi, _ = type2_random(2, 3, (0, 1, 2), 20, seed=2)
        for I in [(1, 2, 4), (3, 5, 6), (7, 8, 19)]:
            shifted = [i - min(I) for i in I]
            assert (linear_missing(2, 3, I, chi)
                    == linear_missing(2, 3, shifted, chi))
        assert linear_missing(2, 3, (1, 2, 4), chi) < 8

    def test_index_set_must_be_n_residues_distinct_mod_m(self):
        # a 2-element set was counted against the 3-words: 4 "missing"
        with pytest.raises(ValueError, match="size 2 != window size 3"):
            type2_random(2, 3, (0, 1), 16, 0)
        with pytest.raises(ValueError, match="repeated residues mod 16"):
            type2_random(2, 3, (0, 1, 17), 16, 0)

    def test_prefix_coupled_monotonicity(self):
        # interior coverage is non-increasing in m for a fixed seed because
        # the random stream is reused as a prefix
        I = (0, 1, 2, 3)
        seed = 5
        prev = None
        for m in (24, 32, 48, 64, 96):
            chi, _ = type2_random(2, 4, I, m, seed=seed)
            lm = linear_missing(2, 4, I, chi)
            if prev is not None:
                assert lm <= prev
            prev = lm


class TestType1:
    def test_contiguous_window(self):
        chi, _, _ = type1_construct(2, 6, tuple(range(6)), seed=3)
        rep = verify_cover(chi, (2, 6), tuple(range(6)))
        assert rep.complete
        assert len(chi) <= 16 * 64 * math.log(6)

    def test_noncontiguous_window(self):
        chi, _, _ = type1_construct(2, 4, (0, 1, 3, 9), seed=5)
        rep = verify_cover(chi, (2, 4), (0, 1, 3, 9))
        assert rep.complete

    def test_trivial_n1(self):
        chi, _, _ = type1_construct(3, 1, (0,), seed=0)
        assert chi.symbols == (0, 1, 2)
        rep = verify_cover(chi, (3, 1), (0,))
        assert rep.complete

    def test_length_at_least_word_count(self):
        chi, _, _ = type1_construct(2, 4, (0, 1, 2, 3), seed=2)
        assert len(chi) >= 2 ** 4

    def test_log_records_stages(self):
        chi, _, log = type1_construct(2, 5, (0, 1, 2, 3, 4), seed=7)
        assert log["seed"] == 7
        assert log["total_length"] == len(chi)
        assert log["random_length"] == math.ceil(4 * 32 * math.log(5))


class TestRandomStageShape:
    def test_missing_fraction_tracks_tail_bound(self):
        # mean missing fraction decreases with the length factor c and stays
        # under the crude exp(-c/2) tail plus three sample deviations
        import statistics

        q, n = 2, 6
        I = tuple(range(n))
        words = q ** n
        prev_mean = 1.0
        for c in (2, 4, 8):
            fracs = [type2_random(q, n, I, c * words, seed=s)[1] / words
                     for s in range(30)]
            mean = statistics.mean(fracs)
            sd = statistics.stdev(fracs)
            assert mean <= prev_mean
            assert mean <= math.exp(-c / 2) + 3 * sd, (c, mean, sd)
            prev_mean = mean


class TestJanson:
    def test_direct_substitution(self):
        assert janson_bound(1, 1, 1) == math.exp(-1 / 8)

    def test_zero_mu(self):
        assert janson_bound(0, 1, 1) == 1.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            janson_bound(1, 0, 1)
        with pytest.raises(ValueError):
            janson_bound(1, 1, -2)

    def test_monotone_in_m(self):
        # the standard parameterization is nonincreasing as length grows
        n, q = 4, 2
        prev = 1.1
        for m in (16, 64, 256, 1024, 4096):
            mu = m * q ** -n
            val = janson_bound(mu, n * n, n * n * q ** -n)
            assert val <= prev
            prev = val
