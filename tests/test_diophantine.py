import math

import numpy as np
import pytest

from caf import diophantine as dio
from caf.errors import InvalidArgumentError, NumericRangeError, ResourceLimitError


class TestMonomialSet:
    def test_l1_singleton(self):
        mset = dio.build_monomial_set(np.array([[1.3, 0.7], [0.9, 1.8]]), 1)
        assert len(mset) == 1
        assert mset.monomials[0].value == 1.0
        assert mset.monomials[0].exponents == (0, 0, 0, 0)

    def test_cardinality_l2(self):
        mset = dio.build_monomial_set(np.array([[1.3, 0.7], [0.9, 1.8]]), 2)
        assert len(mset) == 16

    def test_l3_distinct_values(self):
        rng = np.random.default_rng(0)
        H = rng.uniform(0.5, 2.0, size=(2, 2))
        mset = dio.build_monomial_set(H, 3)
        assert len(mset) == 81
        vals = mset.values()
        assert np.all(np.diff(vals) > 0)

    def test_values_match_extended_precision(self):
        rng = np.random.default_rng(1)
        H = rng.uniform(0.5, 2.0, size=(2, 2))
        mset = dio.build_monomial_set(H, 3)
        for mono in mset.monomials[::7]:
            direct = float(np.prod(np.longdouble(H.reshape(-1)) ** np.array(mono.exponents)))
            assert mono.value == pytest.approx(direct, rel=1e-12)

    def test_sorted_by_value(self):
        mset = dio.build_monomial_set(np.array([[0.6, 1.4], [1.1, 0.8]]), 2)
        vals = mset.values()
        assert np.all(np.diff(vals) >= 0)

    def test_overflow_names_exponents(self):
        H = np.full((2, 2), 1e300)
        with pytest.raises(NumericRangeError, match="exponents"):
            dio.build_monomial_set(H, 3)

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            dio.build_monomial_set(np.eye(2), 0)


def loop_monomial_set(H, L):
    """Reference: one ``evaluate_monomial`` call per monomial, then a key sort."""
    gains = np.asarray(H, dtype=float).reshape(-1)
    n = gains.size
    monomials = []
    for code in range(L**n):
        exps = []
        c = code
        for _ in range(n):
            exps.append(c % L)
            c //= L
        exps = tuple(exps)
        monomials.append(dio.Monomial(exps, dio.evaluate_monomial(gains, exps)))
    monomials.sort(key=lambda m: (m.value, m.exponents))
    return monomials


class TestMonomialSetAgainstLoop:
    @pytest.mark.parametrize("k, L", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3)])
    def test_bit_identical_exponents_values_and_order(self, k, L):
        rng = np.random.default_rng(100 + 10 * k + L)
        for H in (rng.uniform(0.5, 2.0, size=(k, k)), rng.uniform(-2.0, 2.0, size=(k, k))):
            got = dio.build_monomial_set(H, L).monomials
            want = loop_monomial_set(H, L)
            assert [m.exponents for m in got] == [m.exponents for m in want]
            got_bits = np.array([m.value for m in got]).view(np.uint64)
            want_bits = np.array([m.value for m in want]).view(np.uint64)
            assert np.array_equal(got_bits, want_bits)
            assert all(type(e) is int for m in got[:5] for e in m.exponents)

    def test_ties_break_on_exponents(self):
        # every monomial of an all-ones channel is 1.0: the order is the exponent order
        got = dio.build_monomial_set(np.ones((2, 2)), 3).monomials
        assert got == loop_monomial_set(np.ones((2, 2)), 3)
        assert [m.exponents for m in got] == sorted(m.exponents for m in got)

    @pytest.mark.parametrize("H", [
        np.full((2, 2), 1e300),
        np.full((2, 2), 1e-300),
        np.array([[1.5, 0.5], [2.0, 1e300]]),
        np.array([[1e-200, 1.0], [1.0, 1e200]]),
    ])
    def test_range_error_names_the_first_monomial_in_generation_order(self, H):
        with pytest.raises(NumericRangeError) as want:
            loop_monomial_set(H, 3)
        with pytest.raises(NumericRangeError) as got:
            dio.build_monomial_set(H, 3)
        assert str(got.value) == str(want.value)


class TestUniqueFactorization:
    def test_duplicate_gain_collides(self):
        H = np.array([[1.4, 1.4], [0.7, 1.9]])
        mset = dio.build_monomial_set(H, 2)
        assert not dio.check_unique_factorization(mset)

    def test_all_ones_collides(self):
        mset = dio.build_monomial_set(np.ones((2, 2)), 2)
        assert not dio.check_unique_factorization(mset)

    def test_random_channels_generic(self):
        rng = np.random.default_rng(2)
        ok = 0
        for _ in range(100):
            H = rng.uniform(0.5, 2.0, size=(2, 2))
            mset = dio.build_monomial_set(H, 2)
            ok += dio.check_unique_factorization(mset)
        assert ok >= 99


class TestKhinchinError:
    def test_exact_rational_hits(self):
        assert dio.khinchin_error([0.5], 4) == 0.0
        assert dio.khinchin_error([1.0 / 3.0], 9) == pytest.approx(0.0, abs=1e-15)

    def test_matches_bounded_brute_force(self):
        h = math.pi - 3
        q = 7
        brute = min(abs(h - a / math.sqrt(q)) for a in range(-10, 11))
        assert dio.khinchin_error([h], q) == pytest.approx(brute, abs=0)

    def test_upper_bound(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            h = rng.normal(size=rng.integers(1, 4))
            q = int(rng.integers(1, 500))
            assert dio.khinchin_error(h, q) <= 0.5 / math.sqrt(q) + 1e-15


class TestDecayFit:
    def test_golden_slope_near_minus_one(self):
        golden = (math.sqrt(5) - 1) / 2
        fit = dio.khinchin_decay_fit([golden], 10**4)
        assert not fit.degenerate
        assert -1.3 <= fit.slope <= -0.7

    def test_rational_degenerate(self):
        fit = dio.khinchin_decay_fit([0.5], 100)
        assert fit.degenerate
        assert math.isnan(fit.slope)

    def test_random_d2_typical_level(self):
        rng = np.random.default_rng(5)
        slopes = []
        for _ in range(20):
            fit = dio.khinchin_decay_fit(rng.uniform(0.1, 0.9, size=2), 4000)
            if not fit.degenerate:
                slopes.append(fit.slope)
        assert np.median(slopes) >= -(0.5 + 0.5) - 0.25

    def test_envelope_is_nonincreasing(self):
        fit = dio.khinchin_decay_fit([math.sqrt(2) - 1], 500)
        assert np.all(np.diff(fit.envelope) <= 0)


class TestSeparation:
    def test_integer_value_hits_zero(self):
        assert dio.monomial_separation([2.0], 3) == 0.0

    def test_single_irrational_without_shift(self):
        h = math.sqrt(3)
        assert dio.monomial_separation([h], 1, integer_shift=False) == pytest.approx(h, abs=0)

    def test_mitm_equals_exhaustive(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            values = rng.uniform(0.2, 3.0, size=n)
            for shift in (True, False):
                ex = dio.monomial_separation(values, 2, integer_shift=shift, mode="exhaustive")
                mm = dio.monomial_separation(values, 2, integer_shift=shift, mode="mitm")
                assert ex == mm

    def test_monotone_in_qmax(self):
        rng = np.random.default_rng(7)
        values = rng.uniform(0.2, 2.0, size=3)
        seps = [dio.monomial_separation(values, q) for q in (1, 2, 3, 4)]
        assert all(x >= y for x, y in zip(seps, seps[1:]))

    def test_budget_errors(self):
        values = np.linspace(0.3, 2.2, 10)
        with pytest.raises(ResourceLimitError, match="meet-in-the-middle"):
            dio.monomial_separation(values, 5, mode="exhaustive", budget=1000)
        with pytest.raises(ResourceLimitError):
            dio.monomial_separation(np.linspace(0.1, 2.0, 20), 6, mode="mitm", budget=1000)

    def test_per_value_ranges(self):
        # ranges (1, 2): combination q = (1, -2) becomes reachable
        v = [1.0, 0.49]
        tight = dio.monomial_separation(v, [1, 1], integer_shift=False)
        wide = dio.monomial_separation(v, [1, 2], integer_shift=False)
        assert wide <= tight
        assert wide == pytest.approx(abs(1.0 - 2 * 0.49), abs=1e-12)


class TestSeparationProbe:
    def test_positive_ratios_for_generic_channel(self):
        rng = np.random.default_rng(8)
        H = rng.uniform(0.5, 2.0, size=(2, 2))
        rows = dio.separation_scaling_probe(H, 1, [2, 3, 5])
        assert all(r.generic for r in rows)
        assert all(r.separation > 0 for r in rows)
        assert all(r.ratio_to_sqrt_p > 0 for r in rows)

    def test_colliding_channel_flagged(self):
        H = np.array([[1.5, 1.5], [0.8, 1.9]])  # h11 == h12 collide at both degrees
        rows = dio.separation_scaling_probe(H, 1, [2])
        assert not rows[0].generic
        assert rows[0].separation == pytest.approx(0.0, abs=1e-12)

    def test_single_monomial_minimum(self):
        g = 1.37
        assert dio.monomial_separation([g], 2, integer_shift=False) == pytest.approx(g, abs=0)


class TestSeparationFuzz:
    """Adversarial meet-in-the-middle cross-checks: duplicates, signs, zeros."""

    def test_mitm_equals_exhaustive_with_duplicates_and_signs(self):
        rng = np.random.default_rng(41)
        for trial in range(60):
            n = int(rng.integers(2, 8))
            pool = rng.choice([0.0, 0.5, 1.0, -1.0, 1.37, -2.4, 1.37], size=n)
            jitter = rng.normal(scale=0.2, size=n) * rng.integers(0, 2, size=n)
            values = pool + jitter
            ranges = rng.integers(1, 3, size=n)
            for shift in (True, False):
                ex = dio.monomial_separation(values, ranges, integer_shift=shift,
                                             mode="exhaustive")
                mm = dio.monomial_separation(values, ranges, integer_shift=shift,
                                             mode="mitm")
                assert ex == mm, (trial, values, ranges, shift, ex, mm)

    def test_mitm_wide_integer_span(self):
        values = np.array([13.7, -9.2, 4.4])
        ex = dio.monomial_separation(values, 3, mode="exhaustive")
        mm = dio.monomial_separation(values, 3, mode="mitm")
        assert ex == mm
