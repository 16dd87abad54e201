import math

import numpy as np
import pytest

from caf import alignment as al
from caf import diophantine as dio
from caf.errors import (
    InfeasiblePowerError,
    InvalidArgumentError,
    NonGenericChannelError,
    ResourceLimitError,
)

RNG = np.random.default_rng(0)
H_GENERIC = np.array([[1.37, 0.71], [1.92, 0.58]])
H_EXAMPLE = np.array([[1.0, 0.8], [1.3, 1.0]])


class TestCanonicalSignature:
    def test_k2_l1_worstcase_scaling(self):
        sig = al.canonical_signature(H_GENERIC, 1, 3, mode="worstcase")
        assert [len(t) for t in sig.transmitters] == [1, 1]
        assert sig.scaling == float(6**16)

    def test_k2_l1_signature_is_one(self):
        sig = al.canonical_signature(H_GENERIC, 1, 3, mode="unit")
        for tx in sig.transmitters:
            assert tx[0].value == 1.0
            assert tx[0].exponents == (0, 0, 0, 0)

    def test_k2_l2_sixteen_submessages(self):
        sig = al.canonical_signature(H_GENERIC, 2, 3, mode="unit")
        assert [len(t) for t in sig.transmitters] == [16, 16]

    def test_rejects_non_generic(self):
        with pytest.raises(NonGenericChannelError):
            al.canonical_signature(np.ones((2, 2)), 1, 3)

    def test_rejects_composite_p(self):
        with pytest.raises(InvalidArgumentError, match="6 is not prime"):
            al.canonical_signature(H_GENERIC, 1, 6, mode="tight")

    def test_rejects_bad_mode_and_l(self):
        with pytest.raises(InvalidArgumentError, match="degree bound L"):
            al.canonical_signature(H_GENERIC, 0, 5, mode="tight")
        with pytest.raises(InvalidArgumentError, match="unknown scaling mode 'loose'"):
            al.canonical_signature(H_GENERIC, 1, 5, mode="loose")


class TestExampleSignature:
    def test_receiver_group_structure(self):
        sig = al.example_signature(H_EXAMPLE, p=5)
        eq = al.derive_equation_system(sig)
        h1, h2 = 1.3, 0.8
        rx0 = [(g.value, g.contributors) for g in eq.receivers[0]]
        assert len(rx0) == 3 and len(eq.receivers[1]) == 2
        assert rx0[0] == (pytest.approx(1.0), [(0, 0)])
        assert rx0[1] == (pytest.approx(h1 * h2), [(0, 1), (1, 0)])
        assert rx0[2] == (pytest.approx(h1 * h1 * h2 * h2), [(1, 1)])
        rx1 = [(g.value, g.contributors) for g in eq.receivers[1]]
        assert rx1[0] == (pytest.approx(h1), [(0, 0), (1, 0)])
        assert rx1[1] == (pytest.approx(h1 * h1 * h2), [(0, 1), (1, 1)])

    def test_dof_accounting_four_thirds(self):
        sig = al.example_signature(H_EXAMPLE, p=5)
        eq = al.derive_equation_system(sig)
        submessages = sig.submessage_count()
        equations = sum(len(r) for r in eq.receivers)
        assert submessages == 4 and equations == 5
        # 4 submessage streams cost max_m(#groups) = 3 equation slots
        assert submessages / max(len(r) for r in eq.receivers) == pytest.approx(4 / 3)

    def test_degenerate_gains_rejected(self):
        with pytest.raises(NonGenericChannelError):
            al.example_signature(np.array([[1.0, 0.9], [0.9, 1.0]]), p=5)

    def test_requires_unit_diagonal(self):
        with pytest.raises(InvalidArgumentError):
            al.example_signature(H_GENERIC, p=5)


class TestEquationSystem:
    def test_canonical_k2_l1_groups(self):
        sig = al.canonical_signature(H_GENERIC, 1, 3, mode="unit")
        eq = al.derive_equation_system(sig)
        for m in range(2):
            values = sorted(g.value for g in eq.receivers[m])
            assert values == sorted(H_GENERIC[m])
            for g in eq.receivers[m]:
                assert len(g.contributors) == 1

    def test_canonical_k2_l2_group_bounds(self):
        sig = al.canonical_signature(H_GENERIC, 2, 5, mode="unit")
        eq = al.derive_equation_system(sig)
        for m in range(2):
            assert len(eq.receivers[m]) <= 32
            total_pairs = sum(len(g.contributors) for g in eq.receivers[m])
            assert total_pairs == 32  # every submessage heard exactly once
            assert all(len(g.contributors) <= 2 for g in eq.receivers[m])

    def test_alignment_occurs_at_l2(self):
        # some group must fuse two transmitters, otherwise nothing aligned
        sig = al.canonical_signature(H_GENERIC, 2, 5, mode="unit")
        eq = al.derive_equation_system(sig)
        assert any(len(g.contributors) == 2 for rx in eq.receivers for g in rx)


class TestModulate:
    def test_zero_submessages(self):
        sig = al.example_signature(H_EXAMPLE, p=5)
        x = al.modulate([np.zeros(2, dtype=int), np.zeros(2, dtype=int)], sig)
        assert not x.any()

    def test_k2_l1_scalar_signature(self):
        sig = al.canonical_signature(H_GENERIC, 1, 3, mode="worstcase")
        x = al.modulate([[1], [2]], sig)
        assert x[0] == sig.scaling and x[1] == 2 * sig.scaling

    def test_example_all_ones(self):
        sig = al.example_signature(H_EXAMPLE, p=5)
        x = al.modulate([[1, 1], [1, 1]], sig)
        h1, h2 = 1.3, 0.8
        assert x[0] == pytest.approx(1 + h1 * h2, rel=1e-12)
        assert x[1] == pytest.approx(h1 + h1 * h1 * h2, rel=1e-12)

    def test_range_validation(self):
        sig = al.example_signature(H_EXAMPLE, p=5)
        with pytest.raises(InvalidArgumentError):
            al.modulate([[5, 0], [0, 0]], sig)


class TestChannel:
    def test_noiseless(self):
        x = np.array([1.0, -2.0])
        y = al.awgn_channel(x, H_EXAMPLE, noise_variance=0.0)
        assert np.array_equal(y, H_EXAMPLE @ x)

    def test_seed_determinism(self):
        x = np.array([1.0, 2.0])
        y1 = al.awgn_channel(x, H_EXAMPLE, rng=42)
        y2 = al.awgn_channel(x, H_EXAMPLE, rng=42)
        assert np.array_equal(y1, y2)

    def test_noise_variance(self):
        x = np.zeros((2, 10**5))
        y = al.awgn_channel(x, H_EXAMPLE, rng=7, noise_variance=1.0)
        var = y.var(axis=1)
        assert np.all(np.abs(var - 1.0) < 0.02)

    def test_rejects_negative_or_non_finite_noise_variance(self):
        x = np.array([1.0, 2.0])
        for bad in (-1.0, -1e-300, math.inf, math.nan):
            with pytest.raises(InvalidArgumentError, match="noise variance"):
                al.awgn_channel(x, H_EXAMPLE, rng=0, noise_variance=bad)


class TestTrueEquations:
    def test_zero_messages(self):
        sig = al.example_signature(H_EXAMPLE, p=5)
        eq = al.derive_equation_system(sig)
        t = al.true_equations([np.zeros(2, dtype=int)] * 2, eq, sig)
        assert not any(v.any() for v in t)

    def test_example_equations(self):
        sig = al.example_signature(H_EXAMPLE, p=5)
        eq = al.derive_equation_system(sig)
        a, b, c, d = 1, 2, 3, 4
        t = al.true_equations([[a, b], [c, d]], eq, sig)
        assert list(t[0]) == [a, b + c, d]
        assert list(t[1]) == [a + c, b + d]

    def test_reconstruction_identity(self):
        sig = al.example_signature(H_EXAMPLE, p=5)
        eq = al.derive_equation_system(sig)
        rng = np.random.default_rng(1)
        for _ in range(50):
            w = [rng.integers(0, 5, size=2) for _ in range(2)]
            x = al.modulate(w, sig)
            y = al.awgn_channel(x, H_EXAMPLE, noise_variance=0.0)
            t = al.true_equations(w, eq, sig)
            for m in range(2):
                recon = eq.scaling * sum(
                    int(v) * g.value for v, g in zip(t[m], eq.receivers[m])
                )
                assert y[m] == pytest.approx(recon, rel=1e-12)

    def test_value_ranges(self):
        sig = al.example_signature(H_EXAMPLE, p=5)
        eq = al.derive_equation_system(sig)
        rng = np.random.default_rng(2)
        for _ in range(100):
            w = [rng.integers(0, 5, size=2) for _ in range(2)]
            for m, vals in enumerate(al.true_equations(w, eq, sig)):
                for v, g in zip(vals, eq.receivers[m]):
                    assert 0 <= v <= len(g.contributors) * 4


class TestMlDemodulate:
    def test_noiseless_roundtrip(self):
        sig = al.example_signature(H_EXAMPLE, p=3)
        eq = al.derive_equation_system(sig)
        rng = np.random.default_rng(3)
        w = [rng.integers(0, 3, size=(2, 1000)) for _ in range(2)]
        x = al.modulate(w, sig)
        y = al.awgn_channel(x, H_EXAMPLE, noise_variance=0.0)
        truth = al.true_equations(w, eq, sig)
        for m in range(2):
            hat = al.ml_demodulate(y[m], eq.receivers[m], 3, sig.scaling)
            assert np.array_equal(hat, truth[m])

    def test_single_group_reduces_to_rounding(self):
        # second transmitter silent: each receiver hears one signature only
        g = 1.37
        sig = al.SignatureMap(
            H_EXAMPLE,
            (((0,), (0,)), ((0,), (0,))),
            [[al.Submessage(0, (1,), g)], []],
            p=5,
        )
        eq = al.derive_equation_system(sig)
        for y in (-3.0, 0.2, 1.9, 3.3, 9.9):
            hat = al.ml_demodulate(np.array([y]), eq.receivers[0], 5, sig.scaling)
            expected = min(max(round(y / (H_EXAMPLE[0, 0] * g)), 0), 4)
            assert hat[0, 0] == expected

    def test_midpoint_tie_prefers_lexicographic(self):
        g = 2.0
        sig = al.SignatureMap(
            np.array([[1.0, 0.0], [0.0, 1.0]]),
            (((0,), (0,)), ((0,), (0,))),
            [[al.Submessage(0, (1,), g)], []],
            p=5,
        )
        eq = al.derive_equation_system(sig)
        hat = al.ml_demodulate(np.array([3.0]), eq.receivers[0], 5, sig.scaling)
        assert hat[0, 0] == 1  # tie between u=1 (2.0) and u=2 (4.0)

    def test_mitm_equals_exhaustive(self):
        sig = al.example_signature(H_EXAMPLE, p=3)
        eq = al.derive_equation_system(sig)
        rng = np.random.default_rng(4)
        y = rng.uniform(-1.0, 6.0, size=200)
        for m in range(2):
            ex = al.ml_demodulate(y, eq.receivers[m], 3, sig.scaling, strategy="exhaustive")
            mm = al.ml_demodulate(y, eq.receivers[m], 3, sig.scaling, strategy="mitm")
            assert np.array_equal(ex, mm)

    def test_mitm_equals_exhaustive_on_exact_ties(self):
        g = 2.0
        sig = al.SignatureMap(
            np.array([[1.0, 0.0], [0.0, 1.0]]),
            (((0,), (0,)), ((0,), (0,))),
            [[al.Submessage(0, (1,), g)], []],
            p=5,
        )
        eq = al.derive_equation_system(sig)
        y = np.array([3.0, 5.0, 7.0])
        ex = al.ml_demodulate(y, eq.receivers[0], 5, sig.scaling, strategy="exhaustive")
        mm = al.ml_demodulate(y, eq.receivers[0], 5, sig.scaling, strategy="mitm")
        assert np.array_equal(ex, mm)

    def test_oracle_injection(self):
        sig = al.example_signature(H_EXAMPLE, p=3)
        eq = al.derive_equation_system(sig)
        truth = np.array([[1], [2], [0]])
        hat = al.ml_demodulate(np.array([0.0]), eq.receivers[0], 3, sig.scaling,
                               strategy="oracle", oracle_values=truth)
        assert np.array_equal(hat, truth)

    def test_budget_names_escape_hatch(self):
        sig = al.canonical_signature(H_GENERIC, 2, 5, mode="unit")
        eq = al.derive_equation_system(sig)
        with pytest.raises(ResourceLimitError, match="oracle"):
            al.ml_demodulate(np.array([0.0]), eq.receivers[0], 5, 1.0, budget=100)


class TestWorstCaseModeContainment:
    def test_demod_exact_when_noise_below_half_min_distance(self):
        sig = al.canonical_signature(H_GENERIC, 1, 3, mode="worstcase")
        eq = al.derive_equation_system(sig)
        # brute-force minimum distance between signal points, scaled by B
        half_min = math.inf
        for m in range(2):
            vals = [g.value for g in eq.receivers[m]]
            ranges = [len(g.contributors) * 2 for g in eq.receivers[m]]
            sep = dio.monomial_separation(vals, ranges, integer_shift=False)
            half_min = min(half_min, sig.scaling * sep / 2)
        rng = np.random.default_rng(5)
        trials = 10**4
        w = [rng.integers(0, 3, size=(1, trials)) for _ in range(2)]
        x = al.modulate(w, sig)
        z = rng.standard_normal((2, trials))
        assert np.all(np.abs(z) < half_min)  # worst-case margin is astronomical
        y = H_GENERIC @ x + z
        truth = al.true_equations(w, eq, sig)
        for m in range(2):
            hat = al.ml_demodulate(y[m], eq.receivers[m], 3, sig.scaling)
            assert np.array_equal(hat, truth[m])


class TestPowerAndErrorBounds:
    def test_c4_is_one_for_subunit_gains(self):
        H = np.array([[0.5, 0.9], [0.3, 0.7]])
        assert al.power_bound(2, 1, 2, H) == al.power_bound(2, 1, 2, None)

    def test_k2_l1_p2_closed_form(self):
        assert al.power_bound(2, 1, 2) == pytest.approx(float(4**32) * 4, rel=1e-12)

    def test_monotone_in_p(self):
        vals = [al.power_bound(2, 1, p) for p in (2, 3, 5, 7, 11)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_log2_mode_consistency(self):
        lin = al.power_bound(2, 1, 3, H_GENERIC)
        lg = al.power_bound(2, 1, 3, H_GENERIC, log2=True)
        assert math.log2(lin) == pytest.approx(lg, rel=1e-12)

    def test_overflow_suggests_log2(self):
        import caf.errors

        with pytest.raises(caf.errors.NumericRangeError, match="log2"):
            al.power_bound(3, 2, 3)

    def test_modulated_power_within_worstcase_bound(self):
        sig = al.canonical_signature(H_GENERIC, 1, 3, mode="worstcase")
        bound = al.power_bound(2, 1, 3, H_GENERIC)
        rng = np.random.default_rng(6)
        w = [rng.integers(0, 3, size=(1, 500)) for _ in range(2)]
        x = al.modulate(w, sig)
        assert np.all(x * x <= bound)

    def test_error_bound_values(self):
        assert al.error_bound(2, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-12)
        assert al.error_bound(7, 1.0) < al.error_bound(5, 1.0) < al.error_bound(3, 1.0)


class TestTightScaling:
    def test_margin_equals_c5_sqrt_p(self):
        for p in (3, 5, 7):
            sig = al.canonical_signature(H_GENERIC, 1, p, mode="tight", c5_target=1.2)
            eq = al.derive_equation_system(sig)
            sep = math.inf
            for m in range(2):
                vals = [g.value for g in eq.receivers[m]]
                ranges = [len(g.contributors) * (p - 1) for g in eq.receivers[m]]
                sep = min(sep, dio.monomial_separation(vals, ranges, integer_shift=False))
            assert sig.scaling * sep / 2 == pytest.approx(1.2 * math.sqrt(p), rel=1e-12)


class TestParameterSelection:
    def test_returned_p_is_prime(self):
        from caf.fpcode import is_prime

        L, p = al.select_parameters(1e40, 2, L=1)
        assert is_prime(p)

    def test_boundary_hits_exact_prime(self):
        target = al.power_bound(2, 1, 5)
        L, p = al.select_parameters(target, 2, L=1)
        assert (L, p) == (1, 5)

    def test_doubling_never_decreases_p_at_fixed_l(self):
        last = 0
        for x in np.arange(67.0, 140.0, 1.0):  # log2 targets
            _, p = al.select_parameters(float(x), 2, L=1, log2_target=True)
            assert p >= last
            last = p

    def test_derived_l_in_asymptotic_regime(self):
        L, p = al.select_parameters(16807.0, 2, log2_target=True)
        assert L == 7
        assert p == 2

    def test_infeasible(self):
        with pytest.raises(InfeasiblePowerError):
            al.select_parameters(100.0, 2, L=1)

    def test_bracket_failure_is_a_typed_error(self, monkeypatch):
        real = al.power_bound
        target = real(2, 1, 5, log2=True)

        def dips_at_ten(k, l, p, H=None, log2=False):
            # non-monotone in p: P(L, 10) falls below P(L, 7)
            return target - 1.0 if p == 10 else real(k, l, p, H, log2)

        monkeypatch.setattr(al, "power_bound", dips_at_ten)
        with pytest.raises(InfeasiblePowerError, match="Bertrand bracket fails at p=5"):
            al.select_parameters(target, 2, L=1, log2_target=True)


class TestAchievableRate:
    def test_zero_epsilon(self):
        assert al.achievable_rate(2, 1, 3, 0.0) == pytest.approx(2 * math.log2(3), rel=1e-12)
        assert al.achievable_rate(2, 2, 5, 0.0) == pytest.approx(32 * math.log2(5), rel=1e-12)

    def test_hand_evaluation_with_entropy(self):
        x = 0.02
        h3 = (x * math.log2(2) - x * math.log2(x) - (1 - x) * math.log2(1 - x)) / math.log2(3)
        expected = 2 * (1 - h3) * math.log2(3)
        assert al.achievable_rate(2, 1, 3, 0.01) == pytest.approx(expected, rel=1e-12)

    def test_epsilon_domain(self):
        with pytest.raises(InvalidArgumentError):
            al.achievable_rate(2, 1, 3, 0.3)

    def test_ratio_increases_toward_limit(self):
        limit = 2 / 17
        primes = [3, 11, 101, 1009, 10007]
        ratios = [al.rate_power_ratio(2, 1, p) for p in primes]
        assert all(a < b for a, b in zip(ratios, ratios[1:]))
        assert all(r < limit for r in ratios)
        assert ratios[-1] > 0.9 * limit


class TestDemodFuzz:
    def test_mitm_equals_exhaustive_on_adversarial_instances(self):
        rng = np.random.default_rng(42)
        for trial in range(40):
            k = 2
            n_groups = int(rng.integers(1, 4))
            values = rng.choice([0.5, 1.0, 1.5, 2.0, 2.7], size=n_groups)
            groups = [
                al.EquationGroup((i,), float(v), [(0, i)] * 1)
                for i, v in enumerate(values)
            ]
            p = int(rng.choice([3, 5]))
            y = rng.uniform(-2.0, 8.0, size=20)
            # mix in exact signal points and exact midpoints to force ties
            y[0] = values[0] * 2.0
            y[1] = values[0] * 0.5
            ex = al.ml_demodulate(y, groups, p, 1.0, strategy="exhaustive")
            mm = al.ml_demodulate(y, groups, p, 1.0, strategy="mitm")
            assert np.array_equal(ex, mm), (trial, values, p)
