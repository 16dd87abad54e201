import dataclasses
import functools
import math
import tracemalloc

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


def one_signature_map(H, values, p):
    """K=2 map: transmitter 0 sends row i on symbol power i + 1; transmitter 1 is silent.

    No gain contributes an exponent, so each receiver hears transmitter 0's
    rows as they are, scaled by its gain.
    """
    n = len(values)
    return al.SignatureMap(
        H,
        np.zeros((2, 2, 1), dtype=np.int64),
        [np.arange(1, n + 1, dtype=np.int64).reshape(n, 1), np.zeros((0, 1), dtype=np.int64)],
        [np.array(values, dtype=float), np.zeros(0)],
        p=p,
    )


def filtered_g_l(H, L):
    """G_L read off G_{L+1}, in exponent order: the oracle of ``canonical_signature``'s rows.

    The G_{L+1} monomials with no exponent equal to L, lexsorted by exponent
    tuple. Square-and-multiply skips zero high bits, so their values are
    those of a G_L build, bit for bit.
    """
    big = dio.build_monomial_set(H, L + 1)
    small = (big.exponents < L).all(axis=1)
    exps, vals = big.exponents[small], big.values[small]
    order = np.lexsort(exps.T[::-1])
    return exps[order], vals[order]


def worstcase_signature(H, L, p):
    """The canonical map at the worst-case B that ``caf align`` sets for ``scaling_mode=worstcase``."""
    sig = al.canonical_signature(H, L, p)
    sig.scaling = al._worstcase_scaling(sig.k, L, p)
    return sig


def tight_signature(sig, c5=1.0):
    """``sig`` at the tight B that ``caf align`` sets from the derived equation system."""
    sig.scaling = al.tight_scaling_factor(al.derive_equation_system(sig), c5)
    return sig


class TestCanonicalSignature:
    def test_constructors_return_unit_scaling(self):
        assert al.canonical_signature(H_GENERIC, 1, 3).scaling == 1.0
        assert al.example_signature(H_EXAMPLE, p=5).scaling == 1.0

    def test_k2_l1_worstcase_scaling(self):
        sig = worstcase_signature(H_GENERIC, 1, 3)
        assert [len(v) for v in sig.values] == [1, 1]
        assert sig.scaling == float(6**16)

    def test_k2_l1_signature_is_one(self):
        sig = al.canonical_signature(H_GENERIC, 1, 3)
        for exps, vals in zip(sig.exponents, sig.values):
            assert vals.tolist() == [1.0]
            assert exps.tolist() == [[0, 0, 0, 0]]

    def test_k2_l2_sixteen_submessages(self):
        sig = al.canonical_signature(H_GENERIC, 2, 3)
        assert [len(v) for v in sig.values] == [16, 16]
        assert [e.shape for e in sig.exponents] == [(16, 4), (16, 4)]

    def test_rejects_non_generic(self):
        with pytest.raises(NonGenericChannelError):
            al.canonical_signature(np.ones((2, 2)), 1, 3)

    def test_rejects_composite_p(self):
        with pytest.raises(InvalidArgumentError, match="6 is not prime"):
            al.canonical_signature(H_GENERIC, 1, 6)

    def test_rejects_bad_l(self):
        for L in (0, -1):
            with pytest.raises(InvalidArgumentError, match="degree bound L must be >= 1"):
                al.canonical_signature(H_GENERIC, L, 5)

    @pytest.mark.parametrize("k, L", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
    def test_submessages_are_g_l_bit_for_bit(self, k, L):
        # G_L is read off G_{L+1}; it must equal a direct build of G_L
        H = np.random.default_rng(60 + 10 * k + L).uniform(0.5, 2.0, size=(k, k))
        sig = al.canonical_signature(H, L, 5)
        direct = dio.build_monomial_set(H, L)
        order = np.lexsort(direct.exponents.T[::-1])
        assert len(sig.exponents) == len(sig.values) == k
        for exps, vals in zip(sig.exponents, sig.values):
            assert exps.dtype == np.int64 and vals.dtype == np.float64
            assert np.array_equal(exps, direct.exponents[order])
            assert np.array_equal(vals.view(np.uint64), direct.values[order].view(np.uint64))

    @pytest.mark.parametrize("k, L", [(1, 4), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
    def test_submessages_equal_the_filtered_g_l_plus_1(self, k, L):
        H = np.random.default_rng(70 + 10 * k + L).uniform(0.5, 2.0, size=(k, k))
        want_exps, want_vals = filtered_g_l(H, L)
        sig = al.canonical_signature(H, L, 3)
        for exps, vals in zip(sig.exponents, sig.values):
            assert exps.dtype == want_exps.dtype and np.array_equal(exps, want_exps)
            assert np.array_equal(vals.view(np.uint64), want_vals.view(np.uint64))

    def test_one_monomial_set_build_per_signature(self, monkeypatch):
        # G_{L+1} feeds the genericity check; G_L is not built as a set of its own
        built = []
        real = dio.build_monomial_set
        monkeypatch.setattr(dio, "build_monomial_set", lambda H, L: built.append(L) or real(H, L))
        al.canonical_signature(H_GENERIC, 2, 5)
        assert built == [3]


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

    def test_negative_gain_collision_rejected(self):
        # h1 = -1 makes h1^2 = h1^0; an ordering by magnitude interleaves the signs
        with pytest.raises(NonGenericChannelError):
            al.example_signature(np.array([[1.0, 0.7], [-1.0, 1.0]]), p=5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gains_rejected(self, bad):
        for H in ([[1.0, bad], [0.5, 1.0]], [[1.0, 0.5], [bad, 1.0]]):
            with pytest.raises(InvalidArgumentError, match="finite"):
                al.example_signature(np.array(H), p=5)

    def test_requires_unit_diagonal(self):
        with pytest.raises(InvalidArgumentError):
            al.example_signature(H_GENERIC, p=5)


class TestEquationSystem:
    def test_canonical_k2_l1_groups(self):
        sig = al.canonical_signature(H_GENERIC, 1, 3)
        eq = al.derive_equation_system(sig)
        for m in range(2):
            values = sorted(g.value for g in eq.receivers[m])
            assert values == sorted(H_GENERIC[m])
            for g in eq.receivers[m]:
                assert len(g.contributors) == 1

    def test_canonical_k2_l2_group_bounds(self):
        sig = al.canonical_signature(H_GENERIC, 2, 5)
        eq = al.derive_equation_system(sig)
        for m in range(2):
            assert len(eq.receivers[m]) <= 32
            total_pairs = sum(len(g.contributors) for g in eq.receivers[m])
            assert total_pairs == 32  # every submessage heard exactly once
            assert all(len(g.contributors) <= 2 for g in eq.receivers[m])

    def test_colliding_receive_values_rejected(self):
        # evaluated at a channel other than the signature's, receiver 0 hears
        # h1^2 h2 / h1 on one group and h1 h2 on another
        sig = al.example_signature(H_EXAMPLE, p=5)
        H = np.array([[1.0, 1.0 / 1.3], [1.3, 1.0]])
        with pytest.raises(NonGenericChannelError, match="receiver 0"):
            al.derive_equation_system(dataclasses.replace(sig, h=H))

    def test_alignment_occurs_at_l2(self):
        # some group must fuse two transmitters, otherwise nothing aligned
        sig = al.canonical_signature(H_GENERIC, 2, 5)
        eq = al.derive_equation_system(sig)
        assert any(len(g.contributors) == 2 for rx in eq.receivers for g in rx)


def loop_derive_equations(sig):
    """Reference: dict grouping by receive exponent tuple, one EquationGroup per group."""
    receivers = []
    for m in range(sig.k):
        groups = {}
        for kk in range(sig.k):
            gexp = sig.gain_exponents[m][kk].tolist()
            rows = zip(sig.exponents[kk].tolist(), sig.values[kk].tolist())
            for i, (exps, value) in enumerate(rows):
                if len(exps) != len(gexp):
                    raise InvalidArgumentError("signature alphabet mismatch")
                key = tuple(a + b for a, b in zip(exps, gexp))
                entry = groups.setdefault(key, [value * sig.h[m, kk], []])
                entry[1].append((kk, i))
        ordered = [
            al.EquationGroup(key, val, sorted(contrib))
            for key, (val, contrib) in sorted(groups.items(), key=lambda kv: (kv[1][0], kv[0]))
        ]
        if not dio.check_unique_factorization([g.value for g in ordered]):
            raise NonGenericChannelError(f"receive monomials collide at receiver {m}; resample H")
        receivers.append(ordered)
    return receivers


@functools.cache
def _equation_cases():
    cases = []
    rng = np.random.default_rng(21)
    for k, L in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]:
        found = 0
        while found < 2:
            H = rng.uniform(0.5, 2.0, size=(k, k))
            try:
                sig = al.canonical_signature(H, L, 3)
            except NonGenericChannelError:
                continue
            found += 1
            cases.append(sig)
    for h1, h2 in [(1.3, 0.8), (0.61, 1.77), (1.9, 0.52)]:
        H = np.array([[1.0, h2], [h1, 1.0]])
        cases.append(al.example_signature(H, p=5))
    # transmitter 1 silent: an empty (0, symbols) signature
    cases.append(one_signature_map(H_GENERIC, [1.37, 1.37**2], p=5))
    return cases


class TestEquationSystemAgainstLoop:
    """The array derivation reproduces the dict grouping bit for bit."""

    @pytest.mark.parametrize("case", range(14))
    def test_rows_values_and_contributors(self, case):
        sig = _equation_cases()[case]
        eq = al.derive_equation_system(sig)
        want = loop_derive_equations(sig)
        assert eq.k == len(want) == sig.k
        rows = 0
        for m, groups in enumerate(want):
            assert eq.exponents[m].dtype == np.int64 and eq.values[m].dtype == np.float64
            assert [tuple(e) for e in eq.exponents[m].tolist()] == [g.exponents for g in groups]
            bits = np.array([g.value for g in groups]).view(np.uint64)
            assert np.array_equal(eq.values[m].view(np.uint64), bits)
            assert [g.contributors for g in eq.receivers[m]] == [g.contributors for g in groups]
            assert [g.exponents for g in eq.receivers[m]] == [g.exponents for g in groups]
            assert [g.value for g in eq.receivers[m]] == [g.value for g in groups]
            rows += len(groups)
        assert np.all(np.diff(eq.rows * len(eq.col_keys) + eq.cols) > 0)
        assert eq.rows[-1] == rows - 1
        pairs = sorted({c for groups in want for g in groups for c in g.contributors})
        assert list(map(tuple, eq.col_keys.tolist())) == pairs

    @pytest.mark.parametrize("case", range(14))
    def test_true_equations_are_group_sums(self, case):
        sig = _equation_cases()[case]
        eq = al.derive_equation_system(sig)
        rng = np.random.default_rng(case)
        for shape in ((), (3,), (2, 4)):
            w = [rng.integers(0, sig.p, size=(len(v), *shape)) for v in sig.values]
            got = al.true_equations(w, eq)
            for m, groups in enumerate(loop_derive_equations(sig)):
                want = np.stack([sum(w[kk][i] for kk, i in g.contributors) for g in groups])
                assert got[m].dtype == np.int64 and np.array_equal(got[m], want)

    def test_alphabet_mismatch(self):
        sig = al.example_signature(H_EXAMPLE, p=5)
        sig.exponents[1] = np.array([[1, 0, 0], [2, 1, 0]], dtype=np.int64)
        for derive in (al.derive_equation_system, loop_derive_equations):
            with pytest.raises(InvalidArgumentError, match="alphabet"):
                derive(sig)


class TestModulate:
    def test_zero_submessages(self):
        sig = al.example_signature(H_EXAMPLE, p=5)
        x = al.modulate([np.zeros(2, dtype=int), np.zeros(2, dtype=int)], sig)
        assert not x.any()

    def test_k2_l1_scalar_signature(self):
        sig = worstcase_signature(H_GENERIC, 1, 3)
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
        t = al.true_equations([np.zeros(2, dtype=int)] * 2, eq)
        assert not any(v.any() for v in t)

    def test_example_equations(self):
        sig = al.example_signature(H_EXAMPLE, p=5)
        eq = al.derive_equation_system(sig)
        a, b, c, d = 1, 2, 3, 4
        t = al.true_equations([[a, b], [c, d]], eq)
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
            t = al.true_equations(w, eq)
            for m in range(2):
                recon = sig.scaling * sum(
                    int(v) * g.value for v, g in zip(t[m], eq.receivers[m])
                )
                assert y[m] == pytest.approx(recon, rel=1e-12)

    def test_value_ranges(self):
        sig = al.example_signature(H_EXAMPLE, p=5)
        eq = al.derive_equation_system(sig)
        rng = np.random.default_rng(2)
        for _ in range(100):
            w = [rng.integers(0, 5, size=2) for _ in range(2)]
            for m, vals in enumerate(al.true_equations(w, eq)):
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
        truth = al.true_equations(w, eq)
        for m in range(2):
            hat = al.ml_demodulate(y[m], eq.receivers[m], 3, sig.scaling)
            assert np.array_equal(hat, truth[m])

    def test_single_group_reduces_to_rounding(self):
        # second transmitter silent: each receiver hears one signature only
        g = 1.37
        sig = one_signature_map(H_EXAMPLE, [g], p=5)
        eq = al.derive_equation_system(sig)
        for y in (-3.0, 0.2, 1.9, 3.3, 9.9):
            hat = al.ml_demodulate(np.array([y]), eq.receivers[0], 5, sig.scaling)
            expected = min(max(round(y / (H_EXAMPLE[0, 0] * g)), 0), 4)
            assert hat[0, 0] == expected

    def test_midpoint_tie_prefers_lexicographic(self):
        g = 2.0
        sig = one_signature_map(np.array([[1.0, 0.0], [0.0, 1.0]]), [g], p=5)
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
        sig = one_signature_map(np.array([[1.0, 0.0], [0.0, 1.0]]), [g], p=5)
        eq = al.derive_equation_system(sig)
        y = np.array([3.0, 5.0, 7.0])
        ex = al.ml_demodulate(y, eq.receivers[0], 5, sig.scaling, strategy="exhaustive")
        mm = al.ml_demodulate(y, eq.receivers[0], 5, sig.scaling, strategy="mitm")
        assert np.array_equal(ex, mm)

    def test_oracle_is_not_a_demod_strategy(self):
        # caf align bypasses demodulation itself; the demodulator has no oracle
        sig = al.example_signature(H_EXAMPLE, p=3)
        eq = al.derive_equation_system(sig)
        with pytest.raises(InvalidArgumentError, match="unknown demod strategy 'oracle'"):
            al.ml_demodulate(np.array([0.0]), eq.receivers[0], 3, sig.scaling, strategy="oracle")

    def test_budget_names_escape_hatch(self):
        sig = al.canonical_signature(H_GENERIC, 2, 5)
        eq = al.derive_equation_system(sig)
        with pytest.raises(ResourceLimitError, match="oracle"):
            al.ml_demodulate(np.array([0.0]), eq.receivers[0], 5, 1.0, budget=100)


class TestWorstCaseModeContainment:
    def test_demod_exact_when_noise_below_half_min_distance(self):
        sig = worstcase_signature(H_GENERIC, 1, 3)
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
        truth = al.true_equations(w, eq)
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
        sig = worstcase_signature(H_GENERIC, 1, 3)
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
            sig = tight_signature(al.canonical_signature(H_GENERIC, 1, p), 1.2)
            eq = al.derive_equation_system(sig)
            sep = math.inf
            for m in range(2):
                vals = [g.value for g in eq.receivers[m]]
                ranges = [len(g.contributors) * (p - 1) for g in eq.receivers[m]]
                sep = min(sep, dio.monomial_separation(vals, ranges, integer_shift=False))
            assert sig.scaling * sep / 2 == pytest.approx(1.2 * math.sqrt(p), rel=1e-12)

    @pytest.mark.parametrize("p", [2, 3])
    def test_fused_groups_widen_the_coefficient_range(self, p):
        # the example fuses two submessages per group at receiver 1, whose
        # equation values then range over [0, 2 (p-1)]; on this channel the
        # minimum distance needs that wider range (with [0, p-1] on every
        # group it would be 3.0x / 3.2x larger at p = 2 / 3)
        H = np.array([[1.0, 1.6], [1.4, 1.0]])
        sig = tight_signature(al.example_signature(H, p=p), 1.2)
        eq = al.derive_equation_system(sig)
        sep = math.inf
        for groups in eq.receivers:
            vals = [g.value for g in groups]
            ranges = [len(g.contributors) * (p - 1) for g in groups]
            sep = min(sep, dio.monomial_separation(vals, ranges, integer_shift=False))
        assert max(len(g.contributors) for g in eq.receivers[1]) == 2
        assert sig.scaling * sep / 2 == pytest.approx(1.2 * math.sqrt(p), rel=1e-12)

    @pytest.mark.parametrize("c5", [0.0, -1.0, math.nan, math.inf])
    def test_bad_c5_rejected(self, c5):
        eq = al.derive_equation_system(al.canonical_signature(H_GENERIC, 1, 3))
        with pytest.raises(InvalidArgumentError, match="c5 must be finite and > 0"):
            al.tight_scaling_factor(eq, c5)


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


def loop_mitm(y_m, groups, p, scaling):
    """The original per-symbol, per-left-index MITM loop, kept as the oracle."""
    y = np.atleast_1d(np.asarray(y_m, dtype=float))
    limits = [len(g.contributors) * (p - 1) for g in groups]
    values = np.array([g.value for g in groups])
    nl = len(limits) // 2
    left = al._candidate_tuples(limits[:nl]) if nl else np.zeros((1, 0), dtype=np.int64)
    right = al._candidate_tuples(limits[nl:])
    wl = scaling * (left @ values[:nl]) if nl else np.zeros(1)
    wr = scaling * (right @ values[nl:])
    order = np.argsort(wr, kind="stable")
    swr = wr[order]
    out = np.empty((len(limits), y.size), dtype=np.int64)
    for t, yt in enumerate(y):
        best = (math.inf, math.inf, math.inf)  # (dist, left idx, right idx)
        for i in range(len(wl)):
            target = yt - wl[i]
            j = int(np.searchsorted(swr, target))
            for jj in range(max(0, j - 2), min(len(swr), j + 3)):
                # walk to the first of an equal-value run for the lex tie-break
                first = jj
                while first > 0 and swr[first - 1] == swr[jj]:
                    first -= 1
                for pos in (first, jj):
                    d = abs(yt - (wl[i] + swr[pos]))
                    cand = (d, i, int(order[pos]))
                    if cand < best:
                        best = cand
        out[:, t] = np.concatenate([left[best[1]], right[best[2]]])
    return out[:, 0] if np.ndim(y_m) == 0 else out


def _groups(values, contributors):
    return [
        al.EquationGroup((i,), float(v), [(0, i)] * c)
        for i, (v, c) in enumerate(zip(values, contributors))
    ]


def _signal_points_and_midpoints(groups, p, scaling):
    limits = [len(g.contributors) * (p - 1) for g in groups]
    values = np.array([g.value for g in groups])
    points = np.unique(scaling * (al._candidate_tuples(limits) @ values))
    return np.concatenate([points, (points[1:] + points[:-1]) / 2])


def assert_all_demods_agree(y, groups, p, scaling):
    ref = loop_mitm(y, groups, p, scaling)
    mm = al.ml_demodulate(y, groups, p, scaling, strategy="mitm")
    ex = al.ml_demodulate(y, groups, p, scaling, strategy="exhaustive")
    assert mm.dtype == ex.dtype == np.int64
    assert mm.shape == ex.shape == ref.shape
    assert np.array_equal(mm, ref)
    assert np.array_equal(ex, ref)


class TestDemodAgainstLoop:
    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_canonical_l1_tight_noisy(self, p):
        rng = np.random.default_rng(100 + p)
        H = rng.uniform(0.5, 2.0, size=(2, 2))
        sig = tight_signature(al.canonical_signature(H, 1, p))
        eq = al.derive_equation_system(sig)
        w = [rng.integers(0, p, size=(1, 4500)) for _ in range(2)]
        y = al.awgn_channel(al.modulate(w, sig), H, rng, noise_variance=1.0)
        for m in range(2):
            assert_all_demods_agree(y[m], eq.receivers[m], p, sig.scaling)

    def test_two_user_example(self):
        rng = np.random.default_rng(7)
        sig = tight_signature(al.example_signature(H_EXAMPLE, p=5))
        eq = al.derive_equation_system(sig)
        w = [rng.integers(0, 5, size=(2, 600)) for _ in range(2)]
        y = al.awgn_channel(al.modulate(w, sig), H_EXAMPLE, rng, noise_variance=1.0)
        assert max(len(g.contributors) for g in eq.receivers[0]) == 2
        for m in range(2):
            assert_all_demods_agree(y[m], eq.receivers[m], 5, sig.scaling)

    @pytest.mark.parametrize("values, contributors", [
        ([1.0, 1.0], [1, 1]),
        ([1.0, 2.0, 1.0], [2, 1, 3]),
        ([0.5, 1.5, 1.5], [3, 3, 1]),
        ([2.0, 0.5, 1.0], [1, 2, 2]),
        ([1.5], [3]),
    ])
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_equal_value_runs_at_points_and_midpoints(self, values, contributors, p):
        groups = _groups(values, contributors)
        y = _signal_points_and_midpoints(groups, p, 1.0)
        y = np.concatenate([y, y[::-1] + 1e-12, [-3.0, 1e3]])
        assert_all_demods_agree(y, groups, p, 1.0)

    def test_magnitudes_where_rounding_decides(self):
        # near 2^53 the spacing of floats is a few units, so which probe of
        # the j-2 .. j+2 window wins is decided by rounding; exhaustive may
        # then pick a point outside the window, so only the loop is compared
        rng = np.random.default_rng(10)
        for _ in range(200):
            big = float(2.0 ** rng.integers(50, 56))
            values = [big * rng.uniform(0.5, 2.0), 1.0 + rng.integers(0, 4) * 0.25,
                      rng.uniform(0.5, 3.0)]
            n_groups = int(rng.integers(2, 4))
            groups = _groups(values[:n_groups], [1] * n_groups)
            p = int(rng.choice([3, 5]))
            points = _signal_points_and_midpoints(groups, p, 1.0)
            y = np.concatenate([
                points + rng.integers(-8, 9, size=points.size) * np.spacing(points),
                rng.uniform(points.min(), points.max(), size=50),
            ])
            mm = al.ml_demodulate(y, groups, p, 1.0, strategy="mitm")
            assert np.array_equal(mm, loop_mitm(y, groups, p, 1.0)), (values, p)

    def test_zero_d_and_empty_input(self):
        groups = _groups([1.0, 2.0, 1.0], [1, 2, 1])
        for y in (np.float64(2.5), 2.5, np.array(7.0)):
            ref = loop_mitm(y, groups, 3, 1.0)
            assert ref.shape == (3,)
            for strategy in ("exhaustive", "mitm"):
                assert np.array_equal(al.ml_demodulate(y, groups, 3, 1.0, strategy=strategy), ref)
        for strategy in ("exhaustive", "mitm"):
            out = al.ml_demodulate(np.zeros(0), groups, 3, 1.0, strategy=strategy)
            assert out.shape == (3, 0) and out.dtype == np.int64

    def test_one_symbol_per_chunk(self, monkeypatch):
        rng = np.random.default_rng(8)
        groups = _groups([1.0, 1.5, 2.0], [2, 1, 1])
        y = np.concatenate([_signal_points_and_midpoints(groups, 5, 1.0),
                            rng.uniform(-2.0, 25.0, size=300)])
        full = {s: al.ml_demodulate(y, groups, 5, 1.0, strategy=s) for s in ("exhaustive", "mitm")}
        monkeypatch.setattr(al, "DEMOD_CHUNK_CELLS", 1)
        for strategy, ref in full.items():
            assert np.array_equal(al.ml_demodulate(y, groups, 5, 1.0, strategy=strategy), ref)
        assert np.array_equal(full["mitm"], full["exhaustive"])

    @pytest.mark.parametrize("strategy", ["exhaustive", "mitm"])
    @pytest.mark.parametrize("y, scaling", [
        ([0.0, math.nan], 1.0),
        ([math.inf], 1.0),
        ([1.0, -math.inf], 1.0),
        ([1.0], math.nan),
        ([1.0], math.inf),
        (math.nan, 1.0),
    ])
    def test_non_finite_input_rejected(self, strategy, y, scaling):
        groups = _groups([1.0, 2.0], [1, 1])
        with pytest.raises(InvalidArgumentError, match="finite"):
            al.ml_demodulate(y, groups, 3, scaling, strategy=strategy)

    @pytest.mark.parametrize("strategy", ["exhaustive", "mitm"])
    def test_memory_bounded_by_chunks(self, strategy):
        # 15,000 symbols x 961 candidates: the unchunked distance matrix and
        # its abs() were 2 x 110 MiB; the chunked search stays under 16 MiB
        groups = _groups([1.0, math.sqrt(2.0)], [1, 1])
        y = np.random.default_rng(9).uniform(-1.0, 75.0, size=15_000)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out = al.ml_demodulate(y, groups, 31, 1.0, strategy=strategy)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert out.shape == (2, 15_000)
        assert peak < 16 * 2**20, peak
