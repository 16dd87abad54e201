import itertools
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from caf import rates
from caf.errors import InvalidArgumentError, NumericRangeError, ResourceLimitError


def exact_loss(h, power, a):
    """Independent loss evaluation in exact rational arithmetic."""
    h = [Fraction(float(x)) for x in h]
    a = [Fraction(int(x)) for x in a]
    P = Fraction(float(power))
    n2 = sum(x * x for x in a)
    hn2 = sum(x * x for x in h)
    dot = sum(x * y for x, y in zip(h, a))
    return n2 + P * (hn2 * n2 - dot * dot)


def numpy_mu_r(basis, h, power, hn2):
    """(mu, r) of the loss form on the rows of ``basis``, through numpy's Cholesky."""
    basis = np.asarray(basis, dtype=float)
    inner, dots = basis @ basis.T, basis @ h
    L = np.linalg.cholesky(inner + power * (hn2 * inner - np.outer(dots, dots)))
    return (L / np.diag(L)).tolist(), (np.diag(L) ** 2).tolist()


def numpy_lll(h, power, hn2):
    """The numpy-Cholesky LLL reduction: the oracle of the scalar ``rates._lll``.

    The basis is a float array, and the whole factorisation is redone after
    every size reduction and swap.
    """
    k = h.size
    basis = np.eye(k)
    i = 1
    while True:
        mu, r = numpy_mu_r(basis, h, power, hn2)
        if i == k:
            return basis.astype(int).tolist(), mu, r
        for j in range(i - 1, -1, -1):
            q = round(mu[i][j])
            basis[i] -= q * basis[j]
            mu[i] = [x - q * y for x, y in zip(mu[i], mu[j])]
        if r[i] >= (0.99 - mu[i][i - 1] ** 2) * r[i - 1]:
            i += 1
        else:
            basis[[i - 1, i]] = basis[[i, i - 1]]
            i = max(i - 1, 1)


NAN, INF = math.nan, math.inf
POWER_MSG = "power must be positive and finite"
# the same literal messages, in the same order of checks, as the numpy
# validation that the Python-float checks replaced
BAD_POWERS = ([pytest.param(p, id=f"float{p}") for p in (0.0, -1.0, NAN, INF)]
              + [pytest.param(np.array(p), id=f"0d{p}") for p in (0.0, -1.0, NAN, INF)]
              + [pytest.param(0, id="int0"), pytest.param(-1, id="int-1")])
VEC_FUNCTIONS = [rates.loss_term, rates.lattice_rate_single, rates.loss_tradeoff_check]
VEC_CASES = [
    pytest.param([NAN, 1.0], 1.0, [1, 0], "h must be finite", id="nan-h"),
    pytest.param([1.0, INF], 1.0, [1, 0], "h must be finite", id="inf-h"),
    pytest.param(np.array([-INF, 1.0]), 1.0, np.array([1, 0]), "h must be finite", id="-inf-h-array"),
    pytest.param([1.0, 0.5], 1.0, [1, 1, 0], "h and a must have the same length", id="shape"),
    pytest.param([1.0, 0.5], 1.0, [0, 0], "coefficient vector must be nonzero", id="zero-a"),
    pytest.param([1, 2], 10, np.zeros(2, dtype=int), "coefficient vector must be nonzero", id="zero-a-ints"),
    pytest.param([NAN, 1], 0, [0, 0], "h must be finite", id="h-before-power"),
    pytest.param([1, 1], 0, [0], POWER_MSG, id="power-before-shape"),
    pytest.param([1, 1], 1, [0], "h and a must have the same length", id="shape-before-zero-a"),
]
SEARCH_FUNCTIONS = [rates.best_coefficient_vector,
                    lambda h, power, **kw: rates.top_coefficient_vectors(h, power, 4, **kw)]
SEARCH_CASES = [
    pytest.param([NAN, 1.0], 1.0, "auto", "h must be finite", id="nan-h"),
    pytest.param([1.0, INF], 1.0, "exhaustive", "h must be finite", id="inf-h"),
    pytest.param(np.array([-INF, 1.0]), 1.0, "auto", "h must be finite", id="-inf-h-array"),
    pytest.param([0, 0], 10, "auto", "channel row must be nonzero", id="zero-h"),
    pytest.param([0, 0], 10, "exhaustive", "channel row must be nonzero", id="zero-h-exhaustive"),
    pytest.param([1, 1], 10, "fast", "unknown search mode 'fast'", id="bad-mode"),
    pytest.param([NAN, 1], 0, "auto", "h must be finite", id="h-before-power"),
    pytest.param([1, 1], 0, "fast", POWER_MSG, id="power-before-mode"),
]


# 0: every search takes the _enumerate walk; the default: a box up to the cap
BOX_CAPS = (0, rates._BOX_CAP)


@pytest.fixture
def each_box_cap(monkeypatch):
    """Iterate over ``BOX_CAPS`` with ``rates._BOX_CAP`` set to each in turn.

    The test loops in its body, so one test id covers the box and its walk oracle.
    """
    def caps():
        for cap in BOX_CAPS:
            monkeypatch.setattr(rates, "_BOX_CAP", cap)
            yield cap
    return caps


def raised(call):
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


class TestInputChecks:
    @pytest.mark.parametrize("fn", VEC_FUNCTIONS, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("h, power, a, msg", VEC_CASES)
    def test_vector_inputs(self, fn, h, power, a, msg):
        assert raised(lambda: fn(h, power, a)) == (InvalidArgumentError, msg)

    @pytest.mark.parametrize("fn", VEC_FUNCTIONS, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("power", BAD_POWERS)
    def test_vector_power(self, fn, power):
        assert raised(lambda: fn([1.0, 0.5], power, [1, 1])) == (InvalidArgumentError, POWER_MSG)

    @pytest.mark.parametrize("fn", SEARCH_FUNCTIONS, ids=["best", "top"])
    @pytest.mark.parametrize("h, power, mode, msg", SEARCH_CASES)
    def test_search_inputs(self, fn, h, power, mode, msg):
        assert raised(lambda: fn(h, power, mode=mode)) == (InvalidArgumentError, msg)

    @pytest.mark.parametrize("fn", SEARCH_FUNCTIONS, ids=["best", "top"])
    @pytest.mark.parametrize("mode", ["auto", "exhaustive"])
    @pytest.mark.parametrize("power", BAD_POWERS)
    def test_search_power(self, fn, mode, power):
        assert raised(lambda: fn([1.0, 0.5], power, mode=mode)) == (InvalidArgumentError, POWER_MSG)


class TestLossTerm:
    def test_collinear_any_power(self):
        for P in (1.0, 10.0, 1e6):
            assert rates.loss_term([1, 2], P, [2, 4]) == 20.0

    def test_hand_values(self):
        assert rates.loss_term([1, 2], 10.0, [1, 2]) == 5.0
        assert rates.loss_term([1, 1], 1.0, [1, -1]) == 6.0

    def test_always_at_least_norm(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            k = rng.integers(2, 5)
            h = rng.normal(size=k)
            a = rng.integers(-6, 7, size=k)
            if not a.any():
                a[0] = 1
            P = float(10 ** rng.uniform(-1, 6))
            assert rates.loss_term(h, P, a) >= float(a @ a) * (1 - 1e-12)

    def test_equality_iff_collinear_exact_rational(self):
        # h rational and a an exact integer multiple: equality is exact
        assert rates.loss_term([0.5, 0.25], 123.0, [2, 1]) == 5.0
        # non-collinear: strict inequality
        assert rates.loss_term([0.5, 0.25], 123.0, [1, 1]) > 2.0

    def test_rejects_zero_vector_and_nonfinite(self):
        with pytest.raises(InvalidArgumentError):
            rates.loss_term([1, 2], 1.0, [0, 0])
        with pytest.raises(InvalidArgumentError):
            rates.loss_term([np.inf, 2], 1.0, [1, 0])


class TestLatticeRateSingle:
    def test_known_collinear_integer_case(self):
        expected = 0.5 * math.log2(51) - 0.5 * math.log2(5)
        assert rates.lattice_rate_single([1, 2], 10.0, [1, 2]) == pytest.approx(expected, abs=1e-12)

    def test_unit_norm_collinear(self):
        for P in (1.0, 10.0, 1e4):
            assert rates.lattice_rate_single([1, 0], P, [1, 0]) == pytest.approx(
                0.5 * math.log2(1 + P), abs=1e-12
            )

    def test_matches_exact_rational_reevaluation(self):
        h, P, a = [1.0, 0.7], 100.0, [1, 1]
        loss = exact_loss(h, P, a)
        expected = max(0.0, 0.5 * math.log2(1 + P * float(Fraction(1) + Fraction(0.7) ** 2)) - 0.5 * math.log2(float(loss)))
        assert rates.lattice_rate_single(h, P, a) == pytest.approx(expected, rel=1e-12)

    def test_clamped_at_zero(self):
        # a wildly misaligned with h drives the expression negative
        assert rates.lattice_rate_single([1.0, 0.01], 10.0, [0, 7]) == 0.0

    def test_sign_and_permutation_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            k = int(rng.integers(2, 5))
            h = rng.normal(size=k)
            a = rng.integers(-4, 5, size=k)
            if not a.any():
                a[0] = 2
            P = float(10 ** rng.uniform(0, 4))
            r = rates.lattice_rate_single(h, P, a)
            assert rates.lattice_rate_single(h, P, -a) == r
            perm = rng.permutation(k)
            assert rates.lattice_rate_single(h[perm], P, a[perm]) == pytest.approx(r, abs=1e-12)


def exhaustive_oracle(h, power):
    """Independent exhaustive argmax with a different iteration order."""
    h = np.asarray(h, dtype=float)
    bound = np.ceil(float(h @ h) * power)
    amax = int(np.floor(np.sqrt(bound)))
    axes = [np.arange(amax, -amax - 1, -1)] * h.size  # reversed iteration
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, h.size)
    n2 = np.einsum("ij,ij->i", grid, grid)
    grid = grid[(n2 >= 1) & (n2 <= bound)]
    n2 = np.einsum("ij,ij->i", grid, grid)
    dot = grid @ h
    loss = n2 + power * ((h @ h) * n2 - dot * dot)
    best = np.min(loss)
    tied = grid[loss == best]
    fixed = []
    for a in tied:
        nz = np.nonzero(a)[0]
        fixed.append(tuple(-a) if a[nz[0]] < 0 else tuple(a))
    winner = min(fixed, key=lambda t: (sum(x * x for x in t), t))
    rate = max(0.0, 0.5 * np.log2(1 + power * float(h @ h)) - 0.5 * np.log2(best))
    return np.array(winner), float(rate)


class TestBestCoefficientVector:
    def test_symmetric_channel(self):
        a, rate = rates.best_coefficient_vector([1, 1], 10.0)
        assert list(a) == [1, 1]
        assert rate == pytest.approx(0.5 * math.log2(21) - 0.5 * math.log2(2), abs=1e-12)

    def test_degenerate_second_path(self):
        for P in (2.0, 100.0):
            a, _ = rates.best_coefficient_vector([1, 0], P)
            assert list(a) == [1, 0]

    def test_matches_independent_oracle_golden(self):
        h = [1.0, 0.618034]
        a, rate = rates.best_coefficient_vector(h, 1e4)
        a2, rate2 = exhaustive_oracle(h, 1e4)
        assert list(a) == list(a2)
        assert rate == pytest.approx(rate2, abs=0)

    def test_rate_is_the_single_rate_of_the_winner_unchecked(self):
        # the search has checked h and power; the winner's score must not check them again
        rng = np.random.default_rng(12)
        cases = [([1, 2], 10), ([0.5, -1.5, 0.25], np.float64(300.0)), ([2.0], np.array(7.5))]
        cases += [(list(rng.uniform(-2, 2, size=k)), float(10 ** rng.uniform(0, 4)))
                  for k in (1, 2, 3, 4) for _ in range(5)]
        for h, P in cases:
            with mock.patch.object(rates, "_check_vec", side_effect=AssertionError):
                a, rate = rates.best_coefficient_vector(h, P)
            assert rate == rates.lattice_rate_single(h, P, a)

    def test_reduced_equals_exhaustive(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            h = rng.uniform(-2, 2, size=2)
            if abs(h).max() < 1e-3:
                continue
            P = float(10 ** rng.uniform(0.5, 3.5))
            ar, rr = rates.best_coefficient_vector(h, P)
            ae, re = rates.best_coefficient_vector(h, P, mode="exhaustive")
            assert list(ar) == list(ae)
            assert rr == re

    def test_scaling_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            h = rng.uniform(0.2, 2.0, size=2)
            c = float(10 ** rng.uniform(-1, 1))
            P = float(10 ** rng.uniform(1, 3))
            a1, _ = rates.best_coefficient_vector(h, P)
            a2, _ = rates.best_coefficient_vector(c * h, P / (c * c))
            assert list(a1) == list(a2)

    def test_resource_limit_echoes_bound(self):
        with pytest.raises(ResourceLimitError, match="budget"):
            rates.best_coefficient_vector([1.0, 1.0, 1.0], 1e8, mode="exhaustive")

    def test_top_candidates_match_exhaustive_ranking(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            h = rng.uniform(0.3, 2.0, size=2)
            P = float(10 ** rng.uniform(1, 3))
            top_r = rates.top_coefficient_vectors(h, P, 8)
            top_e = rates.top_coefficient_vectors(h, P, 8, mode="exhaustive")
            assert [list(a) for a in top_r] == [list(a) for a in top_e]


def reference_sum_rate(H, power, top_n=rates.DEFAULT_TOP_N):
    """The per-combo sum-rate loop: the walk's candidates, Fraction rank check, first strict max."""
    H = np.asarray(H, dtype=float)
    k = H.shape[0]
    with mock.patch.object(rates, "_BOX_CAP", 0):  # every search walks
        cands = [rates.top_coefficient_vectors(H[m], power, top_n) for m in range(k)]
    best_rate, best_A = -1.0, None
    for combo in itertools.product(*cands):
        A = np.stack(combo)
        if rates._rank_exact(A) < k:
            continue
        r = rates.evaluate_sum_rate(H, power, A)
        if r > best_rate:
            best_rate, best_A = r, A
    if best_A is None:
        eye = np.eye(k, dtype=int)
        return eye, rates.evaluate_sum_rate(H, power, eye), True
    return best_A, best_rate, False


def _oracle_cases():
    rng = np.random.default_rng(31)
    cases = []
    for k, dbs, n_ch, top_n in ((1, (10, 30, 60), 2, 16), (2, (10, 20, 40, 60), 3, 16),
                                (3, (10, 20, 30), 1, 16)):
        for i in range(n_ch):
            H = rng.uniform(0.5, 2.0, size=(k, k))
            cases += [pytest.param(H, db, top_n, id=f"K{k}-uniform{i}-{db}dB") for db in dbs]
    # summing the three column minima in another order changes the last bit here
    H = np.random.default_rng(4).uniform(0.5, 2.0, size=(3, 3))
    cases.append(pytest.param(H, 10, 16, id="K3-uniform-order-10dB"))
    # h.a ** 2 (libm pow) and h.a * h.a differ in the last bit here, and so do the rates
    cases.append(pytest.param(np.array([[0.7872857723119473]]), 10, 16, id="K1-square-10dB"))
    # integer gains: the singular ones tie several full-rank matrices at the
    # maximum (first one wins) and reach the identity fallback at high SNR
    integer = (([[1, 2], [2, 1]], (10, 20, 40, 60), 16),
               ([[2, 1], [2, 1]], (10, 20, 40, 60), 16),
               ([[1, 1], [2, 2]], (10, 20, 40, 60), 16),
               ([[1, 2, 1], [2, 1, 1], [1, 1, 2]], (10, 20), 8),
               ([[1, 1, 2], [1, 1, 2], [2, 1, 1]], (10, 20), 8),
               ([[1, 1, 1], [1, 1, 1], [1, 2, 2]], (10, 20), 8))
    for i, (H, dbs, top_n) in enumerate(integer):
        H = np.array(H, dtype=float)
        cases += [pytest.param(H, db, top_n, id=f"K{len(H)}-integer{i}-{db}dB") for db in dbs]
    return cases


class TestLatticeSumRate:
    @pytest.mark.parametrize("H, db, top_n", _oracle_cases())
    def test_matches_reference_loop(self, H, db, top_n):
        P = float(rates.db_to_linear(db))
        ref_A, ref_rate, ref_fallback = reference_sum_rate(H, P, top_n)
        res = rates.lattice_sum_rate(H, P, top_n=top_n)
        assert res.fallback == ref_fallback
        assert np.array_equal(res.coefficients, ref_A)
        assert res.coefficients.dtype == ref_A.dtype
        assert res.rate_bits == ref_rate  # bit-identical, not approx

    @pytest.mark.parametrize("k, P, top_n, rate", [(2, 1e4, 1, 0.99992787), (3, 1e2, 2, 0.87385197)])
    def test_identity_fallback_without_full_rank_combo(self, k, P, top_n, rate):
        H = np.ones((k, k))
        res = rates.lattice_sum_rate(H, P, top_n=top_n)
        eye = np.eye(k, dtype=int)
        assert res.fallback
        assert np.array_equal(res.coefficients, eye)
        assert res.rate_bits == rates.evaluate_sum_rate(H, P, eye)
        assert res.rate_bits == pytest.approx(rate, abs=1e-8)

    def test_identity_channel(self):
        res = rates.lattice_sum_rate(np.eye(2), 10.0)
        assert np.array_equal(np.abs(res.coefficients), np.eye(2, dtype=int))
        assert res.rate_bits == pytest.approx(math.log2(11), abs=1e-12)
        assert not res.fallback

    def test_dominates_A_equals_H_for_integer_channel(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            H = rng.integers(-4, 5, size=(2, 2)).astype(float)
            if abs(np.linalg.det(H)) < 0.5 or np.any(np.all(H == 0, axis=1)):
                continue
            P = 1e6
            res = rates.lattice_sum_rate(H, P)
            assert res.rate_bits >= rates.evaluate_sum_rate(H, P, H.astype(int)) - 1e-9
            assert res.rate_bits >= math.log2(P) - math.log2(max(np.sum(H * H, axis=1))) - 1.0

    def test_dominates_random_full_rank_matrices(self):
        rng = np.random.default_rng(4)
        H = rng.uniform(0.5, 2.0, size=(2, 2))
        P = 100.0
        best = rates.lattice_sum_rate(H, P).rate_bits
        count = 0
        while count < 100:
            A = rng.integers(-5, 6, size=(2, 2))
            if abs(np.linalg.det(A.astype(float))) < 0.5:
                continue
            count += 1
            assert best >= rates.evaluate_sum_rate(H, P, A) - 1e-9

    def test_k_limit(self):
        with pytest.raises(ResourceLimitError):
            rates.lattice_sum_rate(np.eye(4), 10.0)


class TestSumRateGrid:
    """``_sum_rates``: a whole SNR grid at once, ``lattice_sum_rate`` point by point."""

    @pytest.mark.parametrize("cap, walked", [
        (0, [[1, 1]] * 4),
        (64, [[1, 1], [0, 0], [0, 0], [0, 0]]),
    ], ids=["every-search", "20dB-only"])
    def test_capped_boxes_take_the_scalar_walk(self, monkeypatch, cap, walked):
        # an integer K=2 channel: at 20 dB its boxes hold more than 64 points, past 40 dB fewer
        monkeypatch.setattr(rates, "_BOX_CAP", cap)
        H = np.array([[1.0, 2.0], [2.0, 1.0]])
        powers = [float(rates.db_to_linear(db)) for db in (20, 40, 60, 80)]
        results, scalar = rates._sum_rates(H, powers)
        assert scalar.astype(int).tolist() == walked
        for power, res in zip(powers, results):
            ref_A, ref_rate, ref_fallback = reference_sum_rate(H, power)
            assert (res.coefficients.tolist(), res.rate_bits, res.fallback) == (
                ref_A.tolist(), ref_rate, ref_fallback)

    def test_each_point_keeps_its_own_error(self):
        # 1e13 is past double precision, 0 and nan fail the power check: the other points
        # still get their results, and each failing one the scalar call's error
        H = np.array([[1.0, 0.5], [0.3, 1.2]])
        powers = [10.0, 1e13, 0.0, NAN, 100.0]
        results, _ = rates._sum_rates(H, powers)
        for power, res in zip(powers, results):
            try:
                want = rates.lattice_sum_rate(H, power)
            except Exception as exc:
                assert type(res) is type(exc) and str(res) == str(exc)
            else:
                assert (res.coefficients.tolist(), res.rate_bits) == (
                    want.coefficients.tolist(), want.rate_bits)
        assert [type(r).__name__ for r in results] == [
            "SumRateResult", "NumericRangeError", "InvalidArgumentError", "InvalidArgumentError",
            "SumRateResult"]

    def test_top_n_must_be_positive(self):
        with pytest.raises(InvalidArgumentError, match="top_n must be at least 1, got 0"):
            rates.lattice_sum_rate(np.eye(2), 10.0, top_n=0)

    def test_batched_bisection_equals_the_per_power_one(self):
        rng = np.random.default_rng(12)
        powers = [float(rates.db_to_linear(db)) for db in (-10, 0, 5, 17.5, 40, 80, 120)]
        for H in (rng.uniform(0.5, 2.0, size=(3, 3)), rng.normal(size=(2, 2)), np.ones((2, 2)),
                  np.eye(3), rng.normal(size=(9, 9))):
            want = [scalar_mimo(H, P) for P in powers]
            assert len({steps for _, steps in want}) > 1  # the powers stop at different steps
            assert [v.hex() for v in rates._mimo_bounds(H, powers)] == [v.hex() for v, _ in want]
            one = [rates.mimo_upper_bound(H, P) for P in powers]
            assert [v.hex() for v in one] == [v.hex() for v, _ in want]
        assert rates._mimo_bounds(np.zeros((2, 2)), powers) == [0.0] * len(powers)


def scalar_mimo(H, power):
    """The per-power water-filling bisection, and the number of steps it took."""
    s2 = np.linalg.svd(H, compute_uv=False) ** 2
    s2 = s2[s2 > 0.0]
    total = H.shape[0] * float(power)
    lo, hi, steps = 0.0, total + float(1.0 / s2.min()), 0
    while hi - lo > rates.MIMO_REL_TOL * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if float(np.sum(np.maximum(0.0, mid - 1.0 / s2))) < total:
            lo = mid
        else:
            hi = mid
        steps += 1
    q = np.maximum(0.0, 0.5 * (lo + hi) - 1.0 / s2)
    return float(np.sum(0.5 * np.log2(1.0 + s2 * q))), steps


class TestDetInt:
    """``_det_int`` takes the K row sets: a stack of matrices is passed as its rows."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_full_rank_matches_rank_exact(self, k):
        rng = np.random.default_rng(40 + k)
        A = rng.integers(-3, 4, size=(240, k, k))
        A[0::6, -1] = A[0::6, 0]  # repeated row
        A[1::6, -1] = -2 * A[1::6, 0]  # collinear rows
        A[2::6, k // 2] = 0  # zero row
        A[3::6, :, -1] = A[3::6, :, 0]  # repeated column
        det = rates._det_int([A[:, m] for m in range(k)])
        assert det.dtype == np.int64 and det.shape == (240,)
        assert [d != 0 for d in det] == [rates._rank_exact(a) == k for a in A]
        assert np.array_equal(det, np.rint(np.linalg.det(A.astype(float))).astype(np.int64))
        if k > 1:
            assert not det[0::6].any() and not det[1::6].any() and not det[3::6].any()
        assert not det[2::6].any()

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_candidate_sets_give_every_combination(self, k):
        # each receiver's set along its own axis: the grid of all combinations, C order
        # being itertools.product order
        rng = np.random.default_rng(50 + k)
        sets = [rng.integers(-2, 3, size=(n, k)) for n in (5, 4, 3)[:k]]
        sets[-1][0] = sets[0][0]  # singular combinations
        grid = rates._det_int([s.reshape((1,) * m + (len(s),) + (1,) * (k - 1 - m) + (k,))
                               for m, s in enumerate(sets)])
        stack = np.array([np.stack(rows) for rows in itertools.product(*sets)])
        assert grid.shape == tuple(len(s) for s in sets)
        assert np.array_equal(grid.ravel(), rates._det_int([stack[:, m] for m in range(k)]))
        assert [d != 0 for d in grid.ravel()] == [rates._rank_exact(a) == k for a in stack]

    def test_exact_near_the_int64_limit(self):
        m = 1_100_000  # 3! m^3 = 7.99e18 still fits int64
        A = np.array([[m, m, m], [m, -m, m], [m, m, -m]])
        assert int(rates._det_int(A)) == 4 * m**3

    @pytest.mark.parametrize("A", [
        np.full((3, 3), 1_200_000),  # 3! m^3 = 1.04e19
        np.array([[np.iinfo(np.int64).min]]),  # |a| wraps in int64
        np.ones((21, 21), dtype=np.int64),  # 21! > 2^63
    ], ids=["k3-large-entries", "int64-min", "k21-ones"])
    def test_range_guard(self, A):
        with pytest.raises(NumericRangeError):
            rates._det_int(A)


class TestBaselines:
    def test_time_sharing_hand_values(self):
        assert rates.time_sharing_rate(np.eye(2), 1.0) == pytest.approx(0.5 * math.log2(3), abs=1e-12)
        assert rates.time_sharing_rate(np.eye(3), 10.0) == pytest.approx(0.5 * math.log2(31), abs=1e-12)
        assert rates.time_sharing_rate(np.array([[0.0, 1.0], [1.0, 0.0]]), 5.0) == 0.0

    def test_ia_line(self):
        assert rates.ia_baseline(2, 4.0) == 1.0
        assert rates.ia_baseline(4, 2.0) == 1.0
        assert rates.ia_baseline(3, 1024.0) == 7.5

    def test_mimo_identity(self):
        for k in (2, 3):
            for P in (1.0, 10.0):
                assert rates.mimo_upper_bound(np.eye(k), P) == pytest.approx(
                    k * 0.5 * math.log2(1 + P), rel=1e-9
                )

    def test_mimo_rank_one_puts_power_on_live_mode(self):
        H = np.array([[1.0, 1.0], [1.0, 1.0]])  # one zero singular value
        s2 = 4.0  # squared nonzero singular value
        P = 10.0
        assert rates.mimo_upper_bound(H, P) == pytest.approx(
            0.5 * math.log2(1 + s2 * 2 * P), rel=1e-9
        )

    def test_mimo_matches_grid_search(self):
        rng = np.random.default_rng(8)
        H = rng.normal(size=(2, 2))
        P = 7.0
        s2 = np.linalg.svd(H, compute_uv=False) ** 2
        split = np.linspace(0.0, 2 * P, 20001)
        vals = 0.5 * np.log2(1 + s2[0] * split) + 0.5 * np.log2(1 + s2[1] * (2 * P - split))
        assert rates.mimo_upper_bound(H, P) == pytest.approx(float(vals.max()), abs=1e-6)

    @pytest.mark.parametrize("power", [NAN, INF, -INF], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("baseline, match", [
        (lambda P: rates.time_sharing_rate(np.eye(2), P), "power must be positive"),
        (lambda P: rates.ia_baseline(2, P), "power must exceed 1"),
        (lambda P: rates.mimo_upper_bound(np.eye(2), P), "power must be positive"),
    ], ids=["time_sharing", "ia", "mimo"])
    def test_non_finite_power_is_rejected(self, baseline, match, power):
        with pytest.raises(InvalidArgumentError, match=match):
            baseline(power)

    def test_ordering_invariants(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            H = rng.uniform(0.5, 2.0, size=(2, 2))
            P = float(10 ** rng.uniform(0.5, 3))
            mimo = rates.mimo_upper_bound(H, P)
            assert mimo >= rates.lattice_sum_rate(H, P).rate_bits - 1e-9
            assert mimo >= rates.time_sharing_rate(H, P) - 1e-9


class TestTradeoffCheck:
    def test_collinear_equality(self):
        rep = rates.loss_tradeoff_check([1, 2], 50.0, [2, 4])
        assert rep.psi == 0.0
        assert rep.loss == pytest.approx(rep.q, rel=1e-12)
        assert rep.holds

    def test_hand_instance(self):
        rep = rates.loss_tradeoff_check([1.0, 0.7], 10.0, [1, 1])
        assert rep.loss >= rep.lower_bound
        assert rep.holds

    def test_randomized_property(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            k = int(rng.integers(2, 5))
            h = rng.normal(size=k)
            if np.linalg.norm(h) < 1e-3:
                continue
            a = rng.integers(-8, 9, size=k)
            if not a.any():
                a[0] = 1
            P = float(10 ** rng.uniform(-1, 5))
            assert rates.loss_tradeoff_check(h, P, a).holds


class TestSweepAndSlope:
    def test_rational_peak_matches_oracle_value(self):
        # value read off the exhaustive search at h2 = 1/2, 50 dB
        row = rates.normalized_rate_sweep([0.5], [50.0])[0]
        _, oracle_rate = exhaustive_oracle([1.0, 0.5], 1e5)
        cap = 0.5 * math.log2(1 + 1.25e5)
        assert row.normalized_rate == pytest.approx(oracle_rate / cap, abs=0)
        assert row.normalized_rate == pytest.approx(0.86288, abs=5e-5)

    def test_degenerate_h2_zero(self):
        row = rates.normalized_rate_sweep([0.0], [30.0])[0]
        assert row.normalized_rate == 1.0
        assert row.coefficients == (1, 0)

    def test_golden_h2_matches_brute_force(self):
        h2 = (math.sqrt(5) - 1) / 2
        row = rates.normalized_rate_sweep([h2], [50.0])[0]
        _, oracle_rate = exhaustive_oracle([1.0, h2], 1e5)
        cap = 0.5 * math.log2(1 + (1 + h2 * h2) * 1e5)
        assert row.normalized_rate == pytest.approx(oracle_rate / cap, abs=0)
        assert row.normalized_rate < 0.6

    def test_values_in_unit_interval(self):
        rows = rates.normalized_rate_sweep(np.linspace(0, 1, 21), [20.0, 40.0])
        for row in rows:
            assert 0.0 <= row.normalized_rate <= 1.0 + 1e-9

    def test_rate_monotone_in_power(self):
        for h2 in (0.3, 0.618034, 0.75):
            prev = -1.0
            for db in (10.0, 20.0, 30.0, 40.0, 50.0):
                P = float(rates.db_to_linear(db))
                _, rate = rates.best_coefficient_vector([1.0, h2], P)
                assert rate >= prev - 1e-9
                prev = rate

    @pytest.mark.parametrize("h2, db, coefficients", [
        # the score squares h.a with **, as _loss does: d * d is off in the last bit here
        (0.9270791327874011, 1.0, None), (0.9270791327874011, 3.0, None),
        # past the batch's precision: the scalar search finds (1000, 537)
        (0.537, 120.0, (1000, 537)),
    ])
    def test_sweep_pitfalls_match_the_scalar_search(self, h2, db, coefficients):
        row = rates.normalized_rate_sweep([h2], [db])[0]
        power = float(rates.db_to_linear(db))
        a, rate = rates.best_coefficient_vector([1.0, h2], power)
        cap = 0.5 * np.log2(1.0 + (1.0 + h2 * h2) * power)
        assert row.coefficients == tuple(int(x) for x in a)
        assert row.normalized_rate == float(rate / cap)
        if coefficients is not None:
            assert row.coefficients == coefficients

    @pytest.mark.parametrize("db, error", [(130.0, NumericRangeError), (-5.0, InvalidArgumentError)])
    def test_sweep_raises_the_point_error(self, db, error):
        with pytest.raises(error):
            rates.normalized_rate_sweep([0.5], [db])

    @pytest.mark.parametrize("snrs", [[20.0, 40.0, 60.0, 80.0], [20.0, 30.0, 40.0, 50.0]])
    def test_fig2_grids_take_the_batch(self, snrs):
        # the fig2_k2 benchmark grid and the default caf fig2 grid: no point falls back
        # to the scalar search, which gives the same bytes about 9x slower
        _, fallback = rates._sweep_results(np.linspace(0.0, 1.0, 1000), snrs)
        assert fallback.size == 4000 and not fallback.any()

    def test_dof_slope_exact_line(self):
        dbs = np.arange(10.0, 60.0, 5.0)
        powers = rates.db_to_linear(dbs)
        assert rates.dof_slope(0.5 * np.log2(powers), dbs) == pytest.approx(1.0, abs=1e-12)

    def test_dof_slope_high_snr_identity(self):
        dbs = np.arange(60.0, 101.0, 5.0)
        powers = rates.db_to_linear(dbs)
        for k in (2, 3):
            slope = rates.dof_slope(k * 0.5 * np.log2(1 + powers), dbs)
            assert slope == pytest.approx(k, abs=0.05)

    def test_dof_slope_validation(self):
        with pytest.raises(InvalidArgumentError):
            rates.dof_slope([1.0, 2.0], [10.0, 20.0])
        with pytest.raises(InvalidArgumentError):
            rates.dof_slope([1.0, 2.0, 3.0], [10.0, 10.0, 20.0])


class TestChannelMatrix:
    def test_requires_square_finite(self):
        with pytest.raises(InvalidArgumentError, match="channel matrix must be square"):
            rates.mimo_upper_bound(np.ones((2, 3)), 1.0)
        with pytest.raises(InvalidArgumentError, match="channel gains must be finite"):
            rates.mimo_upper_bound(np.array([[1.0, np.nan], [0.0, 1.0]]), 1.0)


class TestReducedSearchStress:
    """The LLL-reduced default search mirrors exhaustive exactly, argmax and ranking."""

    def test_high_power_argmax_and_topn(self, each_box_cap):
        rng = np.random.default_rng(99)
        checked = 0
        while checked < 8:
            h = rng.uniform(-2.0, 2.0, size=2)
            if np.abs(h).max() < 0.05:
                continue
            P = min(float(2**23) / (np.pi * float(h @ h)) / 4, 10 ** rng.uniform(3.0, 5.0))
            ae, re = rates.best_coefficient_vector(h, P, mode="exhaustive", budget=1 << 24)
            n = int(rng.integers(1, 20))
            te = rates.top_coefficient_vectors(h, P, n, mode="exhaustive", budget=1 << 24)
            for cap in each_box_cap():
                ar, rr = rates.best_coefficient_vector(h, P)
                assert (list(ar), rr) == (list(ae), re), cap
                tr = rates.top_coefficient_vectors(h, P, n)
                assert [list(a) for a in tr] == [list(a) for a in te], cap
            checked += 1

    def test_tiny_leading_gain(self, each_box_cap):
        # shallow quadratic in a2: the enumeration must still rank exactly
        h = np.array([0.0241227, 0.26036653])
        for P in (4.7e4, 1.46e5):
            te = rates.top_coefficient_vectors(h, P, 16, mode="exhaustive", budget=1 << 25)
            for cap in each_box_cap():
                tr = rates.top_coefficient_vectors(h, P, 16)
                assert [list(a) for a in tr] == [list(a) for a in te], cap


def strip_oracle(h2, power, n):
    """Top-n for h = (1, h2): every a1 in the ball, a2 within +-5 of the real
    vertex of the loss at that a1, ranked like the search.

    For fixed a1 the loss is a convex quadratic in a2, so the strip holds the
    top 5 unless one of them sits on the edge of the ball.
    """
    h = np.array([1.0, h2])
    bound = np.ceil(float(h @ h) * power)
    a1 = np.arange(0.0, np.floor(np.sqrt(bound)) + 1.0)
    vertex = np.round(power * h2 * a1 / (1.0 + power))
    A = np.stack([np.repeat(a1, 11), (vertex[:, None] + np.arange(-5.0, 6.0)).ravel()], axis=1)
    n2 = np.einsum("ij,ij->i", A, A)
    A = A[(n2 >= 1) & (n2 <= bound) & ((A[:, 0] > 0) | (A[:, 1] > 0))]
    n2 = np.einsum("ij,ij->i", A, A)
    order = np.lexsort((A[:, 1], A[:, 0], n2, rates._loss_values(h, power, A)))
    return [list(a) for a in A[order[:n]].astype(int)]


class TestEnumeration:
    """The default search against its oracles, at every K and SNR it can reach."""

    @pytest.mark.parametrize("h", [
        [1.0], [0.7],
        [1.0, 1.0], [1.0, 0.0], [1.0, 0.5],
        [1.0, 1.0, 1.0], [1.0, 2.0, 1.0], [2.0, -1.0, 1.0], [1.0, 0.5, 0.0], [0.8, 1.3, 1.9],
        [1.0, 1.0, 1.0, 1.0], [1.0, -1.0, 0.5, 0.0], [0.6, 1.1, 1.7, 0.9],
    ], ids=lambda h: "h=" + "_".join(f"{x:g}" for x in h))
    @pytest.mark.parametrize("db", [0.0, 5.0, 10.0, 15.0])
    def test_top_n_matches_exhaustive_with_ties(self, h, db, each_box_cap):
        # integer and collinear rows tie many vectors at equal loss and norm
        P = float(rates.db_to_linear(db))
        for n in (1, 16, 40):
            want = rates.top_coefficient_vectors(h, P, n, mode="exhaustive")
            for cap in each_box_cap():
                got = rates.top_coefficient_vectors(h, P, n)
                assert [list(a) for a in got] == [list(a) for a in want], cap

    @pytest.mark.parametrize("db", [60.0, 70.0, 80.0])
    def test_high_snr_matches_strip_oracle(self, db, each_box_cap):
        # the whole ball is out of the exhaustive budget here
        P = float(rates.db_to_linear(db))
        h2s = list(np.linspace(0.0, 1.0, 1000)[::25]) + [0.5, 1.0 / 3.0, (math.sqrt(5.0) - 1.0) / 2.0]
        for h2 in h2s:
            want = strip_oracle(h2, P, 5)
            for cap in each_box_cap():
                got = rates.top_coefficient_vectors([1.0, h2], P, 5)
                assert [list(a) for a in got] == want, cap

    def test_float_error_within_radius_slack(self):
        # the enumerated values and _loss_values both stay far inside the slack
        # (worst measured here: 0.84 units of K eps (1 + P ||h||^2))
        rng = np.random.default_rng(1)
        worst = 0.0
        for trial in range(300):
            k = int(rng.integers(2, 5))
            h = rng.uniform(-2.0, 2.0, size=k) if trial % 2 else rng.uniform(0.5, 2.0, size=k)
            P = float(10 ** rng.uniform(0.0, 11.0 if k == 2 else 9.0))
            hn2 = float(h @ h)
            basis, mu, r = rates._lll(h, P, hn2)
            Z = [z for z in itertools.product(range(-1, 2), repeat=k) if any(z)]
            A = np.array([[sum(zj * b[c] for zj, b in zip(z, basis)) for c in range(k)] for z in Z])
            for z, a, loss in zip(Z, A, rates._loss_values(h, P, A.astype(float))):
                value = 0.0  # the enumeration's arithmetic, level K-1 first
                for i in range(k - 1, -1, -1):
                    t = z[i] + sum(mu[j][i] * z[j] for j in range(i + 1, k))  # z_i - c
                    value = value + r[i] * (t * t)
                exact = exact_loss(h, P, a)
                for got in (value, loss):
                    worst = max(worst, abs(float((Fraction(got) - exact) / exact))
                                / (k * np.finfo(float).eps * (1.0 + P * hn2)))
        assert worst * 64 < rates._RADIUS_SLACK

    def test_k3_row_memory_bound(self):
        # the whole (2 amax + 1)^3 ball of one 30 dB row took 365 MB
        H = np.random.default_rng(0).uniform(0.5, 2.0, size=(3, 3))
        tracemalloc.start()
        try:
            rates.lattice_sum_rate(H, float(rates.db_to_linear(30.0)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_leaf_budget(self, each_box_cap):
        # a box of more than `budget` points takes the walk, which stops past `budget` leaves
        h, P = [1.0, 0.3, 0.7], 1e4
        for cap in each_box_cap():
            assert len(rates.top_coefficient_vectors(h, P, 50)) == 50
            with pytest.raises(ResourceLimitError, match="more than 20 leaves"):
                rates.top_coefficient_vectors(h, P, 50, budget=20)

    def test_a_box_past_the_budget_takes_the_walk(self, monkeypatch):
        # this search's box holds 297 points: a smaller budget walks, which needs fewer leaves
        h, P = [1.0, 0.3, 0.7], 1e4
        want = [list(a) for a in rates.top_coefficient_vectors(h, P, 16)]
        walks, walk = [], rates._enumerate
        monkeypatch.setattr(rates, "_enumerate", lambda *args: walks.append(1) or walk(*args))
        for budget, walked in ((297, 0), (296, 1)):
            assert [list(a) for a in rates.top_coefficient_vectors(h, P, 16, budget=budget)] == want
            assert len(walks) == walked

    @pytest.mark.parametrize("mode", ["auto", "exhaustive"])
    @pytest.mark.parametrize("n", [0, -1])
    def test_top_n_must_be_positive(self, mode, n):
        # an empty top n would come from a box but not from the walk
        with pytest.raises(InvalidArgumentError, match=f"n must be at least 1, got {n}"):
            rates.top_coefficient_vectors([1.0, 0.5], 100.0, n, mode=mode)

    def test_one_lll_per_search(self, monkeypatch):
        # the walk reuses the form and the seed radius of _candidates: one LLL per search
        calls = []
        lll = rates._lll
        monkeypatch.setattr(rates, "_lll", lambda *args: calls.append(1) or lll(*args))
        monkeypatch.setattr(rates, "_BOX_CAP", 0)
        searches = 0
        for h, P, n in (([1.0, 0.5], 1e3, 16), ([1.0, 0.3, 0.7], 1e4, 1), ([0.7], 10.0, 4),
                        ([0.6, 1.1, 1.7, 0.9], 30.0, 40)):
            rates.top_coefficient_vectors(h, P, n)
            rates.best_coefficient_vector(h, P)
            searches += 2
        H = np.array([[1.0, 0.5, 0.2], [0.3, 1.2, 0.9], [1.4, 0.6, 1.1]])
        _, walked = rates._sum_rates(H, [10.0, 100.0])
        assert walked.all()
        assert len(calls) == searches + walked.size

    @pytest.mark.parametrize("h", [[1.0, 1.0], [1.0, 0.3], [1.0, 0.3, 0.7], [1e10, 1.0]])
    def test_huge_power_is_a_numeric_range_error(self, h):
        with pytest.raises(NumericRangeError):
            rates.best_coefficient_vector(h, 1e300)

    def test_failed_cholesky_is_a_numeric_range_error(self):
        # past the power guard of the search, the form's float pivots go negative
        with pytest.raises(NumericRangeError, match="Cholesky"):
            rates._lll(np.array([1.0, 0.3]), 1e300, 1.09)
