"""Acceptance suite: one test per criterion clause, pass/fail line printed.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every gate line.
All seeds, sample draws, SNR grids and tolerances are pinned here; every
gate line carries the measured values. Each gate asserts what its source
states:

- 1a: the closed form of the collinear equation a = (r, q) at h2 = q/r
  (loss r^2 + q^2, module docstring of ``caf.rates``), and the SNR at
  which that closed form reaches 0.9.
- 1b-1d: the Figure 2 sweep of the paper (normalized rate of h = (1, h2)):
  the mean falls as SNR grows and a typical generic h2 sits below 0.6 at
  50 dB.
- 2a-2g: the degrees of freedom in PAPER.md: the lattice scheme reaches
  the full K at rational H but at most 2/(1+1/K) for almost every real
  H; cooperative MIMO reaches K and time sharing 1. 2a-2e are at K=2,
  2f-2g repeat the lattice gates at K=3.
- 3: the loss floor and trade-off inequality of ``rates.loss_term`` and
  ``rates.loss_tradeoff_check``.
- 4-6: the signal-alignment pipeline: noiseless recovery, the tail
  ``alignment.error_bound``, injectivity and peel == F_p elimination,
  Gilbert-Varshamov codes.
- 7: the Khinchin envelope and the separation oracles of ``caf.diophantine``.
- 8: the exact finite-p form of ``alignment.rate_power_ratio`` (from the
  docstrings of ``achievable_rate`` and ``power_bound``).

Where a fast search has an exact oracle, the gate checks the two agree
bit for bit.
"""

import math
import time

import numpy as np
import pytest

from caf import alignment as al
from caf import cli as cafcli
from caf import diophantine as dio
from caf import fpcode
from caf import inversion as inv
from caf import rates
from caf.errors import NonGenericChannelError
from caf.seeding import child_rng, derive_seed

SEED = 0


def gate(name: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"{name}: {detail}"


# ------------------------------------------------------------ criterion 1

SNRS = [20.0, 30.0, 40.0, 50.0]


@pytest.fixture(scope="module")
def fig2_sweep():
    t0 = time.time()
    grid = np.linspace(0.0, 1.0, 1000)
    rows = rates.normalized_rate_sweep(grid, SNRS)
    values = np.array([r.normalized_rate for r in rows]).reshape(len(grid), len(SNRS))
    return grid, values, time.time() - t0


def _exhaustive_normalized(h2: float, db: float):
    """Oracle for one sweep point: exhaustive ball search, same normalization."""
    power = float(rates.db_to_linear(db))
    a, rate = rates.best_coefficient_vector(np.array([1.0, h2]), power, mode="exhaustive")
    cap = 0.5 * np.log2(1.0 + (1.0 + h2 * h2) * power)
    return tuple(int(x) for x in a), float(rate / cap)


# h2 = q/r and its collinear equation a = (r, q)
RATIONAL_SPOTS = ((0.5, (2, 1)), (1.0 / 3.0, (3, 1)), (2.0 / 3.0, (3, 2)))
SPOT_LEVEL = 0.9


def test_criterion_1_spot_values_at_rationals():
    """At h2 = q/r the best equation is a = (r, q), whose loss is r^2 + q^2, so
    the normalized rate is 1 - log2(r^2 + q^2) / log2(1 + P (1 + h2^2)).

    That closed form is checked at 50 dB; the 0.9 level is checked at the SNR
    where the closed form first reaches it, rounded up to a whole dB. There
    only the level is asserted: float cancellation in ||h||^2 ||a||^2 - (h.a)^2,
    times P, moves the 1/3 and 2/3 values off the closed form as P grows
    (~1e-6 relative at 110 dB).
    """
    power = float(rates.db_to_linear(50.0))
    ok = True
    details = []
    for h2, a in RATIONAL_SPOTS:
        n2 = a[0] ** 2 + a[1] ** 2
        closed = 1.0 - math.log2(n2) / math.log2(1.0 + power * (1.0 + h2 * h2))
        row = rates.normalized_rate_sweep([h2], [50.0])[0]
        oracle = _exhaustive_normalized(h2, 50.0)
        # closed form >= level  <=>  P >= (n2^(1/(1-level)) - 1) / (1 + h2^2)
        level_db = math.ceil(10.0 * math.log10(
            (n2 ** (1.0 / (1.0 - SPOT_LEVEL)) - 1.0) / (1.0 + h2 * h2)))
        at_level = rates.normalized_rate_sweep([h2], [float(level_db)])[0].normalized_rate
        ok = (ok and row.coefficients == a
              and row.normalized_rate == pytest.approx(closed, rel=1e-9)
              and oracle == (row.coefficients, row.normalized_rate)
              and at_level >= SPOT_LEVEL)
        details.append(
            f"h2={h2:.4f}: a={row.coefficients} (expect {a}, exhaustive {oracle[0]}), "
            f"50 dB {row.normalized_rate:.6f} vs closed form {closed:.6f}, "
            f"{level_db} dB {at_level:.5f}")
    gate(f"1a rational spots: a = (r, q), closed form at 50 dB, >= {SPOT_LEVEL} where "
         "it predicts", ok, "; ".join(details))


def test_criterion_1_mean_strictly_decreasing(fig2_sweep):
    _, values, _ = fig2_sweep
    means = values.mean(axis=0)
    ok = bool(np.all(np.diff(means) < 0))
    gate("1b mean normalized rate decreases 20->50 dB", ok,
         "means " + ", ".join(f"{db:g}dB: {m:.4f}" for db, m in zip(SNRS, means)))


def test_criterion_1_irrational_samples_below_06():
    """A typical generic h2 sits below 0.6 at 50 dB: the median of 20 samples.

    Single samples can exceed it. The K=2 loss is a1^2 + a2^2 + P (a1 h2 - a2)^2,
    so a sample close to a small-denominator rational a2/a1 sits on that
    rational's spike shoulder; about 30% of the Figure 2 grid lies above 0.6
    at 50 dB.
    """
    rng = child_rng(SEED, 1)
    samples = rng.uniform(0.0, 1.0, size=20)
    rows = [rates.normalized_rate_sweep([h2], [50.0])[0] for h2 in samples]
    vals = [row.normalized_rate for row in rows]
    mismatched = [f"h2={row.h2:.4f}" for row in rows
                  if _exhaustive_normalized(row.h2, 50.0)
                  != (row.coefficients, row.normalized_rate)]
    median = float(np.median(vals))
    above = [f"h2={row.h2:.4f} a={row.coefficients} {row.normalized_rate:.4f} "
             f"|h2-a2/a1|={abs(row.h2 - row.coefficients[1] / row.coefficients[0]):.2e}"
             for row in rows if row.normalized_rate > 0.6]
    ok = median <= 0.6 and not mismatched
    gate("1c median of 20 generic h2 samples <= 0.6 at 50 dB", ok,
         f"median {median:.4f}; exhaustive mismatches {mismatched or 'none'}; "
         f"{len(above)}/20 above 0.6: " + ("; ".join(above) or "none"))


def test_criterion_1_runtime(fig2_sweep):
    _, _, elapsed = fig2_sweep
    gate("1d sweep runtime <= 10 min", elapsed <= 600.0, f"{elapsed:.1f} s for 1000x4 grid")


# ------------------------------------------------------------ criterion 2

DOF_DBS = np.arange(40.0, 81.0, 5.0)
DOF_K = 2


def _slope_of(fn) -> float:
    ys = [fn(float(rates.db_to_linear(db))) for db in DOF_DBS]
    return rates.dof_slope(ys, DOF_DBS)


def _dof_channels(k: int):
    """Five nonsingular integer and five uniform(0.5, 2) real k x k channels."""
    rng = child_rng(SEED, 2)
    rational = []
    while len(rational) < 5:
        H = rng.integers(-5, 6, size=(k, k)).astype(float)
        if abs(np.linalg.det(H)) < 0.5 or np.any(np.all(H == 0.0, axis=1)):
            continue
        rational.append(H)
    rng = child_rng(SEED, 3)
    return rational, [rng.uniform(0.5, 2.0, size=(k, k)) for _ in range(5)]


@pytest.fixture(scope="module")
def dof_tables():
    t0 = time.time()
    rational, real = _dof_channels(DOF_K)
    slopes = {"rational": [], "real": [], "mimo": [], "ts": []}
    for H in rational:
        slopes["rational"].append(_slope_of(lambda P: rates.lattice_sum_rate(H, P).rate_bits))
    for H in real:
        slopes["real"].append(_slope_of(lambda P: rates.lattice_sum_rate(H, P).rate_bits))
    for H in rational + real:
        slopes["mimo"].append(_slope_of(lambda P: rates.mimo_upper_bound(H, P)))
        slopes["ts"].append(_slope_of(lambda P: rates.time_sharing_rate(H, P)))
    return slopes, time.time() - t0


def test_criterion_2_rational_lattice_slope(dof_tables):
    slopes, _ = dof_tables
    vals = slopes["rational"]
    ok = all(1.8 <= s <= 2.2 for s in vals)
    gate("2a rational-H lattice slope in [1.8, 2.2]", ok,
         "slopes " + ", ".join(f"{s:.3f}" for s in vals))


def test_criterion_2_real_lattice_slope(dof_tables):
    """The lattice DoF of almost every real H is at most 2/(1+1/K).

    One channel's 40-80 dB slope is a finite-SNR estimate: its sum rate is a
    staircase of coefficient matrices, so single slopes scatter around the
    asymptotic value (sd ~0.2 over uniform(0.5, 2) channels). The bound is
    asserted on the mean of the five.
    """
    slopes, _ = dof_tables
    vals = slopes["real"]
    bound = 2.0 / (1.0 + 1.0 / DOF_K)
    mean = float(np.mean(vals))
    gate(f"2b mean real-H lattice slope <= 2/(1+1/K) = {bound:.4f}", mean <= bound,
         f"mean {mean:.3f}; slopes " + ", ".join(f"{s:.3f}" for s in vals))


def test_criterion_2_mimo_slope(dof_tables):
    slopes, _ = dof_tables
    ok = all(1.9 <= s <= 2.1 for s in slopes["mimo"])
    gate("2c MIMO slope in [K-0.1, K+0.1]", ok,
         "slopes " + ", ".join(f"{s:.3f}" for s in slopes["mimo"]))


def test_criterion_2_time_sharing_slope(dof_tables):
    slopes, _ = dof_tables
    ok = all(0.9 <= s <= 1.1 for s in slopes["ts"])
    gate("2d time-sharing slope in [0.9, 1.1]", ok,
         "slopes " + ", ".join(f"{s:.3f}" for s in slopes["ts"]))


def test_criterion_2_runtime(dof_tables):
    _, elapsed = dof_tables
    gate("2e DoF runtime <= 15 min", elapsed <= 900.0, f"{elapsed:.1f} s")


# the same tables at K=3, which the enumeration search brings within reach
DOF_K3 = 3


@pytest.fixture(scope="module")
def dof_tables_k3():
    rational, real = _dof_channels(DOF_K3)
    return {kind: [_slope_of(lambda P: rates.lattice_sum_rate(H, P).rate_bits) for H in chans]
            for kind, chans in (("rational", rational), ("real", real))}


def test_criterion_2_k3_rational_lattice_slope(dof_tables_k3):
    vals = dof_tables_k3["rational"]
    ok = all(DOF_K3 - 0.2 <= s <= DOF_K3 + 0.2 for s in vals)
    gate("2f K=3 rational-H lattice slope in [K-0.2, K+0.2]", ok,
         "slopes " + ", ".join(f"{s:.3f}" for s in vals))


def test_criterion_2_k3_real_lattice_slope(dof_tables_k3):
    vals = dof_tables_k3["real"]
    bound = 2.0 / (1.0 + 1.0 / DOF_K3)
    mean = float(np.mean(vals))
    gate(f"2g K=3 mean real-H lattice slope <= 2/(1+1/K) = {bound:.4f}", mean <= bound,
         f"mean {mean:.3f}; slopes " + ", ".join(f"{s:.3f}" for s in vals))


# ------------------------------------------------------------ criterion 3


def test_criterion_3_loss_term_properties():
    rng = child_rng(SEED, 4)
    n = 10**5
    bad_floor = 0
    bad_tradeoff = 0
    for _ in range(n):
        k = int(rng.integers(2, 5))
        h = rng.normal(size=k)
        if np.linalg.norm(h) < 1e-6:
            continue
        a = rng.integers(-8, 9, size=k)
        if not a.any():
            a[0] = 1
        P = float(10 ** rng.uniform(-1, 5))
        rep = rates.loss_tradeoff_check(h, P, a)
        if rep.loss < float(a @ a) * (1.0 - 1e-12):
            bad_floor += 1
        if not rep.holds:
            bad_tradeoff += 1
    # exactly collinear cases: dyadic scalings are exact in floats
    worst_rel = 0.0
    for _ in range(1000):
        k = int(rng.integers(2, 5))
        a = rng.integers(-8, 9, size=k)
        if not a.any():
            a[0] = 1
        c = float(rng.integers(1, 65)) / 64.0
        h = c * a.astype(float)
        if np.linalg.norm(h) == 0.0:
            continue
        P = float(10 ** rng.uniform(-1, 5))
        loss = rates.loss_term(h, P, a)
        q = float(a @ a)
        worst_rel = max(worst_rel, abs(loss - q) / q)
    ok = bad_floor == 0 and bad_tradeoff == 0 and worst_rel <= 1e-12
    gate("3 loss floor + tradeoff inequality on 1e5 draws", ok,
         f"floor violations {bad_floor}, tradeoff violations {bad_tradeoff}, "
         f"collinear worst rel dev {worst_rel:.2e}")


# ------------------------------------------------------------ criterion 4


def test_criterion_4_noiseless_example_pipeline():
    rng = child_rng(SEED, 5)
    h1, h2 = rng.uniform(0.5, 2.0, size=2)
    H = np.array([[1.0, h2], [h1, 1.0]])
    sig = al.example_signature(H, p=5)
    eqsys = al.derive_equation_system(sig)
    code = fpcode.gv_search(5, 15, 3, seed=derive_seed(SEED, 50), message_len=4)
    stats = cafcli._run_alignment_block(sig, eqsys, code, H, trials=1000,
                                        noise_var=0.0, strategy="exhaustive",
                                        corrupt=0, seed=derive_seed(SEED, 51))
    ok = (stats["demod_symbol_errors"] == 0 and stats["equation_block_errors"] == 0
          and stats["message_mismatches"] == 0)
    gate("4a noiseless example pipeline, p=5 T=15 x1000", ok,
         f"demod {stats['demod_symbol_errors']}, blocks {stats['equation_block_errors']}, "
         f"messages {stats['message_mismatches']}")


def test_criterion_4_noiseless_canonical_primes():
    rng = child_rng(SEED, 6)
    H = rng.uniform(0.5, 2.0, size=(2, 2))
    totals = {}
    for p in (3, 5, 7):
        sig = al.canonical_signature(H, 1, p)
        eqsys = al.derive_equation_system(sig)
        code = fpcode.gv_search(p, 15, 3, seed=derive_seed(SEED, 60, p), message_len=3)
        stats = cafcli._run_alignment_block(sig, eqsys, code, H, trials=300,
                                            noise_var=0.0, strategy="exhaustive",
                                            corrupt=0, seed=derive_seed(SEED, 61, p))
        totals[p] = (stats["demod_symbol_errors"], stats["equation_block_errors"],
                     stats["message_mismatches"])
    ok = all(v == (0, 0, 0) for v in totals.values())
    gate("4b noiseless canonical K=2 L=1, p in {3,5,7}", ok, f"error counts {totals}")


@pytest.fixture(scope="module")
def demod_error_rates():
    """Per-symbol demodulation error indicators at tight margin c5 sqrt(p)."""
    rng = child_rng(SEED, 7)
    H = rng.uniform(0.5, 2.0, size=(2, 2))
    c5 = 1.0
    n = 10**4
    out = {}
    for p in (3, 5, 7):
        sig = al.canonical_signature(H, 1, p)
        eqsys = al.derive_equation_system(sig)
        sig.scaling = al.tight_scaling_factor(eqsys, c5)
        w = [child_rng(SEED, 8, p, kk).integers(0, p, size=(1, n)) for kk in range(2)]
        x = al.modulate(w, sig)
        y = al.awgn_channel(x, H, rng=child_rng(SEED, 9, p), noise_variance=1.0)
        truth = al.true_equations(w, eqsys)
        errs = np.zeros(n, dtype=bool)
        for m in range(2):
            hat = al.ml_demodulate(y[m], eqsys.receivers[m], p, sig.scaling)
            errs |= np.any(hat != truth[m], axis=0)
        out[p] = errs
    return out, c5


def test_criterion_4_noisy_error_bound(demod_error_rates):
    rates_by_p, c5 = demod_error_rates
    details = []
    ok = True
    for p, errs in rates_by_p.items():
        n = errs.size
        rate = errs.mean()
        bound = math.exp(-0.5 * c5 * c5 * p)
        slack = 3.0 * math.sqrt(max(bound * (1 - bound), 1e-12) / n)
        details.append(f"p={p}: {rate:.4f} <= {bound:.4f}+{slack:.4f}")
        ok = ok and rate <= bound + slack
    gate("4c demod error within exp(-m^2/2) + 3 sigma", ok, "; ".join(details))


def test_criterion_4_error_rate_nonincreasing(demod_error_rates):
    rates_by_p, _ = demod_error_rates
    primes = sorted(rates_by_p)
    rng = np.random.default_rng(derive_seed(SEED, 10))
    ok = True
    details = []
    for p1, p2 in zip(primes, primes[1:]):
        e1, e2 = rates_by_p[p1], rates_by_p[p2]
        diffs = []
        for _ in range(1000):
            d = (rng.choice(e2, size=e2.size).mean()
                 - rng.choice(e1, size=e1.size).mean())
            diffs.append(d)
        q95 = float(np.quantile(diffs, 0.95))
        details.append(f"{p1}->{p2}: diff95 {q95:.5f}")
        ok = ok and q95 <= 0.0
    gate("4d error rate nonincreasing in p (bootstrap 95%)", ok, "; ".join(details))


# ------------------------------------------------------------ criterion 5


def _inversion_batch(k: int, l: int, p: int, count: int, stream: int):
    rng = child_rng(SEED, stream)
    passed = 0
    tried = 0
    while passed < count:
        tried += 1
        H = rng.uniform(0.5, 2.0, size=(k, k))
        try:
            sig = al.canonical_signature(H, l, p)
        except NonGenericChannelError:
            continue
        eqsys = al.derive_equation_system(sig)
        report = inv.injectivity_check(eqsys)
        if not report.injective:
            return False, f"rank {report.rank} != {report.expected_rank} at instance {tried}"
        w = [rng.integers(0, p, size=(len(v),)) for v in sig.values]
        u = [np.asarray(t) % p for t in al.true_equations(w, eqsys)]
        peel = inv.peel_invert(eqsys, u)
        solve = inv.solve_linear(inv.build_incidence(eqsys), u, eqsys)
        if solve.values is None:
            return False, f"linear solve rank-deficient at instance {tried}"
        column = {key: c for c, key in enumerate(map(tuple, eqsys.col_keys.tolist()))}
        for key, c in column.items():
            if not np.array_equal(peel.values[c], solve.values[c]):
                return False, f"peel != solve at instance {tried}, column {key}"
        for kk in range(k):
            for i in range(len(sig.values[kk])):
                if int(peel.values[column[kk, i], 0]) != int(w[kk][i]):
                    return False, f"recovered message wrong at instance {tried}"
        passed += 1
    return True, f"{passed}/{passed} instances injective and peel == solve"


def test_criterion_5_inversion_k2():
    ok, detail = _inversion_batch(2, 2, 5, 100, 11)
    gate("5a inversion K=2 L=2 p=5 x100", ok, detail)


def test_criterion_5_inversion_k3():
    ok, detail = _inversion_batch(3, 2, 3, 20, 12)
    gate("5b inversion K=3 L=2 p=3 x20", ok, detail)


# ------------------------------------------------------------ criterion 6


def test_criterion_6_gv_codes():
    details = []
    ok = True
    for p, t, d in ((2, 7, 3), (3, 8, 3), (5, 6, 3)):
        S = fpcode.gv_search(p, t, d, seed=derive_seed(SEED, 13, p))
        dist = fpcode.min_distance(S)
        target = t * (1.0 - fpcode.p_ary_entropy(p, (d - 1) / t))
        meets_rate = S.message_len >= target
        details.append(f"[{t},{S.message_len}]_{p}: d={dist} (attempts {S.attempts})")
        ok = ok and dist >= d and meets_rate
    # binary case: correct every pattern of weight <= floor((d-1)/2) = 1
    S2 = fpcode.gv_search(2, 7, 3, seed=derive_seed(SEED, 13, 2))
    for msg in fpcode.all_messages(2, S2.message_len):
        word = fpcode.encode(S2, msg)
        for pattern in [np.zeros(7, dtype=int)] + [np.eye(7, dtype=int)[i] for i in range(7)]:
            res = fpcode.md_decode(S2, (word + pattern) % 2)
            ok = ok and np.array_equal(res.message, msg)
    gate("6 GV codes found, verified, single-error correcting", ok, "; ".join(details))


# ------------------------------------------------------------ criterion 7


def test_criterion_7_golden_envelope_slope():
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    fit = dio.khinchin_decay_fit([golden], 10**4)
    ok = (not fit.degenerate) and -1.3 <= fit.slope <= -0.7
    gate("7a golden-ratio envelope slope in [-1.3, -0.7]", ok, f"slope {fit.slope:.4f}")


def test_criterion_7_mitm_equals_exhaustive():
    rng = child_rng(SEED, 14)
    mismatches = 0
    for _ in range(50):
        n = int(rng.integers(2, 7))
        values = rng.uniform(0.1, 3.0, size=n)
        shift = bool(rng.integers(0, 2))
        ex = dio.monomial_separation(values, 2, integer_shift=shift, mode="exhaustive")
        mm = dio.monomial_separation(values, 2, integer_shift=shift, mode="mitm")
        if ex != mm:
            mismatches += 1
    gate("7b meet-in-the-middle == exhaustive on 50 instances", mismatches == 0,
         f"{mismatches} mismatches")


# ------------------------------------------------------------ criterion 8


def test_criterion_8_rate_identity():
    """rate_power_ratio tends to K|G_L| / (|G_{L+1}| + 1) = 2/17 for K=2, L=1.

    With eps = 0 and c4 = 1, achievable_rate is K|G_L| log2 p and half of
    log2 power_bound is |G_{L+1}| log2(Kp) + K^2 log2 L + log2 p, so the
    relative gap to the limit is exactly c / ((|G_{L+1}| + 1) log2 p + c) with
    c = |G_{L+1}| log2 K + K^2 log2 L: 16 / (17 log2 p + 16) here. It first
    drops to 5% at the prime 241,639.
    """
    k, l = 2, 1
    g_l, g_next = al.monomial_card(k, l), al.monomial_card(k, l + 1)
    limit = k * g_l / (g_next + 1)
    offset = g_next * math.log2(k) + k * k * math.log2(l)

    def gap(p):
        return 1.0 - al.rate_power_ratio(k, l, p) / limit

    def closed_gap(p):
        return offset / ((g_next + 1) * math.log2(p) + offset)

    checkpoints = [101, 1009, 9973]  # primes approaching 1e4
    ratios = [al.rate_power_ratio(k, l, p) for p in checkpoints]
    increasing = all(a < b for a, b in zip(ratios, ratios[1:]))
    exact = all(gap(p) == pytest.approx(closed_gap(p), rel=1e-12) for p in checkpoints)
    below, first = 241_603, 241_639  # consecutive primes around the 5% crossing
    five_pct = gap(first) <= 0.05 < gap(below)
    ok = increasing and exact and five_pct
    gate(f"8 rate/(half log2 power) -> {k * g_l}/{g_next + 1}: closed-form gap, "
         f"5% first at p={first}", ok,
         "gaps " + ", ".join(f"p={p}: {gap(p):.7f} (closed form {closed_gap(p):.7f})"
                             for p in checkpoints + [below, first])
         + f"; monotone: {increasing}")
