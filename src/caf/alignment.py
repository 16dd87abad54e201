"""Monomial-signature modulation, AWGN transmission, and ML demodulation.

Each transmitter k sends a scaled integer combination of monomial
signatures, x_k = B sum_i w[k,i] g[k,i]. The channel multiplies signature
g[k,i] by the gain h[m,k], so the receive coefficient is again a monomial;
submessages whose receive monomials coincide fuse into one integer
equation. Grouping is exact on exponent tuples (never on float values);
floats enter only through signal distances.

Scaling modes:

* ``worstcase``: B = (Kp)^|G_{L+1}|, the conservative constant that makes
  the half-minimum-distance argument work for every generic channel. Even
  K=2, L=1 then needs powers around 1e25, so this mode is for bound
  verification, not simulation.
* ``tight``: B = 2 c5 sqrt(p) / sep, where sep is the measured minimum
  signal-point distance (brute force over the actual receive monomials at
  unit scaling). The demodulation margin is then exactly c5 sqrt(p), so
  the per-symbol error obeys the same exp(-c5^2 p / 2) tail with a
  constant calibrated per instance instead of assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import diophantine
from .errors import (
    InfeasiblePowerError,
    InvalidArgumentError,
    NonGenericChannelError,
    NumericRangeError,
    ResourceLimitError,
)
from .fpcode import is_prime, p_ary_entropy

DEMOD_BUDGET = 1 << 18


@dataclass(frozen=True)
class Submessage:
    index: int
    exponents: tuple
    value: float


@dataclass
class SignatureMap:
    """Who transmits which monomial, and at what amplitude.

    ``gain_exponents[m][k]`` is the exponent contribution of passing
    through h[m, k], over the same symbol alphabet as the signature
    exponents (for the canonical scheme the alphabet is all K^2 gains; in
    the worked two-user example the unit diagonal gains contribute
    nothing).
    """

    h: np.ndarray
    gain_exponents: tuple
    transmitters: list
    p: int
    scaling: float = 1.0
    l: int | None = None
    mode: str = "unit"

    @property
    def k(self) -> int:
        return self.h.shape[0]

    def submessage_count(self) -> int:
        return sum(len(t) for t in self.transmitters)


@dataclass
class EquationGroup:
    exponents: tuple
    value: float
    contributors: list  # (transmitter k, submessage index), sorted


@dataclass
class EquationSystem:
    receivers: list  # per receiver: ordered list of EquationGroup
    p: int
    scaling: float
    signature: "SignatureMap | None" = None

    @property
    def k(self) -> int:
        return len(self.receivers)


def monomial_card(k: int, l: int) -> int:
    """|G_L| = L^(K^2)."""
    return l ** (k * k)


def canonical_signature(
    H,
    L: int,
    p: int,
    mode: str = "worstcase",
    c5_target: float = 1.0,
    rel_tol: float = diophantine.UNIQUE_FACTORIZATION_REL_TOL,
) -> SignatureMap:
    """One submessage per monomial of G_L at every transmitter.

    Rejects channels whose G_{L+1} monomials collide (non-generic). In
    ``tight`` mode the scaling is calibrated from the measured receive
    separation so the demod margin is c5_target * sqrt(p); ``worstcase``
    uses the channel-independent constant, ``unit`` leaves B = 1 for
    structural work (equation systems, incidence ranks).
    """
    H = np.asarray(H, dtype=float)
    k = H.shape[0]
    if not is_prime(p):
        raise InvalidArgumentError(f"{p} is not prime")
    big = diophantine.build_monomial_set(H, L + 1)
    if not diophantine.check_unique_factorization(big, rel_tol):
        raise NonGenericChannelError(
            "channel monomials collide up to degree L+1; resample H"
        )
    mset = diophantine.build_monomial_set(H, L)
    # index submessages in exponent order so the equation structure (and the
    # incidence matrix built from it) never depends on float values of H
    by_exponent = sorted(mset.monomials, key=lambda mono: mono.exponents)
    subs = [Submessage(i, m.exponents, m.value) for i, m in enumerate(by_exponent)]
    n = k * k
    gain_exp = tuple(
        tuple(tuple(1 if j == m * k + kk else 0 for j in range(n)) for kk in range(k))
        for m in range(k)
    )
    sig = SignatureMap(H, gain_exp, [list(subs) for _ in range(k)], p, 1.0, L, mode)
    if mode == "worstcase":
        card = monomial_card(k, L + 1)
        log2_b = card * math.log2(k * p)
        if log2_b > 1020.0:
            raise NumericRangeError(
                f"worst-case scaling needs 2^{log2_b:.0f}, beyond float range"
            )
        sig.scaling = float((k * p) ** card)
    elif mode == "tight":
        eqsys = derive_equation_system(sig, H, rel_tol)
        sig.scaling = tight_scaling_factor(eqsys, c5_target)
    elif mode != "unit":
        raise InvalidArgumentError(f"unknown scaling mode {mode!r}")
    return sig


def example_signature(H, p: int = 5, mode: str = "unit", c5_target: float = 1.0) -> SignatureMap:
    """The two-user alignment example: split each message in two.

    Requires H = [[1, h2], [h1, 1]]. Transmitter 1 uses signatures
    {1, h1 h2}, transmitter 2 uses {h1, h1^2 h2}; receiver 1 then sees
    three effective coefficients and receiver 2 two, for 4 submessages
    over 3 channel uses' worth of equations (4/3 degrees of freedom).
    """
    H = np.asarray(H, dtype=float)
    if H.shape != (2, 2):
        raise InvalidArgumentError("the worked example is K=2 only")
    if H[0, 0] != 1.0 or H[1, 1] != 1.0:
        raise InvalidArgumentError("expected unit diagonal: H = [[1, h2], [h1, 1]]")
    if not is_prime(p):
        raise InvalidArgumentError(f"{p} is not prime")
    h1, h2 = float(H[1, 0]), float(H[0, 1])
    # genericity over the two off-diagonal gains: all monomials h1^a h2^b
    # appearing in signatures or receive coefficients must be distinct
    vals = {}
    for a in range(4):
        for b in range(3):
            vals[(a, b)] = (h1**a) * (h2**b)
    flat = sorted(vals.values(), key=abs)
    scale = max(abs(v) for v in flat) or 1.0
    for x, y in zip(flat, flat[1:]):
        if abs(y - x) <= 1e-9 * scale:
            raise NonGenericChannelError(
                "example channel gains collide (e.g. h1 = h2 makes h1 h2 = h1^2)"
            )
    # alphabet (h1, h2); unit diagonal gains contribute no exponents
    gain_exp = (((0, 0), (0, 1)), ((1, 0), (0, 0)))
    tx1 = [Submessage(0, (0, 0), 1.0), Submessage(1, (1, 1), h1 * h2)]
    tx2 = [Submessage(0, (1, 0), h1), Submessage(1, (2, 1), h1 * h1 * h2)]
    sig = SignatureMap(H, gain_exp, [tx1, tx2], p, 1.0, None, mode)
    if mode == "tight":
        eqsys = derive_equation_system(sig, H)
        sig.scaling = tight_scaling_factor(eqsys, c5_target)
    elif mode != "unit":
        raise InvalidArgumentError(f"unsupported scaling mode {mode!r} for the example")
    return sig


def derive_equation_system(
    sig: SignatureMap, H=None, rel_tol: float = diophantine.UNIQUE_FACTORIZATION_REL_TOL
) -> EquationSystem:
    """Group (transmitter, submessage) pairs by receive exponent tuple.

    Grouping is exact integer arithmetic on exponents; the attached float
    values are only carried along for distance computations. Distinct
    exponent groups whose values collide at rel_tol mark a non-generic
    channel and are rejected.
    """
    H = sig.h if H is None else np.asarray(H, dtype=float)
    k = sig.k
    receivers = []
    for m in range(k):
        groups = {}
        for kk in range(k):
            gexp = sig.gain_exponents[m][kk]
            for sub in sig.transmitters[kk]:
                if len(sub.exponents) != len(gexp):
                    raise InvalidArgumentError("signature alphabet mismatch")
                key = tuple(a + b for a, b in zip(sub.exponents, gexp))
                val = sub.value * H[m, kk]
                entry = groups.setdefault(key, [val, []])
                entry[1].append((kk, sub.index))
        ordered = [
            EquationGroup(key, val, sorted(contrib))
            for key, (val, contrib) in sorted(groups.items(), key=lambda kv: (kv[1][0], kv[0]))
        ]
        vals = [g.value for g in ordered]
        scale = max((abs(v) for v in vals), default=1.0) or 1.0
        for x, y in zip(vals, vals[1:]):
            if abs(y - x) <= rel_tol * scale:
                raise NonGenericChannelError(
                    f"receive monomials collide at receiver {m}; resample H"
                )
        receivers.append(ordered)
    return EquationSystem(receivers, sig.p, sig.scaling, sig)


def tight_scaling_factor(eqsys: EquationSystem, c5_target: float = 1.0) -> float:
    """B such that half the minimum signal distance equals c5 sqrt(p).

    The separation oracle runs per receiver over that receiver's receive
    monomials with coefficient ranges matching the true equation ranges
    [0, c_g (p-1)].
    """
    p = eqsys.p
    sep = math.inf
    for groups in eqsys.receivers:
        values = [g.value for g in groups]
        ranges = [len(g.contributors) * (p - 1) for g in groups]
        sep = min(
            sep,
            diophantine.monomial_separation(values, ranges, integer_shift=False),
        )
    if not sep > 0.0:
        raise NonGenericChannelError("zero receive separation; channel is degenerate")
    return 2.0 * c5_target * math.sqrt(p) / sep


def _as_submessage_arrays(submessages, sig: SignatureMap):
    if len(submessages) != sig.k:
        raise InvalidArgumentError("need one submessage array per transmitter")
    out = []
    for kk, w in enumerate(submessages):
        w = np.asarray(w, dtype=np.int64)
        if w.shape[0] != len(sig.transmitters[kk]):
            raise InvalidArgumentError(
                f"transmitter {kk} expects {len(sig.transmitters[kk])} submessages"
            )
        if np.any(w < 0) or np.any(w > sig.p - 1):
            raise InvalidArgumentError("submessage values must lie in [0, p-1]")
        out.append(w)
    return out


def modulate(submessages, sig: SignatureMap) -> np.ndarray:
    """x_k = B sum_i w[k, i] g[k, i]; accepts (n_k,) or (n_k, T) per transmitter."""
    ws = _as_submessage_arrays(submessages, sig)
    cols = []
    for kk, w in enumerate(ws):
        g = np.array([s.value for s in sig.transmitters[kk]])
        cols.append(sig.scaling * np.tensordot(g, w, axes=(0, 0)))
    return np.stack(cols)


def awgn_channel(x, H, rng=None, noise_variance: float = 1.0) -> np.ndarray:
    """y = H x + z with z i.i.d. N(0, noise_variance); deterministic per seed."""
    x = np.asarray(x, dtype=float)
    H = np.asarray(H, dtype=float)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(H))):
        raise InvalidArgumentError("inputs must be finite")
    if not 0.0 <= noise_variance < math.inf:
        raise InvalidArgumentError(f"noise variance must be finite and >= 0, got {noise_variance}")
    y = np.tensordot(H, x, axes=(1, 0))
    if noise_variance > 0.0:
        if rng is None or isinstance(rng, (int, np.integer)):
            rng = np.random.default_rng(rng)
        y = y + math.sqrt(noise_variance) * rng.standard_normal(y.shape)
    return y


def true_equations(submessages, eqsys: EquationSystem, sig: SignatureMap) -> list:
    """Integer sum of contributors per receive group (no modular reduction)."""
    ws = _as_submessage_arrays(submessages, sig)
    out = []
    for groups in eqsys.receivers:
        rows = [sum(ws[kk][i] for kk, i in g.contributors) for g in groups]
        out.append(np.stack(rows) if rows else np.zeros((0,), dtype=np.int64))
    return out


def _candidate_tuples(limits) -> np.ndarray:
    """All tuples 0 <= u_g <= limit_g, lexicographic, group 0 most significant."""
    axes = [np.arange(l + 1, dtype=np.int64) for l in limits]
    grid = np.meshgrid(*axes, indexing="ij")
    return np.stack(grid, axis=-1).reshape(-1, len(limits))


def ml_demodulate(
    y_m,
    groups,
    p: int,
    scaling: float,
    strategy: str = "exhaustive",
    budget: int = DEMOD_BUDGET,
    oracle_values=None,
) -> np.ndarray:
    """Nearest signal point: argmin over tuples u of |y - B sum u_g g_g|.

    Group g ranges over [0, c_g (p-1)] with c_g the contributor count.
    Ties go to the lexicographically smallest tuple. Strategies:
    ``exhaustive`` (full enumeration), ``mitm`` (half-split with sorted
    probing; same floats, identical output), ``oracle`` (returns the
    injected true equations, for pipeline tests that bypass demodulation).
    """
    y = np.atleast_1d(np.asarray(y_m, dtype=float))
    if strategy == "oracle":
        if oracle_values is None:
            raise InvalidArgumentError("oracle strategy needs oracle_values")
        return np.asarray(oracle_values, dtype=np.int64)
    limits = [len(g.contributors) * (p - 1) for g in groups]
    values = np.array([g.value for g in groups])
    nl = len(limits) // 2
    count = 1
    for l in limits:
        count *= l + 1
    if strategy == "exhaustive":
        if count > budget:
            raise ResourceLimitError(
                f"{count} demod candidates exceed budget {budget}; use "
                "strategy='mitm' or oracle injection"
            )
        left = _candidate_tuples(limits[:nl]) if nl else np.zeros((1, 0), dtype=np.int64)
        right = _candidate_tuples(limits[nl:])
        wl = scaling * (left @ values[:nl]) if nl else np.zeros(1)
        wr = scaling * (right @ values[nl:])
        signal = (wl[:, None] + wr[None, :]).reshape(-1)
        dist = np.abs(y[:, None] - signal[None, :])
        best = np.argmin(dist, axis=1)  # first min = lexicographic tie-break
        idx_l, idx_r = np.divmod(best, len(wr))
        out = np.concatenate([left[idx_l], right[idx_r]], axis=1).T
        return out[:, 0] if np.isscalar(y_m) or np.ndim(y_m) == 0 else out
    if strategy != "mitm":
        raise InvalidArgumentError(f"unknown demod strategy {strategy!r}")
    left = _candidate_tuples(limits[:nl]) if nl else np.zeros((1, 0), dtype=np.int64)
    right = _candidate_tuples(limits[nl:])
    if max(len(left), len(right)) > budget:
        raise ResourceLimitError(
            f"mitm demod half of {max(len(left), len(right))} exceeds budget {budget}"
        )
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


def power_bound(k: int, l: int, p: int, H=None, log2: bool = False) -> float:
    """Worst-case transmit power c4^L (Kp)^(2|G_{L+1}|) L^(2K^2) p^2.

    c4 = (max(1, max |h|))^(2 K^2); pass H to evaluate it, omit for c4 = 1.
    With ``log2=True`` the bound is returned as log2(P), which stays
    representable when the linear value overflows.
    """
    if l < 1 or k < 1:
        raise InvalidArgumentError("need K >= 1, L >= 1")
    c4 = 1.0
    if H is not None:
        H = np.asarray(H, dtype=float)
        c4 = float(max(1.0, np.max(np.abs(H)))) ** (2 * k * k)
    card = monomial_card(k, l + 1)
    log2_p = (
        l * math.log2(c4)
        + 2 * card * math.log2(k * p)
        + 2 * k * k * math.log2(l)
        + 2 * math.log2(p)
    )
    if log2:
        return log2_p
    if log2_p > 1023.0:
        raise NumericRangeError(
            f"power bound 2^{log2_p:.0f} exceeds float range; request log2=True"
        )
    return float(2.0**log2_p)


def error_bound(p: int, c5: float) -> float:
    """Demodulation-error tail exp(-c5^2 p / 2); strictly decreasing in p."""
    if c5 <= 0:
        raise InvalidArgumentError("c5 must be positive")
    return math.exp(-0.5 * c5 * c5 * p)


def select_parameters(
    target_power: float, k: int, H=None, L: int | None = None, log2_target: bool = False
) -> tuple[int, int]:
    """Degree and prime for a power budget.

    L defaults to round(log2(P)^(1/(1+K^2))) clamped to >= 1; p is the
    largest prime with power_bound(K, L, p) <= P. The Bertrand bracket
    P(L, p) <= P <= P(L, 2p) is checked on the result (it holds because
    power_bound grows with p); a failure raises ``InfeasiblePowerError``.
    Comparisons run in the log2 domain so astronomically large budgets are
    fine.
    """
    log2_p_target = float(target_power) if log2_target else math.log2(target_power)
    if L is None:
        L = max(1, round(log2_p_target ** (1.0 / (1 + k * k))))
    if power_bound(k, L, 2, H, log2=True) > log2_p_target:
        raise InfeasiblePowerError(
            f"no prime fits: power_bound(K={k}, L={L}, p=2) already exceeds the target"
        )
    best = p = 2
    while power_bound(k, L, p, H, log2=True) <= log2_p_target:
        best = p
        # next prime
        q = p + 1
        while not is_prime(q):
            q += 1
        p = q
    low = power_bound(k, L, best, H, log2=True)
    high = power_bound(k, L, 2 * best, H, log2=True)
    if not low <= log2_p_target <= high:
        raise InfeasiblePowerError(
            f"Bertrand bracket fails at p={best}: log2 P(L, p) = {low:.6g}, "
            f"log2 P = {log2_p_target:.6g}, log2 P(L, 2p) = {high:.6g}"
        )
    return L, best


def achievable_rate(k: int, l: int, p: int, epsilon: float) -> float:
    """K |G_L| (1 - H_p(2 eps)) log2 p bits per channel use."""
    if not 0.0 <= epsilon < 0.25:
        raise InvalidArgumentError("demodulation error bound must satisfy eps < 1/4")
    return k * monomial_card(k, l) * (1.0 - p_ary_entropy(p, 2.0 * epsilon)) * math.log2(p)


def rate_power_ratio(k: int, l: int, p: int, H=None, epsilon: float = 0.0) -> float:
    """achievable_rate / (1/2 log2 power_bound): the finite-p DoF ratio.

    Converges to K |G_L| / (|G_{L+1}| + 1) as p grows along the primes.
    With eps = 0 and c4 = 1 the relative gap to that limit is exactly
    c / ((|G_{L+1}| + 1) log2 p + c) with c = |G_{L+1}| log2 K + K^2 log2 L;
    for K=2, L=1 that is 16 / (17 log2 p + 16), which is 6.6% at p = 9973
    and first drops to 5% at p = 241639.
    """
    return achievable_rate(k, l, p, epsilon) / (0.5 * power_bound(k, l, p, H, log2=True))
