"""Monomial-signature modulation, AWGN transmission, and ML demodulation.

Each transmitter k sends a scaled integer combination of monomial
signatures, x_k = B sum_i w[k,i] g[k,i]. The channel multiplies signature
g[k,i] by the gain h[m,k], so the receive coefficient is again a monomial;
submessages whose receive monomials coincide fuse into one integer
equation. Grouping is exact on exponent tuples (never on float values);
floats enter only through signal distances.

The signature constructors return B = 1; ``caf align`` sets
``SignatureMap.scaling`` per prime from the equation system it derives:

* ``worstcase``: B = (Kp)^|G_{L+1}| (``_worstcase_scaling``), the
  conservative constant that makes the half-minimum-distance argument work
  for every generic channel. Even K=2, L=1 then needs powers around 1e25,
  so this mode is for bound verification, not simulation.
* ``tight``: B = 2 c5 sqrt(p) / sep (``tight_scaling_factor``), where sep
  is the measured minimum signal-point distance (brute force over the
  actual receive monomials at unit scaling). The demodulation margin is
  then exactly c5 sqrt(p), so the per-symbol error obeys the same
  exp(-c5^2 p / 2) tail with a constant calibrated per instance instead of
  assumed.
* ``unit``: B = 1, for structural work and noiseless pipelines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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
DEMOD_CHUNK_CELLS = 1 << 16  # cells per ml_demodulate temporary


@dataclass
class SignatureMap:
    """Who transmits which monomial, and at what amplitude.

    Transmitter k sends submessage i on signature row i: ``exponents[k][i]``
    is the row's exponent tuple over the symbol alphabet and ``values[k][i]``
    its float value. ``gain_exponents[m, k]`` is the exponent contribution
    of passing through h[m, k], over the same alphabet (for the canonical
    scheme the alphabet is all K^2 gains, one-hot per gain; in the worked
    two-user example the unit diagonal gains contribute nothing).
    """

    h: np.ndarray
    gain_exponents: np.ndarray  # (K, K, symbols) int64
    exponents: list  # per transmitter: (n_k, symbols) int64
    values: list  # per transmitter: (n_k,) float64
    p: int
    scaling: float = 1.0
    l: int | None = None

    @property
    def k(self) -> int:
        return self.h.shape[0]

    def submessage_count(self) -> int:
        return sum(len(v) for v in self.values)


@dataclass
class EquationGroup:
    exponents: tuple
    value: float
    contributors: list  # (transmitter k, submessage index), sorted


@dataclass(eq=False)
class EquationSystem:
    """The receive equations of a signature map, held as index arrays.

    Row g of receiver m is one receive monomial: ``exponents[m][g]`` is its
    exponent tuple and ``values[m][g]`` its float value. Rows are numbered
    over all receivers in turn (receiver 0's first). Incidence nonzero j
    says that submessage ``col_keys[cols[j]]`` contributes to row
    ``rows[j]``; the nonzeros are sorted by (row, column). Column c is the
    signature's row c counted over all transmitters in turn, so
    ``col_keys`` is (transmitter k, row i) in that order.
    """

    exponents: list  # per receiver: (groups, symbols) int64, in row order
    values: list  # per receiver: (groups,) float64, in row order
    rows: np.ndarray  # (nonzeros,) int64
    cols: np.ndarray  # (nonzeros,) int64, positions in col_keys
    col_keys: np.ndarray  # (columns, 2) int64 (k, i), sorted
    p: int
    signature: SignatureMap

    @property
    def k(self) -> int:
        return len(self.values)

    def _row_bounds(self) -> np.ndarray:
        """Nonzeros of row r are positions ``bounds[r]:bounds[r + 1]``."""
        n_rows = sum(len(v) for v in self.values)
        return np.searchsorted(self.rows, np.arange(n_rows + 1))

    @cached_property
    def receivers(self) -> list:
        """Per receiver, its ``EquationGroup`` list in row order, built on first access.

        Only demodulation reads this view; everything else reads the arrays.
        """
        keys = list(map(tuple, self.col_keys.tolist()))
        cols = self.cols.tolist()
        bounds = self._row_bounds().tolist()
        out, r = [], 0
        for exps, vals in zip(self.exponents, self.values):
            groups = []
            for e, v in zip(exps.tolist(), vals):
                contributors = [keys[c] for c in cols[bounds[r]:bounds[r + 1]]]
                groups.append(EquationGroup(tuple(e), v, contributors))
                r += 1
            out.append(groups)
        return out


def monomial_card(k: int, l: int) -> int:
    """|G_L| = L^(K^2)."""
    return l ** (k * k)


def _canonical_gain_exponents(k: int) -> np.ndarray:
    """``gain_exponents`` of the canonical scheme: h[m, k] is the one-hot symbol m K + k."""
    return np.eye(k * k, dtype=np.int64).reshape(k, k, k * k)


def canonical_signature(H, L: int, p: int) -> SignatureMap:
    """One submessage per monomial of G_L at every transmitter, at B = 1.

    Rejects channels whose G_{L+1} monomials collide (non-generic). The
    scaling is the caller's: ``tight_scaling_factor`` of the derived
    equation system, or ``_worstcase_scaling``.
    """
    H = np.asarray(H, dtype=float)
    k = H.shape[0]
    if not is_prime(p):
        raise InvalidArgumentError(f"{p} is not prime")
    if L < 1:
        raise InvalidArgumentError("degree bound L must be >= 1")
    big = diophantine.build_monomial_set(H, L + 1)
    if not diophantine.check_unique_factorization(big.values):
        raise NonGenericChannelError(
            "channel monomials collide up to degree L+1; resample H"
        )
    # G_L in exponent order, so the equation structure (and the incidence
    # matrix built from it) never depends on float values of H. Its values
    # are the G_{L+1} build's prefix products, bit for bit; G_{L+1} passed
    # the range check, so they are all in range
    n = k * k
    exps = diophantine._lex_digits(np.arange(L ** n), L, n)
    vals = diophantine._prefix_products(H.reshape(-1), L).astype(float)
    # every transmitter uses all of G_L, so they share the two arrays
    return SignatureMap(H, _canonical_gain_exponents(k), [exps] * k, [vals] * k, p, 1.0, L)


def example_signature(H, p: int = 5) -> SignatureMap:
    """The two-user alignment example: split each message in two, at B = 1.

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
    if not np.all(np.isfinite(H)):
        raise InvalidArgumentError("example channel gains must be finite")
    if not is_prime(p):
        raise InvalidArgumentError(f"{p} is not prime")
    h1, h2 = float(H[1, 0]), float(H[0, 1])
    # genericity over the two off-diagonal gains: all monomials h1^a h2^b
    # appearing in signatures or receive coefficients must be distinct
    vals = [(h1**a) * (h2**b) for a in range(4) for b in range(3)]
    if not diophantine.check_unique_factorization(vals):
        raise NonGenericChannelError(
            "example channel gains collide (e.g. h1 = h2 makes h1 h2 = h1^2)"
        )
    # alphabet (h1, h2); unit diagonal gains contribute no exponents
    gain_exp = np.array([[[0, 0], [0, 1]], [[1, 0], [0, 0]]], dtype=np.int64)
    exponents = [np.array([[0, 0], [1, 1]], dtype=np.int64),
                 np.array([[1, 0], [2, 1]], dtype=np.int64)]
    values = [np.array([1.0, h1 * h2]), np.array([h1, h1 * h1 * h2])]
    return SignatureMap(H, gain_exp, exponents, values, p)


def derive_equation_system(sig: SignatureMap) -> EquationSystem:
    """Group (transmitter, submessage) pairs by receive exponent tuple at ``sig.h``.

    Grouping is exact integer arithmetic on exponents; the attached float
    values are only carried along for distance computations. A group's
    value is the product of its first contributor in transmitter order,
    and rows are ordered by (value, exponent tuple). Distinct exponent
    groups whose values collide under
    ``diophantine.check_unique_factorization`` mark a non-generic channel
    and are rejected.
    """
    width = sig.gain_exponents.shape[-1]
    if any(e.shape[1] != width for e in sig.exponents):
        raise InvalidArgumentError("signature alphabet mismatch")
    k = sig.k
    counts = [len(v) for v in sig.values]
    n = sum(counts)
    # columns are the signature rows, transmitter after transmitter
    owner = np.repeat(np.arange(k), counts)
    col_keys = np.stack([owner, np.concatenate([np.arange(c) for c in counts])], axis=1)
    # every (receiver m, submessage) pair, receiver-major
    exps = (np.concatenate(sig.exponents) + sig.gain_exponents[:, owner]).reshape(k * n, -1)
    vals = (np.concatenate(sig.values) * sig.h[:, owner]).reshape(-1)
    receiver = np.repeat(np.arange(k), n)
    # stable: equal (receiver, exponent tuple) keys keep transmitter order, so
    # the first of a run is the group's first contributor
    order = np.lexsort((*exps.T[::-1], receiver))
    exps, vals, receiver = exps[order], vals[order], receiver[order]
    first = np.concatenate(([True], np.any(exps[1:] != exps[:-1], axis=1)
                            | (receiver[1:] != receiver[:-1])))
    # groups are in (receiver, exponents) order; a stable sort by (receiver,
    # value) numbers the rows in (receiver, value, exponents) order
    rank = np.lexsort((vals[first], receiver[first]))
    row_of = np.empty_like(rank)
    row_of[rank] = np.arange(len(rank))
    ends = np.cumsum(np.bincount(receiver[first], minlength=k))[:-1]
    exponents = np.split(exps[first][rank], ends)
    values = np.split(vals[first][rank], ends)
    for m, v in enumerate(values):
        if not diophantine.check_unique_factorization(v):
            raise NonGenericChannelError(
                f"receive monomials collide at receiver {m}; resample H"
            )
    rows, cols = row_of[np.cumsum(first) - 1], order % n
    nz = np.lexsort((cols, rows))
    return EquationSystem(exponents, values, rows[nz], cols[nz], col_keys, sig.p, sig)


def tight_scaling_factor(eqsys: EquationSystem, c5_target: float = 1.0) -> float:
    """B such that half the minimum signal distance equals c5 sqrt(p).

    The separation oracle runs per receiver over that receiver's receive
    monomials with coefficient ranges matching the true equation ranges
    [0, c_g (p-1)]. c5_target must be finite and positive.
    """
    if not (math.isfinite(c5_target) and c5_target > 0):
        raise InvalidArgumentError(f"c5 must be finite and > 0, got {c5_target}")
    p = eqsys.p
    ranges = np.diff(eqsys._row_bounds()) * (p - 1)
    sep, start = math.inf, 0
    for values in eqsys.values:
        sep = min(sep, diophantine.monomial_separation(
            values, ranges[start:start + len(values)], integer_shift=False))
        start += len(values)
    if not sep > 0.0:
        raise NonGenericChannelError("zero receive separation; channel is degenerate")
    return 2.0 * c5_target * math.sqrt(p) / sep


def _worstcase_scaling(k: int, l: int, p: int) -> float:
    """B = (Kp)^|G_{L+1}|, the channel-independent worst-case constant."""
    card = monomial_card(k, l + 1)
    log2_b = card * math.log2(k * p)
    if log2_b > 1020.0:
        raise NumericRangeError(
            f"worst-case scaling needs 2^{log2_b:.0f}, beyond float range"
        )
    return float((k * p) ** card)


def _as_submessage_arrays(submessages, sig: SignatureMap):
    if len(submessages) != sig.k:
        raise InvalidArgumentError("need one submessage array per transmitter")
    out = []
    for kk, w in enumerate(submessages):
        w = np.asarray(w, dtype=np.int64)
        if w.shape[0] != len(sig.values[kk]):
            raise InvalidArgumentError(
                f"transmitter {kk} expects {len(sig.values[kk])} submessages"
            )
        if np.any(w < 0) or np.any(w > sig.p - 1):
            raise InvalidArgumentError("submessage values must lie in [0, p-1]")
        out.append(w)
    return out


def modulate(submessages, sig: SignatureMap) -> np.ndarray:
    """x_k = B sum_i w[k, i] g[k, i]; accepts (n_k,) or (n_k, T) per transmitter."""
    ws = _as_submessage_arrays(submessages, sig)
    return np.stack([sig.scaling * np.tensordot(g, w, axes=(0, 0))
                     for g, w in zip(sig.values, ws)])


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


def true_equations(submessages, eqsys: EquationSystem) -> list:
    """Integer sum of contributors per receive group (no modular reduction).

    ``submessages`` are checked against ``eqsys.signature``.
    """
    # column c is the signature's row c over all transmitters in turn
    by_col = np.concatenate(_as_submessage_arrays(submessages, eqsys.signature))
    bounds = eqsys._row_bounds()
    count = np.diff(bounds)
    sums = np.zeros((len(count),) + by_col.shape[1:], dtype=np.int64)
    # one pass per contributor slot; a canonical row has at most K contributors
    for j in range(count.max(initial=0)):
        has = np.flatnonzero(count > j)
        sums[has] += by_col[eqsys.cols[bounds[has] + j]]
    return np.split(sums, np.cumsum([len(v) for v in eqsys.values])[:-1])


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
) -> np.ndarray:
    """Nearest signal point: argmin over tuples u of |y - B sum u_g g_g|.

    Group g ranges over [0, c_g (p-1)] with c_g the contributor count.
    Ties go to the lexicographically smallest tuple. Strategies:
    ``exhaustive`` (full enumeration) and ``mitm`` (half-split with sorted
    probing over the same floats; identical output unless rounding moves
    the nearest point out of the probe window, which takes signal values
    near 2^52). A run that bypasses demodulation (``caf align``'s
    ``demod_strategy=oracle``) uses the true equations and does not call
    this function.

    Both searches run over chunks of symbols, so every temporary holds at
    most ``DEMOD_CHUNK_CELLS`` cells, or one symbol's row when a row is
    wider: (chunk, candidates) distances for ``exhaustive``, (5, chunk,
    left half) probes for ``mitm``. Memory is therefore bounded by the
    chunk, the candidate tables and the (groups, symbols) output, not by
    symbols x candidates. ``budget`` caps the candidate count (exhaustive)
    or the larger half (mitm). Non-finite ``y_m`` or ``scaling`` raises
    ``InvalidArgumentError``.
    """
    y = np.atleast_1d(np.asarray(y_m, dtype=float))
    if strategy not in ("exhaustive", "mitm"):
        raise InvalidArgumentError(f"unknown demod strategy {strategy!r}")
    if not (np.all(np.isfinite(y)) and math.isfinite(scaling)):
        raise InvalidArgumentError("demodulation inputs y_m and scaling must be finite")
    limits = [len(g.contributors) * (p - 1) for g in groups]
    values = np.array([g.value for g in groups])
    nl = len(limits) // 2
    n_left = math.prod(l + 1 for l in limits[:nl])
    n_right = math.prod(l + 1 for l in limits[nl:])
    if strategy == "exhaustive" and n_left * n_right > budget:
        raise ResourceLimitError(
            f"{n_left * n_right} demod candidates exceed budget {budget}; use "
            "strategy='mitm' or oracle injection"
        )
    if strategy == "mitm" and max(n_left, n_right) > budget:
        raise ResourceLimitError(
            f"mitm demod half of {max(n_left, n_right)} exceeds budget {budget}"
        )
    left = _candidate_tuples(limits[:nl]) if nl else np.zeros((1, 0), dtype=np.int64)
    right = _candidate_tuples(limits[nl:])
    wl = scaling * (left @ values[:nl]) if nl else np.zeros(1)
    wr = scaling * (right @ values[nl:])
    if strategy == "exhaustive":
        signal = (wl[:, None] + wr[None, :]).reshape(-1)
        width = signal.size

        def nearest(yc):
            # first min = lexicographic tie-break; exact row by row
            best = np.argmin(np.abs(yc[:, None] - signal[None, :]), axis=1)
            return np.divmod(best, len(wr))
    else:
        order = np.argsort(wr, kind="stable")
        swr = wr[order]
        # right index of the first position of each equal-value run of swr:
        # the stable sort makes it the smallest index of the run, and every
        # position of the run has the same value, hence the same distance
        run_start = np.r_[True, swr[1:] != swr[:-1]]
        first = np.maximum.accumulate(np.where(run_start, np.arange(len(swr)), 0))
        run_index = order[first]
        window = np.arange(-2, 3)[:, None, None]
        width = len(wl) * len(window)

        def nearest(yc):
            j = np.searchsorted(swr, yc[:, None] - wl)
            # probe j-2 .. j+2 as (window, symbol, left index); clipping
            # lands on positions the window already holds
            pos = np.clip(j + window, 0, len(swr) - 1)
            d = np.abs(yc[:, None] - (wl + swr[pos]))
            # lexicographic on (distance, left index, right index)
            d_min = d.min(axis=0)
            r_min = np.where(d == d_min, run_index[pos], len(swr)).min(axis=0)
            best_l = np.argmin(d_min, axis=1)
            return best_l, r_min[np.arange(len(yc)), best_l]

    idx_l = np.empty(y.size, dtype=np.int64)
    idx_r = np.empty(y.size, dtype=np.int64)
    step = max(1, DEMOD_CHUNK_CELLS // width)
    for s in range(0, y.size, step):
        idx_l[s:s + step], idx_r[s:s + step] = nearest(y[s:s + step])
    out = np.concatenate([left[idx_l], right[idx_r]], axis=1).T
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
