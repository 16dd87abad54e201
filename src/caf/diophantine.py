"""Monomial sets, unique factorization, and Diophantine separation oracles.

The alignment construction rides on the set of channel-gain monomials

    G_L = { prod_{m,k} h[m,k]^s[m,k] : 0 <= s[m,k] <= L-1 }

and on two approximation quantities: the Khinchin-style error
``max_k min_a |h_k - a/sqrt(q)|`` and the minimum of ``|sum_g q_g g (- a)|``
over bounded integer combinations, which lower-bounds the distance between
modulated signal points. The brute-force minima here act as oracles for the
demodulator's margin and as empirical probes of the decay laws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, NumericRangeError, ResourceLimitError

UNIQUE_FACTORIZATION_REL_TOL = 1e-9

# cap on the number of enumerated integer combinations per separation call
DEFAULT_COMBO_BUDGET = 1 << 22

# cap on the bytes one monomial set is charged (``_monomial_set_bytes``)
MONOMIAL_SET_BYTE_BUDGET = 1 << 30


@dataclass
class MonomialSet:
    """The monomials of G_L at H, sorted by (value, exponents).

    Row i of ``exponents`` (n, K^2) holds monomial i's exponent per gain,
    row-major (m, k); ``values[i]`` is its value at H.
    """

    exponents: np.ndarray
    values: np.ndarray
    l: int
    k: int

    def __len__(self):
        return len(self.values)


def evaluate_monomial(gains_flat: np.ndarray, exponents) -> float:
    """Evaluate prod gains^exponents by squaring in extended precision.

    The scalar reference for ``build_monomial_set``, which applies the same
    multiplications to every monomial at once.
    """
    acc = np.longdouble(1.0)
    for g, e in zip(gains_flat, exponents):
        e = int(e)
        base = np.longdouble(g)
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
    value = float(acc)
    if not np.isfinite(value) or (value == 0.0 and acc != 0):
        raise NumericRangeError(f"monomial value overflow/underflow at exponents {tuple(exponents)}")
    return value


def _monomial_set_bytes(k: int, L: int) -> int:
    """Bytes charged for ``build_monomial_set`` at K = k: per monomial, its
    K^2 int64 exponents and six more 8-byte words. The sort and the digit
    split hold three (values, order, digit buffer), the longdouble
    evaluation before them at most four, plus its range-check masks."""
    return L ** (k * k) * (8 * k * k + 48)


def _lex_digits(index: np.ndarray, L: int, n: int) -> np.ndarray:
    """Exponents of the monomials at ``index`` in exponent-lexicographic order:
    the n base-L digits of each index, most significant first, as (len, n) int64."""
    out = np.empty((len(index), n), dtype=np.int64)
    rest = index.astype(np.int64)
    for j in range(n - 1, -1, -1):
        np.divmod(rest, L, out=(rest, out[:, j]))
    return out


def _prefix_products(gains: np.ndarray, L: int) -> np.ndarray:
    """The longdouble values of all L^len(gains) monomials, in exponent-lexicographic order."""
    acc = np.ones(1, dtype=np.longdouble)
    for gain in gains:
        squares = [np.longdouble(gain)]  # gain^(2^b)
        for _ in range((L - 1).bit_length() - 1):
            squares.append(squares[-1] * squares[-1])
        grown = np.empty((len(acc), L), dtype=np.longdouble)
        grown[:, 0] = acc
        for e in range(1, L):
            top = e.bit_length() - 1
            np.multiply(grown[:, e - (1 << top)], squares[top], out=grown[:, e])
        acc = grown.reshape(-1)
    return acc


def build_monomial_set(H, L: int) -> MonomialSet:
    """All L^(K^2) monomials of the channel gains, sorted by (value, exponents).

    The values are prefix products, gain by gain, in exponent-lexicographic
    order (e_0 most significant): after gain j, entry ``i L + e`` is prefix
    ``i`` times gain j to the power e. That power multiplies in gain^(2^b)
    for each set bit b of e, low bit first, as one multiplication of entry
    ``e`` without its top bit. These are the longdouble multiplications of
    ``evaluate_monomial`` in its order, so every value is bit-identical to
    the scalar evaluation. Since the entries are in exponent order, one
    stable sort of the values gives the (value, exponents) order, ties
    included, and the exponents are the base-L digits of the sorted entries.

    A range error names the first bad monomial in generation order (e_0
    least significant), as a loop of ``evaluate_monomial`` calls does. A set
    charged more than ``MONOMIAL_SET_BYTE_BUDGET`` bytes (K=3 is admitted up
    to L=5, K=4 from L=3 is not) raises ResourceLimitError before any
    allocation.
    """
    H = np.asarray(H, dtype=float)
    if L < 1:
        raise InvalidArgumentError("degree bound L must be >= 1")
    if H.ndim != 2 or H.shape[0] != H.shape[1] or not np.all(np.isfinite(H)):
        raise InvalidArgumentError("H must be a finite square matrix")
    k = H.shape[0]
    n = k * k
    charged = _monomial_set_bytes(k, L)
    if charged > MONOMIAL_SET_BYTE_BUDGET:
        raise ResourceLimitError(
            f"G_{L} at K={k} has {L ** n} monomials, charged {charged} bytes "
            f"against the budget of {MONOMIAL_SET_BYTE_BUDGET}"
        )
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        acc = _prefix_products(H.reshape(-1), L)
        values = acc.astype(float)
    bad = ~np.isfinite(values) | ((values == 0.0) & (acc != 0))
    if np.any(bad):
        exps = _lex_digits(np.flatnonzero(bad), L, n)
        # generation order has e_{n-1} most significant: lexsort's last key
        first = exps[np.lexsort(exps.T)[0]]
        raise NumericRangeError(
            f"monomial value overflow/underflow at exponents {tuple(int(e) for e in first)}"
        )
    del acc, bad  # the charge counts on the sort not overlapping the evaluation
    order = np.argsort(values, kind="stable")
    values = values[order]
    return MonomialSet(_lex_digits(order, L, n), values, L, k)


def check_unique_factorization(values) -> bool:
    """True iff the values are pairwise distinct: the genericity rule.

    Every collision test of the package goes through here. Two values
    collide when their gap is at most ``UNIQUE_FACTORIZATION_REL_TOL``
    times the largest magnitude, which separates genuine collisions from
    float noise at desk scales.
    """
    vals = np.asarray(values, dtype=float)
    scale = float(np.max(np.abs(vals))) if len(vals) else 1.0
    gaps = np.diff(np.sort(vals))
    return bool(np.all(gaps > UNIQUE_FACTORIZATION_REL_TOL * max(scale, 1e-300)))


def khinchin_error(h, q: int) -> float:
    """max_k min_a |h_k - a/sqrt(q)| via nearest-integer rounding."""
    if q < 1:
        raise InvalidArgumentError("q must be a positive integer")
    h = np.atleast_1d(np.asarray(h, dtype=float))
    x = h * math.sqrt(q)
    return float(np.max(np.abs(x - np.round(x))) / math.sqrt(q))


@dataclass
class DecayFit:
    slope: float
    intercept: float
    degenerate: bool
    q: np.ndarray
    envelope: np.ndarray


def khinchin_decay_fit(h, q_max: int) -> DecayFit:
    """Log-log slope of the lower envelope of the Khinchin error.

    The envelope is the running minimum of ``khinchin_error(h, q)`` over
    q = 1..q_max, fitted as a function of q across the whole range (flat
    stretches between records carry their full weight, which is what the
    "can decay no faster than" reading of the decay law describes). Exact
    rational hits drive the envelope to zero and flag the fit degenerate.
    """
    if q_max < 16:
        raise InvalidArgumentError("q_max must be >= 16")
    h = np.atleast_1d(np.asarray(h, dtype=float))
    q = np.arange(1, q_max + 1, dtype=float)
    x = np.abs(h[:, None] * np.sqrt(q))
    err = np.max(np.abs(x - np.round(x)), axis=0) / np.sqrt(q)
    env = np.minimum.accumulate(err)
    if np.min(env) <= 0.0:
        return DecayFit(float("nan"), float("nan"), True, q, env)
    slope, intercept = np.polyfit(np.log(q), np.log(env), 1)
    return DecayFit(float(slope), float(intercept), False, q, env)


def _half_sums(values: np.ndarray, ranges: np.ndarray) -> np.ndarray:
    """Partial sums over all integer tuples q with |q_i| <= ranges_i.

    Enumeration order is fixed (last index fastest) and each sum is a
    single dot product, so exhaustive and meet-in-the-middle consume the
    same floats.
    """
    if values.size == 0:
        return np.zeros(1)
    axes = [np.arange(-r, r + 1, dtype=float) for r in ranges]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, values.size)
    return grid @ values


def _dist(values: np.ndarray, integer_shift: bool) -> np.ndarray:
    if integer_shift:
        return np.abs(values - np.round(values))
    return np.abs(values)


def monomial_separation(
    values,
    q_max,
    integer_shift: bool = True,
    mode: str = "auto",
    budget: int = DEFAULT_COMBO_BUDGET,
) -> float:
    """min over q != 0 (|q_i| <= q_max_i) of |sum q_i v_i - a| (a in Z optional).

    ``q_max`` may be a scalar or one bound per value. With
    ``integer_shift=False`` the minimum is of the plain absolute sum (the
    signal-point distance variant). Exhaustive mode enumerates every
    tuple; meet-in-the-middle splits the values in half, sorts one half's
    partial sums and probes only the candidates that can be optimal. Both
    evaluate the identical half-sum floats, hence agree exactly.
    """
    values = np.atleast_1d(np.asarray(values, dtype=float))
    ranges = np.broadcast_to(np.asarray(q_max, dtype=int), values.shape).copy()
    if values.size == 0 or np.any(ranges < 0) or not np.any(ranges):
        raise InvalidArgumentError("need at least one value with positive q range")
    counts = 2 * ranges.astype(object) + 1
    total = 1
    for c in counts:
        total *= int(c)
    nl = values.size // 2
    half_cost = max(
        int(np.prod(counts[:nl])) if nl else 1,
        int(np.prod(counts[nl:])) if nl < values.size else 1,
    )
    if mode == "auto":
        mode = "exhaustive" if total <= budget else "mitm"
    if mode == "exhaustive":
        if total > budget:
            raise ResourceLimitError(
                f"exhaustive separation needs {total} combinations "
                f"(budget {budget}); use meet-in-the-middle mode"
            )
        left = _half_sums(values[:nl], ranges[:nl])
        right = _half_sums(values[nl:], ranges[nl:])
        sums = (left[:, None] + right[None, :]).reshape(-1)
        # index of the all-zero tuple: middle of both enumerations
        zi = (len(left) // 2) * len(right) + len(right) // 2
        d = _dist(sums, integer_shift)
        d[zi] = np.inf
        return float(np.min(d))
    if mode != "mitm":
        raise InvalidArgumentError(f"unknown separation mode {mode!r}")
    if half_cost > budget:
        raise ResourceLimitError(
            f"meet-in-the-middle half of {half_cost} combinations exceeds budget {budget}"
        )
    left = _half_sums(values[:nl], ranges[:nl])
    right = _half_sums(values[nl:], ranges[nl:])
    zero_left, zero_right = len(left) // 2, len(right) // 2
    order = np.argsort(right, kind="stable")
    sorted_right = right[order]
    best = np.inf
    lo_int = math.floor(float(np.min(left) + sorted_right[0]))
    hi_int = math.ceil(float(np.max(left) + sorted_right[-1]))
    for i, s1 in enumerate(left):
        if integer_shift:
            targets = [float(a) - s1 for a in range(lo_int, hi_int + 1)]
        else:
            targets = [-s1]
        for t in targets:
            j = int(np.searchsorted(sorted_right, t))
            # window of 2 on each side: even with the all-zero pair excluded
            # the nearest admissible neighbor stays inside it
            for jj in range(j - 2, j + 3):
                if 0 <= jj < len(sorted_right):
                    if i == zero_left and order[jj] == zero_right:
                        continue
                    s = s1 + sorted_right[jj]
                    d = _dist(np.array([s]), integer_shift)[0]
                    if d < best:
                        best = float(d)
    return best


@dataclass
class SeparationRow:
    p: int
    separation: float
    log2_scaling: float
    ratio_to_sqrt_p: float
    generic: bool


def separation_scaling_probe(
    H,
    L: int,
    p_list,
    budget: int = DEFAULT_COMBO_BUDGET,
) -> list[SeparationRow]:
    """Scaled minimum signal-point distance per prime.

    For each p: the minimum over receivers m of the separation of that
    receiver's receive monomials {h[m,k] g : g in G_L} under coefficients
    |q| <= K(p-1), multiplied by the modulation scaling B = (Kp)^|G_{L+1}|
    and divided by sqrt(p). The ratio staying bounded away from zero
    across p is the numeric shadow of the decay law; a collapsed ratio
    together with a cleared ``generic`` flag marks a degenerate channel.
    """
    if L < 1:
        raise InvalidArgumentError("degree bound L must be >= 1")
    H = np.asarray(H, dtype=float)
    big = build_monomial_set(H, L + 1)
    generic = check_unique_factorization(big.values)
    # G_L: the G_{L+1} monomials with no exponent equal to L (same values, bit for bit)
    small = big.values[(big.exponents < L).all(axis=1)]
    k = big.k
    # keep duplicates: coinciding receive values are a real collision
    recv = [np.sort(np.outer(H[m], small).ravel()) for m in range(k)]
    rows = []
    for p in p_list:
        p = int(p)
        log2_b = len(big) * math.log2(k * p)
        # a unit coefficient bounds the separation by the smallest |receive value|
        smallest = float(np.abs(H).min() * np.abs(small).min())
        log2_max = log2_b + (math.log2(smallest) if smallest else -math.inf) - 0.5 * math.log2(p)
        if log2_max >= np.finfo(float).maxexp:
            raise NumericRangeError(f"log2 of the separation ratio at p={p} may reach "
                                    f"{log2_max:.1f}, past the float range")
        sep = min(monomial_separation(r, k * (p - 1), integer_shift=False, budget=budget)
                  for r in recv)
        if sep > 0.0:
            ratio = 2.0 ** (log2_b + math.log2(sep) - 0.5 * math.log2(p))
        else:
            ratio = 0.0
        rows.append(SeparationRow(p, float(sep), log2_b, ratio, generic))
    return rows
