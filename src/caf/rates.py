"""Lattice computation rates, integer coefficient search, and baselines.

The central quantity is the achievable rate of the lattice scheme for
decoding the integer equation ``a`` over channel row ``h`` at power ``P``:

    R(h, P, a) = 1/2 log2(1 + P ||h||^2) - 1/2 log2(loss(h, P, a))
    loss(h, P, a) = ||a||^2 + P (||h||^2 ||a||^2 - (h . a)^2)

clamped at zero. All logarithms here are base 2 and powers are linear
(``P = 10^(dB/10)``).

Coefficient optimization is exact over the integer ball
``1 <= ||a||^2 <= ceil(||h||^2 P)``. The loss is the positive-definite form
``a^T (I + P(||h||^2 I - h h^T)) a``, so the best equations are its shortest
vectors: for any K the search LLL-reduces the form and enumerates it
(Schnorr-Euchner). Candidates are ranked by the same loss expression as the
exhaustive oracle, so the two agree bit for bit.

One search works on a K-vector, so its per-call work (input checks, the LLL
basis and its LDL^T, the seed radius, the enumeration) runs on Python floats
and ints: at K <= 4 a numpy call costs more than its arithmetic. What sets the
output is vectorised and shared with the oracle: ``_loss_values`` over the
pooled candidates and the ``np.lexsort`` ranking on them. The basis and the
radius only decide which vectors enter the pool, and every vector that can rank
in the top n does, whatever their float error (``_RADIUS_SLACK``), so the
output bytes do not depend on how the basis was reduced.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, NumericRangeError, ResourceLimitError

DB_LOG_BASE = 10.0

# default ceiling on the lattice points a coefficient search visits
DEFAULT_SEARCH_BUDGET = 1 << 24

# relative widening of the enumeration radius in units of K eps (1 + P ||h||^2),
# about 2^10 times the largest float error of the form's values in the tests
_RADIUS_SLACK = 2.0**10

# default number of per-receiver candidates combined in the sum-rate search
DEFAULT_TOP_N = 16

# relative accuracy of the water level that mimo_upper_bound bisects for
MIMO_REL_TOL = 1e-10


def db_to_linear(db):
    """dB to linear power, P = 10^(dB/10)."""
    return 10.0 ** (np.asarray(db, dtype=float) / DB_LOG_BASE)


def _finite(x: np.ndarray) -> bool:
    return all(map(math.isfinite, x.ravel().tolist()))


def _check_power(power, floor: float = 0.0) -> float:
    """``float(power)``, rejected unless it is finite and exceeds ``floor``."""
    p = float(power)
    if not (p > floor and math.isfinite(p)):
        raise InvalidArgumentError("power must be positive and finite" if floor == 0.0
                                   else f"power must exceed {floor:g} and be finite")
    return p


def _as_channel(H) -> np.ndarray:
    """Real K x K channel gains h[m, k] (receiver m, transmitter k), checked."""
    H = np.asarray(H, dtype=float)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise InvalidArgumentError("channel matrix must be square")
    if not _finite(H):
        raise InvalidArgumentError("channel gains must be finite")
    return H


def _check_vec(h, a, power) -> tuple[np.ndarray, np.ndarray]:
    h = np.asarray(h, dtype=float)
    a = np.asarray(a)
    if not _finite(h):
        raise InvalidArgumentError("h must be finite")
    _check_power(power)
    if a.shape != h.shape:
        raise InvalidArgumentError("h and a must have the same length")
    if not any(a.ravel().tolist()):
        raise InvalidArgumentError("coefficient vector must be nonzero")
    return h, a.astype(float)


def _loss(h: np.ndarray, power, a: np.ndarray) -> float:
    """``loss_term`` on inputs that ``_check_vec`` has already validated."""
    n2 = float(a @ a)
    gap = float(h @ h) * n2 - float(h @ a) ** 2
    return n2 + float(power) * gap


def loss_term(h, power, a) -> float:
    """Rate-loss argument ||a||^2 + P(||h||^2 ||a||^2 - (h.a)^2).

    Always >= ||a||^2 (Cauchy-Schwarz); the P-term vanishes iff a is
    collinear with h.
    """
    h, a = _check_vec(h, a, power)
    return _loss(h, power, a)


def _rate(h: np.ndarray, power, a: np.ndarray) -> float:
    """``lattice_rate_single`` on inputs that ``_check_vec`` has already validated."""
    rate = 0.5 * np.log2(1.0 + float(power) * float(h @ h)) - 0.5 * np.log2(_loss(h, power, a))
    return float(max(0.0, rate))


def lattice_rate_single(h, power, a) -> float:
    """Achievable lattice rate for one equation, clamped at zero bits."""
    h, a = _check_vec(h, a, power)
    return _rate(h, power, a)


def _loss_values(h: np.ndarray, power: float, A: np.ndarray) -> np.ndarray:
    """Vectorized canonical loss for candidate rows of A."""
    n2 = np.einsum("ij,ij->i", A, A)
    dot = A @ h
    return n2 + power * ((h @ h) * n2 - dot * dot)


def _search_bound(h: np.ndarray, power: float) -> float:
    hn2 = float(h @ h)
    if hn2 <= 0.0:
        raise InvalidArgumentError("channel row must be nonzero")
    return float(np.ceil(hn2 * power))


def _enumerate_ball(h: np.ndarray, power: float, budget: int) -> np.ndarray:
    """All sign-canonical integer vectors with 1 <= ||a||^2 <= bound."""
    bound = _search_bound(h, power)
    k = h.size
    amax = int(np.floor(np.sqrt(bound)))
    count = float(2 * amax + 1) ** k
    if count > budget:
        raise ResourceLimitError(
            f"exhaustive coefficient search needs {count:.3g} points for "
            f"||a||^2 <= {bound:.6g} (budget {budget}); use the default search "
            "or lower the power"
        )
    axes = [np.arange(-amax, amax + 1)] * k
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, k)
    n2 = np.einsum("ij,ij->i", grid, grid)
    grid = grid[(n2 >= 1) & (n2 <= bound)]
    # keep one representative per +-pair: first nonzero entry positive
    first = grid[np.arange(len(grid)), np.argmax(grid != 0, axis=1)]
    return grid[first > 0]


def _lll(h: np.ndarray, power: float, hn2: float) -> tuple[list, list, list]:
    """LLL-reduced basis of Z^K under the loss form, and the form on it as mu diag(r) mu^T.

    Gram entries keep the loss's arrangement n + P(||h||^2 n - (h.b_u)(h.b_v)),
    n = b_u.b_v exact, so a short vector's norm is no difference of two numbers near P ||h||^2.
    It is scalar arithmetic: the basis is Python ints, the LDL^T rows are
    Python floats, and only the rows from the first one that a size
    reduction or swap changed are recomputed. A pivot that is not positive
    raises NumericRangeError. The basis only steers ``_enumerate``; the
    ranking is recomputed from the pooled vectors, so its float error never
    reaches the output.
    """
    hs = h.tolist()
    k = len(hs)
    basis = [[int(u == v) for v in range(k)] for u in range(k)]
    dots = hs[:]  # h . b_u
    mu = [[float(u == v) for v in range(k)] for u in range(k)]
    r = [0.0] * k

    def ldl_row(u):
        bu, du, mu_u = basis[u], dots[u], mu[u]
        for v in range(u + 1):
            n = sum(x * y for x, y in zip(bu, basis[v]))
            g = n + power * (hn2 * n - du * dots[v])
            g -= sum(mu_u[l] * mu[v][l] * r[l] for l in range(v))
            if v < u:
                mu_u[v] = g / r[v]
            elif g > 0.0:
                r[u] = g
            else:
                raise NumericRangeError(f"Cholesky of the loss form failed: pivot {g:.3g} "
                                        f"of row {u} is not positive")

    i, fresh = 1, 0  # rows below `fresh` of (mu, r) match the basis
    while True:
        while fresh < min(i + 1, k):
            ldl_row(fresh)
            fresh += 1
        if i == k:
            return basis, mu, r
        for j in range(i - 1, -1, -1):
            q = round(mu[i][j])
            if q:
                basis[i] = [x - q * y for x, y in zip(basis[i], basis[j])]
                mu[i] = [x - q * y for x, y in zip(mu[i], mu[j])]
                dots[i] = sum(x * y for x, y in zip(basis[i], hs))
                fresh = i
        if r[i] >= (0.99 - mu[i][i - 1] ** 2) * r[i - 1]:  # Lovasz condition
            i += 1
        else:
            basis[i - 1], basis[i] = basis[i], basis[i - 1]
            dots[i - 1], dots[i] = dots[i], dots[i - 1]
            fresh = min(fresh, i - 1)
            i = max(i - 1, 1)


def _enumerate(h: np.ndarray, power: float, n: int, budget: int) -> np.ndarray:
    """Sign-canonical in-ball vectors, among them all that can rank in the top n.

    Schnorr-Euchner enumeration of the LLL-reduced loss form over half of
    Z^K (the last nonzero z_i positive), so each +-pair is visited once.
    The radius starts at the n-th best seed, a combination of basis vectors
    with coefficients in a small box, and shrinks to the n-th best value
    found. Each radius is widened by ``slack``, which covers the float
    error of the enumerated values and of ``_loss_values``.

    The seeds, the walk and the leaves are scalar Python arithmetic on the
    K coordinates. Only the returned pool reaches the output: it holds every
    vector that can rank in the top n, whichever basis and radius led to it,
    and ``_ranked_candidates`` ranks it with the vectorised ``_loss_values``.
    """
    k, hn2, bound = h.size, float(h @ h), _search_bound(h, power)
    slack = 1.0 + _RADIUS_SLACK * k * math.ulp(1.0) * (1.0 + power * hn2)
    if not slack < 2.0:
        raise NumericRangeError(f"P ||h||^2 = {power * hn2:.3g} is past double precision")
    basis, mu, r = _lll(h, power, hn2)
    hs = h.tolist()
    w = next(w for w in itertools.count(1) if (2 * w + 1) ** k // 2 >= n)
    # the box points after its centre in product order: first nonzero z_i positive
    box = itertools.product(range(-w, w + 1), repeat=k)
    seeds = []
    for zs in itertools.islice(box, (2 * w + 1) ** k // 2 + 1, None):
        a = [sum(zj * b[col] for zj, b in zip(zs, basis)) for col in range(k)]
        n2 = sum(x * x for x in a)
        if n2 <= bound:
            dot = sum(x * y for x, y in zip(a, hs))
            seeds.append(n2 + power * (hn2 * n2 - dot * dot))
    # too few seeds in the ball: every in-ball a has q(a) <= (1 + P ||h||^2) ||a||^2
    radius = slack * (heapq.nsmallest(n, seeds)[-1] if len(seeds) >= n
                      else (1.0 + power * hn2) * bound)
    z, pool, heap, leaves = [0] * k, [], [], 0  # heap: the n smallest values, negated

    def visit(i, partial):
        nonlocal radius, leaves
        c = -sum(mu[j][i] * z[j] for j in range(i + 1, k))
        half = not any(z[i + 1:])  # then c == 0, and z_i >= 0 keeps one of each +-pair
        z0 = int(i == 0) if half else round(c)
        s = 1 if c >= z0 else -1
        # zigzag outward from c: past the radius, every later z_i is too
        for step in itertools.count():
            z[i] = z0 + step if half else z0 + s * ((step + 1) // 2) * (1 if step % 2 else -1)
            t = z[i] - c
            value = partial + r[i] * (t * t)
            if value > radius:
                break
            if i:
                visit(i - 1, value)
                continue
            leaves += 1
            if leaves > budget:
                raise ResourceLimitError(f"coefficient enumeration visited more than {budget} "
                                         f"leaves for ||a||^2 <= {bound:.6g}")
            a = [sum(zj * b[col] for zj, b in zip(z, basis)) for col in range(k)]
            if sum(x * x for x in a) <= bound:
                pool.append(a if next(x for x in a if x) > 0 else [-x for x in a])
                (heapq.heappush if len(heap) < n else heapq.heappushpop)(heap, -value)
                if len(heap) == n:
                    radius = min(radius, -heap[0] * slack)
        z[i] = 0

    visit(k - 1, 0.0)
    return np.array(pool, dtype=float)


def _ranked_candidates(h, power, mode, budget, n) -> np.ndarray:
    h = np.asarray(h, dtype=float)
    if not _finite(h):
        raise InvalidArgumentError("h must be finite")
    power = _check_power(power)
    if mode == "auto":
        A = _enumerate(h, power, n, budget)
    elif mode == "exhaustive":
        A = _enumerate_ball(h, power, budget)
    else:
        raise InvalidArgumentError(f"unknown search mode {mode!r}")
    loss = _loss_values(h, power, A)
    n2 = np.einsum("ij,ij->i", A, A)
    order = np.lexsort(tuple(A.T[::-1]) + (n2, loss))
    return A[order].astype(int)


def best_coefficient_vector(
    h, power, mode: str = "auto", budget: int = DEFAULT_SEARCH_BUDGET
):
    """Argmax of the single-equation rate over the integer ball.

    Ties are broken by smallest squared norm, then lexicographic order;
    the result has its first nonzero entry positive. ``mode`` is ``auto``
    (lattice reduction and enumeration, any K) or ``exhaustive`` (the whole
    ball, the test oracle); both raise ResourceLimitError past ``budget``.

    Returns ``(a, rate_bits)``.
    """
    ranked = _ranked_candidates(h, power, mode, budget, 1)
    a = ranked[0]
    return a, lattice_rate_single(np.asarray(h, dtype=float), power, a)


def top_coefficient_vectors(
    h, power, n: int, mode: str = "auto", budget: int = DEFAULT_SEARCH_BUDGET
) -> list[np.ndarray]:
    """The n best candidate vectors of the coefficient search, ranked."""
    ranked = _ranked_candidates(h, power, mode, budget, n)
    return [ranked[i] for i in range(min(n, len(ranked)))]


def evaluate_sum_rate(H, power, A) -> float:
    """Sum rate of a full coefficient matrix: per message stream k, the
    minimum over receivers that use it (a[m, k] != 0)."""
    H = _as_channel(H)
    A = np.asarray(A)
    k = H.shape[0]
    rates = [lattice_rate_single(H[m], power, A[m]) for m in range(k)]
    total = 0.0
    for col in range(k):
        users = [m for m in range(k) if A[m, col] != 0]
        if not users:
            return 0.0
        total += min(rates[m] for m in users)
    return total


def _rank_exact(A: np.ndarray) -> int:
    """Rank of an integer matrix, exact over the rationals (Fraction pivots).

    Reference oracle for ``_det_int``; the sum-rate search no longer calls it.
    """
    from fractions import Fraction

    M = [[Fraction(int(x)) for x in row] for row in A]
    rows, cols = len(M), len(M[0])
    rank = 0
    for c in range(cols):
        piv = next((r for r in range(rank, rows) if M[r][c] != 0), None)
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        inv = Fraction(1, 1) / M[rank][c]
        M[rank] = [x * inv for x in M[rank]]
        for r in range(rows):
            if r != rank and M[r][c] != 0:
                f = M[r][c]
                M[r] = [x - f * y for x, y in zip(M[r], M[rank])]
        rank += 1
        if rank == min(rows, cols):
            break
    return rank


def _det_int(A) -> np.ndarray:
    """Exact determinants of a stack ``(..., K, K)`` of integer matrices.

    Laplace expansion along the first row in int64. Every partial sum is
    bounded by K! max|a|^K, so NumericRangeError is raised up front when
    that bound leaves int64; a wrapped value is never returned.
    """
    from math import factorial

    A = np.asarray(A)
    k = A.shape[-1]
    amax = max(int(A.max()), -int(A.min()))  # Python ints: np.abs wraps int64 min
    if factorial(k) * amax**k > np.iinfo(np.int64).max:
        raise NumericRangeError(
            f"K={k} determinant with entries up to {amax} may leave int64"
        )
    return _laplace(A.astype(np.int64))


def _laplace(A: np.ndarray) -> np.ndarray:
    k = A.shape[-1]
    if k == 1:
        return A[..., 0, 0]
    rest = A[..., 1:, :]
    total = np.zeros(A.shape[:-2], dtype=np.int64)
    for j in range(k):
        term = A[..., 0, j] * _laplace(np.delete(rest, j, axis=-1))
        total = total - term if j % 2 else total + term
    return total


@dataclass
class SumRateResult:
    coefficients: np.ndarray
    rate_bits: float
    fallback: bool = False  # identity fallback, no full-rank candidate tuple


def lattice_sum_rate(
    H,
    power,
    top_n: int = DEFAULT_TOP_N,
    exhaustive_limit: int = 3,
) -> SumRateResult:
    """Best full-rank integer coefficient matrix over candidate tuples.

    Per receiver the ``top_n`` best vectors of the coefficient search are
    scored once and combined exhaustively, in one batched pass over the
    stack of all top_n^K matrices (top_n^K K^2 8 bytes; 295 KB at K=3 and
    the default top_n). Full rank is decided by exact int64 determinants,
    not by Fraction elimination. Each matrix's sum rate accumulates the
    same floats in the same order as ``evaluate_sum_rate``, and the first
    best matrix in ``itertools.product`` order wins. Falls back to the
    identity matrix (flagged) if no combination has full rank.
    """
    H = _as_channel(H)
    k = H.shape[0]
    if k > exhaustive_limit:
        raise ResourceLimitError(
            f"K={k} exceeds the exhaustive sum-rate limit {exhaustive_limit}"
        )
    cands = [np.array(top_coefficient_vectors(H[m], power, top_n)) for m in range(k)]
    # the search has checked the rows and the power, and no candidate is zero
    scores = [np.array([_rate(H[m], power, a) for a in cands[m].astype(float)])
              for m in range(k)]
    # combo index grid in itertools.product order: receiver 0 varies slowest
    idx = np.indices([len(c) for c in cands]).reshape(k, -1)
    A = np.stack([cands[m][idx[m]] for m in range(k)], axis=1)
    R = np.stack([scores[m][idx[m]] for m in range(k)], axis=1)
    total = np.zeros(len(A))
    for col in range(k):
        total += np.where(A[:, :, col] != 0, R, np.inf).min(axis=1)
    full = _det_int(A) != 0
    if not full.any():
        eye = np.eye(k, dtype=int)
        return SumRateResult(eye, evaluate_sum_rate(H, power, eye), fallback=True)
    best = int(np.argmax(np.where(full, total, -np.inf)))
    return SumRateResult(A[best].copy(), float(total[best]))


def time_sharing_rate(H, power) -> float:
    """Sum rate of round-robin single-user transmission at boosted power."""
    H = _as_channel(H)
    power = _check_power(power)
    k = H.shape[0]
    diag = np.diag(H)
    return float(np.sum(np.log2(1.0 + k * power * diag**2)) / (2.0 * k))


def ia_baseline(k: int, power) -> float:
    """Interference-alignment reference line (K/4) log2 P, plot-only."""
    power = _check_power(power, 1.0)
    return 0.25 * k * float(np.log2(power))


def mimo_upper_bound(H, power) -> float:
    """Cooperative MIMO bound: max over tr(Q) <= K P of 1/2 log2 det(I + HQH^T).

    Solved by water-filling across the squared singular values of H; the
    water level is found by bisection to ``MIMO_REL_TOL`` relative accuracy.
    """
    H = _as_channel(H)
    power = _check_power(power)
    k = H.shape[0]
    s2 = np.linalg.svd(H, compute_uv=False) ** 2
    s2 = s2[s2 > 0.0]
    if s2.size == 0:
        return 0.0
    total = k * float(power)

    def allocated(mu):
        return float(np.sum(np.maximum(0.0, mu - 1.0 / s2)))

    lo, hi = 0.0, total + float(1.0 / s2.min())
    while hi - lo > MIMO_REL_TOL * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if allocated(mid) < total:
            lo = mid
        else:
            hi = mid
    q = np.maximum(0.0, 0.5 * (lo + hi) - 1.0 / s2)
    return float(np.sum(0.5 * np.log2(1.0 + s2 * q)))


@dataclass
class TradeoffReport:
    q: float
    psi: float
    loss: float
    lower_bound: float
    holds: bool


def loss_tradeoff_check(h, power, a) -> TradeoffReport:
    """Check loss >= q + (4/pi^2) P ||h||^2 q psi(q)^2.

    ``q = ||a||^2`` and ``psi(q) = max_{k<K} |h_k/||h|| - a_k/sqrt(q)|``
    over the first K-1 coordinates. The bound is stated for the sign of
    ``a`` with nonnegative inner product against ``h`` (the rate is
    invariant under a -> -a), so ``a`` is reoriented first.
    """
    h, a = _check_vec(h, a, power)
    if float(h @ a) < 0.0:
        a = -a
    q = float(a @ a)
    hn = float(np.linalg.norm(h))
    if h.size > 1:
        psi = float(np.max(np.abs(h[:-1] / hn - a[:-1] / np.sqrt(q))))
    else:
        psi = 0.0
    loss = _loss(h, power, a)
    bound = q + (4.0 / np.pi**2) * float(power) * hn**2 * q * psi**2
    return TradeoffReport(q, psi, loss, bound, loss >= bound * (1.0 - 1e-12))


@dataclass
class SweepRow:
    h2: float
    snr_db: float
    coefficients: tuple
    normalized_rate: float


def normalized_rate_sweep(h2_grid, snr_db_list) -> list[SweepRow]:
    """Best-equation rate for h = (1, h2), normalized by 1/2 log2(1 + (1+h2^2) P).

    Row order follows the (h2, snr) grid deterministically.
    """
    h2_grid = list(h2_grid)
    snr_db_list = list(snr_db_list)
    if not h2_grid or not snr_db_list:
        raise InvalidArgumentError("sweep grids must be nonempty")
    if any(db <= 0 for db in snr_db_list):
        raise InvalidArgumentError("SNRs must be positive in dB")
    rows = []
    for h2 in h2_grid:
        h = np.array([1.0, float(h2)])
        for db in snr_db_list:
            power = float(db_to_linear(db))
            a, rate = best_coefficient_vector(h, power)
            cap = 0.5 * np.log2(1.0 + (1.0 + h2 * h2) * power)
            rows.append(SweepRow(float(h2), float(db), tuple(int(x) for x in a), float(rate / cap)))
    return rows


def dof_slope(rate_bits, powers_db) -> float:
    """Least-squares slope of rate versus (1/2) log2(P): the empirical DoF.

    A slope over a finite SNR window is a finite-SNR estimate of the
    asymptotic DoF. For a generic real H the lattice sum rate is a
    staircase of coefficient matrices, so the 40-80 dB slope of a single
    channel scatters around the asymptotic value (sd ~0.2 over
    uniform(0.5, 2) 2x2 channels); average over channels before comparing
    it with a bound.
    """
    rate_bits = np.asarray(rate_bits, dtype=float)
    powers_db = np.asarray(powers_db, dtype=float)
    if rate_bits.size < 3 or rate_bits.size != powers_db.size:
        raise InvalidArgumentError("need at least 3 matched samples")
    if np.any(np.diff(powers_db) <= 0):
        raise InvalidArgumentError("powers must be strictly increasing")
    x = 0.5 * np.log2(db_to_linear(powers_db))
    if np.ptp(x) == 0.0:
        raise InvalidArgumentError("degenerate regression: constant abscissa")
    return float(np.polyfit(x, rate_bits, 1)[0])
