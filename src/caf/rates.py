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
vectors. One search, ``_candidates``, serves any K and any number of rows and
powers at once. Each search LLL-reduces the form on Python floats and ints (at
K <= 4 a numpy call costs more than its arithmetic); one array pass over all of
them takes the seed radius and a Fincke-Pohst box around it, and a box past
``_BOX_CAP`` points takes the Schnorr-Euchner walk (``_enumerate``) from that
radius instead. What sets the output is vectorised and shared with the
exhaustive oracle: ``_loss_values`` over the pooled candidates and the
``np.lexsort`` ranking on them (``_rank``), so the two agree bit for bit. The
basis and the radius only decide which vectors enter the pool, and every vector
that can rank in the top n does, whatever their float error (``_RADIUS_SLACK``),
so the output bytes depend neither on how the basis was reduced nor on box or walk.

``best_coefficient_vector`` and ``top_coefficient_vectors`` run one search, and
``caf dof`` one per channel over its whole SNR grid (``_sum_rates``), whose scores,
combinations and MIMO water-filling are array passes too. The K=2 sweep of ``caf
fig2`` finds every point's best equation in one array pass (``_k2_winners``, exact
Gauss reduction); a point it cannot certify takes ``best_coefficient_vector``.
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

# largest K whose top_n^K candidate combinations the sum-rate search scores
_SUM_RATE_K_LIMIT = 3

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
    # float ** 2 is libm pow, while _loss_values squares with *: the two differ in
    # the last bit for some h.a, and each output keeps its own (fig2 and dof bytes)
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
    raises NumericRangeError. The basis only steers ``_candidates``; the
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


def _form(h: np.ndarray, power: float):
    """``(||h||^2, ball bound, radius slack, _lll(...))`` of one search, checked in that order."""
    hn2, bound = float(h @ h), _search_bound(h, power)
    slack = 1.0 + _RADIUS_SLACK * h.size * math.ulp(1.0) * (1.0 + power * hn2)
    if not slack < 2.0:
        raise NumericRangeError(f"P ||h||^2 = {power * hn2:.3g} is past double precision")
    return hn2, bound, slack, _lll(h, power, hn2)


def _seed_width(k: int, n: int) -> int:
    """Half-width of the seed box: the smallest whose half holds n seeds."""
    return next(w for w in itertools.count(1) if (2 * w + 1) ** k // 2 >= n)


def _enumerate(n: int, budget: int, form, radius: float) -> np.ndarray:
    """Sign-canonical in-ball vectors, among them all that can rank in the top n.

    The walk of ``_candidates`` for a box past its cap. ``form`` is the search's
    ``_form`` and ``radius`` its seed radius, widened by the slack once. Schnorr-Euchner
    enumeration of the LLL-reduced loss form over half of Z^K (the last nonzero z_i
    positive), so each +-pair is visited once. The radius shrinks to the n-th best value
    found, widened by ``slack``, which covers the float error of the enumerated values
    and of ``_loss_values``. Past ``budget`` leaves it raises ResourceLimitError.

    The walk and the leaves are scalar Python arithmetic on the K coordinates. Only the
    returned pool reaches the output: it holds every vector that can rank in the top n,
    whichever basis and radius led to it, and ``_rank`` ranks it with ``_loss_values``.
    """
    _, bound, slack, (basis, mu, r) = form
    k = len(basis)
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


# z-box points past which a search takes the _enumerate walk
_BOX_CAP = 4096


def _candidates(H: np.ndarray, powers, n: int, budget: int = DEFAULT_SEARCH_BUDGET):
    """The top n coefficient vectors of every channel row H[m] at every P of ``powers``.

    Returns a (powers, rows) nested list of ranked int arrays, or of the exceptions the
    searches raise, and the mask of the searches that took the walk. Each search runs
    its checks and ``_lll`` once (``_form``); one array pass over all of them takes the
    seed radius R, the n-th best loss of the seeds widened by the slack. The seeds are
    the combinations of basis vectors with coefficients in a small box, and the
    multiples of b_1 past it. A vector that can rank in the top n has q(z) <= R on the
    reduced basis, so |z_i| <= sqrt(R (G^-1)_ii) (Fincke-Pohst), widened by the slack
    again for the float error of G^-1. That z-box, cut to the sign-canonical in-ball
    vectors, is a complete pool, ranked by ``_rank``. A box of more than
    min(``_BOX_CAP``, ``budget``) points takes the ``_enumerate`` walk from R instead,
    so a search holds at most one capped box.
    """
    k = H.shape[1]
    found = [[None] * len(H) for _ in powers]
    jobs, forms = [], []
    for i, power in enumerate(powers):
        for m, h in enumerate(H):
            try:
                p = _check_power(power)
                forms.append(_form(h, p))
                jobs.append((i, m, p))
            except Exception as exc:  # per search: its point raises the first one
                found[i][m] = exc
    walked = np.zeros((len(powers), len(H)), dtype=bool)
    if not jobs:
        return found, walked
    p = np.array([job[2] for job in jobs])
    hn2, bound, slack = (np.array(x) for x in list(zip(*forms))[:3])
    basis, mu, r = (np.array(x, dtype=float) for x in zip(*(form[3] for form in forms)))
    w = _seed_width(k, n)
    # the seeds: the box after its centre, then the multiples of b_1 past it, which bound
    # R tightly on a form that is short along b_1 only (integer channels at high SNR)
    seeds = list(itertools.product(range(-w, w + 1), repeat=k))[(2 * w + 1) ** k // 2 + 1:]
    seeds += [(t,) + (0,) * (k - 1) for t in range(w + 1, n + 1)]
    A = np.array(seeds, dtype=float) @ basis
    n2 = (A * A).sum(2)
    dot = (A @ H[[job[1] for job in jobs]][:, :, None])[..., 0]
    value = np.where(n2 <= bound[:, None], n2 + p[:, None] * (hn2[:, None] * n2 - dot * dot),
                     np.inf)
    nth = np.sort(value, axis=1)[:, n - 1]  # inf: fewer than n seeds in the ball
    radius = slack * np.where(np.isfinite(nth), nth, (1.0 + p * hn2) * bound)
    inv = np.linalg.inv(mu)  # G = mu diag(r) mu^T, so (G^-1)_ii = sum_j (mu^-1)_ji^2 / r_j
    half = np.floor(np.sqrt((radius * slack)[:, None] * (inv * inv / r[:, :, None]).sum(1)))
    fits = np.prod(2.0 * half + 1.0, axis=1) <= min(_BOX_CAP, budget)
    for j, (i, m, pj) in enumerate(jobs):
        try:
            if fits[j]:
                hw = half[j].astype(int)
                z = np.indices(tuple(2 * hw + 1)).reshape(k, -1).T - hw
                a = z @ basis[j].astype(int)
                lead = a[np.arange(len(a)), np.argmax(a != 0, axis=1)]
                pool = a[((a * a).sum(1) <= bound[j]) & (lead > 0)].astype(float)
            else:
                walked[i, m] = True
                pool = _enumerate(n, budget, forms[j], float(radius[j]))
            found[i][m] = _rank(H[m], pj, pool)[:n]
        except Exception as exc:
            found[i][m] = exc
    return found, walked


def _ranked_candidates(h, power, mode, budget, n) -> np.ndarray:
    h = np.asarray(h, dtype=float)
    if not _finite(h):
        raise InvalidArgumentError("h must be finite")
    power = _check_power(power)
    if mode == "auto":
        ranked = _candidates(h[None], [power], n, budget)[0][0][0]
        if isinstance(ranked, Exception):
            raise ranked
        return ranked
    if mode == "exhaustive":
        return _rank(h, power, _enumerate_ball(h, power, budget))
    raise InvalidArgumentError(f"unknown search mode {mode!r}")


def _rank(h: np.ndarray, power: float, A: np.ndarray) -> np.ndarray:
    """The float pool A as ints, ranked by loss, then ||a||^2, then lexicographic order."""
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
    (``_candidates``, any K) or ``exhaustive`` (the whole ball, the test
    oracle), which raises ResourceLimitError past ``budget`` points. ``auto``
    ranks a box of at most ``budget`` points, so it does not raise there; a
    larger box takes the walk, which raises ResourceLimitError past ``budget`` leaves.

    Returns ``(a, rate_bits)``.
    """
    ranked = _ranked_candidates(h, power, mode, budget, 1)
    a = ranked[0]
    # _ranked_candidates has checked h and power: score the winner unchecked
    return a, _rate(np.asarray(h, dtype=float), power, a.astype(float))


def top_coefficient_vectors(
    h, power, n: int, mode: str = "auto", budget: int = DEFAULT_SEARCH_BUDGET
) -> list[np.ndarray]:
    """The n best candidate vectors of the coefficient search, ranked."""
    if n < 1:
        raise InvalidArgumentError(f"n must be at least 1, got {n}")
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


def _det_int(rows) -> np.ndarray:
    """Exact determinants of the integer K x K matrices whose m-th row is ``rows[m]``.

    ``rows`` holds K arrays of shape (..., K) that broadcast against one another: a
    stack of matrices is passed as its rows, and K candidate sets, each along its own
    axis, give the determinant of every combination. Laplace expansion along the first
    row in int64, multilinear in the rows. Every partial sum is bounded by K! max|a|^K,
    so NumericRangeError is raised up front when that bound leaves int64; a wrapped
    value is never returned.
    """
    rows = [np.asarray(x) for x in rows]
    k = len(rows)
    amax = max(max(int(x.max()), -int(x.min())) for x in rows)  # Python ints: np.abs wraps int64 min
    if math.factorial(k) * amax**k > np.iinfo(np.int64).max:
        raise NumericRangeError(
            f"K={k} determinant with entries up to {amax} may leave int64"
        )
    rows = [x.astype(np.int64) for x in rows]

    def minor(m, cols):  # the determinant of rows m.. on the columns cols
        if m == k - 1:
            return rows[m][..., cols[0]]
        total = 0
        for j, col in enumerate(cols):
            term = rows[m][..., col] * minor(m + 1, cols[:j] + cols[j + 1:])
            total = total - term if j % 2 else total + term
        return total

    return minor(0, tuple(range(k)))


@dataclass
class SumRateResult:
    coefficients: np.ndarray
    rate_bits: float
    fallback: bool = False  # identity fallback, no full-rank candidate tuple


def _sum_rates(H, powers, top_n: int = DEFAULT_TOP_N):
    """``lattice_sum_rate(H, P)`` at every P of ``powers``, and where a search took the walk.

    Returns one SumRateResult per power, or the exception that ``lattice_sum_rate``
    raises there, and the (powers, K) mask of the receiver searches that took the walk.
    The candidates come from ``_candidates``. They are scored with ``_rate``'s
    arithmetic on arrays (``h @ a`` as a (1 x K)(K x 1) matmul, Python ``**`` squares)
    and combined by ``_best_combo``, so every result is the per-combination loop's
    (``evaluate_sum_rate`` on each full-rank matrix) bit for bit.
    """
    H = _as_channel(H)
    k = H.shape[0]
    if k > _SUM_RATE_K_LIMIT:
        raise ResourceLimitError(
            f"K={k} exceeds the exhaustive sum-rate limit {_SUM_RATE_K_LIMIT}"
        )
    if top_n < 1:
        raise InvalidArgumentError(f"top_n must be at least 1, got {top_n}")
    found, walked = _candidates(H, powers, top_n)
    results = [next((c for c in row if isinstance(c, Exception)), None) for row in found]
    live = [i for i, res in enumerate(results) if res is None]
    if not live:
        return results, walked
    cands = [c for i in live for c in found[i]]
    counts = [len(c) for c in cands]
    A = np.concatenate(cands).astype(float)
    h = np.repeat(np.tile(H, (len(live), 1)), counts, axis=0)
    p = np.repeat([float(powers[i]) for i in live for _ in range(k)], counts)
    hn2 = np.repeat([float(x @ x) for x in H] * len(live), counts)
    d = (h[:, None, :] @ A[:, :, None])[:, 0, 0]  # the 1-D h @ a
    n2 = (A * A).sum(1)
    rate = (0.5 * np.log2(1.0 + p * hn2)
            - 0.5 * np.log2(n2 + p * (hn2 * n2 - np.array([x ** 2 for x in d.tolist()]))))
    scores = np.split(np.where(rate > 0.0, rate, 0.0), np.cumsum(counts)[:-1])
    for n, i in enumerate(live):
        try:
            results[i] = _best_combo(H, float(powers[i]), cands[n * k:(n + 1) * k],
                                     scores[n * k:(n + 1) * k])
        except NumericRangeError as exc:  # the determinants' range guard
            results[i] = exc
    return results, walked


def _best_combo(H, power, cands, scores) -> SumRateResult:
    """The best full-rank matrix with row m from ``cands[m]``, scored ``scores[m]``.

    Each receiver's candidates lie along their own axis of the combo grid, so no
    top_n^K matrix stack is built. A column's rate is the minimum over the rows that
    use it, and the columns are summed in order, as in ``evaluate_sum_rate``; full rank
    is decided by ``_det_int``. The first best matrix in ``itertools.product`` order (the
    C order of the grid) wins; the identity, flagged, if none has full rank.
    """
    k = len(cands)

    def along(m, x):
        return x.reshape((1,) * m + (len(x),) + (1,) * (k - 1 - m) + x.shape[1:])

    total = 0.0
    for col in range(k):
        least = np.inf
        for m in range(k):
            least = np.minimum(least, along(m, np.where(cands[m][:, col] != 0, scores[m], np.inf)))
        total = total + least
    full = _det_int([along(m, c) for m, c in enumerate(cands)]) != 0
    if not full.any():
        eye = np.eye(k, dtype=int)
        return SumRateResult(eye, evaluate_sum_rate(H, power, eye), fallback=True)
    best = np.unravel_index(np.argmax(np.where(full, total, -np.inf)), full.shape)
    return SumRateResult(np.stack([c[j] for c, j in zip(cands, best)]), float(total[best]))


def lattice_sum_rate(H, power, top_n: int = DEFAULT_TOP_N) -> SumRateResult:
    """Best full-rank integer coefficient matrix over candidate tuples.

    Per receiver the ``top_n`` best vectors of the coefficient search are scored
    once and combined exhaustively: the one-power case of ``_sum_rates``, which
    broadcasts the K candidate sets against one another instead of stacking all
    top_n^K matrices. Full rank is decided by exact int64 determinants, not by
    Fraction elimination. Each matrix's sum rate accumulates the same floats in the
    same order as ``evaluate_sum_rate``, and the first best matrix in
    ``itertools.product`` order wins. Falls back to the identity matrix (flagged) if
    no combination has full rank. Past K = 3 (``_SUM_RATE_K_LIMIT``) it raises
    ResourceLimitError.
    """
    (result,), _ = _sum_rates(H, [power], top_n)
    if isinstance(result, Exception):
        raise result
    return result


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
    The one-power case of ``_mimo_bounds``.
    """
    return _mimo_bounds(H, [power])[0]


def _mimo_bounds(H, powers) -> list:
    """``mimo_upper_bound(H, P)`` at every P of ``powers``, from one SVD of H.

    The bisections run side by side: a water level stops on its own test, so each
    keeps the iteration count and the floats of a bisection at its power alone.
    """
    H = _as_channel(H)
    total = H.shape[0] * np.array([_check_power(p) for p in powers])
    s2 = np.linalg.svd(H, compute_uv=False) ** 2
    s2 = s2[s2 > 0.0]
    if s2.size == 0:
        return [0.0] * len(total)
    inv = 1.0 / s2
    lo, hi = np.zeros_like(total), total + float(1.0 / s2.min())
    while True:
        live = hi - lo > MIMO_REL_TOL * np.maximum(1.0, hi)
        if not live.any():
            break
        mid = 0.5 * (lo + hi)
        below = np.maximum(0.0, mid[:, None] - inv).sum(axis=1) < total
        lo, hi = np.where(live & below, mid, lo), np.where(live & ~below, mid, hi)
    q = np.maximum(0.0, 0.5 * (lo + hi)[:, None] - inv)
    return np.sum(0.5 * np.log2(1.0 + s2 * q), axis=1).tolist()


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


# z of the pooled z1 b1 + z2 b2, one of each +-pair: on a Gauss-reduced basis (2 |B(b1, b2)|
# <= q(b1) <= q(b2)), q >= (z1^2 - |z1 z2| + z2^2) q(b1), so every other vector has q >= 4 q(b1)
_GAUSS_POOL = ((1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (2, -1), (1, 2), (1, -2))
# largest slack - 1 at which _k2_winners certifies a point: P ||h||^2 <~ 2e9 (93 dB)
_BATCH_SLACK = 2.0**-10


def _k2_winners(h2: np.ndarray, power: np.ndarray):
    """``best_coefficient_vector((1, h2), P)``, its normalized rate, and where it is certified.

    Gauss-reduces the loss forms in the Lagrange arrangement ||b||^2 + P (b_2 - h2 b_1)^2,
    ranks ``_GAUSS_POOL`` with the key and arithmetic of ``_ranked_candidates`` and scores
    the winner with those of ``_rate``. Certified: slack - 1 <= ``_BATCH_SLACK``, the
    reduction converged, and loss * slack^2 < 3 q(b1), so all else ranks after the winner.
    """
    n = h2.size
    H = np.stack([np.ones(n), h2], axis=1)
    hn2 = (H[:, None, :] @ H[:, :, None])[:, 0, 0]  # the 1-D h @ h
    slack = 1.0 + _RADIUS_SLACK * 2 * math.ulp(1.0) * (1.0 + power * hn2)
    b1, b2, q1 = np.tile([1.0, 0.0], (n, 1)), np.tile([0.0, 1.0], (n, 1)), np.zeros(n)
    certified = slack - 1.0 <= _BATCH_SLACK
    todo = np.flatnonzero(certified)
    for _ in range(64):
        if not todo.size:
            break
        u, v, x, p = b1[todo], b2[todo], h2[todo], power[todo]
        cu, cv = u[:, 1] - x * u[:, 0], v[:, 1] - x * v[:, 0]
        quu, qvv = (u * u).sum(1) + p * cu * cu, (v * v).sum(1) + p * cv * cv
        swap = (qvv < quu)[:, None]
        q1[todo] = np.minimum(quu, qvv)
        m = np.rint(((u * v).sum(1) + p * cu * cv) / q1[todo])
        u, v = np.where(swap, v, u), np.where(swap, u, v)
        b1[todo], b2[todo] = u, v - m[:, None] * u
        todo = todo[m != 0]
    certified[todo] = False
    z = np.array(_GAUSS_POOL, dtype=float)
    A = z[:, :1] * b1[:, None, :] + z[:, 1:] * b2[:, None, :]
    A *= np.sign(np.where(A[..., 0] != 0, A[..., 0], A[..., 1]))[..., None]  # sign-canonical
    n2, dot = (A * A).sum(2), (A @ H[:, :, None])[..., 0]
    key = np.where(n2 <= np.ceil(hn2 * power)[:, None],
                   n2 + power[:, None] * (hn2[:, None] * n2 - dot * dot), np.inf)
    rows, w = np.arange(n), np.lexsort((A[..., 1], A[..., 0], n2, key))[:, 0]
    a, certified = A[rows, w], certified & (key[rows, w] < 3.0 * q1 / slack / slack)
    d, an2 = (H[:, None, :] @ a[:, :, None])[:, 0, 0], (a * a).sum(1)  # the 1-D h @ a
    loss = an2 + power * (hn2 * an2 - np.array([x ** 2 for x in d.tolist()]))
    rate = 0.5 * np.log2(1.0 + power * hn2) - 0.5 * np.log2(loss)
    cap = 0.5 * np.log2(1.0 + (1.0 + h2 * h2) * power)
    return a.astype(int), np.where(rate > 0.0, rate, 0.0) / cap, certified


def _sweep_results(h2_grid, snr_db_list):
    """Each point's SweepRow or exception, in row order, and the mask of the points that
    take ``best_coefficient_vector``."""
    h2s, dbs = [float(x) for x in h2_grid], [float(db) for db in snr_db_list]
    powers = [float(db_to_linear(db)) if db > 0 else math.nan for db in dbs]
    h2, power = np.repeat(h2s, len(dbs)), np.tile(powers, len(h2s))
    batch = np.isfinite(h2) & np.isfinite(power)
    coeffs, values, fallback = np.zeros((h2.size, 2), dtype=int), np.zeros(h2.size), ~batch
    coeffs[batch], values[batch], certified = _k2_winners(h2[batch], power[batch])
    fallback[batch] = ~certified
    results = []
    for (x, db), p, a, value, scalar in zip(itertools.product(h2s, dbs), power.tolist(),
                                            coeffs.tolist(), values.tolist(), fallback.tolist()):
        try:
            if scalar:
                if db <= 0:
                    raise InvalidArgumentError("SNRs must be positive in dB")
                a, rate = best_coefficient_vector(np.array([1.0, x]), p)
                value = float(rate / (0.5 * np.log2(1.0 + (1.0 + x * x) * p)))
            results.append(SweepRow(x, db, tuple(int(c) for c in a), value))
        except Exception as exc:  # per point: cmd_fig2 writes it as a marker
            results.append(exc)
    return results, fallback


def normalized_rate_sweep(h2_grid, snr_db_list) -> list[SweepRow]:
    """Best-equation rate for h = (1, h2), normalized by 1/2 log2(1 + (1+h2^2) P).

    Row order follows the (h2, snr) grid deterministically. One array pass (``_k2_winners``)
    certifies the points with P ||h||^2 up to about 2e9, the others take
    ``best_coefficient_vector``; rows equal its bit for bit. Raises the first failing point's error.
    """
    h2_grid = list(h2_grid)
    snr_db_list = list(snr_db_list)
    if not h2_grid or not snr_db_list:
        raise InvalidArgumentError("sweep grids must be nonempty")
    if any(db <= 0 for db in snr_db_list):
        raise InvalidArgumentError("SNRs must be positive in dB")
    rows, _ = _sweep_results(h2_grid, snr_db_list)
    failed = next((r for r in rows if isinstance(r, Exception)), None)
    if failed is not None:
        raise failed
    return rows


def _check_slope_grid(powers_db: np.ndarray, samples: int) -> None:
    """``dof_slope``'s checks on its SNR grid, for ``samples`` rates."""
    if samples < 3 or samples != powers_db.size:
        raise InvalidArgumentError("need at least 3 matched samples")
    if np.any(np.diff(powers_db) <= 0):
        raise InvalidArgumentError("powers must be strictly increasing")


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
    _check_slope_grid(powers_db, rate_bits.size)
    x = 0.5 * np.log2(db_to_linear(powers_db))
    if np.ptp(x) == 0.0:
        raise InvalidArgumentError("degenerate regression: constant abscissa")
    return float(np.polyfit(x, rate_bits, 1)[0])
