"""Recovering all submessages from the decoded receiver equations.

The decoded equations u[m, g] = sum_k w[k, g / h[m,k]] (mod p) form a 0/1
linear system over F_p whose columns are submessages and whose rows are
(receiver, receive monomial) pairs. ``IncidenceSystem`` holds that system
as its nonzeros, the (row, column) index arrays the equation system
already has; nothing on the solving path allocates rows x columns. Two
independent solvers are provided:

* ``solve_linear`` - Gauss-Jordan elimination over F_p, the oracle. It
  works on the nonzeros: each row of the augmented system [A | u] as a
  ``{column: residue}`` map of Python ints, the right-hand side being
  extra columns, and each column of A as the set of rows that hold it.
  Its pivot rule is the dense one (first nonzero at or after ``rank`` in
  the swapped row order), so its rank, consistency and failing row are
  those of dense elimination. The canonical incidence has K nonzeros per
  column, and the cost is those nonzeros plus the fill-in elimination
  creates (structured sparse elimination);
* ``peel_invert`` - the constructive peeling procedure. On a generic
  channel a receive monomial identifies its origin uniquely, so some
  equation always has exactly one unresolved contributor (highest powers
  resolve first); reading it off and subtracting it from every equation
  exposes the next layer, recursing down the exponent range. Resolution
  order is fixed (by round, then descending highest exponent, then the
  winning row's receiver, then transmitter and index); any valid order
  yields the same values, which the oracle cross-check enforces in the
  tests. A stall (no singleton equation while messages remain) would
  contradict the injectivity guarantee and is reported as such.

Both return the submessages as one (columns, width) int64 array in
``col_keys`` order; the peel also lists its resolution order. Peeling
applies to the canonical signature construction only; arbitrary
signature maps fall back to the linear solver.

A completed peel is itself a certificate of full column rank: its
resolving rows, taken in resolution order, form a unit lower-triangular
submatrix of the incidence over every F_p (Luby et al., *Efficient
Erasure Correcting Codes*, IEEE Trans. IT 2001). With full rank, the
unique solution of the system is a given x iff A x = u (mod p), which
``_is_solution`` checks in one pass over the nonzeros. ``caf invert``
counts its samples this way and runs ``solve_linear`` only on a stall.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .alignment import EquationSystem, _canonical_gain_exponents
# canonical_signature stays bound here: perfbench/test_harness.py checks that
# tracing wraps and restores this module's copy of it
from .alignment import canonical_signature  # noqa: F401
from .errors import InvalidArgumentError


class PeelStallError(RuntimeError):
    """No equation with a unique unresolved origin remains (bug trap)."""


@dataclass
class IncidenceSystem:
    """A linear system over F_p held as its nonzeros, with its row/column index maps.

    Nonzero j is ``vals[j]`` at row ``rows[j]`` and column ``cols[j]``; the
    nonzeros are sorted by (row, column) and ``vals`` are int64 residues
    mod p. The shape is (len(row_keys), len(col_keys)).
    """

    rows: np.ndarray  # (nonzeros,) int64
    cols: np.ndarray  # (nonzeros,) int64
    vals: np.ndarray  # (nonzeros,) int64
    row_keys: list  # (receiver m, receive exponent tuple)
    col_keys: np.ndarray  # (columns, 2) (transmitter k, index); only its length is read
    p: int

    @property
    def shape(self):
        return len(self.row_keys), len(self.col_keys)

    @property
    def matrix(self) -> np.ndarray:
        """Dense rows x columns copy, built on every read; the solvers never read it.

        int8 holds every residue when p <= 128, and a 0/1 incidence at any p.
        """
        small = self.p <= 128 or bool(np.all(self.vals == 1))
        dense = np.zeros(self.shape, dtype=np.int8 if small else np.int64)
        dense[self.rows, self.cols] = self.vals
        return dense


def build_incidence(eqsys: EquationSystem) -> IncidenceSystem:
    """Assemble the submessage -> equation map of the equation system, as its nonzeros."""
    row_keys = [(m, tuple(e)) for m, exps in enumerate(eqsys.exponents) for e in exps.tolist()]
    ones = np.ones(len(eqsys.rows), dtype=np.int64)
    return IncidenceSystem(eqsys.rows, eqsys.cols, ones, row_keys, eqsys.col_keys, eqsys.p)


@dataclass
class SolveResult:
    values: "np.ndarray | None"  # (columns, width) int64 in col_keys order; None unless solved
    rank: int
    consistent: bool
    failing_row: "tuple | None" = None


def _flatten_rhs(u, eqsys: EquationSystem) -> np.ndarray:
    rows = []
    for m, vals in enumerate(eqsys.values):
        um = np.asarray(u[m], dtype=np.int64)
        if um.shape[0] != len(vals):
            raise InvalidArgumentError(f"receiver {m}: expected {len(vals)} equation values")
        rows.append(um.reshape(len(vals), -1))
    widths = {r.shape[1] for r in rows}
    if len(widths) != 1:
        raise InvalidArgumentError("equation value widths differ between receivers")
    return np.concatenate(rows, axis=0)


def solve_linear(sys: IncidenceSystem, u, eqsys: EquationSystem | None = None) -> SolveResult:
    """Gauss-Jordan elimination over F_p on the nonzeros; unique solution iff full column rank.

    ``u`` is the per-receiver list of equation value arrays (vector-valued
    equations allowed), or a flat array matching the row order. An
    inconsistent system (corrupted u) is reported with its failing row key.
    ``sys`` is never modified.

    Elimination runs on the augmented system [A | u]: each row is one
    ``{column: residue}`` map of Python ints in which right-hand-side
    component w is column ``n_cols + w``, so a pivot's row operation
    updates the right-hand side with the same loop. Each column of A also
    keeps the set of rows that are nonzero in it. The pivot rule is the
    dense one: columns are taken in order, and the pivot of column c is the
    row at the first position at or after ``rank`` in the swapped row order
    (``order`` maps position to row, ``pos`` row to position), which then
    swaps places with the row at ``rank``. Rank, consistency and the failing
    row (the first zero row of A with a nonzero right-hand side, in swapped
    order) are therefore those of dense elimination. At full rank the
    pivots are the columns in order, so ``values`` is (columns, width) in
    ``col_keys`` order.

    A pivot touches its own row's entries and the rows holding its column,
    so work and memory grow with the nonzeros plus the fill-in (entries
    that elimination makes nonzero), not with rows x columns. The K=3 L=2
    incidence, 3648 x 1536 with K nonzeros per column, gains about a
    thousand fill-ins.
    """
    p = int(sys.p)
    n_rows, n_cols = sys.shape
    if eqsys is not None:
        rhs = _flatten_rhs(u, eqsys) % p
    else:
        rhs = np.asarray(u, dtype=np.int64).reshape(n_rows, -1) % p
    if rhs.shape[0] != n_rows:
        raise InvalidArgumentError("equation values do not match the incidence rows")
    width = rhs.shape[1]
    rows = [{} for _ in range(n_rows)]
    # row sets for the columns of A only: no pivot is sought on the right-hand side
    col_rows = [set() for _ in range(n_cols)]
    for r, c, v in zip(sys.rows.tolist(), sys.cols.tolist(), (sys.vals % p).tolist()):
        if v:
            rows[r][c] = v
            col_rows[c].add(r)
    r_nz, w_nz = np.nonzero(rhs)
    for r, w, v in zip(r_nz.tolist(), (w_nz + n_cols).tolist(), rhs[r_nz, w_nz].tolist()):
        rows[r][w] = v
    order = list(range(n_rows))
    pos = list(range(n_rows))
    pivots = []  # (column, row) in column order
    for c in range(n_cols):
        rank = len(pivots)
        holders = col_rows[c]
        below = [pos[r] for r in holders if pos[r] >= rank]
        if not below:
            continue
        at = min(below)
        piv, displaced = order[at], order[rank]
        order[rank], order[at] = piv, displaced
        pos[displaced], pos[piv] = at, rank
        # no row past the pivot holds column c again, so nothing reads the
        # column after this step: its entries (the pivot's 1, the targets'
        # zeros) are dropped and its row set is left as it is
        prow = rows[piv]
        inv = pow(prow.pop(c), p - 2, p)
        if inv != 1:
            for j in prow:
                prow[j] = prow[j] * inv % p
        holders.discard(piv)
        for t in holders:
            trow = rows[t]
            f = trow.pop(c)
            for j, v in prow.items():
                x = (trow.get(j, 0) - f * v) % p
                if x:
                    trow[j] = x
                    if j < n_cols:
                        col_rows[j].add(t)
                else:
                    trow.pop(j, None)
                    if j < n_cols:
                        col_rows[j].discard(t)
        pivots.append((c, piv))
        if len(pivots) == n_cols:
            break
    rank = len(pivots)
    # rows past the pivots have no entries left in A, so any entry they
    # keep is a nonzero right-hand side
    for r in order[rank:]:
        if rows[r]:
            return SolveResult(None, rank, False, sys.row_keys[r])
    if rank < n_cols:
        return SolveResult(None, rank, True, None)
    extra = range(n_cols, n_cols + width)
    solved = np.array([rows[r].get(j, 0) for _, r in pivots for j in extra], dtype=np.int64)
    return SolveResult(solved.reshape(n_cols, width), rank, True, None)


def _is_canonical(eqsys: EquationSystem) -> bool:
    sig = eqsys.signature
    if sig.l is None:
        return False
    full = sig.l ** (sig.k * sig.k)
    return (np.array_equal(sig.gain_exponents, _canonical_gain_exponents(sig.k))
            and all(len(v) == full for v in sig.values))


@dataclass
class PeelResult:
    values: np.ndarray  # (columns, width) int64 residues in col_keys order
    order: np.ndarray  # (columns,) column indices in resolution order
    rounds: int
    fallback: bool  # solved by the linear oracle (non-canonical signature)


def peel_invert(eqsys: EquationSystem, u) -> PeelResult:
    """Constructive inversion by repeated unique-origin readout.

    Works round by round on the incidence nonzeros: every equation with
    exactly one unresolved contributor is read off, the lowest such row
    winning when several hold the same submessage, and the values read are
    subtracted from every equation that holds them. Per row it keeps the
    count and the sum of its unresolved column ids, so a row whose count
    is 1 names its contributor by that sum. ``values`` is (columns, width)
    in ``col_keys`` order, and ``order`` lists the columns in the order of
    resolution: by round, then descending highest exponent of the message,
    then the winning row's receiver, then (transmitter, index). Equations
    that are never read are never checked. Non-canonical signature maps are
    delegated to ``solve_linear``; ``order`` is then the columns in order.
    """
    if not _is_canonical(eqsys):
        result = solve_linear(build_incidence(eqsys), u, eqsys)
        if result.values is None:
            raise InvalidArgumentError(
                "linear fallback failed: system is rank-deficient or inconsistent"
            )
        return PeelResult(result.values, np.arange(len(result.values)), 0, True)
    p = eqsys.p
    residual = _flatten_rhs(u, eqsys) % p
    rows, cols, keys = eqsys.rows, eqsys.cols, eqsys.col_keys
    n_rows, n_cols = len(residual), len(keys)
    receiver = np.repeat(np.arange(eqsys.k), [len(v) for v in eqsys.values])
    # column c is the signature's row c over all transmitters in turn
    degree = np.concatenate([e.max(axis=1) for e in eqsys.signature.exponents])
    unresolved = np.bincount(rows, minlength=n_rows)
    # float64 sums of column ids: exact far beyond any incidence width
    col_sum = np.bincount(rows, weights=cols, minlength=n_rows)
    resolved = np.zeros(n_cols, dtype=bool)
    solved = np.zeros((n_cols, residual.shape[1]), dtype=np.int64)
    sequence = []
    while not resolved.all():
        singles = np.flatnonzero(unresolved == 1)
        if not singles.size:
            left = keys[~resolved]
            raise PeelStallError(
                f"peeling stalled with {len(left)} unresolved submessages: "
                f"{list(map(tuple, left[:8].tolist()))}..."
            )
        # singles ascend, so the first single row of each column is the lowest
        new, at = np.unique(col_sum[singles].astype(np.int64), return_index=True)
        winner = singles[at]
        solved[new] = residual[winner]
        sequence.append(new[np.lexsort((new, receiver[winner], -degree[new]))])
        resolved[new] = True
        newly = np.zeros(n_cols, dtype=bool)
        newly[new] = True
        hit = newly[cols]  # the nonzeros of this round's columns, still row-sorted
        r, c = rows[hit], cols[hit]
        unresolved -= np.bincount(r, minlength=n_rows)
        col_sum -= np.bincount(r, weights=c, minlength=n_rows)
        touched, start = np.unique(r, return_index=True)
        residual[touched] = (residual[touched] - np.add.reduceat(solved[c], start)) % p
    return PeelResult(solved, np.concatenate(sequence), len(sequence), False)


def _is_solution(eqsys: EquationSystem, x, u) -> bool:
    """Whether A x = u (mod p) on the 0/1 incidence of ``eqsys``, in one pass over its nonzeros.

    ``x`` is (columns, width) in ``col_keys`` order and ``u`` the
    per-receiver equation values. Every equation is checked, also those
    that a peel never reads.
    """
    residual = _flatten_rhs(u, eqsys)
    start = np.flatnonzero(np.diff(eqsys.rows, prepend=-1))  # nonzeros are row-sorted
    residual[eqsys.rows[start]] -= np.add.reduceat(x[eqsys.cols], start)
    return not np.any(residual % eqsys.p)


@dataclass
class InjectivityReport:
    injective: bool
    rank: int
    expected_rank: int


def injectivity_check(eqsys: EquationSystem) -> InjectivityReport:
    """Column rank over F_p of a canonical system's incidence versus K |G_L|, by elimination.

    A completed ``peel_invert`` already proves full column rank, so
    ``caf invert`` does not call this. It stays as the elimination's
    statement of the claim: the acceptance tests check injectivity with
    it, and the benchmark tracer names it as a layer.
    """
    if not _is_canonical(eqsys):
        raise InvalidArgumentError("injectivity_check needs a canonical-signature equation system")
    sig = eqsys.signature
    sys = build_incidence(eqsys)
    expected = sig.k * (sig.l ** (sig.k * sig.k))
    result = solve_linear(sys, np.zeros((sys.shape[0], 1), dtype=np.int64))
    return InjectivityReport(result.rank == expected, result.rank, expected)
