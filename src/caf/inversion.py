"""Recovering all submessages from the decoded receiver equations.

The decoded equations u[m, g] = sum_k w[k, g / h[m,k]] (mod p) form a 0/1
linear system over F_p whose columns are submessages and whose rows are
(receiver, receive monomial) pairs. Two independent solvers are provided:

* ``solve_linear`` - plain Gaussian elimination over F_p, the oracle;
* ``peel_invert`` - the constructive peeling procedure. On a generic
  channel a receive monomial identifies its origin uniquely, so some
  equation always has exactly one unresolved contributor (highest powers
  resolve first); reading it off and subtracting it from every equation
  exposes the next layer, recursing down the exponent range. Resolution
  order is fixed (descending highest exponent, then receiver, then
  transmitter); any valid order yields the same values, which the oracle
  cross-check enforces in the tests. A stall (no singleton equation while
  messages remain) would contradict the injectivity guarantee and is
  reported as such.

Peeling applies to the canonical signature construction only; arbitrary
signature maps fall back to the linear solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# canonical_signature stays bound here: perfbench/test_harness.py checks that
# tracing wraps and restores this module's copy of it
from .alignment import EquationSystem, canonical_signature  # noqa: F401
from .errors import InvalidArgumentError


class PeelStallError(RuntimeError):
    """No equation with a unique unresolved origin remains (bug trap)."""


@dataclass
class IncidenceSystem:
    """0/1 incidence matrix (int8) with its row/column index maps."""

    matrix: np.ndarray
    row_keys: list  # (receiver m, receive exponent tuple)
    col_keys: list  # (transmitter k, submessage index)
    p: int

    @property
    def shape(self):
        return self.matrix.shape


def build_incidence(eqsys: EquationSystem) -> IncidenceSystem:
    """Assemble the submessage -> equation map of the equation system."""
    col_keys = sorted({pair for rx in eqsys.receivers for g in rx for pair in g.contributors})
    col_index = {key: j for j, key in enumerate(col_keys)}
    row_keys = [(m, g.exponents) for m, groups in enumerate(eqsys.receivers) for g in groups]
    rows, cols = [], []
    for r, g in enumerate(g for groups in eqsys.receivers for g in groups):
        rows += [r] * len(g.contributors)
        cols += [col_index[key] for key in g.contributors]
    matrix = np.zeros((len(row_keys), len(col_keys)), dtype=np.int8)
    matrix[rows, cols] = 1
    return IncidenceSystem(matrix, row_keys, col_keys, eqsys.p)


@dataclass
class SolveResult:
    values: "dict | None"  # (k, i) -> residue array; None when rank-deficient
    rank: int
    consistent: bool
    failing_row: "tuple | None" = None


def _flatten_rhs(u, eqsys: EquationSystem) -> np.ndarray:
    rows = []
    for m, groups in enumerate(eqsys.receivers):
        um = np.asarray(u[m], dtype=np.int64)
        if um.shape[0] != len(groups):
            raise InvalidArgumentError(f"receiver {m}: expected {len(groups)} equation values")
        rows.append(um.reshape(len(groups), -1))
    widths = {r.shape[1] for r in rows}
    if len(widths) != 1:
        raise InvalidArgumentError("equation value widths differ between receivers")
    return np.concatenate(rows, axis=0)


def solve_linear(sys: IncidenceSystem, u, eqsys: EquationSystem | None = None) -> SolveResult:
    """Gauss-Jordan elimination over F_p; unique solution iff full column rank.

    ``u`` is the per-receiver list of equation value arrays (vector-valued
    equations allowed), or a flat array matching the row order. An
    inconsistent system (corrupted u) is reported with its failing row key.

    Rows at or below ``rank`` are zero left of column ``c`` (every earlier
    column is either a pivot column, cleared outside its pivot row, or was
    skipped because it had no nonzero there), and so is the pivot row.
    Swapping, scaling and eliminating therefore touch columns ``c:`` only.
    """
    p = sys.p
    M = sys.matrix.astype(np.int64)  # the one working copy, reduced in place
    M %= p
    if eqsys is not None:
        rhs = _flatten_rhs(u, eqsys) % p
    else:
        rhs = np.asarray(u, dtype=np.int64).reshape(sys.matrix.shape[0], -1) % p
    if rhs.shape[0] != M.shape[0]:
        raise InvalidArgumentError("equation values do not match the incidence rows")
    rows, cols = M.shape
    perm = np.arange(rows)
    rank = 0
    pivot_cols = []
    for c in range(cols):
        factors = M[:, c].copy()  # the one strided read of column c
        nz_below = np.flatnonzero(factors[rank:])
        if nz_below.size == 0:
            continue
        piv = rank + int(nz_below[0])
        M[[rank, piv], c:] = M[[piv, rank], c:]
        rhs[[rank, piv]] = rhs[[piv, rank]]
        perm[[rank, piv]] = perm[[piv, rank]]
        factors[[rank, piv]] = factors[[piv, rank]]
        inv = pow(int(factors[rank]), p - 2, p)
        M[rank, c:] = (M[rank, c:] * inv) % p
        rhs[rank] = (rhs[rank] * inv) % p
        factors[rank] = 0
        nz = np.flatnonzero(factors)
        if nz.size:
            f = factors[nz, None]
            M[nz, c:] = (M[nz, c:] - f * M[rank, c:]) % p
            rhs[nz] = (rhs[nz] - f * rhs[rank]) % p
        pivot_cols.append(c)
        rank += 1
        if rank == cols:
            break
    # rows without a pivot are now all-zero; their rhs must vanish too
    failing = ~np.any(M, axis=1) & np.any(rhs, axis=1)
    if np.any(failing):
        return SolveResult(None, rank, False, sys.row_keys[int(perm[np.argmax(failing)])])
    if rank < cols:
        return SolveResult(None, rank, True, None)
    values = {}
    for r, c in enumerate(pivot_cols):
        values[sys.col_keys[c]] = rhs[r] % p
    return SolveResult(values, rank, True, None)


def _is_canonical(eqsys: EquationSystem) -> bool:
    sig = eqsys.signature
    if sig is None or sig.l is None:
        return False
    k = sig.k
    n = k * k
    expected = tuple(
        tuple(tuple(1 if j == m * k + kk else 0 for j in range(n)) for kk in range(k))
        for m in range(k)
    )
    if sig.gain_exponents != expected:
        return False
    full = sig.l ** n
    return all(len(tx) == full for tx in sig.transmitters)


@dataclass
class PeelResult:
    values: dict  # (k, i) -> residue array
    rounds: int
    fallback: bool  # solved by the linear oracle (non-canonical signature)


def peel_invert(eqsys: EquationSystem, u, p: int | None = None) -> PeelResult:
    """Constructive inversion by repeated unique-origin readout.

    Works round by round: every equation whose unresolved contributor set
    is a singleton is read off (ordered by descending highest exponent of
    the message, then receiver, then transmitter) and the resolved value
    is subtracted from all equations immediately. Non-canonical signature
    maps are delegated to ``solve_linear``.
    """
    p = eqsys.p if p is None else int(p)
    if p != eqsys.p:
        raise InvalidArgumentError("p disagrees with the equation system")
    if not _is_canonical(eqsys):
        result = solve_linear(build_incidence(eqsys), u, eqsys)
        if result.values is None:
            raise InvalidArgumentError(
                "linear fallback failed: system is rank-deficient or inconsistent"
            )
        return PeelResult(result.values, 0, True)
    sig = eqsys.signature
    rhs = _flatten_rhs(u, eqsys) % p
    # mutable equation state: residual value + unresolved contributor set
    residual = [row.copy() for row in rhs]
    unresolved = []
    eq_of_msg = {}
    row = 0
    row_meta = []
    for m, groups in enumerate(eqsys.receivers):
        for g in groups:
            members = set(g.contributors)
            unresolved.append(members)
            for pair in g.contributors:
                eq_of_msg.setdefault(pair, []).append(row)
            row_meta.append((m, g.exponents))
            row += 1
    degree = {
        (kk, sub.index): max(sub.exponents)
        for kk in range(sig.k)
        for sub in sig.transmitters[kk]
    }
    values = {}
    remaining = set(degree)
    rounds = 0
    while remaining:
        singles = []
        for r, members in enumerate(unresolved):
            if len(members) == 1:
                (pair,) = members
                singles.append((-degree[pair], row_meta[r][0], pair[0], pair[1], r))
        if not singles:
            raise PeelStallError(
                f"peeling stalled with {len(remaining)} unresolved submessages: "
                f"{sorted(remaining)[:8]}..."
            )
        rounds += 1
        for _, _, _, _, r in sorted(singles):
            members = unresolved[r]
            if len(members) != 1:
                continue  # resolved earlier this round through another equation
            (pair,) = members
            val = residual[r] % p
            values[pair] = val
            remaining.discard(pair)
            for rr in eq_of_msg[pair]:
                if pair in unresolved[rr]:
                    unresolved[rr].discard(pair)
                    residual[rr] = (residual[rr] - val) % p
    return PeelResult(values, rounds, False)


@dataclass
class InjectivityReport:
    injective: bool
    rank: int
    expected_rank: int


def injectivity_check(eqsys: EquationSystem) -> InjectivityReport:
    """Column rank over F_p of a canonical system's incidence versus K |G_L|.

    The rank depends on the matrix only, so a caller that already runs
    ``solve_linear`` on ``build_incidence(eqsys)`` can read it from that
    result instead.
    """
    if not _is_canonical(eqsys):
        raise InvalidArgumentError("injectivity_check needs a canonical-signature equation system")
    sig = eqsys.signature
    sys = build_incidence(eqsys)
    expected = sig.k * (sig.l ** (sig.k * sig.k))
    result = solve_linear(sys, np.zeros((sys.matrix.shape[0], 1), dtype=np.int64))
    return InjectivityReport(result.rank == expected, result.rank, expected)
