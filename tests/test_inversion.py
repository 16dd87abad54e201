import dataclasses
import tracemalloc

import numpy as np
import pytest

from caf import alignment as al
from caf import inversion as inv
from caf.errors import InvalidArgumentError, NonGenericChannelError

H_GENERIC = np.array([[1.37, 0.71], [1.92, 0.58]])
H_EXAMPLE = np.array([[1.0, 0.8], [1.3, 1.0]])


def canonical_system(H, L, p):
    sig = al.canonical_signature(H, L, p)
    eqsys = al.derive_equation_system(sig)
    return sig, eqsys


def dense_system(M, row_keys, col_keys, p):
    """The ``IncidenceSystem`` of a dense matrix: its nonzero residues mod p, as int64."""
    M = np.asarray(M, dtype=np.int64) % p
    rows, cols = np.nonzero(M)
    return inv.IncidenceSystem(rows, cols, M[rows, cols], row_keys, col_keys, p)


def assert_same_array(got, want):
    assert got.dtype == want.dtype and np.array_equal(got, want)


def assert_recovers(values, w):
    """``values`` is the sent ``w``: (columns, width) int64 in ``col_keys`` order, which lists
    the submessages by transmitter, then index."""
    assert_same_array(values, np.concatenate([np.reshape(wk, (len(wk), -1)) for wk in w]))


class TestBuildIncidence:
    def test_canonical_k2_l1_shape(self):
        _, eqsys = canonical_system(H_GENERIC, 1, 3)
        sys = inv.build_incidence(eqsys)
        assert sys.matrix.shape == (4, 2)
        assert list(sys.matrix.sum(axis=0)) == [2, 2]

    def test_example_shape_and_rows(self):
        sig = al.example_signature(H_EXAMPLE, p=5)
        eqsys = al.derive_equation_system(sig)
        sys = inv.build_incidence(eqsys)
        assert sys.matrix.shape == (5, 4)
        assert list(sys.matrix.sum(axis=0)) == [2, 2, 2, 2]
        # receiver 1 fuses one pair; receiver 2 fuses both of its groups
        row_weights = sorted(int(x) for x in sys.matrix.sum(axis=1))
        assert row_weights == [1, 1, 2, 2, 2]

    def test_column_sums_equal_k(self):
        for L in (1, 2):
            sig, eqsys = canonical_system(H_GENERIC, L, 3)
            sys = inv.build_incidence(eqsys)
            assert np.all(sys.matrix.sum(axis=0) == 2)

    def test_entries_depend_only_on_exponents(self):
        rng = np.random.default_rng(1)
        mats = []
        for _ in range(3):
            H = rng.uniform(0.5, 2.0, size=(2, 2))
            _, eqsys = canonical_system(H, 2, 5)
            sys = inv.build_incidence(eqsys)
            order = sorted(range(len(sys.row_keys)), key=lambda r: sys.row_keys[r])
            mats.append(sys.matrix[order])
        assert all(np.array_equal(m, mats[0]) for m in mats)


class TestSolveLinear:
    def test_recovers_random_messages(self):
        sig, eqsys = canonical_system(H_GENERIC, 2, 5)
        sys = inv.build_incidence(eqsys)
        rng = np.random.default_rng(2)
        for _ in range(10):
            w = [rng.integers(0, 5, size=(16,)) for _ in range(2)]
            u = [np.asarray(t) % 5 for t in al.true_equations(w, eqsys)]
            res = inv.solve_linear(sys, u, eqsys)
            assert res.consistent and res.values is not None
            assert_recovers(res.values, w)

    def test_duplicated_column_reports_rank_deficiency(self):
        M = np.array([[1, 1, 0], [1, 1, 1], [0, 0, 1]])
        sys = dense_system(M, [(0, (0,)), (0, (1,)), (1, (0,))], [(0, 0), (0, 1), (1, 0)], 5)
        res = inv.solve_linear(sys, np.array([[1], [2], [1]]))
        assert res.values is None
        assert res.rank == 2

    def test_inconsistent_reports_failing_row(self):
        M = np.array([[1, 0], [1, 0], [0, 1]])
        sys = dense_system(M, [(0, (0,)), (1, (0,)), (1, (1,))], [(0, 0), (1, 0)], 3)
        res = inv.solve_linear(sys, np.array([[1], [2], [0]]))
        assert not res.consistent
        assert res.failing_row in [(0, (0,)), (1, (0,))]


def full_width_solve(sys, u, eqsys=None):
    """Reference: Gauss-Jordan on whole rows and a row-by-row zero-row scan."""
    p = sys.p
    M = np.asarray(sys.matrix, dtype=np.int64) % p
    if eqsys is not None:
        rhs = inv._flatten_rhs(u, eqsys) % p
    else:
        rhs = np.asarray(u, dtype=np.int64).reshape(sys.matrix.shape[0], -1) % p
    rows, cols = M.shape
    perm = np.arange(rows)
    rank = 0
    pivot_cols = []
    for c in range(cols):
        nz_below = np.nonzero(M[rank:, c])[0]
        if nz_below.size == 0:
            continue
        piv = rank + int(nz_below[0])
        M[[rank, piv]] = M[[piv, rank]]
        rhs[[rank, piv]] = rhs[[piv, rank]]
        perm[[rank, piv]] = perm[[piv, rank]]
        inv_c = pow(int(M[rank, c]), p - 2, p)
        M[rank] = (M[rank] * inv_c) % p
        rhs[rank] = (rhs[rank] * inv_c) % p
        factors = M[:, c].copy()
        factors[rank] = 0
        nz = np.nonzero(factors)[0]
        if nz.size:
            M[nz] = (M[nz] - np.outer(factors[nz], M[rank])) % p
            rhs[nz] = (rhs[nz] - np.outer(factors[nz], rhs[rank])) % p
        pivot_cols.append(c)
        rank += 1
        if rank == cols:
            break
    for r in range(rows):
        if not np.any(M[r]) and np.any(rhs[r] % p):
            return inv.SolveResult(None, rank, False, sys.row_keys[int(perm[r])])
    if rank < cols:
        return inv.SolveResult(None, rank, True, None)
    # keyed by pivot column; at full rank every column is a pivot, and the
    # result lists the keys in column order
    values = {c: rhs[r] % p for r, c in enumerate(pivot_cols)}
    return inv.SolveResult(np.stack([values[c] for c in range(cols)]), rank, True, None)


def nonzeros(sys):
    return sys.rows.copy(), sys.cols.copy(), sys.vals.copy()


def assert_same_nonzeros(sys, before):
    for got, want in zip((sys.rows, sys.cols, sys.vals), before):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def assert_same_solve(got, want):
    assert (got.rank, got.consistent, got.failing_row) == (want.rank, want.consistent, want.failing_row)
    if want.values is None:
        assert got.values is None
    else:
        assert_same_array(got.values, want.values)


def random_system(rng, rows, cols, p, rank=None, dense=True):
    if rank is None:
        M = rng.integers(0, p if dense else 2, size=(rows, cols))
    else:
        M = rng.integers(0, p, size=(rows, rank)) @ rng.integers(0, p, size=(rank, cols)) % p
    return dense_system(M, [(r % 3, (r,)) for r in range(rows)],
                        [(c % 2, c) for c in range(cols)], p)


class TestSolveLinearAgainstFullWidth:
    SHAPES = [(6, 4), (10, 10), (12, 5), (5, 8), (30, 20), (40, 40)]

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 257])
    def test_random_systems(self, p):
        rng = np.random.default_rng(p)
        for rows, cols in self.SHAPES:
            for dense in (True, False):
                sys = random_system(rng, rows, cols, p, dense=dense)
                x = rng.integers(0, p, size=(cols, 3))
                for u in (sys.matrix @ x % p, rng.integers(0, p, size=(rows, 3))):
                    assert_same_solve(inv.solve_linear(sys, u), full_width_solve(sys, u))

    @pytest.mark.parametrize("p", [2, 5, 257])
    def test_rank_deficient_and_inconsistent_systems(self, p):
        rng = np.random.default_rng(1000 + p)
        seen = set()
        for rows, cols in self.SHAPES:
            for r in (1, min(rows, cols) // 2, min(rows, cols) - 1):
                sys = random_system(rng, rows, cols, p, rank=max(r, 1))
                consistent = sys.matrix @ rng.integers(0, p, size=(cols, 2)) % p
                for u in (consistent, rng.integers(0, p, size=(rows, 2))):
                    want = full_width_solve(sys, u)
                    assert_same_solve(inv.solve_linear(sys, u), want)
                    seen.add((want.values is None, want.consistent))
        assert seen == {(True, True), (True, False)}

    def test_corrupted_canonical_equations(self):
        rng = np.random.default_rng(9)
        sig, eqsys = canonical_system(H_GENERIC, 2, 5)
        sys = inv.build_incidence(eqsys)
        for _ in range(10):
            w = [rng.integers(0, 5, size=(16, 2)) for _ in range(2)]
            u = [np.asarray(t) % 5 for t in al.true_equations(w, eqsys)]
            m = int(rng.integers(0, 2))
            u[m][int(rng.integers(0, len(u[m])))] += 1 + rng.integers(0, 4, size=2)
            want = full_width_solve(sys, u, eqsys)
            assert not want.consistent
            assert_same_solve(inv.solve_linear(sys, u, eqsys), want)

    def test_p257_on_the_int8_incidence(self):
        sig, eqsys = canonical_system(H_GENERIC, 2, 257)
        sys = inv.build_incidence(eqsys)
        assert sys.matrix.dtype == np.int8
        rng = np.random.default_rng(10)
        w = [rng.integers(0, 257, size=(16,)) for _ in range(2)]
        u = [np.asarray(t) % 257 for t in al.true_equations(w, eqsys)]
        res = inv.solve_linear(sys, u, eqsys)
        assert_same_solve(res, full_width_solve(sys, u, eqsys))
        assert res.rank == 32
        assert_recovers(res.values, w)

    def test_input_matrix_is_not_modified(self):
        rng = np.random.default_rng(11)
        sys = random_system(rng, 12, 8, 7)
        before = nonzeros(sys)
        inv.solve_linear(sys, rng.integers(0, 7, size=(12, 1)))
        assert_same_nonzeros(sys, before)


def generic_canonical_system(k, L, p, rng):
    while True:
        try:
            return canonical_system(rng.uniform(0.5, 2.0, size=(k, k)), L, p)
        except NonGenericChannelError:
            continue


class TestSolveLinearOnCanonicalIncidence:
    """The real incidence: K nonzeros per column, rows far outnumbering columns."""

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("L", [1, 2])
    @pytest.mark.parametrize("p", [2, 3, 257])
    def test_matches_full_width(self, k, L, p):
        rng = np.random.default_rng(100 * k + 10 * L + p)
        sig, eqsys = generic_canonical_system(k, L, p, rng)
        sys = inv.build_incidence(eqsys)
        w = [rng.integers(0, p, size=(len(v), 2)) for v in sig.values]
        u = [np.asarray(t) % p for t in al.true_equations(w, eqsys)]
        want = full_width_solve(sys, u, eqsys)
        assert want.values is not None and want.rank == k * al.monomial_card(k, L)
        assert_same_solve(inv.solve_linear(sys, u, eqsys), want)

        bad = [um.copy() for um in u]
        m = int(rng.integers(0, k))
        bad[m][int(rng.integers(0, len(bad[m])))] += 1 + rng.integers(0, p - 1, size=2)
        want = full_width_solve(sys, bad, eqsys)
        assert not want.consistent
        assert_same_solve(inv.solve_linear(sys, bad, eqsys), want)

        # drop receiver 0's rows; at L=1 every receiver reads every
        # submessage on its own, so also drop the rows that hear (0, 0)
        keep = [r for r, key in enumerate(sys.row_keys)
                if key[0] != 0 and not (L == 1 and sys.matrix[r, 0])]
        sub = dense_system(sys.matrix[keep], [sys.row_keys[r] for r in keep], sys.col_keys, p)
        rhs = inv._flatten_rhs(u, eqsys)[keep]
        noisy = rhs.copy()
        noisy[int(rng.integers(0, len(keep)))] += 1
        for flat in (rhs, noisy):
            want = full_width_solve(sub, flat)
            assert want.values is None and want.rank < len(sys.col_keys)
            assert_same_solve(inv.solve_linear(sub, flat), want)

    def test_k3_l2_memory_is_linear_in_nonzeros(self):
        # a dense int8 copy of this 3648 x 1536 incidence alone is 5.3 MiB;
        # its 4608 nonzeros and the elimination's maps take about half that
        rng = np.random.default_rng(12)
        sig, eqsys = generic_canonical_system(3, 2, 3, rng)
        w = [rng.integers(0, 3, size=(len(v), 1)) for v in sig.values]
        u = [np.asarray(t) % 3 for t in al.true_equations(w, eqsys)]
        tracemalloc.start()
        try:
            sys = inv.build_incidence(eqsys)
            res = inv.solve_linear(sys, u, eqsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.rank == 1536
        assert peak < 5 * 2**20
        assert sys.shape == (3648, 1536) and len(sys.rows) == 4608


class TestPeel:
    def test_l1_direct_readout(self):
        sig, eqsys = canonical_system(H_GENERIC, 1, 7)
        rng = np.random.default_rng(3)
        w = [rng.integers(0, 7, size=(1,)) for _ in range(2)]
        u = [np.asarray(t) % 7 for t in al.true_equations(w, eqsys)]
        res = inv.peel_invert(eqsys, u)
        assert res.rounds == 1 and not res.fallback
        assert_recovers(res.values, w)

    def test_k2_l2_matches_linear_oracle(self):
        rng = np.random.default_rng(4)
        done = 0
        while done < 20:
            H = rng.uniform(0.5, 2.0, size=(2, 2))
            try:
                sig, eqsys = canonical_system(H, 2, 5)
            except NonGenericChannelError:
                continue
            done += 1
            w = [rng.integers(0, 5, size=(16,)) for _ in range(2)]
            u = [np.asarray(t) % 5 for t in al.true_equations(w, eqsys)]
            peel = inv.peel_invert(eqsys, u)
            solve = inv.solve_linear(inv.build_incidence(eqsys), u, eqsys)
            assert not peel.fallback
            assert solve.values is not None
            assert_same_array(peel.values, solve.values)
            assert peel.rounds <= 2 * 4  # L * K^2

    def test_k3_l2_matches_linear_oracle(self):
        rng = np.random.default_rng(5)
        H = rng.uniform(0.5, 2.0, size=(3, 3))
        sig, eqsys = canonical_system(H, 2, 3)
        w = [rng.integers(0, 3, size=(512,)) for _ in range(3)]
        u = [np.asarray(t) % 3 for t in al.true_equations(w, eqsys)]
        peel = inv.peel_invert(eqsys, u)
        solve = inv.solve_linear(inv.build_incidence(eqsys), u, eqsys)
        assert solve.values is not None and not peel.fallback
        assert_same_array(peel.values, solve.values)
        assert peel.rounds <= 2 * 9

    def test_vector_valued_equations(self):
        sig, eqsys = canonical_system(H_GENERIC, 2, 5)
        rng = np.random.default_rng(6)
        w = [rng.integers(0, 5, size=(16, 4)) for _ in range(2)]
        u = [np.asarray(t) % 5 for t in al.true_equations(w, eqsys)]
        res = inv.peel_invert(eqsys, u)
        assert_recovers(res.values, w)

    def test_example_signature_falls_back_to_solver(self):
        sig = al.example_signature(H_EXAMPLE, p=5)
        eqsys = al.derive_equation_system(sig)
        rng = np.random.default_rng(7)
        w = [rng.integers(0, 5, size=(2,)) for _ in range(2)]
        u = [np.asarray(t) % 5 for t in al.true_equations(w, eqsys)]
        res = inv.peel_invert(eqsys, u)
        assert res.fallback
        assert_same_array(res.order, np.arange(4))
        assert_recovers(res.values, w)

    def test_partial_canonical_signature_falls_back_to_solver(self):
        # canonical gains, but each transmitter sends only 8 of the 16 rows of G_2
        sig = al.canonical_signature(H_GENERIC, 2, 5)
        sig = dataclasses.replace(sig, exponents=[e[:8] for e in sig.exponents],
                                  values=[v[:8] for v in sig.values])
        eqsys = al.derive_equation_system(sig)
        w = [np.arange(8) % 5, np.arange(8)[::-1] % 5]
        u = [np.asarray(t) % 5 for t in al.true_equations(w, eqsys)]
        res = inv.peel_invert(eqsys, u)
        assert res.fallback
        assert_same_array(res.order, np.arange(16))
        assert_recovers(res.values, w)

    def test_stall_is_reported(self):
        sig, eqsys = canonical_system(H_GENERIC, 1, 3)
        # cripple the system: no equation hears transmitter 0 any more
        heard = eqsys.cols != 0
        eqsys = dataclasses.replace(eqsys, rows=eqsys.rows[heard], cols=eqsys.cols[heard])
        assert all((0, 0) not in g.contributors for rx in eqsys.receivers for g in rx)
        u = [np.zeros(len(eqsys.values[m]), dtype=int) for m in range(2)]
        for peel in (inv.peel_invert, loop_peel):
            with pytest.raises(inv.PeelStallError, match=r"1 unresolved submessages: \[\(0, 0\)\]"):
                peel(eqsys, u)


def loop_peel(eqsys, u):
    """Reference: the set-based peel, one Python set of unresolved contributors per equation.

    Each round sorts the singleton equations by (descending highest exponent
    of the message, receiver, transmitter, index, row) and reads them off in
    that order, skipping one whose submessage an earlier row of the round
    already resolved.
    """
    p = eqsys.p
    sig = eqsys.signature
    rhs = inv._flatten_rhs(u, eqsys) % p
    residual = [row.copy() for row in rhs]
    unresolved, eq_of_msg, row_meta = [], {}, []
    for m, groups in enumerate(eqsys.receivers):
        for g in groups:
            unresolved.append(set(g.contributors))
            for pair in g.contributors:
                eq_of_msg.setdefault(pair, []).append(len(row_meta))
            row_meta.append(m)
    degree = {(kk, i): max(exps)
              for kk in range(sig.k) for i, exps in enumerate(sig.exponents[kk].tolist())}
    values, remaining, rounds = {}, set(degree), 0
    while remaining:
        singles = []
        for r, members in enumerate(unresolved):
            if len(members) == 1:
                (pair,) = members
                singles.append((-degree[pair], row_meta[r], pair[0], pair[1], r))
        if not singles:
            raise inv.PeelStallError(
                f"peeling stalled with {len(remaining)} unresolved submessages: "
                f"{sorted(remaining)[:8]}..."
            )
        rounds += 1
        for *_, r in sorted(singles):
            if len(unresolved[r]) != 1:
                continue  # resolved earlier this round through another equation
            (pair,) = unresolved[r]
            val = residual[r] % p
            values[pair] = val
            remaining.discard(pair)
            for rr in eq_of_msg[pair]:
                if pair in unresolved[rr]:
                    unresolved[rr].discard(pair)
                    residual[rr] = (residual[rr] - val) % p
    # the keys mapped through col_keys: the values in column order, the
    # key order as column indices
    column = {key: c for c, key in enumerate(map(tuple, eqsys.col_keys.tolist()))}
    order = np.array([column[pair] for pair in values], dtype=np.int64)
    return inv.PeelResult(np.stack([values[pair] for pair in column]), order, rounds, False)


def assert_same_peel(got, want):
    assert (got.rounds, got.fallback) == (want.rounds, want.fallback)
    assert_same_array(got.order, want.order)
    assert_same_array(got.values, want.values)


class TestPeelAgainstLoop:
    """The index-array peel reproduces the set-based peel: values, key order, rounds."""

    @pytest.mark.parametrize("k, L", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
    def test_canonical(self, k, L):
        rng = np.random.default_rng(70 + 10 * k + L)
        for p in (2, 3, 7):
            sig, eqsys = generic_canonical_system(k, L, p, rng)
            w = [rng.integers(0, p, size=(len(v), 3)) for v in sig.values]
            u = [np.asarray(t) % p for t in al.true_equations(w, eqsys)]
            assert_same_peel(inv.peel_invert(eqsys, u), loop_peel(eqsys, u))
            # corrupted equations: rows that disagree on a submessage
            for um in u:
                hit = rng.random(um.shape) < 0.2
                um[hit] = (um[hit] + 1) % p
            assert_same_peel(inv.peel_invert(eqsys, u), loop_peel(eqsys, u))
            flat = [um[:, 0] for um in u]
            assert_same_peel(inv.peel_invert(eqsys, flat), loop_peel(eqsys, flat))


class TestInjectivity:
    def test_k2_l2_random_channels(self):
        rng = np.random.default_rng(8)
        checked = 0
        while checked < 10:
            H = rng.uniform(0.5, 2.0, size=(2, 2))
            try:
                _, eqsys = canonical_system(H, 2, 5)
            except NonGenericChannelError:
                continue
            checked += 1
            report = inv.injectivity_check(eqsys)
            assert report.injective
            assert report.rank == report.expected_rank == 32

    def test_non_generic_rejected_upstream(self):
        with pytest.raises(NonGenericChannelError):
            al.canonical_signature(np.array([[1.4, 1.4], [0.7, 1.9]]), 2, 5)

    def test_non_canonical_system_rejected(self):
        eqsys = al.derive_equation_system(al.example_signature(H_EXAMPLE, p=5))
        with pytest.raises(InvalidArgumentError, match="canonical"):
            inv.injectivity_check(eqsys)

    def test_same_incidence_across_primes(self):
        _, eq2 = canonical_system(H_GENERIC, 2, 2)
        _, eq7 = canonical_system(H_GENERIC, 2, 7)
        m2 = inv.build_incidence(eq2)
        m7 = inv.build_incidence(eq7)
        assert np.array_equal(m2.matrix, m7.matrix)
        r2 = inv.injectivity_check(eq2)
        r7 = inv.injectivity_check(eq7)
        assert (r2.rank, r7.rank) == (32, 32)

    @pytest.mark.parametrize("k, L, p", [(2, 2, 5), (2, 3, 3), (3, 2, 3)])
    def test_rank_with_the_real_rhs_matches(self, k, L, p):
        rng = np.random.default_rng(40 + k + L)
        sig, eqsys = canonical_system(rng.uniform(0.5, 2.0, size=(k, k)), L, p)
        w = [rng.integers(0, p, size=(len(v),)) for v in sig.values]
        u = [np.asarray(t) % p for t in al.true_equations(w, eqsys)]
        solve = inv.solve_linear(inv.build_incidence(eqsys), u, eqsys)
        assert solve.rank == inv.injectivity_check(eqsys).rank == k * al.monomial_card(k, L)


class TestPeelDepth:
    def test_k2_l3_matches_linear_oracle(self):
        rng = np.random.default_rng(31)
        H = rng.uniform(0.5, 2.0, size=(2, 2))
        sig, eqsys = canonical_system(H, 3, 3)
        w = [rng.integers(0, 3, size=(81,)) for _ in range(2)]
        u = [np.asarray(t) % 3 for t in al.true_equations(w, eqsys)]
        peel = inv.peel_invert(eqsys, u)
        solve = inv.solve_linear(inv.build_incidence(eqsys), u, eqsys)
        assert solve.values is not None and not peel.fallback
        assert_same_array(peel.values, solve.values)
        assert peel.rounds <= 3 * 4

    def test_k3_l1_single_round(self):
        rng = np.random.default_rng(32)
        H = rng.uniform(0.5, 2.0, size=(3, 3))
        sig, eqsys = canonical_system(H, 1, 5)
        w = [rng.integers(0, 5, size=(1,)) for _ in range(3)]
        u = [np.asarray(t) % 5 for t in al.true_equations(w, eqsys)]
        res = inv.peel_invert(eqsys, u)
        assert res.rounds == 1
        assert_recovers(res.values, w)
