import numpy as np
import pytest

from caf import alignment as al
from caf import inversion as inv
from caf.errors import InvalidArgumentError, NonGenericChannelError

H_GENERIC = np.array([[1.37, 0.71], [1.92, 0.58]])
H_EXAMPLE = np.array([[1.0, 0.8], [1.3, 1.0]])


def canonical_system(H, L, p):
    sig = al.canonical_signature(H, L, p, mode="unit")
    eqsys = al.derive_equation_system(sig, H)
    return sig, eqsys


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
            u = [np.asarray(t) % 5 for t in al.true_equations(w, eqsys, sig)]
            res = inv.solve_linear(sys, u, eqsys)
            assert res.consistent and res.values is not None
            for kk in range(2):
                for i in range(16):
                    assert res.values[(kk, i)][0] == w[kk][i]

    def test_duplicated_column_reports_rank_deficiency(self):
        M = np.array([[1, 1, 0], [1, 1, 1], [0, 0, 1]])
        sys = inv.IncidenceSystem(M, [(0, (0,)), (0, (1,)), (1, (0,))],
                                  [(0, 0), (0, 1), (1, 0)], 5)
        res = inv.solve_linear(sys, np.array([[1], [2], [1]]))
        assert res.values is None
        assert res.rank == 2

    def test_inconsistent_reports_failing_row(self):
        M = np.array([[1, 0], [1, 0], [0, 1]])
        sys = inv.IncidenceSystem(M, [(0, (0,)), (1, (0,)), (1, (1,))],
                                  [(0, 0), (1, 0)], 3)
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
    values = {sys.col_keys[c]: rhs[r] % p for r, c in enumerate(pivot_cols)}
    return inv.SolveResult(values, rank, True, None)


def assert_same_solve(got, want):
    assert (got.rank, got.consistent, got.failing_row) == (want.rank, want.consistent, want.failing_row)
    if want.values is None:
        assert got.values is None
    else:
        assert list(got.values) == list(want.values)
        for key, value in want.values.items():
            assert np.array_equal(got.values[key], value)


def random_system(rng, rows, cols, p, rank=None, dense=True):
    if rank is None:
        M = rng.integers(0, p if dense else 2, size=(rows, cols))
    else:
        M = rng.integers(0, p, size=(rows, rank)) @ rng.integers(0, p, size=(rank, cols)) % p
    return inv.IncidenceSystem(M, [(r % 3, (r,)) for r in range(rows)],
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
            u = [np.asarray(t) % 5 for t in al.true_equations(w, eqsys, sig)]
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
        u = [np.asarray(t) % 257 for t in al.true_equations(w, eqsys, sig)]
        res = inv.solve_linear(sys, u, eqsys)
        assert_same_solve(res, full_width_solve(sys, u, eqsys))
        assert res.rank == 32
        for kk in range(2):
            for i in range(16):
                assert res.values[(kk, i)][0] == w[kk][i]

    def test_input_matrix_is_not_modified(self):
        rng = np.random.default_rng(11)
        sys = random_system(rng, 12, 8, 7)
        before = sys.matrix.copy()
        inv.solve_linear(sys, rng.integers(0, 7, size=(12, 1)))
        assert np.array_equal(sys.matrix, before)


class TestPeel:
    def test_l1_direct_readout(self):
        sig, eqsys = canonical_system(H_GENERIC, 1, 7)
        rng = np.random.default_rng(3)
        w = [rng.integers(0, 7, size=(1,)) for _ in range(2)]
        u = [np.asarray(t) % 7 for t in al.true_equations(w, eqsys, sig)]
        res = inv.peel_invert(eqsys, u)
        assert res.rounds == 1 and not res.fallback
        assert res.values[(0, 0)][0] == w[0][0]
        assert res.values[(1, 0)][0] == w[1][0]

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
            u = [np.asarray(t) % 5 for t in al.true_equations(w, eqsys, sig)]
            peel = inv.peel_invert(eqsys, u)
            solve = inv.solve_linear(inv.build_incidence(eqsys), u, eqsys)
            assert not peel.fallback
            assert solve.values is not None
            for key in solve.values:
                assert np.array_equal(peel.values[key], solve.values[key])
            assert peel.rounds <= 2 * 4  # L * K^2

    def test_k3_l2_matches_linear_oracle(self):
        rng = np.random.default_rng(5)
        H = rng.uniform(0.5, 2.0, size=(3, 3))
        sig, eqsys = canonical_system(H, 2, 3)
        w = [rng.integers(0, 3, size=(512,)) for _ in range(3)]
        u = [np.asarray(t) % 3 for t in al.true_equations(w, eqsys, sig)]
        peel = inv.peel_invert(eqsys, u)
        solve = inv.solve_linear(inv.build_incidence(eqsys), u, eqsys)
        assert solve.values is not None and not peel.fallback
        for key in solve.values:
            assert np.array_equal(peel.values[key], solve.values[key])
        assert peel.rounds <= 2 * 9

    def test_vector_valued_equations(self):
        sig, eqsys = canonical_system(H_GENERIC, 2, 5)
        rng = np.random.default_rng(6)
        w = [rng.integers(0, 5, size=(16, 4)) for _ in range(2)]
        u = [np.asarray(t) % 5 for t in al.true_equations(w, eqsys, sig)]
        res = inv.peel_invert(eqsys, u)
        for kk in range(2):
            for i in range(16):
                assert np.array_equal(res.values[(kk, i)], w[kk][i])

    def test_example_signature_falls_back_to_solver(self):
        sig = al.example_signature(H_EXAMPLE, p=5)
        eqsys = al.derive_equation_system(sig)
        rng = np.random.default_rng(7)
        w = [rng.integers(0, 5, size=(2,)) for _ in range(2)]
        u = [np.asarray(t) % 5 for t in al.true_equations(w, eqsys, sig)]
        res = inv.peel_invert(eqsys, u)
        assert res.fallback
        for kk in range(2):
            for i in range(2):
                assert res.values[(kk, i)][0] == w[kk][i]

    def test_stall_is_reported(self):
        sig, eqsys = canonical_system(H_GENERIC, 1, 3)
        # cripple the system: drop every equation that hears transmitter 0
        for m in range(2):
            eqsys.receivers[m] = [g for g in eqsys.receivers[m] if (0, 0) not in g.contributors]
        u = [np.zeros(len(eqsys.receivers[m]), dtype=int) for m in range(2)]
        with pytest.raises(inv.PeelStallError):
            inv.peel_invert(eqsys, u)


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
            al.canonical_signature(np.array([[1.4, 1.4], [0.7, 1.9]]), 2, 5, mode="unit")

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
        w = [rng.integers(0, p, size=(len(tx),)) for tx in sig.transmitters]
        u = [np.asarray(t) % p for t in al.true_equations(w, eqsys, sig)]
        solve = inv.solve_linear(inv.build_incidence(eqsys), u, eqsys)
        assert solve.rank == inv.injectivity_check(eqsys).rank == k * al.monomial_card(k, L)


class TestPeelDepth:
    def test_k2_l3_matches_linear_oracle(self):
        rng = np.random.default_rng(31)
        H = rng.uniform(0.5, 2.0, size=(2, 2))
        sig, eqsys = canonical_system(H, 3, 3)
        w = [rng.integers(0, 3, size=(81,)) for _ in range(2)]
        u = [np.asarray(t) % 3 for t in al.true_equations(w, eqsys, sig)]
        peel = inv.peel_invert(eqsys, u)
        solve = inv.solve_linear(inv.build_incidence(eqsys), u, eqsys)
        assert solve.values is not None and not peel.fallback
        for key in solve.values:
            assert np.array_equal(peel.values[key], solve.values[key])
        assert peel.rounds <= 3 * 4

    def test_k3_l1_single_round(self):
        rng = np.random.default_rng(32)
        H = rng.uniform(0.5, 2.0, size=(3, 3))
        sig, eqsys = canonical_system(H, 1, 5)
        w = [rng.integers(0, 5, size=(1,)) for _ in range(3)]
        u = [np.asarray(t) % 5 for t in al.true_equations(w, eqsys, sig)]
        res = inv.peel_invert(eqsys, u)
        assert res.rounds == 1
        for kk in range(3):
            assert res.values[(kk, 0)][0] == w[kk][0]
