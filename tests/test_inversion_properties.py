"""Property tests: block peeling equals per-column peeling and the set-based peel; sparse elimination equals dense."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from caf import alignment as al  # noqa: E402
from caf import inversion as inv  # noqa: E402
from caf.errors import NonGenericChannelError  # noqa: E402
from test_inversion import (  # noqa: E402
    assert_same_array,
    assert_same_nonzeros,
    assert_same_peel,
    assert_same_solve,
    dense_system,
    full_width_solve,
    loop_peel,
    nonzeros,
)


@st.composite
def peel_blocks(draw):
    L = draw(st.sampled_from([1, 2]))
    p = draw(st.sampled_from([2, 3, 5, 7]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    H = rng.uniform(0.5, 2.0, size=(2, 2))
    try:
        sig = al.canonical_signature(H, L, p)
    except NonGenericChannelError:
        hypothesis.assume(False)
    eqsys = al.derive_equation_system(sig)
    cols = draw(st.integers(1, 6))
    w = [rng.integers(0, p, size=(len(v), cols)) for v in sig.values]
    u = [t % p for t in al.true_equations(w, eqsys)]
    # corrupt some equations: peeling must still treat columns independently
    rate = draw(st.sampled_from([0.0, 0.1, 0.5]))
    for um in u:
        hit = rng.random(um.shape) < rate
        um[hit] = (um[hit] + rng.integers(1, p, size=int(hit.sum()))) % p
    return eqsys, u


@hypothesis.settings(derandomize=True, max_examples=100, deadline=None)
@hypothesis.given(peel_blocks())
def test_block_peel_equals_column_peels(instance):
    eqsys, u = instance
    block = inv.peel_invert(eqsys, u)
    assert not block.fallback
    for j in range(u[0].shape[1]):
        one = inv.peel_invert(eqsys, [um[:, j] for um in u])
        assert one.rounds == block.rounds
        assert_same_array(one.order, block.order)
        assert_same_array(one.values, block.values[:, j : j + 1])


@st.composite
def disagreeing_rows(draw):
    k, L = draw(st.sampled_from([(2, 1), (2, 2), (3, 1)]))
    p = draw(st.sampled_from([2, 3, 5, 7]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    H = rng.uniform(0.5, 2.0, size=(k, k))
    try:
        sig = al.canonical_signature(H, L, p)
    except NonGenericChannelError:
        hypothesis.assume(False)
    eqsys = al.derive_equation_system(sig)
    cols = draw(st.integers(1, 3))
    w = [rng.integers(0, p, size=(len(v), cols)) for v in sig.values]
    u = [t % p for t in al.true_equations(w, eqsys)]
    # shift one row: it now disagrees with every other row that reads its submessages
    m = draw(st.integers(0, k - 1))
    g = draw(st.integers(0, len(u[m]) - 1))
    u[m][g] = (u[m][g] + draw(st.integers(1, p - 1))) % p
    return eqsys, u


@hypothesis.settings(derandomize=True, max_examples=150, deadline=None)
@hypothesis.given(disagreeing_rows())
def test_peel_winner_is_the_lowest_row(instance):
    eqsys, u = instance
    got = inv.peel_invert(eqsys, u)
    assert_same_peel(got, loop_peel(eqsys, u))
    if eqsys.signature.l == 1:
        # every row reads one submessage in the one round: the lowest row holding it wins
        flat = inv._flatten_rhs(u, eqsys)
        assert got.rounds == 1
        for c in range(len(eqsys.col_keys)):
            assert np.array_equal(got.values[c], flat[eqsys.rows[eqsys.cols == c].min()])


@st.composite
def linear_systems(draw):
    p = draw(st.sampled_from([2, 3, 5, 7, 257]))
    rows = draw(st.integers(1, 14))
    cols = draw(st.integers(1, 14))
    width = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):  # sparse 0/1, like an incidence
        M = (rng.random((rows, cols)) < draw(st.sampled_from([0.1, 0.25, 0.5]))).astype(np.int8)
    else:  # dense over F_p
        M = rng.integers(0, p, size=(rows, cols))
    if draw(st.booleans()):
        u = M.astype(np.int64) @ rng.integers(0, p, size=(cols, width)) % p
    else:
        u = rng.integers(0, p, size=(rows, width))
    return dense_system(M, [(r % 3, (r,)) for r in range(rows)],
                        [(c % 2, c) for c in range(cols)], p), u


@hypothesis.settings(derandomize=True, max_examples=300, deadline=None)
@hypothesis.given(linear_systems())
def test_sparse_solve_equals_dense(instance):
    sys, u = instance
    before = nonzeros(sys)
    assert_same_solve(inv.solve_linear(sys, u), full_width_solve(sys, u))
    assert_same_nonzeros(sys, before)
