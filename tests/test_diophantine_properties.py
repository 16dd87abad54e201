"""Property tests of ``build_monomial_set`` and of the G_L rows of ``canonical_signature``.

``loop_monomial_set`` evaluates each monomial with ``evaluate_monomial`` and
sorts the (value, exponents) tuples in Python. The vectorised build must give
the same exponents, bit-identical values and dtypes, or raise the same error
with the same message, on gains that exercise its edges: signed zeros, ±1,
negatives, all-equal channels (every monomial of one degree profile ties)
and magnitudes near 1e±150, whose products leave the float64 range.
``canonical_signature`` takes G_L straight from the prefix products; on the
same gains it must give the rows of ``filtered_g_l``, which reads G_L off
the G_{L+1} build, bit for bit.
"""

from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from caf import alignment as al  # noqa: E402
from caf import diophantine as dio  # noqa: E402
from caf.errors import NumericRangeError  # noqa: E402
from test_alignment import filtered_g_l  # noqa: E402
from test_diophantine import assert_same_set, loop_monomial_set  # noqa: E402

MAX_MONOMIALS = 4096

GAINS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.floats(-2.0, 2.0),
    st.builds(lambda sign, e: sign * 10.0 ** e, st.sampled_from([1.0, -1.0]),
              st.one_of(st.floats(140.0, 160.0), st.floats(-160.0, -140.0))),
)


@st.composite
def channels(draw):
    k = draw(st.integers(1, 3))
    L = draw(st.integers(1, max(l for l in range(1, 5) if l ** (k * k) <= MAX_MONOMIALS)))
    if draw(st.booleans()):
        H = np.full((k, k), draw(GAINS))
    else:
        H = np.array(draw(st.lists(GAINS, min_size=k * k, max_size=k * k))).reshape(k, k)
    return H, L


@st.composite
def signature_channels(draw):
    """K and L with G_{L+1} of at most 2^15 monomials: K=3 reaches L=2."""
    k = draw(st.integers(1, 3))
    L = draw(st.integers(1, max(l for l in range(1, 5) if (l + 1) ** (k * k) <= 1 << 15)))
    if draw(st.booleans()):
        H = np.full((k, k), draw(GAINS))
    else:
        H = np.array(draw(st.lists(GAINS, min_size=k * k, max_size=k * k))).reshape(k, k)
    return H, L


def outcome(build, H, L):
    try:
        return build(H, L)
    except NumericRangeError as exc:
        return exc


@hypothesis.settings(derandomize=True, max_examples=300, deadline=None)
@hypothesis.given(channels())
def test_build_matches_loop_oracle(case):
    H, L = case
    got, want = outcome(dio.build_monomial_set, H, L), outcome(loop_monomial_set, H, L)
    if isinstance(want, NumericRangeError) or isinstance(got, NumericRangeError):
        assert (type(got), str(got)) == (type(want), str(want))
        return
    assert (got.k, got.l) == (H.shape[0], L)
    assert_same_set(got, *want)


@hypothesis.settings(derandomize=True, max_examples=200, deadline=None)
@hypothesis.given(signature_channels())
def test_signature_rows_match_filtered_g_l_plus_1(case):
    H, L = case
    # the genericity check is bypassed: all-equal and zero gains must match too
    with mock.patch.object(al.diophantine, "check_unique_factorization", return_value=True):
        got = outcome(lambda H, L: al.canonical_signature(H, L, 3), H, L)
    want = outcome(filtered_g_l, H, L)
    if isinstance(want, NumericRangeError) or isinstance(got, NumericRangeError):
        assert (type(got), str(got)) == (type(want), str(want))
        return
    want_exps, want_vals = want
    assert len(got.exponents) == len(got.values) == H.shape[0]
    for exps, vals in zip(got.exponents, got.values):
        assert exps.dtype == np.int64 and vals.dtype == np.float64
        assert np.array_equal(exps, want_exps)
        assert np.array_equal(vals.view(np.uint64), want_vals.view(np.uint64))
