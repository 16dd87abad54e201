"""Property test of ``build_monomial_set`` against the loop oracle.

``loop_monomial_set`` evaluates each monomial with ``evaluate_monomial`` and
sorts the (value, exponents) tuples in Python. The vectorised build must give
the same exponents, bit-identical values and dtypes, or raise the same error
with the same message, on gains that exercise its edges: signed zeros, ±1,
negatives, all-equal channels (every monomial of one degree profile ties)
and magnitudes near 1e±150, whose products leave the float64 range.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from caf import diophantine as dio  # noqa: E402
from caf.errors import NumericRangeError  # noqa: E402
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
