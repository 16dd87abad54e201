"""Property tests of the grid-batched sum rate against the walk and the reference loop.

``rates._sum_rates`` runs all of a channel's receiver searches over an SNR grid
at once. ``rates._candidates`` ranks one Fincke-Pohst z-box per search, or takes
the ``_enumerate`` walk past ``_BOX_CAP``; the candidates are scored on arrays and
their combinations broadcast. Point by point the result must equal
``reference_sum_rate`` (the walk's candidates, a Fraction rank check and
``evaluate_sum_rate`` per combination) bit for bit, or fail with the scalar
call's error. Each search's top 16 must equal the walk's (``_BOX_CAP`` = 0), and
the exhaustive top 16 wherever the ball fits ``ORACLE_BUDGET``. Channels are
uniform draws, where the losses are distinct, or small integers, where they
tie and rows may be zero; the SNRs run from 0 to 60 dB.
"""

from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from caf import rates  # noqa: E402
from caf.errors import ResourceLimitError  # noqa: E402
from test_rates import reference_sum_rate  # noqa: E402

ORACLE_BUDGET = 1 << 16


@st.composite
def channel_grids(draw):
    k = draw(st.integers(1, 3))
    entries = draw(st.sampled_from((st.floats(0.5, 2.0), st.floats(-2.0, 2.0),
                                    st.integers(-3, 3).map(float))))
    H = np.array(draw(st.lists(entries, min_size=k * k, max_size=k * k))).reshape(k, k)
    snr_db = draw(st.lists(st.floats(0.0, 60.0), min_size=1, max_size=3))
    # the reference loop scores top_n^K combinations one by one
    top_n = draw(st.sampled_from((1, 2, 4) if k == 3 else (1, 3, 16)))
    return H, [float(rates.db_to_linear(db)) for db in snr_db], top_n


def assert_same_error(got, exc):
    assert type(got) is type(exc) and str(got) == str(exc)


@hypothesis.settings(derandomize=True, max_examples=150, deadline=None)
@hypothesis.given(channel_grids())
def test_sum_rates_equal_the_reference_loop(case):
    H, powers, top_n = case
    results, walked = rates._sum_rates(H, powers, top_n)
    assert len(results) == len(powers) and walked.shape == (len(powers), len(H))
    for power, got in zip(powers, results):
        try:
            ref_A, ref_rate, ref_fallback = reference_sum_rate(H, power, top_n)
        except Exception as exc:  # the batch fails that point with the same error
            assert_same_error(got, exc)
            continue
        assert got.coefficients.dtype == ref_A.dtype
        assert (got.coefficients.tolist(), got.rate_bits, got.fallback) == (
            ref_A.tolist(), ref_rate, ref_fallback)


@hypothesis.settings(derandomize=True, max_examples=150, deadline=None)
@hypothesis.given(channel_grids())
def test_candidates_equal_the_scalar_and_exhaustive_searches(case):
    H, powers, _ = case
    n = rates.DEFAULT_TOP_N
    found, _ = rates._candidates(H, powers, n)
    for power, row in zip(powers, found):
        for h, got in zip(H, row):
            try:
                with mock.patch.object(rates, "_BOX_CAP", 0):  # every search walks
                    want = rates.top_coefficient_vectors(h, power, n)
            except Exception as exc:
                assert_same_error(got, exc)
                continue
            assert got.tolist() == [a.tolist() for a in want]
            try:
                exact = rates.top_coefficient_vectors(h, power, n, mode="exhaustive",
                                                      budget=ORACLE_BUDGET)
            except ResourceLimitError:
                continue
            assert got.tolist() == [a.tolist() for a in exact]
