"""Property tests of the grid-batched K=2 sweep against the scalar and exhaustive searches.

``rates.normalized_rate_sweep`` finds the best equation of every h = (1, h2)
point in one array pass and sends the points it cannot certify through the
scalar search. Row by row, its coefficients and normalized rate must equal,
bit for bit, those of the scalar ``best_coefficient_vector``, and those of
the exhaustive ball wherever the ball fits ``ORACLE_BUDGET``. A point past
double precision must fail with the scalar search's error. The h2 values
mix uniform draws in [-2, 2] with small-denominator rationals, where the
loss has exact ties; the SNRs run from 0.01 dB, where the ball bound binds,
to 125 dB, past the batch's precision and past double precision.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from caf import rates  # noqa: E402
from caf.errors import ResourceLimitError  # noqa: E402

ORACLE_BUDGET = 1 << 16
TIE_PRONE = sorted({float(sign * Fraction(k, d)) for d in range(1, 8) for k in range(0, 2 * d + 1)
                    for sign in (1, -1)} | {0.537, -0.537})


def scalar_row(h2, db, mode="auto", budget=rates.DEFAULT_SEARCH_BUDGET):
    power = float(rates.db_to_linear(db))
    a, rate = rates.best_coefficient_vector(np.array([1.0, h2]), power, mode, budget)
    cap = 0.5 * np.log2(1.0 + (1.0 + h2 * h2) * power)
    return tuple(int(x) for x in a), float(rate / cap)


@st.composite
def sweep_grids(draw):
    h2 = draw(st.lists(st.one_of(st.sampled_from(TIE_PRONE), st.floats(-2.0, 2.0)),
                       min_size=1, max_size=4))
    snr_db = draw(st.lists(st.one_of(st.floats(0.01, 125.0), st.floats(-2.0, math.log10(125.0)).map(
        lambda e: 10.0**e)), min_size=1, max_size=3))
    return h2, snr_db


@hypothesis.settings(derandomize=True, max_examples=150, deadline=None)
@hypothesis.given(sweep_grids())
def test_sweep_rows_equal_the_scalar_and_exhaustive_searches(grid):
    h2_grid, snr_db = grid
    rows, _ = rates._sweep_results(h2_grid, snr_db)
    points = [(h2, db) for h2 in h2_grid for db in snr_db]
    assert len(rows) == len(points)
    for (h2, db), row in zip(points, rows):
        try:
            want = scalar_row(h2, db)
        except Exception as exc:  # the sweep fails that point with the same error
            assert type(row) is type(exc) and str(row) == str(exc)
            continue
        assert (row.h2, row.snr_db) == (h2, db)
        assert (row.coefficients, row.normalized_rate) == want
        try:
            assert scalar_row(h2, db, "exhaustive", ORACLE_BUDGET) == want
        except ResourceLimitError:
            pass
