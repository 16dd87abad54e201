"""Property tests of the scalar LLL reduction of the loss form.

``rates._lll`` reduces on Python ints and floats. Its basis is unimodular.
Its mu diag(r) mu^T reproduces each entry of the exact Gram of that basis
within ``UNITS`` units of K eps (1 + P ||h||^2) ||b_u|| ||b_v||: the
float-error unit that ``_RADIUS_SLACK`` is counted in, scaled like the
entry's own float error. Its (mu, r) agrees with the numpy Cholesky oracle on
the same basis within ``UNITS`` units of K eps (1 + P ||h||^2) max ||b||^2,
since every factor inherits the float error of the largest Gram entries. The
search that the basis feeds ranks exactly as it does when fed by the numpy
oracle ``numpy_lll``, whose basis may differ, and like the exhaustive ball
wherever the ball fits ``ORACLE_BUDGET``.
"""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from caf import rates  # noqa: E402
from caf.errors import InvalidArgumentError, ResourceLimitError  # noqa: E402
from test_rates import numpy_lll, numpy_mu_r  # noqa: E402

# 64 times below _RADIUS_SLACK, the margin test_float_error_within_radius_slack keeps
UNITS = rates._RADIUS_SLACK / 64
ORACLE_BUDGET = 1 << 16


def exact_det(rows):
    M = [[Fraction(int(x)) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(len(M)):
        piv = next((r for r in range(c, len(M)) if M[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            M[c], M[piv], det = M[piv], M[c], -det
        det *= M[c][c]
        for r in range(c + 1, len(M)):
            f = M[r][c] / M[c][c]
            M[r] = [x - f * y for x, y in zip(M[r], M[c])]
    return det


@st.composite
def rows_and_powers(draw):
    k = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["uniform", "zeros", "integer", "collinear", "zero"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h = rng.uniform(-2.0, 2.0, size=k)
    if kind == "zeros":
        h[rng.random(k) < 0.5] = 0.0
    elif kind == "integer":
        h = rng.integers(-2, 3, size=k).astype(float)
    elif kind == "collinear":
        h = rng.uniform(-2.0, 2.0) * rng.integers(-3, 4, size=k)
    elif kind == "zero":
        h = np.zeros(k)
    power = 10.0 ** draw(st.floats(-1.0, 11.0 if k == 2 else 9.0))
    return h, power


@hypothesis.settings(derandomize=True, max_examples=250, deadline=None)
@hypothesis.given(rows_and_powers())
def test_scalar_lll_matches_exact_gram_and_numpy_oracle(case):
    h, power = case
    k, hn2 = h.size, float(h @ h)
    basis, mu, r = rates._lll(h, power, hn2)
    assert abs(exact_det(basis)) == 1
    np_mu, np_r = numpy_mu_r(basis, h, power, hn2)
    unit = k * np.finfo(float).eps * (1.0 + power * hn2)
    P, hq = Fraction(power), [Fraction(x) for x in h]
    dots = [sum(Fraction(x) * y for x, y in zip(b, hq)) for b in basis]
    norms = [math.sqrt(sum(x * x for x in b)) for b in basis]
    for u in range(k):
        assert mu[u][u] == 1.0 and not any(mu[u][u + 1:])
        for v in range(u + 1):
            n = sum(x * y for x, y in zip(basis[u], basis[v]))
            gram = n + P * (Fraction(hn2) * n - dots[u] * dots[v])
            ldl = sum(Fraction(mu[u][l]) * Fraction(r[l]) * Fraction(mu[v][l])
                      for l in range(v + 1))
            assert abs(float(ldl - gram)) <= UNITS * unit * norms[u] * norms[v]
            oracle_gap = abs(mu[u][v] - np_mu[u][v]) * r[v] if v < u else abs(r[u] - np_r[u])
            assert oracle_gap <= UNITS * unit * max(norms) ** 2
    if hn2 == 0.0:
        with pytest.raises(InvalidArgumentError, match="channel row must be nonzero"):
            rates.top_coefficient_vectors(h, power, 1)
        return
    for n in (1, 16):
        got = [list(a) for a in rates.top_coefficient_vectors(h, power, n)]
        with mock.patch.object(rates, "_lll", numpy_lll):
            assert [list(a) for a in rates.top_coefficient_vectors(h, power, n)] == got
        try:
            want = rates.top_coefficient_vectors(h, power, n, mode="exhaustive",
                                                 budget=ORACLE_BUDGET)
        except ResourceLimitError:
            continue
        assert [list(a) for a in want] == got
