"""Property test: MITM demodulation equals exhaustive on random groups."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from caf import alignment as al  # noqa: E402

# a small pool of binary-exact values makes equal-value runs and exact
# distance ties common
VALUE_POOL = [0.5, 1.0, 1.5, 2.0, 2.5]


@st.composite
def demod_instances(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n_groups = draw(st.integers(1, 3))
    values = draw(st.lists(st.sampled_from(VALUE_POOL), min_size=n_groups, max_size=n_groups))
    contributors = draw(st.lists(st.integers(1, 3), min_size=n_groups, max_size=n_groups))
    groups = [
        al.EquationGroup((i,), v, [(0, i)] * c)
        for i, (v, c) in enumerate(zip(values, contributors))
    ]
    limits = [c * (p - 1) for c in contributors]
    tuples = st.tuples(*(st.integers(0, l) for l in limits))
    points = [float(np.dot(u, values)) for u in draw(st.lists(tuples, min_size=1, max_size=6))]
    midpoints = [(a + b) / 2 for a, b in zip(points, points[1:])]
    top = sum(l * v for l, v in zip(limits, values))
    noise = draw(st.lists(st.floats(-2.0, top + 2.0), max_size=10))
    return groups, p, np.array(points + midpoints + noise)


@hypothesis.settings(derandomize=True, max_examples=150, deadline=None)
@hypothesis.given(demod_instances())
def test_mitm_equals_exhaustive(instance):
    groups, p, y = instance
    ex = al.ml_demodulate(y, groups, p, 1.0, strategy="exhaustive")
    mm = al.ml_demodulate(y, groups, p, 1.0, strategy="mitm")
    assert np.array_equal(ex, mm)
