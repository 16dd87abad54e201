"""Property tests: encoding is linear over F_p; decoding corrects every error within half the distance."""

import itertools

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from caf import fpcode  # noqa: E402


@st.composite
def codes_and_messages(draw):
    p = draw(st.sampled_from([2, 3, 5, 7, 257]))
    t = draw(st.integers(1, 12))
    k = draw(st.integers(1, t))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    S = fpcode.GeneratorMatrix(p, rng.integers(0, p, size=(t, k)))
    n = draw(st.integers(1, 5))
    a, b = rng.integers(0, p, size=(2, k, n))
    alpha, beta = draw(st.integers(0, p - 1)), draw(st.integers(0, p - 1))
    return S, a, b, alpha, beta


@hypothesis.settings(derandomize=True, max_examples=200, deadline=None)
@hypothesis.given(codes_and_messages())
def test_encode_is_linear(instance):
    S, a, b, alpha, beta = instance
    p = S.p
    combined = fpcode.encode(S, (alpha * a + beta * b) % p)
    assert np.array_equal(combined, (alpha * fpcode.encode(S, a) + beta * fpcode.encode(S, b)) % p)
    # a batch encodes column by column
    for j in range(a.shape[1]):
        assert np.array_equal(fpcode.encode(S, a[:, j]), fpcode.encode(S, a)[:, j])


def error_patterns(t, p, weight):
    """Every (t,) error vector over F_p with 1..weight nonzero symbols, as columns."""
    out = []
    for w in range(1, weight + 1):
        for pos in itertools.combinations(range(t), w):
            for vals in itertools.product(range(1, p), repeat=w):
                e = np.zeros(t, dtype=np.int64)
                e[list(pos)] = vals
                out.append(e)
    return np.stack(out, axis=1)


@st.composite
def gv_codes(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    t, d = draw(st.sampled_from([(6, 3), (8, 3), (9, 4), (10, 5)]))
    k = draw(st.integers(1, 3 if p < 5 else 2))
    S = fpcode.gv_search(p, t, d, seed=draw(st.integers(0, 2**16)), message_len=k)
    message = np.array(draw(st.lists(st.integers(0, p - 1), min_size=k, max_size=k)))
    return S, message


@hypothesis.settings(derandomize=True, max_examples=40, deadline=None)
@hypothesis.given(gv_codes())
def test_md_decode_corrects_every_pattern_within_half_the_distance(instance):
    S, message = instance
    radius = (fpcode.min_distance(S) - 1) // 2
    hypothesis.assume(radius >= 1)
    errors = error_patterns(S.t, S.p, radius)
    received = (fpcode.encode(S, message)[:, None] + errors) % S.p
    result = fpcode.md_decode(S, received)
    assert np.array_equal(result.message, np.repeat(message[:, None], errors.shape[1], axis=1))
    assert np.array_equal(result.corrections, np.count_nonzero(errors, axis=0))
    assert not result.ambiguous.any()
