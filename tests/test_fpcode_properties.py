"""Property tests of the outer code.

Encoding is linear over F_p. Decoding corrects every error within half the
distance, and equals the exhaustive oracle on codewords, near and far
words and ties.
"""

import itertools

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from caf import fpcode  # noqa: E402
from test_fpcode import assert_same_decode, loop_md_decode  # noqa: E402


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


def near_words(S, rng, codewords, weights):
    """Each codeword with ``weights[j]`` of its symbols changed (capped at T)."""
    out = codewords.copy()
    for j, weight in enumerate(weights):
        pos = rng.choice(S.t, size=min(int(weight), S.t), replace=False)
        out[pos, j] = (out[pos, j] + rng.integers(1, S.p, size=pos.size)) % S.p
    return out


def tie_words(S, rng, n):
    """Words halfway between two codewords: as far from one as from the other.

    Another codeword may still be closer; the decoder must then agree with
    the oracle on that one.
    """
    a = fpcode.encode(S, rng.integers(0, S.p, size=(S.message_len, n)))
    b = fpcode.encode(S, rng.integers(0, S.p, size=(S.message_len, n)))
    out = a.copy()
    for j in range(n):
        differ = np.flatnonzero(a[:, j] != b[:, j])
        half = rng.choice(differ, size=differ.size // 2, replace=False)
        out[half, j] = b[half, j]
        if differ.size % 2 and S.p > 2:  # odd gap: a third symbol evens the distances
            last = np.setdiff1d(differ, half)[0]
            out[last, j] = next(x for x in range(S.p) if x not in (a[last, j], b[last, j]))
    return out


@st.composite
def decode_batches(draw):
    p = draw(st.sampled_from([2, 3, 5, 257]))
    t = draw(st.integers(1, 9))
    k = draw(st.integers(1, t))
    while p**k > 4096:
        k -= 1
    if draw(st.integers(0, 3)) == 0:
        t = k  # message_len == T: every word is a codeword of a full-rank S
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    entries = rng.integers(0, p, size=(t, k))
    if k > 1 and draw(st.booleans()):
        # rank-deficient: the last column depends on the first
        entries[:, -1] = entries[:, 0] * draw(st.integers(0, p - 1)) % p
    S = fpcode.GeneratorMatrix(p, entries)
    n = draw(st.integers(1, 8))
    radius = max(0, (fpcode.min_distance(S) - 1) // 2)
    codewords = fpcode.encode(S, rng.integers(0, p, size=(k, 4 * n)))
    batch = np.concatenate([
        codewords[:, :n],
        near_words(S, rng, codewords[:, n:2 * n], rng.integers(1, radius + 1, size=n))
        if radius else codewords[:, n:2 * n],
        near_words(S, rng, codewords[:, 2 * n:3 * n], rng.integers(radius + 1, t + 1, size=n)),
        tie_words(S, rng, n),
        rng.integers(0, p, size=(t, n)),
    ], axis=1)
    return S, batch[:, rng.permutation(batch.shape[1])]


@hypothesis.settings(derandomize=True, max_examples=200, deadline=None)
@hypothesis.given(decode_batches())
def test_md_decode_equals_exhaustive_oracle(instance):
    S, batch = instance
    assert_same_decode(fpcode.md_decode(S, batch), loop_md_decode(S, batch))
    assert_same_decode(fpcode.md_decode(S, batch[:, :0]), loop_md_decode(S, batch[:, :0]))
    one, ref = fpcode.md_decode(S, batch[:, 0]), loop_md_decode(S, batch[:, :1])
    assert one.message.dtype == np.int64 and one.message.shape == (S.message_len,)
    assert np.array_equal(one.message, ref.message[:, 0])
    assert one.corrections == ref.corrections[0] and type(one.corrections) is int
    assert one.ambiguous == ref.ambiguous[0] and type(one.ambiguous) is bool
