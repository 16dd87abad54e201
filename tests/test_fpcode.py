import math
import tracemalloc

import numpy as np
import pytest

from caf import fpcode
from caf.errors import InvalidArgumentError, ResourceLimitError, SearchFailureError

# classic [7,4,3] generator, systematic part on top
HAMMING74 = fpcode.GeneratorMatrix(
    2,
    np.array(
        [
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, 1, 0],
            [0, 0, 0, 1],
            [0, 1, 1, 1],
            [1, 0, 1, 1],
            [1, 1, 0, 1],
        ]
    ),
)


def loop_md_decode(S, received):
    """Reference decoder: one (p^message_len, n) count, one code position at a time.

    This is the decoder ``md_decode`` replaced; its distance count and its
    first/last ``argmin`` tie-break are what the chunked decoder must
    reproduce bit for bit.
    """
    received = np.asarray(received, dtype=np.int64)
    count = S.p**S.message_len
    msgs = fpcode.all_messages(S.p, S.message_len)
    words = fpcode.encode(S, msgs.T)  # (T, count)
    batch = received.reshape(S.t, -1)
    dists = np.zeros((count, batch.shape[1]), dtype=np.min_scalar_type(S.t))
    for word_row, received_row in zip(words, batch):
        dists += word_row[:, None] != received_row[None, :]
    best = np.argmin(dists, axis=0)
    ambiguous = count - 1 - np.argmin(dists[::-1], axis=0) != best
    corrections = dists[best, np.arange(batch.shape[1])].astype(np.int64)
    return fpcode.DecodeResult(msgs[best].T, corrections, ambiguous)


def assert_same_decode(res, ref):
    assert res.message.dtype == ref.message.dtype == np.int64
    assert res.corrections.dtype == ref.corrections.dtype == np.int64
    assert res.ambiguous.dtype == ref.ambiguous.dtype == bool
    assert np.array_equal(res.message, ref.message)
    assert np.array_equal(res.corrections, ref.corrections)
    assert np.array_equal(res.ambiguous, ref.ambiguous)


def random_and_near_codewords(S, rng, n):
    """n uniform words, then n codewords with 1..3 symbols changed."""
    uniform = rng.integers(0, S.p, size=(S.t, n))
    near = fpcode.encode(S, rng.integers(0, S.p, size=(S.message_len, n)))
    for j in range(n):
        pos = rng.choice(S.t, size=rng.integers(1, 4), replace=False)
        near[pos, j] = (near[pos, j] + rng.integers(1, S.p, size=pos.size)) % S.p
    return np.concatenate([uniform, near], axis=1)


class TestFieldOps:
    def test_requires_prime(self):
        with pytest.raises(InvalidArgumentError, match="6 is not prime"):
            fpcode.gv_search(6, 8, 3)

    def test_is_prime(self):
        primes = [n for n in range(2, 60) if fpcode.is_prime(n)]
        assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


class TestEncode:
    def test_all_messages_first_symbol_most_significant(self):
        msgs = fpcode.all_messages(3, 2)
        assert msgs.dtype == np.int64
        assert msgs.tolist() == [[a, b] for a in range(3) for b in range(3)]

    def test_zero_message(self):
        assert not fpcode.encode(HAMMING74, np.zeros(4, dtype=int)).any()

    def test_identity_extension(self):
        S = fpcode.GeneratorMatrix(3, np.vstack([np.eye(2, dtype=int), np.zeros((2, 2), dtype=int)]))
        w = np.array([2, 1])
        assert list(fpcode.encode(S, w)) == [2, 1, 0, 0]

    def test_linearity(self):
        rng = np.random.default_rng(0)
        S = fpcode.GeneratorMatrix(5, rng.integers(0, 5, size=(9, 3)))
        for _ in range(100):
            w1 = rng.integers(0, 5, size=3)
            w2 = rng.integers(0, 5, size=3)
            lhs = (fpcode.encode(S, w1) + fpcode.encode(S, w2)) % 5
            rhs = fpcode.encode(S, (w1 + w2) % 5)
            assert np.array_equal(lhs, rhs)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            fpcode.encode(HAMMING74, np.zeros(5, dtype=int))


class TestMinDistance:
    def test_identity_extension_is_one(self):
        S = fpcode.GeneratorMatrix(3, np.eye(4, dtype=int))
        assert fpcode.min_distance(S) == 1

    def test_hamming74(self):
        assert fpcode.min_distance(HAMMING74) == 3

    def test_repetition(self):
        for t in (3, 6, 11):
            S = fpcode.GeneratorMatrix(2, np.ones((t, 1), dtype=int))
            assert fpcode.min_distance(S) == t

    def test_budget(self):
        S = fpcode.GeneratorMatrix(5, np.zeros((30, 10), dtype=int))
        with pytest.raises(ResourceLimitError):
            fpcode.min_distance(S, budget=1000)


class TestEntropy:
    def test_binary_maximum(self):
        assert fpcode.p_ary_entropy(2, 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_uniform_maximum(self):
        for p in (2, 3, 5, 7):
            assert fpcode.p_ary_entropy(p, (p - 1) / p) == pytest.approx(1.0, abs=1e-12)

    def test_value_used_by_gv_example(self):
        assert fpcode.p_ary_entropy(2, 2 / 7) == pytest.approx(0.8631, abs=5e-5)

    def test_endpoints(self):
        assert fpcode.p_ary_entropy(3, 0.0) == 0.0
        assert fpcode.p_ary_entropy(3, 1.0) == pytest.approx(math.log2(2) / math.log2(3), abs=1e-12)

    def test_domain(self):
        with pytest.raises(InvalidArgumentError):
            fpcode.p_ary_entropy(3, 1.5)

    def test_concave_and_increasing(self):
        for p in (2, 5):
            xs = np.linspace(0.01, 0.99, 99)
            ys = np.array([fpcode.p_ary_entropy(p, float(x)) for x in xs])
            second = np.diff(ys, 2)
            assert np.all(second < 1e-9)
            peak = (p - 1) / p
            deltas = np.diff(ys)
            rising = xs[1:] <= peak  # one flag per delta
            assert np.all(deltas[rising] > 0)


class TestGVBound:
    def test_large_blocklength_approaches_full_rate(self):
        assert fpcode.gv_rate_bound(5, 10**6, 2) == pytest.approx(math.log2(5), rel=1e-3)

    def test_binary_7_3(self):
        assert fpcode.gv_rate_bound(2, 7, 3) == pytest.approx(1 - 0.8631, abs=5e-5)

    def test_never_exceeds_alphabet_rate(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            p = int(rng.choice([2, 3, 5, 7]))
            t = int(rng.integers(6, 40))
            d = int(rng.integers(2, t // 2 + 1))
            assert fpcode.gv_rate_bound(p, t, d) <= math.log2(p) + 1e-12


class TestGVSearch:
    def test_binary_7_3(self):
        S = fpcode.gv_search(2, 7, 3, seed=1)
        assert S.message_len == fpcode.gv_message_len(2, 7, 3) >= 1
        assert fpcode.min_distance(S) >= 3
        assert S.attempts >= 1

    def test_distance_two_easy(self):
        S = fpcode.gv_search(5, 8, 2, seed=2)
        assert fpcode.min_distance(S) >= 2
        assert S.attempts <= 50

    def test_ternary_8_3(self):
        S = fpcode.gv_search(3, 8, 3, seed=3)
        assert S.message_len == 3
        assert fpcode.min_distance(S) >= 3

    def test_search_failure(self):
        # distance target d = T/2 at full-ish rate is unreachable in one attempt
        with pytest.raises(SearchFailureError):
            fpcode.gv_search(2, 8, 4, max_attempts=1, seed=0, message_len=7)


class TestMdDecode:
    def test_valid_codeword(self):
        w = np.array([1, 0, 1, 1])
        res = fpcode.md_decode(HAMMING74, fpcode.encode(HAMMING74, w))
        assert np.array_equal(res.message, w)
        assert res.corrections == 0
        assert not res.ambiguous

    def test_hamming_corrects_every_single_error(self):
        for msg in fpcode.all_messages(2, 4):
            word = fpcode.encode(HAMMING74, msg)
            for pos in range(7):
                corrupted = word.copy()
                corrupted[pos] ^= 1
                res = fpcode.md_decode(HAMMING74, corrupted)
                assert np.array_equal(res.message, msg)
                assert res.corrections == 1

    def test_beyond_guarantee_may_fail_but_guarantee_holds(self):
        S = fpcode.GeneratorMatrix(2, np.ones((5, 1), dtype=int))  # repetition, d = 5
        word = fpcode.encode(S, np.array([1]))
        # within guarantee: 2 errors
        corrupted = word.copy()
        corrupted[:2] ^= 1
        assert fpcode.md_decode(S, corrupted).message[0] == 1
        # beyond guarantee: 3 errors flip the majority
        corrupted = word.copy()
        corrupted[:3] ^= 1
        assert fpcode.md_decode(S, corrupted).message[0] == 0

    def test_random_correction_within_half_distance(self):
        rng = np.random.default_rng(4)
        S = fpcode.gv_search(3, 8, 3, seed=3)
        for _ in range(200):
            w = rng.integers(0, 3, size=S.message_len)
            word = fpcode.encode(S, w)
            pos = rng.integers(0, S.t)
            word[pos] = (word[pos] + rng.integers(1, 3)) % 3
            assert np.array_equal(fpcode.md_decode(S, word).message, w)

    def test_budget(self):
        S = fpcode.GeneratorMatrix(5, np.zeros((30, 10), dtype=int))
        with pytest.raises(ResourceLimitError):
            fpcode.md_decode(S, np.zeros(30, dtype=int), budget=100)
        with pytest.raises(ResourceLimitError):
            fpcode.md_decode(S, np.zeros((30, 4), dtype=int), budget=100)

    def test_wrong_length(self):
        for bad in (np.zeros(6, dtype=int), np.zeros((6, 3), dtype=int),
                    np.zeros((7, 3, 1), dtype=int), np.int64(0)):
            with pytest.raises(InvalidArgumentError, match="wrong length"):
                fpcode.md_decode(HAMMING74, bad)

    def test_batch_equals_single_words_with_ties(self):
        rng = np.random.default_rng(11)
        codes = [
            HAMMING74,  # perfect: every word is within distance 1 of one codeword
            fpcode.GeneratorMatrix(2, np.ones((4, 1), dtype=int)),  # even T: 2-2 ties
            fpcode.GeneratorMatrix(3, rng.integers(0, 3, size=(5, 3))),
            fpcode.GeneratorMatrix(5, np.array([[1, 0], [0, 1], [1, 1], [1, 2]])),
        ]
        for S in codes:
            batch = rng.integers(0, S.p, size=(S.t, 64))
            batch[:, 0] = 0
            batch[:, 1] = fpcode.encode(S, np.full(S.message_len, S.p - 1))
            res = fpcode.md_decode(S, batch)
            assert res.message.shape == (S.message_len, 64)
            assert res.corrections.shape == res.ambiguous.shape == (64,)
            for j in range(64):
                one = fpcode.md_decode(S, batch[:, j])
                assert np.array_equal(res.message[:, j], one.message)
                assert res.corrections[j] == one.corrections
                assert res.ambiguous[j] == one.ambiguous
            if S is HAMMING74:
                assert not res.ambiguous.any()
            else:
                assert res.ambiguous.any() and not res.ambiguous.all(), S.entries
        # one column is a batch of one
        one = fpcode.md_decode(HAMMING74, np.ones((7, 1), dtype=int))
        assert one.message.tolist() == [[1], [1], [1], [1]]
        assert one.corrections.tolist() == [0]

    def test_tie_goes_to_lexicographically_smallest_message(self):
        S = fpcode.GeneratorMatrix(2, np.ones((4, 1), dtype=int))  # codewords 0000, 1111
        res = fpcode.md_decode(S, np.array([[1, 0, 1], [1, 0, 1], [0, 0, 1], [0, 0, 1]]))
        assert res.message.tolist() == [[0, 0, 1]]
        assert res.corrections.tolist() == [2, 0, 0]
        assert res.ambiguous.tolist() == [True, False, False]
        single = fpcode.md_decode(S, np.array([0, 1, 1, 0]))
        assert single.message.tolist() == [0]
        assert single.corrections == 2 and single.ambiguous is True


    def test_long_block_distances_do_not_wrap(self):
        S = fpcode.GeneratorMatrix(2, np.ones((300, 1), dtype=int))  # repetition, T = 300
        word = np.zeros(300, dtype=int)
        word[:260] = 1  # 260 from the zero word: would read 4 in a uint8 count
        res = fpcode.md_decode(S, word)
        assert res.message.tolist() == [1]
        assert res.corrections == 40


class TestMdDecodeAgainstLoop:
    @pytest.mark.parametrize("p, message_len", [(3, 4), (5, 4), (7, 3), (11, 4)])
    def test_random_and_near_codeword_words(self, p, message_len):
        S = fpcode.gv_search(p, 15, 3, seed=p, message_len=message_len)
        batch = random_and_near_codewords(S, np.random.default_rng(p), 300)
        res = fpcode.md_decode(S, batch)
        assert_same_decode(res, loop_md_decode(S, batch))
        assert np.all(res.corrections[300:] <= 3)

    def test_ties(self):
        rng = np.random.default_rng(5)
        codes = [
            fpcode.GeneratorMatrix(3, np.ones((4, 1), dtype=int)),  # even T: 2-2 ties
            fpcode.GeneratorMatrix(5, np.array([[1, 0], [0, 1], [1, 1], [1, 2]])),
            fpcode.GeneratorMatrix(7, rng.integers(0, 7, size=(5, 2))),
        ]
        for S in codes:
            batch = rng.integers(0, S.p, size=(S.t, 500))
            res = fpcode.md_decode(S, batch)
            assert_same_decode(res, loop_md_decode(S, batch))
            assert res.ambiguous.any() and not res.ambiguous.all(), S.entries

    @pytest.mark.parametrize("cells", ["one", "seven_rows_and_a_rest"])
    def test_chunk_boundaries(self, monkeypatch, cells):
        S = fpcode.gv_search(5, 15, 3, seed=5, message_len=4)
        count = S.p**S.message_len
        # 601 words: 7 rows per chunk does not divide the batch
        value = 1 if cells == "one" else 7 * count + 3
        monkeypatch.setattr(fpcode, "DECODE_CHUNK_CELLS", value)
        batch = random_and_near_codewords(S, np.random.default_rng(6), 300)
        batch = np.concatenate([batch, batch[:, :1]], axis=1)
        assert batch.shape[1] == 601
        assert_same_decode(fpcode.md_decode(S, batch), loop_md_decode(S, batch))
        # the codebook is encoded in blocks of the same cell bound
        words = fpcode.encode(S, fpcode.all_messages(S.p, S.message_len)[1:].T)
        assert fpcode.min_distance(S) == int(np.min(np.count_nonzero(words, axis=0)))

    def test_empty_batch(self):
        res = fpcode.md_decode(HAMMING74, np.zeros((7, 0), dtype=int))
        assert res.message.shape == (4, 0)
        assert res.corrections.shape == res.ambiguous.shape == (0,)

    def test_memory_bounded_by_chunk(self):
        S = fpcode.gv_search(11, 15, 3, seed=0, message_len=4)
        batch = np.random.default_rng(0).integers(0, 11, size=(15, 3000))
        tracemalloc.start()
        try:
            fpcode.md_decode(S, batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the unchunked (14641, 3000) count plus its bool temporary is ~86 MiB
        assert peak < 16 * 2**20, peak

    def test_codebook_encode_memory_bounded(self):
        # 2^18 messages: an unblocked int64 encode holds (40, 2^18) int64 tables (~200 MiB)
        S = fpcode.GeneratorMatrix(2, np.random.default_rng(0).integers(0, 2, size=(40, 18)))
        word = np.random.default_rng(1).integers(0, 2, size=40)
        for call in (lambda: fpcode.md_decode(S, word), lambda: fpcode.min_distance(S)):
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 48 * 2**20, peak


class TestCodewordTier:
    # rows 0 and 1 are dependent over F_3: the first information set is rows 0 and 2
    DEPENDENT_TOP = fpcode.GeneratorMatrix(3, np.array([[1, 2], [2, 1], [0, 1], [1, 1], [2, 0]]))

    def test_information_set_is_first_independent_rows(self):
        rows, inverse = fpcode._information_set(self.DEPENDENT_TOP)
        assert rows.tolist() == [0, 2]
        S_I = self.DEPENDENT_TOP.entries[rows]
        assert (inverse @ S_I % 3).tolist() == [[1, 0], [0, 1]]
        assert fpcode._information_set(fpcode.GeneratorMatrix(5, np.array([[1, 2], [2, 4]]))) is None

    def count_searches(self, monkeypatch):
        calls = []
        blocks = fpcode._codeword_blocks

        def counted(S):
            calls.append(S.p)
            return blocks(S)

        monkeypatch.setattr(fpcode, "_codeword_blocks", counted)
        return calls

    def test_codewords_only_never_encode_the_codebook(self, monkeypatch):
        calls = self.count_searches(monkeypatch)
        S = self.DEPENDENT_TOP
        messages = fpcode.all_messages(3, 2).T
        res = fpcode.md_decode(S, fpcode.encode(S, messages))
        assert calls == []
        assert np.array_equal(res.message, messages)
        assert not res.corrections.any() and not res.ambiguous.any()
        one = fpcode.md_decode(S, fpcode.encode(S, messages[:, 5]))
        assert calls == [] and one.corrections == 0 and one.ambiguous is False
        # one word off the code: the codebook is encoded once for it
        batch = fpcode.encode(S, messages)
        batch[0, 4] = (batch[0, 4] + 1) % 3
        assert_same_decode(fpcode.md_decode(S, batch), loop_md_decode(S, batch))
        assert calls == [3]

    def test_rank_deficient_code_searches_every_word(self, monkeypatch):
        calls = self.count_searches(monkeypatch)
        S = fpcode.GeneratorMatrix(3, np.array([[1, 2], [2, 1], [0, 0], [1, 2]]))  # rank 1
        batch = fpcode.encode(S, fpcode.all_messages(3, 2).T)
        assert_same_decode(fpcode.md_decode(S, batch), loop_md_decode(S, batch))
        assert calls == [3]

    def test_codewords_only_still_check_the_budget(self):
        S = fpcode.gv_search(5, 15, 3, seed=5, message_len=4)
        words = fpcode.encode(S, np.random.default_rng(0).integers(0, 5, size=(4, 10)))
        with pytest.raises(ResourceLimitError, match="625 messages exceeds budget 624"):
            fpcode.md_decode(S, words, budget=624)
        with pytest.raises(ResourceLimitError):
            fpcode.md_decode(S, words[:, 0], budget=624)
        assert not fpcode.md_decode(S, words, budget=625).corrections.any()


class TestReceivedSymbolRange:
    @pytest.mark.parametrize("bad", [-1, 11])
    def test_out_of_range_symbols_rejected(self, bad):
        S = fpcode.gv_search(11, 15, 3, seed=0, message_len=2)
        word = np.zeros(15, dtype=int)
        word[3] = bad
        with pytest.raises(InvalidArgumentError, match=r"received symbols must lie in \[0, 11\)"):
            fpcode.md_decode(S, word)
        batch = np.zeros((15, 4), dtype=int)
        batch[7, 2] = bad
        with pytest.raises(InvalidArgumentError, match=r"received symbols must lie in \[0, 11\)"):
            fpcode.md_decode(S, batch)

    def test_p257_symbols_do_not_wrap(self):
        S = fpcode.GeneratorMatrix(257, np.ones((3, 1), dtype=int))  # repetition over F_257
        # in a uint8 alphabet 256 would read as 0 and tie codeword 256 with codeword 0
        res = fpcode.md_decode(S, np.array([[256, 256], [0, 256], [0, 0]]))
        assert res.message.tolist() == [[0, 256]]
        assert res.corrections.tolist() == [1, 1]
        assert res.ambiguous.tolist() == [False, False]
        for bad in (-1, 257):
            with pytest.raises(InvalidArgumentError, match=r"\[0, 257\)"):
                fpcode.md_decode(S, np.array([bad, 0, 0]))


class TestSerialization:
    def test_roundtrip(self):
        text = HAMMING74.to_text()
        assert text.splitlines()[0] == "2 7 4"
        back = fpcode.GeneratorMatrix.from_text(text)
        assert back.p == 2
        assert np.array_equal(back.entries, HAMMING74.entries)

    def test_truncated(self):
        with pytest.raises(InvalidArgumentError):
            fpcode.GeneratorMatrix.from_text("2 7 4 1 0 1")
