"""The shared linear outer code over a prime field F_p.

Every transmitter encodes every submessage with one common generator matrix
S over F_p, so integer sums performed by the channel commute with encoding:
sum of codewords = codeword of the summed message (mod p). Codes are found
by seeded random search against the Gilbert-Varshamov rate target and
verified by exhaustive minimum-distance enumeration. Decoding is minimum
Hamming distance in two exact tiers: codewords are resolved through an
information set of S, and only the other words are compared with every
codeword.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, ResourceLimitError, SearchFailureError
from .seeding import child_rng

DECODE_BUDGET = 1 << 20
# cells held by the exhaustive decoder's per-chunk distance array (and its
# bool buffer), and by each block of codewords that it and min_distance encode
DECODE_CHUNK_CELLS = 1 << 20


def is_prime(n: int) -> bool:
    """Trial division."""
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


@dataclass
class GeneratorMatrix:
    """Shared linear map S in F_p^(T x message_len), codeword = S w."""

    p: int
    entries: np.ndarray
    attempts: int | None = None  # random-search attempts that produced it

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=np.int64) % self.p
        if self.entries.ndim != 2:
            raise InvalidArgumentError("generator matrix must be 2-D")
        if self.message_len > self.t:
            raise InvalidArgumentError("message length exceeds block length")

    @property
    def t(self) -> int:
        return self.entries.shape[0]

    @property
    def message_len(self) -> int:
        return self.entries.shape[1]

    def to_text(self) -> str:
        lines = [f"{self.p} {self.t} {self.message_len}"]
        for row in self.entries:
            lines.append(" ".join(str(int(x)) for x in row))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "GeneratorMatrix":
        tokens = text.split()
        p, t, k = int(tokens[0]), int(tokens[1]), int(tokens[2])
        body = np.array([int(x) for x in tokens[3 : 3 + t * k]], dtype=np.int64)
        if body.size != t * k:
            raise InvalidArgumentError("truncated generator matrix text")
        return cls(p, body.reshape(t, k))


def encode(S: GeneratorMatrix, w) -> np.ndarray:
    """Codeword S w over F_p; w may be a vector or a (message_len, n) batch."""
    w = np.asarray(w, dtype=np.int64)
    if w.shape[0] != S.message_len:
        raise InvalidArgumentError(
            f"message length {w.shape[0]} != {S.message_len}"
        )
    words = S.entries @ w
    words %= S.p
    return words


def _messages(p: int, k: int, idx: np.ndarray) -> np.ndarray:
    """Messages number ``idx`` in the order of ``all_messages``, as (len(idx), k) rows."""
    out = np.empty((len(idx), k), dtype=np.int64)
    for j in range(k - 1, -1, -1):
        out[:, j] = idx % p
        idx = idx // p
    return out


def all_messages(p: int, k: int) -> np.ndarray:
    """All p^k messages as rows, lexicographic (first symbol most significant)."""
    return _messages(p, k, np.arange(p**k))


def _codeword_blocks(S: GeneratorMatrix):
    """Yield (first message index, (T, n) codewords) over all messages in order.

    Each block and its int64 temporaries hold at most ``DECODE_CHUNK_CELLS``
    cells (or one codeword when T is larger), so memory does not grow with
    the p^message_len codebook.
    """
    count = S.p**S.message_len
    step = max(1, DECODE_CHUNK_CELLS // S.t)
    for lo in range(0, count, step):
        idx = np.arange(lo, min(lo + step, count))
        yield lo, encode(S, _messages(S.p, S.message_len, idx).T)


def min_distance(S: GeneratorMatrix, budget: int = DECODE_BUDGET) -> int:
    """Minimum Hamming weight over nonzero codewords (exhaustive)."""
    count = S.p**S.message_len
    if count > budget:
        raise ResourceLimitError(
            f"minimum-distance enumeration of {count} messages exceeds budget {budget}"
        )
    weights = np.concatenate([np.count_nonzero(words, axis=0) for _, words in _codeword_blocks(S)])
    return int(np.min(weights[1:]))  # message 0 encodes to the zero word


def p_ary_entropy(p: int, x: float) -> float:
    """H_p(x) = (x log2(p-1) - x log2 x - (1-x) log2(1-x)) / log2 p."""
    if not 0.0 <= x <= 1.0:
        raise InvalidArgumentError("entropy argument must lie in [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return math.log2(p - 1) / math.log2(p) if p > 2 else 0.0
    h = x * math.log2(p - 1) - x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)
    return h / math.log2(p)


def gv_rate_bound(p: int, t: int, d: int) -> float:
    """Gilbert-Varshamov rate guarantee (1 - H_p((d-1)/T)) log2 p, bits/symbol."""
    if not 2 <= d <= t / 2:
        raise InvalidArgumentError("need 2 <= d <= T/2")
    return (1.0 - p_ary_entropy(p, (d - 1) / t)) * math.log2(p)


def gv_message_len(p: int, t: int, d: int) -> int:
    """Message length meeting the GV rate bound (ceil of T * rate / log2 p)."""
    return max(1, math.ceil(t * (1.0 - p_ary_entropy(p, (d - 1) / t))))


def gv_search(
    p: int,
    t: int,
    d: int,
    max_attempts: int = 2000,
    seed: int = 0,
    message_len: int | None = None,
    budget: int = DECODE_BUDGET,
) -> GeneratorMatrix:
    """Random generator matrices until one meets min_distance >= d.

    ``message_len`` defaults to the GV-bound target. The returned matrix
    carries the number of attempts used; distance is verified exhaustively.
    """
    if not is_prime(p):
        raise InvalidArgumentError(f"{p} is not prime")
    if not 2 <= d <= t / 2:
        raise InvalidArgumentError("need 2 <= d <= T/2")
    k = gv_message_len(p, t, d) if message_len is None else int(message_len)
    for attempt in range(1, max_attempts + 1):
        rng = child_rng(seed, attempt)
        S = GeneratorMatrix(p, rng.integers(0, p, size=(t, k)), attempts=attempt)
        if min_distance(S, budget=budget) >= d:
            return S
    raise SearchFailureError(
        f"no [{t},{k}] code over F_{p} with distance >= {d} in {max_attempts} attempts; "
        "consider lowering message_len by 1"
    )


@dataclass
class DecodeResult:
    message: np.ndarray  # (message_len,) or, for a batch, (message_len, n)
    corrections: int | np.ndarray  # Hamming distance to the decoded codeword
    ambiguous: bool | np.ndarray  # another message is just as close


def _information_set(S: GeneratorMatrix):
    """(I, S_I^-1 mod p) for the first information set I of S, or None.

    I is the first message_len rows of S, in row order, that are
    independent over F_p. Gauss-Jordan on [S^T | identity] takes the pivot
    columns of S^T greedily from the left, which are exactly those rows,
    and leaves (S_I^T)^-1 where the identity was. None when S has rank
    < message_len.
    """
    p, k = S.p, S.message_len
    a = np.concatenate([S.entries.T, np.eye(k, dtype=np.int64)], axis=1)
    rows = []
    for c in range(S.t):
        r = len(rows)
        if r == k:
            break
        nonzero = np.flatnonzero(a[r:, c])
        if not nonzero.size:
            continue  # row c of S is a combination of the rows taken
        a[[r, r + nonzero[0]]] = a[[r + nonzero[0], r]]
        a[r] = a[r] * pow(int(a[r, c]), -1, p) % p
        factor = a[:, c].copy()
        factor[r] = 0
        a = (a - factor[:, None] * a[r]) % p
        rows.append(c)
    if len(rows) < k:
        return None
    return np.array(rows, dtype=np.intp), a[:, S.t:].T


def _nearest(S: GeneratorMatrix, batch: np.ndarray):
    """Exhaustive search: (message index, distance, tie) of each column of ``batch``.

    The codebook is encoded once, in blocks of at most
    ``DECODE_CHUNK_CELLS`` cells, into the narrowest unsigned type that
    holds p. Words are compared in chunks: each chunk's
    (words, p^message_len) distance count, in the narrowest unsigned type
    that holds T, and its reused bool buffer hold at most
    ``DECODE_CHUNK_CELLS`` cells, or one word's row when a row is wider.
    """
    count = S.p**S.message_len
    symbol = np.min_scalar_type(S.p)
    codebook = np.empty((S.t, count), dtype=symbol)
    for lo, words in _codeword_blocks(S):
        codebook[:, lo:lo + words.shape[1]] = words
    del words  # the last int64 block: free it before the distance buffers exist
    batch = batch.astype(symbol)
    n = batch.shape[1]
    best = np.empty(n, dtype=np.intp)
    corrections = np.empty(n, dtype=np.int64)
    ambiguous = np.empty(n, dtype=bool)
    rows = max(1, DECODE_CHUNK_CELLS // count)
    dists = np.empty((min(rows, n), count), dtype=np.min_scalar_type(S.t))
    differs = np.empty(dists.shape, dtype=bool)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        dist, diff = dists[: hi - lo], differs[: hi - lo]
        dist.fill(0)
        for word_row, received_row in zip(codebook, batch[:, lo:hi]):
            np.not_equal(received_row[:, None], word_row[None, :], out=diff)
            np.add(dist, diff.view(np.uint8), out=dist)  # uint8 view: no bool cast
        first = np.argmin(dist, axis=1)  # first minimum = lexicographically smallest
        last = count - 1 - np.argmin(dist[:, ::-1], axis=1)
        best[lo:hi] = first
        ambiguous[lo:hi] = last != first  # another message is just as close
        corrections[lo:hi] = dist[np.arange(hi - lo), first]
    return best, corrections, ambiguous


def md_decode(S: GeneratorMatrix, received, budget: int = DECODE_BUDGET) -> DecodeResult:
    """Minimum-Hamming-distance decoding of a word or a batch.

    ``received`` is one (T,) word or a (T, n) batch of words in columns,
    with every symbol in [0, p); a batch returns ``message`` as
    (message_len, n) and ``corrections`` and ``ambiguous`` as (n,) arrays,
    column by column equal to decoding each word alone. Guaranteed correct
    for error weight <= floor((d-1)/2). Ties are reported ambiguous and
    resolved to the lexicographically smallest message (first symbol most
    significant).

    Decoding has two tiers, and both give what an exhaustive search over
    all p^message_len codewords gives.

    - Tier 0 resolves codewords. Let I be the first information set of S
      (``_information_set``). For each word r, w = S_I^-1 r_I mod p; if
      S w = r, r is a codeword. A codeword S v has r_I = S_I v, so every
      codeword passes, with w = v. An invertible S_I makes S injective, so
      w is the only message at distance 0: 0 corrections, not ambiguous.
    - Every other word, and every word when S has rank < message_len, goes
      to the exhaustive search (``_nearest``). Its codebook is encoded only
      when some word gets there.

    The budget and symbol checks come first, so a batch of codewords
    raises the same errors as any other. Tier 0 holds a few arrays of the
    batch's own size; the exhaustive search holds the codebook and a
    distance buffer bounded by ``DECODE_CHUNK_CELLS``. int64 sums of
    products stay below message_len (p-1)^2, under 2^41 within the default
    budget.
    """
    received = np.asarray(received, dtype=np.int64)
    if received.ndim not in (1, 2) or received.shape[0] != S.t:
        raise InvalidArgumentError("received word has wrong length")
    count = S.p**S.message_len
    if count > budget:
        raise ResourceLimitError(
            f"decode enumeration of {count} messages exceeds budget {budget}"
        )
    if received.size and (received.min() < 0 or received.max() >= S.p):
        raise InvalidArgumentError(
            f"received symbols must lie in [0, {S.p}), got "
            f"{int(received.min())}..{int(received.max())}"
        )
    batch = received.reshape(S.t, -1)
    n = batch.shape[1]
    message = np.empty((S.message_len, n), dtype=np.int64)
    corrections = np.zeros(n, dtype=np.int64)
    ambiguous = np.zeros(n, dtype=bool)
    rest = np.arange(n)
    info = _information_set(S)
    if info is not None:
        rows, inverse = info
        message[:] = inverse @ batch[rows] % S.p
        rest = np.flatnonzero(np.any(encode(S, message) != batch, axis=0))
    if rest.size:
        best, corrections[rest], ambiguous[rest] = _nearest(S, batch[:, rest])
        message[:, rest] = _messages(S.p, S.message_len, best).T
    if received.ndim == 1:
        return DecodeResult(message[:, 0], int(corrections[0]), bool(ambiguous[0]))
    return DecodeResult(message, corrections, ambiguous)
