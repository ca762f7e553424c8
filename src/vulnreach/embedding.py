"""Encoding of code blocks and query snippets into unit-norm vectors.

Providers sit behind a small interface; the bundled reference encoder is
fully deterministic and offline (hashed character n-grams), so the whole
pipeline stays testable without network access. Remote encoders are thin
configuration-only adapters. Normalization is always applied here rather
than trusted from providers, because downstream similarity scoring relies on
the dot-product/cosine equivalence of unit vectors.
"""

from __future__ import annotations

import hashlib
import time
from collections import Counter
from functools import partial
from itertools import chain, repeat
from typing import Callable, Iterable, Iterator, NamedTuple, Protocol, Sequence, TypeVar

import numpy as np

from .errors import EmptyText, ProviderError
from .model import EmbeddingVector

_NGRAM_SIZES = (3, 4, 5)
# A batch of fewer normalized characters is counted text by text: a numpy
# pass has a fixed cost of about 100 us and wins only from about 600-1200
# characters on, and ``analyze`` embeds one to four short queries at a time.
_NUMPY_MIN_CHARS = 2048
# Characters per numpy pass, in whole texts: a pass holds up to about 130 B
# per character, so this bounds its working set to about 2 MB.
_PASS_CHARS = 16384
# Entries of each of an encoder's two n-gram code tables: several times the
# distinct n-grams one benchmark command meets (about 16,000). The
# string-keyed table is about 7 MB at most, the integer-keyed one (24 B an
# id) about 1.5 MB.
_MAX_CODES = 1 << 16
# Seconds slept before each retry of a transient provider failure.
_RETRY_DELAYS = (0.5, 1.0, 2.0)

_T = TypeVar("_T")


class EncoderProvider(Protocol):
    name: str
    dims: int
    batch_limit: int

    def encode_batch(self, texts: Sequence[str]) -> Sequence[np.ndarray | Sequence[float]]: ...


def embed(provider: EncoderProvider, texts: Sequence[str]) -> list[EmbeddingVector]:
    """Encode texts in order, one unit-norm vector per input.

    A provider row that cannot be normalized (all zeros, or holding a NaN or
    an infinity) raises ``ProviderError`` naming the text's position.
    """
    if not texts:
        raise EmptyText("embed() requires at least one text")
    for idx, text in enumerate(texts):
        if not text.strip():
            raise EmptyText(f"text at position {idx} is blank")
    out: list[EmbeddingVector] = []
    limit = max(1, provider.batch_limit)
    for offset in range(0, len(texts), limit):
        batch = list(texts[offset : offset + limit])
        raw = call_with_retry(lambda: provider.encode_batch(batch))
        if len(raw) != len(batch):
            raise ProviderError(
                f"provider {provider.name} returned {len(raw)} vectors for {len(batch)} texts"
            )
        for position, values in enumerate(raw, offset):
            if len(values) != provider.dims:
                raise ProviderError(
                    f"provider {provider.name} returned {len(values)} dims, expected {provider.dims}"
                )
            try:
                out.append(EmbeddingVector.normalized(values))
            except ValueError as exc:
                # Stored, a row with no direction could never be retrieved.
                raise ProviderError(
                    f"provider {provider.name} returned an unusable vector for text at"
                    f" position {position}: {exc}"
                ) from exc
    return out


def call_with_retry(call: Callable[[], _T]) -> _T:
    """``call()``, retried up to three times, after 0.5, 1 and 2 s, while it
    fails with a transient ``ProviderError``; any other failure, and the
    last attempt's, is raised at once."""
    for delay in _RETRY_DELAYS:
        try:
            return call()
        except ProviderError as exc:
            if not exc.transient:
                raise
        time.sleep(delay)
    return call()


def cosine(a: EmbeddingVector, b: EmbeddingVector) -> float:
    """Cosine similarity; for unit vectors this is the plain dot product."""
    return a.dot(b)


def _lexical_normalize(text: str) -> str:
    # Case-fold identifiers and collapse all whitespace runs to one space.
    return " ".join(text.lower().split())


def _gram_codes(grams: Sequence[str], dims: int) -> np.ndarray:
    """The feature code of each gram, as int64: its 8-byte blake2b digest read
    as a little-endian integer ``h`` picks the bucket ``h % dims`` and, by its
    top bit, the sign. C-level maps hash every gram, and the joined digests
    are read as one ``uint64`` array. surrogatepass encodes a lone surrogate
    like any other code point; other text gives the same bytes as UTF-8."""
    encoded = map(str.encode, grams, repeat("utf-8"), repeat("surrogatepass"))
    hashers = map(partial(hashlib.blake2b, digest_size=8), encoded)
    h = np.frombuffer(b"".join(map(hashlib.blake2b.digest, hashers)), "<u8")
    return (h % dims + (h >> 63) * dims).astype(np.int64)


class _PackedCodes(NamedTuple):
    """The numpy pass's n-gram code table, keyed by integers.

    For each n-gram size, ``keys`` holds the sorted keys and ``ids`` their
    ids; ``codes`` holds the code of each id. Ids are dense, in first-seen
    order. A 3-gram's key packs its three code points (each below 2**21) into
    63 bits; a longer n-gram's key is the id of its (n-1)-gram prefix,
    shifted left 21 bits and or-ed with its last code point.
    """

    keys: tuple[np.ndarray, ...]
    ids: tuple[np.ndarray, ...]
    codes: np.ndarray


_NO_INTS = np.empty(0, np.int64)
_NO_PACKED_CODES = _PackedCodes((_NO_INTS,) * len(_NGRAM_SIZES), (_NO_INTS,) * len(_NGRAM_SIZES), _NO_INTS)


class _GramCodes(dict):
    """An encoder's two memos of n-gram -> feature code for one ``dims``:
    this dict, keyed by the n-gram, for texts counted one by one, and
    ``packed``, a ``_PackedCodes`` for the numpy pass, which builds no string
    for an n-gram it holds. Each table hashes an n-gram once while it holds
    it and keeps at most ``_MAX_CODES`` entries.

    The dict is filled one batch of missing n-grams at a time and emptied
    before a batch would take it past ``_MAX_CODES`` entries (a batch alone
    that large is not kept). ``packed`` is replaced whole, by one assignment
    per pass, and left empty by a pass that would take it past the cap.

    A code is the n-gram's bucket when its sign is +1 and ``dims`` plus the
    bucket when it is -1, so one ``np.bincount`` over ``2 * dims`` slots
    counts both signs at once. A code depends on the n-gram alone. ``lookup``
    returns the codes it hashed, never reading them back from the dict, and a
    pass reads ``packed`` once, so a racing add or emptying by another thread
    changes only which n-grams are hashed again (or lets the dict overshoot
    its cap by a batch per thread, or drops another pass's additions to
    ``packed``), never a code: threads may share the tables.
    """

    def __init__(self, dims: int):
        super().__init__()
        self.dims = dims
        self.packed = _NO_PACKED_CODES

    def lookup(self, grams: Sequence[str]) -> np.ndarray:
        """The code of each of the distinct ``grams``, in order; those the
        table lacks are hashed in one ``_gram_codes`` batch and added."""
        codes = np.fromiter(map(self.get, grams, repeat(-1)), np.int64, len(grams))
        missed = np.flatnonzero(codes < 0).tolist()
        if missed:
            missing = [grams[k] for k in missed]
            codes[missed] = hashed = _gram_codes(missing, self.dims)
            if len(self) + len(missing) > _MAX_CODES:
                self.clear()
            if len(missing) <= _MAX_CODES:
                self.update(zip(missing, hashed.tolist()))
        return codes


def _signed_counts(tally: np.ndarray, dims: int) -> np.ndarray:
    """float64 (+1 occurrences) - (-1 occurrences) per bucket from code tallies
    whose last axis is ``2 * dims`` long."""
    return (tally[..., :dims] - tally[..., dims:]).astype(np.float64)


def _hashed_features(normalized: str, codes: _GramCodes) -> np.ndarray:
    """Signed feature hashing of one normalized text's n-grams into
    ``codes.dims`` buckets.

    Each bucket holds (occurrences of +1 n-grams) - (occurrences of -1
    n-grams), summed from the occurrence count of each distinct n-gram. Every
    count is a small integer, exact in float64, so this equals adding each
    occurrence's sign one at a time, in any order.
    """
    dims = codes.dims
    if len(normalized) < _NGRAM_SIZES[0]:
        grams: Iterable[str] = (normalized,)
    else:
        grams = chain.from_iterable(
            map("".join, zip(*(normalized[k:] for k in range(n)))) for n in _NGRAM_SIZES
        )
    counts = Counter(grams)
    tally = np.bincount(codes.lookup(list(counts)), weights=list(counts.values()), minlength=2 * dims)
    acc = _signed_counts(tally, dims)
    if not acc.any():
        acc[_gram_codes([normalized], dims)[0] % dims] = 1.0
    return acc


def _pass_features(texts: Sequence[str], codes: _GramCodes) -> np.ndarray:
    """``_hashed_features`` of each normalized text, as rows, in one numpy pass.

    The texts are joined end to end and their code points read as integers.
    An n-gram is kept where it starts at least n characters before the end of
    its own text: boundaries are known by position, so no n-gram spans two
    texts whatever characters the texts hold. Each n-gram is keyed as in
    ``codes.packed``, the size-3 keys first, so every prefix has an id when
    its longer n-grams are keyed. ``np.unique`` finds the distinct keys of a
    size and one ``np.searchsorted`` resolves them against the table; only
    the misses are sliced out of the text and hashed, and take the next ids.
    One ``np.bincount`` per size counts every text's codes at once. The pass
    reads ``codes.packed`` once and replaces it by one assignment holding its
    misses too, or by an empty table if that would hold more than
    ``_MAX_CODES`` ids.
    """
    dims = codes.dims
    width = 2 * dims
    lengths = np.fromiter(map(len, texts), np.int64, len(texts))
    joined = "".join(texts)
    points = np.frombuffer(joined.encode("utf-32-le", "surrogatepass"), "<u4").astype(np.int64)
    owner = np.repeat(np.arange(len(texts), dtype=np.int64), lengths)
    # Characters from each position to the end of the text it belongs to.
    left = np.cumsum(lengths)[owner] - np.arange(len(points))
    slot = owner * width
    tally = np.zeros(len(texts) * width, np.int64)
    table = codes.packed
    next_id = len(table.codes)
    # The id of the n-gram one size down starting at each position.
    prefix = np.empty(len(points), np.int64)
    added: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    hashed: list[np.ndarray] = []
    for size, known, known_ids in zip(_NGRAM_SIZES, table.keys, table.ids):
        starts = np.flatnonzero(left >= size)
        if size == _NGRAM_SIZES[0]:
            keys = points[starts] << 42 | points[starts + 1] << 21 | points[starts + 2]
        else:
            keys = prefix[starts] << 21 | points[starts + size - 1]
        distinct, inverse = np.unique(keys, return_inverse=True)
        at = np.searchsorted(known, distinct)
        held = at < len(known)
        held[held] = known[at[held]] == distinct[held]
        ids = np.empty(len(distinct), np.int64)
        gram_codes = np.empty(len(distinct), np.int64)
        ids[held] = held_ids = known_ids[at[held]]
        gram_codes[held] = table.codes[held_ids]
        missed = np.flatnonzero(~held)
        if len(missed):
            first = np.empty(len(distinct), np.int64)
            first[inverse] = starts
            grams = [joined[k : k + size] for k in first[missed].tolist()]
            gram_codes[missed] = new_codes = _gram_codes(grams, dims)
            ids[missed] = np.arange(next_id, next_id + len(missed))
            next_id += len(missed)
            hashed.append(new_codes)
        added.append((at[missed], distinct[missed], ids[missed]))
        tally += np.bincount(slot[starts] + gram_codes[inverse], minlength=len(tally))
        prefix[starts] = ids[inverse]
    if next_id > _MAX_CODES:
        codes.packed = _NO_PACKED_CODES
    elif hashed:
        codes.packed = _PackedCodes(
            tuple(np.insert(old, where, new) for old, (where, new, _) in zip(table.keys, added)),
            tuple(np.insert(old, where, new) for old, (where, _, new) in zip(table.ids, added)),
            np.concatenate([table.codes, *hashed]),
        )
    rows = _signed_counts(tally.reshape(len(texts), width), dims)
    for row in np.flatnonzero(lengths < _NGRAM_SIZES[0]).tolist():
        # Too short for any n-gram: the whole text is its one gram.
        rows[row] = _hashed_features(texts[row], codes)
    for row in np.flatnonzero(~rows.any(axis=1)).tolist():
        rows[row, _gram_codes([texts[row]], dims)[0] % dims] = 1.0
    return rows


def _passes(texts: Sequence[str], budget: int) -> Iterator[Sequence[str]]:
    """Consecutive runs of whole texts, each at most ``budget`` characters
    long unless a single text is longer."""
    start, size = 0, 0
    for end, text in enumerate(texts):
        if end > start and size + len(text) > budget:
            yield texts[start:end]
            start, size = end, 0
        size += len(text)
    if start < len(texts):
        yield texts[start:]


def reference_encode(text: str, dims: int = 256) -> EmbeddingVector:
    """Deterministic offline embedding of one text.

    Signed feature hashing of character n-grams (n in 3..5) over the
    lexically normalized text, L2-normalized. Texts sharing many n-grams get
    higher cosine similarity. A vector is the sum of the signed bucket of
    every n-gram occurrence, computed from per-bucket counts of the distinct
    n-grams, each hashed once; the counts are small integers, so the float64
    values are the same bit for bit. This per-text function is the definition
    ``ReferenceEncoder.encode_batch`` reproduces.
    """
    if dims < 8:
        raise ValueError("reference encoder needs dims >= 8")
    if not text.strip():
        raise EmptyText("cannot encode blank text")
    return EmbeddingVector.normalized(_hashed_features(_lexical_normalize(text), _GramCodes(dims)))


class ReferenceEncoder:
    """Offline stand-in for remote embedding models; same text always maps
    to the same vector."""

    def __init__(self, dims: int = 256):
        if dims < 8:
            raise ValueError("reference encoder needs dims >= 8")
        self.name = "reference"
        self.dims = dims
        self.batch_limit = 64
        # Each n-gram hashes once while the table holds it: a command builds
        # one encoder, so repeats across batches and theta settings are free.
        # A code depends on the n-gram and dims alone, so a row still equals
        # its text encoded alone.
        self._codes = _GramCodes(dims)

    def encode_batch(self, texts: Sequence[str]) -> list[np.ndarray]:
        """One float64 row per text, each the same bits as ``reference_encode``
        computes before normalizing.

        A batch of fewer than ``_NUMPY_MIN_CHARS`` normalized characters is
        counted text by text. A larger one goes through ``_pass_features``
        in runs of whole texts of at most ``_PASS_CHARS`` characters, which
        bounds the pass's working set.
        """
        normalized = [_lexical_normalize(t) for t in texts]
        if sum(map(len, normalized)) < _NUMPY_MIN_CHARS:
            return [_hashed_features(t, self._codes) for t in normalized]
        rows: list[np.ndarray] = []
        for run in _passes(normalized, _PASS_CHARS):
            rows.extend(_pass_features(run, self._codes))
        return rows


class RemoteEncoderProvider:
    """Adapter for HTTP embedding endpoints speaking the common
    ``{"model": ..., "input": [...]}`` request shape.

    Credentials come from the environment variable named in the config,
    never from files. Not exercised by the test suite.
    """

    def __init__(
        self,
        name: str,
        model_id: str,
        endpoint: str,
        dims: int,
        api_key_env: str,
        batch_limit: int = 64,
        timeout: float = 60.0,
    ):
        self.name = name
        self.model_id = model_id
        self.endpoint = endpoint
        self.dims = dims
        self.api_key_env = api_key_env
        self.batch_limit = batch_limit
        self.timeout = timeout

    def encode_batch(self, texts: Sequence[str]) -> list[list[float]]:
        import os

        import requests

        api_key = os.environ.get(self.api_key_env, "")
        if not api_key:
            raise ProviderError(f"environment variable {self.api_key_env} is not set")
        try:
            response = requests.post(
                self.endpoint,
                json={"model": self.model_id, "input": list(texts)},
                headers={"Authorization": f"Bearer {api_key}"},
                timeout=self.timeout,
            )
        except requests.RequestException as exc:
            raise ProviderError(f"embedding request failed: {exc}", connection=True) from exc
        if response.status_code != 200:
            raise ProviderError(
                f"embedding endpoint returned {response.status_code}: {response.text[:200]}",
                status=response.status_code,
            )
        try:
            payload = response.json()
            rows = sorted(payload["data"], key=lambda item: item.get("index", 0))
            return [list(map(float, row["embedding"])) for row in rows]
        except (KeyError, TypeError, ValueError) as exc:
            raise ProviderError(f"malformed embedding response: {exc}") from exc
