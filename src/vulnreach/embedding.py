"""Encoding of code blocks and query snippets into unit-norm vectors.

Providers sit behind a small interface; the bundled reference encoder is
fully deterministic and offline (hashed character n-grams, counted for a
whole batch in one numpy pass against one memo of n-gram codes), so the
whole pipeline stays testable without network access. Remote encoders are thin
configuration-only adapters. Normalization is always applied here rather
than trusted from providers, because downstream similarity scoring relies on
the dot-product/cosine equivalence of unit vectors.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator, NamedTuple, Protocol, Sequence, TypeVar

import numpy as np

from .errors import EmptyText, ProviderError
from .model import EmbeddingVector

_NGRAM_SIZES = (3, 4, 5)
# Characters per numpy pass, in whole texts: a pass holds up to about 130 B
# per character, so this bounds its working set to about 2 MB.
_PASS_CHARS = 16384
# Ids of an encoder's n-gram code table: several times the distinct n-grams
# one benchmark command meets (about 16,000). At 24 B an id the table is
# about 1.5 MB at most.
_MAX_CODES = 1 << 16
_EMPTY_HASHER = hashlib.blake2b(digest_size=8)  # copied by ``_gram_codes`` per gram
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


def post_json(
    endpoint: str,
    api_key_env: str,
    payload: Any,
    timeout: float,
    what: str,
    read: Callable[[Any], _T],
) -> _T:
    """``read`` of the JSON reply to ``payload``, POSTed to ``endpoint`` with
    the bearer token in the environment variable ``api_key_env``. Each
    failure is a ``ProviderError`` naming ``what``; a lost connection and the
    statuses ``ProviderError.transient`` names are worth a retry."""
    import requests  # on first use: importing it slows every command's start-up

    api_key = os.environ.get(api_key_env, "")
    if not api_key:
        raise ProviderError(f"environment variable {api_key_env} is not set")
    try:
        response = requests.post(
            endpoint,
            json=payload,
            headers={"Authorization": f"Bearer {api_key}"},
            timeout=timeout,
        )
    except requests.RequestException as exc:
        raise ProviderError(f"{what} request failed: {exc}", connection=True) from exc
    if response.status_code != 200:
        raise ProviderError(
            f"{what} endpoint returned {response.status_code}: {response.text[:200]}",
            status=response.status_code,
        )
    try:
        return read(response.json())
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ProviderError(f"malformed {what} response: {exc}") from exc


def _lexical_normalize(text: str) -> str:
    # Case-fold identifiers and collapse all whitespace runs to one space.
    return " ".join(text.lower().split())


def _gram_codes(grams: Sequence[str], dims: int) -> np.ndarray:
    """The feature code of each gram, as int64: its 8-byte blake2b digest read
    as a little-endian integer ``h`` picks the bucket ``h % dims`` and, by its
    top bit, the sign. A copy of one empty hasher hashes each gram, and the
    digests are read as one ``uint64`` array. surrogatepass encodes a lone
    surrogate like any other code point; other text gives the same bytes as UTF-8.

    A code is the gram's bucket when its sign is +1 and ``dims`` plus the
    bucket when it is -1, so one ``np.bincount`` over ``2 * dims`` slots
    counts both signs at once."""
    digests = []
    for gram in grams:
        hasher = _EMPTY_HASHER.copy()
        hasher.update(gram.encode("utf-8", "surrogatepass"))
        digests.append(hasher.digest())
    h = np.frombuffer(b"".join(digests), "<u8")
    return (h % dims + (h >> 63) * dims).astype(np.int64)


def _group(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``np.unique(keys, return_index=True, return_inverse=True)`` of non-negative
    int64 keys, by one value ``np.sort`` (a third of the cost of its argsort) of
    each key with its position in its low bits, unless the two need over 63 bits."""
    shift = (len(keys) - 1).bit_length()
    if len(keys) == 0 or int(keys.max()).bit_length() + shift > 63:
        return np.unique(keys, return_index=True, return_inverse=True)
    packed = np.sort(keys << shift | np.arange(len(keys)))
    order, packed = packed & ((1 << shift) - 1), packed >> shift
    heads = np.concatenate(([0], np.flatnonzero(packed[1:] != packed[:-1]) + 1))
    inverse = np.empty(len(keys), np.int64)
    inverse[order] = np.repeat(np.arange(len(heads)), np.diff(heads, append=len(keys)))
    return packed[heads], order[heads], inverse


class _PackedCodes(NamedTuple):
    """An encoder's n-gram code table, keyed by integers.

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


def _pass_features(texts: Sequence[str], encoder: ReferenceEncoder) -> np.ndarray:
    """The float64 feature rows of normalized texts, in one numpy pass.

    A row's bucket holds (occurrences of +1 n-grams) - (occurrences of -1
    n-grams) of its text, for n in 3..5. Every count is a small integer,
    exact in float64, so this equals adding each occurrence's sign one at a
    time, in any order. A text too short for any n-gram is its own one gram;
    a row whose signs cancel to all zeros gets +1 in the text's bucket.

    The texts are joined end to end and their code points read as integers.
    An n-gram is kept where it starts at least n characters before the end of
    its own text, so none spans two texts whatever characters they hold. Each
    is keyed as in ``encoder._packed``, size 3 first, so every prefix has an
    id when its longer n-grams are keyed. ``_group`` finds a size's distinct
    keys and where each first occurs, and one ``np.searchsorted`` resolves
    them against the table; only the misses are sliced out of the text there
    and hashed, and take the next ids. One ``np.bincount`` per size counts
    every text's codes at once.
    """
    dims = encoder.dims
    width = 2 * dims
    lengths = np.fromiter(map(len, texts), np.int64, len(texts))
    joined = "".join(texts)
    points = np.frombuffer(joined.encode("utf-32-le", "surrogatepass"), "<u4").astype(np.int64)
    owner = np.repeat(np.arange(len(texts), dtype=np.int64), lengths)
    # Characters from each position to the end of the text it belongs to.
    left = np.cumsum(lengths)[owner] - np.arange(len(points))
    slot = owner * width
    tally = np.zeros((len(texts), width), np.int64)
    table = encoder._packed
    next_id = len(table.codes)
    prefix = points << 21  # at each position: its 2-gram's key, then its (n-1)-gram's id
    prefix[:-1] |= points[1:]
    table_keys, table_ids, table_codes = list(table.keys), list(table.ids), [table.codes]
    for n, (size, known, known_ids) in enumerate(zip(_NGRAM_SIZES, table.keys, table.ids)):
        starts = np.flatnonzero(left >= size)
        distinct, first, inverse = _group(prefix[starts] << 21 | points[starts + size - 1])
        at = np.searchsorted(known, distinct)
        held = at < len(known)
        held[held] = known[at[held]] == distinct[held]
        ids, gram_codes = np.empty((2, len(distinct)), np.int64)
        ids[held] = held_ids = known_ids[at[held]]
        gram_codes[held] = table.codes[held_ids]
        missed = np.flatnonzero(~held)
        if len(missed):
            grams = [joined[k : k + size] for k in starts[first[missed]].tolist()]
            gram_codes[missed] = new_codes = _gram_codes(grams, dims)
            ids[missed] = np.arange(next_id, next_id + len(missed))
            next_id += len(missed)
            table_keys[n] = np.insert(known, at[missed], distinct[missed])
            table_ids[n] = np.insert(known_ids, at[missed], ids[missed])
            table_codes.append(new_codes)
        tally += np.bincount(slot[starts] + gram_codes[inverse], minlength=tally.size).reshape(tally.shape)
        prefix[starts] = ids[inverse]
    if next_id > _MAX_CODES:
        encoder._packed = _NO_PACKED_CODES
    elif next_id > len(table.codes):
        encoder._packed = _PackedCodes(tuple(table_keys), tuple(table_ids), np.concatenate(table_codes))
    rows = (tally[:, :dims] - tally[:, dims:]).astype(np.float64)
    empty = np.flatnonzero(~rows.any(axis=1))
    if len(empty):
        whole = _gram_codes([texts[row] for row in empty.tolist()], dims)
        short = lengths[empty] < _NGRAM_SIZES[0]
        rows[empty, whole % dims] = np.where(short & (whole >= dims), -1.0, 1.0)
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


class ReferenceEncoder:
    """Offline stand-in for remote embedding models; same text always maps
    to the same vector.

    A text's vector is signed feature hashing of the character n-grams (n in
    3..5) of the lexically normalized text, L2-normalized by ``embed``.
    Texts sharing many n-grams get higher cosine similarity.

    ``_packed`` memoizes n-gram codes: each n-gram hashes once while the table
    holds it, so repeats across batches and theta settings are free. A code
    depends on the n-gram and ``dims`` alone, so a row equals its text
    encoded alone. A pass reads ``_packed`` once and replaces it whole, empty
    past ``_MAX_CODES`` ids, so a racing pass in another thread can drop its
    additions, never change a code: threads may share an encoder.
    """

    def __init__(self, dims: int = 256):
        if dims < 8:
            raise ValueError("reference encoder needs dims >= 8")
        self.name = "reference"
        self.dims = dims
        self.batch_limit = 64
        self._packed = _NO_PACKED_CODES

    def encode_batch(self, texts: Sequence[str]) -> list[np.ndarray]:
        """One float64 feature row per text, through ``_pass_features`` in
        runs of whole texts of at most ``_PASS_CHARS`` normalized characters,
        which bounds a pass's working set."""
        runs = _passes([_lexical_normalize(t) for t in texts], _PASS_CHARS)
        return [row for run in runs for row in _pass_features(run, self)]


@dataclass(eq=False)
class RemoteEncoderProvider:
    """Adapter for HTTP embedding endpoints speaking the common
    ``{"model": ..., "input": [...]}`` request shape.

    Credentials come from the environment variable named in the config,
    never from files. The tests drive it through a stubbed ``requests.post``.
    """

    TIMEOUT = 60.0  # seconds

    name: str
    model_id: str
    endpoint: str
    dims: int
    api_key_env: str
    batch_limit: int = 64

    def encode_batch(self, texts: Sequence[str]) -> list[list[float]]:
        payload = {"model": self.model_id, "input": list(texts)}
        return post_json(
            self.endpoint, self.api_key_env, payload, self.TIMEOUT, "embedding", _embedding_rows
        )


def _embedding_rows(reply: Any) -> list[list[float]]:
    rows = sorted(reply["data"], key=lambda item: item.get("index", 0))
    return [list(map(float, row["embedding"])) for row in rows]
