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
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Protocol, Sequence, runtime_checkable

import numpy as np

from .errors import EmptyText, ProviderError
from .model import EmbeddingVector

_NGRAM_SIZES = (3, 4, 5)


@runtime_checkable
class EncoderProvider(Protocol):
    name: str
    dims: int
    batch_limit: int

    def encode_batch(self, texts: Sequence[str]) -> Sequence[np.ndarray | Sequence[float]]: ...


@dataclass(frozen=True)
class RetryPolicy:
    retries: int = 3
    base_delay: float = 0.5
    multiplier: float = 2.0


def embed(
    provider: EncoderProvider,
    texts: Sequence[str],
    retry: RetryPolicy = RetryPolicy(),
) -> list[EmbeddingVector]:
    """Encode texts in order, one unit-norm vector per input."""
    if not texts:
        raise EmptyText("embed() requires at least one text")
    for idx, text in enumerate(texts):
        if not text.strip():
            raise EmptyText(f"text at position {idx} is blank")
    out: list[EmbeddingVector] = []
    limit = max(1, provider.batch_limit)
    for offset in range(0, len(texts), limit):
        batch = list(texts[offset : offset + limit])
        raw = _call_with_retry(provider, batch, retry)
        if len(raw) != len(batch):
            raise ProviderError(
                f"provider {provider.name} returned {len(raw)} vectors for {len(batch)} texts"
            )
        for values in raw:
            if len(values) != provider.dims:
                raise ProviderError(
                    f"provider {provider.name} returned {len(values)} dims, expected {provider.dims}"
                )
            out.append(EmbeddingVector.normalized(values))
    return out


def _call_with_retry(
    provider: EncoderProvider, batch: list[str], retry: RetryPolicy
) -> Sequence[np.ndarray | Sequence[float]]:
    """Retry only transient failures, with exponential backoff; any other
    failure is raised at once."""
    delay = retry.base_delay
    for _ in range(retry.retries):
        try:
            return provider.encode_batch(batch)
        except ProviderError as exc:
            if not exc.transient:
                raise
        if delay > 0:
            time.sleep(delay)
        delay *= retry.multiplier
    return provider.encode_batch(batch)


def cosine(a: EmbeddingVector, b: EmbeddingVector) -> float:
    """Cosine similarity; for unit vectors this is the plain dot product."""
    return a.dot(b)


def _lexical_normalize(text: str) -> str:
    # Case-fold identifiers and collapse all whitespace runs to one space.
    return " ".join(text.lower().split())


def _hash64(text: str) -> int:
    return int.from_bytes(hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest(), "little")


class _GramCodes(dict):
    """Memo of n-gram -> feature code for one ``dims``, filled on first lookup.

    A code is the n-gram's bucket when its sign is +1 and ``dims`` plus the
    bucket when it is -1, so one ``np.bincount`` over ``2 * dims`` slots
    counts both signs at once.
    """

    def __init__(self, dims: int):
        super().__init__()
        self.dims = dims

    def __missing__(self, gram: str) -> int:
        h = _hash64(gram)
        # The low bits pick the bucket, the top bit the sign.
        code = self[gram] = h % self.dims + (self.dims if h >> 63 else 0)
        return code


def _hashed_features(text: str, codes: _GramCodes) -> np.ndarray:
    """Signed feature hashing of one text's n-grams into ``codes.dims`` buckets.

    Each bucket holds (occurrences of +1 n-grams) - (occurrences of -1
    n-grams). Every count is a small integer, exact in float64, so this equals
    adding each occurrence's sign one at a time, in any order.
    """
    dims = codes.dims
    normalized = _lexical_normalize(text)
    if len(normalized) < _NGRAM_SIZES[0]:
        grams: Iterable[str] = (normalized,)
    else:
        grams = chain.from_iterable(
            map("".join, zip(*(normalized[k:] for k in range(n)))) for n in _NGRAM_SIZES
        )
    tally = np.bincount(np.fromiter(map(codes.__getitem__, grams), np.intp), minlength=2 * dims)
    acc = (tally[:dims] - tally[dims:]).astype(np.float64)
    if not acc.any():
        acc[_hash64(normalized) % dims] = 1.0
    return acc


def reference_encode(text: str, dims: int = 256) -> EmbeddingVector:
    """Deterministic offline embedding of one text.

    Signed feature hashing of character n-grams (n in 3..5) over the
    lexically normalized text, L2-normalized. Texts sharing many n-grams get
    higher cosine similarity. The vector definition (the sum of the signed
    bucket of every n-gram occurrence) is unchanged, so existing indexes stay
    valid; it is computed from per-bucket counts of the distinct n-grams,
    each hashed once, which gives the same float64 values bit for bit.
    """
    if dims < 8:
        raise ValueError("reference encoder needs dims >= 8")
    if not text.strip():
        raise EmptyText("cannot encode blank text")
    return EmbeddingVector.normalized(_hashed_features(text, _GramCodes(dims)))


class ReferenceEncoder:
    """Offline stand-in for remote embedding models; same text always maps
    to the same vector."""

    def __init__(self, dims: int = 256, batch_limit: int = 64):
        if dims < 8:
            raise ValueError("reference encoder needs dims >= 8")
        self.name = "reference"
        self.dims = dims
        self.batch_limit = batch_limit

    def encode_batch(self, texts: Sequence[str]) -> list[np.ndarray]:
        # One memo per call: n-grams shared across the batch hash once, and
        # nothing is kept between calls.
        codes = _GramCodes(self.dims)
        return [_hashed_features(t, codes) for t in texts]


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
