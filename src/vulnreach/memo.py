"""One command's answers to the questions it asks more than once.

A command repeats itself: a theta sweep parses the same files and embeds
the same block texts at every setting, and analyses re-ask the same model
questions. A ``Memo`` answers every repeat from the first answer, by
content:

- a chat question, keyed by the role and the prompt as sent, per provider;
- an embedding, keyed by the sha256 of the encoder fingerprint (name,
  remote model id, dims) and the text;
- a parsed file, keyed by its relative path and its text;
- a text's token count, keyed by the text itself: the texts counted are
  the command's own prompt parts, whose ``str`` hash is computed once per
  string object. Every chat gateway of the command packs its context
  through this one table.

The ``analyze`` and ``evaluate`` commands each build one memo and pass it
as an argument to each layer: the harness runs, ``build_index``,
``segment_project`` and every ``ChatGateway``, through whose memo the
detector embeds. ``index`` needs none: it embeds each distinct text once
by itself. A memo is dropped when its command returns; nothing is
module-global. Only the embeddings outlive a command: ``save_vectors``
writes them to one file per encoder fingerprint, and ``load_vectors`` of a
later command reads them back, bit for bit.

Entries are only ever added and each dict operation is atomic, so
concurrent callers need no lock: two first asks of one question may both
reach the provider, and both get the answer that was kept. Failures are
not kept.
"""

from __future__ import annotations

import hashlib
import json
import logging
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .embedding import EncoderProvider, embed
from .javaparse import CompilationUnit, parse_source
from .model import EmbeddingVector
from .store import _write_atomic
from .tokenizer import DEFAULT_TOKENIZER

if TYPE_CHECKING:
    from .gateway import ChatProvider, RoleKind

log = logging.getLogger(__name__)

_MAGIC = b"vulnreach-vectors 1\n"
_KEY_BYTES = 32


def encoder_fingerprint(encoder: EncoderProvider) -> str:
    """What fixes an encoder's vectors: its name, remote model id and dims."""
    return json.dumps([encoder.name, getattr(encoder, "model_id", None), encoder.dims])


def _utf8(text: str) -> bytes:
    return text.encode("utf-8", "surrogatepass")


class Memo:
    """Content-addressed chat answers, embeddings and parsed files."""

    def __init__(self) -> None:
        # Keyed by provider identity; the provider is kept so its id stays its own.
        self._answers: dict[int, tuple[ChatProvider, dict[bytes, str]]] = {}
        self._vectors: dict[str, dict[bytes, EmbeddingVector]] = {}
        self._units: dict[tuple[str, str], CompilationUnit] = {}
        self._token_counts: dict[str, int] = {}
        # Vectors each fingerprint's cache file holds, as last read or written.
        self._on_disk: dict[str, int] = {}

    def complete(self, provider: ChatProvider, prompt: str, role: RoleKind) -> str:
        """The provider's answer, asked once per (role, prompt); a reprompt
        is its own question, and each provider has its own answers."""
        _, answers = self._answers.setdefault(id(provider), (provider, {}))
        hasher = hashlib.sha256(f"{role.value}\0".encode())
        hasher.update(_utf8(prompt))
        key = hasher.digest()
        answer = answers.get(key)
        if answer is None:
            answer = answers.setdefault(key, provider.complete(prompt, role))
        return answer

    def embed(self, encoder: EncoderProvider, texts: Sequence[str]) -> list[EmbeddingVector]:
        """``embed(encoder, texts)``, sending only unseen texts, each once.

        A row of the reference encoder equals its text encoded alone, so the
        vectors are the ones a fresh run computes, bit for bit.
        """
        fingerprint = encoder_fingerprint(encoder)
        vectors = self._vectors.setdefault(fingerprint, {})
        prefix = _utf8(fingerprint) + b"\0"
        keys = [hashlib.sha256(prefix + _utf8(t)).digest() for t in texts]
        missing = {k: t for k, t in zip(keys, texts) if k not in vectors}
        if missing:
            for key, vector in zip(missing, embed(encoder, list(missing.values()))):
                vectors.setdefault(key, vector)
        return [vectors[k] for k in keys]

    def parse(self, rel_path: str, text: str) -> CompilationUnit:
        """``parse_source(rel_path, text)``'s unit, parsed once per content."""
        key = (rel_path, text)
        unit = self._units.get(key)
        if unit is None:
            unit = self._units.setdefault(key, parse_source(rel_path, text)[0])
        return unit

    def count_tokens(self, text: str) -> int:
        """``DEFAULT_TOKENIZER.count(text)``, counted once per content."""
        count = self._token_counts.get(text)
        if count is None:
            count = self._token_counts.setdefault(text, DEFAULT_TOKENIZER.count(text))
        return count

    # -- the embedding cache file ------------------------------------------------

    def load_vectors(self, cache_dir: Path | str, encoder: EncoderProvider) -> None:
        """Add the vectors saved under ``cache_dir`` for this encoder.

        A missing file adds nothing. A file that does not load (torn,
        altered, or written under another fingerprint) is logged and
        treated as empty: it costs re-embedding, never a wrong vector.
        """
        fingerprint = encoder_fingerprint(encoder)
        path = _vector_file(cache_dir, fingerprint)
        try:
            loaded = _decode(path.read_bytes(), fingerprint, encoder.dims)
        except FileNotFoundError:
            return
        except (OSError, ValueError) as exc:
            log.warning("ignoring embedding cache %s: %s", path, exc)
            return
        vectors = self._vectors.setdefault(fingerprint, {})
        for key, vector in loaded:
            vectors.setdefault(key, vector)
        self._on_disk[fingerprint] = len(loaded)

    def save_vectors(self, cache_dir: Path | str, encoder: EncoderProvider) -> None:
        """Write this encoder's vectors under ``cache_dir`` when any are new.

        The file is replaced atomically: a crash leaves the old file or
        none. Failing to write is logged; the cache only saves time.
        """
        fingerprint = encoder_fingerprint(encoder)
        vectors = self._vectors.get(fingerprint, {})
        if len(vectors) == self._on_disk.get(fingerprint, 0):
            return
        path = _vector_file(cache_dir, fingerprint)
        try:
            _write_atomic(path, _encode(fingerprint, encoder.dims, vectors))
        except OSError as exc:
            log.warning("cannot write embedding cache %s: %s", path, exc)
            return
        self._on_disk[fingerprint] = len(vectors)


def _vector_file(cache_dir: Path | str, fingerprint: str) -> Path:
    name = hashlib.sha256(_utf8(fingerprint)).hexdigest()[:24]
    return Path(cache_dir) / f"embeddings-{name}.bin"


# File layout: the magic line, one JSON header line (fingerprint, dims,
# count, sha256 of the body), then the body: count 32-byte keys followed by
# count rows of dims little-endian float64.


def _encode(
    fingerprint: str, dims: int, vectors: dict[bytes, EmbeddingVector]
) -> list[bytes | np.ndarray]:
    """The file's parts: the magic and header line, each key, each row."""
    rows = [v.values.astype("<f8", copy=False) for v in vectors.values()]
    body_sha = hashlib.sha256()
    for part in (*vectors, *rows):
        body_sha.update(part)
    header = {
        "fingerprint": fingerprint,
        "dims": dims,
        "count": len(vectors),
        "sha256": body_sha.hexdigest(),
    }
    return [_MAGIC + json.dumps(header).encode("ascii") + b"\n", *vectors, *rows]


def _decode(data: bytes, fingerprint: str, dims: int) -> list[tuple[bytes, EmbeddingVector]]:
    if not data.startswith(_MAGIC):
        raise ValueError("not an embedding cache file")
    head_end = data.find(b"\n", len(_MAGIC))
    if head_end < 0:
        raise ValueError("truncated header")
    header = json.loads(data[len(_MAGIC) : head_end])
    if not isinstance(header, dict):
        raise ValueError("malformed header")
    if header.get("fingerprint") != fingerprint or header.get("dims") != dims:
        raise ValueError("written under another encoder")
    count = header.get("count")
    body = memoryview(data)[head_end + 1 :]
    if type(count) is not int or count < 0 or len(body) != count * (_KEY_BYTES + 8 * dims):
        raise ValueError("size does not match the header")
    if hashlib.sha256(body).hexdigest() != header.get("sha256"):
        raise ValueError("checksum mismatch")
    split = count * _KEY_BYTES
    rows = np.frombuffer(body, dtype="<f8", offset=split).reshape(count, dims)
    return [
        (body[i * _KEY_BYTES : (i + 1) * _KEY_BYTES].tobytes(), EmbeddingVector(dims, row))
        for i, row in enumerate(rows)
    ]
