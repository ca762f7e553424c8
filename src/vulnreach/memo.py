"""One command's answers to the questions it asks more than once.

A command repeats itself: a theta sweep parses the same files and embeds
the same block texts at every setting, and analyses re-ask the same model
questions. A ``Memo`` answers every repeat from the first answer, by
content:

- a chat question, keyed by the role and the prompt as sent, per provider;
- an embedding, keyed by the sha256 of the encoder fingerprint (name,
  remote model id, dims) and the text;
- a project's source files, keyed by its root and ignore globs: the tree
  is listed and each file read once, so every later setting segments the
  same snapshot of it;
- a file's parse and its latest blocks, keyed by its relative path and its
  text, with the interval of thetas those blocks hold for: each content is
  parsed once, and segmented again only where theta crosses one of its sizes;
- the prompt library, keyed by its directory;
- a text's token count, keyed by the text itself: the texts counted are
  the command's own prompt parts, whose ``str`` hash is computed once per
  string object. Every chat gateway of the command packs its context
  through this one table.

The ``analyze`` and ``evaluate`` commands each build one memo and pass it
as an argument to each layer: the harness runs, ``build_index``,
``segment_project`` and every ``ChatGateway``, through whose memo the
detector embeds. ``index`` needs none: it reads, parses and segments
each file once, one at a time, and embeds each distinct text once by
itself. A memo is dropped when its command returns; nothing is
module-global. Only the embeddings outlive a command: ``save_vectors``
writes them to one file per encoder fingerprint, and ``load_vectors`` of a
later command reads them back, bit for bit.

Entries are only ever added, or for a segmentation replaced whole, and
each dict operation is atomic, so concurrent callers need no lock: two
first computations of one content may both run, and both get the result
that was kept. A chat question's first asker keeps a held lock as its
pending answer, which a concurrent asker waits on. Failures are not kept:
when the first ask fails, a waiter asks again.
"""

from __future__ import annotations

import hashlib
import json
import logging
import threading
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

import numpy as np

from .embedding import EncoderProvider, embed
from .javaparse import CompilationUnit, parse_source
from .model import CodeBlock, Config, EmbeddingVector
from .segmenter import read_project, segment_unit, theta_class
from .store import _write_atomic
from .tokenizer import DEFAULT_TOKENIZER

if TYPE_CHECKING:
    from .gateway import ChatProvider, PromptLibrary, RoleKind

log = logging.getLogger(__name__)

_MAGIC = b"vulnreach-vectors 1\n"
_KEY_BYTES = 32
_Pending = type(threading.Lock())


def encoder_fingerprint(encoder: EncoderProvider) -> str:
    """What fixes an encoder's vectors: its name, remote model id and dims."""
    return json.dumps([encoder.name, getattr(encoder, "model_id", None), encoder.dims])


def _utf8(text: str) -> bytes:
    return text.encode("utf-8", "surrogatepass")


class _Segmented(NamedTuple):
    """A file's parse, its blocks, and the thetas in (low, high] that cut it into them."""

    unit: CompilationUnit
    low: float
    high: float
    blocks: list[CodeBlock]
    error_blocks: list[CodeBlock]  # the Other blocks parse error regions became


class Memo:
    """Content-addressed chat answers, embeddings, source trees, parsed and
    segmented files, and prompt libraries."""

    def __init__(self) -> None:
        # Keyed by provider identity; the provider is kept so its id stays its own.
        # A question's answer, or while it is first asked a held lock.
        self._answers: dict[int, tuple[ChatProvider, dict[bytes, str | threading.Lock]]] = {}
        self._vectors: dict[str, dict[bytes, EmbeddingVector]] = {}
        self._sources: dict[tuple[Path, tuple[str, ...]], list[tuple[str, str]]] = {}
        self._segments: dict[tuple[str, str], _Segmented] = {}
        self._prompts: dict[str | None, PromptLibrary] = {}
        self._token_counts: dict[str, int] = {}
        # Vectors each fingerprint's cache file holds, as last read or written.
        self._on_disk: dict[str, int] = {}

    def complete(self, provider: ChatProvider, prompt: str, role: RoleKind) -> str:
        """The provider's answer, asked once per (role, prompt); a reprompt
        is its own question, and each provider has its own answers."""
        _, answers = self._answers.get(id(provider)) or self._answers.setdefault(id(provider), (provider, {}))
        key = hashlib.sha256(role.key_prefix + _utf8(prompt)).digest()
        answer = answers.get(key)
        if answer is None:
            pending = threading.Lock()
            pending.acquire()
            answer = answers.setdefault(key, pending)
            if answer is pending:
                try:
                    answer = answers[key] = provider.complete(prompt, role)
                finally:
                    if answer is pending:  # failed: not kept
                        del answers[key]
                    pending.release()
        if type(answer) is _Pending:
            with answer:  # another asker's: wait for its answer or its failure
                pass
            return self.complete(provider, prompt, role)
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

    def sources(self, root: Path, ignore_globs: Sequence[str]) -> list[tuple[str, str]]:
        """``read_project(root, ignore_globs)``'s (relative path, text)
        pairs, read once: later calls get the same snapshot of the tree."""
        key = (root, tuple(ignore_globs))
        sources = self._sources.get(key)
        if sources is None:
            sources = self._sources.setdefault(key, list(read_project(root, ignore_globs)))
        return sources

    def segment(
        self,
        rel_path: str,
        text: str,
        config: Config,
        on_error_block: Callable[[CodeBlock], None] | None = None,
    ) -> list[CodeBlock]:
        """``segment_unit(parse_source(rel_path, text)[0], config, on_error_block)``.

        Each content is parsed once. The file's latest blocks are reused at
        every theta of their ``theta_class``, and their error blocks passed
        to ``on_error_block`` again, so a callback sees the same blocks at
        every theta.
        """
        key = (rel_path, text)
        theta = config.theta
        done = self._segments.get(key)
        if done is None or not done.low < theta <= done.high:
            unit = parse_source(rel_path, text)[0] if done is None else done.unit
            error_blocks: list[CodeBlock] = []
            blocks = segment_unit(unit, config, error_blocks.append)
            done = _Segmented(unit, *theta_class(unit, blocks, theta), blocks, error_blocks)
            self._segments[key] = done
        if on_error_block is not None:
            for block in done.error_blocks:
                on_error_block(block)
        return list(done.blocks)

    def prompts(self, prompts_dir: str | None) -> PromptLibrary:
        """``PromptLibrary.load(prompts_dir)``, loaded once."""
        from .gateway import PromptLibrary  # here: the gateway module imports this one

        library = self._prompts.get(prompts_dir)
        if library is None:
            library = self._prompts.setdefault(prompts_dir, PromptLibrary.load(prompts_dir))
        return library

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
