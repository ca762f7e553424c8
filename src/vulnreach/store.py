"""Persistent (block, vector) store with exact cosine top-k retrieval.

An index is two files (format 2):

- ``<name>.vrix``: a header (magic, format version, dims, count, the byte
  length of the source blob, the sha256 of the sidecar's bytes), then the
  count x dims little-endian float32 vectors, then every block's source as
  one UTF-8 blob (encoded with ``surrogatepass``, so any ``str`` round-trips);
- ``<name>.vrix.meta.json``: JSON with the dims, the count, the encoder
  fingerprint and theta of the build, the sha256 of the ``.vrix`` body
  (vectors and blob), and the block fields other than ``source`` as one
  list per field, plus ``source_offsets`` into the blob.

The two checksums chain the files: the header vouches for the sidecar and
the sidecar for the body. ``open`` checks the whole chain, so a torn file,
a pair from two builds or any altered byte raises ``IndexFormatError``. An
index of an older format is refused with a request to re-index: an index
is a cache of its project, so no old reader is kept. A block's source is
decoded when its ``CodeBlock`` is first built.

Retrieval is exact, as a missed block is a wrong "Secure". A score is the
query's float64 dot product with the row renormalized in float64: a cosine,
as every query and stored vector is unit-norm. A search estimates each score
as (v @ q) / ||v|| in one float32 BLAS pass, and scores in float64 only the
rows the estimate leaves a chance to be hits. The slack it allows the
estimate, (4*d + 16) * u with u = 2**-24 and d = dims, is over twice the
estimate's error: rounding q to float32 and summing d products in any order
(any BLAS, FMA or thread count) errs by at most gamma(d + 1) * ||v|| * ||q||,
with gamma(n) = n*u / (1 - n*u) and ||q|| <= 1 + 1e-6, and the float32 norm
by at most gamma(d)/2 + u, relatively. So the estimate is within about
(1.5*d + 3) * u of the cosine, and the float64 score within
(1.5*d + 3) * 2**-53; the rest of the slack covers rounding the bounds it is
compared with. This holds for a row whose float32 norm is in
[2**-50, 2**50], where no float32 square or product overflows and underflow
adds at most d * 2**-49; any other row is always scored in float64.
"""

from __future__ import annotations

import contextlib
import fnmatch
import hashlib
import itertools
import json
import os
import struct
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import DimsMismatch, DuplicateIdConflict, IndexFormatError
from .model import CodeBlock, EmbeddingVector

MAGIC = b"VRIX"
FORMAT_VERSION = 2
# magic, version, dims, count, source blob bytes, sha256 of the sidecar
_HEADER = struct.Struct("<4sBIIQ32s")

_CHUNK_ROWS = 64  # rows renormalized and scored at a time: the temporaries stay in cache

_NONE = type(None)
# Each block field but ``source``, as ``CodeBlock.to_dict`` writes it, with
# the types its values may have: one sidecar column each.
_FIELDS: dict[str, frozenset[type]] = {
    "id": frozenset({str}),
    "file_path": frozenset({str}),
    "line_start": frozenset({int}),
    "line_end": frozenset({int}),
    "node_kind": frozenset({str}),
    "enclosing_class": frozenset({str, _NONE}),
    "enclosing_method": frozenset({str, _NONE}),
    "size": frozenset({int}),
    "oversize": frozenset({bool}),
}


@dataclass(frozen=True)
class StoreEntry:
    block: CodeBlock
    vector: EmbeddingVector


class StoreHit(NamedTuple):
    """A search result's row and block; its score comes beside it."""

    row: int
    block: CodeBlock


@dataclass(frozen=True)
class ScopeFilter:
    """Metadata constraints for scoped retrieval; the empty filter matches
    everything."""

    class_name: str | None = None
    method_name: str | None = None
    file_glob: str | None = None

    def accepts_class(self, enclosing: str | None) -> bool:
        if self.class_name is None:
            return True
        if enclosing is None:
            return False
        # Accept either the dotted nesting path or its final component.
        return enclosing == self.class_name or enclosing.split(".")[-1] == self.class_name

    def accepts_method(self, enclosing: str | None) -> bool:
        return self.method_name is None or enclosing == self.method_name

    def accepts_file(self, file_path: str) -> bool:
        if self.file_glob is None:
            return True
        return fnmatch.fnmatchcase(file_path, self.file_glob) or (
            "/" not in self.file_glob
            and fnmatch.fnmatchcase(file_path.rsplit("/", 1)[-1], self.file_glob)
        )

    def to_dict(self) -> dict[str, Any]:
        return {name: value for name, value in vars(self).items() if value is not None}


EMPTY_SCOPE = ScopeFilter()


def _sidecar_path(path: Path) -> Path:
    return path.with_name(path.name + ".meta.json")


class VectorStore:
    """Many concurrent readers, single writer. ``insert`` changes only the
    store in memory; ``save`` is what writes an index.

    Block fields are held as one list per field. The sources of the rows
    read from disk stay in the file's UTF-8 blob; a row's ``CodeBlock`` is
    built on first access and kept. ``path``, ``encoder`` and ``theta`` are
    those of the index last opened or saved.
    """

    def __init__(self, dims: int):
        if dims <= 0:
            raise ValueError("dims must be positive")
        self.dims = dims
        self.path: Path | None = None
        self.encoder: str | None = None  # memo.encoder_fingerprint of the build
        self.theta: int | None = None
        # The float32 rows, as the runs inserts appended: an index build
        # never joins them, so its rows exist once.
        self._runs: list[np.ndarray] = [np.empty((0, dims), dtype=np.float32)]
        self._fields: dict[str, list[Any]] = {name: [] for name in _FIELDS}
        # Sources of the first len(_offsets) - 1 rows, as read from disk.
        self._blob: bytes | memoryview = b""
        self._offsets: list[int] = [0]
        self._blocks: dict[int, CodeBlock] = {}  # row -> block, built on first access
        self._row_by_id: dict[str, int] = {}
        # Each row's float32 norm, as float64; NaN where the slack does not hold.
        self._norms: np.ndarray | None = None

    # -- lifecycle ------------------------------------------------------

    @classmethod
    def open(cls, path: Path | str) -> "VectorStore":
        path = Path(path)
        data = _read_aligned(path)
        dims, count, blob_len, sidecar_sha = _read_header(path, data)
        sidecar = _sidecar_path(path)
        try:
            raw = sidecar.read_bytes()
        except FileNotFoundError as exc:
            raise IndexFormatError(f"{path}: missing metadata sidecar {sidecar}") from exc
        if hashlib.sha256(raw).digest() != sidecar_sha:
            raise IndexFormatError(
                f"{path}: metadata sidecar {sidecar} is not the one this index was written with"
            )
        try:
            meta = json.loads(raw)
        except ValueError as exc:
            raise IndexFormatError(f"{path}: unreadable metadata sidecar {sidecar}: {exc}") from exc
        fields, offsets = _check_meta(path, meta, dims, count, blob_len)
        vectors_end = _HEADER.size + 4 * dims * count
        if len(data) != vectors_end + blob_len:
            raise IndexFormatError(
                f"{path}: {len(data)} bytes where the header promises {vectors_end + blob_len}"
            )
        body = memoryview(data)[_HEADER.size :]
        if hashlib.sha256(body).hexdigest() != meta["sha256"]:
            raise IndexFormatError(f"{path}: checksum mismatch: vectors or sources were altered")
        row_by_id = dict(zip(fields["id"], range(count)))
        if len(row_by_id) != count:
            raise IndexFormatError(f"{path}: block ids are not unique")
        store = cls(dims=dims)
        store.path, store.encoder, store.theta = path, meta.get("encoder"), meta.get("theta")
        vectors = np.frombuffer(data, dtype="<f4", count=dims * count, offset=_HEADER.size)
        store._runs = [vectors.reshape(count, dims).astype(np.float32, copy=False)]
        store._fields = fields
        store._blob = memoryview(data)[vectors_end:]
        store._offsets = offsets
        store._row_by_id = row_by_id
        return store

    def save(self, path: Path | str, *, encoder: str | None, theta: int | None) -> None:
        """Write the index at ``path``, recording the encoder fingerprint and
        theta it was built with: the index file, then the sidecar, each
        atomically. A crash leaves every file either old or new, never torn,
        and a pair from two builds fails the checksum chain on open.

        The body is hashed, then written, from its parts: the float32 rows
        and each source, encoded once for the hash and again for the write.
        So neither the body nor all of the encoded sources are ever held."""
        self.path, self.encoder, self.theta = Path(path), encoder, theta
        count = self.count()
        runs = [run.astype("<f4", copy=False) for run in self._runs]
        body_sha = hashlib.sha256()
        for run in runs:
            body_sha.update(run)
        offsets = [0]
        for source in map(self._source_bytes, range(count)):
            body_sha.update(source)
            offsets.append(offsets[-1] + len(source))
        meta = {
            "format_version": FORMAT_VERSION,
            "dims": self.dims,
            "count": count,
            "encoder": self.encoder,
            "theta": self.theta,
            "sha256": body_sha.hexdigest(),
            "columns": {**self._fields, "source_offsets": offsets},
        }
        sidecar = (json.dumps(meta, sort_keys=True, separators=(",", ":")) + "\n").encode("ascii")
        header = _HEADER.pack(
            MAGIC, FORMAT_VERSION, self.dims, count, offsets[-1], hashlib.sha256(sidecar).digest()
        )
        sources = map(self._source_bytes, range(count))
        _write_atomic(self.path, itertools.chain([header, *runs], sources))
        _write_atomic(_sidecar_path(self.path), [sidecar])

    # -- data access -----------------------------------------------------

    def count(self) -> int:
        return len(self._fields["id"])

    def get(self, block_id: str) -> StoreEntry | None:
        row = self._row_by_id.get(block_id)
        if row is None:
            return None
        return self._entry_at(row)

    def entries(self) -> Iterator[StoreEntry]:
        for row in range(self.count()):
            yield self._entry_at(row)

    def blocks(self) -> list[CodeBlock]:
        """Every row's block, in row order, without its vector."""
        return [self._block_at(row) for row in range(self.count())]

    @property
    def _vectors(self) -> np.ndarray:
        """The float32 rows as one array, the runs joined on first read."""
        if len(self._runs) > 1:
            self._runs = [np.concatenate(self._runs)]
        return self._runs[0]

    def _source_bytes(self, row: int) -> bytes | memoryview:
        if row < len(self._offsets) - 1:
            return self._blob[self._offsets[row] : self._offsets[row + 1]]
        return self._blocks[row].source.encode("utf-8", "surrogatepass")

    def _entry_at(self, row: int) -> StoreEntry:
        # Renormalize in float64: float32 storage rounds the norm slightly.
        return StoreEntry(self._block_at(row), EmbeddingVector.normalized(self._vectors[row]))

    def _block_at(self, row: int) -> CodeBlock:
        block = self._blocks.get(row)
        if block is None:
            raw = {name: column[row] for name, column in self._fields.items()}
            try:
                raw["source"] = str(self._source_bytes(row), "utf-8", "surrogatepass")
                block = CodeBlock.from_dict(raw)
            except (KeyError, TypeError, ValueError) as exc:
                raise IndexFormatError(f"{self.path}: block {row} is malformed: {exc!r}") from exc
            # Parallel readers may build a row at once; all keep the first.
            block = self._blocks.setdefault(row, block)
        return block

    # -- operations --------------------------------------------------------

    def insert(self, entries: Sequence[StoreEntry]) -> int:
        """Append the entries as new rows; returns their number. An id that
        is already stored, or given twice, is a ``DuplicateIdConflict``, and
        a vector of other dims a ``DimsMismatch``: either leaves the store
        unchanged.

        The new vectors become float32 in one array, appended as a run."""
        given: set[str] = set()
        for entry in entries:
            block_id = entry.block.id
            if block_id in given or block_id in self._row_by_id:
                raise DuplicateIdConflict(f"block id {block_id} is already stored or given twice")
            given.add(block_id)
            if entry.vector.dims != self.dims:
                raise DimsMismatch(
                    f"entry {block_id} has dims {entry.vector.dims}, store has {self.dims}"
                )
        if entries:
            rows = np.array([entry.vector.values for entry in entries], dtype=np.float32)
            self._runs = [*self._runs, rows] if self.count() else [rows]
            self._norms = None
            for entry in entries:
                row = self.count()
                self._row_by_id[entry.block.id] = row
                self._blocks[row] = entry.block
                raw = entry.block.to_dict()
                for name, column in self._fields.items():
                    column.append(raw[name])
        return len(entries)

    def search(
        self,
        query: EmbeddingVector,
        k: int,
        tau: float,
        scope: ScopeFilter = EMPTY_SCOPE,
    ) -> list[tuple[StoreHit, float]]:
        """(hit, score) for each block matching scope with cosine score >=
        tau, best first. A hit carries its row and block, not its vector.

        Ties break by (file_path, line_start) ascending, then by row; at
        most k results.

        Only rows that can be hits are scored in float64. A row's float32
        estimate, where bounded, is within the slack of its score (see the
        module docstring): if it is below ``tau - slack``, so is the score.
        Among the rows in scope, if more than k are left and ``a_k`` is the
        k-th largest bounded estimate, a row whose estimate is below
        ``a_k - 2 * slack`` scores below each of k other rows, or below tau:
        it is no hit either.
        """
        if query.dims != self.dims:
            raise DimsMismatch(f"query has dims {query.dims}, store has {self.dims}")
        if not 0.0 <= tau <= 1.0:
            raise ValueError(f"tau must be in [0, 1], got {tau}")
        if k < 1:
            raise ValueError("k must be positive")
        if not self.count():
            return []
        vectors, norms = self._vectors, self._norms
        if norms is None:
            norms = np.sqrt(np.einsum("ij,ij->i", vectors, vectors)).astype(float)
            in_range = (2.0**-50 <= norms) & (norms <= 2.0**50)  # False if not finite
            norms = self._norms = np.where(in_range, norms, np.nan)
        # Each row's float32 estimate; NaN where the slack does not bound it.
        approx = vectors @ query.values.astype(np.float32) / norms
        slack = (2 * self.dims + 8) * 2.0**-23  # see the module docstring
        rows = np.flatnonzero(~(approx < tau - slack))  # NaN stays
        for name, wanted, accepts in (
            ("enclosing_class", scope.class_name, scope.accepts_class),
            ("enclosing_method", scope.method_name, scope.accepts_method),
            ("file_path", scope.file_glob, scope.accepts_file),
        ):
            if wanted is not None:
                values = list(map(self._fields[name].__getitem__, rows.tolist()))
                verdicts = {value: accepts(value) for value in set(values)}  # each tested once
                rows = rows[np.fromiter(map(verdicts.__getitem__, values), bool, len(values))]
        if len(rows) > k:
            estimates = approx[rows]
            bounded = estimates[~np.isnan(estimates)]
            if len(bounded) >= k:
                a_k = np.partition(bounded, len(bounded) - k)[len(bounded) - k]
                rows = rows[~(estimates < a_k - 2 * slack)]
        paths, lines = self._fields["file_path"], self._fields["line_start"]
        ranked = sorted(
            (-score, paths[row], lines[row], row)
            for row, score in zip(rows.tolist(), self.row_scores(query, rows).tolist())
            if score >= tau
        )
        return [(StoreHit(row, self._block_at(row)), -neg) for neg, _, _, row in ranked[:k]]

    def row_scores(
        self,
        query: EmbeddingVector | Sequence[EmbeddingVector],
        rows: Sequence[int] | np.ndarray | slice = slice(None),
    ) -> np.ndarray:
        """The score of each of ``rows`` (all by default) for ``query``, or,
        given several queries, one such array per query: the very scores
        ``search`` filters and ranks on.

        Each row is renormalized once, whatever the number of queries."""
        # Row-wise reduction instead of BLAS matmul: identical vectors must
        # produce bit-identical scores regardless of row position or of the
        # rows scored with them, or ties and read-back scores drift.
        queries = [query] if isinstance(query, EmbeddingVector) else list(query)
        vectors = self._vectors[rows]
        scores = np.empty((len(queries), len(vectors)))
        for start in range(0, len(vectors), _CHUNK_ROWS):
            chunk = slice(start, start + _CHUNK_ROWS)
            # Each row divided by its norm, computed as np.linalg.norm does.
            # An all-zero or non-finite row scores NaN, which is never a hit.
            unit = vectors[chunk].astype(np.float64)
            with np.errstate(invalid="ignore", divide="ignore"):
                unit /= np.sqrt(np.add.reduce(unit * unit, axis=1, keepdims=True))
            for out, q in zip(scores, queries):
                np.add.reduce(unit * q.values, axis=1, out=out[chunk])
        return scores[0] if isinstance(query, EmbeddingVector) else scores

    def row_of(self, block_id: str) -> int:
        """The row a stored block is at; ``KeyError`` for an unknown id."""
        return self._row_by_id[block_id]


def _read_aligned(path: Path) -> memoryview:
    """The file's bytes, placed so that the float32 rows after the header
    start on a 64-byte boundary: BLAS reads them in place, where on a
    misaligned copy numpy falls back to a loop several times slower."""
    with path.open("rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        buf = np.empty(size + 64, dtype=np.uint8)
        start = -(buf.ctypes.data + _HEADER.size) % 64
        data = memoryview(buf)[start : start + size]
        return data[: fh.readinto(data)]


def _read_header(path: Path, data: bytes | memoryview) -> tuple[int, int, int, bytes]:
    """The header's dims, count, source blob length and sidecar sha256."""
    if data[:4] != MAGIC:
        raise IndexFormatError(f"{path}: not an index file (bad magic)")
    if len(data) < 5:
        raise IndexFormatError(f"{path}: truncated index header")
    version = data[4]
    if version > FORMAT_VERSION:
        raise IndexFormatError(
            f"{path}: format version {version} is newer than supported {FORMAT_VERSION}"
        )
    if version < FORMAT_VERSION:
        raise IndexFormatError(
            f"{path}: index format version {version} is no longer read; re-index the project"
        )
    if len(data) < _HEADER.size:
        raise IndexFormatError(f"{path}: truncated index header")
    _, _, dims, count, blob_len, sidecar_sha = _HEADER.unpack_from(data)
    if dims == 0:
        raise IndexFormatError(f"{path}: dims is 0")
    return dims, count, blob_len, sidecar_sha


def _check_meta(
    path: Path, meta: Any, dims: int, count: int, blob_len: int
) -> tuple[dict[str, list[Any]], list[int]]:
    """The sidecar's block columns and source offsets, each checked against
    the header and for the types of its values."""
    if not isinstance(meta, dict) or not isinstance(meta.get("columns"), dict):
        raise IndexFormatError(f"{path}: metadata sidecar has no block columns")
    expected = {"format_version": FORMAT_VERSION, "dims": dims, "count": count}
    for key, value in expected.items():
        if meta.get(key) != value:
            raise IndexFormatError(f"{path}: sidecar {key} {meta.get(key)!r}, index has {value}")
    if not (
        isinstance(meta.get("sha256"), str)
        and isinstance(meta.get("encoder"), (str, _NONE))
        and type(meta.get("theta")) in (int, _NONE)
    ):
        raise IndexFormatError(f"{path}: sidecar lacks a checksum, encoder or theta")
    columns = meta["columns"]
    fields = {}
    for name, types in _FIELDS.items():
        column = _column(path, columns, name, count)
        if not set(map(type, column)) <= types:
            row = next(row for row, value in enumerate(column) if type(value) not in types)
            raise IndexFormatError(f"{path}: block {row} has a malformed {name}: {column[row]!r}")
        fields[name] = column
    offsets = _column(path, columns, "source_offsets", count + 1)
    if not (
        set(map(type, offsets)) == {int}
        and offsets[0] == 0
        and offsets[-1] == blob_len
        and offsets == sorted(offsets)
    ):
        raise IndexFormatError(f"{path}: source offsets do not partition the {blob_len}-byte blob")
    return fields, offsets


def _column(path: Path, columns: Mapping[str, Any], name: str, length: int) -> list[Any]:
    column = columns.get(name)
    if not isinstance(column, list):
        raise IndexFormatError(f"{path}: sidecar has no {name} column")
    if len(column) != length:
        raise IndexFormatError(f"{path}: sidecar column {name} has {len(column)} values for {length}")
    return column


def write_json(path: Path, obj: Any) -> None:
    """Write ``obj`` atomically as indented, key-sorted JSON and a newline: every report's form."""
    _write_atomic(path, [(json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8")])


def _write_atomic(path: Path, parts: Iterable[bytes | memoryview | np.ndarray]) -> None:
    """Write the bytes-like parts, in order, to a temp file in the same
    directory, then rename it into place."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with tmp.open("wb") as fh:
            for part in parts:
                fh.write(part)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise
