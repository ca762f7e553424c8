"""Persistent (block, vector) store with exact cosine top-k retrieval.

The on-disk format is a single binary index file (magic, format version,
dims, count, then fixed-width float32 records) plus a JSON sidecar holding
the block metadata in record order. Retrieval is an exact linear scan: at
this corpus scale (thousands of blocks) correctness beats recall trade-offs,
so there is no approximate index. Scores are dot products, valid as cosine
because every stored vector and every query is unit-norm.
"""

from __future__ import annotations

import fnmatch
import json
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from .errors import DimsMismatch, DuplicateIdConflict, IndexFormatError
from .model import CodeBlock, EmbeddingVector

MAGIC = b"VRIX"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sBII")  # magic, version, dims, count


@dataclass(frozen=True)
class StoreEntry:
    block: CodeBlock
    vector: EmbeddingVector


@dataclass(frozen=True)
class ScopeFilter:
    """Metadata constraints for scoped retrieval; the empty filter matches
    everything."""

    class_name: str | None = None
    method_name: str | None = None
    file_glob: str | None = None

    def is_empty(self) -> bool:
        return self.class_name is None and self.method_name is None and self.file_glob is None

    def matches(self, block: CodeBlock) -> bool:
        return (
            self.accepts_class(block.enclosing_class)
            and self.accepts_method(block.enclosing_method)
            and self.accepts_file(block.file_path)
        )

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
        out: dict[str, Any] = {}
        if self.class_name is not None:
            out["class_name"] = self.class_name
        if self.method_name is not None:
            out["method_name"] = self.method_name
        if self.file_glob is not None:
            out["file_glob"] = self.file_glob
        return out

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "ScopeFilter":
        return cls(
            class_name=raw.get("class_name"),
            method_name=raw.get("method_name"),
            file_glob=raw.get("file_glob"),
        )


EMPTY_SCOPE = ScopeFilter()


def _sidecar_path(path: Path) -> Path:
    return path.with_name(path.name + ".meta.json")


def _codes(values: Sequence[Any]) -> tuple[list[Any], np.ndarray]:
    """Distinct values in first-seen order, and each value's index into them."""
    index: dict[Any, int] = {}
    codes = np.fromiter((index.setdefault(v, len(index)) for v in values), np.intp, len(values))
    return list(index), codes


class _Columns:
    """The metadata a search reads, one entry per row, built once per store.

    File paths are ranked in ``str`` order, so ranks order rows as the paths
    do. A scope is tested once per distinct path, class and method.
    """

    def __init__(self, meta: Sequence[Mapping[str, Any]]):
        paths = [m["file_path"] for m in meta]
        self.paths = sorted(set(paths))
        rank = {path: i for i, path in enumerate(self.paths)}
        self.path_rank = np.fromiter(map(rank.__getitem__, paths), np.intp, len(paths))
        self.line_start = np.fromiter((m["line_start"] for m in meta), np.int64, len(meta))
        self.classes, self.class_codes = _codes([m.get("enclosing_class") for m in meta])
        self.methods, self.method_codes = _codes([m.get("enclosing_method") for m in meta])

    def scope_mask(self, scope: ScopeFilter) -> np.ndarray:
        mask = np.ones(len(self.line_start), dtype=bool)
        for distinct, codes, accepts in (
            (self.paths, self.path_rank, scope.accepts_file),
            (self.classes, self.class_codes, scope.accepts_class),
            (self.methods, self.method_codes, scope.accepts_method),
        ):
            mask &= np.fromiter(map(accepts, distinct), bool, len(distinct))[codes]
        return mask


class VectorStore:
    """Many concurrent readers, single writer; reopening after a write gives
    read-your-writes.

    Block metadata is held as one sidecar dict per row, and a row's
    ``CodeBlock`` is built from it on first access and kept.
    """

    def __init__(self, dims: int, path: Path | None = None):
        if dims <= 0:
            raise ValueError("dims must be positive")
        self.dims = dims
        self.path = path
        self._vectors = np.empty((0, dims), dtype=np.float32)
        self._meta: list[Mapping[str, Any]] = []
        self._blocks: dict[int, CodeBlock] = {}  # row -> block, built on first access
        self._row_by_id: dict[str, int] = {}
        self._matrix64: np.ndarray | None = None  # renormalized scoring cache
        self._cols: _Columns | None = None

    # -- lifecycle ------------------------------------------------------

    @classmethod
    def in_memory(cls, dims: int) -> "VectorStore":
        return cls(dims=dims)

    @classmethod
    def create(
        cls, path: Path | str, dims: int, entries: Sequence[StoreEntry] = ()
    ) -> "VectorStore":
        """New index at ``path`` holding ``entries``, written once.

        Entries are inserted before anything touches the disk, so a failed
        insert leaves no file rather than an empty index that later opens as
        a valid one.
        """
        store = cls(dims=dims)
        store.insert(list(entries))
        store.path = Path(path)
        store.save()
        return store

    @classmethod
    def open(cls, path: Path | str) -> "VectorStore":
        path = Path(path)
        data = path.read_bytes()
        if len(data) < _HEADER.size:
            raise IndexFormatError(f"{path}: truncated index header")
        magic, version, dims, count = _HEADER.unpack_from(data)
        if magic != MAGIC:
            raise IndexFormatError(f"{path}: not an index file (bad magic)")
        if version > FORMAT_VERSION:
            raise IndexFormatError(
                f"{path}: format version {version} is newer than supported {FORMAT_VERSION}"
            )
        expected = _HEADER.size + 4 * dims * count
        if len(data) < expected:
            raise IndexFormatError(f"{path}: truncated records ({len(data)} < {expected} bytes)")
        vectors = np.frombuffer(
            data, dtype="<f4", count=dims * count, offset=_HEADER.size
        ).reshape(count, dims)
        sidecar = _sidecar_path(path)
        try:
            meta = json.loads(sidecar.read_text(encoding="utf-8"))
        except FileNotFoundError as exc:
            raise IndexFormatError(f"{path}: missing metadata sidecar {sidecar}") from exc
        except ValueError as exc:
            raise IndexFormatError(f"{path}: unreadable metadata sidecar {sidecar}: {exc}") from exc
        blocks = meta.get("blocks") if isinstance(meta, dict) else None
        if not isinstance(blocks, list):
            raise IndexFormatError(f"{path}: metadata sidecar {sidecar} has no block list")
        if len(blocks) != count:
            raise IndexFormatError(
                f"{path}: sidecar has {len(blocks)} blocks for {count} records"
            )
        for row, raw in enumerate(blocks):
            # The fields every search reads; the rest are checked on first use.
            if not (
                isinstance(raw, dict)
                and isinstance(raw.get("id"), str)
                and isinstance(raw.get("file_path"), str)
                and type(raw.get("line_start")) is int
            ):
                raise IndexFormatError(
                    f"{path}: block {row} lacks a string id and file_path and an integer line_start"
                )
        store = cls(dims=dims, path=path)
        store._vectors = np.array(vectors, dtype=np.float32)
        store._meta = blocks
        store._row_by_id = {raw["id"]: row for row, raw in enumerate(blocks)}
        return store

    def save(self) -> None:
        if self.path is None:
            raise ValueError("in-memory store has no path to save to")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        header = _HEADER.pack(MAGIC, FORMAT_VERSION, self.dims, len(self._meta))
        self.path.write_bytes(header + self._vectors.astype("<f4").tobytes())
        sidecar = _sidecar_path(self.path)
        sidecar.write_text(
            json.dumps(
                {
                    "format_version": FORMAT_VERSION,
                    "dims": self.dims,
                    "count": len(self._meta),
                    "blocks": self._meta,
                },
                indent=2,
                sort_keys=True,
            )
            + "\n",
            encoding="utf-8",
        )

    # -- data access -----------------------------------------------------

    def count(self) -> int:
        return len(self._meta)

    def get(self, block_id: str) -> StoreEntry | None:
        row = self._row_by_id.get(block_id)
        if row is None:
            return None
        return self._entry_at(row)

    def entries(self) -> Iterator[StoreEntry]:
        for row in range(len(self._meta)):
            yield self._entry_at(row)

    def _entry_at(self, row: int) -> StoreEntry:
        block = self._blocks.get(row)
        if block is None:
            try:
                block = CodeBlock.from_dict(self._meta[row])
            except (KeyError, TypeError, ValueError) as exc:
                raise IndexFormatError(f"{self.path}: block {row} is malformed: {exc!r}") from exc
            # Parallel readers may build a row at once; all keep the first.
            block = self._blocks.setdefault(row, block)
        # Renormalize in float64: float32 storage rounds the norm slightly.
        return StoreEntry(block, EmbeddingVector.normalized(self._vectors[row]))

    def _scoring_matrix(self) -> np.ndarray:
        """Float64 rows renormalized to exact unit length, so scores agree
        with dot products of the vectors this store exposes via entries()."""
        if self._matrix64 is None:
            mat = self._vectors.astype(np.float64)
            if len(mat):
                mat = mat / np.linalg.norm(mat, axis=1, keepdims=True)
            self._matrix64 = mat
        return self._matrix64

    def _columns(self) -> _Columns:
        if self._cols is None:
            self._cols = _Columns(self._meta)
        return self._cols

    # -- operations --------------------------------------------------------

    def insert(self, entries: list[StoreEntry]) -> int:
        """Insert entries; idempotent on identical id+vector, conflict on a
        duplicate id with a different vector. Returns the number of new rows."""
        new_vectors: list[np.ndarray] = []
        new_blocks: list[CodeBlock] = []
        staged: dict[str, np.ndarray] = {}
        for entry in entries:
            if entry.vector.dims != self.dims:
                raise DimsMismatch(
                    f"entry {entry.block.id} has dims {entry.vector.dims}, store has {self.dims}"
                )
            incoming = entry.vector.values.astype(np.float32)
            existing_row = self._row_by_id.get(entry.block.id)
            if existing_row is not None:
                if np.array_equal(self._vectors[existing_row], incoming):
                    continue
                raise DuplicateIdConflict(
                    f"block id {entry.block.id} already stored with a different vector"
                )
            if entry.block.id in staged:
                if np.array_equal(staged[entry.block.id], incoming):
                    continue
                raise DuplicateIdConflict(
                    f"block id {entry.block.id} appears twice in one insert with different vectors"
                )
            staged[entry.block.id] = incoming
            new_vectors.append(incoming)
            new_blocks.append(entry.block)
        if new_blocks:
            self._vectors = np.vstack([self._vectors, np.array(new_vectors, dtype=np.float32)])
            self._matrix64 = None
            self._cols = None
            for block in new_blocks:
                row = len(self._meta)
                self._row_by_id[block.id] = row
                self._blocks[row] = block
                self._meta.append(block.to_dict())
            if self.path is not None:
                self.save()
        return len(new_blocks)

    def search(
        self,
        query: EmbeddingVector,
        k: int,
        tau: float,
        scope: ScopeFilter = EMPTY_SCOPE,
    ) -> list[tuple[StoreEntry, float]]:
        """Entries matching scope with cosine score >= tau, best first.

        Ties break by (file_path, line_start) ascending, then by row; at
        most k results.
        """
        if query.dims != self.dims:
            raise DimsMismatch(f"query has dims {query.dims}, store has {self.dims}")
        if not 0.0 <= tau <= 1.0:
            raise ValueError(f"tau must be in [0, 1], got {tau}")
        if k < 1:
            raise ValueError("k must be positive")
        if not self._meta:
            return []
        # Row-wise reduction instead of BLAS matmul: identical vectors must
        # produce bit-identical scores regardless of row position, or the
        # (score, file, line) tie-break becomes nondeterministic.
        scores = (self._scoring_matrix() * query.values).sum(axis=1)
        keep = scores >= tau
        cols = self._columns()
        if not scope.is_empty():
            keep &= cols.scope_mask(scope)
        rows = np.flatnonzero(keep)
        # lexsort is stable and its last key is the primary one.
        rows = rows[np.lexsort((cols.line_start[rows], cols.path_rank[rows], -scores[rows]))]
        return [(self._entry_at(row), float(scores[row])) for row in rows[:k].tolist()]
