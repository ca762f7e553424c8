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
        if self.class_name is not None:
            enclosing = block.enclosing_class
            if enclosing is None:
                return False
            # Accept either the dotted nesting path or its final component.
            if enclosing != self.class_name and enclosing.split(".")[-1] != self.class_name:
                return False
        if self.method_name is not None and block.enclosing_method != self.method_name:
            return False
        if self.file_glob is not None:
            if not fnmatch.fnmatchcase(block.file_path, self.file_glob) and not (
                "/" not in self.file_glob
                and fnmatch.fnmatchcase(block.file_path.rsplit("/", 1)[-1], self.file_glob)
            ):
                return False
        return True

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


class VectorStore:
    """Many concurrent readers, single writer; reopening after a write gives
    read-your-writes."""

    def __init__(self, dims: int, path: Path | None = None):
        if dims <= 0:
            raise ValueError("dims must be positive")
        self.dims = dims
        self.path = path
        self._vectors = np.empty((0, dims), dtype=np.float32)
        self._blocks: list[CodeBlock] = []
        self._row_by_id: dict[str, int] = {}
        self._matrix64: np.ndarray | None = None  # renormalized scoring cache

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
        blocks = [CodeBlock.from_dict(b) for b in meta["blocks"]]
        if len(blocks) != count:
            raise IndexFormatError(
                f"{path}: sidecar has {len(blocks)} blocks for {count} records"
            )
        store = cls(dims=dims, path=path)
        store._vectors = np.array(vectors, dtype=np.float32)
        store._blocks = blocks
        store._row_by_id = {b.id: i for i, b in enumerate(blocks)}
        return store

    def save(self) -> None:
        if self.path is None:
            raise ValueError("in-memory store has no path to save to")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        header = _HEADER.pack(MAGIC, FORMAT_VERSION, self.dims, len(self._blocks))
        self.path.write_bytes(header + self._vectors.astype("<f4").tobytes())
        sidecar = _sidecar_path(self.path)
        sidecar.write_text(
            json.dumps(
                {
                    "format_version": FORMAT_VERSION,
                    "dims": self.dims,
                    "count": len(self._blocks),
                    "blocks": [b.to_dict() for b in self._blocks],
                },
                indent=2,
                sort_keys=True,
            )
            + "\n",
            encoding="utf-8",
        )

    # -- data access -----------------------------------------------------

    def count(self) -> int:
        return len(self._blocks)

    def get(self, block_id: str) -> StoreEntry | None:
        row = self._row_by_id.get(block_id)
        if row is None:
            return None
        return StoreEntry(self._blocks[row], self._vector_at(row))

    def entries(self) -> Iterator[StoreEntry]:
        for row, block in enumerate(self._blocks):
            yield StoreEntry(block, self._vector_at(row))

    def _vector_at(self, row: int) -> EmbeddingVector:
        # Renormalize in float64: float32 storage rounds the norm slightly.
        return EmbeddingVector.normalized(self._vectors[row].astype(np.float64).tolist())

    def _scoring_matrix(self) -> np.ndarray:
        """Float64 rows renormalized to exact unit length, so scores agree
        with dot products of the vectors this store exposes via entries()."""
        if self._matrix64 is None or len(self._matrix64) != len(self._blocks):
            mat = self._vectors.astype(np.float64)
            if len(mat):
                mat = mat / np.linalg.norm(mat, axis=1, keepdims=True)
            self._matrix64 = mat
        return self._matrix64

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
            incoming = np.asarray(entry.vector.values, dtype=np.float32)
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
            for block in new_blocks:
                self._row_by_id[block.id] = len(self._blocks)
                self._blocks.append(block)
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

        Ties break by (file_path, line_start) ascending; at most k results.
        """
        if query.dims != self.dims:
            raise DimsMismatch(f"query has dims {query.dims}, store has {self.dims}")
        if not 0.0 <= tau <= 1.0:
            raise ValueError(f"tau must be in [0, 1], got {tau}")
        if k < 1:
            raise ValueError("k must be positive")
        if not self._blocks:
            return []
        q = np.asarray(query.values, dtype=np.float64)
        # Row-wise reduction instead of BLAS matmul: identical vectors must
        # produce bit-identical scores regardless of row position, or the
        # (score, file, line) tie-break becomes nondeterministic.
        scores = (self._scoring_matrix() * q).sum(axis=1)
        hits: list[tuple[float, str, int, int]] = []
        for row, score in enumerate(scores):
            if score < tau:
                continue
            block = self._blocks[row]
            if not scope.matches(block):
                continue
            hits.append((float(score), block.file_path, block.line_start, row))
        hits.sort(key=lambda h: (-h[0], h[1], h[2]))
        return [
            (StoreEntry(self._blocks[row], self._vector_at(row)), score)
            for score, _, _, row in hits[:k]
        ]
