import math
from pathlib import Path

import numpy as np
import pytest

from conftest import make_block
from vulnreach.errors import DimsMismatch, DuplicateIdConflict, IndexFormatError
from vulnreach.model import EmbeddingVector, NodeKind
from vulnreach.store import EMPTY_SCOPE, ScopeFilter, StoreEntry, VectorStore

DIMS = 16

CLASSES = ["Alpha", "Beta", "Gamma", None]
METHODS = ["run", "parse", "close", None]


def unit(values) -> EmbeddingVector:
    return EmbeddingVector.normalized(list(values))


def axis(i: int, dims: int = DIMS) -> EmbeddingVector:
    vals = [0.0] * dims
    vals[i] = 1.0
    return EmbeddingVector(dims=dims, values=tuple(vals))


def entry(i: int, vector: EmbeddingVector, **kw) -> StoreEntry:
    block = make_block(
        file_path=kw.get("file_path", f"src/f{i:03d}.java"),
        line_start=kw.get("line_start", 1 + i),
        line_end=kw.get("line_end", 2 + i),
        source=f"int x{i};\n",
        node_kind=NodeKind.FIELD_DECLARATION,
        enclosing_class=kw.get("enclosing_class", "Alpha"),
        enclosing_method=kw.get("enclosing_method"),
        size=3,
    )
    return StoreEntry(block, vector)


def random_store(rng: np.random.RandomState, n: int, dims: int = DIMS):
    """In-memory store with random unit vectors and varied scope metadata;
    one deliberate duplicate vector pair to exercise tie-breaking."""
    raw = rng.randn(n, dims)
    if n >= 2:
        raw[n - 1] = raw[0]  # exact duplicate => guaranteed score tie
    entries = []
    for i in range(n):
        vec = unit(raw[i])
        entries.append(
            entry(
                i,
                vec,
                file_path=f"src/{'ab'[i % 2]}/f{i:05d}.java",
                enclosing_class=CLASSES[i % len(CLASSES)],
                enclosing_method=METHODS[i % len(METHODS)],
            )
        )
    store = VectorStore.in_memory(dims)
    store.insert(entries)
    return store, entries


def brute_force_search(entries, query: EmbeddingVector, k: int, tau: float, scope: ScopeFilter):
    """Independent oracle: plain-Python dot products and an explicit sort by
    the specified comparator."""
    hits = []
    for e in entries:
        stored = [float(np.float32(v)) for v in e.vector.values]
        norm = math.sqrt(sum(v * v for v in stored))
        stored = [v / norm for v in stored]
        score = sum(a * b for a, b in zip(stored, query.values))
        if score >= tau and scope.matches(e.block):
            hits.append((e.block.id, score, e.block.file_path, e.block.line_start))
    hits.sort(key=lambda h: (-h[1], h[2], h[3]))
    return hits[:k]


class TestPersistence:
    def test_insert_persists_across_reopen(self, tmp_path: Path):
        path = tmp_path / "idx.vrix"
        store = VectorStore.create(path, DIMS)
        inserted = store.insert([entry(i, axis(i)) for i in range(3)])
        assert inserted == 3
        reopened = VectorStore.open(path)
        assert reopened.count() == 3
        assert {e.block.id for e in reopened.entries()} == {
            e.block.id for e in store.entries()
        }

    def test_reinsert_is_idempotent(self, tmp_path: Path):
        path = tmp_path / "idx.vrix"
        store = VectorStore.create(path, DIMS)
        entries = [entry(i, axis(i)) for i in range(3)]
        assert store.insert(entries) == 3
        assert store.insert(entries) == 0
        assert VectorStore.open(path).count() == 3

    def test_create_with_entries_writes_once(self, tmp_path: Path, monkeypatch):
        saves = []
        save = VectorStore.save
        monkeypatch.setattr(VectorStore, "save", lambda self: (saves.append(self.count()), save(self)))
        path = tmp_path / "idx.vrix"
        VectorStore.create(path, DIMS, [entry(i, axis(i)) for i in range(3)])
        assert saves == [3]
        assert VectorStore.open(path).count() == 3

    def test_create_without_entries_is_an_openable_empty_index(self, tmp_path: Path):
        path = tmp_path / "idx.vrix"
        VectorStore.create(path, DIMS, [])
        reopened = VectorStore.open(path)
        assert reopened.count() == 0 and reopened.dims == DIMS

    def test_duplicate_id_with_different_vector_conflicts(self):
        store = VectorStore.in_memory(DIMS)
        first = entry(0, axis(0))
        store.insert([first])
        with pytest.raises(DuplicateIdConflict):
            store.insert([StoreEntry(first.block, axis(1))])

    def test_dims_mismatch_on_insert(self):
        store = VectorStore.in_memory(64)
        with pytest.raises(DimsMismatch):
            store.insert([entry(0, axis(0, dims=32))])

    def test_refuses_newer_format_version(self, tmp_path: Path):
        path = tmp_path / "idx.vrix"
        store = VectorStore.create(path, DIMS)
        store.insert([entry(0, axis(0))])
        data = bytearray(path.read_bytes())
        data[4] = 99  # format version byte
        path.write_bytes(bytes(data))
        with pytest.raises(IndexFormatError):
            VectorStore.open(path)

    def test_rejects_garbage_file(self, tmp_path: Path):
        path = tmp_path / "junk.vrix"
        path.write_bytes(b"not an index at all")
        with pytest.raises(IndexFormatError):
            VectorStore.open(path)


class TestSearch:
    def test_self_similarity_first_with_score_one(self):
        store = VectorStore.in_memory(DIMS)
        target = unit(range(1, DIMS + 1))
        store.insert([entry(0, target), entry(1, axis(0)), entry(2, axis(1))])
        results = store.search(target, k=5, tau=0.0)
        assert results[0][0].block.id == entry(0, target).block.id
        assert results[0][1] == pytest.approx(1.0, abs=1e-6)

    def test_high_tau_filters_everything(self):
        store = VectorStore.in_memory(DIMS)
        store.insert([entry(0, axis(0)), entry(1, axis(1))])
        query = unit([1.0] * DIMS)
        assert store.search(query, k=5, tau=0.99) == []

    def test_scope_soundness(self):
        rng = np.random.RandomState(7)
        store, entries = random_store(rng, 200)
        query = unit(rng.randn(DIMS))
        for scope in (
            ScopeFilter(class_name="Alpha"),
            ScopeFilter(method_name="parse"),
            ScopeFilter(file_glob="src/a/*.java"),
            ScopeFilter(class_name="Beta", method_name="close"),
        ):
            for hit, _ in store.search(query, k=50, tau=0.0, scope=scope):
                assert scope.matches(hit.block)

    def test_tau_monotonicity_results_are_prefix(self):
        rng = np.random.RandomState(11)
        store, _ = random_store(rng, 300)
        query = unit(rng.randn(DIMS))
        low = store.search(query, k=50, tau=0.0)
        high = store.search(query, k=50, tau=0.2)
        low_ids = [e.block.id for e, _ in low]
        high_ids = [e.block.id for e, _ in high]
        assert high_ids == low_ids[: len(high_ids)]

    def test_query_dims_checked(self):
        store = VectorStore.in_memory(DIMS)
        store.insert([entry(0, axis(0))])
        with pytest.raises(DimsMismatch):
            store.search(axis(0, dims=32), k=1, tau=0.0)

    def test_tau_bounds_checked(self):
        store = VectorStore.in_memory(DIMS)
        with pytest.raises(ValueError):
            store.search(axis(0), k=1, tau=-0.1)
        with pytest.raises(ValueError):
            store.search(axis(0), k=1, tau=1.5)

    def test_matches_brute_force_oracle_on_random_stores(self):
        rng = np.random.RandomState(42)
        for trial in range(25):
            n = int(rng.randint(1, 400))
            store, entries = random_store(rng, n)
            query = unit(rng.randn(DIMS))
            tau = float(rng.choice([0.0, 0.1, 0.2, 0.4]))
            k = int(rng.randint(1, 20))
            scope = [
                EMPTY_SCOPE,
                ScopeFilter(class_name="Alpha"),
                ScopeFilter(file_glob="src/a/*.java"),
            ][trial % 3]
            actual = store.search(query, k=k, tau=tau, scope=scope)
            expected = brute_force_search(entries, query, k, tau, scope)
            assert [e.block.id for e, _ in actual] == [bid for bid, *_ in expected]
            for (_, score), (_, expected_score, _, _) in zip(actual, expected):
                assert score == pytest.approx(expected_score, abs=1e-9)


class TestScopeFilter:
    def test_empty_filter_matches_everything(self):
        assert EMPTY_SCOPE.matches(make_block(enclosing_class=None))

    def test_class_matches_dotted_suffix_component(self):
        block = make_block(enclosing_class="Outer.Inner")
        assert ScopeFilter(class_name="Inner").matches(block)
        assert ScopeFilter(class_name="Outer.Inner").matches(block)
        assert not ScopeFilter(class_name="Outer").matches(block)

    def test_file_glob_basename_match(self):
        block = make_block(file_path="src/main/java/A.java")
        assert ScopeFilter(file_glob="A.java").matches(block)
        assert ScopeFilter(file_glob="src/main/**/*.java").matches(block)
        assert not ScopeFilter(file_glob="B.java").matches(block)

    def test_roundtrip(self):
        scope = ScopeFilter(class_name="A", file_glob="*.java")
        assert ScopeFilter.from_dict(scope.to_dict()) == scope
