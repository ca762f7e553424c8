import functools
import gc
import hashlib
import itertools
import json
import math
import os
import struct
import tempfile
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import entry_value, insert_entries, make_block, torn_writes, write_index
from vulnreach.errors import DimsMismatch, DuplicateIdConflict, IndexFormatError
from vulnreach.embedding import unit_rows
from vulnreach.model import NodeKind
from vulnreach.store import _HEADER, EMPTY_SCOPE, ScopeFilter, StoreEntry, VectorStore

DIMS = 16

CLASSES = ["Alpha", "Beta", "Gamma", None]
METHODS = ["run", "parse", "close", None]


def unit(values) -> np.ndarray:
    return unit_rows([list(values)])[0]


def axis(i: int, dims: int = DIMS) -> np.ndarray:
    return np.eye(dims)[i]


def entry(i: int, vector: np.ndarray, **kw) -> StoreEntry:
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
    store = VectorStore(dims)
    insert_entries(store, entries)
    return store, entries


def scope_matches(scope: ScopeFilter, block) -> bool:
    """Whether ``block`` lies in ``scope``: its class, method and file each
    pass the scope's test for them."""
    return (
        scope.accepts_class(block.enclosing_class)
        and scope.accepts_method(block.enclosing_method)
        and scope.accepts_file(block.file_path)
    )


def brute_force_search(entries, query: np.ndarray, k: int, tau: float, scope: ScopeFilter):
    """Independent oracle: plain-Python dot products and an explicit sort by
    the specified comparator."""
    hits = []
    for e in entries:
        stored = [float(np.float32(v)) for v in e.vector]
        norm = math.sqrt(sum(v * v for v in stored))
        stored = [v / norm for v in stored]
        score = sum(a * b for a, b in zip(stored, query))
        if score >= tau and scope_matches(scope, e.block):
            hits.append((e.block.id, score, e.block.file_path, e.block.line_start))
    hits.sort(key=lambda h: (-h[1], h[2], h[3]))
    return hits[:k]


class TestPersistence:
    def test_insert_into_an_opened_store_leaves_its_files_untouched(self, tmp_path: Path):
        path = tmp_path / "idx.vrix"
        write_index(path, DIMS, [entry(i, axis(i)) for i in range(3)])
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        store = VectorStore.open(path)
        assert insert_entries(store, [entry(i, axis(i)) for i in range(3, 6)]) == 3
        assert store.count() == 6
        # Not a byte written, not even a temporary file.
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        assert VectorStore.open(path).count() == 3

    def test_reinsert_conflicts_and_changes_nothing(self):
        store = VectorStore(DIMS)
        entries = [entry(i, axis(i)) for i in range(3)]
        assert insert_entries(store, entries) == 3
        with pytest.raises(DuplicateIdConflict):
            insert_entries(store, [entry(3, axis(3)), *entries])
        assert store.count() == 3 and store.get(entries[0].block.id) is not None
        assert store.get(entry(3, axis(3)).block.id) is None

    @pytest.mark.parametrize("same_vector", [True, False])
    def test_an_id_given_twice_in_one_insert_conflicts_and_changes_nothing(self, same_vector):
        store = VectorStore(DIMS)
        insert_entries(store, [entry(0, axis(0))])
        first = entry(1, axis(1))
        twice = StoreEntry(first.block, axis(1) if same_vector else axis(2))
        with pytest.raises(DuplicateIdConflict):
            insert_entries(store, [first, twice])
        assert store.count() == 1 and store.get(first.block.id) is None
        assert [hit.block.id for hit, _ in store.search(axis(0), 5, 0.0)] == [entry(0, axis(0)).block.id]

    def test_create_without_entries_is_an_openable_empty_index(self, tmp_path: Path):
        path = tmp_path / "idx.vrix"
        write_index(path, DIMS, [])
        reopened = VectorStore.open(path)
        assert reopened.count() == 0 and reopened.dims == DIMS

    def test_duplicate_id_with_different_vector_conflicts(self):
        store = VectorStore(DIMS)
        first = entry(0, axis(0))
        insert_entries(store, [first])
        with pytest.raises(DuplicateIdConflict):
            insert_entries(store, [StoreEntry(first.block, axis(1))])

    def test_dims_mismatch_on_insert(self):
        store = VectorStore(64)
        with pytest.raises(DimsMismatch):
            insert_entries(store, [entry(0, axis(0, dims=32))])
        blocks = [entry(i, axis(i, dims=64)).block for i in range(2)]
        with pytest.raises(DimsMismatch):
            store.insert(blocks, [axis(0, dims=64)])  # one vector short
        assert store.count() == 0

    def test_refuses_newer_format_version(self, tmp_path: Path):
        path = tmp_path / "idx.vrix"
        write_index(path, DIMS, [entry(0, axis(0))])
        data = bytearray(path.read_bytes())
        data[4] = 99  # format version byte
        path.write_bytes(bytes(data))
        with pytest.raises(IndexFormatError):
            VectorStore.open(path)

    @pytest.mark.parametrize("crash", [OSError, KeyboardInterrupt])
    @pytest.mark.parametrize("failing_call", [1, 2], ids=["index", "sidecar"])
    def test_a_failed_rename_leaves_the_files_it_did_not_replace(
        self, tmp_path: Path, monkeypatch, crash, failing_call
    ):
        path = tmp_path / "idx.vrix"
        store = write_index(path, DIMS, [entry(i, axis(i)) for i in range(3)])
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        replace, calls = os.replace, []

        def crash_on_call(src, dst):
            calls.append(dst)
            if len(calls) == failing_call:
                raise crash("killed before the rename")
            replace(src, dst)

        insert_entries(store, [entry(3, axis(3))])
        monkeypatch.setattr(os, "replace", crash_on_call)
        with pytest.raises(crash):
            store.save(path, encoder=None, theta=None)
        monkeypatch.undo()
        after = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert sorted(after) == sorted(before)  # no temp file left behind
        if failing_call == 1:
            assert after == before
            assert VectorStore.open(path).count() == 3
        else:  # the index file is new and whole; the sidecar is the old one
            assert after[path.name] != before[path.name]
            assert after[path.name + ".meta.json"] == before[path.name + ".meta.json"]
            with pytest.raises(IndexFormatError, match="not the one"):
                VectorStore.open(path)

    def test_rejects_garbage_file(self, tmp_path: Path):
        path = tmp_path / "junk.vrix"
        path.write_bytes(b"not an index at all")
        with pytest.raises(IndexFormatError):
            VectorStore.open(path)


def reseal(path: Path) -> None:
    """Write the sidecar's sha256 into the index header, as ``save`` does, so
    an edited sidecar passes the checksum chain and ``open`` reads it."""
    data = bytearray(path.read_bytes())
    sidecar = path.with_name(path.name + ".meta.json").read_bytes()
    data[_HEADER.size - 32 : _HEADER.size] = hashlib.sha256(sidecar).digest()
    path.write_bytes(bytes(data))


def write_index_with_columns(path: Path, edit) -> Path:
    """Three-row index whose sidecar columns are passed through ``edit``,
    then resealed."""
    write_index(path, DIMS, [entry(i, axis(i)) for i in range(3)])
    sidecar = path.with_name(path.name + ".meta.json")
    meta = json.loads(sidecar.read_text())
    edit(meta["columns"])
    sidecar.write_text(json.dumps(meta))
    reseal(path)
    return path


class TestLazyBlocks:
    def test_opened_store_equals_the_store_it_saved(self, tmp_path: Path):
        entries = [entry(i, unit(range(i, i + DIMS))) for i in range(5)]
        saved = write_index(tmp_path / "idx.vrix", DIMS, entries)
        opened = VectorStore.open(tmp_path / "idx.vrix")
        assert list(map(entry_value, opened.entries())) == list(map(entry_value, saved.entries()))
        assert entry_value(opened.get(entries[3].block.id)) == entry_value(saved.get(entries[3].block.id))

    def test_resave_of_an_opened_store_writes_the_same_files(self, tmp_path: Path):
        path = tmp_path / "idx.vrix"
        write_index(path, DIMS, [entry(i, axis(i)) for i in range(3)])
        before = path.read_bytes(), path.with_name("idx.vrix.meta.json").read_bytes()
        opened = VectorStore.open(path)
        opened.save(path, encoder=opened.encoder, theta=opened.theta)
        assert (path.read_bytes(), path.with_name("idx.vrix.meta.json").read_bytes()) == before

    @pytest.mark.parametrize(
        "text", ['{"dims": 16', '{"dims": 16}', "[]"], ids=["torn", "no-blocks", "list"]
    )
    def test_garbled_sidecar_is_a_format_error(self, tmp_path: Path, text):
        path = tmp_path / "idx.vrix"
        write_index(path, DIMS, [entry(0, axis(0))])
        path.with_name("idx.vrix.meta.json").write_text(text)
        with pytest.raises(IndexFormatError, match="sidecar"):
            VectorStore.open(path)  # the checksum chain fails first
        reseal(path)
        with pytest.raises(IndexFormatError, match="sidecar"):
            VectorStore.open(path)

    def test_count_mismatch_is_a_format_error(self, tmp_path: Path):
        path = write_index_with_columns(
            tmp_path / "idx.vrix", lambda columns: [c.pop() for c in columns.values()]
        )
        with pytest.raises(IndexFormatError, match="2 values for 3"):
            VectorStore.open(path)

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda c: c["id"].__setitem__(1, None), id="no-id"),
            pytest.param(lambda c: c["file_path"].__setitem__(1, None), id="no-file_path"),
            pytest.param(lambda c: c["line_start"].__setitem__(1, None), id="no-line_start"),
            pytest.param(lambda c: c["line_start"].__setitem__(1, "4"), id="string-line_start"),
            pytest.param(lambda c: c["line_start"].__setitem__(1, True), id="bool-line_start"),
        ],
    )
    def test_block_without_a_search_field_fails_open(self, tmp_path: Path, edit):
        path = write_index_with_columns(tmp_path / "idx.vrix", edit)
        with pytest.raises(IndexFormatError, match="block 1"):
            VectorStore.open(path)

    def test_malformed_block_fails_on_first_access_naming_the_row(self, tmp_path: Path):
        path = write_index_with_columns(
            tmp_path / "idx.vrix", lambda columns: columns["node_kind"].__setitem__(2, "Nonsense")
        )
        store = VectorStore.open(path)
        assert store.count() == 3
        assert store.get(entry(0, axis(0)).block.id) is not None
        with pytest.raises(IndexFormatError, match="block 2"):
            store.get(entry(2, axis(2)).block.id)
        with pytest.raises(IndexFormatError, match="block 2"):
            store.search(axis(2), k=1, tau=0.5)


# Sources that only a lossless encoding keeps: a lone surrogate, non-BMP
# text, NUL, every line terminator, and the empty string.
_ODD_SOURCES = ["a\udc80b", "\U0001f600 caf\u00e9", "x\x00y", "l1\rl2\r\nl3\u2028", "", "int x;\n"]


def odd_entries() -> list[StoreEntry]:
    return [
        StoreEntry(
            make_block(
                file_path=f"src/{'ab'[i % 2]}/F{i}.java",
                line_start=1 + i,
                line_end=2 + i,
                source=source,
                enclosing_class=CLASSES[i % len(CLASSES)],
                enclosing_method=METHODS[i % len(METHODS)],
                size=i,
            ),
            unit(range(i + 1, i + 1 + DIMS)),
        )
        for i, source in enumerate(_ODD_SOURCES)
    ]


def view(store: VectorStore) -> tuple[list, list]:
    """Everything a reader sees: every entry, and the hits of a search."""
    hits = store.search(unit([1.0] * DIMS), k=10, tau=0.0)
    return list(map(entry_value, store.entries())), [(e.block, score) for e, score in hits]


def crash_on_rename(monkeypatch, failing_call: int) -> None:
    replace, calls = os.replace, []

    def crash(src, dst):
        calls.append(dst)
        if len(calls) == failing_call:
            raise OSError("killed before the rename")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", crash)


class TestIndexFormat:
    def test_an_index_is_two_files_with_sources_only_in_the_vrix(self, tmp_path: Path):
        entries = odd_entries()
        write_index(tmp_path / "idx.vrix", DIMS, entries, encoder='["e", null, 16]', theta=60)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["idx.vrix", "idx.vrix.meta.json"]
        meta = json.loads((tmp_path / "idx.vrix.meta.json").read_text())
        block_fields = set(entries[0].block.to_dict())
        assert set(meta["columns"]) == block_fields - {"source"} | {"source_offsets"}
        assert (meta["encoder"], meta["theta"], meta["format_version"]) == ('["e", null, 16]', 60, 2)
        blob = "".join(_ODD_SOURCES).encode("utf-8", "surrogatepass")
        assert (tmp_path / "idx.vrix").read_bytes().endswith(blob)

    def test_every_source_and_field_round_trips(self, tmp_path: Path):
        entries = odd_entries()
        saved = write_index(tmp_path / "idx.vrix", DIMS, entries, encoder="enc", theta=7)
        opened = VectorStore.open(tmp_path / "idx.vrix")
        assert [e.block.to_dict() for e in opened.entries()] == [e.block.to_dict() for e in entries]
        assert view(opened) == view(saved)
        assert (opened.encoder, opened.theta) == ("enc", 7)
        in_memory = VectorStore(DIMS)
        assert (in_memory.encoder, in_memory.theta) == (None, None)

    def test_save_records_where_and_how_the_index_was_built(self, tmp_path: Path):
        store = VectorStore(DIMS)
        insert_entries(store, odd_entries())
        store.save(str(tmp_path / "idx.vrix"), encoder="enc", theta=7)
        assert (store.path, store.encoder, store.theta) == (tmp_path / "idx.vrix", "enc", 7)
        opened = VectorStore.open(store.path)
        assert (opened.path, opened.encoder, opened.theta) == (store.path, "enc", 7)

    def test_open_decodes_a_source_only_when_its_block_is_built(self, tmp_path: Path):
        entries = odd_entries()
        write_index(tmp_path / "idx.vrix", DIMS, entries)
        store = VectorStore.open(tmp_path / "idx.vrix")
        assert store._blocks == {}
        assert store.get(entries[1].block.id).block == entries[1].block
        assert list(store._blocks) == [1]

    def test_insert_into_an_opened_store_keeps_the_old_sources(self, tmp_path: Path):
        entries = odd_entries()
        path = tmp_path / "idx.vrix"
        write_index(path, DIMS, entries[:3])
        store = VectorStore.open(path)
        insert_entries(store, entries[3:])
        store.save(path, encoder=None, theta=None)
        assert [e.block for e in VectorStore.open(path).entries()] == [e.block for e in entries]

    def test_an_opened_store_is_freed_without_the_cycle_collector(self, tmp_path: Path):
        entries = odd_entries()
        write_index(tmp_path / "idx.vrix", DIMS, entries)
        gc.disable()
        try:
            store = VectorStore.open(tmp_path / "idx.vrix")
            view(store)
            store.search(axis(0), k=3, tau=0.0, scope=ScopeFilter(class_name="Alpha"))
            ref = weakref.ref(store)
            del store
            assert ref() is None
        finally:
            gc.enable()

    def test_a_format_1_index_is_refused_with_re_index(self, tmp_path: Path):
        path = tmp_path / "idx.vrix"
        vectors = np.eye(DIMS, dtype="<f4")[:2]
        path.write_bytes(struct.pack("<4sBII", b"VRIX", 1, DIMS, 2) + vectors.tobytes())
        meta = {
            "format_version": 1,
            "dims": DIMS,
            "count": 2,
            "blocks": [entry(i, axis(i)).block.to_dict() for i in range(2)],
        }
        path.with_name("idx.vrix.meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True))
        with pytest.raises(IndexFormatError, match="re-index"):
            VectorStore.open(path)

    def test_a_truncated_index_file_names_its_size(self, tmp_path: Path):
        path = tmp_path / "idx.vrix"
        write_index(path, DIMS, odd_entries())
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(IndexFormatError, match="bytes where the header promises"):
            VectorStore.open(path)

    @pytest.mark.parametrize("swap", ["index", "sidecar"])
    def test_a_pair_from_two_builds_of_the_same_size_is_refused(self, tmp_path: Path, swap):
        for name, offset in (("one", 0), ("two", 3)):
            write_index(
                tmp_path / f"{name}.vrix", DIMS, [entry(i, axis(i + offset)) for i in range(3)]
            )
        suffix = "" if swap == "index" else ".meta.json"
        (tmp_path / f"one.vrix{suffix}").write_bytes((tmp_path / f"two.vrix{suffix}").read_bytes())
        with pytest.raises(IndexFormatError, match="not the one"):
            VectorStore.open(tmp_path / "one.vrix")

    def test_a_crash_between_the_renames_of_a_same_size_rebuild_fails_open(
        self, tmp_path: Path, monkeypatch
    ):
        path = tmp_path / "idx.vrix"
        write_index(path, DIMS, [entry(i, axis(i)) for i in range(3)])
        rebuilt = [entry(i, axis(i + 3), file_path=f"src/g{i}.java") for i in range(3)]
        crash_on_rename(monkeypatch, 2)  # the .vrix is replaced, the sidecar is not
        with pytest.raises(OSError, match="killed"):
            write_index(path, DIMS, rebuilt)
        monkeypatch.undo()
        with pytest.raises(IndexFormatError, match="not the one"):
            VectorStore.open(path)
        write_index(path, DIMS, rebuilt)  # re-indexing repairs it
        assert [e.block for e in VectorStore.open(path).entries()] == [e.block for e in rebuilt]

    def test_a_crash_before_the_first_rename_leaves_the_old_index(self, tmp_path: Path, monkeypatch):
        path = tmp_path / "idx.vrix"
        old = [entry(i, axis(i)) for i in range(3)]
        write_index(path, DIMS, old)
        crash_on_rename(monkeypatch, 1)
        with pytest.raises(OSError, match="killed"):
            write_index(path, DIMS, [entry(i, axis(i + 3)) for i in range(3)])
        monkeypatch.undo()
        assert [e.block for e in VectorStore.open(path).entries()] == [e.block for e in old]

    @pytest.mark.parametrize("old", [False, True], ids=["fresh", "rebuild"])
    def test_a_crash_mid_write_leaves_no_torn_file(self, tmp_path: Path, monkeypatch, old):
        path = tmp_path / "idx.vrix"
        if old:
            write_index(path, DIMS, [entry(i, axis(i)) for i in range(3)])
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        with torn_writes(monkeypatch), pytest.raises(KeyboardInterrupt):
            write_index(path, DIMS, odd_entries())
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda m: m["columns"]["source_offsets"].__setitem__(2, 1), id="offsets"),
            pytest.param(lambda m: m["columns"]["id"].__setitem__(2, m["columns"]["id"][0]), id="dup-id"),
            pytest.param(lambda m: m.update(dims=8), id="dims"),
            pytest.param(lambda m: m.update(theta="60"), id="theta"),
            pytest.param(lambda m: m.update(sha256="0" * 64), id="checksum"),
            pytest.param(lambda m: m["columns"].pop("oversize"), id="no-column"),
        ],
    )
    def test_a_resealed_but_inconsistent_sidecar_fails_open(self, tmp_path: Path, edit):
        path = tmp_path / "idx.vrix"
        write_index(path, DIMS, odd_entries())
        sidecar = path.with_name("idx.vrix.meta.json")
        meta = json.loads(sidecar.read_text())
        edit(meta)
        sidecar.write_text(json.dumps(meta))
        reseal(path)
        with pytest.raises(IndexFormatError):
            VectorStore.open(path)

    @settings(max_examples=400, deadline=None)
    @given(
        st.sampled_from(["idx.vrix", "idx.vrix.meta.json"]),
        st.booleans(),
        st.integers(0, 1 << 20),
        st.integers(1, 255),
    )
    def test_a_truncated_or_flipped_file_fails_open_or_reads_the_same(
        self, name, truncate, at, mask
    ):
        files, expected = pristine_index()
        with tempfile.TemporaryDirectory() as tmp:
            for file_name, data in files.items():
                Path(tmp, file_name).write_bytes(data)
            data = bytearray(files[name])
            if truncate:
                del data[at % (len(data) + 1) :]
            else:
                data[at % len(data)] ^= mask
            Path(tmp, name).write_bytes(bytes(data))
            try:
                store = VectorStore.open(Path(tmp) / "idx.vrix")
            except IndexFormatError:
                return
            assert view(store) == expected


@functools.cache
def pristine_index() -> tuple[dict[str, bytes], tuple[list, list]]:
    """One index for every example: the bytes of its two files, and what a
    reader sees of it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "idx.vrix"
        write_index(path, DIMS, odd_entries(), encoder="enc", theta=60)
        files = {name: Path(tmp, name).read_bytes() for name in ("idx.vrix", "idx.vrix.meta.json")}
        return files, view(VectorStore.open(path))


class TestSearch:
    def test_self_similarity_first_with_score_one(self):
        store = VectorStore(DIMS)
        target = unit(range(1, DIMS + 1))
        insert_entries(store, [entry(0, target), entry(1, axis(0)), entry(2, axis(1))])
        results = store.search(target, k=5, tau=0.0)
        assert results[0][0].block.id == entry(0, target).block.id
        assert results[0][1] == pytest.approx(1.0, abs=1e-6)

    def test_high_tau_filters_everything(self):
        store = VectorStore(DIMS)
        insert_entries(store, [entry(0, axis(0)), entry(1, axis(1))])
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
                assert scope_matches(scope, hit.block)

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
        store = VectorStore(DIMS)
        insert_entries(store, [entry(0, axis(0))])
        with pytest.raises(DimsMismatch):
            store.search(axis(0, dims=32), k=1, tau=0.0)

    def test_tau_bounds_checked(self):
        store = VectorStore(DIMS)
        with pytest.raises(ValueError):
            store.search(axis(0), k=1, tau=-0.1)
        with pytest.raises(ValueError):
            store.search(axis(0), k=1, tau=1.5)

    @pytest.mark.parametrize("rows", [1, 63, 64, 65, 200])
    @pytest.mark.parametrize("dims", [4, 16, 300])
    def test_scores_are_the_whole_matrix_formula_bit_for_bit(self, rows, dims):
        # The store renormalizes and scores in row chunks, and only the rows
        # a search needs; every score must be the one the whole-matrix
        # expression gives.
        rng = np.random.RandomState(rows * dims)
        store = VectorStore(dims)
        insert_entries(store, [entry(i, unit(rng.randn(dims))) for i in range(rows)])
        mat = store._vectors.astype(np.float64)
        matrix = mat / np.linalg.norm(mat, axis=1, keepdims=True)
        # Scored against each axis, a row reads back as its renormalized self.
        basis = np.eye(dims)
        assert np.array_equal(store.row_scores(basis).T, matrix)
        query = unit(rng.randn(dims))
        expected = (matrix * query).sum(axis=1)
        assert store.row_scores(query).tobytes() == expected.tobytes()
        hits = store.search(query, k=rows, tau=0.0)
        assert len(hits) == int((expected >= 0.0).sum())
        for hit, score in hits:
            assert score == expected[store._row_by_id[hit.block.id]]

    @pytest.mark.parametrize("path", [None, "idx.vrix"])
    def test_a_search_after_an_insert_sees_the_new_rows(self, tmp_path: Path, path):
        rng = np.random.RandomState(9)
        store, _ = random_store(rng, 70)
        if path is not None:
            store.save(tmp_path / path, encoder=None, theta=None)
            store = VectorStore.open(tmp_path / path)
        query = unit(rng.randn(DIMS))
        before = store.search(query, k=5, tau=0.0)
        assert all(score < 0.99 for _, score in before)
        insert_entries(store, [entry(70, query), entry(71, unit(-query))])
        after = store.search(query, k=5, tau=0.0)
        assert [hit.row for hit, _ in after] == [70] + [hit.row for hit, _ in before[:4]]
        assert after[0][1] == store.row_scores(query, [70])[0] == pytest.approx(1.0)
        assert store.search(unit(-query), k=1, tau=0.0)[0][0].row == 71

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


class TestRowScores:
    @pytest.mark.parametrize("rows", [1, 63, 64, 65, 200])
    @pytest.mark.parametrize("dims", [4, 16, 300])
    def test_any_rows_score_as_search_scores_them_bit_for_bit(self, rows, dims):
        rng = np.random.RandomState(rows * dims + 1)
        store = VectorStore(dims)
        raw = rng.randn(rows, dims)
        insert_entries(store, [entry(i, unit(raw[i])) for i in range(rows)])
        mat = store._vectors.astype(np.float64)
        query = unit(raw[0] + rng.randn(dims))  # near row 0, so the search has hits
        expected = (mat / np.linalg.norm(mat, axis=1, keepdims=True) * query).sum(axis=1)
        searched = {hit.row: score for hit, score in store.search(query, k=rows, tau=0.0)}
        subsets = [
            list(range(rows)),
            *([row] for row in range(rows)),
            rng.permutation(rows)[: rng.randint(1, rows + 1)].tolist(),
            rng.randint(0, rows, size=2 * rows).tolist(),  # repeats, any order
        ]
        assert store.row_scores(query).tobytes() == expected.tobytes()
        for subset in subsets:
            scores = store.row_scores(query, subset)
            assert scores.tobytes() == expected[subset].tobytes()
            for row, score in zip(subset, scores.tolist()):
                assert score == searched.get(row, score)
        assert searched  # some rows were compared against the search

    def test_hits_carry_their_row_and_block_and_no_vector(self, tmp_path: Path):
        rng = np.random.RandomState(5)
        store, entries = random_store(rng, 90)
        write_index(tmp_path / "idx.vrix", DIMS, entries)
        opened = VectorStore.open(tmp_path / "idx.vrix")
        query = unit(rng.randn(DIMS))
        for s in (store, opened):
            hits = s.search(query, k=20, tau=0.0)
            assert hits
            for hit, score in hits:
                assert hit.block == entries[hit.row].block
                assert s.row_of(hit.block.id) == hit.row
                assert s.row_scores(query, [hit.row]).tolist() == [score]
                assert not hasattr(hit, "vector")
        assert opened.search(query, k=20, tau=0.0) == store.search(query, k=20, tau=0.0)

    def test_several_queries_score_as_each_alone(self):
        rng = np.random.RandomState(13)
        store, _ = random_store(rng, 150)
        queries = np.array([unit(rng.randn(DIMS)) for _ in range(3)])
        for rows in (slice(None), [149, 0, 64, 0], np.array([], dtype=np.intp)):
            scores = store.row_scores(queries, rows)
            assert scores.shape == (3, len(store.row_scores(queries[0], rows)))
            for query, row in zip(queries, scores):
                assert row.tobytes() == store.row_scores(query, rows).tobytes()

    def test_row_of_an_unknown_block_raises(self):
        store = VectorStore(DIMS)
        insert_entries(store, [entry(0, axis(0))])
        with pytest.raises(KeyError):
            store.row_of("no-such-block")


class TestScopeFilter:
    def test_empty_filter_matches_everything(self):
        assert scope_matches(EMPTY_SCOPE, make_block(enclosing_class=None))

    def test_class_matches_dotted_suffix_component(self):
        block = make_block(enclosing_class="Outer.Inner")
        assert scope_matches(ScopeFilter(class_name="Inner"), block)
        assert scope_matches(ScopeFilter(class_name="Outer.Inner"), block)
        assert not scope_matches(ScopeFilter(class_name="Outer"), block)

    def test_file_glob_basename_match(self):
        block = make_block(file_path="src/main/java/A.java")
        assert scope_matches(ScopeFilter(file_glob="A.java"), block)
        assert scope_matches(ScopeFilter(file_glob="src/main/**/*.java"), block)
        assert not scope_matches(ScopeFilter(file_glob="B.java"), block)

    def test_roundtrip(self):
        scope = ScopeFilter(class_name="A", file_glob="*.java")
        assert ScopeFilter(**scope.to_dict()) == scope


# Vectors whose every component is 0, +-1 or +-0.5 have exactly unit norm in
# float32 and float64, and their dot products are exact multiples of 0.25.
# So every score is exact in any summation order: the oracle and the store
# agree bit for bit, ties are frequent and a tau of 0.25*j hits scores equal
# to tau.
_HALVES = st.lists(st.sampled_from([0.5, -0.5]), min_size=4, max_size=4)
_AXES = st.tuples(st.integers(0, 3), st.sampled_from([1.0, -1.0])).map(
    lambda a: [a[1] if i == a[0] else 0.0 for i in range(4)]
)
_EXACT_VECTORS = st.one_of(_HALVES, _AXES).map(np.array)
_ROWS = st.lists(
    st.tuples(
        _EXACT_VECTORS,
        st.sampled_from(
            ["A.java", "src/A.java", "src/b/A.java", "src/b/B.java", "lib/C.java", "src/b/c/U.java"]
        ),
        st.integers(1, 4),
        st.sampled_from([None, "A", "Inner", "Outer.Inner", "Outer.Inner.Deep", "B"]),
        st.sampled_from([None, "run", "parse"]),
    ),
    min_size=1,
    max_size=40,
)
# Each scope field is unset about half the time, so many searches keep
# enough hits to order.
_SCOPES = st.builds(
    ScopeFilter,
    class_name=st.none() | st.sampled_from(["Inner", "Outer.Inner", "Outer", "Deep", "A"]),
    method_name=st.none() | st.sampled_from(["run", "parse"]),
    file_glob=st.none()
    | st.sampled_from(["A.java", "*.java", "src/*.java", "src/**", "src/b/*.java", "*/c/*"]),
)


class TestSearchOracleProperty:
    @settings(max_examples=200, deadline=None)
    @given(
        _ROWS,
        _EXACT_VECTORS,
        st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
        st.integers(1, 45),
        _SCOPES,
    )
    def test_in_memory_and_opened_stores_match_the_oracle(self, rows, query, tau, k, scope):
        # line_end is unique per row, so ids are unique while (file, line)
        # pairs and vectors repeat across rows.
        entries = [
            StoreEntry(
                make_block(
                    file_path=path,
                    line_start=line,
                    line_end=line + row,
                    enclosing_class=cls,
                    enclosing_method=method,
                ),
                vector,
            )
            for row, (vector, path, line, cls, method) in enumerate(rows)
        ]
        expected = brute_force_search(entries, query, k, tau, scope)
        in_memory = VectorStore(4)
        insert_entries(in_memory, entries)
        with tempfile.TemporaryDirectory() as tmp:
            write_index(Path(tmp) / "idx.vrix", 4, entries)
            opened = VectorStore.open(Path(tmp) / "idx.vrix")
        for store in (in_memory, opened):
            actual = store.search(query, k=k, tau=tau, scope=scope)
            assert [(e.block.id, score) for e, score in actual] == [
                (bid, score) for bid, score, *_ in expected
            ]
            assert [e.block for e, _ in actual] == [
                next(x.block for x in entries if x.block.id == bid) for bid, *_ in expected
            ]
        assert opened.search(query, k=k, tau=tau, scope=scope) == in_memory.search(
            query, k=k, tau=tau, scope=scope
        )


def oracle_search(
    store: VectorStore, query: np.ndarray, k: int, tau: float, scope: ScopeFilter
):
    """``search`` by its definition: every row scored by ``row_scores``, then
    filtered and ordered by (-score, file_path, line_start, row). Each score
    is given by its bits."""
    scores = store.row_scores(query).tolist()
    blocks = store.blocks()
    rows = [row for row, score in enumerate(scores) if score >= tau and scope_matches(scope, blocks[row])]
    rows.sort(key=lambda row: (-scores[row], blocks[row].file_path, blocks[row].line_start))
    return [(row, scores[row].hex()) for row in rows[:k]]


def searched(store: VectorStore, query: np.ndarray, k: int, tau: float, scope: ScopeFilter):
    return [(hit.row, score.hex()) for hit, score in store.search(query, k, tau, scope)]


# Row variants: an exact repeat of its base direction, a nudge of about the
# prefilter's slack or less, a larger one, or the row scaled by a power of two
# (2**+-70 leave the float32 norm's safe range) or holding a non-finite value.
_NUDGES = st.sampled_from([0.0, 0.0, 1e-9, 1e-7, 1e-6, 1e-5, 1e-4, 1e-2])
_SCALE_EXPONENTS = st.sampled_from([0, 0, 0, 0, 40, -40, 70, -70])
_BROKEN = st.sampled_from([None] * 6 + [math.nan, math.inf, -math.inf, 0.0])


@st.composite
def _near_tie_stores(draw):
    """(dims, entries, rows, query, slack): rows near a few base directions
    (see ``_NUDGES``) and the query near the first, with the prefilter's
    slack at these dims."""
    dims = draw(st.sampled_from([2, 16, 256]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bases = rng.standard_normal((draw(st.integers(1, 3)), dims))
    rows = draw(
        st.lists(
            st.tuples(
                st.integers(0, len(bases) - 1),
                _NUDGES,
                _SCALE_EXPONENTS,
                _BROKEN,
                st.sampled_from(["A.java", "src/A.java", "src/b/B.java", "lib/C.java"]),
                st.integers(1, 3),
                st.sampled_from([None, "A", "Outer.Inner", "B"]),
                st.sampled_from([None, "run", "parse"]),
            ),
            min_size=1,
            max_size=40,
        )
    )
    vectors = np.empty((len(rows), dims))
    entries = []
    for row, (base, nudge, exponent, broken, path, line, cls, method) in enumerate(rows):
        vector = bases[base] + nudge * rng.standard_normal(dims)
        vector = vector.astype(np.float32).astype(np.float64) * 2.0**exponent
        if broken is not None:
            vector[rng.integers(dims)] = broken
        vectors[row] = vector
        entries.append(
            StoreEntry(
                make_block(
                    file_path=path,
                    line_start=line,
                    line_end=line + row,  # unique ids
                    enclosing_class=cls,
                    enclosing_method=method,
                ),
                axis(0, dims),  # not written: ``vectors`` are
            )
        )
    query = unit(bases[0] + draw(st.sampled_from([0.0, 0.01, 0.5])) * rng.standard_normal(dims))
    slack = (2 * dims + 8) * 2.0**-23
    return dims, entries, vectors, query, slack


class TestSearchIsExact:
    """The float32 prefilter and top-k bound change no hit, no score bit and
    no order: ``search`` equals ``oracle_search`` on indexes crafted so that
    rows tie, sit in the prefilter's slack band around tau or the k-th score,
    leave the float32 norm's safe range or hold a non-finite value."""

    @settings(max_examples=300, deadline=None)
    @given(
        _near_tie_stores(),
        st.integers(1, 8),
        st.sampled_from([None, 0.0, -1e-12, 1e-12, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 4.0]),
        st.integers(0, 39),
        _SCOPES | st.just(EMPTY_SCOPE),
    )
    def test_search_equals_the_whole_store_oracle(self, store, k, offset, pick, scope):
        """``offset`` places tau relative to a row's score: by 1e-12 or by
        that many slacks (None: tau is 0)."""
        dims, entries, vectors, query, slack = store
        files = whole_index_files(dims, entries, "enc", 60, vectors)
        with tempfile.TemporaryDirectory() as tmp:
            for name, data in zip(("idx.vrix", "idx.vrix.meta.json"), files):
                Path(tmp, name).write_bytes(data)
            opened = VectorStore.open(Path(tmp) / "idx.vrix")
        tau = 0.0
        if offset is not None:
            score = opened.row_scores(query, [pick % len(entries)])[0]
            if math.isfinite(score):
                tau = score + (offset if abs(offset) < 1e-6 else offset * slack)
                tau = min(1.0, max(0.0, tau))
        assert searched(opened, query, k, tau, scope) == oracle_search(opened, query, k, tau, scope)

    def test_rows_in_the_slack_band_are_rescored_and_fall_either_side(self):
        """Rows whose scores lie a fraction of a slack either side of tau pass
        the prefilter, and only those at or above tau come back."""
        dims = 16
        rng = np.random.RandomState(17)
        base = rng.randn(dims)
        store = VectorStore(dims)
        insert_entries(store, [entry(i, unit(base + 1e-6 * rng.randn(dims))) for i in range(40)])
        query = unit(base)
        scores = store.row_scores(query)
        tau = float(np.median(scores))
        slack = (2 * dims + 8) * 2.0**-23
        assert np.abs(scores - tau).max() < slack / 2  # every row is inside the band
        assert 0 < (scores >= tau).sum() < 40
        for k in (1, 5, 40):
            assert searched(store, query, k, tau, EMPTY_SCOPE) == oracle_search(
                store, query, k, tau, EMPTY_SCOPE
            )


    @pytest.mark.parametrize("bad", [0.0, math.nan, math.inf], ids=["zero", "nan", "inf"])
    def test_a_row_without_a_direction_warns_nothing_and_is_never_a_hit(
        self, tmp_path: Path, bad
    ):
        entries = [entry(i, axis(i)) for i in range(3)]
        vectors = np.eye(3, DIMS)
        vectors[1] = bad
        for name, data in zip(
            ("idx.vrix", "idx.vrix.meta.json"), whole_index_files(DIMS, entries, "enc", 60, vectors)
        ):
            (tmp_path / name).write_bytes(data)
        store = VectorStore.open(tmp_path / "idx.vrix")
        query = unit([1.0] * DIMS)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hits = store.search(query, k=3, tau=0.0)
            assert math.isnan(store.row_scores(query, [1])[0])
        assert [hit.row for hit, _ in hits] == [0, 2]


def whole_index_files(
    dims: int, entries, encoder, theta, vectors: np.ndarray | None = None
) -> tuple[bytes, bytes]:
    """The .vrix and sidecar bytes of ``entries``, each file built whole as
    one bytes object: header + vectors.tobytes() + the joined sources.

    ``vectors``, if given, are the rows written in place of the entries'
    vectors, whatever their norms and values."""
    sources = [e.block.source.encode("utf-8", "surrogatepass") for e in entries]
    if vectors is None:
        vectors = np.array([e.vector for e in entries]).reshape(len(entries), dims)
    vectors = vectors.astype("<f4")
    body = vectors.tobytes() + b"".join(sources)
    columns = {
        name: [e.block.to_dict()[name] for e in entries]
        for name in make_block().to_dict()
        if name != "source"
    }
    columns["source_offsets"] = [0, *itertools.accumulate(map(len, sources))]
    meta = {
        "format_version": 2,
        "dims": dims,
        "count": len(entries),
        "encoder": encoder,
        "theta": theta,
        "sha256": hashlib.sha256(body).hexdigest(),
        "columns": columns,
    }
    sidecar = (json.dumps(meta, sort_keys=True, separators=(",", ":")) + "\n").encode("ascii")
    header = _HEADER.pack(
        b"VRIX", 2, dims, len(entries), len(b"".join(sources)), hashlib.sha256(sidecar).digest()
    )
    return header + body, sidecar


@st.composite
def _stores(draw):
    """(dims, entries): 0 to 6 rows of 1 to 16 dims, whose sources may hold
    any code point, NUL and lone surrogates included."""
    dims = draw(st.integers(1, 16))
    component = st.floats(-4.0, 4.0, allow_nan=False).filter(lambda v: v == 0 or abs(v) > 1e-3)
    vectors = st.lists(component, min_size=dims, max_size=dims).filter(any)
    sources = st.text(st.characters(blacklist_categories=()), max_size=12)
    rows = draw(st.lists(st.tuples(vectors, sources), max_size=6))
    entries = [
        StoreEntry(
            make_block(line_start=1 + i, line_end=1 + i, source=source, size=i),
            unit(values),
        )
        for i, (values, source) in enumerate(rows)
    ]
    return dims, entries


class TestWriter:
    @settings(max_examples=150, deadline=None)
    @given(_stores(), st.integers(0, 6), st.booleans(), st.sampled_from([None, "enc"]))
    @example((1, []), 0, False, None)
    def test_the_files_equal_the_whole_file_build(self, store, split, reopen, encoder):
        """Saved from its parts, in one insert or two, into a new or an opened
        store, an index is byte for byte the file built whole."""
        dims, entries = store
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "idx.vrix"
            saved = write_index(path, dims, entries[:split], encoder=encoder, theta=60)
            target = VectorStore.open(path) if reopen else saved
            insert_entries(target, entries[split:])
            target.save(path, encoder=encoder, theta=60)
            files = path.read_bytes(), path.with_name("idx.vrix.meta.json").read_bytes()
        assert files == whole_index_files(dims, entries, encoder, 60)

    def test_create_holds_less_than_twice_its_rows_and_sources(self, tmp_path: Path):
        rows, dims = 4000, 256
        rng = np.random.RandomState(3)
        entries = [
            StoreEntry(
                make_block(line_start=1 + i, line_end=1 + i, source=f"{i:07d};" + "x" * 1016),
                unit(rng.randn(dims)),
            )
            for i in range(rows)
        ]
        floor = rows * dims * 4 + sum(len(e.block.source) for e in entries)
        tracemalloc.start()
        try:
            write_index(tmp_path / "idx.vrix", dims, entries)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * floor, f"peak {peak / floor:.2f}x the rows and sources"
