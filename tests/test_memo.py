"""The per-command memo: content-addressed embeddings and parsed files, and
the embedding cache file that outlives a command. Chat answers are tested
here per provider, and otherwise through a gateway in
test_gateway.TestChatGatewayMemo."""

import hashlib
import json
import logging
import os
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import DIMS, CountingEncoder, encode_alone, torn_writes
from vulnreach import memo as memo_module
from vulnreach.embedding import ReferenceEncoder
from vulnreach.gateway import RoleKind, ScriptedChatProvider
from vulnreach.memo import Memo
from vulnreach.model import Config, EmbeddingVector
from vulnreach.segmenter import segment_unit

TEXTS = ["int a = b;", "encoder.encode(raw)", "return null;"]


def fresh_bytes(texts, dims: int = DIMS) -> list[bytes]:
    return [encode_alone(t, dims).values.tobytes() for t in texts]


class OtherModel(CountingEncoder):
    """Same name and dims as the reference encoder, another model."""

    model_id = "other-model"


def saved_cache(cache_dir: Path, encoder=None) -> Path:
    encoder = encoder or ReferenceEncoder(DIMS)
    memo = Memo()
    memo.embed(encoder, TEXTS)
    memo.save_vectors(cache_dir, encoder)
    (path,) = cache_dir.glob("embeddings-*.bin")
    return path


class TestEmbeddingMemo:
    def test_each_text_is_sent_once_and_equals_a_fresh_encoding(self):
        counting = CountingEncoder(DIMS)
        memo = Memo()
        got = memo.embed(counting, [*TEXTS, TEXTS[0]])
        again = memo.embed(counting, TEXTS)
        assert counting.texts == TEXTS
        assert got[0] is got[3] is again[0]
        assert [v.values.tobytes() for v in got] == fresh_bytes([*TEXTS, TEXTS[0]])

    @pytest.mark.parametrize("other", [CountingEncoder(64), OtherModel(DIMS)], ids=["dims", "model"])
    def test_another_fingerprint_gets_its_own_vectors(self, other):
        memo = Memo()
        counting = CountingEncoder(DIMS)
        memo.embed(counting, TEXTS)
        memo.embed(other, TEXTS)
        assert counting.texts == other.texts == TEXTS

    def test_concurrent_callers_all_get_the_kept_vector(self):
        threads, texts = 8, [f"call{k}();" for k in range(60)]
        memo = Memo()
        encoder = ReferenceEncoder(DIMS)
        start = threading.Barrier(threads, timeout=10)
        got: list[list] = [[] for _ in range(threads)]

        def ask(mine: list) -> None:
            start.wait()
            for text in texts:
                mine.extend(memo.embed(encoder, [text]))

        workers = [threading.Thread(target=ask, args=(mine,)) for mine in got]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        kept = memo.embed(encoder, texts)
        for mine in got:
            assert all(a is b for a, b in zip(mine, kept, strict=True))


class TestChatMemo:
    def test_each_provider_gets_its_own_answers(self):
        memo = Memo()
        yes, no = (
            ScriptedChatProvider(defaults={RoleKind.GRADER: answer})
            for answer in ('{"answer": "yes"}', '{"answer": "no"}')
        )
        assert memo.complete(yes, "p", RoleKind.GRADER) == '{"answer": "yes"}'
        assert memo.complete(no, "p", RoleKind.GRADER) == '{"answer": "no"}'


class TestParseMemo:
    def test_each_content_is_parsed_once(self, monkeypatch):
        parsed: list[str] = []
        parse_source = memo_module.parse_source

        def counting(rel_path, text):
            parsed.append(rel_path)
            return parse_source(rel_path, text)

        monkeypatch.setattr(memo_module, "parse_source", counting)
        memo = Memo()
        text = "class A {\n    int x;\n    void m() { x = 1; }\n}\n"
        # Split at theta 5, one block at 10,000: each theta re-segments the one parse.
        cut = {theta: memo.segment("A.java", text, Config(theta=theta)) for theta in (5, 10_000, 5)}
        assert parsed == ["A.java"]
        for theta, blocks in cut.items():
            assert blocks == segment_unit(parse_source("A.java", text)[0], Config(theta=theta))
        assert len(cut[5]) > len(cut[10_000]) == 1
        other_path = memo.segment("B.java", text, Config(theta=5))
        edited = memo.segment("A.java", text.replace("1", "2"), Config(theta=5))
        assert parsed == ["A.java", "B.java", "A.java"]
        assert {b.file_path for b in other_path} == {"B.java"} and edited != cut[5]


class TestVectorCache:
    def test_round_trip_is_bit_exact_and_sends_nothing(self, tmp_path: Path):
        saved_cache(tmp_path)
        counting = CountingEncoder(DIMS)
        memo = Memo()
        memo.load_vectors(tmp_path, counting)
        got = memo.embed(counting, TEXTS)
        assert counting.texts == []
        assert [v.values.tobytes() for v in got] == fresh_bytes(TEXTS)

    def test_only_new_vectors_rewrite_the_file(self, tmp_path: Path, monkeypatch):
        path = saved_cache(tmp_path)
        memo = Memo()
        encoder = ReferenceEncoder(DIMS)
        memo.load_vectors(tmp_path, encoder)
        memo.embed(encoder, TEXTS)
        with monkeypatch.context() as patched:
            patched.setattr(memo_module, "_write_atomic", pytest.fail)
            memo.save_vectors(tmp_path, encoder)
        memo.embed(encoder, ["x = y;"])
        memo.save_vectors(tmp_path, encoder)
        reread = Memo()
        counting = CountingEncoder(DIMS)
        reread.load_vectors(tmp_path, counting)
        reread.embed(counting, [*TEXTS, "x = y;"])
        assert counting.texts == [] and list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("other", [ReferenceEncoder(64), OtherModel(DIMS)], ids=["dims", "model"])
    def test_a_file_of_another_fingerprint_is_never_read(self, tmp_path: Path, other, caplog):
        theirs = saved_cache(tmp_path / "theirs", other)
        counting = CountingEncoder(DIMS)
        saved_cache(tmp_path / "ours")
        (ours,) = (tmp_path / "ours").glob("embeddings-*.bin")
        assert ours.name != theirs.name
        # Even under this encoder's file name, the other file is refused.
        ours.write_bytes(theirs.read_bytes())
        memo = Memo()
        with caplog.at_level(logging.WARNING, logger="vulnreach.memo"):
            memo.load_vectors(tmp_path / "ours", counting)
        assert "another encoder" in caplog.text
        got = memo.embed(counting, TEXTS)
        assert counting.texts == TEXTS
        assert [v.values.tobytes() for v in got] == fresh_bytes(TEXTS)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_a_torn_or_flipped_file_costs_re_embedding_never_a_wrong_vector(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = saved_cache(Path(tmp))
            good = path.read_bytes()
            at = data.draw(st.integers(0, len(good) - 1), label="offset")
            if data.draw(st.booleans(), label="truncate"):
                damaged = good[:at]
            else:
                bit = data.draw(st.integers(0, 7), label="bit")
                damaged = good[:at] + bytes([good[at] ^ (1 << bit)]) + good[at + 1 :]
            path.write_bytes(damaged)
            counting = CountingEncoder(DIMS)
            memo = Memo()
            memo.load_vectors(Path(tmp), counting)
            got = memo.embed(counting, TEXTS)
            assert counting.texts == TEXTS
            assert [v.values.tobytes() for v in got] == fresh_bytes(TEXTS)

    @pytest.mark.parametrize("crash", [KeyboardInterrupt, OSError])
    def test_a_crash_before_the_rename_leaves_the_old_file(self, tmp_path: Path, monkeypatch, crash):
        path = saved_cache(tmp_path)
        old = path.read_bytes()
        encoder = ReferenceEncoder(DIMS)
        memo = Memo()
        memo.load_vectors(tmp_path, encoder)
        memo.embed(encoder, ["x = y;"])

        def killed(src, dst):
            raise crash("killed before the rename")

        with monkeypatch.context() as patched:
            patched.setattr(os, "replace", killed)
            if crash is OSError:
                memo.save_vectors(tmp_path, encoder)  # logged: the cache only saves time
            else:
                with pytest.raises(crash):
                    memo.save_vectors(tmp_path, encoder)
        assert path.read_bytes() == old
        assert list(tmp_path.iterdir()) == [path]  # the temp file is gone

    def test_a_crash_mid_write_leaves_no_file(self, tmp_path: Path, monkeypatch):
        encoder = ReferenceEncoder(DIMS)
        memo = Memo()
        memo.embed(encoder, TEXTS)
        with torn_writes(monkeypatch), pytest.raises(KeyboardInterrupt):
            memo.save_vectors(tmp_path, encoder)
        assert list(tmp_path.iterdir()) == []


def whole_cache_file(fingerprint: str, dims: int, vectors: dict) -> bytes:
    """The embedding cache file built whole as one bytes object: magic,
    header line, then the keys and rows.tobytes()."""
    rows = np.array([v.values for v in vectors.values()], dtype="<f8").reshape(len(vectors), dims)
    body = b"".join(vectors) + rows.tobytes()
    header = {
        "fingerprint": fingerprint,
        "dims": dims,
        "count": len(vectors),
        "sha256": hashlib.sha256(body).hexdigest(),
    }
    return b"vulnreach-vectors 1\n" + json.dumps(header).encode("ascii") + b"\n" + body


@st.composite
def _caches(draw):
    """(dims, vectors): 0 to 6 rows of 1 to 16 dims under distinct keys."""
    dims = draw(st.integers(1, 16))
    component = st.floats(-4.0, 4.0, allow_nan=False).filter(lambda v: v == 0 or abs(v) > 1e-3)
    vector = st.lists(component, min_size=dims, max_size=dims).filter(any)
    keys = draw(st.lists(st.binary(min_size=32, max_size=32), max_size=6, unique=True))
    return dims, {key: EmbeddingVector.normalized(draw(vector)) for key in keys}


class TestCacheWriter:
    @settings(max_examples=150, deadline=None)
    @given(_caches(), st.text(st.characters(blacklist_categories=()), max_size=8))
    @example((1, {}), "")
    def test_the_file_equals_the_whole_file_build_and_reads_back(self, cache, fingerprint):
        dims, vectors = cache
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "embeddings.bin"
            memo_module._write_atomic(path, memo_module._encode(fingerprint, dims, vectors))
            data = path.read_bytes()
        assert data == whole_cache_file(fingerprint, dims, vectors)
        assert memo_module._decode(data, fingerprint, dims) == list(vectors.items())


class TestChatKey:
    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(list(RoleKind)), st.text(st.characters(blacklist_categories=())))
    def test_a_question_is_keyed_by_the_sha256_of_role_nul_and_prompt(self, role, prompt):
        memo = Memo()
        provider = ScriptedChatProvider(defaults={role: "answer"})
        assert memo.complete(provider, prompt, role) == "answer"
        (answers,) = (answers for _, answers in memo._answers.values())
        joined = f"{role.value}\0{prompt}".encode("utf-8", "surrogatepass")
        assert list(answers) == [hashlib.sha256(joined).digest()]
