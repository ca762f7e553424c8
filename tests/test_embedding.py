import contextlib
import hashlib
import json
import math
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import LOOPBACK_KEY_ENV, Reply, encode_alone
from vulnreach import embedding
from vulnreach.embedding import (
    ReferenceEncoder,
    RemoteEncoderProvider,
    _gram_codes,
    _group,
    _lexical_normalize,
    call_with_retry,
    embed,
)
from vulnreach.errors import EmptyText, ProviderError
from vulnreach.gateway import RemoteChatProvider, RoleKind

# Pairwise cosines of the three fixture snippets below under the reference
# encoder at dims=64, frozen from the first verified run.
GOLDEN_LOOP_STREAM = 0.336397729351
GOLDEN_LOOP_UNRELATED = -0.204477345105
GOLDEN_STREAM_UNRELATED = -0.011303946105

LOOP_SUM = "for (int i = 0; i < values.length; i++) { total += values[i]; }"
STREAM_SUM = "int total = Arrays.stream(values).sum();"
UNRELATED = 'return "unrelated banner text";'
DIMS = 256




def per_occurrence_features(text: str, dims: int) -> np.ndarray:
    """Reference for the encoder kernel: one hash and one signed add per
    n-gram occurrence, in text order (the encoder's original loop)."""
    normalized = _lexical_normalize(text)
    grams: list[str] = []
    for n in (3, 4, 5):
        if len(normalized) >= n:
            grams.extend(normalized[i : i + n] for i in range(len(normalized) - n + 1))
    if not grams:
        grams = [normalized]
    acc = np.zeros(dims, dtype=np.float64)
    for gram in grams:
        digest = hashlib.blake2b(gram.encode("utf-8", "surrogatepass"), digest_size=8).digest()
        h = int.from_bytes(digest, "little")
        sign = 1.0 if (h >> 63) & 1 == 0 else -1.0
        acc[h % dims] += sign
    if not acc.any():
        digest = hashlib.blake2b(normalized.encode("utf-8", "surrogatepass"), digest_size=8).digest()
        acc[int.from_bytes(digest, "little") % dims] = 1.0
    return acc


def recording(hashed: list[str]):
    """``_gram_codes`` that first appends each gram it is given to ``hashed``."""
    return lambda grams, dims: hashed.extend(grams) or _gram_codes(grams, dims)


def bits(rows) -> bytes:
    # Compare float64 bit patterns, so -0.0 vs 0.0 would count as a difference.
    return np.asarray(rows, dtype=np.float64).tobytes()


_TEXT_PIECES = st.one_of(
    st.text(max_size=30),
    st.text(alphabet=" \t\n\r\x0b\x0c\u00a0\u2003", min_size=1, max_size=5),
    st.text(max_size=2),
    st.sampled_from(["for (int i", "i++)", "ab", "abab", "İ", "ß"]),
)
_TEXTS = st.lists(_TEXT_PIECES, max_size=5).map("".join)
# Batches sampled from a small pool, so they repeat texts and share n-grams.
_BATCHES = st.lists(_TEXTS, min_size=1, max_size=5).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=8)
)


class TestEncoderKernel:
    @settings(max_examples=150, deadline=None)
    @given(_BATCHES)
    def test_batch_matches_per_occurrence_reference(self, texts):
        for dims in (8, 13, 256):
            encoder = ReferenceEncoder(dims)
            batch = encoder.encode_batch(texts)
            assert bits(batch) == bits([per_occurrence_features(t, dims) for t in texts])
            for text, row in zip(texts, batch):
                assert bits(encoder.encode_batch([text])) == bits([row])

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_BATCHES, min_size=1, max_size=4))
    def test_one_encoder_across_batches_equals_a_fresh_encoder_per_text(self, batches):
        for dims in (8, 13, 256):
            encoder = ReferenceEncoder(dims)
            for batch in batches:
                fresh = [ReferenceEncoder(dims).encode_batch([text])[0] for text in batch]
                assert bits(encoder.encode_batch(batch)) == bits(fresh)

    def test_each_ngram_is_hashed_once_per_encoder(self, monkeypatch):
        hashed: list[str] = []
        monkeypatch.setattr(embedding, "_gram_codes", recording(hashed))
        encoder = ReferenceEncoder(DIMS)
        first = encoder.encode_batch([LOOP_SUM, STREAM_SUM])
        assert hashed and len(hashed) == len(set(hashed))
        hashed.clear()
        again = encoder.encode_batch([STREAM_SUM, LOOP_SUM])
        assert hashed == [] and bits(again) == bits(first[::-1])

    def test_the_code_table_stays_under_its_cap(self, monkeypatch):
        monkeypatch.setattr(embedding, "_MAX_CODES", 100)
        encoder = ReferenceEncoder(DIMS)
        seen: set[str] = set()
        for k in range(40):
            # Distinct texts, in short batches and, every other time, in
            # batches longer than one pass.
            batch = [f"int v{k}_{j} = f{k * 31 + j}(x{j});" * (1 + 60 * (k % 2)) for j in range(3)]
            rows = encoder.encode_batch(batch)
            assert len(encoder._packed.codes) <= 100
            assert bits(rows) == bits([per_occurrence_features(t, DIMS) for t in batch])
            seen.update(
                t[i : i + n] for t in map(_lexical_normalize, batch) for n in (3, 4, 5) for i in range(len(t))
            )
        assert len(seen) > 10 * 100  # the table was emptied many times
        # A short batch and a long one, each of more distinct grams than the
        # table holds.
        for batch in (["x" + "".join(map(chr, range(200, 330)))], [f"w{k} " * 9 for k in range(400)]):
            normalized = [_lexical_normalize(t) for t in batch]
            grams = {t[i : i + n] for t in normalized for n in (3, 4, 5) for i in range(len(t) - n + 1)}
            assert len(grams) > 100
            rows = encoder.encode_batch(batch)
            assert len(encoder._packed.codes) <= 100
            assert bits(rows) == bits([per_occurrence_features(t, DIMS) for t in batch])

    def test_threads_sharing_an_encoder_get_each_text_alone(self):
        # Overlapping batches long enough for the numpy pass, pushed by four
        # threads at once: a pass may drop another's additions to the
        # shared table, never change a row.
        encoder = ReferenceEncoder(DIMS)
        texts = [f"int v{k} = f{k % 7}(x{k % 5}) + {LOOP_SUM}" * 20 for k in range(12)] + [STREAM_SUM * 40]
        batches = [[texts[(start + j) % len(texts)] for j in range(5)] for start in range(0, 40, 3)]
        barrier = threading.Barrier(4, timeout=60)

        def push(worker: int) -> list[bytes]:
            barrier.wait()
            return [bits(encoder.encode_batch(batch)) for batch in batches[worker::4] * 3]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(4) as executor:
                pushed = list(executor.map(push, range(4), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for worker, results in enumerate(pushed):
            for batch, got in zip(batches[worker::4] * 3, results):
                assert got == bits([per_occurrence_features(t, DIMS) for t in batch])

    def test_short_and_cancelling_texts_match_reference(self):
        # At dims=8 the six signed n-grams of "aaagc" cancel to all zeros, so
        # its one +1 comes from the single-bucket fallback (six signs cannot
        # sum to an odd total).
        fallback = per_occurrence_features("aaagc", 8)
        assert np.count_nonzero(fallback) == 1 and fallback.sum() == 1.0
        texts = ["", "a", "ab", " a ", "abc", "aaagc", "abab" * 40, "  x\t\ny  "]
        for dims in (8, 13, 256):
            assert bits(ReferenceEncoder(dims).encode_batch(texts)) == bits(
                [per_occurrence_features(t, dims) for t in texts]
            )


# Characters the joined-array pass must treat like any other: NUL, lone
# surrogates, non-BMP code points (one str index, one UTF-32 unit each),
# upper case (U+0130 lowers to two characters), and whitespace.
_ODD_TEXTS = st.text(
    alphabet=st.sampled_from(
        ["a", "b", "c", "g", "x", "A", " ", "\t", "\x00", "\ud800", "\udfff", "\U0001d518", "\U0010ffff",
         "\u0130", "\u00df"]
    ),
    max_size=40,
)
_ODD_BATCHES = st.lists(_ODD_TEXTS, min_size=1, max_size=12)


class TestBatchPass:
    """The numpy pass of ``encode_batch``, with its per-pass budget lowered
    to a few dozen characters so that a batch spans several passes."""

    @staticmethod
    @contextlib.contextmanager
    def numpy_pass(budget: int):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(embedding, "_PASS_CHARS", budget)
            yield patch

    @settings(max_examples=200, deadline=None)
    @given(_ODD_BATCHES, st.integers(1, 48))
    def test_rows_match_per_occurrence_reference(self, texts, budget):
        with self.numpy_pass(budget):
            for dims in (8, 13, 256):
                rows = ReferenceEncoder(dims).encode_batch(texts)
                assert bits(rows) == bits([per_occurrence_features(t, dims) for t in texts])

    def test_edge_cases_match_per_occurrence_reference(self):
        long_text = "for (int i = 0; i < n; i++) { total += \x00values[i]; } \U0001d518" * 3
        texts = [
            "", "a", "ab", "abc", "abcd", " a b ", "aaagc", "\x00\x00\x00", "a\x00b\x00c",
            "\ud800\udfff\ud800x", "\U0001d518\U0001d518\U0001d518\U0001d518", long_text, "ab", "xyz",
        ]
        assert per_occurrence_features("aaagc", 8).sum() == 1.0  # cancels to the fallback
        with self.numpy_pass(24):
            for dims in (8, 13, 256):
                rows = ReferenceEncoder(dims).encode_batch(texts)
                assert bits(rows) == bits([per_occurrence_features(t, dims) for t in texts])

    @settings(max_examples=100, deadline=None)
    @given(_ODD_BATCHES, st.integers(1, 48))
    def test_passes_hold_whole_texts_within_the_budget(self, texts, budget):
        runs: list[list[str]] = []
        with self.numpy_pass(budget) as patch:
            original = embedding._pass_features
            patch.setattr(
                embedding, "_pass_features", lambda run, encoder: runs.append(list(run)) or original(run, encoder)
            )
            ReferenceEncoder(8).encode_batch(texts)
        assert [t for run in runs for t in run] == [_lexical_normalize(t) for t in texts]
        for run in runs:
            assert len(run) == 1 or sum(map(len, run)) <= budget

    @settings(max_examples=100, deadline=None)
    @given(_ODD_BATCHES, st.integers(1, 48))
    def test_no_gram_spanning_two_texts_is_hashed(self, texts, budget):
        hashed: list[str] = []
        with self.numpy_pass(budget) as patch:
            patch.setattr(embedding, "_gram_codes", recording(hashed))
            ReferenceEncoder(13).encode_batch(texts)
        normalized = [_lexical_normalize(t) for t in texts]
        for gram in hashed:
            assert any(gram in text for text in normalized), gram

    def test_each_ngram_is_hashed_once_across_passes(self, monkeypatch):
        hashed: list[str] = []
        monkeypatch.setattr(embedding, "_gram_codes", recording(hashed))
        with self.numpy_pass(40):
            encoder = ReferenceEncoder(DIMS)
            first = encoder.encode_batch([LOOP_SUM, STREAM_SUM, UNRELATED, LOOP_SUM])
            assert hashed and len(hashed) == len(set(hashed))
            hashed.clear()
            again = encoder.encode_batch([UNRELATED, STREAM_SUM, LOOP_SUM])
        assert hashed == [] and bits(again) == bits([first[2], first[1], first[0]])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_ODD_BATCHES, min_size=1, max_size=4), st.integers(1, 48))
    def test_one_encoder_across_batches_equals_each_text_alone(self, batches, budget):
        with self.numpy_pass(budget):
            for dims in (8, 13, 256):
                encoder = ReferenceEncoder(dims)
                for batch in batches:
                    alone = [per_occurrence_features(text, dims) for text in batch]
                    assert bits(encoder.encode_batch(batch)) == bits(alone)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_ODD_BATCHES, min_size=1, max_size=4), st.integers(1, 48))
    def test_keys_grouped_by_np_unique_give_the_same_rows(self, batches, budget):
        # Every key of every size, 4- and 5-gram keys included, grouped as
        # ``_group`` groups keys too wide for its value sort.
        with self.numpy_pass(budget) as patch:
            patch.setattr(embedding, "_group", lambda keys: np.unique(keys, return_index=True, return_inverse=True))
            for dims in (8, 13, 256):
                encoder = ReferenceEncoder(dims)
                for batch in batches:
                    alone = [per_occurrence_features(text, dims) for text in batch]
                    assert bits(encoder.encode_batch(batch)) == bits(alone)

    def test_a_short_batch_gives_its_rows_inside_a_long_batch(self):
        short = [LOOP_SUM, "ab", STREAM_SUM, UNRELATED, "x"]
        long = [LOOP_SUM * 40, *short, STREAM_SUM * 40]
        alone = bits([per_occurrence_features(t, DIMS) for t in short])
        warm = ReferenceEncoder(DIMS)
        assert bits(warm.encode_batch(long)[1:-1]) == alone
        assert bits(warm.encode_batch(short)) == alone
        assert bits(ReferenceEncoder(DIMS).encode_batch(short)) == alone


class TestGroup:
    """``_group`` is ``np.unique(keys, return_inverse=True)`` plus the
    position of each distinct key's first occurrence."""

    # Keys of up to ``bits`` bits: narrow keys share 63 bits with their
    # positions and take the value sort, keys of 55 bits and more take
    # ``np.unique`` (300 positions need 9 bits). The last two examples sit
    # on either side of that line: 62 + 1 bits sort, 63 + 1 do not.
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 63).flatmap(lambda bits: st.lists(st.integers(0, (1 << bits) - 1), max_size=300)))
    @example([])
    @example([5])
    @example([3, 1, 3, 0, 1, 3])
    @example([(1 << 63) - 1, 0, (1 << 63) - 1, 1 << 62])
    @example([(1 << 62) - 1, 0])
    @example([1 << 62, 0])
    def test_equals_np_unique_and_first_positions(self, keys):
        keys = np.array(keys, np.int64)
        distinct, first, inverse = _group(keys)
        expected_distinct, expected_inverse = np.unique(keys, return_inverse=True)
        assert distinct.tolist() == expected_distinct.tolist()
        assert inverse.tolist() == expected_inverse.tolist()
        assert first.tolist() == [keys.tolist().index(key) for key in expected_distinct.tolist()]


def encode(text: str, dims: int) -> np.ndarray:
    """One text through ``embed``, the path the program calls."""
    return embed(ReferenceEncoder(dims), [text])[0]


class TestReferenceEncode:
    def test_unit_norm(self):
        vec = encode("int x = 0;", 64)
        assert math.isclose(math.sqrt(sum(v * v for v in vec)), 1.0, abs_tol=1e-9)

    def test_deterministic(self):
        assert encode("int x = 0;", 64).tobytes() == encode("int x = 0;", 64).tobytes()

    def test_whitespace_collapsed(self):
        assert encode("int  x =\t0;   ", 64).tobytes() == encode("int x = 0;", 64).tobytes()

    def test_case_folded(self):
        assert encode("Foo.BAR", 64).tobytes() == encode("foo.bar", 64).tobytes()

    def test_short_text_still_encodes(self):
        vec = encode("ab", 64)
        assert math.isclose(math.sqrt(sum(v * v for v in vec)), 1.0, abs_tol=1e-9)

    def test_blank_text_rejected(self):
        with pytest.raises(EmptyText):
            encode("   ", 64)

    def test_dims_floor(self):
        with pytest.raises(ValueError):
            encode("x", 4)

    def test_semantically_overlapping_snippets_score_higher(self):
        # Brute-force oracle: all three pairwise encodings computed directly.
        a = encode("a.encode(pwd)", 256)
        b = encode("a.encode(password)", 256)
        c = encode("return 42;", 256)
        assert a.dot(b) == pytest.approx(0.599886610601, abs=1e-9)
        assert a.dot(c) == pytest.approx(0.039840953644, abs=1e-9)
        assert a.dot(b) > a.dot(c)

    def test_golden_pairwise_values_for_summation_snippets(self):
        loop = encode(LOOP_SUM, 64)
        stream = encode(STREAM_SUM, 64)
        unrelated = encode(UNRELATED, 64)
        assert loop.dot(stream) == pytest.approx(GOLDEN_LOOP_STREAM, abs=1e-9)
        assert loop.dot(unrelated) == pytest.approx(GOLDEN_LOOP_UNRELATED, abs=1e-9)
        assert stream.dot(unrelated) == pytest.approx(GOLDEN_STREAM_UNRELATED, abs=1e-9)
        assert loop.dot(stream) > loop.dot(unrelated)
        assert loop.dot(stream) > stream.dot(unrelated)

    def test_self_cosine_is_one(self):
        vec = encode(LOOP_SUM, 64)
        assert vec.dot(vec) == pytest.approx(1.0, abs=1e-9)

    def test_cosine_symmetry(self):
        a = encode(LOOP_SUM, 64)
        b = encode(STREAM_SUM, 64)
        assert a.dot(b) == pytest.approx(b.dot(a), abs=1e-12)


class TestEmbed:
    def test_identical_calls_identical_vectors(self, encoder):
        first = embed(encoder, ["int x = 0;"])
        second = embed(encoder, ["int x = 0;"])
        assert first.tobytes() == second.tobytes()

    def test_order_preserving_and_one_vector_per_text(self, encoder):
        texts = ["alpha();", "beta();", "gamma();"]
        vectors = embed(encoder, texts)
        assert vectors.shape == (3, encoder.dims) and not vectors.flags.writeable
        assert vectors[0].tobytes() == embed(encoder, ["alpha();"])[0].tobytes()
        assert vectors[2].tobytes() == embed(encoder, ["gamma();"])[0].tobytes()

    def test_empty_list_rejected(self, encoder):
        with pytest.raises(EmptyText):
            embed(encoder, [])

    def test_blank_text_rejected(self, encoder):
        with pytest.raises(EmptyText):
            embed(encoder, ["int x;", "   "])

    @settings(max_examples=25, deadline=None)
    @given(st.permutations(["a();", "b();", "c();", "d();"]))
    def test_permutation_equivariance(self, perm):
        encoder = ReferenceEncoder(dims=64)
        base = {t: v for t, v in zip(perm, embed(encoder, list(perm)))}
        for text, vec in base.items():
            assert embed(encoder, [text])[0].tobytes() == vec.tobytes()

    def test_batching_respects_batch_limit(self):
        calls: list[int] = []

        class CountingEncoder:
            name = "counting"
            dims = 64
            batch_limit = 2

            def encode_batch(self, texts):
                calls.append(len(texts))
                return [encode_alone(t, 64) for t in texts]

        vectors = embed(CountingEncoder(), ["a();", "b();", "c();", "d();", "e();"])
        assert len(vectors) == 5
        assert calls == [2, 2, 1]

    def test_normalization_applied_to_provider_output(self):
        class Denormalized:
            name = "denorm"
            dims = 4
            batch_limit = 8

            def encode_batch(self, texts):
                return [[2.0, 0.0, 0.0, 0.0] for _ in texts]

        vec = embed(Denormalized(), ["x"])[0]
        assert vec.tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_retry_then_success(self, monkeypatch):
        sleeps: list[float] = []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        attempts = {"n": 0}

        class Flaky:
            name = "flaky"
            dims = 16
            batch_limit = 8

            def encode_batch(self, texts):
                attempts["n"] += 1
                if attempts["n"] < 3:
                    raise ProviderError("temporary", status=503)
                return [encode_alone(t, 16) for t in texts]

        vectors = embed(Flaky(), ["x();"])
        assert attempts["n"] == 3 and len(vectors) == 1 and sleeps == [0.5, 1.0]

    def test_retries_exhausted_surfaces_provider_error(self, monkeypatch):
        sleeps: list[float] = []
        monkeypatch.setattr(time, "sleep", sleeps.append)

        class Dead:
            name = "dead"
            dims = 16
            batch_limit = 8

            def encode_batch(self, texts):
                raise ProviderError("down", status=500)

        with pytest.raises(ProviderError):
            embed(Dead(), ["x();"])
        assert sleeps == [0.5, 1.0, 2.0]

    def test_wrong_dims_from_provider_rejected(self):
        class WrongDims:
            name = "wrong"
            dims = 8
            batch_limit = 8

            def encode_batch(self, texts):
                return [[1.0, 0.0] for _ in texts]

        with pytest.raises(ProviderError):
            embed(WrongDims(), ["x();"])


    @pytest.mark.parametrize(
        "bad", [[0.0] * 4, [math.nan, 1.0, 0.0, 0.0], [0.0, math.inf, 0.0, 0.0]], ids=["zero", "nan", "inf"]
    )
    def test_an_unusable_provider_row_is_a_provider_error(self, bad):
        class Unusable:
            name = "stub"
            dims = 4
            batch_limit = 2

            def encode_batch(self, texts):
                return [bad if text == "bad();" else [1.0, 0.0, 0.0, 0.0] for text in texts]

        with pytest.raises(ProviderError, match=r"provider stub .* text at position 2\b") as raised:
            embed(Unusable(), ["a();", "b();", "bad();"])
        assert not raised.value.transient


class TestRetry:
    """Only a failure that may pass is retried: no connection, 408, 429 or
    5xx. The schedule sleeps 0.5, 1 and 2 s between four attempts."""

    @staticmethod
    def failing(*errors: ProviderError):
        class Scripted:
            name = "scripted"
            dims = 16
            batch_limit = 8
            calls = 0

            def encode_batch(self, texts):
                self.calls += 1
                if self.calls <= len(errors):
                    raise errors[self.calls - 1]
                return [encode_alone(t, 16) for t in texts]

        return Scripted()

    @pytest.mark.parametrize(
        "error",
        [
            ProviderError("refused", connection=True),
            ProviderError("timeout", status=408),
            ProviderError("rate limited", status=429),
            ProviderError("down", status=500),
            ProviderError("gateway", status=599),
        ],
        ids=["connection", "408", "429", "500", "599"],
    )
    def test_transient_failures_are_retried_with_backoff(self, error, sleeps):
        encoder = self.failing(error, error, error)
        assert len(embed(encoder, ["x();"])) == 1
        assert encoder.calls == 4 and sleeps == [0.5, 1.0, 2.0]

    @pytest.mark.parametrize(
        "error",
        [
            ProviderError("unauthorized", status=401),
            ProviderError("forbidden", status=403),
            ProviderError("bad request", status=400),
            ProviderError("moved", status=301),
            ProviderError("environment variable KEY is not set"),
        ],
        ids=["401", "403", "400", "301", "no-status"],
    )
    def test_other_failures_fail_at_once(self, error, sleeps):
        encoder = self.failing(error)
        with pytest.raises(ProviderError) as raised:
            embed(encoder, ["x();"])
        assert raised.value is error
        assert encoder.calls == 1 and sleeps == []

    def test_an_unset_api_key_fails_at_once(self, monkeypatch, sleeps):
        monkeypatch.delenv("VULNREACH_TEST_UNSET_KEY", raising=False)
        remote = RemoteEncoderProvider(
            name="remote", model_id="m", endpoint="http://localhost:9/embed", dims=16,
            api_key_env="VULNREACH_TEST_UNSET_KEY",
        )
        with pytest.raises(ProviderError, match="not set"):
            embed(remote, ["x();"])
        assert sleeps == []

    def test_the_last_attempt_surfaces_its_own_error(self, sleeps):
        errors = [ProviderError(f"down {n}", status=503) for n in range(4)]
        with pytest.raises(ProviderError) as raised:
            embed(self.failing(*errors), ["x();"])
        assert raised.value is errors[-1] and sleeps == [0.5, 1.0, 2.0]


# Each remote provider: its call at an endpoint, the JSON it sends, a reply it
# parses, and what it returns for that reply.
_REMOTES = {
    "embedding": (
        lambda endpoint: RemoteEncoderProvider(
            name="remote", model_id="m", endpoint=endpoint, dims=2, api_key_env=LOOPBACK_KEY_ENV,
        ).encode_batch(["a", "b"]),
        {"model": "m", "input": ["a", "b"]},
        {"data": [{"index": 1, "embedding": [0, 1]}, {"index": 0, "embedding": [1, 0]}]},
        [[1.0, 0.0], [0.0, 1.0]],
    ),
    "chat": (
        lambda endpoint: RemoteChatProvider(
            name="remote", model_id="m", endpoint=endpoint, api_key_env=LOOPBACK_KEY_ENV,
        ).complete("a", RoleKind.JUDGE),
        {"model": "m", "messages": [{"role": "user", "content": "a"}], "temperature": 0.0, "max_tokens": 2048},
        {"choices": [{"message": {"content": "yes"}}]},
        "yes",
    ),
}
_PROVIDERS = {"embedding": RemoteEncoderProvider, "chat": RemoteChatProvider}
# Each remote reply, the value it carries (a vector, a chat reply's text) replaced.
_CARRYING = {
    "embedding": lambda value: {"data": [{"index": 0, "embedding": value}, {"index": 1, "embedding": value}]},
    "chat": lambda value: {"choices": [{"message": {"content": value}}]},
}


@pytest.mark.parametrize("what", sorted(_REMOTES))
class TestPostJson:
    """Both remote providers through ``post_json``, over a socket to the
    loopback server, with the retry policy's sleeps stubbed."""

    @pytest.fixture()
    def post(self, what, loopback):
        """The provider's call, retried as ``embed`` and the gateway retry
        it, against ``/<what>`` on the loopback server (or at its closed
        port), which answers ``reply``."""

        def post(reply: Reply | None = None, *, closed: bool = False):
            loopback.routes[f"/{what}"] = reply
            endpoint = (loopback.closed_url if closed else loopback.url)(f"/{what}")
            return call_with_retry(lambda: _REMOTES[what][0](endpoint))

        return post

    def test_a_200_reply_is_read(self, what, post, loopback, sleeps):
        _, sent, body, expected = _REMOTES[what]
        assert post(Reply(200, body)) == expected
        (received,) = loopback.received
        assert received.path == f"/{what}" and json.loads(received.body) == sent
        assert received.headers["Authorization"] == "Bearer secret"
        assert received.headers["Content-Type"] == "application/json"
        assert sleeps == []

    @pytest.mark.parametrize(
        "status, transient", [(401, False), (408, True), (429, True), (500, True), (201, False)]
    )
    def test_a_status_other_than_200_fails_by_its_kind(self, what, post, loopback, sleeps, status, transient):
        with pytest.raises(ProviderError, match=f"^{what} endpoint returned {status}: no$") as raised:
            post(Reply(status, "no"))
        assert raised.value.status == status and raised.value.transient is transient
        assert len(loopback.received) == (4 if transient else 1)
        assert sleeps == ([0.5, 1.0, 2.0] if transient else [])

    @pytest.mark.parametrize("status", [301, 302, 303, 307, 308])
    def test_a_redirect_is_not_followed(self, what, post, loopback, sleeps, status):
        loopback.routes["/elsewhere"] = Reply(200, _REMOTES[what][2])
        with pytest.raises(ProviderError, match=f"^{what} endpoint returned {status}: moved$") as raised:
            post(Reply(status, "moved", location=loopback.url("/elsewhere")))
        assert raised.value.status == status and not raised.value.transient
        assert [received.path for received in loopback.received] == [f"/{what}"]
        assert sleeps == []

    def test_a_refused_connection_is_transient(self, what, post, loopback, sleeps):
        with pytest.raises(ProviderError, match=f"^{what} request failed: .*[Rr]efused") as raised:
            post(closed=True)
        assert raised.value.connection and raised.value.transient
        assert sleeps == [0.5, 1.0, 2.0] and loopback.received == []

    def test_a_reply_slower_than_the_timeout_is_transient(self, what, post, loopback, sleeps, monkeypatch):
        monkeypatch.setattr(_PROVIDERS[what], "TIMEOUT", 0.1)
        started = time.perf_counter()
        with pytest.raises(ProviderError, match=f"^{what} request failed: timed out$") as raised:
            post(Reply(200, _REMOTES[what][2], delay=30.0))
        assert raised.value.connection and raised.value.transient
        assert len(loopback.received) == 4 and time.perf_counter() - started < 10.0

    def test_a_body_cut_short_is_transient(self, what, post, loopback, sleeps):
        with pytest.raises(ProviderError, match=f"^{what} request failed: IncompleteRead") as raised:
            post(Reply(200, _REMOTES[what][2], cut=True))
        assert raised.value.connection and raised.value.transient and len(loopback.received) == 4

    @pytest.mark.parametrize("body", [{"unexpected": []}, "not json"])
    def test_a_malformed_reply_is_a_provider_error(self, what, post, loopback, sleeps, body):
        with pytest.raises(ProviderError, match=f"^malformed {what} response: ") as raised:
            post(Reply(200, body))
        assert not raised.value.transient and len(loopback.received) == 1

    @pytest.mark.parametrize("value", [None, 5])
    def test_a_carried_value_of_the_wrong_type_is_a_provider_error(self, what, post, value):
        with pytest.raises(ProviderError, match=f"^malformed {what} response: ") as raised:
            post(Reply(200, _CARRYING[what](value)))
        assert not raised.value.transient

    def test_an_unset_key_sends_nothing(self, what, post, loopback, monkeypatch, sleeps):
        monkeypatch.delenv(LOOPBACK_KEY_ENV)
        with pytest.raises(ProviderError, match=f"^environment variable {LOOPBACK_KEY_ENV} is not set$") as raised:
            post(Reply(200, _REMOTES[what][2]))
        assert not raised.value.transient and loopback.received == [] and sleeps == []


class TestEmbeddingReplyIndices:
    """The ``index`` keys of an embedding reply give each row its text: with
    any, they must be 0 to n - 1, one per item."""

    @staticmethod
    def encode(loopback, data) -> list[list[float]]:
        loopback.routes["/embed"] = Reply(200, {"data": data})
        return RemoteEncoderProvider(
            name="remote", model_id="m", endpoint=loopback.url("/embed"), dims=2, api_key_env=LOOPBACK_KEY_ENV,
        ).encode_batch(["a", "b"])

    @pytest.mark.parametrize(
        "indices", [[0, 0], [1, 1], [0, 2], [1, None], [None, 0], ["0", "1"]],
        ids=["repeated-0", "repeated-1", "skipped", "first-only", "second-only", "strings"],
    )
    def test_indices_that_do_not_name_each_text_once_are_malformed(self, loopback, indices):
        data = [{"embedding": [1, 0]} if i is None else {"index": i, "embedding": [1, 0]} for i in indices]
        named = repr([i for i in indices if i is not None])
        with pytest.raises(ProviderError, match="^malformed embedding response: indices ") as raised:
            self.encode(loopback, data)
        assert named in str(raised.value) and not raised.value.transient

    def test_a_reply_without_indices_keeps_its_order(self, loopback):
        assert self.encode(loopback, [{"embedding": [0, 1]}, {"embedding": [1, 0]}]) == [[0.0, 1.0], [1.0, 0.0]]
