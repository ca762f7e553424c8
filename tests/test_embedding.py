import hashlib
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vulnreach.embedding import (
    ReferenceEncoder,
    RemoteEncoderProvider,
    RetryPolicy,
    _lexical_normalize,
    cosine,
    embed,
    reference_encode,
)
from vulnreach.errors import EmptyText, ProviderError

# Pairwise cosines of the three fixture snippets below under the reference
# encoder at dims=64, frozen from the first verified run.
GOLDEN_LOOP_STREAM = 0.336397729351
GOLDEN_LOOP_UNRELATED = -0.204477345105
GOLDEN_STREAM_UNRELATED = -0.011303946105

LOOP_SUM = "for (int i = 0; i < values.length; i++) { total += values[i]; }"
STREAM_SUM = "int total = Arrays.stream(values).sum();"
UNRELATED = 'return "unrelated banner text";'




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
        digest = hashlib.blake2b(gram.encode("utf-8"), digest_size=8).digest()
        h = int.from_bytes(digest, "little")
        sign = 1.0 if (h >> 63) & 1 == 0 else -1.0
        acc[h % dims] += sign
    if not acc.any():
        digest = hashlib.blake2b(normalized.encode("utf-8"), digest_size=8).digest()
        acc[int.from_bytes(digest, "little") % dims] = 1.0
    return acc


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


class TestReferenceEncode:
    def test_unit_norm(self):
        vec = reference_encode("int x = 0;", 64)
        assert math.isclose(math.sqrt(sum(v * v for v in vec.values)), 1.0, abs_tol=1e-9)

    def test_deterministic(self):
        assert reference_encode("int x = 0;", 64) == reference_encode("int x = 0;", 64)

    def test_whitespace_collapsed(self):
        assert reference_encode("int  x =\t0;   ", 64) == reference_encode("int x = 0;", 64)

    def test_case_folded(self):
        assert reference_encode("Foo.BAR", 64) == reference_encode("foo.bar", 64)

    def test_short_text_still_encodes(self):
        vec = reference_encode("ab", 64)
        assert math.isclose(math.sqrt(sum(v * v for v in vec.values)), 1.0, abs_tol=1e-9)

    def test_blank_text_rejected(self):
        with pytest.raises(EmptyText):
            reference_encode("   ", 64)

    def test_dims_floor(self):
        with pytest.raises(ValueError):
            reference_encode("x", 4)

    def test_semantically_overlapping_snippets_score_higher(self):
        # Brute-force oracle: all three pairwise encodings computed directly.
        a = reference_encode("a.encode(pwd)", 256)
        b = reference_encode("a.encode(password)", 256)
        c = reference_encode("return 42;", 256)
        assert cosine(a, b) == pytest.approx(0.599886610601, abs=1e-9)
        assert cosine(a, c) == pytest.approx(0.039840953644, abs=1e-9)
        assert cosine(a, b) > cosine(a, c)

    def test_golden_pairwise_values_for_summation_snippets(self):
        loop = reference_encode(LOOP_SUM, 64)
        stream = reference_encode(STREAM_SUM, 64)
        unrelated = reference_encode(UNRELATED, 64)
        assert cosine(loop, stream) == pytest.approx(GOLDEN_LOOP_STREAM, abs=1e-9)
        assert cosine(loop, unrelated) == pytest.approx(GOLDEN_LOOP_UNRELATED, abs=1e-9)
        assert cosine(stream, unrelated) == pytest.approx(GOLDEN_STREAM_UNRELATED, abs=1e-9)
        assert cosine(loop, stream) > cosine(loop, unrelated)
        assert cosine(loop, stream) > cosine(stream, unrelated)

    def test_self_cosine_is_one(self):
        vec = reference_encode(LOOP_SUM, 64)
        assert cosine(vec, vec) == pytest.approx(1.0, abs=1e-9)

    def test_cosine_symmetry(self):
        a = reference_encode(LOOP_SUM, 64)
        b = reference_encode(STREAM_SUM, 64)
        assert cosine(a, b) == pytest.approx(cosine(b, a), abs=1e-12)


class TestEmbed:
    def test_identical_calls_identical_vectors(self, encoder):
        first = embed(encoder, ["int x = 0;"])
        second = embed(encoder, ["int x = 0;"])
        assert first == second

    def test_order_preserving_and_one_vector_per_text(self, encoder):
        texts = ["alpha();", "beta();", "gamma();"]
        vectors = embed(encoder, texts)
        assert len(vectors) == 3
        assert vectors[0] == embed(encoder, ["alpha();"])[0]
        assert vectors[2] == embed(encoder, ["gamma();"])[0]

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
            assert embed(encoder, [text])[0] == vec

    def test_batching_respects_batch_limit(self):
        calls: list[int] = []

        class CountingEncoder:
            name = "counting"
            dims = 64
            batch_limit = 2

            def encode_batch(self, texts):
                calls.append(len(texts))
                return [reference_encode(t, 64).values for t in texts]

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
        assert vec.values.tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_retry_then_success(self):
        attempts = {"n": 0}

        class Flaky:
            name = "flaky"
            dims = 16
            batch_limit = 8

            def encode_batch(self, texts):
                attempts["n"] += 1
                if attempts["n"] < 3:
                    raise ProviderError("temporary", status=503)
                return [reference_encode(t, 16).values for t in texts]

        vectors = embed(Flaky(), ["x();"], retry=RetryPolicy(retries=3, base_delay=0.0))
        assert attempts["n"] == 3 and len(vectors) == 1

    def test_retries_exhausted_surfaces_provider_error(self):
        class Dead:
            name = "dead"
            dims = 16
            batch_limit = 8

            def encode_batch(self, texts):
                raise ProviderError("down", status=500)

        with pytest.raises(ProviderError):
            embed(Dead(), ["x();"], retry=RetryPolicy(retries=2, base_delay=0.0))

    def test_wrong_dims_from_provider_rejected(self):
        class WrongDims:
            name = "wrong"
            dims = 8
            batch_limit = 8

            def encode_batch(self, texts):
                return [[1.0, 0.0] for _ in texts]

        with pytest.raises(ProviderError):
            embed(WrongDims(), ["x();"])


class TestRetry:
    """Only a failure that may pass is retried: no connection, 408, 429 or
    5xx. The default policy sleeps 0.5, 1 and 2 s between four attempts."""

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
                return [reference_encode(t, 16).values for t in texts]

        return Scripted()

    @pytest.fixture()
    def sleeps(self, monkeypatch) -> list[float]:
        delays: list[float] = []
        monkeypatch.setattr(time, "sleep", delays.append)
        return delays

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
