import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_block
from vulnreach.model import (
    Candidate,
    CandidateJudgment,
    CodeBlock,
    EmbeddingVector,
    Judgment,
    MatchedBy,
    NodeKind,
    Verdict,
    VulnSpec,
    aggregate_judgment,
    block_id,
)


class TestCodeBlock:
    def test_roundtrip(self):
        block = make_block()
        assert CodeBlock.from_dict(block.to_dict()) == block

    def test_id_is_deterministic_from_identity_fields(self):
        a = block_id("src/A.java", 1, 10, NodeKind.METHOD_DECLARATION)
        b = block_id("src/A.java", 1, 10, NodeKind.METHOD_DECLARATION)
        assert a == b
        assert a != block_id("src/A.java", 1, 10, NodeKind.FIELD_DECLARATION)
        assert a != block_id("src/B.java", 1, 10, NodeKind.METHOD_DECLARATION)

    def test_rejects_inverted_line_range(self):
        with pytest.raises(ValueError):
            make_block(line_start=5, line_end=4)


class TestEmbeddingVector:
    def test_normalized_has_unit_norm(self):
        vec = EmbeddingVector.normalized([3.0, 4.0])
        assert math.isclose(math.sqrt(sum(v * v for v in vec.values)), 1.0, abs_tol=1e-12)

    def test_rejects_non_unit_values(self):
        with pytest.raises(ValueError):
            EmbeddingVector(dims=2, values=(3.0, 4.0))

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            EmbeddingVector.normalized([0.0, 0.0, 0.0])

    def test_roundtrip(self):
        vec = EmbeddingVector.normalized([1.0, 2.0, -3.0])
        assert EmbeddingVector.from_dict(vec.to_dict()) == vec

    def test_dims_must_match_values(self):
        with pytest.raises(ValueError):
            EmbeddingVector(dims=3, values=(1.0, 0.0))


def tuple_normalized(values) -> tuple[float, ...]:
    """The tuple-of-floats definition vectors used to have, kept as reference."""
    norm = math.sqrt(math.fsum(float(v) * float(v) for v in values))
    if norm == 0.0:
        raise ValueError("cannot normalize a zero vector")
    return tuple(float(v) / norm for v in values)


def tuple_dot(a, b) -> float:
    return math.fsum(x * y for x, y in zip(a, b))


def bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


_COMPONENTS = st.one_of(
    st.just(0.0), st.floats(1e-6, 1e6), st.floats(-1e6, -1e-6), st.integers(-1000, 1000)
)
_RAW = st.lists(_COMPONENTS, min_size=1, max_size=40)
_RAW_PAIRS = st.integers(1, 40).flatmap(
    lambda n: st.tuples(*[st.lists(_COMPONENTS, min_size=n, max_size=n)] * 2)
)


class TestVectorBitIdentity:
    @given(_RAW)
    def test_normalized_matches_the_tuple_definition(self, raw):
        try:
            expected = tuple_normalized(raw)
        except ValueError:
            with pytest.raises(ValueError):
                EmbeddingVector.normalized(raw)
            return
        for given_as in (raw, np.array(raw, dtype=np.float64)):
            assert bits(EmbeddingVector.normalized(given_as).values) == bits(expected)
        # Float32 rows, as an index stores them, widened the way the store does.
        rows32 = np.array(raw, dtype=np.float32)
        if rows32.any():
            assert bits(EmbeddingVector.normalized(rows32).values) == bits(
                tuple_normalized(rows32.astype(np.float64).tolist())
            )

    @given(_RAW_PAIRS)
    def test_dot_matches_the_tuple_definition(self, pair):
        a_raw, b_raw = pair
        try:
            a, b = tuple_normalized(a_raw), tuple_normalized(b_raw)
        except ValueError:
            return
        va, vb = EmbeddingVector.normalized(a_raw), EmbeddingVector.normalized(b_raw)
        assert bits([va.dot(vb)]) == bits([tuple_dot(a, b)])
        assert bits([vb.dot(va)]) == bits([tuple_dot(b, a)])

    def test_values_are_read_only_and_equality_is_by_value(self):
        vec = EmbeddingVector.normalized([3.0, 4.0])
        with pytest.raises(ValueError):
            vec.values[0] = 1.0
        assert vec == EmbeddingVector(dims=2, values=(0.6, 0.8))
        assert vec != EmbeddingVector(dims=2, values=(0.8, 0.6))
        assert hash(vec) == hash(EmbeddingVector.normalized([6.0, 8.0]))
        assert vec.to_dict() == {"dims": 2, "values": [0.6, 0.8]}


class TestVulnSpec:
    def test_roundtrip(self, vuln: VulnSpec):
        assert VulnSpec.from_dict(vuln.to_dict()) == vuln

    def test_rejects_empty_signatures(self):
        with pytest.raises(ValueError):
            VulnSpec("V-1", "lib", (), "test body")

    def test_rejects_blank_pov(self):
        with pytest.raises(ValueError):
            VulnSpec("V-1", "lib", ("a.B#c()",), "   ")


class TestCandidate:
    def test_initial_contains_anchor(self):
        anchor = make_block()
        cand = Candidate.initial(anchor, MatchedBy.API_SIMILARITY, 0.5, 0.1)
        assert cand.context == (anchor,)

    def test_context_is_append_only_and_dedups(self):
        anchor = make_block()
        other = make_block(file_path="src/B.java", node_kind=NodeKind.METHOD_DECLARATION)
        cand = Candidate.initial(anchor, MatchedBy.BOTH, 0.5, 0.5)
        grown = cand.extend_context([other, other, anchor])
        assert [b.id for b in grown.context] == [anchor.id, other.id]
        assert cand.context == (anchor,)  # original untouched
        regrown = grown.extend_context([other])
        assert regrown is grown

    def test_rejects_context_without_anchor(self):
        anchor = make_block()
        other = make_block(file_path="src/B.java")
        with pytest.raises(ValueError):
            Candidate(anchor, (other,), MatchedBy.BOTH, 0.0, 0.0)

    def test_rejects_duplicate_context_ids(self):
        anchor = make_block()
        with pytest.raises(ValueError):
            Candidate(anchor, (anchor, anchor), MatchedBy.BOTH, 0.0, 0.0)

    def test_rejects_out_of_range_similarity(self):
        anchor = make_block()
        with pytest.raises(ValueError):
            Candidate.initial(anchor, MatchedBy.BOTH, 1.5, 0.0)

    def test_roundtrip(self):
        anchor = make_block()
        other = make_block(file_path="src/B.java")
        cand = Candidate.initial(anchor, MatchedBy.TEST_SIMILARITY, 0.2, 0.6)
        cand = cand.extend_context([other])
        assert Candidate.from_dict(cand.to_dict()) == cand


def _judgments(values: list[Judgment]) -> list[CandidateJudgment]:
    return [CandidateJudgment(f"c{i}", j, "because") for i, j in enumerate(values)]


class TestVerdict:
    def test_aggregation_rule_exhaustively_for_up_to_three(self):
        cases = 0
        for n in range(4):
            for mask in range(2**n):
                js = [
                    Judgment.VULNERABLE if (mask >> i) & 1 else Judgment.SECURE
                    for i in range(n)
                ]
                verdict = Verdict.aggregate("p", "v", _judgments(js))
                expected = (
                    Judgment.VULNERABLE
                    if any(j is Judgment.VULNERABLE for j in js)
                    else Judgment.SECURE
                )
                assert verdict.project_judgment is expected
                cases += 1
        assert cases == 15  # 1 + 2 + 4 + 8 judgment sequences

    def test_empty_candidate_set_is_secure(self):
        assert aggregate_judgment([]) is Judgment.SECURE

    def test_invariant_checkable_independent_of_model(self):
        with pytest.raises(ValueError):
            Verdict(
                project_id="p",
                vuln_id="v",
                per_candidate=tuple(_judgments([Judgment.VULNERABLE])),
                project_judgment=Judgment.SECURE,
            )

    def test_roundtrip(self):
        verdict = Verdict.aggregate(
            "proj", "CVE-1", _judgments([Judgment.SECURE, Judgment.VULNERABLE]), "t.jsonl"
        )
        assert Verdict.from_dict(verdict.to_dict()) == verdict

    @given(st.lists(st.sampled_from([Judgment.VULNERABLE, Judgment.SECURE]), max_size=8))
    def test_aggregate_matches_exists_rule(self, js):
        assert (aggregate_judgment(js) is Judgment.VULNERABLE) == (Judgment.VULNERABLE in js)
