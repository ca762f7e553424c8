import math
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import entry_dict, fsum_unit_row, make_block
from vulnreach.embedding import checked_unit, unit_rows
from vulnreach.evalharness import ConfusionMatrix
from vulnreach.gateway import RoleKind, TranscriptEntry
from vulnreach.model import (
    Candidate,
    CandidateJudgment,
    CodeBlock,
    Config,
    Judgment,
    MatchedBy,
    NodeKind,
    Verdict,
    VulnSpec,
    aggregate_judgment,
    block_id,
)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8,
)
_COUNTS = st.integers(0, 10**6)


@st.composite
def _code_blocks(draw) -> CodeBlock:
    start = draw(st.integers(1, 10**6))
    return CodeBlock(
        id=draw(st.text()),
        file_path=draw(st.text()),
        line_start=start,
        line_end=start + draw(_COUNTS),
        source=draw(st.text()),
        node_kind=draw(st.sampled_from(NodeKind)),
        enclosing_class=draw(st.none() | st.text()),
        enclosing_method=draw(st.none() | st.text()),
        size=draw(_COUNTS),
        oversize=draw(st.booleans()),
    )


_ENTRIES = st.builds(
    TranscriptEntry,
    seq=_COUNTS,
    role_kind=st.sampled_from(RoleKind),
    provider_name=st.text(),
    model_id=st.text(),
    template_hash=st.text(),
    rendered_prompt=st.text(),
    raw_response=st.text(),
    parsed_response=_JSON,
    timestamp=st.text(),
)
_MATRICES = st.builds(ConfusionMatrix, tp=_COUNTS, fp=_COUNTS, tn=_COUNTS, fn=_COUNTS)
_CONFIGS = st.builds(
    Config,
    theta=st.integers(1, 10**5),
    tau=st.floats(0.0, 1.0, exclude_min=True),
    top_k=st.integers(1, 100),
    max_iterations=st.integers(1, 100),
    parallelism=st.integers(1, 64),
    ignore_globs=st.lists(st.text(), max_size=4).map(tuple),
    encoder=st.dictionaries(st.text(), _JSON, max_size=3),
    # The echo leaves out chat keys naming a credential.
    chat=st.dictionaries(st.text().filter(lambda k: "key" not in k.lower()), _JSON, max_size=3),
    prompts_dir=st.none() | st.text(),
)


class TestToDict:
    """``to_dict`` is derived from an instance's fields, so a field added
    later is written, and ``from_dict`` must read it back. A transcript
    entry's is ``entry_dict``, the reference its JSON line is checked against."""

    @given(st.one_of(_code_blocks(), _ENTRIES, _MATRICES, _CONFIGS))
    def test_from_dict_inverts_it_and_its_keys_are_the_fields(self, value):
        names = value._fields if isinstance(value, tuple) else [f.name for f in fields(value)]
        raw = entry_dict(value) if isinstance(value, TranscriptEntry) else value.to_dict()
        assert set(raw) == set(names)
        assert type(value).from_dict(raw) == value


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


class TestUnitRows:
    def test_normalized_has_unit_norm(self):
        (row,) = unit_rows([[3.0, 4.0]])
        assert math.isclose(math.sqrt(sum(v * v for v in row)), 1.0, abs_tol=1e-12)

    def test_rejects_non_unit_values(self):
        with pytest.raises(ValueError):
            checked_unit(np.array([[3.0, 4.0]]))

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            unit_rows([[0.0, 0.0, 0.0]])

    @pytest.mark.parametrize(
        "values",
        [[math.nan, 1.0, 0.0], [math.inf, 1.0, 0.0], [-math.inf, 0.0, 0.0]],
        ids=["nan", "inf", "-inf"],
    )
    def test_normalized_rejects_a_vector_without_a_finite_norm(self, values):
        with pytest.raises(ValueError, match="norm"):
            unit_rows([values])

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_rejects_non_finite_values(self, bad):
        # abs(nan - 1) > tolerance is False, so a NaN norm must fail by itself.
        with pytest.raises(ValueError, match="not 1.0"):
            checked_unit(np.array([[bad] * 4]))
        with pytest.raises(ValueError, match="not 1.0"):
            checked_unit(np.array([[0.6, 0.8], [1.0, bad]]))

    def test_dims_must_match_values(self):
        with pytest.raises(ValueError):
            unit_rows([[1.0, 0.0], [1.0]])

    def test_an_unusable_row_is_named_by_its_position(self):
        with pytest.raises(ValueError, match=r"^position 1: cannot normalize a zero vector$"):
            unit_rows([[3.0, 4.0], [0.0, -0.0], [math.nan, 1.0]])


def tuple_normalized(values) -> tuple[float, ...]:
    """The tuple-of-floats definition vectors used to have, kept as reference."""
    norm = math.sqrt(math.fsum(float(v) * float(v) for v in values))
    if norm == 0.0:
        raise ValueError("cannot normalize a zero vector")
    return tuple(float(v) / norm for v in values)


def bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


_COMPONENTS = st.one_of(
    st.just(0.0), st.floats(1e-6, 1e6), st.floats(-1e6, -1e-6), st.integers(-1000, 1000)
)
_RAW = st.lists(_COMPONENTS, min_size=1, max_size=40)
# Components from 1e-300 to 1e300 in magnitude, and zeros: one batch mixes
# rows whose squares overflow, underflow or neither.
_MIXED_COMPONENTS = st.one_of(
    st.just(0.0),
    st.builds(
        lambda mantissa, exponent, sign: sign * mantissa * 10.0**exponent,
        st.floats(1.0, 9.999),
        st.integers(-300, 299),
        st.sampled_from([1.0, -1.0]),
    ),
)
_MIXED_BATCHES = st.integers(1, 12).flatmap(
    lambda n: st.lists(st.lists(_MIXED_COMPONENTS, min_size=n, max_size=n), min_size=1, max_size=8)
)


class TestVectorBitIdentity:
    @given(_RAW)
    def test_normalized_matches_the_tuple_definition(self, raw):
        try:
            expected = tuple_normalized(raw)
        except ValueError:
            with pytest.raises(ValueError):
                unit_rows([raw])
            return
        for given_as in ([raw], np.array([raw], dtype=np.float64)):
            assert bits(unit_rows(given_as)[0]) == bits(expected)
        # Float32 rows, as an index stores them, widened the way the store does.
        rows32 = np.array([raw], dtype=np.float32)
        if rows32.any():
            assert bits(unit_rows(rows32)[0]) == bits(
                tuple_normalized(rows32[0].astype(np.float64).tolist())
            )

    @given(_RAW, st.sampled_from([1e150, 1e200, 1e300, 1.7e308]))
    def test_a_row_whose_squares_overflow_keeps_its_direction(self, raw, peak):
        values = np.array(raw, dtype=np.float64)
        if not values.any():
            return
        huge = values / np.abs(values).max() * peak  # finite, largest magnitude = peak
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning escapes either
            (scaled,) = unit_rows([huge])
        assert np.allclose(scaled, unit_rows([raw])[0], rtol=0, atol=1e-12)
        assert math.isclose(float(scaled @ scaled), 1.0, abs_tol=1e-12)

    def test_overflow_rescaling_is_exact_where_the_scale_is(self):
        assert unit_rows([[3e200, 4e200]]).tolist() == [[0.6, 0.8]]
        # fsum of finite squares can overflow as well: 4 * 1.69e308.
        assert unit_rows([[1.3e154] * 4]).tolist() == [[0.5] * 4]

    def test_a_row_whose_squares_underflow_keeps_its_direction(self):
        # Squares of 1e-170 underflow to 0.0; those of 3e-160 to subnormals,
        # whose sum is too coarse for a unit norm.
        for raw, direction in (([1e-170, 2e-170], [1.0, 2.0]), ([3e-160, 4e-160], [3.0, 4.0])):
            (row,) = unit_rows([raw])
            assert np.allclose(row, unit_rows([direction])[0], rtol=0, atol=1e-12)
        assert unit_rows([[0.0, 5e-324]]).tolist() == [[0.0, 1.0]]
        with pytest.raises(ValueError, match="zero vector"):
            unit_rows([[0.0, -0.0]])

    @given(_MIXED_BATCHES)
    def test_a_batch_equals_each_row_normalized_alone(self, batch):
        expected = []
        for position, row in enumerate(batch):
            try:
                expected.append(fsum_unit_row(row))
            except ValueError:
                with pytest.raises(ValueError, match=f"^position {position}: "):
                    unit_rows(batch)
                return
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = unit_rows(batch)
        assert bits(got) == bits(expected)

    def test_rows_are_read_only(self):
        rows = unit_rows([[3.0, 4.0]])
        with pytest.raises(ValueError):
            rows[0, 0] = 1.0
        with pytest.raises(ValueError):
            rows[0][0] = 1.0
        assert rows.tolist() == [[0.6, 0.8]]
        assert bits(unit_rows([[6.0, 8.0]])) == bits(rows)


class TestVulnSpec:
    def test_rejects_empty_signatures(self):
        with pytest.raises(ValueError):
            VulnSpec("V-1", "lib", (), "test body")

    def test_rejects_blank_pov(self):
        with pytest.raises(ValueError):
            VulnSpec("V-1", "lib", ("a.B#c()",), "   ")


class TestCandidate:
    def test_initial_contains_anchor(self):
        anchor = make_block()
        cand = Candidate(anchor, (anchor,), MatchedBy.API_SIMILARITY, 0.5, 0.1)
        assert cand.context == (anchor,)

    def test_context_is_append_only_and_dedups(self):
        anchor = make_block()
        other = make_block(file_path="src/B.java", node_kind=NodeKind.METHOD_DECLARATION)
        cand = Candidate(anchor, (anchor,), MatchedBy.BOTH, 0.5, 0.5)
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
            Candidate(anchor, (anchor,), MatchedBy.BOTH, 1.5, 0.0)


def _judgments(values: list[Judgment]) -> tuple[CandidateJudgment, ...]:
    return tuple(CandidateJudgment(f"c{i}", j, "because") for i, j in enumerate(values))


class TestVerdict:
    def test_aggregation_rule_exhaustively_for_up_to_three(self):
        cases = 0
        for n in range(4):
            for mask in range(2**n):
                js = [
                    Judgment.VULNERABLE if (mask >> i) & 1 else Judgment.SECURE
                    for i in range(n)
                ]
                verdict = Verdict("p", "v", _judgments(js))
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

    def test_project_judgment_is_derived_not_given(self):
        with pytest.raises(TypeError, match="project_judgment"):
            Verdict(
                project_id="p",
                vuln_id="v",
                per_candidate=_judgments([Judgment.VULNERABLE]),
                project_judgment=Judgment.SECURE,
            )
        verdict = Verdict("p", "v", _judgments([Judgment.SECURE, Judgment.VULNERABLE]))
        assert verdict.to_dict()["project_judgment"] == "Vulnerable"

    @given(st.lists(st.sampled_from([Judgment.VULNERABLE, Judgment.SECURE]), max_size=8))
    def test_aggregate_matches_exists_rule(self, js):
        assert (aggregate_judgment(js) is Judgment.VULNERABLE) == (Judgment.VULNERABLE in js)
