import itertools
import json
import re
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, make_block
from vulnreach.errors import ConfigError, MalformedResponse, ProviderError
from vulnreach.gateway import (
    ChatGateway,
    PromptLibrary,
    PromptTemplate,
    ReplayChatProvider,
    RoleKind,
    ScriptedChatProvider,
    Transcript,
    extract_json_object,
)
from vulnreach.memo import MemoChatProvider
from vulnreach.model import Candidate, Judgment, MatchedBy, NodeKind, VulnSpec


def scripted(**kw) -> ScriptedChatProvider:
    return ScriptedChatProvider(**kw)


def gateway(provider, **kw) -> ChatGateway:
    return ChatGateway(provider, transcript=Transcript(), **kw)


ENCODE_BLOCK = make_block(
    file_path="src/T.java",
    line_start=10,
    line_end=13,
    source="String hash(String raw) {\n    return encoder.encode(raw);\n}\n",
    node_kind=NodeKind.METHOD_DECLARATION,
    enclosing_class="T",
    enclosing_method="hash",
    size=18,
)

COMMENT_BLOCK = make_block(
    file_path="src/T.java",
    line_start=1,
    line_end=2,
    source="// nothing but commentary\n// here\n",
    node_kind=NodeKind.OTHER,
    enclosing_class=None,
    size=8,
)


class TestPromptTemplate:
    def test_render_binds_named_placeholders(self):
        template = PromptTemplate(RoleKind.GRADER, "Block: {{code}}\nApi: {{api}}", {})
        rendered = template.render(code="int xformat() { return \"{{}}\"; }", api="a#b()")
        assert "int x" in rendered and "a#b()" in rendered
        assert "{{code}}" not in rendered

    def test_unbound_placeholder_rejected(self):
        template = PromptTemplate(RoleKind.GRADER, "{{code}} {{api}}", {})
        with pytest.raises(ConfigError):
            template.render(code="x")

    def test_values_with_braces_do_not_confuse_rendering(self):
        template = PromptTemplate(RoleKind.GRADER, "{{code}}", {})
        assert template.render(code="{{not_a_marker}}") == "{{not_a_marker}}"

    def test_bundled_library_provides_all_roles(self):
        library = PromptLibrary.bundled()
        for role in RoleKind:
            assert library.get(role).placeholders()

    def test_from_dir_override(self, tmp_path: Path):
        for role in RoleKind:
            (tmp_path / f"{role.value}.txt").write_text(f"custom {role.value} {{{{x}}}}")
        library = PromptLibrary.from_dir(tmp_path)
        assert library.get(RoleKind.JUDGE).template_text.startswith("custom judge")

    def test_template_hash_is_stable(self):
        a = PromptTemplate(RoleKind.GRADER, "abc", {})
        b = PromptTemplate(RoleKind.GRADER, "abc", {})
        assert a.sha256 == b.sha256 and len(a.sha256) == 16


# Fragments of prose, fences and (often broken) JSON, with braces in strings
# and escapes, so candidate objects nest, fail and overlap.
_JSONISH = [
    "{", "}", "[", "]", '"', "\\", '\\"', ":", ",", " ", "\n", "x", "1", "true", "null",
    '"a"', '"b": ', '"{"', '"}"', '{"a": 1}', '{"r": "needs {more}"}', "```json\n", "```",
    "Sure: ",
]


def brace_matching_extract(text: str):
    """The hand-written matcher ``extract_json_object`` used before
    ``raw_decode``: the first brace-balanced, string-aware span from some
    ``{`` that parses as JSON."""
    stripped = text.strip()
    if stripped.startswith("```"):
        stripped = re.sub(r"^```[a-zA-Z]*\s*|\s*```$", "", stripped).strip()
    try:
        return json.loads(stripped)
    except json.JSONDecodeError:
        pass
    start = stripped.find("{")
    while start != -1:
        depth = 0
        in_string = False
        escape = False
        for idx in range(start, len(stripped)):
            ch = stripped[idx]
            if in_string:
                if escape:
                    escape = False
                elif ch == "\\":
                    escape = True
                elif ch == '"':
                    in_string = False
                continue
            if ch == '"':
                in_string = True
            elif ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                if depth == 0:
                    try:
                        return json.loads(stripped[start : idx + 1])
                    except json.JSONDecodeError:
                        break
        start = stripped.find("{", start + 1)
    raise MalformedResponse(f"no JSON object found in response: {text[:120]!r}")


class TestExtractJson:
    def test_bare_object(self):
        assert extract_json_object('{"answer": "yes"}') == {"answer": "yes"}

    def test_fenced_object(self):
        assert extract_json_object('```json\n{"answer": "no"}\n```') == {"answer": "no"}

    def test_object_embedded_in_prose(self):
        text = 'Sure! Here you go: {"complete": false, "reason": "needs {more}"} hope that helps'
        assert extract_json_object(text)["reason"] == "needs {more}"

    def test_no_object_raises(self):
        with pytest.raises(MalformedResponse):
            extract_json_object("I cannot answer that.")

    def test_nesting_past_the_recursion_limit_is_no_object(self):
        with pytest.raises(MalformedResponse):
            extract_json_object("[" * 5000)
        text = 'Sure: ' + '{"a": ' * 1500 + '{"answer": "yes"}'
        assert extract_json_object(text) == {"answer": "yes"}

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.sampled_from(_JSONISH), max_size=24).map("".join))
    def test_matches_brace_matching_reference(self, text):
        try:
            expected = brace_matching_extract(text)
        except MalformedResponse:
            with pytest.raises(MalformedResponse):
                extract_json_object(text)
        else:
            assert extract_json_object(text) == expected


class TestGradeInvocation:
    def test_scripted_yes(self, vuln):
        gw = gateway(scripted(sequences={RoleKind.GRADER: ['{"answer": "yes"}']}))
        assert gw.grade_invocation(ENCODE_BLOCK, vuln.api_signatures[0]) is True

    def test_comment_only_block_honest_no(self, vuln):
        gw = gateway(
            scripted(
                rules=[(RoleKind.GRADER, ".encode(", '{"answer": "yes"}')],
                defaults={RoleKind.GRADER: '{"answer": "no"}'},
            )
        )
        assert gw.grade_invocation(COMMENT_BLOCK, vuln.api_signatures[0]) is False
        assert gw.grade_invocation(ENCODE_BLOCK, vuln.api_signatures[0]) is True

    def test_unparseable_answer_reprompts_then_errors(self, vuln):
        gw = gateway(
            scripted(sequences={RoleKind.GRADER: ["maybe?", "still not json"]})
        )
        with pytest.raises(MalformedResponse):
            gw.grade_invocation(ENCODE_BLOCK, vuln.api_signatures[0])
        assert len(gw.transcript) == 2  # one entry per provider call
        assert "could not be parsed" in gw.transcript.entries[1].rendered_prompt

    def test_invalid_answer_value_rejected(self, vuln):
        gw = gateway(
            scripted(sequences={RoleKind.GRADER: ['{"answer": "perhaps"}'] * 2})
        )
        with pytest.raises(MalformedResponse):
            gw.grade_invocation(ENCODE_BLOCK, vuln.api_signatures[0])


class TestReflectionQuery:
    def test_two_step_scenario(self, vuln):
        gw = gateway(
            scripted(
                sequences={
                    RoleKind.REFLECTION: [
                        '{"complete": false, "reason": "need definition of raw"}',
                        '{"complete": true, "reason": ""}',
                    ]
                }
            )
        )
        assert gw.reflection_query([ENCODE_BLOCK], vuln) == (False, "need definition of raw")
        assert gw.reflection_query([ENCODE_BLOCK], vuln) == (True, "")

    def test_incomplete_with_empty_reason_is_malformed(self, vuln):
        gw = gateway(
            scripted(sequences={RoleKind.REFLECTION: ['{"complete": false, "reason": ""}'] * 2})
        )
        with pytest.raises(MalformedResponse):
            gw.reflection_query([ENCODE_BLOCK], vuln)

    def test_non_boolean_complete_is_malformed(self, vuln):
        gw = gateway(
            scripted(sequences={RoleKind.REFLECTION: ['{"complete": "yes", "reason": "r"}'] * 2})
        )
        with pytest.raises(MalformedResponse):
            gw.reflection_query([ENCODE_BLOCK], vuln)


class TestCodeInference:
    def test_snippet_and_scope(self, vuln):
        response = json.dumps(
            {
                "missing_snippet": "private String pwdEncode(String pwd)",
                "scope": {"class_name": "NUserController"},
            }
        )
        gw = gateway(scripted(sequences={RoleKind.INFERENCE: [response]}))
        snippet, scope = gw.code_inference([ENCODE_BLOCK], vuln, "need definition of pwd")
        assert snippet == "private String pwdEncode(String pwd)"
        assert scope.class_name == "NUserController" and scope.method_name is None

    def test_absent_scope_fields_accepted_as_empty_filter(self, vuln):
        gw = gateway(
            scripted(sequences={RoleKind.INFERENCE: ['{"missing_snippet": "foo()", "scope": {}}']})
        )
        _, scope = gw.code_inference([ENCODE_BLOCK], vuln, "why")
        assert scope.is_empty()

    def test_unknown_scope_keys_rejected(self, vuln):
        bad = '{"missing_snippet": "foo()", "scope": {"package": "p"}}'
        gw = gateway(scripted(sequences={RoleKind.INFERENCE: [bad, bad]}))
        with pytest.raises(MalformedResponse):
            gw.code_inference([ENCODE_BLOCK], vuln, "why")

    def test_empty_snippet_rejected(self, vuln):
        bad = '{"missing_snippet": "  ", "scope": {}}'
        gw = gateway(scripted(sequences={RoleKind.INFERENCE: [bad, bad]}))
        with pytest.raises(MalformedResponse):
            gw.code_inference([ENCODE_BLOCK], vuln, "why")

    def test_requires_nonempty_reason(self, vuln):
        gw = gateway(scripted())
        with pytest.raises(ValueError):
            gw.code_inference([ENCODE_BLOCK], vuln, "   ")


class TestJudgeReachability:
    def _candidate(self) -> Candidate:
        return Candidate.initial(ENCODE_BLOCK, MatchedBy.BOTH, 0.5, 0.5)

    def test_guarded_pattern_scripted_secure(self, vuln):
        gw = gateway(
            scripted(
                rules=[
                    (
                        RoleKind.JUDGE,
                        "raw == null",
                        '{"judgment": "secure", "rationale": "null guard blocks the trigger"}',
                    )
                ],
                defaults={
                    RoleKind.JUDGE: '{"judgment": "vulnerable", "rationale": "no guard present"}'
                },
            )
        )
        guarded = make_block(
            file_path="src/G.java",
            line_start=1,
            line_end=4,
            source=(
                "String hash(String raw) {\n"
                "    if (raw == null) throw new IllegalArgumentException();\n"
                "    return encoder.encode(raw);\n}\n"
            ),
            node_kind=NodeKind.METHOD_DECLARATION,
            enclosing_class="G",
            enclosing_method="hash",
            size=25,
        )
        judgment, rationale = gw.judge_reachability(
            Candidate.initial(guarded, MatchedBy.BOTH, 0.5, 0.5), vuln
        )
        assert judgment is Judgment.SECURE
        assert "null guard" in rationale

    def test_direct_trigger_pattern_scripted_vulnerable(self, vuln):
        gw = gateway(
            scripted(
                defaults={
                    RoleKind.JUDGE: '{"judgment": "vulnerable", "rationale": "input reaches encode unchecked"}'
                }
            )
        )
        judgment, rationale = gw.judge_reachability(self._candidate(), vuln)
        assert judgment is Judgment.VULNERABLE and rationale

    def test_missing_rationale_rejected(self, vuln):
        bad = '{"judgment": "secure", "rationale": ""}'
        gw = gateway(scripted(sequences={RoleKind.JUDGE: [bad, bad]}))
        with pytest.raises(MalformedResponse):
            gw.judge_reachability(self._candidate(), vuln)


class TestTranscript:
    def test_every_call_appends_exactly_one_entry(self, vuln):
        gw = gateway(
            scripted(
                defaults={
                    RoleKind.GRADER: '{"answer": "yes"}',
                    RoleKind.REFLECTION: '{"complete": true, "reason": ""}',
                }
            )
        )
        gw.grade_invocation(ENCODE_BLOCK, vuln.api_signatures[0])
        gw.reflection_query([ENCODE_BLOCK], vuln)
        gw.grade_invocation(COMMENT_BLOCK, vuln.api_signatures[0])
        assert len(gw.transcript) == 3
        assert [e.seq for e in gw.transcript.entries] == [0, 1, 2]
        assert [e.role_kind for e in gw.transcript.entries] == [
            RoleKind.GRADER,
            RoleKind.REFLECTION,
            RoleKind.GRADER,
        ]

    def test_jsonl_roundtrip(self, tmp_path: Path, vuln):
        gw = gateway(scripted(defaults={RoleKind.GRADER: '{"answer": "no"}'}))
        gw.grade_invocation(ENCODE_BLOCK, vuln.api_signatures[0])
        path = tmp_path / "t.jsonl"
        gw.transcript.save(path)
        loaded = Transcript.load(path)
        assert [e.to_dict() for e in loaded.entries] == [
            e.to_dict() for e in gw.transcript.entries
        ]

    def test_sink_streams_entries_as_they_land(self, tmp_path: Path, vuln):
        path = tmp_path / "stream.jsonl"
        with Transcript(sink_path=path) as transcript:
            gw = ChatGateway(
                scripted(defaults={RoleKind.GRADER: '{"answer": "no"}'}),
                transcript=transcript,
            )
            gw.grade_invocation(ENCODE_BLOCK, vuln.api_signatures[0])
            lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["role_kind"] == "grader"

    def test_replay_reproduces_identical_parsed_sequence(self, vuln):
        script = scripted(
            sequences={
                RoleKind.GRADER: ['{"answer": "yes"}', '{"answer": "no"}'],
                RoleKind.REFLECTION: ['{"complete": false, "reason": "more"}'],
            },
            defaults={RoleKind.REFLECTION: '{"complete": true, "reason": ""}'},
        )
        recorded = gateway(script)
        outcomes = [
            recorded.grade_invocation(ENCODE_BLOCK, vuln.api_signatures[0]),
            recorded.reflection_query([ENCODE_BLOCK], vuln),
            recorded.grade_invocation(COMMENT_BLOCK, vuln.api_signatures[0]),
            recorded.reflection_query([ENCODE_BLOCK], vuln),
        ]
        replayed = gateway(ReplayChatProvider(recorded.transcript))
        assert [
            replayed.grade_invocation(ENCODE_BLOCK, vuln.api_signatures[0]),
            replayed.reflection_query([ENCODE_BLOCK], vuln),
            replayed.grade_invocation(COMMENT_BLOCK, vuln.api_signatures[0]),
            replayed.reflection_query([ENCODE_BLOCK], vuln),
        ] == outcomes
        assert [e.raw_response for e in replayed.transcript.entries] == [
            e.raw_response for e in recorded.transcript.entries
        ]

    def test_replay_covers_all_four_operations(self, vuln):
        candidate = Candidate.initial(ENCODE_BLOCK, MatchedBy.BOTH, 0.5, 0.5)
        script = scripted(
            sequences={
                RoleKind.GRADER: ['{"answer": "yes"}'],
                RoleKind.REFLECTION: ['{"complete": false, "reason": "need caller"}'],
                RoleKind.INFERENCE: [
                    '{"missing_snippet": "caller()", "scope": {"class_name": "C"}}'
                ],
                RoleKind.JUDGE: ['{"judgment": "secure", "rationale": "guarded"}'],
            }
        )
        recorded = gateway(script)
        outcomes = (
            recorded.grade_invocation(ENCODE_BLOCK, vuln.api_signatures[0]),
            recorded.reflection_query([ENCODE_BLOCK], vuln),
            recorded.code_inference([ENCODE_BLOCK], vuln, "need caller"),
            recorded.judge_reachability(candidate, vuln),
        )
        replayed = gateway(ReplayChatProvider(recorded.transcript))
        assert (
            replayed.grade_invocation(ENCODE_BLOCK, vuln.api_signatures[0]),
            replayed.reflection_query([ENCODE_BLOCK], vuln),
            replayed.code_inference([ENCODE_BLOCK], vuln, "need caller"),
            replayed.judge_reachability(candidate, vuln),
        ) == outcomes

    def test_replay_role_mismatch_is_loud(self, vuln):
        recorded = gateway(scripted(defaults={RoleKind.GRADER: '{"answer": "yes"}'}))
        recorded.grade_invocation(ENCODE_BLOCK, vuln.api_signatures[0])
        replayed = gateway(ReplayChatProvider(recorded.transcript))
        with pytest.raises(ProviderError):
            replayed.reflection_query([ENCODE_BLOCK], vuln)

    def test_replay_answers_each_question_in_any_order(self, vuln):
        recorded = gateway(
            scripted(
                rules=[(RoleKind.GRADER, "encoder.encode", '{"answer": "yes"}')],
                defaults={RoleKind.GRADER: '{"answer": "no"}'},
            )
        )
        assert recorded.grade_invocation(ENCODE_BLOCK, vuln.api_signatures[0]) is True
        assert recorded.grade_invocation(COMMENT_BLOCK, vuln.api_signatures[0]) is False
        replayed = gateway(ReplayChatProvider(recorded.transcript))
        assert replayed.grade_invocation(COMMENT_BLOCK, vuln.api_signatures[0]) is False
        assert replayed.grade_invocation(ENCODE_BLOCK, vuln.api_signatures[0]) is True

    def test_replay_of_an_unrecorded_or_used_up_question_is_loud(self, vuln):
        recorded = gateway(scripted(defaults={RoleKind.GRADER: '{"answer": "yes"}'}))
        recorded.grade_invocation(ENCODE_BLOCK, vuln.api_signatures[0])
        replayed = gateway(ReplayChatProvider(recorded.transcript))
        with pytest.raises(ProviderError, match="none recorded"):
            replayed.grade_invocation(COMMENT_BLOCK, vuln.api_signatures[0])
        replayed.grade_invocation(ENCODE_BLOCK, vuln.api_signatures[0])
        with pytest.raises(ProviderError, match="all used"):
            replayed.grade_invocation(ENCODE_BLOCK, vuln.api_signatures[0])


class CountingProvider(ScriptedChatProvider):
    def __init__(self, **kw):
        super().__init__(**kw)
        self.asked: list[tuple[RoleKind, str]] = []

    def complete(self, prompt: str, role: RoleKind) -> str:
        self.asked.append((role, prompt))
        return super().complete(prompt, role)


class TestMemoChatProvider:
    def test_repeated_prompt_reaches_provider_once_with_two_transcript_entries(self, vuln):
        inner = CountingProvider(
            sequences={
                RoleKind.REFLECTION: [
                    '{"complete": false, "reason": "need caller"}',
                    '{"complete": true, "reason": ""}',
                ]
            },
            name="inner",
            model_id="inner-model",
        )
        gw = gateway(MemoChatProvider(inner))
        first = gw.reflection_query([ENCODE_BLOCK], vuln)
        second = gw.reflection_query([ENCODE_BLOCK], vuln)
        assert first == second == (False, "need caller")  # one answer per question
        assert len(inner.asked) == 1
        entries = [e.to_dict() for e in gw.transcript.entries]
        assert [e["seq"] for e in entries] == [0, 1]
        for entry in entries:
            del entry["seq"], entry["timestamp"]
        assert entries[0] == entries[1]
        assert (entries[0]["provider_name"], entries[0]["model_id"]) == ("inner", "inner-model")

    def test_role_and_reprompt_make_distinct_questions(self):
        inner = CountingProvider(defaults={role: '{"answer": "no"}' for role in RoleKind})
        memo = MemoChatProvider(inner)
        for role, prompt in [
            (RoleKind.GRADER, "p"),
            (RoleKind.JUDGE, "p"),
            (RoleKind.GRADER, "p" + "\n\nretry"),
            (RoleKind.GRADER, "p"),
        ]:
            memo.complete(prompt, role)
        assert len(inner.asked) == 3

    def test_a_failed_call_is_not_kept(self):
        class FailsFirst(CountingProvider):
            def complete(self, prompt, role):
                response = super().complete(prompt, role)
                if len(self.asked) == 1:
                    raise ProviderError("rate limited", status=429)
                return response

        inner = FailsFirst(defaults={RoleKind.GRADER: '{"answer": "yes"}'})
        memo = MemoChatProvider(inner)
        with pytest.raises(ProviderError):
            memo.complete("p", RoleKind.GRADER)
        assert memo.complete("p", RoleKind.GRADER) == '{"answer": "yes"}'
        assert memo.complete("p", RoleKind.GRADER) == '{"answer": "yes"}'
        assert len(inner.asked) == 2

    def test_concurrent_askers_all_get_the_kept_answer(self):
        threads, questions = 8, 200
        numbers = itertools.count()

        class Numbering(ScriptedChatProvider):
            def complete(self, prompt, role):
                time.sleep(0)  # let another asker in while this one is in flight
                return f"{prompt}: answer {next(numbers)}"

        memo = MemoChatProvider(Numbering())
        start = threading.Barrier(threads, timeout=10)
        answers: list[list[str]] = [[] for _ in range(threads)]

        def ask(mine: list[str]) -> None:
            start.wait()
            mine.extend(memo.complete(f"q{k}", RoleKind.GRADER) for k in range(questions))

        workers = [threading.Thread(target=ask, args=(mine,)) for mine in answers]
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
        assert len(answers[0]) == questions
        assert all(mine == answers[0] for mine in answers)  # one answer per question


class TestTokenCountMemo:
    def test_each_distinct_text_is_counted_once_per_gateway(self, vuln):
        counted: list[str] = []

        def counter(text: str) -> int:
            counted.append(text)
            return len(text.split())

        gw = gateway(
            scripted(defaults={RoleKind.REFLECTION: '{"complete": true, "reason": ""}'}),
            token_counter=counter,
        )
        for _ in range(3):
            gw.reflection_query([ENCODE_BLOCK, COMMENT_BLOCK], vuln)
        assert counted and len(counted) == len(set(counted))
        assert gw.token_counter("a b c") == 3


class TestScriptedProvider:
    def test_exhausted_script_is_provider_error(self):
        provider = scripted(sequences={RoleKind.GRADER: ['{"answer": "yes"}']})
        provider.complete("p", RoleKind.GRADER)
        with pytest.raises(ProviderError):
            provider.complete("p", RoleKind.GRADER)

    def test_from_file_accepts_objects_and_strings(self, tmp_path: Path):
        path = tmp_path / "script.json"
        path.write_text(
            json.dumps(
                {
                    "sequences": {"grader": [{"answer": "yes"}]},
                    "rules": [{"role": "judge", "contains": "x", "response": '{"judgment": "secure", "rationale": "r"}'}],
                    "defaults": {"reflection": {"complete": True, "reason": ""}},
                }
            )
        )
        provider = ScriptedChatProvider.from_file(path)
        assert json.loads(provider.complete("p", RoleKind.GRADER)) == {"answer": "yes"}
        assert json.loads(provider.complete("has x", RoleKind.JUDGE))["judgment"] == "secure"
        assert json.loads(provider.complete("p", RoleKind.REFLECTION))["complete"] is True

    def test_fixture_script_loads(self):
        provider = ScriptedChatProvider.from_file(FIXTURES / "chat_script.json")
        assert json.loads(provider.complete("calls a.encode(x)", RoleKind.GRADER)) == {
            "answer": "yes"
        }


class TestContextPacking:
    def test_small_window_truncates_with_marker(self, vuln):
        blocks = [ENCODE_BLOCK] + [
            make_block(
                file_path=f"src/C{i}.java",
                line_start=1,
                line_end=3,
                source=f"void helper{i}() {{\n    work({i});\n}}\n" * 4,
                node_kind=NodeKind.METHOD_DECLARATION,
                enclosing_class=f"C{i}",
                enclosing_method=f"helper{i}",
                size=40,
            )
            for i in range(4)
        ]
        provider = scripted(
            defaults={RoleKind.REFLECTION: '{"complete": true, "reason": ""}'},
            context_window=60,
        )
        gw = gateway(provider)
        packed = gw._pack_context(blocks, budget=50)
        assert "context truncated" in packed
        assert ENCODE_BLOCK.source.splitlines()[0] in packed  # anchor always present

    def test_recency_order_anchor_first(self):
        blocks = [ENCODE_BLOCK] + [
            make_block(
                file_path=f"src/R{i}.java",
                line_start=1,
                line_end=1,
                source=f"int r{i};\n",
                node_kind=NodeKind.FIELD_DECLARATION,
                enclosing_class=f"R{i}",
                size=4,
            )
            for i in range(3)
        ]
        gw = gateway(scripted())
        packed = gw._pack_context(blocks, budget=10_000)
        positions = [packed.index(f"src/R{i}.java") for i in range(3)]
        assert packed.index("src/T.java") < min(positions)  # anchor first
        assert positions[2] < positions[1] < positions[0]  # most recent first
