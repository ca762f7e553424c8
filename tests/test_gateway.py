import dataclasses
import itertools
import json
import re
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, JAVA_SOURCES, CountingProvider, make_block, record_token_counts
from vulnreach.errors import ConfigError, MalformedResponse, ProviderError
from vulnreach.gateway import (
    REPROMPT_SUFFIX,
    ROLE_BINDINGS,
    ChatGateway,
    PromptLibrary,
    PromptTemplate,
    ReplayChatProvider,
    RoleKind,
    ScriptedChatProvider,
    Transcript,
    TranscriptEntry,
    extract_json_object,
)
from vulnreach.memo import Memo
from vulnreach.javaparse import parse_source
from vulnreach.model import Candidate, Config, Judgment, MatchedBy, NodeKind, VulnSpec
from vulnreach.segmenter import segment_unit
from vulnreach.tokenizer import DEFAULT_TOKENIZER


def scripted(**kw) -> ScriptedChatProvider:
    return ScriptedChatProvider(**kw)


def gateway(provider, **kw) -> ChatGateway:
    return ChatGateway(provider, transcript=Transcript(), **kw)


def pack(gw: ChatGateway, blocks, budget: int) -> str:
    return "".join(gw._pack_parts(blocks, budget))


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
        template = PromptTemplate(RoleKind.GRADER, "Block: {{code}}\nApi: {{api}}")
        rendered = "".join(
            template.parts({"code": "int xformat() { return \"{{}}\"; }", "api": "a#b()"})
        )
        assert "int x" in rendered and "a#b()" in rendered
        assert "{{code}}" not in rendered

    def test_unbound_placeholder_rejected(self):
        template = PromptTemplate(RoleKind.GRADER, "{{code}} {{api}}")
        with pytest.raises(ConfigError):
            template.parts({"code": "x"})

    def test_values_with_braces_do_not_confuse_rendering(self):
        template = PromptTemplate(RoleKind.GRADER, "{{code}}")
        assert "".join(template.parts({"code": "{{not_a_marker}}"})) == "{{not_a_marker}}"

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
        a = PromptTemplate(RoleKind.GRADER, "abc")
        b = PromptTemplate(RoleKind.GRADER, "abc")
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

    def test_a_deep_run_of_closed_invalid_objects_fails_fast(self):
        # Every brace closes, and each decode fails at "2" or past the
        # recursion limit: about 2 s when every brace was decoded.
        text = '{"a": ' * 20000 + "1 2" + "}" * 20000
        start = time.perf_counter()
        with pytest.raises(MalformedResponse):
            extract_json_object(text)
        assert time.perf_counter() - start < 1.0

    def test_a_failed_decode_rules_out_only_the_objects_it_left_open(self):
        # The decode from the first brace fails at "x": the object it closed
        # before that still decodes.
        assert extract_json_object('{"a": {"b": 1} x}') == {"b": 1}
        # Here it reads the string "{" and fails at the a after it; the
        # brace inside that string opens an object that decodes.
        assert extract_json_object('{"k": "{"a": "b"}') == {"a": "b"}

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
        # The grown context is a new question; the same one would be a memo hit.
        assert gw.reflection_query([ENCODE_BLOCK, COMMENT_BLOCK], vuln) == (True, "")

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
        path = tmp_path / "t.jsonl"
        with Transcript(sink_path=path) as transcript:
            gw = ChatGateway(
                scripted(defaults={RoleKind.GRADER: '{"answer": "no"}'}), transcript=transcript
            )
            gw.grade_invocation(ENCODE_BLOCK, vuln.api_signatures[0])
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
        replay = ReplayChatProvider(recorded.transcript)
        replayed = gateway(replay)
        with pytest.raises(ProviderError, match="none recorded"):
            replayed.grade_invocation(COMMENT_BLOCK, vuln.api_signatures[0])
        replayed.grade_invocation(ENCODE_BLOCK, vuln.api_signatures[0])
        # A gateway with its own memo asks the replay again.
        with pytest.raises(ProviderError, match="all used"):
            gateway(replay).grade_invocation(ENCODE_BLOCK, vuln.api_signatures[0])


class TestMemoChatProvider:
    """Chat answers through a memo: a gateway's, or the memo asked directly."""

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
        gw = gateway(inner, memo=Memo())
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
        memo = Memo()
        for role, prompt in [
            (RoleKind.GRADER, "p"),
            (RoleKind.JUDGE, "p"),
            (RoleKind.GRADER, "p" + "\n\nretry"),
            (RoleKind.GRADER, "p"),
        ]:
            memo.complete(inner, prompt, role)
        assert len(inner.asked) == 3

    def test_a_failed_call_is_not_kept(self):
        class FailsFirst(CountingProvider):
            def complete(self, prompt, role):
                response = super().complete(prompt, role)
                if len(self.asked) == 1:
                    raise ProviderError("rate limited", status=429)
                return response

        inner = FailsFirst(defaults={RoleKind.GRADER: '{"answer": "yes"}'})
        memo = Memo()
        with pytest.raises(ProviderError):
            memo.complete(inner, "p", RoleKind.GRADER)
        assert memo.complete(inner, "p", RoleKind.GRADER) == '{"answer": "yes"}'
        assert memo.complete(inner, "p", RoleKind.GRADER) == '{"answer": "yes"}'
        assert len(inner.asked) == 2

    def test_concurrent_askers_all_get_the_kept_answer(self):
        threads, questions = 8, 200
        numbers = itertools.count()

        class Numbering(ScriptedChatProvider):
            def complete(self, prompt, role):
                time.sleep(0)  # let another asker in while this one is in flight
                return f"{prompt}: answer {next(numbers)}"

        memo, numbering = Memo(), Numbering()
        start = threading.Barrier(threads, timeout=10)
        answers: list[list[str]] = [[] for _ in range(threads)]

        def ask(mine: list[str]) -> None:
            start.wait()
            mine.extend(memo.complete(numbering, f"q{k}", RoleKind.GRADER) for k in range(questions))

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
    def test_each_distinct_text_is_counted_once_per_gateway(self, vuln, monkeypatch):
        counted = record_token_counts(monkeypatch)
        gw = gateway(scripted(defaults={RoleKind.REFLECTION: '{"complete": true, "reason": ""}'}))
        for _ in range(3):
            gw.reflection_query([ENCODE_BLOCK, COMMENT_BLOCK], vuln)
        assert counted and len(counted) == len(set(counted))
        assert gw.memo.count_tokens("a b c") == 3


    def test_gateways_behind_one_memo_count_each_text_once(self, vuln, monkeypatch):
        counted = record_token_counts(monkeypatch)
        answers = {
            RoleKind.REFLECTION: '{"complete": true, "reason": ""}',
            RoleKind.JUDGE: '{"judgment": "secure", "rationale": "guarded"}',
        }
        candidate = Candidate.initial(ENCODE_BLOCK, MatchedBy.BOTH, 0.5, 0.5).extend_context(
            [COMMENT_BLOCK]
        )

        def run(memos: list[Memo]) -> list[str]:
            prompts = []
            for memo in memos:
                gw = gateway(scripted(defaults=answers), memo=memo)
                gw.reflection_query([ENCODE_BLOCK, COMMENT_BLOCK], vuln)
                gw.judge_reachability(candidate, vuln)
                prompts.extend(e.rendered_prompt for e in gw.transcript.entries)
            return prompts

        separate = run([Memo(), Memo()])
        assert len(counted) > len(set(counted))  # each gateway counted the same texts
        counted.clear()
        shared = Memo()
        assert run([shared, shared]) == separate
        assert counted and len(counted) == len(set(counted))


class TestChatRetry:
    """A chat call is retried, like an embedding batch, only when it failed
    in a way that may pass: no connection, 408, 429 or 5xx."""

    @pytest.fixture()
    def sleeps(self, monkeypatch) -> list[float]:
        delays: list[float] = []
        monkeypatch.setattr(time, "sleep", delays.append)
        return delays

    @staticmethod
    def failing(*errors: ProviderError) -> CountingProvider:
        class Failing(CountingProvider):
            def complete(self, prompt, role):
                self.asked.append((role, prompt))
                if len(self.asked) <= len(errors):
                    raise errors[len(self.asked) - 1]
                return ScriptedChatProvider.complete(self, prompt, role)

        return Failing(defaults={RoleKind.GRADER: '{"answer": "yes"}'})

    @pytest.mark.parametrize("status", [429, 503])
    @pytest.mark.parametrize("given_memo", [False, True], ids=["bare", "memo"])
    def test_a_transient_failure_then_an_answer_is_one_entry(
        self, vuln, sleeps, status, given_memo
    ):
        clean = gateway(scripted(defaults={RoleKind.GRADER: '{"answer": "yes"}'}))
        expected = clean.grade_invocation(ENCODE_BLOCK, vuln.api_signatures[0])
        provider = self.failing(ProviderError("busy", status=status))
        gw = gateway(provider, memo=Memo()) if given_memo else gateway(provider)
        assert gw.grade_invocation(ENCODE_BLOCK, vuln.api_signatures[0]) is expected is True
        assert len(provider.asked) == 2 and sleeps == [0.5]
        assert [e.rendered_prompt for e in gw.transcript.entries] == [
            e.rendered_prompt for e in clean.transcript.entries
        ]

    def test_an_unauthorized_call_fails_at_once(self, vuln, sleeps):
        error = ProviderError("unauthorized", status=401)
        provider = self.failing(error)
        gw = gateway(provider)
        with pytest.raises(ProviderError) as raised:
            gw.grade_invocation(ENCODE_BLOCK, vuln.api_signatures[0])
        assert raised.value is error
        assert len(provider.asked) == 1 and sleeps == [] and len(gw.transcript) == 0

    def test_a_replay_miss_fails_at_once(self, vuln, sleeps):
        replayed = gateway(ReplayChatProvider(Transcript()))
        with pytest.raises(ProviderError, match="none recorded"):
            replayed.grade_invocation(ENCODE_BLOCK, vuln.api_signatures[0])
        assert sleeps == [] and len(replayed.transcript) == 0


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
        packed = pack(gw, blocks, budget=50)
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
        packed = pack(gw, blocks, budget=10_000)
        positions = [packed.index(f"src/R{i}.java") for i in range(3)]
        assert packed.index("src/T.java") < min(positions)  # anchor first
        assert positions[2] < positions[1] < positions[0]  # most recent first


# A field block whose stored size claims far more tokens than its text holds.
OVERSTATED_BLOCK = make_block(
    file_path="src/O.java",
    line_start=1,
    line_end=1,
    source="int o;\n",
    node_kind=NodeKind.FIELD_DECLARATION,
    enclosing_class="O",
    size=10_000,
)


class TestPackingCost:
    def test_default_counting_costs_a_block_by_its_stored_size(self):
        packed = pack(gateway(scripted()), [ENCODE_BLOCK, OVERSTATED_BLOCK], budget=1_000)
        assert "[context truncated: 1 retrieved block(s) omitted]" in packed

    def test_a_block_without_a_stored_size_is_counted(self):
        unsized = make_block(
            file_path="src/U.java",
            source="int u;\n" * 400,  # 1,200 tokens
            node_kind=NodeKind.FIELD_DECLARATION,
            size=0,
        )
        gw = gateway(scripted())
        assert "1 retrieved block(s) omitted" in pack(gw, [ENCODE_BLOCK, unsized], 1_000)
        assert "context truncated" not in pack(gw, [ENCODE_BLOCK, unsized], 1_300)

    @settings(max_examples=80, deadline=None)
    @given(JAVA_SOURCES, st.integers(0, 300))
    def test_segmented_blocks_pack_as_if_every_text_were_counted(self, source, budget):
        # A header ends in a newline and no lexeme holds whitespace, so the
        # stored size gives the very truncation that counting the text does.
        blocks = segment_unit(parse_source("src/F.java", source)[0], Config(theta=5))
        by_size = pack(gateway(scripted()), blocks, budget)
        unsized = [dataclasses.replace(block, size=0) for block in blocks]
        assert by_size == pack(gateway(scripted()), unsized, budget)


class TestMalformedReplies:
    @pytest.mark.parametrize(
        "role, ask, subject",
        [
            (RoleKind.GRADER, lambda gw, v: gw.grade_invocation(ENCODE_BLOCK, "x"), "block"),
            (RoleKind.REFLECTION, lambda gw, v: gw.reflection_query([ENCODE_BLOCK], v), "candidate"),
            (RoleKind.INFERENCE, lambda gw, v: gw.code_inference([ENCODE_BLOCK], v, "why"), "candidate"),
            (
                RoleKind.JUDGE,
                lambda gw, v: gw.judge_reachability(
                    Candidate.initial(ENCODE_BLOCK, MatchedBy.BOTH, 0.5, 0.5), v
                ),
                "candidate",
            ),
        ],
    )
    def test_error_names_the_role_and_block_after_one_reprompt(self, vuln, role, ask, subject):
        provider = CountingProvider(defaults={role: "I cannot tell."})
        with pytest.raises(MalformedResponse) as raised:
            ask(gateway(provider), vuln)
        message = str(raised.value)
        assert message.startswith(f"{role.value} reply for {subject} {ENCODE_BLOCK.id}")
        assert "I cannot tell." in message and "\n" not in message
        # Asked and reprompted once; a parse failure is never retried as a
        # transient provider failure.
        assert [asked_role for asked_role, _ in provider.asked] == [role, role]

    def test_a_long_unclosed_run_of_objects_fails_fast(self):
        text = "Sure: " + '{"a": ' * 20000
        start = time.perf_counter()
        with pytest.raises(MalformedResponse):
            extract_json_object(text)
        assert time.perf_counter() - start < 0.05  # decoding from every brace took over 1 s
        closed_once = '{"a": ' * 20000 + '{"answer": "yes"}'
        assert extract_json_object(closed_once) == {"answer": "yes"}


_MARKER = re.compile(r"\{\{(\w+)\}\}")


def reference_render(text: str, bindings: dict[str, str]) -> str:
    """The regex-substitution renderer templates were split to replace."""
    missing = set(_MARKER.findall(text)) - set(bindings)
    if missing:
        raise ConfigError(f"unbound placeholders {sorted(missing)}")
    return _MARKER.sub(lambda m: str(bindings[m.group(1)]), text)


_TEMPLATE_BITS = [
    "{{a}}", "{{b}}", "{{ab}}", "{{_1}}", "{{a}", "{a}}", "{{", "}}", "{", "}", "a", "b", " ",
    "\n", "\\", "\\1", "\\g<0>", "é", "{{ a }}", "{{a-b}}",
]
_NAMES = ["a", "b", "ab", "_1"]


class TestSplitTemplates:
    @settings(max_examples=400, deadline=None)
    @given(
        st.lists(st.sampled_from(_TEMPLATE_BITS), max_size=12).map("".join),
        st.dictionaries(
            st.sampled_from(_NAMES), st.lists(st.sampled_from(_TEMPLATE_BITS), max_size=5).map("".join)
        ),
    )
    def test_render_equals_the_substitution_renderer(self, text, bindings):
        template = PromptTemplate(RoleKind.GRADER, text)
        try:
            expected = reference_render(text, bindings)
        except ConfigError:
            with pytest.raises(ConfigError):
                "".join(template.parts(bindings))
            return
        assert "".join(template.parts(bindings)) == expected
        assert template.placeholders() == set(_MARKER.findall(text))

    def test_a_sequence_value_contributes_its_parts(self):
        template = PromptTemplate(RoleKind.JUDGE, "A {{x}} B {{y}}")
        assert template.parts({"x": ["1", "{{y}}"], "y": "2"}) == ["A ", "1", "{{y}}", " B ", "2", ""]

    @pytest.mark.parametrize("role", list(RoleKind))
    def test_the_bundled_templates_place_exactly_the_supplied_bindings(self, role):
        assert PromptLibrary.bundled().get(role).placeholders() == ROLE_BINDINGS[role]

    @pytest.mark.parametrize(
        "role, name", [(role, name) for role in RoleKind for name in sorted(ROLE_BINDINGS[role])]
    )
    def test_a_library_leaving_out_a_binding_is_refused(self, tmp_path: Path, role, name):
        bundled = PromptLibrary.bundled()
        for other in RoleKind:
            text = bundled.get(other).template_text
            if other is role:
                text = text.replace("{{%s}}" % name, "")
            (tmp_path / f"{other.value}.txt").write_text(text, encoding="utf-8")
        library = PromptLibrary.from_dir(tmp_path)
        for refuse in (lambda: ChatGateway(scripted(), library), lambda: PromptLibrary.load(tmp_path)):
            with pytest.raises(ConfigError, match=f"{role.value} template leaves out .*'{name}'"):
                refuse()


_PART = st.text(st.characters(blacklist_categories=()), max_size=12)
_SCOPE = st.dictionaries(st.sampled_from(["class_name", "method_name", "file_glob"]), _PART)
_PARSED = st.one_of(
    st.sampled_from([True, False, None]),
    st.fixed_dictionaries({"complete": st.booleans(), "reason": _PART}),
    st.fixed_dictionaries({"missing_snippet": _PART, "scope": _SCOPE}),
    st.fixed_dictionaries({"judgment": st.sampled_from(["vulnerable", "secure"]), "rationale": _PART}),
)
# Parts repeat across a transcript's calls, as template text and blocks do.
_SHARED_PARTS = ["\ud835", "\udd18", "𝔘", "\x00\x1f\x7f", '"\\/', "", "plain text\n"]
_CALL = st.tuples(
    st.sampled_from(list(RoleKind)),
    _PART, _PART, _PART, _PART,
    st.lists(st.one_of(st.sampled_from(_SHARED_PARTS), _PART), max_size=8),
    _PARSED,
)


def as_loaded(entry: TranscriptEntry) -> TranscriptEntry:
    """The entry as JSON reads it back: a high and a low surrogate that
    stand next to each other load as the one character they encode."""

    def paired(value):
        if isinstance(value, str):
            return value.encode("utf-16-le", "surrogatepass").decode("utf-16-le", "surrogatepass")
        return {k: paired(v) for k, v in value.items()} if isinstance(value, dict) else value

    return TranscriptEntry(*map(paired, entry))


class TestTranscriptLines:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_CALL, min_size=1, max_size=4), _PART)
    @example([(RoleKind.JUDGE, "p", "m", "h", "r", ["a\ud835", "\udd18b"], None)], "\ud835")
    def test_each_line_is_json_dumps_of_its_entry_and_loads_back(self, calls, timestamp):
        with tempfile.TemporaryDirectory() as tmp:
            sink = Path(tmp, "sink.jsonl")
            with Transcript(sink_path=sink) as transcript:
                entries = [
                    transcript.append(role, name, model, h, "".join(parts), raw, parsed, parts)
                    for role, name, model, h, raw, parts, parsed in calls
                ]
            lines = sink.read_text(encoding="utf-8").splitlines(keepends=True)
            assert lines == [json.dumps(e.to_dict(), sort_keys=True) + "\n" for e in entries]
            assert Transcript.load(sink).entries == tuple(map(as_loaded, entries))
        # Any string timestamp, through the line writer the sink uses.
        for entry in entries:
            stamped = entry._replace(timestamp=timestamp)
            line = stamped.json_line(json.encoder.encode_basestring_ascii(stamped.rendered_prompt)[1:-1])
            assert line == json.dumps(stamped.to_dict(), sort_keys=True) + "\n"
            assert TranscriptEntry.from_dict(json.loads(line)) == as_loaded(stamped)

    def test_each_prompt_is_recorded_as_the_join_of_its_parts(self, vuln):
        recorded: list[list[str]] = []

        class PartsTranscript(Transcript):
            def append(self, *args):
                recorded.append(list(args[7]))
                return super().append(*args)

        context = (ENCODE_BLOCK, OVERSTATED_BLOCK, COMMENT_BLOCK)
        candidate = Candidate(ENCODE_BLOCK, context, MatchedBy.BOTH, 0.5, 0.5)
        provider = four_role_script(context_window=2_000)
        gw = ChatGateway(provider, transcript=PartsTranscript())
        ask_every_role(gw, vuln, candidate)
        entries = gw.transcript.entries
        assert [e.rendered_prompt for e in entries] == ["".join(parts) for parts in recorded]
        # Every prompt is the template rendered with the joined context.
        library = PromptLibrary.bundled()
        judge = library.get(RoleKind.JUDGE).template_text
        fixed = {
            "api_signatures": "\n".join(vuln.api_signatures),
            "pov_test_source": vuln.pov_test_source,
        }
        reserved = 256 + sum(map(DEFAULT_TOKENIZER.count, [judge, *fixed.values()]))
        packed = pack(gw, context, 2_000 - reserved)
        assert "context truncated: 1" in packed and ENCODE_BLOCK.source in recorded[-1]
        assert entries[-1].rendered_prompt == reference_render(judge, {**fixed, "context": packed})
        # The malformed first reflection answer was asked again with the suffix.
        assert recorded[2][-1] == REPROMPT_SUFFIX and recorded[2][:-1] == recorded[1]


def four_role_script(**kw) -> ScriptedChatProvider:
    return scripted(
        sequences={
            RoleKind.GRADER: ['{"answer": "yes"}'],
            RoleKind.REFLECTION: ["not json", '{"complete": false, "reason": "need caller"}'],
            RoleKind.INFERENCE: ['{"missing_snippet": "caller()", "scope": {"class_name": "C"}}'],
            RoleKind.JUDGE: ['{"judgment": "secure", "rationale": "guarded"}'],
        },
        **kw,
    )


def ask_every_role(gw: ChatGateway, vuln: VulnSpec, candidate: Candidate) -> None:
    gw.grade_invocation(ENCODE_BLOCK, vuln.api_signatures[0])
    gw.reflection_query(candidate.context, vuln)
    gw.code_inference(candidate.context, vuln, "need caller")
    gw.judge_reachability(candidate, vuln)
