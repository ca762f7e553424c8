"""Uniform interface to chat-model providers for the four prompt roles.

The pipeline talks to one :class:`ChatGateway`, which renders versioned
templates, retries transient provider failures, enforces structured (JSON)
responses with a single automatic reprompt before failing hard, packs
candidate context into the provider window, asks the provider each
distinct question once through its memo, and appends one transcript entry
per answered call. A scripted provider and a replay provider make the
whole pipeline a pure function of its inputs for offline and regression
runs.

A call renders once: a template is split into literal runs and markers
when first used, and a prompt travels as its parts (literal runs, bound
values, each packed block's header and source), joined once for the
provider, the memo and the entry. The transcript writes each entry as one
JSON line: its fields by name, with sorted keys and ``role_kind`` as its
value, which ``TranscriptEntry.from_dict`` reads back.

A call does only per-call work. A command splits and hashes each template
once; a role keeps its JSON string and memo key prefix; a gateway keeps each
block's header and cost, and each (role, vulnerability, reason)'s bindings
and the tokens they reserve; a transcript escapes each distinct part and
formats each second of its timestamps once.
"""

from __future__ import annotations

import functools
import hashlib
import json
import re
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Any, Callable, Mapping, NamedTuple, Protocol, Sequence, TextIO

from .embedding import call_with_retry, post_json
from .errors import ConfigError, MalformedResponse, ProviderError
from .memo import Memo
from .model import Candidate, CodeBlock, Judgment, VulnSpec, checked_str
from .store import ScopeFilter

_PLACEHOLDER = re.compile(r"\{\{(\w+)\}\}")
_TRUNCATION_MARGIN = 256
_escape = json.encoder.encode_basestring_ascii
# The C encoder json.dumps(value, sort_keys=True) builds per call, built once; no cycle check.
_encode_sorted = json.encoder.c_make_encoder(
    None, json.JSONEncoder().default, _escape, None, ": ", ", ", True, False, True
)
_DECODER = json.JSONDecoder()

REPROMPT_SUFFIX = (
    "\n\nYour previous reply could not be parsed. Respond again with ONLY the "
    "JSON object in the requested form, with no surrounding prose."
)


class RoleKind(str, Enum):
    GRADER = "grader"
    REFLECTION = "reflection"
    INFERENCE = "inference"
    JUDGE = "judge"

    # The role as a JSON string, and what a memo key of a question in the role starts with.
    escaped = functools.cached_property(lambda self: _escape(self.value))
    key_prefix = functools.cached_property(lambda self: f"{self.value}\0".encode())


_IN_CONTEXT = frozenset({"api_signatures", "pov_test_source", "context"})
#: The bindings the gateway supplies per role; a template must place each.
ROLE_BINDINGS: dict[RoleKind, frozenset[str]] = {
    RoleKind.GRADER: frozenset({"file_path", "line_range", "block_source", "api_signature"}),
    RoleKind.REFLECTION: _IN_CONTEXT,
    RoleKind.INFERENCE: _IN_CONTEXT | {"reason"},
    RoleKind.JUDGE: _IN_CONTEXT,
}


@dataclass(frozen=True)
class PromptTemplate:
    role_kind: RoleKind
    template_text: str

    @functools.cached_property
    def _split(self) -> tuple[str, list[tuple[str, str]]]:
        head, *rest = _PLACEHOLDER.split(self.template_text)
        return head, list(zip(rest[0::2], rest[1::2]))

    def placeholders(self) -> set[str]:
        return {name for name, _ in self._split[1]}

    def parts(self, bindings: Mapping[str, str | Sequence[str]]) -> list[str]:
        """The rendered prompt as the template's literal runs (split once, so no
        bound value is scanned for markers) and the bound values, a sequence
        value contributing its parts."""
        head, marks = self._split
        parts = [head]
        try:
            for name, literal in marks:
                value = bindings[name]
                parts += (value, literal) if isinstance(value, str) else (*value, literal)
        except KeyError:
            missing = sorted(self.placeholders() - bindings.keys())
            raise ConfigError(f"{self.role_kind.value} template: unbound placeholders {missing}") from None
        return parts

    @functools.cached_property
    def sha256(self) -> str:
        return hashlib.sha256(self.template_text.encode("utf-8")).hexdigest()[:16]


class PromptLibrary:
    """The four role templates, each placing exactly the bindings the
    gateway supplies for its role: a binding left out is input the model
    never sees, and any other placeholder could never be bound."""

    def __init__(self, templates: Mapping[RoleKind, PromptTemplate]):
        for role, names in ROLE_BINDINGS.items():
            if role not in templates:
                raise ConfigError(f"missing prompt template for role {role.value}")
            placed = templates[role].placeholders()
            for wrong, what in ((names - placed, "leaves out"), (placed - names, "places unknown")):
                if wrong:
                    raise ConfigError(f"{role.value} template {what} placeholders {sorted(wrong)}")
        self.templates = dict(templates)

    @classmethod
    def load(cls, prompts_dir: Path | str | None = None) -> "PromptLibrary":
        """The ``<role>.txt`` templates in ``prompts_dir``, or the bundled
        ones without it."""
        root = Path(prompts_dir) if prompts_dir else resources.files("vulnreach") / "prompts"
        templates = {}
        for role in RoleKind:
            path = root / f"{role.value}.txt"
            if not path.is_file():
                raise ConfigError(f"prompt template not found: {path}")
            templates[role] = PromptTemplate(role, path.read_text("utf-8"))
        return cls(templates)


_ENTRY_STRINGS = ("provider_name", "model_id", "template_hash", "rendered_prompt", "raw_response", "timestamp")


class TranscriptEntry(NamedTuple):
    # A NamedTuple: one is built per model call, and tuples build several times faster.
    seq: int
    role_kind: RoleKind
    provider_name: str
    model_id: str
    template_hash: str
    rendered_prompt: str
    raw_response: str
    parsed_response: Any
    timestamp: str

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "TranscriptEntry":
        """The entry a ``json_line`` holds. A value of another JSON type is a
        ``ConfigError`` naming its key, not cast: ``str()`` of an object
        response would replay its Python repr."""
        seq = raw["seq"]
        if type(seq) is not int:
            raise ConfigError(f"seq must be an integer, got {seq!r}")
        return cls(
            seq=seq,
            role_kind=RoleKind(raw["role_kind"]),
            parsed_response=raw.get("parsed_response"),
            **{key: checked_str(raw[key], key) for key in _ENTRY_STRINGS},
        )

    def json_line(self, prompt: str) -> str:
        """The entry as one JSON object with sorted keys and ``role_kind`` as
        its value, + newline; ``prompt`` comes escaped, unquoted."""
        e = _escape
        return (
            f'{{"model_id": {e(self.model_id)}, "parsed_response": {"".join(_encode_sorted(self.parsed_response, 0))},'
            f' "provider_name": {e(self.provider_name)}, "raw_response": {e(self.raw_response)},'
            f' "rendered_prompt": "{prompt}", "role_kind": {self.role_kind.escaped}, "seq": {self.seq},'
            f' "template_hash": {e(self.template_hash)}, "timestamp": {e(self.timestamp)}}}\n'
        )


class Transcript:
    """Append-only record of every provider interaction.

    When bound to a sink path, whose directory must exist, the sink is
    created at once and each entry is written and flushed as one JSON line
    the moment it lands, so an aborted run still leaves a usable partial
    transcript. A file already at the path is unlinked, not truncated:
    another name linked to it keeps its bytes. The sink stays open until
    :meth:`close` (or the end of a ``with`` block). Appends are
    synchronized; sequence numbers are monotone. A transcript escapes each
    distinct prompt part once, and formats each second of its timestamps once.
    """

    def __init__(self, sink_path: Path | str | None = None):
        self._entries: list[TranscriptEntry] = []
        self._lock = threading.Lock()
        self.sink_path = Path(sink_path) if sink_path is not None else None
        self._sink: TextIO | None = None
        if self.sink_path is not None:
            self.sink_path.unlink(missing_ok=True)
            self._sink = self.sink_path.open("w", encoding="utf-8")
        # Prompts share template text, vulnerability text and blocks: each part is escaped
        # once. JSON escapes code point by code point, so escaped parts join to the whole.
        self._escaped = functools.lru_cache(maxsize=None)(lambda part: _escape(part)[1:-1])
        # The last stamped UTC second, and its isoformat() up to the "+00:00".
        self._second: tuple[int, str] = (-1, "")

    def _timestamp(self) -> str:
        """``datetime.now(timezone.utc).isoformat()``, which has no fraction at 0 µs."""
        second, nanos = divmod(time.time_ns(), 1_000_000_000)
        if second != self._second[0]:
            self._second = (second, datetime.fromtimestamp(second, timezone.utc).isoformat()[:-6])
        micros = nanos // 1000
        return f"{self._second[1]}.{micros:06d}+00:00" if micros else f"{self._second[1]}+00:00"

    def append(
        self,
        role_kind: RoleKind,
        provider_name: str,
        model_id: str,
        template_hash: str,
        rendered_prompt: str,
        raw_response: str,
        parsed_response: Any,
        parts: Sequence[str],
    ) -> TranscriptEntry:
        """Record one answered call; ``parts`` join to ``rendered_prompt``."""
        with self._lock:
            entry = TranscriptEntry(
                len(self._entries), role_kind, provider_name, model_id, template_hash,
                rendered_prompt, raw_response, parsed_response, self._timestamp(),
            )
            if self._sink is not None:
                prompt = "".join(map(self._escaped, parts))
                # Raises once the transcript is closed.
                self._sink.write(entry.json_line(prompt))
                self._sink.flush()
            self._entries.append(entry)
            return entry

    def close(self) -> None:
        with self._lock:
            if self._sink is not None:
                self._sink.close()
            self._escaped.cache_clear()

    def __enter__(self) -> "Transcript":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def entries(self) -> tuple[TranscriptEntry, ...]:
        with self._lock:
            return tuple(self._entries)

    @classmethod
    def load(cls, path: Path | str) -> "Transcript":
        """The entries recorded at ``path``, refusing a line that is not one,
        such as the torn last line of an aborted run."""
        transcript = cls()
        # Bytes, so a line that is not UTF-8 is refused as its own line.
        with Path(path).open("rb") as fh:
            for number, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                try:
                    entry = TranscriptEntry.from_dict(json.loads(line.decode("utf-8")))
                except (KeyError, TypeError, ValueError, ConfigError) as exc:
                    raise ConfigError(
                        f"transcript {path} line {number} is not a recorded entry:"
                        f" {type(exc).__name__}: {exc}"
                    ) from exc
                transcript._entries.append(entry)
        return transcript


class ChatProvider(Protocol):
    """What the gateway reads of a provider."""

    name: str
    model_id: str
    context_window: int

    def complete(self, prompt: str, role: RoleKind) -> str: ...


class ScriptedChatProvider:
    """Deterministic provider for offline runs and tests.

    Resolution order per call: the next queued response for the role, then
    the first matching substring rule, then the role default. Exhaustion is
    a provider error, never a silent answer.
    """

    def __init__(
        self,
        sequences: Mapping[RoleKind, Sequence[str]] | None = None,
        rules: Sequence[tuple[RoleKind | None, str, str]] | None = None,
        defaults: Mapping[RoleKind, str] | None = None,
        name: str = "scripted",
        model_id: str = "scripted",
        context_window: int = 1_000_000,
    ):
        self.name = name
        self.model_id = model_id
        self.context_window = context_window
        self._sequences = {role: deque(items) for role, items in (sequences or {}).items()}
        self._rules = list(rules or [])
        self._defaults = dict(defaults or {})
        self._lock = threading.Lock()

    @staticmethod
    def _coerce(value: Any) -> str:
        return value if isinstance(value, str) else json.dumps(value)

    @classmethod
    def from_file(cls, path: Path | str) -> "ScriptedChatProvider":
        """Read a chat script: a JSON object whose optional ``sequences`` maps
        roles to arrays of responses, ``rules`` is an array of objects with a
        string ``contains``, ``response`` and an optional ``role``, and
        ``defaults`` maps roles to responses. Any other shape raises
        ``ValueError`` saying what is wrong with it."""
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(raw, dict):
            raise ValueError(f"the top level is a {type(raw).__name__}, not a dict")
        for key, kind in (("sequences", dict), ("rules", list), ("defaults", dict)):
            if not isinstance(raw.get(key, kind()), kind):
                raise ValueError(f"{key!r} is a {type(raw[key]).__name__}, not a {kind.__name__}")
        for role, items in raw.get("sequences", {}).items():
            if not isinstance(items, list):
                raise ValueError(f"sequence {role!r} is a {type(items).__name__}, not a list")
        for number, rule in enumerate(raw.get("rules", [])):
            if not isinstance(rule, dict) or not {"contains", "response"} <= rule.keys():
                raise ValueError(f"rule {number} is not a dict with 'contains' and 'response'")
            if not isinstance(rule["contains"], str):
                raise ValueError(f"rule {number} 'contains' is a {type(rule['contains']).__name__}, not a str")
        sequences = {
            RoleKind(role): [cls._coerce(v) for v in items]
            for role, items in raw.get("sequences", {}).items()
        }
        rules = [
            (
                RoleKind(rule["role"]) if rule.get("role") is not None else None,
                rule["contains"],
                cls._coerce(rule["response"]),
            )
            for rule in raw.get("rules", [])
        ]
        defaults = {
            RoleKind(role): cls._coerce(v) for role, v in raw.get("defaults", {}).items()
        }
        return cls(sequences=sequences, rules=rules, defaults=defaults)

    def complete(self, prompt: str, role: RoleKind) -> str:
        with self._lock:
            queue = self._sequences.get(role)
            if queue:
                return queue.popleft()
            for rule_role, needle, response in self._rules:
                if (rule_role is None or rule_role is role) and needle in prompt:
                    return response
            if role in self._defaults:
                return self._defaults[role]
            raise ProviderError(f"scripted provider has no response for role {role.value}")


class ReplayChatProvider:
    """Replays a recorded transcript by question, not by position.

    Each call gets the next recorded response for its own (role, prompt),
    first recorded first, so calls may arrive in any order: a run recorded
    at one parallelism replays at any other. A question with no recorded
    response left is a provider error, never another question's answer.
    """

    def __init__(self, transcript: Transcript):
        self.name = "replay"
        self.model_id = "replay"
        self.context_window = 1_000_000
        self._recorded: dict[tuple[RoleKind, str], deque[str]] = {}
        for entry in transcript.entries:
            key = (entry.role_kind, entry.rendered_prompt)
            self._recorded.setdefault(key, deque()).append(entry.raw_response)
        self._lock = threading.Lock()

    def complete(self, prompt: str, role: RoleKind) -> str:
        with self._lock:
            responses = self._recorded.get((role, prompt))
            if not responses:
                state = "all used" if responses is not None else "none recorded"
                raise ProviderError(
                    f"replay has no {role.value} response for this prompt ({state}):"
                    f" {prompt[:80]!r}"
                )
            return responses.popleft()


@dataclass(eq=False)
class RemoteChatProvider:
    """Adapter for HTTP chat endpoints speaking the common
    ``{"model": ..., "messages": [...]}`` request shape. Temperature is
    pinned to 0. The tests drive it through a stubbed ``requests.post``."""

    TIMEOUT = 120.0  # seconds

    name: str
    model_id: str
    endpoint: str
    api_key_env: str
    max_output_tokens: int = 2048
    context_window: int = 100_000

    def complete(self, prompt: str, role: RoleKind) -> str:
        payload = {
            "model": self.model_id,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": 0.0,
            "max_tokens": self.max_output_tokens,
        }
        content = post_json(
            self.endpoint, self.api_key_env, payload, self.TIMEOUT, "chat",
            lambda reply: reply["choices"][0]["message"]["content"],
        )
        if not isinstance(content, str):
            raise ProviderError(f"malformed chat response: content is {content!r}, not a string")
        return content


def extract_json_object(text: str) -> Any:
    """Parse the response as JSON, accepting a bare object or one embedded in
    surrounding prose / markdown fences: the first ``{`` whose balanced,
    string-aware span parses."""
    stripped = text.strip()
    if stripped.startswith("```"):
        stripped = re.sub(r"^```[a-zA-Z]*\s*|\s*```$", "", stripped).strip()
    # json.loads(stripped) without its checks for surrounding whitespace. A
    # reply nested past the recursion limit is no object either.
    try:
        value, end = _DECODER.scan_once(stripped, 0)
        if end == len(stripped):
            return value
    except (StopIteration, json.JSONDecodeError, RecursionError):
        pass
    # Only a brace whose span closes can start an object, so no other is decoded.
    spans = _closing_braces(stripped)
    closes = {start: close for start, close, _ in spans}
    failed: set[int] = set()
    for start, _, depth in spans:
        # Nested deeper than the recursion limit, a span cannot decode.
        if start in failed or depth > sys.getrecursionlimit():
            continue
        try:
            return _DECODER.raw_decode(stripped, start)[0]
        except RecursionError:
            pass
        except json.JSONDecodeError as exc:
            failed.update(_left_open(stripped, start, exc.pos, closes))
    raise MalformedResponse(f"no JSON object found in response: {text[:120]!r}")


_STRUCTURAL = re.compile(r'[{}"\\]')
_STRING_OR_BRACE = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"?|\{', re.DOTALL)


def _closing_braces(text: str) -> list[tuple[int, int, int]]:
    """Each ``{`` whose brace-balanced span closes, scanning from it as from
    outside a string, in text order: its position, the position of its
    closing ``}``, and the deepest brace nesting in the span (1 for none).

    Scans from two braces agree wherever both are inside or both outside a
    string, so one right-to-left pass over the structural characters finds,
    for each one and either state, the unmatched ``}`` a scan entering it
    meets first (-1 for none) and the deepest nesting it passes on the way.
    Linear, where decoding from every ``{`` is quadratic on a long run of
    unclosed ones.
    """
    # No brace after the last "}" closes, and no scan needs what follows it.
    marks = [m.start() for m in _STRUCTURAL.finditer(text, 0, text.rfind("}") + 1)]
    unclosed = (-1, 0)
    outside = [unclosed] * (len(marks) + 2)
    inside = [unclosed] * (len(marks) + 2)
    for i in range(len(marks) - 1, -1, -1):
        char = text[marks[i]]
        if char == "}":
            outside[i], inside[i] = (i, 0), inside[i + 1]
        elif char == "{":
            close, depth = outside[i + 1]
            after = outside[close + 1] if close >= 0 else unclosed
            outside[i], inside[i] = (after[0], max(depth + 1, after[1])), inside[i + 1]
        elif char == '"':
            outside[i], inside[i] = inside[i + 1], outside[i + 1]
        else:  # a backslash escapes the next character inside a string only
            escaped = i + 1 < len(marks) and marks[i + 1] == marks[i] + 1
            outside[i], inside[i] = outside[i + 1], inside[i + 2 if escaped else i + 1]
    return [
        (pos, marks[outside[i + 1][0]], outside[i + 1][1] + 1)
        for i, pos in enumerate(marks)
        if text[pos] == "{" and outside[i + 1][0] >= 0
    ]


def _left_open(text: str, start: int, pos: int, closes: dict[int, int]) -> list[int]:
    """The braces after ``start`` that its decode, failing at ``pos``, left
    open: outside its strings, with spans closing at or after ``pos``. A
    decode from one of them reads the same text up to ``pos`` and fails
    there too."""
    return [
        m.start()
        for m in _STRING_OR_BRACE.finditer(text, start + 1, pos)
        if m.group() == "{" and closes.get(m.start(), -1) >= pos
    ]


_SCOPE_KEYS = {"class_name", "method_name", "file_glob"}

# Each parser returns the reply's value and what the transcript records of it.


def _parse_grader(obj: Any) -> tuple[bool, bool]:
    if not isinstance(obj, dict) or not isinstance(obj.get("answer"), str):
        raise MalformedResponse(f"grader response must be {{'answer': 'yes'|'no'}}, got {obj!r}")
    answer = obj["answer"].strip().lower()
    if answer not in ("yes", "no"):
        raise MalformedResponse(f"grader answer must be yes or no, got {obj['answer']!r}")
    yes = answer == "yes"
    return yes, yes


def _parse_reflection(obj: Any) -> tuple[tuple[bool, str], dict[str, Any]]:
    if not isinstance(obj, dict) or not isinstance(obj.get("complete"), bool):
        raise MalformedResponse(f"reflection response needs a boolean 'complete', got {obj!r}")
    reason = obj.get("reason", "")
    if not isinstance(reason, str):
        raise MalformedResponse("reflection 'reason' must be a string")
    if not obj["complete"] and not reason.strip():
        raise MalformedResponse("incomplete reflection must carry a nonempty reason")
    return (obj["complete"], reason), {"complete": obj["complete"], "reason": reason}


def _parse_inference(obj: Any) -> tuple[tuple[str, ScopeFilter], dict[str, Any]]:
    if not isinstance(obj, dict) or not isinstance(obj.get("missing_snippet"), str):
        raise MalformedResponse(f"inference response needs a 'missing_snippet' string, got {obj!r}")
    snippet = obj["missing_snippet"]
    if not snippet.strip():
        raise MalformedResponse("inference 'missing_snippet' must be nonempty")
    scope_raw = obj.get("scope", {})
    if scope_raw is None:
        scope_raw = {}
    if not isinstance(scope_raw, dict):
        raise MalformedResponse("inference 'scope' must be an object")
    unknown = set(scope_raw) - _SCOPE_KEYS
    if unknown:
        raise MalformedResponse(f"inference scope has unknown keys: {sorted(unknown)}")
    cleaned = {}
    for key in _SCOPE_KEYS:
        value = scope_raw.get(key)
        if value is None or (isinstance(value, str) and not value.strip()):
            continue
        if not isinstance(value, str):
            raise MalformedResponse(f"inference scope field {key} must be a string")
        cleaned[key] = value
    scope = ScopeFilter(**cleaned)
    return (snippet, scope), {"missing_snippet": snippet, "scope": scope.to_dict()}


def _parse_judge(obj: Any) -> tuple[tuple[Judgment, str], dict[str, Any]]:
    if not isinstance(obj, dict) or not isinstance(obj.get("judgment"), str):
        raise MalformedResponse(f"judge response needs a 'judgment' string, got {obj!r}")
    verdict = obj["judgment"].strip().lower()
    if verdict not in ("vulnerable", "secure"):
        raise MalformedResponse(f"judgment must be vulnerable or secure, got {obj['judgment']!r}")
    rationale = obj.get("rationale", "")
    if not isinstance(rationale, str) or not rationale.strip():
        raise MalformedResponse("judge rationale must be a nonempty string")
    judgment = Judgment.VULNERABLE if verdict == "vulnerable" else Judgment.SECURE
    return (judgment, rationale), {"judgment": judgment.value, "rationale": rationale}


class ChatGateway:
    """Binds a provider, the prompt library, one transcript and a memo.

    The memo asks each distinct (role, prompt) of the provider once and
    counts each distinct text packing measures once. A command passes its
    one memo to every gateway it builds; without one, the gateway has its
    own.
    """

    def __init__(
        self,
        provider: ChatProvider,
        prompts: PromptLibrary | None = None,
        transcript: Transcript | None = None,
        memo: Memo | None = None,
    ):
        self.provider = provider
        self.prompts = prompts or PromptLibrary.load()
        self.transcript = transcript if transcript is not None else Transcript()
        self.memo = memo if memo is not None else Memo()
        # Keyed by object identity; each value keeps its key object, so the id stays its own.
        self._headers: dict[int, tuple[CodeBlock, str, int]] = {}
        self._fixed: dict[tuple[RoleKind, int, str | None], tuple[VulnSpec, dict[str, str], int]] = {}

    # -- context packing ---------------------------------------------------

    def _pack_parts(self, blocks: Sequence[CodeBlock], budget: int) -> list[str]:
        """Anchor first, then remaining blocks by recency of retrieval, truncated
        at whole-block granularity with an explicit marker; as parts."""
        if not blocks:
            return []
        ordered = [blocks[0], *reversed(blocks[1:])]
        parts: list[str] = []
        used = omitted = 0
        for block in ordered:
            _, header, cost = self._headers.get(id(block)) or self._header(block)
            if parts and used + cost > budget:
                omitted += 1
                continue
            parts += ("\n\n", header, block.source)
            used += cost
        if omitted:
            parts += ("\n\n", f"// [context truncated: {omitted} retrieved block(s) omitted]")
        return parts[1:]

    def _header(self, block: CodeBlock) -> tuple[CodeBlock, str, int]:
        """The block, its header, and the tokens both cost; kept per gateway."""
        header = (
            f"// ---- {block.file_path}:{block.line_start}-{block.line_end}"
            f" [{block.node_kind.value}] ----\n"
        )
        # No lexeme holds whitespace and the header ends in a newline, so the source costs
        # its own count: its stored size, or its counted text on a hand-built block (size 0).
        cost = self.memo.count_tokens(header) + (block.size or self.memo.count_tokens(block.source))
        return self._headers.setdefault(id(block), (block, header, cost))

    # -- core call ---------------------------------------------------------

    def _ask(
        self,
        role: RoleKind,
        bindings: Mapping[str, str | Sequence[str]],
        parser: Callable[[Any], tuple[Any, Any]],
        subject: str,
    ) -> Any:
        """The parsed reply, asked once more with a reprompt if it does not
        parse; ``subject`` names what the call is about in the error."""
        template = self.prompts.templates[role]
        parts = template.parts(bindings)
        for _ in range(2):
            text = "".join(parts)
            raw = call_with_retry(lambda: self.memo.complete(self.provider, text, role))
            last_error: MalformedResponse | None = None
            try:
                value, recorded = parser(extract_json_object(raw))
            except MalformedResponse as exc:
                recorded, last_error = None, exc
            self.transcript.append(
                role, self.provider.name, self.provider.model_id, template.sha256,
                text, raw, recorded, parts,
            )
            if last_error is None:
                return value
            parts.append(REPROMPT_SUFFIX)
        raise MalformedResponse(
            f"{role.value} reply for {subject}, reprompted once: {last_error}"
        ) from last_error

    # -- the four operations -------------------------------------------------

    def grade_invocation(self, block: CodeBlock, api_signature: str) -> bool:
        """Source-level verification that the block actually invokes the API."""
        if not block.source.strip():
            raise ValueError("cannot grade a block with empty source")
        return self._ask(
            RoleKind.GRADER,
            {
                "file_path": block.file_path,
                "line_range": f"{block.line_start}-{block.line_end}",
                "block_source": block.source,
                "api_signature": api_signature,
            },
            _parse_grader,
            f"block {block.id}",
        )

    def reflection_query(
        self, context: Sequence[CodeBlock], vuln: VulnSpec
    ) -> tuple[bool, str]:
        """Ask whether the collected context suffices for a judgment."""
        return self._ask_in_context(RoleKind.REFLECTION, context, vuln, _parse_reflection)

    def code_inference(
        self, context: Sequence[CodeBlock], vuln: VulnSpec, reason: str
    ) -> tuple[str, ScopeFilter]:
        """Infer the missing code snippet to search for, plus scope constraints."""
        if not reason.strip():
            raise ValueError("code inference requires a nonempty reason")
        return self._ask_in_context(RoleKind.INFERENCE, context, vuln, _parse_inference, reason)

    def judge_reachability(self, candidate: Candidate, vuln: VulnSpec) -> tuple[Judgment, str]:
        """Binary reachability judgment for one context-complete candidate."""
        return self._ask_in_context(RoleKind.JUDGE, candidate.context, vuln, _parse_judge)

    def _ask_in_context(
        self, role: RoleKind, context: Sequence[CodeBlock], vuln: VulnSpec,
        parser: Callable[[Any], tuple[Any, Any]], reason: str | None = None,
    ) -> Any:
        """Ask about a candidate, its context packed into the window the
        template and the other bindings leave."""
        if not context:
            raise ValueError(f"{role.value} requires a nonempty context")
        _, fixed, reserved = self._fixed.get((role, id(vuln), reason)) or self._bind(role, vuln, reason)
        # The anchor block is always packed; the budget only gates the rest.
        packed = self._pack_parts(context, max(0, self.provider.context_window - reserved))
        return self._ask(role, {**fixed, "context": packed}, parser, f"candidate {context[0].id}")

    def _bind(self, role: RoleKind, vuln: VulnSpec, reason: str | None) -> tuple[VulnSpec, dict[str, str], int]:
        """The vulnerability, the bindings besides the context, and the tokens
        they and the template reserve; kept per gateway."""
        fixed = {"api_signatures": "\n".join(vuln.api_signatures), "pov_test_source": vuln.pov_test_source}
        if reason is not None:
            fixed["reason"] = reason
        reserved = sum(map(self.memo.count_tokens, [self.prompts.templates[role].template_text, *fixed.values()]))
        return self._fixed.setdefault((role, id(vuln), reason), (vuln, fixed, reserved + _TRUNCATION_MARGIN))
