"""Uniform interface to chat-model providers for the four prompt roles.

The pipeline talks to one :class:`ChatGateway`, which renders versioned
templates, enforces structured (JSON) responses with a single automatic
reprompt before failing hard, packs candidate context into the provider
window, and appends one transcript entry per provider call. A scripted
provider and a replay provider make the whole pipeline a pure function of
its inputs for offline and regression runs.
"""

from __future__ import annotations

import functools
import hashlib
import json
import re
import threading
from collections import deque
from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Any, Callable, Mapping, Protocol, Sequence, TextIO, runtime_checkable

from .errors import ConfigError, MalformedResponse, ProviderError
from .model import Candidate, CodeBlock, Judgment, VulnSpec
from .store import ScopeFilter
from .tokenizer import DEFAULT_TOKENIZER

_PLACEHOLDER = re.compile(r"\{\{(\w+)\}\}")
_TRUNCATION_MARGIN = 256

REPROMPT_SUFFIX = (
    "\n\nYour previous reply could not be parsed. Respond again with ONLY the "
    "JSON object in the requested form, with no surrounding prose."
)


class RoleKind(str, Enum):
    GRADER = "grader"
    REFLECTION = "reflection"
    INFERENCE = "inference"
    JUDGE = "judge"


#: Expected structured-response shape per role, recorded on the template.
RESPONSE_SCHEMAS: dict[RoleKind, dict[str, Any]] = {
    RoleKind.GRADER: {"answer": "yes|no"},
    RoleKind.REFLECTION: {"complete": "bool", "reason": "str (nonempty when complete is false)"},
    RoleKind.INFERENCE: {
        "missing_snippet": "str (nonempty)",
        "scope": "object with optional class_name/method_name/file_glob",
    },
    RoleKind.JUDGE: {"judgment": "vulnerable|secure", "rationale": "str (nonempty)"},
}


@dataclass(frozen=True)
class PromptTemplate:
    role_kind: RoleKind
    template_text: str
    schema: Mapping[str, Any]

    def placeholders(self) -> set[str]:
        return set(_PLACEHOLDER.findall(self.template_text))

    def render(self, **bindings: str) -> str:
        missing = self.placeholders() - set(bindings)
        if missing:
            raise ConfigError(
                f"{self.role_kind.value} template: unbound placeholders {sorted(missing)}"
            )
        # Substitution happens marker-by-marker on the template, so brace
        # characters inside bound values can never be re-interpreted.
        return _PLACEHOLDER.sub(lambda m: str(bindings[m.group(1)]), self.template_text)

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.template_text.encode("utf-8")).hexdigest()[:16]


class PromptLibrary:
    """The four role templates, loaded from package assets or an override
    directory (``<role>.txt`` per role)."""

    def __init__(self, templates: Mapping[RoleKind, PromptTemplate]):
        for role in RoleKind:
            if role not in templates:
                raise ConfigError(f"missing prompt template for role {role.value}")
        self.templates = dict(templates)

    @classmethod
    def bundled(cls) -> "PromptLibrary":
        templates = {}
        for role in RoleKind:
            text = (
                resources.files("vulnreach").joinpath(f"prompts/{role.value}.txt").read_text("utf-8")
            )
            templates[role] = PromptTemplate(role, text, RESPONSE_SCHEMAS[role])
        return cls(templates)

    @classmethod
    def load(cls, prompts_dir: Path | str | None) -> "PromptLibrary":
        """The templates in ``prompts_dir``, or the bundled ones without it."""
        return cls.from_dir(prompts_dir) if prompts_dir else cls.bundled()

    @classmethod
    def from_dir(cls, prompts_dir: Path | str) -> "PromptLibrary":
        prompts_dir = Path(prompts_dir)
        templates = {}
        for role in RoleKind:
            path = prompts_dir / f"{role.value}.txt"
            if not path.is_file():
                raise ConfigError(f"prompt template not found: {path}")
            templates[role] = PromptTemplate(role, path.read_text("utf-8"), RESPONSE_SCHEMAS[role])
        return cls(templates)

    def get(self, role: RoleKind) -> PromptTemplate:
        return self.templates[role]


@dataclass(frozen=True)
class TranscriptEntry:
    seq: int
    role_kind: RoleKind
    provider_name: str
    model_id: str
    template_hash: str
    rendered_prompt: str
    raw_response: str
    parsed_response: Any
    timestamp: str

    def to_dict(self) -> dict[str, Any]:
        return {
            "seq": self.seq,
            "role_kind": self.role_kind.value,
            "provider_name": self.provider_name,
            "model_id": self.model_id,
            "template_hash": self.template_hash,
            "rendered_prompt": self.rendered_prompt,
            "raw_response": self.raw_response,
            "parsed_response": self.parsed_response,
            "timestamp": self.timestamp,
        }

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "TranscriptEntry":
        return cls(
            seq=int(raw["seq"]),
            role_kind=RoleKind(raw["role_kind"]),
            provider_name=str(raw["provider_name"]),
            model_id=str(raw["model_id"]),
            template_hash=str(raw["template_hash"]),
            rendered_prompt=str(raw["rendered_prompt"]),
            raw_response=str(raw["raw_response"]),
            parsed_response=raw.get("parsed_response"),
            timestamp=str(raw["timestamp"]),
        )


class Transcript:
    """Append-only record of every provider interaction.

    When bound to a sink path, the sink is created at once and each entry
    is written and flushed as one JSON line the moment it lands, so an
    aborted run still leaves a usable partial transcript. The sink stays
    open until :meth:`close` (or the end of a ``with`` block). Appends are
    synchronized; sequence numbers are monotone.
    """

    def __init__(self, sink_path: Path | str | None = None):
        self._entries: list[TranscriptEntry] = []
        self._lock = threading.Lock()
        self.sink_path = Path(sink_path) if sink_path is not None else None
        self._sink: TextIO | None = None
        if self.sink_path is not None:
            self.sink_path.parent.mkdir(parents=True, exist_ok=True)
            self._sink = self.sink_path.open("w", encoding="utf-8")

    def append(
        self,
        role_kind: RoleKind,
        provider_name: str,
        model_id: str,
        template_hash: str,
        rendered_prompt: str,
        raw_response: str,
        parsed_response: Any,
    ) -> TranscriptEntry:
        with self._lock:
            entry = TranscriptEntry(
                seq=len(self._entries),
                role_kind=role_kind,
                provider_name=provider_name,
                model_id=model_id,
                template_hash=template_hash,
                rendered_prompt=rendered_prompt,
                raw_response=raw_response,
                parsed_response=parsed_response,
                timestamp=datetime.now(timezone.utc).isoformat(),
            )
            if self._sink is not None:
                # Raises once the transcript is closed.
                self._sink.write(json.dumps(entry.to_dict(), sort_keys=True) + "\n")
                self._sink.flush()
            self._entries.append(entry)
            return entry

    def close(self) -> None:
        with self._lock:
            if self._sink is not None:
                self._sink.close()

    def __enter__(self) -> "Transcript":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def entries(self) -> tuple[TranscriptEntry, ...]:
        with self._lock:
            return tuple(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def save(self, path: Path | str) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for entry in self.entries:
                fh.write(json.dumps(entry.to_dict(), sort_keys=True) + "\n")

    @classmethod
    def load(cls, path: Path | str) -> "Transcript":
        transcript = cls()
        with Path(path).open(encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    transcript._entries.append(TranscriptEntry.from_dict(json.loads(line)))
        return transcript


@runtime_checkable
class ChatProvider(Protocol):
    name: str
    model_id: str
    temperature: float  # fixed 0 for all pipeline calls (reproducibility)
    max_output_tokens: int
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
        max_output_tokens: int = 4096,
    ):
        self.name = name
        self.model_id = model_id
        self.temperature = 0.0
        self.max_output_tokens = max_output_tokens
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
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
        sequences = {
            RoleKind(role): [cls._coerce(v) for v in items]
            for role, items in raw.get("sequences", {}).items()
        }
        rules = [
            (
                RoleKind(rule["role"]) if rule.get("role") else None,
                str(rule["contains"]),
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

    def __init__(self, transcript: Transcript, name: str = "replay"):
        self.name = name
        self.model_id = "replay"
        self.temperature = 0.0
        self.max_output_tokens = 4096
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


class RemoteChatProvider:
    """Adapter for HTTP chat endpoints speaking the common
    ``{"model": ..., "messages": [...]}`` request shape. Temperature is
    pinned to 0. Not exercised by the test suite."""

    def __init__(
        self,
        name: str,
        model_id: str,
        endpoint: str,
        api_key_env: str,
        max_output_tokens: int = 2048,
        context_window: int = 100_000,
        timeout: float = 120.0,
    ):
        self.name = name
        self.model_id = model_id
        self.endpoint = endpoint
        self.api_key_env = api_key_env
        self.temperature = 0.0
        self.max_output_tokens = max_output_tokens
        self.context_window = context_window
        self.timeout = timeout

    def complete(self, prompt: str, role: RoleKind) -> str:
        import os

        import requests

        api_key = os.environ.get(self.api_key_env, "")
        if not api_key:
            raise ProviderError(f"environment variable {self.api_key_env} is not set")
        try:
            response = requests.post(
                self.endpoint,
                json={
                    "model": self.model_id,
                    "messages": [{"role": "user", "content": prompt}],
                    "temperature": 0.0,
                    "max_tokens": self.max_output_tokens,
                },
                headers={"Authorization": f"Bearer {api_key}"},
                timeout=self.timeout,
            )
        except requests.RequestException as exc:
            raise ProviderError(f"chat request failed: {exc}", connection=True) from exc
        if response.status_code != 200:
            raise ProviderError(
                f"chat endpoint returned {response.status_code}: {response.text[:200]}",
                status=response.status_code,
            )
        try:
            return response.json()["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise ProviderError(f"malformed chat response: {exc}") from exc


def extract_json_object(text: str) -> Any:
    """Parse the response as JSON, accepting a bare object or one embedded in
    surrounding prose / markdown fences."""
    stripped = text.strip()
    if stripped.startswith("```"):
        stripped = re.sub(r"^```[a-zA-Z]*\s*|\s*```$", "", stripped).strip()
    # A reply nested past the recursion limit is no object either.
    try:
        return json.loads(stripped)
    except (json.JSONDecodeError, RecursionError):
        pass
    decoder = json.JSONDecoder()
    start = stripped.find("{")
    while start != -1:
        try:
            return decoder.raw_decode(stripped, start)[0]
        except (json.JSONDecodeError, RecursionError):
            start = stripped.find("{", start + 1)
    raise MalformedResponse(f"no JSON object found in response: {text[:120]!r}")


_SCOPE_KEYS = {"class_name", "method_name", "file_glob"}


def _parse_grader(obj: Any) -> bool:
    if not isinstance(obj, dict) or not isinstance(obj.get("answer"), str):
        raise MalformedResponse(f"grader response must be {{'answer': 'yes'|'no'}}, got {obj!r}")
    answer = obj["answer"].strip().lower()
    if answer not in ("yes", "no"):
        raise MalformedResponse(f"grader answer must be yes or no, got {obj['answer']!r}")
    return answer == "yes"


def _parse_reflection(obj: Any) -> tuple[bool, str]:
    if not isinstance(obj, dict) or not isinstance(obj.get("complete"), bool):
        raise MalformedResponse(f"reflection response needs a boolean 'complete', got {obj!r}")
    reason = obj.get("reason", "")
    if not isinstance(reason, str):
        raise MalformedResponse("reflection 'reason' must be a string")
    if not obj["complete"] and not reason.strip():
        raise MalformedResponse("incomplete reflection must carry a nonempty reason")
    return obj["complete"], reason


def _parse_inference(obj: Any) -> tuple[str, ScopeFilter]:
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
    return snippet, ScopeFilter(**cleaned)


def _parse_judge(obj: Any) -> tuple[Judgment, str]:
    if not isinstance(obj, dict) or not isinstance(obj.get("judgment"), str):
        raise MalformedResponse(f"judge response needs a 'judgment' string, got {obj!r}")
    verdict = obj["judgment"].strip().lower()
    if verdict not in ("vulnerable", "secure"):
        raise MalformedResponse(f"judgment must be vulnerable or secure, got {obj['judgment']!r}")
    rationale = obj.get("rationale", "")
    if not isinstance(rationale, str) or not rationale.strip():
        raise MalformedResponse("judge rationale must be a nonempty string")
    return (Judgment.VULNERABLE if verdict == "vulnerable" else Judgment.SECURE), rationale


class ChatGateway:
    """Binds a provider, the prompt library, and one transcript."""

    def __init__(
        self,
        provider: ChatProvider,
        prompts: PromptLibrary | None = None,
        transcript: Transcript | None = None,
        token_counter: Callable[[str], int] = DEFAULT_TOKENIZER.count,
    ):
        self.provider = provider
        self.prompts = prompts or PromptLibrary.bundled()
        self.transcript = transcript if transcript is not None else Transcript()
        # Packing recounts the same template, vulnerability text and blocks
        # on every call; each distinct text is counted once per gateway.
        self.token_counter = functools.lru_cache(maxsize=None)(token_counter)

    # -- context packing ---------------------------------------------------

    def _format_block(self, block: CodeBlock) -> str:
        header = (
            f"// ---- {block.file_path}:{block.line_start}-{block.line_end}"
            f" [{block.node_kind.value}] ----\n"
        )
        return header + block.source

    def _pack_context(self, blocks: Sequence[CodeBlock], budget: int) -> str:
        """Anchor first, then remaining blocks by recency of retrieval,
        truncated at whole-block granularity with an explicit marker."""
        if not blocks:
            return ""
        ordered = [blocks[0], *reversed(blocks[1:])]
        rendered: list[str] = []
        used = 0
        omitted = 0
        for block in ordered:
            text = self._format_block(block)
            cost = self.token_counter(text)
            if rendered and used + cost > budget:
                omitted += 1
                continue
            rendered.append(text)
            used += cost
        if omitted:
            rendered.append(f"// [context truncated: {omitted} retrieved block(s) omitted]")
        return "\n\n".join(rendered)

    def _context_budget(self, template: PromptTemplate, fixed_bindings: Mapping[str, str]) -> int:
        reserved = self.token_counter(template.template_text) + _TRUNCATION_MARGIN
        for value in fixed_bindings.values():
            reserved += self.token_counter(value)
        # The anchor block is always packed; the budget only gates the rest.
        return max(0, self.provider.context_window - reserved)

    # -- core call ---------------------------------------------------------

    def _ask(self, role: RoleKind, bindings: Mapping[str, str], parser: Callable[[Any], Any]) -> Any:
        template = self.prompts.get(role)
        prompt = template.render(**bindings)
        last_error: MalformedResponse | None = None
        for attempt, text in enumerate((prompt, prompt + REPROMPT_SUFFIX)):
            raw = self.provider.complete(text, role)
            try:
                parsed = parser(extract_json_object(raw))
                recorded: Any = parsed
                if role is RoleKind.INFERENCE:
                    recorded = {"missing_snippet": parsed[0], "scope": parsed[1].to_dict()}
                elif role is RoleKind.JUDGE:
                    recorded = {"judgment": parsed[0].value, "rationale": parsed[1]}
                elif role is RoleKind.REFLECTION:
                    recorded = {"complete": parsed[0], "reason": parsed[1]}
                self.transcript.append(
                    role, self.provider.name, self.provider.model_id, template.sha256,
                    text, raw, recorded,
                )
                return parsed
            except MalformedResponse as exc:
                self.transcript.append(
                    role, self.provider.name, self.provider.model_id, template.sha256,
                    text, raw, None,
                )
                last_error = exc
        assert last_error is not None
        raise last_error

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
        )

    def reflection_query(
        self, context: Sequence[CodeBlock], vuln: VulnSpec
    ) -> tuple[bool, str]:
        """Ask whether the collected context suffices for a judgment."""
        if not context:
            raise ValueError("reflection requires a nonempty context")
        fixed = {
            "api_signatures": "\n".join(vuln.api_signatures),
            "pov_test_source": vuln.pov_test_source,
        }
        template = self.prompts.get(RoleKind.REFLECTION)
        packed = self._pack_context(context, self._context_budget(template, fixed))
        return self._ask(RoleKind.REFLECTION, {**fixed, "context": packed}, _parse_reflection)

    def code_inference(
        self, context: Sequence[CodeBlock], vuln: VulnSpec, reason: str
    ) -> tuple[str, ScopeFilter]:
        """Infer the missing code snippet to search for, plus scope constraints."""
        if not reason.strip():
            raise ValueError("code inference requires a nonempty reason")
        fixed = {
            "api_signatures": "\n".join(vuln.api_signatures),
            "pov_test_source": vuln.pov_test_source,
            "reason": reason,
        }
        template = self.prompts.get(RoleKind.INFERENCE)
        packed = self._pack_context(context, self._context_budget(template, fixed))
        return self._ask(RoleKind.INFERENCE, {**fixed, "context": packed}, _parse_inference)

    def judge_reachability(self, candidate: Candidate, vuln: VulnSpec) -> tuple[Judgment, str]:
        """Binary reachability judgment for one context-complete candidate."""
        if not candidate.context:
            raise ValueError("judgment requires a nonempty candidate context")
        fixed = {
            "api_signatures": "\n".join(vuln.api_signatures),
            "pov_test_source": vuln.pov_test_source,
        }
        template = self.prompts.get(RoleKind.JUDGE)
        packed = self._pack_context(candidate.context, self._context_budget(template, fixed))
        return self._ask(RoleKind.JUDGE, {**fixed, "context": packed}, _parse_judge)
