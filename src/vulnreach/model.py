"""Shared domain types used by every other module.

All types are immutable values after construction and safe to share across
threads. A type the CLI reads from JSON has a ``from_dict``, and one it
writes into a report has a ``to_dict``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from typing import Any, Iterable, Mapping, Sequence

from .errors import ConfigError

DEFAULT_IGNORE_GLOBS: tuple[str, ...] = ("target/**", "build/**", "out/**", ".git/**")


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def checked_str(value: Any, key: str) -> str:
    """``value`` if it is a string; else a ``ConfigError`` naming ``key``."""
    if not isinstance(value, str):
        raise ConfigError(f"{key} must be a string, got {value!r}")
    return value


def checked_strs(value: Any, key: str) -> tuple[str, ...]:
    """``value`` as a tuple if it is a list of strings; else a
    ``ConfigError`` naming ``key``."""
    if not isinstance(value, (list, tuple)) or not all(isinstance(v, str) for v in value):
        raise ConfigError(f"{key} must be a list of strings, got {value!r}")
    return tuple(value)


@dataclass(frozen=True)
class Config:
    """Every setting of a run, checked on construction.

    ``from_dict`` reads a ``config.json`` object and ``to_dict`` is the echo
    written into reports, minus any chat key that names a credential.
    """

    theta: int = 2500  # max block size in tokens
    tau: float = 0.35  # similarity threshold
    top_k: int = 10
    max_iterations: int = 5  # reflection-loop cap per candidate
    parallelism: int = 1
    ignore_globs: tuple[str, ...] = DEFAULT_IGNORE_GLOBS
    encoder: Mapping[str, Any] = field(
        default_factory=lambda: {"provider": "reference", "dims": 256}
    )
    chat: Mapping[str, Any] = field(default_factory=dict)
    prompts_dir: str | None = None

    def __post_init__(self) -> None:
        for name in ("theta", "top_k", "max_iterations", "parallelism"):
            value = getattr(self, name)
            if not _is_int(value) or value < 1:
                raise ConfigError(f"{name} must be a positive integer, got {value!r}")
        if not (_is_int(self.tau) or isinstance(self.tau, float)) or not 0.0 < self.tau <= 1.0:
            raise ConfigError(f"tau must be a number in (0, 1], got {self.tau!r}")
        object.__setattr__(self, "ignore_globs", checked_strs(self.ignore_globs, "ignore_globs"))
        for name in ("encoder", "chat"):
            if not isinstance(getattr(self, name), Mapping):
                raise ConfigError(f"{name} must be a JSON object, got {getattr(self, name)!r}")
        if self.prompts_dir is not None and not isinstance(self.prompts_dir, str):
            raise ConfigError(f"prompts_dir must be a string or null, got {self.prompts_dir!r}")

    @classmethod
    def from_dict(cls, raw: Any) -> "Config":
        if not isinstance(raw, Mapping):
            raise ConfigError("config must be a JSON object")
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"config has unknown keys: {sorted(unknown)}")
        return cls(**raw)

    def to_dict(self) -> dict[str, Any]:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["ignore_globs"] = list(self.ignore_globs)
        out["encoder"] = dict(self.encoder)
        out["chat"] = {k: v for k, v in self.chat.items() if "key" not in k.lower()}
        return out


class NodeKind(str, Enum):
    COMPILATION_UNIT = "CompilationUnit"
    IMPORT_DECLARATION = "ImportDeclaration"
    FIELD_DECLARATION = "FieldDeclaration"
    METHOD_DECLARATION = "MethodDeclaration"
    CONSTRUCTOR_DECLARATION = "ConstructorDeclaration"
    OTHER = "Other"


class MatchedBy(str, Enum):
    API_SIMILARITY = "ApiSimilarity"
    TEST_SIMILARITY = "TestSimilarity"
    BOTH = "Both"
    # Blocks pulled into the candidate pool by scoped retrieval during the
    # reflection loop rather than by the seed similarity filter.
    CONTEXT_RETRIEVAL = "ContextRetrieval"


class Judgment(str, Enum):
    VULNERABLE = "Vulnerable"
    SECURE = "Secure"


def block_id(file_path: str, line_start: int, line_end: int, node_kind: NodeKind) -> str:
    """Deterministic content-address-style id for a block.

    Re-indexing an unchanged tree yields identical ids, which enables
    cross-run diffing and cache reuse.
    """
    seed = f"{file_path}\x00{line_start}\x00{line_end}\x00{node_kind.value}"
    return hashlib.sha256(seed.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class CodeBlock:
    """A semantically cohesive source segment with file/line/AST metadata."""

    id: str
    file_path: str
    line_start: int
    line_end: int
    source: str
    node_kind: NodeKind
    enclosing_class: str | None = None
    enclosing_method: str | None = None
    size: int = 0
    oversize: bool = False

    def __post_init__(self) -> None:
        if self.line_start < 1 or self.line_end < self.line_start:
            raise ValueError(
                f"invalid line range {self.line_start}..{self.line_end} for {self.file_path}"
            )
        if self.size < 0:
            raise ValueError("size must be non-negative")

    def to_dict(self) -> dict[str, Any]:
        return {**vars(self), "node_kind": self.node_kind.value}

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "CodeBlock":
        return cls(
            id=str(raw["id"]),
            file_path=str(raw["file_path"]),
            line_start=int(raw["line_start"]),
            line_end=int(raw["line_end"]),
            source=str(raw["source"]),
            node_kind=NodeKind(raw["node_kind"]),
            enclosing_class=raw.get("enclosing_class"),
            enclosing_method=raw.get("enclosing_method"),
            size=int(raw.get("size", 0)),
            oversize=bool(raw.get("oversize", False)),
        )


class EmbeddingVector:
    """Unused by the program; kept because the benchmark's tracer names
    ``normalized`` and ``dot``. A vector is a read-only float64 numpy row,
    normalized by ``embedding.unit_rows``."""

    def normalized(self) -> None: ...

    def dot(self) -> None: ...


@dataclass(frozen=True)
class VulnSpec:
    """One vulnerability seed: vulnerable API signature(s) plus the
    proof-of-vulnerability test source that demonstrates the trigger."""

    vuln_id: str
    library: str
    api_signatures: tuple[str, ...]
    pov_test_source: str
    description: str | None = None

    def __post_init__(self) -> None:
        if not self.api_signatures or any(not s.strip() for s in self.api_signatures):
            raise ValueError("api_signatures must be a nonempty list of nonempty strings")
        if not self.pov_test_source.strip():
            raise ValueError("pov_test_source must be nonempty")

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "VulnSpec":
        """A value of the wrong JSON type is a ``ConfigError`` naming its key:
        a string ``api_signatures`` would search one-character seeds."""
        description = raw.get("description")
        return cls(
            vuln_id=checked_str(raw["vuln_id"], "vuln_id"),
            library=checked_str(raw["library"], "library"),
            api_signatures=checked_strs(raw["api_signatures"], "api_signatures"),
            pov_test_source=checked_str(raw["pov_test_source"], "pov_test_source"),
            description=None if description is None else checked_str(description, "description"),
        )


@dataclass(frozen=True)
class Candidate:
    """A code block under analysis plus its accumulated context set.

    The context is an ordered set that always contains the anchor and only
    ever grows; growth happens by constructing a new value via
    :meth:`extend_context`, keeping the original immutable.
    """

    anchor: CodeBlock
    context: tuple[CodeBlock, ...]
    matched_by: MatchedBy
    similarity_api: float
    similarity_test: float

    def __post_init__(self) -> None:
        ids = [b.id for b in self.context]
        if len(set(ids)) != len(ids):
            raise ValueError("context contains duplicate block ids")
        if self.anchor.id not in set(ids):
            raise ValueError("anchor must be part of the context")
        for name, value in (("similarity_api", self.similarity_api), ("similarity_test", self.similarity_test)):
            if not -1.0 - 1e-9 <= value <= 1.0 + 1e-9:
                raise ValueError(f"{name} out of [-1, 1]: {value}")

    def extend_context(self, blocks: Iterable[CodeBlock]) -> "Candidate":
        """Append new blocks, skipping ids already present (append-only)."""
        known = {b.id for b in self.context}
        added = []
        for b in blocks:
            if b.id not in known:
                known.add(b.id)
                added.append(b)
        if not added:
            return self
        return replace(self, context=self.context + tuple(added))


@dataclass(frozen=True)
class CandidateJudgment:
    candidate_id: str
    judgment: Judgment
    rationale: str

    def to_dict(self) -> dict[str, Any]:
        return {**vars(self), "judgment": self.judgment.value}


def aggregate_judgment(per_candidate: Sequence[Judgment]) -> Judgment:
    """Project verdict rule: vulnerable if any candidate is vulnerable,
    secure when the candidate set is empty or all candidates are secure."""
    if any(j is Judgment.VULNERABLE for j in per_candidate):
        return Judgment.VULNERABLE
    return Judgment.SECURE


@dataclass(frozen=True)
class Verdict:
    """Per-candidate judgments; the project judgment is derived from them,
    so it cannot disagree with the aggregation rule."""

    project_id: str
    vuln_id: str
    per_candidate: tuple[CandidateJudgment, ...]
    transcript_path: str | None = None

    @property
    def project_judgment(self) -> Judgment:
        return aggregate_judgment([c.judgment for c in self.per_candidate])

    def to_dict(self) -> dict[str, Any]:
        return {
            **vars(self),
            "per_candidate": [c.to_dict() for c in self.per_candidate],
            "project_judgment": self.project_judgment.value,
        }
