from __future__ import annotations

import contextlib
import hashlib
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from vulnreach import (
    CodeBlock,
    Config,
    NodeKind,
    ReferenceEncoder,
    RoleKind,
    ScriptedChatProvider,
    VectorStore,
    VulnSpec,
    embed,
    segment_project,
)
from vulnreach.embedding import unit_rows
from vulnreach.gateway import REPROMPT_SUFFIX, PromptLibrary, TranscriptEntry
from vulnreach.model import block_id
from vulnreach.tokenizer import LexicalTokenizer

FIXTURES = Path(__file__).parent / "fixtures"

DIMS = 256
FIXTURE_THETA = 60  # small enough that the fixture apps split into methods
FIXTURE_TAU = 0.25


def make_block(
    file_path: str = "src/A.java",
    line_start: int = 1,
    line_end: int = 3,
    source: str = "class A {\n  int x;\n}\n",
    node_kind: NodeKind = NodeKind.COMPILATION_UNIT,
    enclosing_class: str | None = "A",
    enclosing_method: str | None = None,
    size: int = 7,
) -> CodeBlock:
    return CodeBlock(
        block_id(file_path, line_start, line_end, node_kind),
        file_path,
        line_start,
        line_end,
        source,
        node_kind,
        enclosing_class=enclosing_class,
        enclosing_method=enclosing_method,
        size=size,
    )


def entry_dict(entry: TranscriptEntry) -> dict:
    """The reference a transcript line is checked against: the entry's
    fields by name, with ``role_kind`` as its value."""
    return {**entry._asdict(), "role_kind": entry.role_kind.value}


class _TornFile:
    """A file whose first write keeps half of its bytes (or characters), then is
    killed."""

    def __init__(self, file):
        self.file = file

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.file.close()

    def write(self, data) -> int:
        view = data if isinstance(data, str) else memoryview(data).cast("B")
        self.file.write(view[: len(view) // 2])
        raise KeyboardInterrupt("killed mid-write")


@contextlib.contextmanager
def torn_writes(monkeypatch, suffix: str | tuple[str, ...] = ""):
    """Within the block, a file whose name ends in ``suffix``, opened for
    writing through ``Path.open``, is torn by its first write: half of the
    bytes land, then the process dies."""
    real_open = Path.open

    def tearing_open(path, mode="r", *args, **kwargs):
        file = real_open(path, mode, *args, **kwargs)
        return _TornFile(file) if "w" in mode and path.name.endswith(suffix) else file

    with monkeypatch.context() as patched:
        patched.setattr(Path, "open", tearing_open)
        yield


def build_fixture_store(project: str, encoder: ReferenceEncoder) -> VectorStore:
    blocks = segment_project(FIXTURES / project, Config(theta=FIXTURE_THETA))
    store = VectorStore(encoder.dims)
    store.insert(blocks, embed(encoder, [b.source for b in blocks]))
    return store


def insert_entries(store: VectorStore, entries) -> int:
    """``store.insert`` of the blocks and vectors of ``StoreEntry`` values."""
    return store.insert([e.block for e in entries], [e.vector for e in entries])


def entry_value(entry) -> tuple:
    """A ``StoreEntry`` as a comparable value: its block and its vector's bytes."""
    return entry.block, entry.vector.tobytes()


def write_index(
    path: Path, dims: int, entries=(), *, encoder: str | None = None, theta: int | None = None
) -> VectorStore:
    """An in-memory store holding ``entries``, saved once at ``path``."""
    store = VectorStore(dims)
    insert_entries(store, list(entries))
    store.save(path, encoder=encoder, theta=theta)
    return store


@pytest.fixture(scope="session")
def encoder() -> ReferenceEncoder:
    return ReferenceEncoder(dims=DIMS)


@pytest.fixture(scope="session")
def vuln() -> VulnSpec:
    return VulnSpec.from_dict(
        json.loads((FIXTURES / "vuln_encoder_null.json").read_text(encoding="utf-8"))
    )


@pytest.fixture(scope="session")
def guarded_store(encoder: ReferenceEncoder) -> VectorStore:
    return build_fixture_store("guarded_app", encoder)


@pytest.fixture(scope="session")
def unguarded_store(encoder: ReferenceEncoder) -> VectorStore:
    return build_fixture_store("unguarded_app", encoder)


class CountingEncoder(ReferenceEncoder):
    """The reference encoder, recording every text it is sent."""

    def __init__(self, dims: int):
        super().__init__(dims=dims)
        self.texts: list[str] = []

    def encode_batch(self, texts):
        self.texts.extend(texts)
        return super().encode_batch(texts)


class CountingProvider(ScriptedChatProvider):
    """A scripted chat provider, recording every (role, prompt) it is asked."""

    def __init__(self, **kw):
        super().__init__(**kw)
        self.asked: list[tuple[RoleKind, str]] = []

    def complete(self, prompt: str, role: RoleKind) -> str:
        self.asked.append((role, prompt))
        return super().complete(prompt, role)


class HashChatProvider:
    """A provider whose every answer is a pure function of a hash of (salt,
    role, prompt): grades, reflections, snippets of the prompt's words,
    scopes and judgments. The order questions arrive in, or how often one
    is asked, changes no answer. One first ask in 16 gets prose, so the
    reprompt path runs too; a reprompt always gets JSON."""

    name = model_id = "hashed"
    context_window = 1_000_000

    def __init__(self, salt: int):
        self.salt = salt

    def complete(self, prompt: str, role: RoleKind) -> str:
        key = f"{self.salt}\x00{role.value}\x00{prompt}".encode("utf-8", "surrogatepass")
        h = hashlib.sha256(key).digest()
        if h[0] % 16 == 0 and not prompt.endswith(REPROMPT_SUFFIX):
            return "Let me think about that."
        if role is RoleKind.GRADER:
            return json.dumps({"answer": "no" if h[1] % 4 == 0 else "yes"})
        if role is RoleKind.REFLECTION:
            return json.dumps({"complete": h[1] % 3 == 0, "reason": f"need more {h[2]}"})
        if role is RoleKind.JUDGE:
            judgment = "vulnerable" if h[1] % 3 == 0 else "secure"
            return json.dumps({"judgment": judgment, "rationale": f"hash {h[2]:02x}"})
        words = re.findall(r"[A-Za-z_]\w*", prompt)
        snippet = " ".join(words[(h[3 + i] << 8 | h[4 + i]) % len(words)] for i in range(1 + h[1] % 4))
        word = words[(h[9] << 8 | h[10]) % len(words)]
        scope = [{}, {}, {"class_name": word}, {"method_name": word}, {"file_glob": "*.java"}]
        return json.dumps({"missing_snippet": snippet, "scope": scope[h[2] % len(scope)]})


def record_token_counts(monkeypatch) -> list[str]:
    """Patch ``LexicalTokenizer.count``, as the bench tracer does, and
    ``LexicalTokenizer.count_prefixes`` to record every text they count; a
    ``count_prefixes`` call counts its whole text once, however many
    prefixes it is asked for."""
    counted: list[str] = []
    count = LexicalTokenizer.count
    count_prefixes = LexicalTokenizer.count_prefixes

    def recording(self, text: str) -> int:
        counted.append(text)
        return count(self, text)

    def recording_prefixes(self, text: str, ends):
        counted.append(text)
        return count_prefixes(self, text, ends)

    monkeypatch.setattr(LexicalTokenizer, "count", recording)
    monkeypatch.setattr(LexicalTokenizer, "count_prefixes", recording_prefixes)
    return counted


def write_toy_manifest(path: Path) -> Path:
    """4-project manifest over the bundled fixture apps (absolute roots)."""
    vuln_spec = json.loads((FIXTURES / "vuln_encoder_null.json").read_text(encoding="utf-8"))
    manifest = {
        "projects": [
            {
                "project_id": "guarded_app",
                "root_path": str(FIXTURES / "guarded_app"),
                "ground_truth": "Secure",
                "vuln_refs": ["CVE-2020-5408"],
            },
            {
                "project_id": "unguarded_app",
                "root_path": str(FIXTURES / "unguarded_app"),
                "ground_truth": "Vulnerable",
                "vuln_refs": ["CVE-2020-5408"],
            },
            {
                "project_id": "plain_app",
                "root_path": str(FIXTURES / "plain_app"),
                "ground_truth": "Secure",
                "vuln_refs": ["CVE-2020-5408"],
            },
            {
                "project_id": "legacy_app",
                "root_path": str(FIXTURES / "legacy_app"),
                "ground_truth": "Vulnerable",
                "vuln_refs": ["CVE-2020-5408"],
            },
        ],
        "vulns": [vuln_spec],
    }
    path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return path


def edited_prompts(prompts_dir: Path, role: str, old: str, new: str = "") -> Path:
    """The bundled templates, written to ``prompts_dir`` with ``old``
    replaced by ``new`` in ``role``'s."""
    prompts_dir.mkdir(exist_ok=True)
    bundled = PromptLibrary.load()
    for other in RoleKind:
        text = bundled.templates[other].template_text
        if other is RoleKind(role):
            assert old in text
            text = text.replace(old, new)
        (prompts_dir / f"{other.value}.txt").write_text(text, encoding="utf-8")
    return prompts_dir


def write_tool_config(path: Path, **overrides) -> Path:
    """The fixture tool config with ``overrides``; a key overridden with
    None is left out, as a sweep's config leaves out theta."""
    config = {
        "theta": FIXTURE_THETA,
        "tau": FIXTURE_TAU,
        "encoder": {"provider": "reference", "dims": DIMS},
        "chat": {"provider": "scripted", "script_path": str(FIXTURES / "chat_script.json")},
    }
    config = {key: value for key, value in {**config, **overrides}.items() if value is not None}
    path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    return path


def encode_alone(text: str, dims: int = DIMS) -> np.ndarray:
    """``text`` encoded alone by a fresh reference encoder, normalized."""
    return unit_rows(ReferenceEncoder(dims).encode_batch([text]))[0]


def fsum_unit_row(values) -> list[float]:
    """One row normalized alone, in Python floats: the reference for
    ``unit_rows``. Its norm is the square root of the ``math.fsum`` of its
    squares; a finite row whose squares overflow, or whose sum is below the
    smallest normal double, is first divided by its largest magnitude. Then
    each element is divided by the norm once."""

    def norm(row: list[float]) -> float:
        try:
            return math.sqrt(math.fsum(v * v for v in row))
        except OverflowError:
            return math.inf

    row = [float(v) for v in values]
    n = norm(row)
    if (n == math.inf and all(map(math.isfinite, row))) or (
        n < math.sqrt(sys.float_info.min) and any(row)
    ):
        peak = max(map(abs, row))
        row = [v / peak for v in row]
        n = norm(row)
    if not 0.0 < n < math.inf:
        raise ValueError(f"cannot normalize a vector of norm {n!r}")
    return [v / n for v in row]


# Adversarial Java-ish fragments: unbalanced brackets, unterminated strings,
# text blocks, chars and comments, every line terminator and the characters
# ``str.splitlines`` also splits at (FF, VT, NEL, U+2028/9), NUL, non-BMP
# text, escapes, annotations naming ``.class``, and declaration keywords.
_JAVA_FRAGMENTS = [
    "{", "}", "(", ")", "[", "]", "<", ">", ";", "=", ",", ".", "@", "-", "*", "/",
    '"', "'", '"""', "//", "/*", "*/", "\\", " ", "\t", "\n", "\r\n", "\r", "\f", "\v",
    "\x85", "\u2028", "\u2029", "\x00", "\U0001f600", "\u00e9", "class", "interface",
    "enum", "record", "@interface", "static", "public", "non-sealed", "import", "package",
    "A", "x", "int", "void", "default", "Foo.class", "@Ann(Foo.class) ", "/** d */",
    '"s"', "'c'", "class A { ", "void m() { ", "A() {} ", "int f; ",
]
_FRAGMENT_TEXT = st.lists(st.sampled_from(_JAVA_FRAGMENTS), max_size=40).map("".join)

# Java source text for property tests: fragment soup, optionally wrapped in
# classes nested up to 450 deep, where a recursive descent spending three
# frames a level would pass the default recursion limit of 1000.
JAVA_SOURCES = st.one_of(
    _FRAGMENT_TEXT,
    st.builds(
        lambda depth, body, close: "class A {\n" * depth + body + "}\n" * (depth if close else 0),
        st.integers(1, 450),
        _FRAGMENT_TEXT,
        st.booleans(),
    ),
)
