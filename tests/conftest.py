from __future__ import annotations

import contextlib
import json
from pathlib import Path

import pytest
from hypothesis import strategies as st

from vulnreach import (
    CodeBlock,
    Config,
    EmbeddingVector,
    NodeKind,
    ReferenceEncoder,
    RoleKind,
    ScriptedChatProvider,
    StoreEntry,
    VectorStore,
    VulnSpec,
    embed,
    segment_project,
)
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
    return CodeBlock.create(
        file_path,
        line_start,
        line_end,
        source,
        node_kind,
        enclosing_class=enclosing_class,
        enclosing_method=enclosing_method,
        size=size,
    )


class _TornFile:
    """A file whose first write keeps half of its bytes, then is killed."""

    def __init__(self, file):
        self.file = file

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.file.close()

    def write(self, data) -> int:
        view = memoryview(data).cast("B")
        self.file.write(view[: len(view) // 2])
        raise KeyboardInterrupt("killed mid-write")


@contextlib.contextmanager
def torn_writes(monkeypatch):
    """Within the block, a file opened for writing through ``Path.open`` is
    torn by its first write: half of the bytes land, then the process dies."""
    real_open = Path.open

    def tearing_open(path, mode="r", *args, **kwargs):
        file = real_open(path, mode, *args, **kwargs)
        return _TornFile(file) if "w" in mode else file

    with monkeypatch.context() as patched:
        patched.setattr(Path, "open", tearing_open)
        yield


def build_fixture_store(project: str, encoder: ReferenceEncoder) -> VectorStore:
    blocks = segment_project(FIXTURES / project, Config(theta=FIXTURE_THETA))
    store = VectorStore.in_memory(encoder.dims)
    vectors = embed(encoder, [b.source for b in blocks])
    store.insert([StoreEntry(b, v) for b, v in zip(blocks, vectors)])
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


def record_token_counts(monkeypatch) -> list[str]:
    """Patch ``LexicalTokenizer.count``, as the bench tracer does, and
    ``LexicalTokenizer.count_lines`` to record every text they count, each
    line of a ``count_lines`` call as one text."""
    counted: list[str] = []
    count = LexicalTokenizer.count
    count_lines = LexicalTokenizer.count_lines

    def recording(self, text: str) -> int:
        counted.append(text)
        return count(self, text)

    def recording_lines(self, lines):
        counted.extend(lines)
        return count_lines(self, lines)

    monkeypatch.setattr(LexicalTokenizer, "count", recording)
    monkeypatch.setattr(LexicalTokenizer, "count_lines", recording_lines)
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


def write_tool_config(path: Path, **overrides) -> Path:
    config = {
        "theta": FIXTURE_THETA,
        "tau": FIXTURE_TAU,
        "encoder": {"provider": "reference", "dims": DIMS},
        "chat": {"provider": "scripted", "script_path": str(FIXTURES / "chat_script.json")},
    }
    config.update(overrides)
    path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    return path


def unit_vector(values, dims: int | None = None) -> EmbeddingVector:
    return EmbeddingVector.normalized(list(values))


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
# classes nested up to well past the parser's recursion limit.
JAVA_SOURCES = st.one_of(
    _FRAGMENT_TEXT,
    st.builds(
        lambda depth, body, close: "class A {\n" * depth + body + "}\n" * (depth if close else 0),
        st.integers(1, 450),
        _FRAGMENT_TEXT,
        st.booleans(),
    ),
)
