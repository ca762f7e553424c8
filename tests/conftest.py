from __future__ import annotations

import contextlib
import hashlib
import json
import math
import re
import socket
import sys
import threading
import time
from email.message import Message
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Callable, Iterator, NamedTuple

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


# The variable holding the API key the remote providers send to the loopback server.
LOOPBACK_KEY_ENV = "VULNREACH_TEST_POST_KEY"


class Reply(NamedTuple):
    """The loopback server's answer to a request: a status and a body (a str
    sent as UTF-8, any other value as JSON), after waiting up to ``delay``
    seconds. A ``cut`` reply announces its whole body but sends half; a
    ``location`` is sent as the Location header."""

    status: int = 200
    body: Any = ""
    delay: float = 0.0
    cut: bool = False
    location: str = ""


class Received(NamedTuple):
    """A request the loopback server got; ``headers`` are read case-insensitively."""

    path: str
    headers: Message
    body: bytes


class _LoopbackHandler(BaseHTTPRequestHandler):
    server: LoopbackServer

    def do_POST(self) -> None:
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        self.server.received.append(Received(self.path, self.headers, body))
        route = self.server.routes[self.path]
        reply = route(json.loads(body)) if callable(route) else route
        self.server.released.wait(reply.delay)
        data = (reply.body if isinstance(reply.body, str) else json.dumps(reply.body)).encode()
        try:
            self.send_response(reply.status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            if reply.location:
                self.send_header("Location", reply.location)
            self.end_headers()
            self.wfile.write(data[: len(data) // 2] if reply.cut else data)
        except ConnectionError:  # the client stopped waiting
            pass

    do_GET = do_POST  # a redirect followed as a GET is recorded too

    def log_message(self, format: str, *args: Any) -> None:
        """No line per request on stderr."""


class LoopbackServer(ThreadingHTTPServer):
    """An HTTP server on 127.0.0.1, port 0, in this process. Each POST is
    recorded in ``received`` and answered from ``routes``: by path, a
    ``Reply`` or a function from the request's JSON to one. A GET is
    recorded and answered in the same way, from a ``Reply`` route."""

    daemon_threads = False  # server_close joins every handler thread

    def __init__(self, closed_port: int):
        super().__init__(("127.0.0.1", 0), _LoopbackHandler)
        self.routes: dict[str, Reply | Callable[[Any], Reply]] = {}
        self.received: list[Received] = []
        self.released = threading.Event()  # set at teardown: no reply waits longer
        self.closed_port = closed_port

    def url(self, path: str) -> str:
        return f"http://127.0.0.1:{self.server_port}{path}"

    def closed_url(self, path: str) -> str:
        """A URL at a port that was closed before the server started."""
        return f"http://127.0.0.1:{self.closed_port}{path}"


@pytest.fixture()
def sleeps(monkeypatch) -> list[float]:
    """The seconds each ``time.sleep`` call asked for; none is slept."""
    delays: list[float] = []
    monkeypatch.setattr(time, "sleep", delays.append)
    return delays


@pytest.fixture()
def loopback(monkeypatch) -> Iterator[LoopbackServer]:
    """A ``LoopbackServer`` serving from a thread, with ``LOOPBACK_KEY_ENV``
    set. At teardown, every waiting reply is released, the server stops and
    its socket is closed."""
    monkeypatch.setenv(LOOPBACK_KEY_ENV, "secret")
    monkeypatch.setenv("no_proxy", "*")  # a configured proxy is bypassed for loopback
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        closed_port = probe.getsockname()[1]
    server = LoopbackServer(closed_port)
    thread = threading.Thread(target=server.serve_forever, args=(0.05,))
    thread.start()
    try:
        yield server
    finally:
        server.released.set()
        server.shutdown()
        thread.join(timeout=10)
        server.server_close()
        assert not thread.is_alive()


def embedding_route(dims: int) -> Callable[[Any], Reply]:
    """Answers an embedding request with the reference encoder's rows for
    its texts, listed last text first, each with its ``index``."""
    encoder = ReferenceEncoder(dims)

    def reply(payload: Any) -> Reply:
        rows = encoder.encode_batch(payload["input"])
        data = [{"index": i, "embedding": row.tolist()} for i, row in enumerate(rows)]
        return Reply(200, {"data": data[::-1]})

    return reply


def scripted_chat_route(script: Path) -> Callable[[Any], Reply]:
    """Answers a chat request as ``ScriptedChatProvider`` answers with
    ``script``. The role is the one whose bundled template's first line
    starts the prompt."""
    provider = ScriptedChatProvider.from_file(script)
    templates = PromptLibrary.load().templates
    first_lines = {role: template.template_text.partition("\n")[0] for role, template in templates.items()}

    def reply(payload: Any) -> Reply:
        prompt = payload["messages"][0]["content"]
        (role,) = [role for role, line in first_lines.items() if prompt.startswith(line)]
        return Reply(200, {"choices": [{"message": {"content": provider.complete(prompt, role)}}]})

    return reply


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
