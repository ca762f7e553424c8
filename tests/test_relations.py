"""Relations a verdict keeps however it is computed: at any parallelism,
from an in-memory or a reopened index, through ``analyze`` or
``run_benchmark``, and on replay of its transcript.

Every answer comes from ``HashChatProvider``, a pure function of a hash of
(salt, role, prompt), so each relation is checked against arbitrary model
behaviour over the fixture projects, not only the scripted fixture's.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, HashChatProvider
from vulnreach.detector import analyze
from vulnreach.evalharness import BenchmarkManifest, ProjectSpec, build_index, run_analysis, run_benchmark
from vulnreach.gateway import ChatGateway, PromptLibrary, ReplayChatProvider, Transcript
from vulnreach.memo import Memo
from vulnreach.model import Config, Judgment, VulnSpec
from vulnreach.store import VectorStore

PROJECTS = ("guarded_app", "unguarded_app", "plain_app", "legacy_app", "miniproj")
THETA = 40  # small enough that every fixture project splits into several blocks

_SIGNATURES = [
    "org.springframework.security.crypto.bcrypt.BCryptPasswordEncoder#encode(java.lang.CharSequence)",
    "java.lang.String#format(java.lang.String, java.lang.Object...)",
    "java.util.List#add(java.lang.Object)",
    "com.acme.legacy.MigrationJob#run()",
    "java.lang.Integer#parseInt(java.lang.String)",
]
_TESTS = [
    "@Test\npublic void rejectsNullPassword() {\n    new BCryptPasswordEncoder().encode(null);\n}\n",
    "@Test\npublic void divides() {\n    assertEquals(2, new Calculator().divide(4, 2));\n}\n",
    "assertThrows(NullPointerException.class, () -> job.migrate(null));\n",
]

SALTS = st.integers(0, 2**32 - 1)
SPECS = st.builds(
    lambda vuln_id, signatures, test: VulnSpec(vuln_id, "lib", tuple(signatures), test),
    st.sampled_from(["CVE-A", "CVE-B"]),
    st.lists(st.sampled_from(_SIGNATURES), min_size=1, max_size=3, unique=True),
    st.sampled_from(_TESTS),
)
CONFIGS = st.builds(
    lambda tau, top_k, max_iterations: Config(
        theta=THETA, tau=tau, top_k=top_k, max_iterations=max_iterations
    ),
    st.sampled_from([0.05, 0.1, 0.2, 0.3, 0.45]),
    st.integers(1, 8),
    st.integers(1, 5),
)


@pytest.fixture(scope="module")
def stores(encoder, tmp_path_factory) -> dict[str, tuple[VectorStore, VectorStore]]:
    """Each project's index as built in memory, and the same index saved and
    reopened."""
    out = tmp_path_factory.mktemp("relations")
    built = {}
    for project in PROJECTS:
        store = build_index(FIXTURES / project, Config(theta=THETA), encoder, Memo())
        store.save(out / f"{project}.vrix", encoder=None, theta=THETA)
        built[project] = (store, VectorStore.open(out / f"{project}.vrix"))
    return built


def run(store, encoder, provider, vuln, config, transcript=None):
    chat = ChatGateway(provider, transcript=transcript if transcript is not None else Transcript())
    return analyze(store, encoder, chat, vuln, config, "p")


def asked(transcript: Transcript) -> Counter:
    return Counter((entry.role_kind, entry.rendered_prompt) for entry in transcript.entries)


def exchanges(transcript: Transcript) -> list[tuple]:
    return [(e.role_kind, e.rendered_prompt, e.raw_response) for e in transcript.entries]


@settings(max_examples=100, deadline=None)
@given(salt=SALTS, project=st.sampled_from(PROJECTS), vuln=SPECS, config=CONFIGS)
def test_parallelism_changes_no_judgment_and_no_question(stores, encoder, salt, project, vuln, config):
    # Transcript entries, not provider calls: two workers may both ask the
    # provider one question, but each logs one entry per gateway call.
    store, _ = stores[project]
    one, four = Transcript(), Transcript()
    serial = run(store, encoder, HashChatProvider(salt), vuln, config, one)
    pooled = run(store, encoder, HashChatProvider(salt), vuln, replace(config, parallelism=4), four)
    assert pooled.per_candidate == serial.per_candidate
    assert asked(four) == asked(one)


@settings(max_examples=40, deadline=None)
@given(salt=SALTS, project=st.sampled_from(PROJECTS), vuln=SPECS, config=CONFIGS)
def test_a_reopened_index_judges_as_the_one_in_memory(stores, encoder, salt, project, vuln, config):
    in_memory, reopened = stores[project]
    assert (
        run(reopened, encoder, HashChatProvider(salt), vuln, config).per_candidate
        == run(in_memory, encoder, HashChatProvider(salt), vuln, config).per_candidate
    )


@settings(max_examples=25, deadline=None)
@given(
    salt=SALTS,
    vulns=st.lists(SPECS, min_size=1, max_size=2, unique_by=lambda v: v.vuln_id),
    config=CONFIGS,
)
def test_the_harness_judges_each_vuln_as_analyze_does(
    stores, encoder, tmp_path_factory, salt, vulns, config
):
    refs = tuple(v.vuln_id for v in vulns)
    manifest = BenchmarkManifest(
        tuple(ProjectSpec(p, str(FIXTURES / p), Judgment.SECURE, refs) for p in PROJECTS),
        tuple(vulns),
    )
    out = tmp_path_factory.mktemp("harness")
    report = run_benchmark(manifest, config, encoder, HashChatProvider(salt), out, Memo())
    assert report["failed_projects"] == 0
    for row in report["projects"]:
        store, _ = stores[row["project_id"]]
        assert row["per_vuln"] == {
            v.vuln_id: run(store, encoder, HashChatProvider(salt), v, config).project_judgment.value
            for v in vulns
        }
        # The harness asked what `vulnreach analyze` asks through the same
        # runner, in the same order, and was answered the same.
        for vuln in vulns:
            name = f"{row['project_id']}__{vuln.vuln_id}.jsonl"
            _, alone = run_analysis(
                store, encoder, HashChatProvider(salt), vuln, config, row["project_id"],
                PromptLibrary.load(), Memo(), out / name,
            )
            harness = Transcript.load(out / "transcripts" / f"theta_{THETA}" / name)
            assert exchanges(harness) == exchanges(alone)


@settings(max_examples=40, deadline=None)
@given(
    salt=SALTS,
    project=st.sampled_from(PROJECTS),
    vuln=SPECS,
    config=CONFIGS,
    parallelisms=st.tuples(st.sampled_from([1, 4]), st.sampled_from([1, 4])),
)
def test_replaying_a_transcript_reproduces_its_report(
    stores, encoder, tmp_path_factory, salt, project, vuln, config, parallelisms
):
    store, _ = stores[project]
    recorded, replayed = (replace(config, parallelism=p) for p in parallelisms)
    path = tmp_path_factory.mktemp("replay") / "run.jsonl"
    with Transcript(sink_path=path) as transcript:
        original = run(store, encoder, HashChatProvider(salt), vuln, recorded, transcript)
    replay = run(store, encoder, ReplayChatProvider(Transcript.load(path)), vuln, replayed)
    assert replace(replay, transcript_path=None).to_dict() == replace(
        original, transcript_path=None
    ).to_dict()
