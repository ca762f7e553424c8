import functools
import hashlib
import io
import json
import logging
import operator
import os
import re
import shutil
import subprocess
import sys
import threading
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    DIMS,
    FIXTURES,
    FIXTURE_THETA,
    edited_prompts,
    encode_alone,
    torn_writes,
    write_tool_config,
    write_toy_manifest,
)
from vulnreach import cli, evalharness
from vulnreach.embedding import ReferenceEncoder, RemoteEncoderProvider
from vulnreach.errors import ConfigError, EmptyProject, IndexFormatError, MalformedResponse, ProviderError
from vulnreach.gateway import ChatGateway, RoleKind, ScriptedChatProvider, Transcript
from vulnreach.memo import Memo, encoder_fingerprint
from vulnreach.model import Config, Verdict
from vulnreach.segmenter import segment_project
from vulnreach.store import VectorStore


def run_cli(*args: str) -> int:
    return cli.main(list(args))


def read_report(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def strip_timestamps(text: str) -> str:
    return re.sub(r'^\s*"generated_at": "[^"]*",?\n', "", text, flags=re.MULTILINE)


@pytest.fixture()
def config_file(tmp_path: Path) -> Path:
    return write_tool_config(tmp_path / "config.json")


# sha256 over index bytes + metadata sidecar for guarded_app at theta=60,
# dims=256, in index format 2. It changes with the file format; the content
# digest below, taken as the benchmark takes it (block dicts, then float32
# vector bytes), must not: it is the same for format 1 and format 2.
GOLDEN_GUARDED_INDEX_DIGEST = "9de61d3d746ad29e031b4b7a8a6e48692ef22f8c76d8908fa005f43b1472f181"
GOLDEN_GUARDED_CONTENT_DIGEST = "f36067bdfb1838c237cd87407e04330e9ac5c5da544b4d2dc8ad6c82cc8c3e34"


def content_digest(path: Path) -> str:
    store = VectorStore.open(path)
    acc = hashlib.sha256()
    acc.update(json.dumps([e.block.to_dict() for e in store.entries()], sort_keys=True).encode())
    acc.update(store._vectors.astype("<f4").tobytes())
    return acc.hexdigest()


# sha256 of the index file and of its sidecar that ``vulnreach index`` writes
# for each fixture project at theta 5, 60 and 2500. A change that claims to
# keep index output must keep these.
INDEX_BYTES = {
    ("guarded_app", 5): (
        "f5ee9a121a8dbd47483ad6514dcf0736488d559f565e3785c2ad1a8decd974b0",
        "ae5bb323b51575538dc84b0eb091237e763de2523bc4f4ff541fe366ac3fa82e",
    ),
    ("guarded_app", 60): (
        "5cada0d6b0921f0cda7edcc575f3432a4860e5b630f1e44721c1740e59e2d5c0",
        "5bc48a1550c7224527305e7834dcc72befa806183da3bc682229bab4f3f67c98",
    ),
    ("guarded_app", 2500): (
        "098fdd3714f2e98939b948dd37fe323d59915dae31de62a76b0fcf15cd2807f8",
        "33382251d5aa3b97e96d3483769ab275c61dc5119007bef752ecdc1f370d2a08",
    ),
    ("legacy_app", 5): (
        "2d86a30a3de6c35fbb0f86845975df64d2e67dcfc165572e44cf089beb8b060d",
        "495cb7824bf3e16a4a0adb7ec505e522597e5f27d30d520dd2101df37e2fef76",
    ),
    ("legacy_app", 60): (
        "502c08b5037105f340d7b33eedb098916a8c29d2717ee5eefc4786ecc6351b05",
        "a67e7dc068758f038e4183e5e48852d04299c7f1e3f8ec6d3af9f521c154abd5",
    ),
    ("legacy_app", 2500): (
        "9e7fda91c823ba5ee6e49906e3c7a2c295d6a2284780f73069e64c65e46e59aa",
        "ace7fa8b85509021c8ee3ad22aa73ff2b9efaf494b4d4660691691e000138267",
    ),
    ("miniproj", 5): (
        "91d6752ace9c8947b812a4372b8eae7a166fb3eee47667619f470b6af6264f39",
        "48dd8f931ceb593c99080a1d5d22a9c7cacc4bf4998a50ff3ec67f01d990d6e9",
    ),
    ("miniproj", 60): (
        "e30c9b76ef1956262e46a8a7061cfbe72598c22da0673acfb8ffd05bc1c526ee",
        "dc431b68bdee57274ccfa2c938a1dd9fd746f18b1eea079c8f9627df53d7ef4e",
    ),
    ("miniproj", 2500): (
        "1130183b09a873ae9d9987e240bb22be6c50d6659fe1bdcca434442b29c74c1d",
        "1ad64e53030db4d851abb3a348e80e40f5e7b211b6d2fdeed76122b3cf9c2323",
    ),
    ("plain_app", 5): (
        "7efec66d162989c4320fd64c1aab42c296ebd9b401efe961afb1897ec8fdcc9d",
        "df4b2c32e7c81155986b4b985bb9137e0bd15c458a1b7b20005f917234790796",
    ),
    ("plain_app", 60): (
        "883ca2b831a4800a9a488854ff3f7b1806970ed4d3fb58dd57a65a6dbef05d05",
        "6296909bb9cfc01dd5e1346b5a8306af421822ac3d765ba717340dbfda6f2f7d",
    ),
    ("plain_app", 2500): (
        "a8cb63944a002b3b818fbbde17f8ce1be498dde7927ddf15e04a7da1393f65dc",
        "80bad6831f72afbe83c1990c281136333424a4a17d4b31308d5e371d5b22179d",
    ),
    ("unguarded_app", 5): (
        "e514e61c04fcacebaf41f72e4efc6a36a838696597dec2e57854951175ac459c",
        "a766343b7ffc5f047a10154fa7343746ff0dc031ffb1cb6153a4b9153f6d580a",
    ),
    ("unguarded_app", 60): (
        "8bc3a4da90bd36694e7e684d3f828598687c15c0286cf174b8c26019538a49f4",
        "6b9291fb1939d774d6248b43d55beb035a5badfff3a7740e704f277bdfa7d95b",
    ),
    ("unguarded_app", 2500): (
        "43b7f17acc72a60be0bca9195b70edcba52e19e3508f9befc9d38e57af030fb1",
        "f1eac3f3e6ea79e4d661a5567cd3763d6b63c4d82a8d4ea38d2469ee67340358",
    ),
}


class TestIndexCommand:
    def test_index_fixture_is_deterministic(self, tmp_path: Path, capsys):
        outputs = []
        for name in ("one.vrix", "two.vrix"):
            out = tmp_path / name
            code = run_cli(
                "index",
                "--project", str(FIXTURES / "guarded_app"),
                "--out", str(out),
                "--theta", str(FIXTURE_THETA),
            )
            assert code == 0
            outputs.append(
                hashlib.sha256(
                    out.read_bytes() + (out.parent / (out.name + ".meta.json")).read_bytes()
                ).hexdigest()
            )
        assert outputs[0] == outputs[1] == GOLDEN_GUARDED_INDEX_DIGEST
        assert content_digest(out) == GOLDEN_GUARDED_CONTENT_DIGEST
        stdout = capsys.readouterr().out
        assert f"dims {DIMS}" in stdout and "indexed" in stdout

    @pytest.mark.parametrize(("project", "theta"), sorted(INDEX_BYTES))
    def test_index_writes_the_recorded_bytes(self, tmp_path: Path, project: str, theta: int, capsys):
        out = tmp_path / "i.vrix"
        assert run_cli("index", "--project", str(FIXTURES / project), "--out", str(out), "--theta", str(theta)) == 0
        written = (out, out.with_name(out.name + ".meta.json"))
        assert tuple(hashlib.sha256(path.read_bytes()).hexdigest() for path in written) == INDEX_BYTES[project, theta]

    def test_every_fixture_project_has_recorded_index_bytes(self):
        projects = {path.name for path in FIXTURES.iterdir() if path.is_dir()}
        assert {project for project, _ in INDEX_BYTES} == projects

    def test_index_empty_dir_exits_1_with_message(self, tmp_path: Path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        code = run_cli("index", "--project", str(empty), "--out", str(tmp_path / "i.vrix"))
        assert code == 1
        assert "no source files" in capsys.readouterr().err

    def test_block_count_non_increasing_in_theta(self, tmp_path: Path, capsys):
        counts = []
        for theta in (30, 3000):
            code = run_cli(
                "index",
                "--project", str(FIXTURES / "guarded_app"),
                "--out", str(tmp_path / f"idx{theta}.vrix"),
                "--theta", str(theta),
            )
            assert code == 0
            counts.append(int(re.search(r"indexed (\d+) blocks", capsys.readouterr().out).group(1)))
        assert counts[0] >= counts[1]

    def test_provider_failure_exits_2(self, tmp_path: Path, monkeypatch, capsys):
        from vulnreach import embedding
        from vulnreach.errors import ProviderError

        def explode(self, texts):
            raise ProviderError("quota exhausted", status=429)

        monkeypatch.setattr(embedding.ReferenceEncoder, "encode_batch", explode)
        code = run_cli(
            "index",
            "--project", str(FIXTURES / "plain_app"),
            "--out", str(tmp_path / "i.vrix"),
        )
        assert code == 2
        assert "provider" in capsys.readouterr().err.lower()

    @pytest.mark.parametrize("bad", [0.0, float("nan"), float("inf")], ids=["zero", "nan", "inf"])
    def test_an_unusable_vector_exits_2_with_one_error_line(self, tmp_path: Path, monkeypatch, capsys, bad):
        from vulnreach import embedding

        monkeypatch.setattr(
            embedding.ReferenceEncoder, "encode_batch", lambda self, texts: [[bad] * self.dims for _ in texts]
        )
        out = tmp_path / "i.vrix"
        code = run_cli("index", "--project", str(FIXTURES / "plain_app"), "--out", str(out))
        err = capsys.readouterr().err
        assert code == 2 and not out.exists()
        assert err.startswith("error: ") and len(err.splitlines()) == 1, err
        assert "position 0" in err

    def test_whitespace_only_file_contributes_no_block(self, tmp_path: Path, capsys):
        tool = FIXTURES / "unguarded_app" / "src" / "main" / "java" / "com" / "acme" / "tool"
        counts = []
        for blank in (False, True):
            project = tmp_path / f"app{int(blank)}"
            shutil.copytree(tool, project)
            if blank:
                (project / "Blank.java").write_text("\n")
            code = run_cli(
                "index", "--project", str(project), "--out", str(tmp_path / f"i{int(blank)}.vrix")
            )
            assert code == 0, capsys.readouterr().err
            counts.append(int(re.search(r"indexed (\d+) blocks", capsys.readouterr().out).group(1)))
        assert counts[0] == counts[1] >= 1

    def test_reports_parse_error_regions_kept_as_other_blocks(self, tmp_path: Path, capsys):
        project = tmp_path / "app"
        project.mkdir()
        (project / "Broken.java").write_text(
            "class Broken {\n"
            "    void ok() {\n        run();\n    }\n"
            "    int ) garbage (;\n"
            "    void fine() {\n        go();\n    }\n"
            "}\n"
        )
        reported = []
        for root in (project, FIXTURES / "guarded_app"):
            code = run_cli(
                "index", "--project", str(root), "--out", str(tmp_path / "i.vrix"), "--theta", "5"
            )
            assert code == 0
            reported.append(
                re.match(
                    r"indexed \d+ blocks at dims \d+ -> .* \((\d+) parse error region\(s\)"
                    r" kept as Other blocks\)$",
                    capsys.readouterr().out.strip(),
                ).group(1)
            )
        assert reported == ["1", "0"]


def write_empty_files_project(root: Path) -> Path:
    """A project whose only sources are 0-byte files: no blocks at all."""
    for name in ("A.java", "pkg/B.java"):
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_bytes(b"")
    return root


class TestIndexBatches:
    """`vulnreach index` embeds each distinct block text once, in first-seen
    order and ``batch_limit`` texts per batch, inserting as it goes."""

    BODIES = ["class A { int a; }\n", "class B { int b; }\n", "class C { int c; }\n"]

    @pytest.fixture()
    def batches(self, tmp_path: Path, monkeypatch) -> list[list[str]]:
        """Files F0..F5 holding the texts A, B, A, C, B, A; an encoder that
        sends two texts per batch and records each batch."""
        project = tmp_path / "app"
        project.mkdir()
        for i, body in enumerate([0, 1, 0, 2, 1, 0]):
            (project / f"F{i}.java").write_text(self.BODIES[body], encoding="utf-8")
        init, encode, sent = ReferenceEncoder.__init__, ReferenceEncoder.encode_batch, []

        def two_per_batch(self, dims: int = 256):
            init(self, dims)
            self.batch_limit = 2

        def recording(self, texts):
            sent.append(list(texts))
            return encode(self, texts)

        monkeypatch.setattr(ReferenceEncoder, "__init__", two_per_batch)
        monkeypatch.setattr(ReferenceEncoder, "encode_batch", recording)
        return sent

    def test_each_block_gets_the_vector_of_its_text(self, tmp_path: Path, batches, capsys):
        out = tmp_path / "i.vrix"
        assert run_cli("index", "--project", str(tmp_path / "app"), "--out", str(out)) == 0
        store = VectorStore.open(out)
        sources = [e.block.source for e in store.entries()]
        assert [self.BODIES.index(s) for s in sources] == [0, 1, 0, 2, 1, 0]
        assert batches == [self.BODIES[:2], self.BODIES[2:]]
        expected = [encode_alone(s, 256).astype(np.float32) for s in sources]
        assert np.array_equal(store._vectors, np.array(expected))

    def test_a_failure_in_a_later_batch_leaves_no_file(
        self, tmp_path: Path, batches, monkeypatch, capsys
    ):
        encode = ReferenceEncoder.encode_batch

        def second_fails(self, texts):
            if batches:
                raise ProviderError("quota exhausted", status=429)
            return encode(self, texts)

        monkeypatch.setattr(ReferenceEncoder, "encode_batch", second_fails)
        out = tmp_path / "out" / "i.vrix"
        assert run_cli("index", "--project", str(tmp_path / "app"), "--out", str(out)) == 2
        assert "provider" in capsys.readouterr().err
        assert len(batches) == 1 and not out.parent.exists()


class TestProjectWithoutBlocks:
    def test_index_writes_an_openable_empty_index(self, tmp_path: Path, capsys):
        project = write_empty_files_project(tmp_path / "app")
        out = tmp_path / "i.vrix"
        assert run_cli("index", "--project", str(project), "--out", str(out)) == 0
        assert "indexed 0 blocks" in capsys.readouterr().out
        assert VectorStore.open(out).count() == 0

    def test_analyze_of_the_empty_index_exits_1(self, tmp_path: Path, config_file: Path, capsys):
        project = write_empty_files_project(tmp_path / "app")
        out = tmp_path / "i.vrix"
        assert run_cli("index", "--project", str(project), "--out", str(out)) == 0
        code = run_cli(
            "analyze",
            "--index", str(out),
            "--vuln", str(FIXTURES / "vuln_encoder_null.json"),
            "--config", str(config_file),
            "--report", str(tmp_path / "r.json"),
        )
        assert code == 1
        assert "empty index" in capsys.readouterr().err

    def test_evaluate_marks_the_project_failed(self, tmp_path: Path, config_file: Path, capsys):
        manifest_path = write_toy_manifest(tmp_path / "manifest.json")
        manifest = json.loads(manifest_path.read_text())
        manifest["projects"].append(
            {
                "project_id": "hollow",
                "root_path": str(write_empty_files_project(tmp_path / "hollow")),
                "ground_truth": "Secure",
                "vuln_refs": ["CVE-2020-5408"],
            }
        )
        manifest_path.write_text(json.dumps(manifest))
        out_dir = tmp_path / "out"
        code = run_cli(
            "evaluate", "--manifest", str(manifest_path), "--config", str(config_file),
            "--out", str(out_dir),
        )
        # An empty index is a user error, so the run that skipped it is one too.
        assert code == 1
        assert capsys.readouterr().err.splitlines()[-1].startswith("error: 1 of 5 project runs failed")
        report = read_report(out_dir / f"report_theta_{FIXTURE_THETA}.json")
        row = next(r for r in report["projects"] if r["project_id"] == "hollow")
        assert row["prediction"] == "failed" and "EmptyIndex" in row["error"]
        assert report["failed_projects"] == 1
        assert report["confusion_matrix"] == {"tp": 2, "fp": 0, "tn": 2, "fn": 0}


def build_index_for(project: str, tmp_path: Path) -> Path:
    out = tmp_path / f"{project}.vrix"
    assert (
        run_cli(
            "index",
            "--project", str(FIXTURES / project),
            "--out", str(out),
            "--theta", str(FIXTURE_THETA),
        )
        == 0
    )
    return out


class TestAnalyzeCommand:
    def test_guarded_fixture_reports_secure_exit_0(self, tmp_path: Path, config_file: Path):
        index = build_index_for("guarded_app", tmp_path)
        report = tmp_path / "report.json"
        code = run_cli(
            "analyze",
            "--index", str(index),
            "--vuln", str(FIXTURES / "vuln_encoder_null.json"),
            "--config", str(config_file),
            "--report", str(report),
            "--project-id", "guarded_app",
        )
        assert code == 0
        data = read_report(report)
        assert data["project_judgment"] == "Secure"
        assert data["config"]["theta"] == FIXTURE_THETA
        assert Path(data["transcript_path"]).exists()

    def test_unguarded_fixture_exit_3(self, tmp_path: Path, config_file: Path):
        index = build_index_for("unguarded_app", tmp_path)
        report = tmp_path / "new" / "dir" / "report.json"  # made by analyze
        code = run_cli(
            "analyze",
            "--index", str(index),
            "--vuln", str(FIXTURES / "vuln_encoder_null.json"),
            "--config", str(config_file),
            "--report", str(report),
            "--project-id", "unguarded_app",
        )
        assert code == 3
        assert read_report(report)["project_judgment"] == "Vulnerable"
        assert Path(read_report(report)["transcript_path"]).stat().st_size > 0

    @pytest.mark.parametrize("content", [None, 5])
    def test_a_chat_reply_without_text_exits_2_with_one_error_line(
        self, tmp_path: Path, monkeypatch, capsys, content
    ):
        index = build_index_for("guarded_app", tmp_path)
        monkeypatch.setenv("VULNREACH_TEST_CHAT_KEY", "secret")
        reply = SimpleNamespace(
            status_code=200, json=lambda: {"choices": [{"message": {"content": content}}]}
        )
        monkeypatch.setattr("requests.post", lambda *a, **kw: reply)
        config = tmp_path / "cfg.json"
        remote = {"provider": "openai-compat", "model": "m", "endpoint": "http://localhost:9/chat",
                  "api_key_env": "VULNREACH_TEST_CHAT_KEY"}
        config.write_text(json.dumps({"chat": remote}))
        code = run_cli(
            "analyze", "--index", str(index), "--vuln", str(FIXTURES / "vuln_encoder_null.json"),
            "--config", str(config), "--report", str(tmp_path / "report.json"),
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: provider failure: malformed chat response: ") and err.count("\n") == 1, err
        assert not (tmp_path / "report.json").exists()

    def test_replay_transcript_reproduces_identical_report(self, tmp_path: Path, config_file: Path):
        index = build_index_for("guarded_app", tmp_path)
        first_report = tmp_path / "first.json"
        run_cli(
            "analyze",
            "--index", str(index),
            "--vuln", str(FIXTURES / "vuln_encoder_null.json"),
            "--config", str(config_file),
            "--report", str(first_report),
            "--project-id", "guarded_app",
        )
        transcript = read_report(first_report)["transcript_path"]
        second_report = tmp_path / "second.json"
        code = run_cli(
            "analyze",
            "--index", str(index),
            "--vuln", str(FIXTURES / "vuln_encoder_null.json"),
            "--config", str(config_file),
            "--report", str(second_report),
            "--project-id", "guarded_app",
            "--transcript", str(transcript),
        )
        assert code == 0
        first, second = read_report(first_report), read_report(second_report)
        # The replayed report names the provider that answered.
        assert first["config"].pop("chat")["provider"] == "scripted"
        assert second["config"].pop("chat") == {
            "provider": "replay",
            "transcript_path": str(transcript),
        }
        assert second["per_candidate"] and second["per_candidate"] == first["per_candidate"]
        assert second["project_judgment"] == first["project_judgment"]
        first_text = strip_timestamps(json.dumps(first, indent=2, sort_keys=True))
        second_text = strip_timestamps(json.dumps(second, indent=2, sort_keys=True))
        assert first_text.replace("first.json", "X") == second_text.replace("second.json", "X")

    @pytest.mark.parametrize(
        "appended",
        [None, b"[1, 2]", b'{"seq": 0}', b"\xff\xfe"],
        ids=["torn-last-line", "list", "no-role", "not-utf-8"],
    )
    def test_a_transcript_line_that_is_no_entry_is_refused(
        self, tmp_path: Path, config_file: Path, capsys, appended
    ):
        index = build_index_for("guarded_app", tmp_path)
        args = (
            "analyze",
            "--index", str(index),
            "--vuln", str(FIXTURES / "vuln_encoder_null.json"),
            "--config", str(config_file),
        )
        assert run_cli(*args, "--report", str(tmp_path / "first.json")) == 0
        recorded = (tmp_path / "first.json.transcript.jsonl").read_bytes()
        lines = recorded.count(b"\n")
        bad = tmp_path / "bad.jsonl"
        if appended is None:
            # An aborted run's torn last line, as `head -c -40` leaves it.
            bad.write_bytes(recorded[:-40])
        else:
            bad.write_bytes(recorded + appended + b"\n")
            lines += 1
        capsys.readouterr()
        report = tmp_path / "replay.json"
        code = run_cli(*args, "--report", str(report), "--transcript", str(bad))
        err = capsys.readouterr().err
        assert code == 1 and not report.exists(), err
        assert err.startswith(f"error: transcript {bad} line {lines} is not a recorded entry"), err
        assert len(err.splitlines()) == 1, err

    @pytest.mark.parametrize(
        "key, value",
        [
            # Once replayed as its Python repr: "replay has no grader
            # response for this prompt (none recorded)", exit 2.
            ("raw_response", {"answer": "yes"}),
            # Each once cast, and the replay wrote a normal report (exit 3).
            ("seq", True),
            ("seq", "1"),
            ("model_id", 5),
            ("timestamp", None),
        ],
    )
    def test_a_transcript_value_of_another_json_type_is_refused(
        self, tmp_path: Path, config_file: Path, capsys, key, value
    ):
        index = build_index_for("unguarded_app", tmp_path)
        args = (
            "analyze",
            "--index", str(index),
            "--vuln", str(FIXTURES / "vuln_encoder_null.json"),
            "--config", str(config_file),
        )
        assert run_cli(*args, "--report", str(tmp_path / "first.json")) == 3
        first, *rest = (tmp_path / "first.json.transcript.jsonl").read_text(encoding="utf-8").splitlines(True)
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps({**json.loads(first), key: value}) + "\n" + "".join(rest), encoding="utf-8")
        capsys.readouterr()
        report = tmp_path / "replay.json"
        code = run_cli(*args, "--report", str(report), "--transcript", str(bad))
        err = capsys.readouterr().err
        assert code == 1 and not report.exists(), err
        assert err.startswith(f"error: transcript {bad} line 1 is not a recorded entry: ConfigError: {key} "), err
        assert len(err.splitlines()) == 1, err

    @pytest.mark.parametrize(
        "script, message",
        [
            (
                {"rules": [{"role": "grader", "response": "x"}]},
                "rule 0 is not a dict with 'contains' and 'response'",
            ),
            ([1], "the top level is a list, not a dict"),
            ({"rules": {"contains": "x", "response": "y"}}, "'rules' is a dict, not a list"),
            ({"sequences": [["yes"]]}, "'sequences' is a list, not a dict"),
            ({"defaults": "yes"}, "'defaults' is a str, not a dict"),
            ({"sequences": {"grader": "yes"}}, "sequence 'grader' is a str, not a list"),
            ({"rules": ["x"]}, "rule 0 is not a dict"),
            ({"rules": [{"contains": None, "response": "yes"}]}, "rule 0 'contains' is a NoneType, not a str"),
            ({"rules": [{"contains": "x", "response": "y"}, {"contains": 5, "response": "yes"}]},
             "rule 1 'contains' is a int, not a str"),
        ],
        ids=["rule-without-contains", "top-level-list", "rules-object", "sequences-list", "defaults-string",
             "sequence-string", "rule-string", "contains-null", "contains-number"],
    )
    def test_a_chat_script_of_the_wrong_shape_is_refused(self, tmp_path: Path, capsys, script, message):
        index = build_index_for("guarded_app", tmp_path)
        script_path = tmp_path / "script.json"
        script_path.write_text(json.dumps(script), encoding="utf-8")
        config = write_tool_config(
            tmp_path / "config.json", chat={"provider": "scripted", "script_path": str(script_path)}
        )
        capsys.readouterr()
        report = tmp_path / "report.json"
        code = run_cli(
            "analyze",
            "--index", str(index),
            "--vuln", str(FIXTURES / "vuln_encoder_null.json"),
            "--config", str(config),
            "--report", str(report),
        )
        err = capsys.readouterr().err
        assert code == 1 and not report.exists(), err
        assert err.startswith(f"error: cannot load chat script {script_path}: {message}"), err
        assert len(err.splitlines()) == 1, err

    def test_report_names_the_theta_the_index_was_built_at(self, tmp_path: Path):
        index = build_index_for("unguarded_app", tmp_path)  # --theta 60
        config = write_tool_config(tmp_path / "no-theta.json")
        raw = json.loads(config.read_text(encoding="utf-8"))
        del raw["theta"]
        config.write_text(json.dumps(raw), encoding="utf-8")
        report = tmp_path / "report.json"
        code = run_cli(
            "analyze",
            "--index", str(index),
            "--vuln", str(FIXTURES / "vuln_encoder_null.json"),
            "--config", str(config),
            "--report", str(report),
        )
        assert code == 3
        assert read_report(report)["config"]["theta"] == FIXTURE_THETA != Config().theta

    def test_invalid_vuln_spec_exit_1(self, tmp_path: Path, config_file: Path, capsys):
        index = build_index_for("plain_app", tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_text('{"vuln_id": "X"}')
        code = run_cli(
            "analyze",
            "--index", str(index),
            "--vuln", str(bad),
            "--config", str(config_file),
            "--report", str(tmp_path / "r.json"),
        )
        assert code == 1
        assert "invalid vulnerability spec" in capsys.readouterr().err

    def test_chat_provider_failure_exit_2(self, tmp_path: Path, capsys):
        index = build_index_for("unguarded_app", tmp_path)
        dead_script = tmp_path / "dead.json"
        dead_script.write_text('{"defaults": {}}')
        config = write_tool_config(
            tmp_path / "cfg.json",
            chat={"provider": "scripted", "script_path": str(dead_script)},
        )
        capsys.readouterr()
        code = run_cli(
            "analyze",
            "--index", str(index),
            "--vuln", str(FIXTURES / "vuln_encoder_null.json"),
            "--config", str(config),
            "--report", str(tmp_path / "r.json"),
        )
        err = capsys.readouterr().err
        assert code == 2 and not (tmp_path / "r.json").exists()
        assert err.startswith("error: provider failure: ") and len(err.splitlines()) == 1, err

    def test_a_judge_answering_prose_exits_2_naming_role_and_block(self, tmp_path: Path, capsys):
        index = build_index_for("unguarded_app", tmp_path)
        script = tmp_path / "prose.json"
        script.write_text(
            json.dumps(
                {
                    "rules": [{"role": "grader", "contains": ".encode(", "response": {"answer": "yes"}}],
                    "defaults": {
                        "grader": {"answer": "no"},
                        "reflection": {"complete": True, "reason": ""},
                        "judge": "I cannot tell.",
                    },
                }
            )
        )
        config = write_tool_config(
            tmp_path / "cfg.json", chat={"provider": "scripted", "script_path": str(script)}
        )
        report = tmp_path / "r.json"
        code = run_cli(
            "analyze",
            "--index", str(index),
            "--vuln", str(FIXTURES / "vuln_encoder_null.json"),
            "--config", str(config),
            "--report", str(report),
        )
        err = capsys.readouterr().err
        assert code == 2 and not report.exists()
        assert err.startswith("error: judge reply for candidate ") and len(err.splitlines()) == 1, err
        assert "I cannot tell." in err
        block_id = err.split("candidate ", 1)[1].split(",", 1)[0]
        assert VectorStore.open(index).get(block_id) is not None
        # The transcript keeps both judge answers: the first ask and the reprompt.
        transcript = report.with_name(report.name + ".transcript.jsonl").read_text().splitlines()
        assert [json.loads(line)["role_kind"] for line in transcript][-2:] == ["judge", "judge"]


def write_hasher_project(root: Path) -> Path:
    """Three classes that each hand a password to the encoder; only the
    last one rejects null first, so the judge tells them apart."""
    guard = (
        "        if (raw == null) {\n"
        '            throw new IllegalArgumentException("raw");\n'
        "        }\n"
    )
    for name, check in (("Signup", ""), ("Reset", ""), ("Login", guard)):
        path = root / "src" / "com" / "acme" / f"{name}Tool.java"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            "package com.acme;\n\n"
            "import org.springframework.security.crypto.bcrypt.BCryptPasswordEncoder;\n\n"
            f"public class {name}Tool {{\n\n"
            "    private final BCryptPasswordEncoder encoder = new BCryptPasswordEncoder();\n\n"
            f"    public String hash{name}(String raw) {{\n"
            f"{check}"
            "        return encoder.encode(raw);\n"
            "    }\n"
            "}\n"
        )
    return root


class TestIndexProvenance:
    """An index records the encoder and theta that built it, and analyze
    refuses one it cannot trust, with one error line and exit 1."""

    def analyze(self, tmp_path: Path, index: Path, config: Path) -> int:
        return run_cli(
            "analyze",
            "--index", str(index),
            "--vuln", str(FIXTURES / "vuln_encoder_null.json"),
            "--config", str(config),
            "--report", str(tmp_path / "r.json"),
        )

    def assert_one_error_line(self, tmp_path: Path, capsys, *words: str) -> None:
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1, err
        assert all(word in err for word in words) and "Traceback" not in err, err
        assert not (tmp_path / "r.json").exists()

    def test_index_records_the_encoder_and_theta(self, tmp_path: Path):
        store = VectorStore.open(build_index_for("plain_app", tmp_path))
        assert store.encoder == encoder_fingerprint(ReferenceEncoder(dims=DIMS))
        assert store.theta == FIXTURE_THETA

    def test_an_index_of_other_encoder_dims_is_refused(self, tmp_path: Path, config_file: Path, capsys):
        small = write_tool_config(tmp_path / "small.json", encoder={"provider": "reference", "dims": 128})
        index = tmp_path / "i.vrix"
        project = str(FIXTURES / "unguarded_app")
        assert run_cli("index", "--project", project, "--out", str(index), "--config", str(small)) == 0
        capsys.readouterr()
        assert self.analyze(tmp_path, index, config_file) == 1
        self.assert_one_error_line(tmp_path, capsys, "128", "256", "re-index")
        assert self.analyze(tmp_path, index, small) == 3  # the encoder that built it is accepted

    def test_an_index_of_another_encoder_name_is_refused(
        self, tmp_path: Path, config_file: Path, monkeypatch, capsys
    ):
        index = build_index_for("unguarded_app", tmp_path)
        monkeypatch.setattr(
            RemoteEncoderProvider, "encode_batch", lambda self, texts: pytest.fail("encoder called")
        )
        remote = {
            "provider": "openai-compat", "name": "other-encoder", "model": "m",
            "endpoint": "http://localhost:9/v1/embeddings", "dims": DIMS, "api_key_env": "NO_KEY",
        }
        other = write_tool_config(tmp_path / "other.json", encoder=remote)
        capsys.readouterr()
        assert self.analyze(tmp_path, index, other) == 1
        self.assert_one_error_line(tmp_path, capsys, "other-encoder", "re-index")

    def test_a_format_1_index_is_refused(self, tmp_path: Path, config_file: Path, capsys):
        index = tmp_path / "old.vrix"
        index.write_bytes(b"VRIX\x01" + bytes(8))
        index.with_name("old.vrix.meta.json").write_text('{"format_version": 1, "blocks": []}')
        assert self.analyze(tmp_path, index, config_file) == 1
        self.assert_one_error_line(tmp_path, capsys, "re-index")

    @pytest.mark.parametrize("damage", ["truncate", "flip", "mix"])
    def test_a_damaged_index_exits_1(self, tmp_path: Path, config_file: Path, damage, capsys):
        index = build_index_for("unguarded_app", tmp_path)
        data = bytearray(index.read_bytes())
        if damage == "truncate":
            del data[-1:]
        elif damage == "flip":
            data[len(data) // 2] ^= 1
        else:  # the .vrix of another build beside this sidecar
            other = tmp_path / "other"
            other.mkdir()
            data = bytearray(build_index_for("guarded_app", other).read_bytes())
        index.write_bytes(bytes(data))
        capsys.readouterr()
        assert self.analyze(tmp_path, index, config_file) == 1
        self.assert_one_error_line(tmp_path, capsys, str(index))


class TestReplayAcrossParallelism:
    CANDIDATES = 3

    def analyze(
        self, tmp_path: Path, index: Path, name: str, parallelism: int, *extra: str
    ) -> dict:
        config = write_tool_config(tmp_path / f"{name}.cfg.json", parallelism=parallelism)
        report = tmp_path / f"{name}.json"
        code = run_cli(
            "analyze",
            "--index", str(index),
            "--vuln", str(FIXTURES / "vuln_encoder_null.json"),
            "--config", str(config),
            "--report", str(report),
            *extra,
        )
        assert code == 3, f"{name}: exit {code}"
        return read_report(report)

    def hold_judgments(self, patch: pytest.MonkeyPatch) -> None:
        """Hold every judgment until all candidates have reflected, so that
        at parallelism > 1 the model is asked in another order than at 1."""
        barrier = threading.Barrier(self.CANDIDATES, timeout=10)
        judge = ChatGateway.judge_reachability

        def judge_after_all_reflections(gateway, candidate, vuln):
            barrier.wait()
            return judge(gateway, candidate, vuln)

        patch.setattr(ChatGateway, "judge_reachability", judge_after_all_reflections)

    @pytest.mark.parametrize("recorded_at, replayed_at", [(1, 4), (4, 1)])
    def test_recorded_run_replays_at_other_parallelism(
        self, tmp_path: Path, monkeypatch, recorded_at: int, replayed_at: int
    ):
        index = tmp_path / "app.vrix"
        project = write_hasher_project(tmp_path / "app")
        assert run_cli(
            "index", "--project", str(project), "--out", str(index), "--theta", str(FIXTURE_THETA)
        ) == 0

        transcript = str(tmp_path / "recorded.json.transcript.jsonl")
        runs = []
        for name, parallelism, extra in (
            ("recorded", recorded_at, ()),
            ("replayed", replayed_at, ("--transcript", transcript)),
        ):
            with monkeypatch.context() as patch:
                if parallelism > 1:
                    self.hold_judgments(patch)
                runs.append(self.analyze(tmp_path, index, name, parallelism, *extra))
        recorded, replayed = runs
        assert len(recorded["per_candidate"]) == self.CANDIDATES
        assert sorted(c["judgment"] for c in recorded["per_candidate"]) == [
            "Secure", "Vulnerable", "Vulnerable",
        ]
        assert replayed["per_candidate"] == recorded["per_candidate"]
        assert replayed["project_judgment"] == recorded["project_judgment"] == "Vulnerable"


class TestEvaluateCommand:
    def test_toy_manifest_end_to_end(self, tmp_path: Path, config_file: Path, capsys):
        manifest = write_toy_manifest(tmp_path / "manifest.json")
        out_dir = tmp_path / "out"
        code = run_cli(
            "evaluate",
            "--manifest", str(manifest),
            "--config", str(config_file),
            "--out", str(out_dir),
        )
        assert code == 0
        report = read_report(out_dir / f"report_theta_{FIXTURE_THETA}.json")
        assert report["confusion_matrix"] == {"tp": 2, "fp": 0, "tn": 2, "fn": 0}
        stdout = capsys.readouterr().out
        assert "guarded_app" in stdout and "metrics:" in stdout

    def test_from_predictions_with_reported_counts(self, tmp_path: Path, capsys):
        predictions = tmp_path / "cm.json"
        predictions.write_text(json.dumps({"confusion_matrix": {"tp": 31, "fp": 6, "fn": 11, "tn": 7}}))
        code = run_cli(
            "evaluate",
            "--from-predictions", str(predictions),
            "--out", str(tmp_path / "out"),
        )
        assert code == 0
        # The paper's RQ1 matrix, through the one metrics formatter.
        line = "precision=0.838 recall=0.738 accuracy=0.691 f1=0.785"
        assert capsys.readouterr().out.splitlines() == ["tp=31 fp=6 tn=7 fn=11", line]
        result = read_report(tmp_path / "out" / "metrics.json")
        table = evalharness.render_table(
            {
                "projects": [],
                "evaluated_projects": 55,
                "failed_projects": 0,
                "config": {"theta": 1000, "tau": 0.5, "top_k": 10, "encoder": "e", "chat": "c"},
                **result,
            }
        )
        assert f"metrics: {line}" in table.splitlines()

    def test_a_prediction_for_a_project_the_manifest_does_not_name_is_refused(
        self, tmp_path: Path, capsys
    ):
        # Once scored tp=0 fp=0 tn=1 fn=0 with exit 0, "ghost" unread.
        manifest = write_toy_manifest(tmp_path / "manifest.json")
        raw = json.loads(manifest.read_text(encoding="utf-8"))
        raw["projects"] = [p for p in raw["projects"] if p["project_id"] == "plain_app"]
        manifest.write_text(json.dumps(raw), encoding="utf-8")
        predictions = tmp_path / "p.json"
        predictions.write_text(json.dumps({"predictions": {"plain_app": "Secure", "ghost": "Vulnerable"}}))
        out = tmp_path / "out"
        code = run_cli(
            "evaluate",
            "--from-predictions", str(predictions),
            "--manifest", str(manifest),
            "--out", str(out),
        )
        captured = capsys.readouterr()
        assert code == 1 and not captured.out and not out.exists()
        assert captured.err == "error: predictions for projects the manifest does not name: ['ghost']\n"

    def test_failed_rows_exit_1_after_writing_the_reports(self, tmp_path: Path, config_file: Path, capsys):
        manifest_path = tmp_path / "manifest.json"
        manifest = json.loads(write_toy_manifest(manifest_path).read_text())
        manifest["projects"].append(
            {
                "project_id": "ghost",
                "root_path": str(tmp_path / "does-not-exist"),
                "ground_truth": "Vulnerable",
                "vuln_refs": ["CVE-2020-5408"],
            }
        )
        manifest_path.write_text(json.dumps(manifest))
        out_dir = tmp_path / "out"
        code = run_cli(
            "evaluate",
            "--manifest", str(manifest_path),
            "--config", str(config_file),
            "--out", str(out_dir),
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines()[-1] == (
            f"error: 1 of 5 project runs failed, the first with EmptyProject: no source files under"
            f" {tmp_path / 'does-not-exist'}; the reports are in {out_dir}"
        )
        assert "Traceback" not in captured.err
        # The metrics name the projects they are over; the failed one is not among them.
        assert captured.out.splitlines()[-1] == (
            f"theta={FIXTURE_THETA}: precision=1.000 recall=1.000 accuracy=1.000 f1=1.000"
            " over 4 evaluated project(s), 1 failed"
        )
        report = read_report(out_dir / f"report_theta_{FIXTURE_THETA}.json")
        assert report["failed_projects"] == 1
        assert report["confusion_matrix"] == {"tp": 2, "fp": 0, "tn": 2, "fn": 0}
        assert (out_dir / f"report_theta_{FIXTURE_THETA}.txt").is_file()

    @pytest.mark.parametrize("chat", ["prose", "replay"])
    def test_a_model_failure_in_any_project_exits_2(self, tmp_path: Path, chat: str, capsys):
        # MalformedResponse from a judge that answers prose, and ProviderError
        # from a replay with no recorded answer: each exits 2, as analyze does.
        script = tmp_path / "prose.json"
        answers = {"grader": {"answer": "yes"}, "reflection": {"complete": True, "reason": ""}}
        script.write_text(json.dumps({"defaults": {**answers, "judge": "No idea."}}))
        (tmp_path / "empty.jsonl").write_text("")
        provider = (
            {"provider": "scripted", "script_path": str(script)}
            if chat == "prose"
            else {"provider": "replay", "transcript_path": str(tmp_path / "empty.jsonl")}
        )
        out_dir = tmp_path / "out"
        code = run_cli(
            "evaluate",
            "--manifest", str(write_toy_manifest(tmp_path / "manifest.json")),
            "--config", str(write_tool_config(tmp_path / "cfg.json", chat=provider)),
            "--out", str(out_dir),
        )
        err = capsys.readouterr().err.splitlines()[-1]
        assert code == 2
        assert err.startswith(
            "error: 3 of 4 project runs failed, the first with MalformedResponse: judge reply"
            if chat == "prose"
            else "error: provider failure: 3 of 4 project runs failed, the first with ProviderError: "
        ), err
        # plain_app never calls the API: no block reaches the model, so it is scored.
        assert read_report(out_dir / f"report_theta_{FIXTURE_THETA}.json")["failed_projects"] == 3

    def test_sweep_theta_writes_one_report_per_setting(self, tmp_path: Path, capsys):
        manifest = write_toy_manifest(tmp_path / "manifest.json")
        # The sweep runs its own grid of thetas, so its config sets none.
        config = write_tool_config(tmp_path / "cfg.json", theta=None)
        out_dir = tmp_path / "out"
        code = run_cli(
            "evaluate",
            "--manifest", str(manifest),
            "--config", str(config),
            "--out", str(out_dir),
            "--sweep-theta",
        )
        assert code == 0
        reports = sorted(out_dir.glob("report_theta_*.json"))
        assert len(reports) == 6  # one per sweep setting
        stdout = capsys.readouterr().out
        for theta in (500, 1000, 1500, 2000, 2500, 3000):
            assert f"theta={theta}:" in stdout

    def test_sweep_asks_fewer_questions_than_six_runs_and_reports_the_same(
        self, tmp_path: Path, monkeypatch
    ):
        calls: list[str] = []
        complete = ScriptedChatProvider.complete

        def counting(provider, prompt, role):
            calls.append(prompt)
            return complete(provider, prompt, role)

        monkeypatch.setattr(ScriptedChatProvider, "complete", counting)
        manifest = write_toy_manifest(tmp_path / "manifest.json")
        config = write_tool_config(tmp_path / "cfg.json", theta=None)
        args = ("evaluate", "--manifest", str(manifest), "--config", str(config))
        assert run_cli(*args, "--out", str(tmp_path / "sweep"), "--sweep-theta") == 0
        sweep_calls = len(calls)
        single_calls = 0
        for theta in (500, 1000, 1500, 2000, 2500, 3000):
            calls.clear()
            out = tmp_path / f"single{theta}"
            assert run_cli(*args, "--out", str(out), "--theta", str(theta)) == 0
            single_calls += len(calls)
            name = f"report_theta_{theta}.json"
            single, swept = read_report(out / name), read_report(tmp_path / "sweep" / name)
            single.pop("generated_at")
            swept.pop("generated_at")
            assert swept == single
        assert 0 < sweep_calls < single_calls

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_sweep_refuses_a_theta_it_would_drop(self, tmp_path: Path, capsys, where):
        # `--sweep-theta --theta 77` once exited 0 with reports for theta 500
        # to 3000 and none for 77.
        manifest = write_toy_manifest(tmp_path / "manifest.json")
        theta = 77 if where == "config" else None
        config = write_tool_config(tmp_path / "cfg.json", theta=theta)
        flags = ["--theta", "77"] if where == "flag" else []
        out = tmp_path / "out"
        args = ["evaluate", "--manifest", str(manifest), "--config", str(config), "--out", str(out)]
        assert run_cli(*args, "--sweep-theta", *flags) == 1
        err = capsys.readouterr().err
        prefix = f"error: {WHAT['--config']} {config}: " if where == "config" else "error: "
        assert err.startswith(prefix) and err.count("\n") == 1 and "theta" in err, err
        assert not list(out.glob("report*"))

    def test_malformed_manifest_exit_1_with_diagnostics(self, tmp_path: Path, config_file: Path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"projects": [,]}')
        code = run_cli(
            "evaluate", "--manifest", str(bad), "--config", str(config_file), "--out", str(tmp_path / "o")
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "invalid manifest" in err and ("line" in err or "column" in err)

    def test_evaluate_requires_some_input(self, tmp_path: Path, capsys):
        assert run_cli("evaluate", "--out", str(tmp_path / "o")) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: evaluate needs --manifest or --from-predictions\n"
        assert not captured.out and not (tmp_path / "o").exists()

    def test_a_manifest_project_without_a_prediction_is_refused(self, tmp_path: Path, capsys):
        manifest = write_toy_manifest(tmp_path / "manifest.json")
        predictions = tmp_path / "p.json"
        predicted = {"guarded_app": "Secure", "unguarded_app": "Vulnerable", "legacy_app": "Vulnerable"}
        predictions.write_text(json.dumps({"predictions": predicted}))
        out = tmp_path / "out"
        code = run_cli(
            "evaluate", "--manifest", str(manifest), "--from-predictions", str(predictions), "--out", str(out)
        )
        captured = capsys.readouterr()
        assert code == 1 and not captured.out and not out.exists()
        assert captured.err == "error: no prediction for project plain_app\n"


# How the one error line names each JSON input, before the input's path.
WHAT = {
    "--vuln": "invalid vulnerability spec",
    "--manifest": "invalid manifest",
    "--from-predictions": "invalid predictions file",
    "--config": "cannot read config",
}


class TestJsonInputs:
    """Every JSON file a command reads is refused, when malformed, with one
    `error:` line that names the file, and exit 1."""

    @pytest.mark.parametrize(
        "flag, text, message",
        [
            ("--vuln", "[1]", ""),
            ("--manifest", '{"projects": 1, "vulns": []}', ""),
            ("--from-predictions", '{"confusion_matrix": {"tp": 1}}', ""),
            ("--from-predictions", "5", ""),
            ("--from-predictions", '{"predictions": [1]}', ""),
            ("--from-predictions", '{"counts": {}}', "predictions file needs "),
            ("--from-predictions", "[]", "predictions file needs "),
            ("--from-predictions", '{"confusion_matrix": {"tp": 1.5, "fp": 0, "tn": 0, "fn": 0}}', ""),
            ("--from-predictions", '{"confusion_matrix": {"tp": true, "fp": 0, "tn": 0, "fn": 0}}', ""),
            ("--from-predictions", '{"confusion_matrix": {"tp": "3", "fp": 0, "tn": 0, "fn": 0}}', ""),
            ("--from-predictions", '{"predictions": {"p": 5}}', ""),
            ("--from-predictions", '{"predictions": "Secure"}', ""),
        ],
    )
    def test_a_json_input_of_the_wrong_shape_exits_1_with_one_error_line(
        self, tmp_path: Path, config_file: Path, capsys, flag, text, message
    ):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        if flag == "--vuln":
            index = build_index_for("plain_app", tmp_path)
            args = ["analyze", "--index", str(index), "--report", str(tmp_path / "r.json")]
        else:
            args = ["evaluate", "--out", str(tmp_path / "o")]
        assert run_cli(*args, "--config", str(config_file), flag, str(bad)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {WHAT[flag]} {bad}: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "key, value",
        [
            # Once read as the one-character seeds "a", "b" and "c": on the
            # plain_app index that answered "Secure (0 candidate(s))", exit 0.
            ("api_signatures", "abc"),
            ("api_signatures", ["abc", 3]),
            ("vuln_id", 7),
            ("library", None),
            ("pov_test_source", ["t"]),
            # Once a TypeError in analyze: a list made the spec unhashable.
            ("description", ["a", 1]),
        ],
    )
    def test_a_spec_value_of_the_wrong_type_exits_1_naming_the_key(
        self, tmp_path: Path, config_file: Path, capsys, key, value
    ):
        spec = {"vuln_id": "x", "library": "l", "api_signatures": ["abc"], "pov_test_source": "t"}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**spec, key: value}))
        index = build_index_for("plain_app", tmp_path)
        capsys.readouterr()
        report = tmp_path / "r.json"
        args = ["analyze", "--index", str(index), "--config", str(config_file), "--report", str(report)]
        assert run_cli(*args, "--vuln", str(bad)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {WHAT['--vuln']} {bad}: ") and err.count("\n") == 1, err
        assert key in err and not report.exists(), err

    @pytest.mark.parametrize(
        "key, value",
        [
            # Once predicted "Secure" from no analysis and scored as a true negative.
            ("vuln_refs", []),
            ("vuln_refs", "CVE-2020-5408"),
            ("project_id", 1),
            ("root_path", ["plain_app"]),
        ],
    )
    def test_a_manifest_project_of_the_wrong_shape_exits_1_naming_the_key(
        self, tmp_path: Path, config_file: Path, capsys, key, value
    ):
        path = write_toy_manifest(tmp_path / "manifest.json")
        manifest = json.loads(path.read_text(encoding="utf-8"))
        manifest["projects"][2][key] = value
        path.write_text(json.dumps(manifest), encoding="utf-8")
        out = tmp_path / "o"
        args = ["evaluate", "--config", str(config_file), "--out", str(out)]
        assert run_cli(*args, "--manifest", str(path)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {WHAT['--manifest']} {path}: ") and err.count("\n") == 1, err
        assert key in err and not list(out.glob("report*")), err


# -- one value of a valid JSON input changed ------------------------------------

_DROP = object()  # the change that removes a key

# JSON values by JSON type; integers and floats are one type, "number".
_JSON_SCALARS = {
    "null": st.none(),
    "boolean": st.booleans(),
    "number": st.integers(-2, 70_000) | st.floats(-2.0, 2.0),
    "string": st.text(max_size=4) | st.sampled_from(["64", "Secure", "judge", "openai-compat"]),
}
_JSON_VALUE = st.recursive(
    st.one_of(*_JSON_SCALARS.values()),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=3,
)
_JSON_OF_TYPE = {
    **_JSON_SCALARS,
    "array": st.lists(_JSON_VALUE, max_size=2),
    "object": st.dictionaries(st.text(max_size=3), _JSON_VALUE, max_size=2),
}


def _json_type(value) -> str:
    if value is None or isinstance(value, bool):
        return "null" if value is None else "boolean"
    if isinstance(value, (int, float)):
        return "number"
    return {str: "string", list: "array", dict: "object"}[type(value)]


def _paths(value, path=()):
    """The path of ``value`` itself, (), and of every item inside it."""
    yield path
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, item in items:
        yield from _paths(item, (*path, key))


def _changed(value, path, new):
    """A copy of ``value`` with the item at ``path`` set to ``new``, or
    removed when ``new`` is ``_DROP``."""
    if not path:
        return new
    copy = json.loads(json.dumps(value))
    parent = functools.reduce(operator.getitem, path[:-1], copy)
    if new is _DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = new
    return copy


def _is_response(name: str, path: tuple) -> bool:
    """Whether ``path`` is in a chat script's response, which may be any JSON value."""
    head = path[:1]
    return name == "script" and (
        (head == ("sequences",) and len(path) >= 3)
        or (head == ("defaults",) and len(path) >= 2)
        or (head == ("rules",) and path[2:3] == ("response",))
    )


class _Parsed(Exception):
    """Raised in place of the work a command does once its inputs are read."""


def _provider_state(provider) -> tuple:
    """A provider's type and what it was built from (not its lock or n-gram table)."""
    state = {k: v for k, v in vars(provider).items() if k not in ("_lock", "_packed")}
    return type(provider).__name__, state


class TestOneChangedJsonValue:
    """Every JSON input a command reads, valid but for one value replaced by
    one of another JSON type or one key dropped, is refused with exit 1 and
    one `error:` line, or read as the valid input is. A dropped key, an
    explicit null where null means absent and a scripted response may read
    differently, but never crash the command."""

    SPEC = {
        "vuln_id": "CVE-1",
        "library": "lib",
        "api_signatures": ["PasswordEncoder.encode(CharSequence)"],
        "pov_test_source": "class PovTest { void t() { encoder.encode(null); } }",
        "description": "A null password reaches encode().",
    }
    SCRIPT = {
        "sequences": {"grader": ["yes", {"answer": "no"}]},
        "rules": [{"role": "judge", "contains": "x", "response": "Vulnerable"}],
        "defaults": {"reflection": {"complete": True, "reason": ""}},
    }
    REMOTE = {"model": "m", "api_key_env": "VULNREACH_TEST_UNSET_KEY"}

    @pytest.fixture(scope="class")
    def work(self, tmp_path_factory) -> Path:
        work = tmp_path_factory.mktemp("inputs")
        (work / "transcript.jsonl").write_text("")
        assert build_index_for("plain_app", work).exists()
        return work

    def configs(self, work: Path) -> dict:
        scripted = {
            "theta": FIXTURE_THETA,
            "tau": 0.25,
            "top_k": 3,
            "max_iterations": 2,
            "parallelism": 2,
            "ignore_globs": ["target/**"],
            "prompts_dir": str(Path(cli.__file__).parent / "prompts"),
            "encoder": {"provider": "reference", "dims": DIMS},
            "chat": {"provider": "scripted", "script_path": str(work / "script.json")},
        }
        remote = {
            "encoder": {
                **self.REMOTE, "provider": "openai-compat", "name": "enc",
                "endpoint": "http://localhost:9/embed", "dims": 64, "batch_limit": 16,
            },
            "chat": {
                **self.REMOTE, "provider": "openai-compat", "name": "chat",
                "endpoint": "http://localhost:9/chat", "max_output_tokens": 512,
                "context_window": 8000,
            },
        }
        replay = {"chat": {"provider": "replay", "transcript_path": str(work / "transcript.jsonl")}}
        return {"config": scripted, "remote-config": remote, "replay-config": replay}

    def originals(self, work: Path) -> dict:
        project = {
            "project_id": "plain_app",
            "root_path": str(FIXTURES / "plain_app"),
            "ground_truth": "Secure",
            "vuln_refs": ["CVE-1"],
        }
        return {
            **self.configs(work),
            "spec": self.SPEC,
            "manifest": {"projects": [project], "vulns": [self.SPEC]},
            "script": self.SCRIPT,
            "predictions": {"predictions": {"plain_app": "Secure"}},
            "matrix": {"confusion_matrix": {"tp": 1, "fp": 2, "tn": 3, "fn": 4}},
        }

    def read(self, work: Path, name: str, value) -> tuple[int, str, object]:
        """Run the command that reads input ``name``, as ``value``, beside the
        other inputs as they are: its exit code, stderr, and what it read."""
        files = {**self.originals(work), "config": self.configs(work)["config"]}
        files["config" if name.endswith("config") else name] = value
        for key, content in files.items():
            (work / f"{key}.json").write_text(json.dumps(content), encoding="utf-8")
        out = str(work / "out")
        if name == "spec":
            argv = ["analyze", "--index", str(work / "plain_app.vrix"), "--vuln", str(work / "spec.json")]
            argv += ["--config", str(work / "config.json"), "--report", str(work / "r.json")]
        elif name in ("predictions", "matrix"):
            argv = ["evaluate", "--from-predictions", str(work / f"{name}.json"), "--out", out]
            argv += ["--manifest", str(work / "manifest.json")] if name == "predictions" else []
        else:
            argv = ["evaluate", "--manifest", str(work / "manifest.json"),
                    "--config", str(work / "config.json"), "--out", out]

        def parsed(*args, **kwargs):
            raise _Parsed(*args)

        err, stdout = io.StringIO(), io.StringIO()
        with pytest.MonkeyPatch.context() as mp, redirect_stderr(err), redirect_stdout(stdout):
            mp.setattr(evalharness, "run_benchmark", parsed)
            mp.setattr(evalharness, "run_analysis", parsed)
            try:
                code = cli.main(argv)
            except _Parsed as exc:
                if name == "spec":
                    return 0, err.getvalue(), exc.args[3]
                manifest, config, encoder, chat = exc.args[:4]
                state = (manifest, config.to_dict(), _provider_state(encoder), _provider_state(chat))
                return 0, err.getvalue(), state
        return code, err.getvalue(), stdout.getvalue()

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_is_refused_or_read_as_before(self, work: Path, data):
        name, original = data.draw(st.sampled_from(sorted(self.originals(work).items())))
        path = data.draw(st.sampled_from(list(_paths(original))))
        current = functools.reduce(operator.getitem, path, original)
        others = [t for t in _JSON_OF_TYPE if t != _json_type(current)]
        changes = st.sampled_from(others).flatmap(_JSON_OF_TYPE.__getitem__)
        if path and isinstance(path[-1], str):  # a key of an object
            changes = st.just(_DROP) | changes
        new = data.draw(changes)
        code, err, value = self.read(work, name, _changed(original, path, new))
        if code == 1:
            assert err.startswith("error: ") and err.count("\n") == 1, err
            return
        assert code == 0 and not err, err
        if new is _DROP or _is_response(name, path):
            return
        expected = [self.read(work, name, original)[2]]
        if new is None:
            expected.append(self.read(work, name, _changed(original, path, _DROP))[2])
        assert value in expected, (name, path, new)

    @pytest.fixture(scope="class")
    def recorded(self, tmp_path_factory):
        """The entries of a scripted analysis's transcript, a replay of
        entries as one (its exit code, stderr and report without its
        timestamp), and that replay of the entries as recorded."""
        work = tmp_path_factory.mktemp("transcript")
        args = [
            "analyze",
            "--index", str(build_index_for("unguarded_app", work)),
            "--vuln", str(FIXTURES / "vuln_encoder_null.json"),
            "--config", str(write_tool_config(work / "config.json")),
        ]
        assert run_cli(*args, "--report", str(work / "first.json")) == 3
        lines = (work / "first.json.transcript.jsonl").read_text(encoding="utf-8").splitlines()
        report = work / "replay.json"

        def replay(entries: list) -> tuple[int, str, object]:
            report.unlink(missing_ok=True)
            transcript = work / "replay.jsonl"
            transcript.write_text("".join(json.dumps(e) + "\n" for e in entries), encoding="utf-8")
            err = io.StringIO()
            with redirect_stderr(err), redirect_stdout(io.StringIO()):
                code = run_cli(*args, "--report", str(report), "--transcript", str(transcript))
            written = report.exists() and strip_timestamps(report.read_text(encoding="utf-8"))
            return code, err.getvalue(), written

        entries = [json.loads(line) for line in lines]
        return entries, replay, replay(entries)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_a_transcript_line_is_refused_or_replays_the_report(self, recorded, data):
        entries, replay, unchanged = recorded
        number = data.draw(st.integers(0, len(entries) - 1))
        original = entries[number]
        path = data.draw(st.sampled_from(list(_paths(original))))
        current = functools.reduce(operator.getitem, path, original)
        others = [t for t in _JSON_OF_TYPE if t != _json_type(current)]
        changes = st.sampled_from(others).flatmap(_JSON_OF_TYPE.__getitem__)
        if path and isinstance(path[-1], str):  # a key of an object
            changes = st.just(_DROP) | changes
        changed = [*entries]
        changed[number] = _changed(original, path, data.draw(changes))
        code, err, report = replay(changed)
        if code == 1:
            assert err.startswith("error: transcript ") and err.count("\n") == 1, err
            assert report is False
            return
        assert (code, err, report) == unchanged


class TestEmbeddingCache:
    """`evaluate` keeps its embeddings under --out/cache across runs."""

    @pytest.fixture()
    def encoded(self, monkeypatch) -> list[str]:
        texts: list[str] = []
        encode = ReferenceEncoder.encode_batch

        def counting(encoder, batch):
            texts.extend(batch)
            return encode(encoder, batch)

        monkeypatch.setattr(ReferenceEncoder, "encode_batch", counting)
        return texts

    @staticmethod
    def evaluate(tmp_path: Path, manifest: Path, out: Path, *extra: str, dims: int = DIMS) -> dict:
        config = write_tool_config(
            tmp_path / "cfg.json",
            theta=None if "--sweep-theta" in extra else FIXTURE_THETA,
            encoder={"provider": "reference", "dims": dims},
        )
        code = run_cli(
            "evaluate", "--manifest", str(manifest), "--config", str(config), "--out", str(out), *extra
        )
        assert code == 0
        reports = {}
        for path in sorted(out.glob("report_theta_*.json")):
            report = read_report(path)
            report.pop("generated_at")
            reports[path.name] = report
        return reports

    def test_second_sweep_into_the_same_out_makes_no_encoder_call(self, tmp_path: Path, encoded):
        manifest = write_toy_manifest(tmp_path / "manifest.json")
        out = tmp_path / "out"
        first = self.evaluate(tmp_path, manifest, out, "--sweep-theta")
        assert encoded and len(encoded) == len(set(encoded))
        encoded.clear()
        assert self.evaluate(tmp_path, manifest, out, "--sweep-theta") == first
        assert encoded == []
        assert len(list((out / "cache").iterdir())) == 1

    def test_an_edited_file_re_embeds_only_its_changed_blocks(self, tmp_path: Path, encoded):
        project = tmp_path / "app"
        shutil.copytree(FIXTURES / "unguarded_app", project)
        manifest = write_toy_manifest(tmp_path / "manifest.json")
        raw = json.loads(manifest.read_text())
        raw["projects"] = [dict(raw["projects"][1], root_path=str(project))]
        manifest.write_text(json.dumps(raw))
        out = tmp_path / "out"
        self.evaluate(tmp_path, manifest, out)
        config = Config(theta=FIXTURE_THETA)
        before = {b.source for b in segment_project(project, config)}
        (edited,) = [p for p in project.rglob("*.java") if "encoder.encode(" in p.read_text()]
        edited.write_text(edited.read_text().replace("encoder.encode(", "this.encoder.encode("))
        changed = {b.source for b in segment_project(project, config)} - before
        assert changed
        encoded.clear()
        self.evaluate(tmp_path, manifest, out)
        assert sorted(encoded) == sorted(changed)

    def test_the_cache_of_another_encoder_is_never_read(self, tmp_path: Path, encoded):
        manifest = write_toy_manifest(tmp_path / "manifest.json")
        out = tmp_path / "out"
        self.evaluate(tmp_path, manifest, out)
        first = list(encoded)
        encoded.clear()
        self.evaluate(tmp_path, manifest, out, dims=128)
        assert sorted(encoded) == sorted(first)
        assert len(list((out / "cache").iterdir())) == 2

    @pytest.mark.parametrize("damage", ["truncated", "byte-flipped"])
    def test_a_damaged_cache_is_re_embedded_with_the_same_report(
        self, tmp_path: Path, encoded, damage: str, caplog
    ):
        manifest = write_toy_manifest(tmp_path / "manifest.json")
        out = tmp_path / "out"
        first = self.evaluate(tmp_path, manifest, out)
        (cache,) = (out / "cache").iterdir()
        data = bytearray(cache.read_bytes())
        if damage == "truncated":
            del data[len(data) // 2 :]
        else:
            data[len(data) // 2] ^= 0xFF
        cache.write_bytes(bytes(data))
        embedded = len(encoded)
        encoded.clear()
        with caplog.at_level(logging.WARNING):
            assert self.evaluate(tmp_path, manifest, out) == first
        assert len(encoded) == embedded
        assert "ignoring embedding cache" in caplog.text
        encoded.clear()
        self.evaluate(tmp_path, manifest, out)  # the rewritten cache loads
        assert encoded == []


class TestConfig:
    def test_unknown_keys_rejected(self, tmp_path: Path, capsys):
        bad = tmp_path / "cfg.json"
        bad.write_text('{"theta": 100, "mystery_knob": true}')
        code = run_cli(
            "index",
            "--project", str(FIXTURES / "plain_app"),
            "--out", str(tmp_path / "i.vrix"),
            "--config", str(bad),
        )
        assert code == 1
        assert "unknown keys" in capsys.readouterr().err

    def test_flags_override_config_file(self, tmp_path: Path, capsys):
        config = write_tool_config(tmp_path / "cfg.json", theta=100000)
        code = run_cli(
            "index",
            "--project", str(FIXTURES / "guarded_app"),
            "--out", str(tmp_path / "i.vrix"),
            "--config", str(config),
            "--theta", "30",
        )
        assert code == 0
        # theta 30 splits the fixture into many blocks; theta 100000 would give 4
        count = int(re.search(r"indexed (\d+) blocks", capsys.readouterr().out).group(1))
        assert count > 4

    def test_invalid_tau_rejected(self, tmp_path: Path):
        config = write_tool_config(tmp_path / "cfg.json", tau=1.5)
        code = run_cli(
            "index",
            "--project", str(FIXTURES / "plain_app"),
            "--out", str(tmp_path / "i.vrix"),
            "--config", str(config),
        )
        assert code == 1

    @pytest.mark.parametrize(
        "bad",
        [
            pytest.param({"chat": "scripted"}, id="chat-string"),
            pytest.param({"encoder": ["reference"]}, id="encoder-list"),
            pytest.param({"ignore_globs": "src/**"}, id="ignore_globs-string"),
            pytest.param({"ignore_globs": ["src/**", 3]}, id="ignore_globs-number-item"),
            pytest.param({"theta": True}, id="theta-bool"),
            pytest.param({"top_k": 2.0}, id="top_k-float"),
            pytest.param({"max_iterations": "5"}, id="max_iterations-string"),
            pytest.param({"parallelism": False}, id="parallelism-bool"),
            pytest.param({"tau": "0.5"}, id="tau-string"),
            pytest.param({"tau": True}, id="tau-bool"),
            pytest.param({"prompts_dir": 7}, id="prompts_dir-number"),
        ],
    )
    def test_ill_typed_value_exits_1_naming_the_key(self, tmp_path: Path, config_file: Path, bad, capsys):
        index = build_index_for("unguarded_app", tmp_path)
        config = json.loads(config_file.read_text())
        config.update(bad)
        config_file.write_text(json.dumps(config))
        capsys.readouterr()
        code = run_cli(
            "analyze",
            "--index", str(index),
            "--vuln", str(FIXTURES / "vuln_encoder_null.json"),
            "--config", str(config_file),
            "--report", str(tmp_path / "r.json"),
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {WHAT['--config']} {config_file}: "), err
        assert len(err.splitlines()) == 1, err
        assert next(iter(bad)) in err and "Traceback" not in err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("dims", [4, 0, True, "64"], ids=["4", "0", "true", "string-64"])
    def test_invalid_encoder_dims_exits_1_with_one_error_line(self, tmp_path: Path, dims, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"encoder": {"provider": "reference", "dims": dims}}))
        code = run_cli(
            "index",
            "--project", str(FIXTURES / "unguarded_app"),
            "--out", str(tmp_path / "i.vrix"),
            "--config", str(config),
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and len(err.splitlines()) == 1, err
        assert "dims" in err and "Traceback" not in err
        assert not (tmp_path / "i.vrix").exists()

    def test_index_uses_the_config_files_remote_encoder(self, tmp_path: Path, monkeypatch, capsys):
        monkeypatch.delenv("VULNREACH_TEST_UNSET_KEY", raising=False)
        monkeypatch.setattr("requests.post", lambda *a, **kw: pytest.fail("request sent"))
        config = tmp_path / "cfg.json"
        remote = {
            "provider": "openai-compat",
            "model": "m",
            "endpoint": "http://localhost:9/embed",
            "dims": 64,
            "api_key_env": "VULNREACH_TEST_UNSET_KEY",
        }
        config.write_text(json.dumps({"encoder": remote}))
        code = run_cli(
            "index",
            "--project", str(FIXTURES / "unguarded_app"),
            "--out", str(tmp_path / "i.vrix"),
            "--config", str(config),
        )
        err = capsys.readouterr().err
        assert code == 2, err
        assert "VULNREACH_TEST_UNSET_KEY is not set" in err and len(err.splitlines()) == 1
        assert not (tmp_path / "i.vrix").exists()

    @pytest.mark.parametrize(
        "key, name, bad",
        [
            # Each once read through str() or int() as "5", 64 and 1.
            ("encoder", "model", {"model": 5}),
            ("encoder", "batch_limit", {"batch_limit": "64"}),
            ("chat", "max_output_tokens", {"max_output_tokens": True}),
            # Once a TypeError in Path().
            ("chat", "script_path", {"provider": "scripted", "script_path": 5}),
        ],
    )
    def test_a_provider_value_of_the_wrong_type_exits_1_naming_it(
        self, tmp_path: Path, capsys, key, name, bad
    ):
        remote = {"provider": "openai-compat", "model": "m", "endpoint": "http://localhost:9/x",
                  "dims": 64, "api_key_env": "VULNREACH_TEST_UNSET_KEY"}
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"encoder": remote, "chat": remote, key: {**remote, **bad}}))
        manifest = write_toy_manifest(tmp_path / "manifest.json")
        out = tmp_path / "o"
        args = ["evaluate", "--manifest", str(manifest), "--config", str(config), "--out", str(out)]
        assert run_cli(*args) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} {name} must be ") and err.count("\n") == 1, err
        assert not list(out.glob("report*"))

    def test_config_echo_never_leaks_credentials(self, tmp_path: Path):
        config = Config(
            chat={"provider": "openai-compat", "api_key_env": "X_API_KEY", "model": "m", "endpoint": "e"}
        )
        echoed = config.to_dict()
        assert "api_key_env" not in echoed["chat"]
        assert echoed["chat"]["model"] == "m"


class TestPromptLibraryBindings:
    """A template that leaves out an input of its role, or places a
    placeholder no role binds, is a user error, reported before any model
    call."""

    @pytest.fixture()
    def asks(self, monkeypatch) -> list:
        asked = []
        real = ScriptedChatProvider.complete
        monkeypatch.setattr(
            ScriptedChatProvider, "complete", lambda self, *a: asked.append(a) or real(self, *a)
        )
        return asked

    def test_analyze_refuses_a_judge_template_without_context(self, tmp_path: Path, capsys, asks):
        index = build_index_for("unguarded_app", tmp_path)
        capsys.readouterr()
        prompts = edited_prompts(tmp_path / "prompts", "judge", "{{context}}")
        config = write_tool_config(tmp_path / "cfg.json", prompts_dir=str(prompts))
        report = tmp_path / "r.json"
        code = run_cli(
            "analyze",
            "--index", str(index),
            "--vuln", str(FIXTURES / "vuln_encoder_null.json"),
            "--config", str(config),
            "--report", str(report),
        )
        err = capsys.readouterr().err
        assert code == 1 and not report.exists() and asks == []
        assert err.startswith("error: judge template leaves out") and len(err.splitlines()) == 1, err
        assert "'context'" in err

    def test_evaluate_refuses_a_grader_template_without_the_block(self, tmp_path: Path, capsys, asks):
        manifest = write_toy_manifest(tmp_path / "manifest.json")
        prompts = edited_prompts(tmp_path / "prompts", "grader", "{{block_source}}")
        config = write_tool_config(tmp_path / "cfg.json", prompts_dir=str(prompts))
        out_dir = tmp_path / "out"
        code = run_cli(
            "evaluate", "--manifest", str(manifest), "--config", str(config), "--out", str(out_dir),
        )
        err = capsys.readouterr().err
        assert code == 1 and asks == [] and not list(out_dir.glob("report_*"))
        assert err.startswith("error: grader template leaves out") and len(err.splitlines()) == 1, err

    def test_analyze_refuses_a_judge_template_with_an_unknown_placeholder(
        self, tmp_path: Path, capsys, asks
    ):
        index = build_index_for("unguarded_app", tmp_path)
        capsys.readouterr()
        prompts = edited_prompts(
            tmp_path / "prompts", "judge", "{{context}}", "{{context}}\n{{extra}}"
        )
        config = write_tool_config(tmp_path / "cfg.json", prompts_dir=str(prompts))
        report = tmp_path / "r.json"
        code = run_cli(
            "analyze",
            "--index", str(index),
            "--vuln", str(FIXTURES / "vuln_encoder_null.json"),
            "--config", str(config),
            "--report", str(report),
        )
        err = capsys.readouterr().err
        assert code == 1 and not report.exists() and asks == []
        assert err == "error: judge template places unknown placeholders ['extra']\n", err


class TestOneProcess:
    def test_index_analyze_and_evaluate_share_one_parser(
        self, tmp_path: Path, config_file: Path, capsys
    ):
        cli.build_parser.cache_clear()
        index = build_index_for("guarded_app", tmp_path)
        assert run_cli(
            "analyze",
            "--index", str(index),
            "--vuln", str(FIXTURES / "vuln_encoder_null.json"),
            "--config", str(config_file),
            "--report", str(tmp_path / "report.json"),
        ) == 0
        predictions = tmp_path / "cm.json"
        predictions.write_text(json.dumps({"confusion_matrix": {"tp": 1, "fp": 0, "fn": 0, "tn": 1}}))
        assert run_cli(
            "evaluate", "--from-predictions", str(predictions), "--out", str(tmp_path / "out")
        ) == 0
        info = cli.build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        assert "precision=1.000 recall=1.000 accuracy=1.000 f1=1.000" in capsys.readouterr().out

    def test_a_command_replaced_after_the_parser_is_built_is_the_one_run(self, monkeypatch):
        cli.build_parser()
        monkeypatch.setattr(cli, "cmd_index", lambda args: 7)
        assert run_cli("index", "--project", "p", "--out", "o") == 7


class TestFailureTable:
    """``main`` turns each error a command raises into its exit status and
    one `error:` line on stderr."""

    @pytest.mark.parametrize(
        "error, code, line",
        [
            (ConfigError("bad config"), 1, "error: bad config"),
            (EmptyProject("no source files under p"), 1, "error: no source files under p"),
            (IndexFormatError("i.vrix: checksum mismatch"), 1, "error: i.vrix: checksum mismatch"),
            (FileNotFoundError(2, "No such file or directory", "x"), 1,
             "error: [Errno 2] No such file or directory: 'x'"),
            (ProviderError("HTTP 401", 401), 2, "error: provider failure: HTTP 401"),
            (MalformedResponse("judge reply for candidate c, reprompted once: no JSON object"), 2,
             "error: judge reply for candidate c, reprompted once: no JSON object"),
        ],
        ids=lambda value: type(value).__name__ if isinstance(value, Exception) else None,
    )
    def test_each_error_kind_exits_with_its_status_and_one_line(self, monkeypatch, capsys, error, code, line):
        def fail(args):
            raise error

        monkeypatch.setattr(cli, "cmd_index", fail)
        assert run_cli("index", "--project", "p", "--out", "o") == code
        captured = capsys.readouterr()
        assert captured.err == line + "\n" and not captured.out

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["index", "--project", "x"], "error: vulnreach index: the following arguments are required: --out"),
            # A flag of the main parser placed after the subcommand.
            (["analyze", "--index", "i", "--vuln", "v", "--report", "r", "-v"],
             "error: vulnreach: unrecognized arguments: -v"),
            (["index", "--project", "p", "--out", "o", "--theta", "ten"],
             "error: vulnreach index: argument --theta: invalid int value: 'ten'"),
            ([], "error: vulnreach: the following arguments are required: command"),
        ],
    )
    def test_a_usage_error_exits_1_with_one_line(self, monkeypatch, capsys, argv, line):
        monkeypatch.setattr(cli, "cmd_index", lambda args: pytest.fail("a usage error ran the command"))
        assert run_cli(*argv) == 1
        captured = capsys.readouterr()
        assert captured.err == line + "\n" and not captured.out

    @pytest.mark.parametrize("argv", [["--help"], ["index", "--help"]])
    def test_help_still_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exited:
            run_cli(*argv)
        captured = capsys.readouterr()
        assert exited.value.code == 0 and captured.out.startswith("usage: vulnreach") and not captured.err


class TestReportsAreWrittenWhole:
    """A report is replaced atomically: a write that dies partway leaves the
    earlier report byte for byte, and no temp file."""

    @staticmethod
    def rerun_torn(monkeypatch, out: Path, run) -> None:
        assert run() in (0, 3)
        before = {path: path.read_bytes() for path in out.iterdir() if path.is_file()}
        # A writer that wrote in place would tear the report itself.
        torn = torn_writes(monkeypatch, suffix=(".tmp", ".json", ".txt"))
        with torn, pytest.raises(KeyboardInterrupt):
            run()
        after = {path: path.read_bytes() for path in out.iterdir() if path.is_file()}
        reports = [path for path in before if path.suffix in (".json", ".txt")]
        assert reports and {path: after[path] for path in reports} == {
            path: before[path] for path in reports
        }
        assert not [path for path in out.rglob("*") if path.name.endswith(".tmp")]

    def test_analyze(self, tmp_path: Path, config_file: Path, monkeypatch):
        index = build_index_for("unguarded_app", tmp_path)
        out = tmp_path / "out"
        self.rerun_torn(
            monkeypatch,
            out,
            lambda: run_cli(
                "analyze",
                "--index", str(index),
                "--vuln", str(FIXTURES / "vuln_encoder_null.json"),
                "--config", str(config_file),
                "--report", str(out / "report.json"),
            ),
        )

    def test_evaluate(self, tmp_path: Path, config_file: Path, monkeypatch):
        manifest = write_toy_manifest(tmp_path / "manifest.json")
        out = tmp_path / "out"
        self.rerun_torn(
            monkeypatch,
            out,
            lambda: run_cli(
                "evaluate",
                "--manifest", str(manifest),
                "--config", str(config_file),
                "--out", str(out),
            ),
        )

    def test_evaluate_from_predictions(self, tmp_path: Path, monkeypatch):
        predictions = tmp_path / "cm.json"
        matrix = {"tp": 1, "fp": 0, "fn": 0, "tn": 1}
        predictions.write_text(json.dumps({"confusion_matrix": matrix}))
        out = tmp_path / "out"
        self.rerun_torn(
            monkeypatch,
            out,
            lambda: run_cli("evaluate", "--from-predictions", str(predictions), "--out", str(out)),
        )


class TestVerbose:
    """``-v`` shows the ``vulnreach`` loggers' INFO lines on stderr."""

    @staticmethod
    def vulnreach(*argv: str) -> subprocess.CompletedProcess:
        """The command in a fresh interpreter: stderr as a user sees it,
        with no logging handler installed by the tests."""
        src = Path(cli.__file__).resolve().parents[1]
        return subprocess.run(
            [sys.executable, "-m", "vulnreach.cli", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
            timeout=300,
        )

    def sweep(self, tmp_path: Path, *flags: str) -> subprocess.CompletedProcess:
        manifest = write_toy_manifest(tmp_path / "manifest.json")
        config = write_tool_config(tmp_path / "cfg.json", theta=None)
        return self.vulnreach(
            *flags, "evaluate",
            "--manifest", str(manifest), "--config", str(config),
            "--out", str(tmp_path / f"out{len(flags)}"), "--sweep-theta",
        )

    def test_a_failed_project_prints_one_stderr_line_without_v(self, tmp_path: Path):
        manifest_path = write_toy_manifest(tmp_path / "manifest.json")
        manifest = json.loads(manifest_path.read_text())
        missing = dict(manifest["projects"][0], project_id="ghost", root_path=str(tmp_path / "no-tree"))
        manifest_path.write_text(json.dumps(dict(manifest, projects=[*manifest["projects"], missing])))
        config = write_tool_config(tmp_path / "cfg.json")
        quiet, verbose = (
            self.vulnreach(
                *flags, "evaluate", "--manifest", str(manifest_path), "--config", str(config),
                "--out", str(tmp_path / f"out{len(flags)}"),
            )
            for flags in ((), ("-v",))
        )
        assert quiet.returncode == verbose.returncode == 1
        error = "error: 1 of 5 project runs failed, the first with EmptyProject: no source files under"
        assert len(quiet.stderr.splitlines()) == 1 and quiet.stderr.startswith(error), quiet.stderr
        assert verbose.stderr.splitlines()[-1].startswith(error)
        assert "INFO vulnreach.evalharness: project ghost failed to run: no source files under" in verbose.stderr

    def test_sweep_logs_its_reuse_with_v_and_nothing_without(self, tmp_path: Path):
        quiet, verbose = self.sweep(tmp_path), self.sweep(tmp_path, "-v")
        assert quiet.returncode == verbose.returncode == 0
        assert quiet.stderr == ""
        reused = re.findall(
            r"^INFO vulnreach.evalharness: project \S+ at theta=\d+: same blocks as theta=\d+,"
            r" \d+ verdicts reused$",
            verbose.stderr,
            flags=re.MULTILINE,
        )
        assert reused and len(reused) == len(verbose.stderr.splitlines())
        assert verbose.stdout == quiet.stdout

    def test_analyze_logs_its_stage_times_and_model_calls_per_role(
        self, tmp_path: Path, config_file: Path, caplog
    ):
        index = build_index_for("unguarded_app", tmp_path)

        def analyze(report: Path) -> int:
            return run_cli(
                "analyze", "--index", str(index), "--vuln", str(FIXTURES / "vuln_encoder_null.json"),
                "--config", str(config_file), "--report", str(report),
            )

        quiet, verbose = tmp_path / "quiet.json", tmp_path / "verbose.json"
        assert analyze(quiet) == 3
        assert not [r for r in caplog.records if r.name == "vulnreach.cli"]
        with caplog.at_level(logging.INFO, logger="vulnreach"):
            assert analyze(verbose) == 3
        (record,) = [r for r in caplog.records if r.name == "vulnreach.cli"]
        logged = re.fullmatch(
            r"open \d+\.\d{3} s, analysis \d+\.\d{3} s, report write \d+\.\d{3} s;"
            r" model calls: (.*)",
            record.getMessage(),
        )
        assert logged, record.getMessage()
        calls = {role: int(n) for role, n in (pair.split(" ") for pair in logged[1].split(", "))}
        entries = Transcript.load(str(verbose) + ".transcript.jsonl").entries
        assert calls == {role.value: sum(e.role_kind is role for e in entries) for role in RoleKind}
        assert sum(calls.values()) == len(entries) > 0
        # The report is the one a quiet run writes, but for its time and transcript name.
        unnamed = [{**read_report(path), "generated_at": 0, "transcript_path": 0} for path in (quiet, verbose)]
        assert unnamed[0] == unnamed[1]

    def test_one_handler_however_often_main_runs(self, tmp_path: Path, monkeypatch):
        logger = logging.getLogger("vulnreach")
        monkeypatch.setattr(logger, "handlers", [])
        monkeypatch.setattr(logger, "level", logging.NOTSET)
        cli._log_to_stderr.cache_clear()
        predictions = tmp_path / "cm.json"
        predictions.write_text(json.dumps({"confusion_matrix": {"tp": 1, "fp": 0, "fn": 1, "tn": 1}}))
        args = ("evaluate", "--from-predictions", str(predictions), "--out", str(tmp_path))
        for _ in range(2):
            assert run_cli("-v", *args) == 0
        assert len(logger.handlers) == 1 and logger.level == logging.INFO
        cli._log_to_stderr.cache_clear()


class TestVerdictTranscriptPath:
    """A verdict names the file its transcript streamed to, and no file
    without a sink."""

    def test_the_verdict_names_its_sink(self, tmp_path: Path, config_file: Path, monkeypatch):
        verdicts: list[Verdict] = []
        analyze = evalharness.analyze

        def recording(*args, **kwargs) -> Verdict:
            verdicts.append(analyze(*args, **kwargs))
            return verdicts[-1]

        monkeypatch.setattr(evalharness, "analyze", recording)
        report = tmp_path / "report.json"
        run_cli(
            "analyze",
            "--index", str(build_index_for("guarded_app", tmp_path)),
            "--vuln", str(FIXTURES / "vuln_encoder_null.json"),
            "--config", str(config_file),
            "--report", str(report),
        )
        sink = tmp_path / "report.json.transcript.jsonl"
        assert [v.transcript_path for v in verdicts] == [str(sink)]
        assert read_report(report)["transcript_path"] == str(sink) and sink.stat().st_size > 0

        manifest = evalharness.BenchmarkManifest.from_dict(
            read_report(write_toy_manifest(tmp_path / "m.json"))
        )
        config = Config.from_dict(read_report(config_file))
        chat = ScriptedChatProvider.from_file(FIXTURES / "chat_script.json")
        verdicts.clear()
        out = tmp_path / "out"
        evalharness.run_benchmark(manifest, config, ReferenceEncoder(DIMS), chat, out, Memo())
        sinks = [
            out / "transcripts" / f"theta_{FIXTURE_THETA}" / f"{p.project_id}__CVE-2020-5408.jsonl"
            for p in manifest.projects
        ]
        assert [v.transcript_path for v in verdicts] == list(map(str, sinks))
        assert all(sink.is_file() for sink in sinks)

        verdicts.clear()
        for project in manifest.projects:
            store = evalharness.build_index(Path(project.root_path), config, ReferenceEncoder(DIMS), Memo())
            evalharness.analyze(
                store, ReferenceEncoder(DIMS), ChatGateway(chat), manifest.vulns[0], config, project.project_id
            )
        assert len(verdicts) == len(manifest.projects)
        assert all(v.transcript_path is None for v in verdicts)
