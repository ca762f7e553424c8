import hashlib
import json
import logging
import re
import shutil
import threading
from pathlib import Path

import pytest

from conftest import DIMS, FIXTURES, FIXTURE_THETA, write_tool_config, write_toy_manifest
from vulnreach import cli
from vulnreach.embedding import ReferenceEncoder
from vulnreach.gateway import ChatGateway, ScriptedChatProvider
from vulnreach.model import Config
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
# dims=256, frozen from the first verified run.
GOLDEN_GUARDED_INDEX_DIGEST = "7f8a7b2aa3fae3da1e7fd065aba24619db2e88d837ebcd3d3433bf0bee79e9fe"


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
        stdout = capsys.readouterr().out
        assert f"dims {DIMS}" in stdout and "indexed" in stdout

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

    def test_evaluate_marks_the_project_failed(self, tmp_path: Path, config_file: Path):
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
        assert code == 0
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
        report = tmp_path / "report.json"
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
        code = run_cli(
            "analyze",
            "--index", str(index),
            "--vuln", str(FIXTURES / "vuln_encoder_null.json"),
            "--config", str(config),
            "--report", str(tmp_path / "r.json"),
        )
        assert code == 2


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
        stdout = capsys.readouterr().out
        assert "precision=0.838" in stdout
        assert "recall=0.738" in stdout
        assert "accuracy=0.691" in stdout
        assert "f1=0.785" in stdout

    def test_failed_rows_still_exit_0(self, tmp_path: Path, config_file: Path):
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
        assert code == 0
        report = read_report(out_dir / f"report_theta_{FIXTURE_THETA}.json")
        assert report["failed_projects"] == 1
        assert report["confusion_matrix"] == {"tp": 2, "fp": 0, "tn": 2, "fn": 0}

    def test_sweep_theta_writes_one_report_per_setting(self, tmp_path: Path, capsys):
        manifest = write_toy_manifest(tmp_path / "manifest.json")
        # tiny sweep grid via config theta is fixed; the CLI sweep uses the
        # standard grid, so run it over the small fixture corpus
        config = write_tool_config(tmp_path / "cfg.json")
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
        config = write_tool_config(tmp_path / "cfg.json")
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
            tmp_path / "cfg.json", encoder={"provider": "reference", "dims": dims}
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
        assert err.startswith("error: ") and len(err.splitlines()) == 1, err
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

    def test_config_echo_never_leaks_credentials(self, tmp_path: Path):
        config = Config(
            chat={"provider": "openai-compat", "api_key_env": "X_API_KEY", "model": "m", "endpoint": "e"}
        )
        echoed = config.to_dict()
        assert "api_key_env" not in echoed["chat"]
        assert echoed["chat"]["model"] == "m"
