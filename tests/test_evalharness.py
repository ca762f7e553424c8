import json
import shutil
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import FIXTURES, FIXTURE_TAU, FIXTURE_THETA, CountingEncoder, entry_value, write_toy_manifest
from vulnreach import evalharness
from vulnreach import memo as memo_module
from vulnreach import segmenter as segmenter_module
from vulnreach.errors import MissingPrediction, ProviderError
from vulnreach.evalharness import (
    BenchmarkManifest,
    ConfusionMatrix,
    ProjectSpec,
    build_index,
    metrics,
    render_table,
    run_benchmark,
    run_theta_sweep,
    score,
)
from vulnreach.gateway import PromptLibrary, ScriptedChatProvider
from vulnreach.javaparse import parse_source
from vulnreach.memo import Memo
from vulnreach.model import Config, Judgment, VulnSpec
from vulnreach.embedding import ReferenceEncoder
from vulnreach.segmenter import iter_project_files
from vulnreach.store import VectorStore


def toy_manifest(tmp_path: Path) -> BenchmarkManifest:
    path = write_toy_manifest(tmp_path / "manifest.json")
    return BenchmarkManifest.from_dict(json.loads(path.read_text(encoding="utf-8")))


def harness_config() -> Config:
    return Config(theta=FIXTURE_THETA, tau=FIXTURE_TAU)


def scripted_chat() -> ScriptedChatProvider:
    return ScriptedChatProvider.from_file(FIXTURES / "chat_script.json")


class TestManifest:
    def test_loads_and_resolves_refs(self, tmp_path: Path):
        manifest = toy_manifest(tmp_path)
        assert len(manifest.projects) == 4
        assert manifest.vuln_by_id("CVE-2020-5408").library == "spring-security-core"

    def test_duplicate_project_ids_rejected(self, vuln: VulnSpec):
        spec = ProjectSpec("p", "/tmp/x", Judgment.SECURE, ("CVE-2020-5408",))
        with pytest.raises(ValueError):
            BenchmarkManifest(projects=(spec, spec), vulns=(vuln,))

    def test_unresolved_vuln_ref_rejected(self, vuln: VulnSpec):
        spec = ProjectSpec("p", "/tmp/x", Judgment.SECURE, ("NO-SUCH",))
        with pytest.raises(ValueError):
            BenchmarkManifest(projects=(spec,), vulns=(vuln,))


class TestScore:
    def _manifest(self, truths: dict[str, Judgment], vuln: VulnSpec) -> BenchmarkManifest:
        return BenchmarkManifest(
            projects=tuple(
                ProjectSpec(pid, "/tmp", truth, (vuln.vuln_id,)) for pid, truth in truths.items()
            ),
            vulns=(vuln,),
        )

    def test_all_correct(self, vuln):
        truths = {
            "a": Judgment.VULNERABLE,
            "b": Judgment.VULNERABLE,
            "c": Judgment.SECURE,
            "d": Judgment.SECURE,
        }
        cm = score(dict(truths), self._manifest(truths, vuln))
        assert (cm.tp, cm.fp, cm.tn, cm.fn) == (2, 0, 2, 0)

    def test_all_flipped(self, vuln):
        truths = {
            "a": Judgment.VULNERABLE,
            "b": Judgment.VULNERABLE,
            "c": Judgment.SECURE,
            "d": Judgment.SECURE,
        }
        flipped = {
            pid: Judgment.SECURE if t is Judgment.VULNERABLE else Judgment.VULNERABLE
            for pid, t in truths.items()
        }
        cm = score(flipped, self._manifest(truths, vuln))
        assert (cm.tp, cm.fp, cm.tn, cm.fn) == (0, 2, 0, 2)

    def test_missing_prediction_raises(self, vuln):
        truths = {"a": Judgment.VULNERABLE}
        with pytest.raises(MissingPrediction):
            score({}, self._manifest(truths, vuln))

    @given(st.lists(st.booleans(), min_size=1, max_size=12), st.randoms())
    def test_permutation_invariance(self, truth_bits, rnd):
        vuln = VulnSpec("V-1", "lib", ("a#b()",), "t")
        truths = {
            f"p{i}": Judgment.VULNERABLE if bit else Judgment.SECURE
            for i, bit in enumerate(truth_bits)
        }
        predictions = {pid: Judgment.VULNERABLE for pid in truths}
        manifest = self._manifest(truths, vuln)
        shuffled_projects = list(manifest.projects)
        rnd.shuffle(shuffled_projects)
        shuffled = BenchmarkManifest(projects=tuple(shuffled_projects), vulns=(vuln,))
        assert score(predictions, manifest) == score(predictions, shuffled)


class TestMetrics:
    def test_reported_headline_counts(self):
        # tp/fp/fn from the reported 31-of-42 detections with 6 extra flags;
        # tn is the remainder of the 55-project corpus.
        cm = ConfusionMatrix(tp=31, fp=6, tn=7, fn=11)
        m = metrics(cm)
        assert m["precision"] == pytest.approx(0.838, abs=0.0005)
        assert m["recall"] == pytest.approx(0.738, abs=0.0005)
        assert m["accuracy"] == pytest.approx(0.691, abs=0.0005)
        assert m["f1"] == pytest.approx(0.785, abs=0.0005)

    def test_degenerate_all_true_negative(self):
        m = metrics(ConfusionMatrix(tp=0, fp=0, tn=9, fn=0))
        assert m["precision"] is None
        assert m["recall"] is None
        assert m["accuracy"] == pytest.approx(1.0)
        assert m["f1"] is None

    def test_empty_matrix_all_undefined(self):
        m = metrics(ConfusionMatrix(0, 0, 0, 0))
        assert all(v is None for v in m.values())

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(tp=-1, fp=0, tn=0, fn=0)

    @given(
        st.integers(0, 200), st.integers(0, 200), st.integers(0, 200), st.integers(0, 200)
    )
    def test_identities(self, tp, fp, tn, fn):
        cm = ConfusionMatrix(tp, fp, tn, fn)
        m = metrics(cm)
        if m["accuracy"] is not None:
            assert 0.0 <= m["accuracy"] <= 1.0
        if m["f1"] is not None:
            p, r = m["precision"], m["recall"]
            assert m["f1"] == pytest.approx(2 * p * r / (p + r), abs=1e-9)


SWEEP = (30, 60, 120, 100000)


class TestRunBenchmark:
    def test_toy_manifest_golden_outcome(self, tmp_path: Path, encoder):
        report = run_benchmark(
            toy_manifest(tmp_path), harness_config(), encoder, scripted_chat(), tmp_path / "out", Memo()
        )
        by_project = {row["project_id"]: row for row in report["projects"]}
        assert by_project["guarded_app"]["prediction"] == "Secure"
        assert by_project["unguarded_app"]["prediction"] == "Vulnerable"
        assert by_project["plain_app"]["prediction"] == "Secure"
        assert by_project["legacy_app"]["prediction"] == "Vulnerable"
        assert report["confusion_matrix"] == {"tp": 2, "fp": 0, "tn": 2, "fn": 0}
        assert report["metrics"] == {
            "precision": 1.0,
            "recall": 1.0,
            "accuracy": 1.0,
            "f1": 1.0,
        }
        assert report["failed_projects"] == 0
        # artifacts written
        assert (tmp_path / "out" / f"report_theta_{FIXTURE_THETA}.json").exists()
        assert (tmp_path / "out" / f"report_theta_{FIXTURE_THETA}.txt").exists()
        transcripts = tmp_path / "out" / "transcripts" / f"theta_{FIXTURE_THETA}"
        assert (transcripts / "guarded_app__CVE-2020-5408.jsonl").exists()

    def test_missing_root_marks_row_failed_and_excludes_from_metrics(self, tmp_path: Path, encoder, vuln):
        manifest = toy_manifest(tmp_path)
        broken = BenchmarkManifest(
            projects=manifest.projects
            + (ProjectSpec("ghost", str(tmp_path / "missing"), Judgment.VULNERABLE, (vuln.vuln_id,)),),
            vulns=manifest.vulns,
        )
        report = run_benchmark(broken, harness_config(), encoder, scripted_chat(), tmp_path / "out", Memo())
        ghost = next(r for r in report["projects"] if r["project_id"] == "ghost")
        assert ghost["prediction"] == "failed" and "error" in ghost
        assert report["evaluated_projects"] == 4
        assert report["failed_projects"] == 1
        assert report["confusion_matrix"] == {"tp": 2, "fp": 0, "tn": 2, "fn": 0}

    def test_memo_reused_across_runs(self, tmp_path: Path, encoder):
        counting, memo = CountingEncoder(encoder.dims), Memo()
        first = run_benchmark(
            toy_manifest(tmp_path), harness_config(), counting, scripted_chat(), tmp_path / "out", memo
        )
        assert counting.texts
        counting.texts.clear()
        second = run_benchmark(
            toy_manifest(tmp_path), harness_config(), counting, scripted_chat(), tmp_path / "out", memo
        )
        assert counting.texts == []
        for key in ("projects", "confusion_matrix", "metrics", "block_counts"):
            assert first[key] == second[key]

    def test_sweep_embeds_each_text_once_and_parses_each_file_once(
        self, tmp_path: Path, encoder, monkeypatch
    ):
        parsed: list[tuple[str, str]] = []

        def counting_parse(rel_path, text):
            parsed.append((rel_path, text))
            return parse_source(rel_path, text)

        monkeypatch.setattr(memo_module, "parse_source", counting_parse)
        counting = CountingEncoder(encoder.dims)
        manifest = toy_manifest(tmp_path)
        run_theta_sweep(
            manifest, harness_config(), counting, scripted_chat(), tmp_path / "out", Memo(), (30, 60, 120)
        )
        assert counting.texts and len(counting.texts) == len(set(counting.texts))
        files = {
            (path.relative_to(p.root_path).as_posix(), path.read_text(encoding="utf-8"))
            for p in manifest.projects
            for path in iter_project_files(Path(p.root_path), harness_config().ignore_globs)
        }
        assert sorted(parsed) == sorted(files)

    def test_sweep_reads_each_project_and_file_and_loads_the_prompts_once(
        self, tmp_path: Path, encoder, monkeypatch
    ):
        listed: list[Path] = []
        read: list[Path] = []
        loaded: list[str | None] = []
        segmented: list[str] = []
        real_list, real_read = segmenter_module.iter_project_files, Path.read_bytes
        real_load, real_segment = PromptLibrary.load.__func__, memo_module.segment_unit

        def counting_list(root, ignore_globs):
            listed.append(root)
            return real_list(root, ignore_globs)

        def counting_read(path: Path) -> bytes:
            if path.suffix == ".java":
                read.append(path)
            return real_read(path)

        def counting_load(cls, prompts_dir=None):
            loaded.append(prompts_dir)
            return real_load(cls, prompts_dir)

        def counting_segment(unit, config, on_error_block=None):
            segmented.append(unit.file_path)
            return real_segment(unit, config, on_error_block)

        monkeypatch.setattr(segmenter_module, "iter_project_files", counting_list)
        monkeypatch.setattr(Path, "read_bytes", counting_read)
        monkeypatch.setattr(PromptLibrary, "load", classmethod(counting_load))
        monkeypatch.setattr(memo_module, "segment_unit", counting_segment)
        manifest = toy_manifest(tmp_path)
        thetas = (30, 45, 60, 90, 120, 100000)
        swept = run_theta_sweep(
            manifest, harness_config(), encoder, scripted_chat(), tmp_path / "out", Memo(), thetas
        )
        roots = [Path(p.root_path) for p in manifest.projects]
        assert sorted(listed) == sorted(roots)
        files = [f for root in roots for f in real_list(root, harness_config().ignore_globs)]
        assert sorted(read) == sorted(files)
        assert loaded == [None]
        # Some files keep their blocks from one setting to the next.
        assert len(segmented) < len(files) * len(thetas)
        monkeypatch.undo()
        for theta in thetas:
            alone = run_benchmark(
                manifest, replace(harness_config(), theta=theta), encoder, scripted_chat(),
                tmp_path / "alone", Memo(),
            )
            for report in (alone, swept[theta]):
                report.pop("generated_at")
            assert swept[theta] == alone

    def test_sweep_reports_equal_runs_with_fresh_memos(self, tmp_path: Path, encoder):
        # Reused settings included: plain_app at 120 and 100000, unguarded_app at 100000.
        thetas = SWEEP
        manifest = toy_manifest(tmp_path)
        swept = run_theta_sweep(
            manifest, harness_config(), encoder, scripted_chat(), tmp_path / "out", Memo(), thetas
        )
        for theta in thetas:
            alone = run_benchmark(
                manifest, replace(harness_config(), theta=theta), ReferenceEncoder(encoder.dims),
                scripted_chat(), tmp_path / "alone", Memo(),
            )
            for report in (alone, swept[theta]):
                report.pop("generated_at")
            assert swept[theta] == alone

    def test_theta_sweep_block_counts_non_increasing(self, tmp_path: Path, encoder):
        reports = run_theta_sweep(
            toy_manifest(tmp_path),
            harness_config(),
            encoder,
            scripted_chat(),
            tmp_path / "out",
            Memo(),
            thetas=(30, 60, 120, 100000),
        )
        for project_id in ("guarded_app", "unguarded_app", "plain_app", "legacy_app"):
            counts = [reports[t]["block_counts"][project_id] for t in (30, 60, 120, 100000)]
            assert counts == sorted(counts, reverse=True)

    def test_theta_sweep_keeps_every_settings_transcripts(self, tmp_path: Path, encoder):
        out = tmp_path / "out"
        run_theta_sweep(
            toy_manifest(tmp_path), harness_config(), encoder, scripted_chat(), out, Memo(), (30, 60)
        )
        transcripts = sorted((out / "transcripts").rglob("*.jsonl"))
        assert len(transcripts) == 8  # 4 projects x 1 vuln x 2 thetas
        # plain_app never calls the API, so no block reaches the model
        asked = {(p.parent.name, p.name.split("__")[0]) for p in transcripts if p.stat().st_size}
        assert asked == {
            (f"theta_{theta}", project)
            for theta in (30, 60)
            for project in ("guarded_app", "unguarded_app", "legacy_app")
        }

    def test_tau_sweep_high_threshold_suppresses_candidates(self, tmp_path: Path, encoder):
        manifest = toy_manifest(tmp_path)
        loose, strict = (
            run_benchmark(
                manifest,
                Config(theta=FIXTURE_THETA, tau=tau),
                encoder,
                scripted_chat(),
                out_dir=tmp_path / f"out_{tau}",
                memo=Memo(),
            )
            for tau in (FIXTURE_TAU, 0.999)
        )
        assert loose["confusion_matrix"] == {"tp": 2, "fp": 0, "tn": 2, "fn": 0}
        # at tau near 1 nothing passes the similarity prefilter: all Secure
        assert strict["confusion_matrix"] == {"tp": 0, "fp": 0, "tn": 2, "fn": 2}

    def test_render_table_mentions_every_project_and_config(self, tmp_path: Path, encoder):
        config = replace(harness_config(), chat={"provider": "scripted", "script_path": "s.json"})
        report = run_benchmark(
            toy_manifest(tmp_path), config, encoder, scripted_chat(), tmp_path / "out", Memo()
        )
        assert report["config"] == config.to_dict()  # the echo `analyze` writes too
        table = render_table(report)
        for pid in ("guarded_app", "unguarded_app", "plain_app", "legacy_app"):
            assert pid in table
        assert "precision=" in table
        assert table.splitlines()[-1] == (
            f"config: theta={FIXTURE_THETA} tau={FIXTURE_TAU} top_k=10"
            ' encoder={"dims": 256, "provider": "reference"}'
            ' chat={"provider": "scripted", "script_path": "s.json"}'
        )


def count_analyses(monkeypatch) -> list[tuple[str, int]]:
    """(project id, theta) of every analysis the harness runs from now on."""
    calls: list[tuple[str, int]] = []
    real = evalharness.analyze

    def counting(store, encoder, gateway, vuln, config, project_id, **kwargs):
        calls.append((project_id, config.theta))
        return real(store, encoder, gateway, vuln, config, project_id, **kwargs)

    monkeypatch.setattr(evalharness, "analyze", counting)
    return calls


def only(manifest: BenchmarkManifest, project_id: str) -> BenchmarkManifest:
    projects = tuple(p for p in manifest.projects if p.project_id == project_id)
    return BenchmarkManifest(projects=projects, vulns=manifest.vulns)


class FailsOnce:
    """A chat provider whose first call fails for good (no retry), then
    answers as the wrapped one."""

    def __init__(self, inner):
        self.inner = inner
        self.failed = False

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def complete(self, prompt, role):
        if not self.failed:
            self.failed = True
            raise ProviderError("unauthorized", status=401)
        return self.inner.complete(prompt, role)


class TestSweepReuse:
    """A setting whose project blocks equal the previous setting's reuses
    that setting's verdicts and transcripts; anything else analyzes."""

    def test_each_run_of_equal_block_lists_is_analyzed_once(self, tmp_path, encoder, monkeypatch):
        calls = count_analyses(monkeypatch)
        reports = run_theta_sweep(
            toy_manifest(tmp_path), harness_config(), encoder, scripted_chat(), tmp_path / "out", Memo(), SWEEP
        )
        counts = {
            pid: [reports[t]["block_counts"][pid] for t in SWEEP]
            for pid in ("plain_app", "unguarded_app")
        }
        assert counts == {"plain_app": [4, 1, 1, 1], "unguarded_app": [6, 6, 1, 1]}
        analyzed = {pid: [t for p, t in calls if p == pid] for pid, _ in calls}
        assert analyzed == {
            "guarded_app": [30, 60, 120, 100000],
            "unguarded_app": [30, 60, 120],
            "plain_app": [30, 60],
            "legacy_app": [30, 60, 120, 100000],
        }

    def test_repeated_theta_runs_once(self, tmp_path, encoder, monkeypatch):
        calls = count_analyses(monkeypatch)
        manifest = only(toy_manifest(tmp_path), "unguarded_app")
        out = tmp_path / "out"
        reports = run_theta_sweep(manifest, harness_config(), encoder, scripted_chat(), out, Memo(), (60, 60))
        assert list(reports) == [60] and calls == [("unguarded_app", 60)]
        assert reports[60]["projects"][0]["prediction"] == "Vulnerable"

    def test_reused_transcripts_are_byte_copies(self, tmp_path, encoder, caplog):
        out = tmp_path / "out"
        with caplog.at_level("INFO", logger="vulnreach.evalharness"):
            run_theta_sweep(
                toy_manifest(tmp_path), harness_config(), encoder, scripted_chat(), out, Memo(), SWEEP
            )
        transcripts = out / "transcripts"
        for project, reused, source in (
            ("plain_app", 120, 60),
            ("plain_app", 100000, 60),
            ("unguarded_app", 100000, 120),
        ):
            name = f"{project}__CVE-2020-5408.jsonl"
            copy = (transcripts / f"theta_{reused}" / name).read_bytes()
            assert copy == (transcripts / f"theta_{source}" / name).read_bytes()
            assert (transcripts / f"theta_{reused}" / name).samefile(transcripts / f"theta_{source}" / name)
        assert (transcripts / "theta_100000" / "unguarded_app__CVE-2020-5408.jsonl").stat().st_size
        reuse_lines = sorted(r.getMessage() for r in caplog.records if "reused" in r.getMessage())
        assert reuse_lines == [
            "project plain_app at theta=100000: same blocks as theta=60, 1 verdicts reused",
            "project plain_app at theta=120: same blocks as theta=60, 1 verdicts reused",
            "project unguarded_app at theta=100000: same blocks as theta=120, 1 verdicts reused",
        ]

    def test_reused_transcripts_are_copied_where_links_fail(self, tmp_path, encoder, monkeypatch):
        def no_links(src, dst):
            raise OSError("hard links not supported")

        monkeypatch.setattr(evalharness.os, "link", no_links)
        out = tmp_path / "out"
        manifest = only(toy_manifest(tmp_path), "unguarded_app")
        run_theta_sweep(manifest, harness_config(), encoder, scripted_chat(), out, Memo(), (120, 100000))
        source, reused = (
            out / "transcripts" / f"theta_{t}" / "unguarded_app__CVE-2020-5408.jsonl" for t in (120, 100000)
        )
        assert reused.read_bytes() == source.read_bytes() and not reused.samefile(source)

    def test_blocks_differing_in_one_field_are_analyzed_again(self, tmp_path, encoder, monkeypatch):
        memo = Memo()
        small, large = (
            build_index(FIXTURES / "unguarded_app", replace(harness_config(), theta=t), encoder, memo)
            for t in (30, 60)
        )
        differing = [
            (a.to_dict(), b.to_dict()) for a, b in zip(small.blocks(), large.blocks()) if a != b
        ]
        assert small.count() == large.count() == 6 and len(differing) == 1
        a, b = differing[0]
        assert {k for k in a if a[k] != b[k]} == {"oversize"}
        calls = count_analyses(monkeypatch)
        manifest = only(toy_manifest(tmp_path), "unguarded_app")
        run_theta_sweep(
            manifest, harness_config(), encoder, scripted_chat(), tmp_path / "out", Memo(), (30, 60)
        )
        assert calls == [("unguarded_app", 30), ("unguarded_app", 60)]

    def test_failed_analysis_is_not_reused(self, tmp_path, encoder, monkeypatch):
        calls = count_analyses(monkeypatch)
        manifest = only(toy_manifest(tmp_path), "unguarded_app")
        reports = run_theta_sweep(
            manifest, harness_config(), encoder, FailsOnce(scripted_chat()), tmp_path / "out", Memo(),
            (120, 100000),
        )
        assert [r["block_counts"] for r in reports.values()] == [{"unguarded_app": 1}] * 2
        assert calls == [("unguarded_app", 120), ("unguarded_app", 100000)]
        failed, rerun = (reports[t]["projects"][0] for t in (120, 100000))
        assert failed["prediction"] == "failed" and "ProviderError" in failed["error"]
        assert rerun["prediction"] == "Vulnerable" and "error" not in rerun

    def test_run_benchmark_alone_never_reuses(self, tmp_path, encoder, monkeypatch):
        calls = count_analyses(monkeypatch)
        manifest = toy_manifest(tmp_path)
        twin = ProjectSpec("plain_twin", str(FIXTURES / "plain_app"), Judgment.SECURE, ("CVE-2020-5408",))
        manifest = BenchmarkManifest(projects=manifest.projects + (twin,), vulns=manifest.vulns)
        memo, chat = Memo(), scripted_chat()
        for _ in range(2):
            run_benchmark(manifest, harness_config(), encoder, chat, tmp_path / "out", memo)
        assert len(calls) == 2 * len(manifest.projects)


class TestBuildIndex:
    def test_memo_shared_across_theta_keeps_stores_apart(self, encoder):
        root = FIXTURES / "guarded_app"
        counting, memo = CountingEncoder(encoder.dims), Memo()
        small = build_index(root, Config(theta=40, ignore_globs=()), counting, memo)
        large = build_index(root, Config(theta=4000, ignore_globs=()), counting, memo)
        assert small.count() > large.count()
        for store, theta in ((small, 40), (large, 4000)):
            alone = build_index(root, Config(theta=theta, ignore_globs=()), encoder, Memo())
            assert list(map(entry_value, store.entries())) == list(map(entry_value, alone.entries()))
        texts = counting.texts
        assert len(texts) == len(set(texts))

    def test_cache_hit_returns_equal_store(self, encoder):
        root = FIXTURES / "plain_app"
        cfg = Config(theta=60, ignore_globs=())
        counting, memo = CountingEncoder(encoder.dims), Memo()
        first = build_index(root, cfg, counting, memo)
        embedded = len(counting.texts)
        second = build_index(root, cfg, counting, memo)
        assert len(counting.texts) == embedded > 0
        assert list(map(entry_value, first.entries())) == list(map(entry_value, second.entries()))

    def test_failed_build_leaves_the_memo_whole(self, encoder, monkeypatch):
        # A build that dies part-way keeps only finished answers: the next
        # build through the same memo gets every block and vector.
        root = FIXTURES / "plain_app"
        cfg = Config(theta=60, ignore_globs=())
        memo = Memo()

        def crash(self, blocks, vectors):
            raise RuntimeError("simulated crash during insert")

        with monkeypatch.context() as patched:
            patched.setattr(VectorStore, "insert", crash)
            with pytest.raises(RuntimeError):
                build_index(root, cfg, encoder, memo)
        full = build_index(root, cfg, encoder, Memo())
        rebuilt = build_index(root, cfg, encoder, memo)
        assert list(map(entry_value, rebuilt.entries())) == list(map(entry_value, full.entries()))
        assert rebuilt.count() > 0

    def test_whitespace_only_file_contributes_no_block(self, tmp_path: Path, encoder):
        root = tmp_path / "app"
        shutil.copytree(FIXTURES / "plain_app", root)
        cfg = Config(theta=60, ignore_globs=())
        memo = Memo()
        without = build_index(root, cfg, encoder, memo)
        (root / "Blank.java").write_text("\n")
        # A fresh memo: the first one keeps its snapshot of the tree.
        with_blank = build_index(root, cfg, encoder, Memo())
        assert [e.block.to_dict() for e in with_blank.entries()] == [
            e.block.to_dict() for e in without.entries()
        ]

    def test_project_without_blocks_builds_an_empty_index(self, tmp_path: Path, encoder):
        root = tmp_path / "hollow"
        root.mkdir()
        (root / "A.java").write_bytes(b"")
        cfg = Config(theta=60, ignore_globs=())
        assert build_index(root, cfg, encoder, Memo()).count() == 0
