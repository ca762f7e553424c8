import json
import shutil
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import FIXTURES, FIXTURE_TAU, FIXTURE_THETA, write_toy_manifest
from vulnreach.errors import MissingPrediction
from vulnreach.evalharness import (
    BenchmarkManifest,
    ConfusionMatrix,
    HarnessConfig,
    ProjectSpec,
    build_index,
    metrics,
    render_table,
    run_benchmark,
    run_tau_sweep,
    run_theta_sweep,
    score,
)
from vulnreach.gateway import ScriptedChatProvider
from vulnreach.model import Judgment, VulnSpec
from vulnreach.embedding import ReferenceEncoder
from vulnreach.store import VectorStore


def toy_manifest(tmp_path: Path) -> BenchmarkManifest:
    return BenchmarkManifest.from_file(write_toy_manifest(tmp_path / "manifest.json"))


def harness_config() -> HarnessConfig:
    return HarnessConfig(theta=FIXTURE_THETA, tau=FIXTURE_TAU)


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


class TestRunBenchmark:
    def test_toy_manifest_golden_outcome(self, tmp_path: Path, encoder):
        report = run_benchmark(
            toy_manifest(tmp_path), harness_config(), encoder, scripted_chat(), out_dir=tmp_path / "out"
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
        assert (tmp_path / "out" / "transcripts" / "guarded_app__CVE-2020-5408.jsonl").exists()

    def test_missing_root_marks_row_failed_and_excludes_from_metrics(self, tmp_path: Path, encoder, vuln):
        manifest = toy_manifest(tmp_path)
        broken = BenchmarkManifest(
            projects=manifest.projects
            + (ProjectSpec("ghost", str(tmp_path / "missing"), Judgment.VULNERABLE, (vuln.vuln_id,)),),
            vulns=manifest.vulns,
        )
        report = run_benchmark(broken, harness_config(), encoder, scripted_chat())
        ghost = next(r for r in report["projects"] if r["project_id"] == "ghost")
        assert ghost["prediction"] == "failed" and "error" in ghost
        assert report["evaluated_projects"] == 4
        assert report["failed_projects"] == 1
        assert report["confusion_matrix"] == {"tp": 2, "fp": 0, "tn": 2, "fn": 0}

    def test_index_cache_reused_across_runs(self, tmp_path: Path, encoder):
        out = tmp_path / "out"
        first = run_benchmark(toy_manifest(tmp_path), harness_config(), encoder, scripted_chat(), out_dir=out)
        cache_files = sorted((out / "cache").glob("index-*.vrix"))
        assert cache_files, "expected cached index files"
        second = run_benchmark(toy_manifest(tmp_path), harness_config(), encoder, scripted_chat(), out_dir=out)
        assert sorted((out / "cache").glob("index-*.vrix")) == cache_files
        for key in ("projects", "confusion_matrix", "metrics", "block_counts"):
            assert first[key] == second[key]

    def test_theta_sweep_block_counts_non_increasing(self, tmp_path: Path, encoder):
        reports = run_theta_sweep(
            toy_manifest(tmp_path),
            harness_config(),
            encoder,
            scripted_chat(),
            thetas=(30, 60, 120, 100000),
        )
        for project_id in ("guarded_app", "unguarded_app", "plain_app", "legacy_app"):
            counts = [reports[t]["block_counts"][project_id] for t in (30, 60, 120, 100000)]
            assert counts == sorted(counts, reverse=True)

    def test_tau_sweep_high_threshold_suppresses_candidates(self, tmp_path: Path, encoder):
        reports = run_tau_sweep(
            toy_manifest(tmp_path),
            harness_config(),
            encoder,
            scripted_chat(),
            taus=(FIXTURE_TAU, 0.999),
            out_dir=tmp_path / "out",
        )
        loose = reports[FIXTURE_TAU]
        strict = reports[0.999]
        assert loose["confusion_matrix"] == {"tp": 2, "fp": 0, "tn": 2, "fn": 0}
        # at tau near 1 nothing passes the similarity prefilter: all Secure
        assert strict["confusion_matrix"] == {"tp": 0, "fp": 0, "tn": 2, "fn": 2}
        assert (tmp_path / "out" / "tau_0.999" / f"report_theta_{FIXTURE_THETA}.json").exists()

    def test_render_table_mentions_every_project_and_config(self, tmp_path: Path, encoder):
        report = run_benchmark(toy_manifest(tmp_path), harness_config(), encoder, scripted_chat())
        table = render_table(report)
        for pid in ("guarded_app", "unguarded_app", "plain_app", "legacy_app"):
            assert pid in table
        assert f"theta={FIXTURE_THETA}" in table and "precision=" in table


class TestBuildIndex:
    def test_cache_key_sensitive_to_theta(self, tmp_path: Path, encoder):
        cache = tmp_path / "cache"
        root = FIXTURES / "guarded_app"
        cfg_small = HarnessConfig(theta=40).segmenter()
        cfg_large = HarnessConfig(theta=4000).segmenter()
        store_small = build_index(root, cfg_small, encoder, (), cache_dir=cache)
        store_large = build_index(root, cfg_large, encoder, (), cache_dir=cache)
        assert store_small.count() > store_large.count()
        assert len(list(cache.glob("index-*.vrix"))) == 2

    def test_cache_hit_returns_equal_store(self, tmp_path: Path, encoder):
        cache = tmp_path / "cache"
        root = FIXTURES / "plain_app"
        cfg = HarnessConfig(theta=60).segmenter()
        first = build_index(root, cfg, encoder, (), cache_dir=cache)
        second = build_index(root, cfg, encoder, (), cache_dir=cache)
        assert [e.block.to_dict() for e in first.entries()] == [
            e.block.to_dict() for e in second.entries()
        ]

    def test_failed_build_leaves_no_cached_index(self, tmp_path: Path, encoder, monkeypatch):
        # A build that dies before its index is complete must not leave a
        # cache file behind: the next run would open it and get 0 blocks.
        cache = tmp_path / "cache"
        root = FIXTURES / "plain_app"
        cfg = HarnessConfig(theta=60).segmenter()

        def crash(self, entries):
            raise RuntimeError("simulated crash during insert")

        with monkeypatch.context() as patched:
            patched.setattr(VectorStore, "insert", crash)
            with pytest.raises(RuntimeError):
                build_index(root, cfg, encoder, (), cache_dir=cache)
        full = build_index(root, cfg, encoder, ())
        rebuilt = build_index(root, cfg, encoder, (), cache_dir=cache)
        assert rebuilt.count() == full.count() > 0

    def test_whitespace_only_file_contributes_no_block(self, tmp_path: Path, encoder):
        root = tmp_path / "app"
        shutil.copytree(FIXTURES / "plain_app", root)
        cfg = HarnessConfig(theta=60).segmenter()
        without = build_index(root, cfg, encoder, ())
        (root / "Blank.java").write_text("\n")
        with_blank = build_index(root, cfg, encoder, (), cache_dir=tmp_path / "cache")
        assert [e.block.to_dict() for e in with_blank.entries()] == [
            e.block.to_dict() for e in without.entries()
        ]

    def test_project_without_blocks_builds_an_empty_index(self, tmp_path: Path, encoder):
        root = tmp_path / "hollow"
        root.mkdir()
        (root / "A.java").write_bytes(b"")
        cfg = HarnessConfig(theta=60).segmenter()
        assert build_index(root, cfg, encoder, ()).count() == 0
        cached = build_index(root, cfg, encoder, (), cache_dir=tmp_path / "cache")
        assert cached.count() == 0
        assert VectorStore.open(next((tmp_path / "cache").glob("index-*.vrix"))).count() == 0
