"""Benchmark runner and metrics over project-level ground truth.

Scoring is at project granularity: a project counts as predicted vulnerable
when any of its referenced vulnerabilities yields a vulnerable verdict.
Projects that fail to run are recorded as such and excluded from the
confusion matrix, mirroring how comparative tables treat tools that cannot
process a subject. Metrics with zero denominators are reported as null,
never 0, to avoid fabricating perfect or zero scores.
"""

from __future__ import annotations

import hashlib
import json
import logging
import traceback
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Mapping, Sequence

from .detector import DetectorConfig, analyze
from .embedding import EncoderProvider, embed
from .errors import MissingPrediction, VulnReachError
from .gateway import ChatGateway, ChatProvider, PromptLibrary, Transcript
from .model import CodeBlock, Judgment, VulnSpec
from .segmenter import SegmenterConfig, iter_project_files, segment_project
from .store import StoreEntry, VectorStore

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ProjectSpec:
    project_id: str
    root_path: str
    ground_truth: Judgment
    vuln_refs: tuple[str, ...]

    def to_dict(self) -> dict[str, Any]:
        return {
            "project_id": self.project_id,
            "root_path": self.root_path,
            "ground_truth": self.ground_truth.value,
            "vuln_refs": list(self.vuln_refs),
        }


@dataclass(frozen=True)
class BenchmarkManifest:
    projects: tuple[ProjectSpec, ...]
    vulns: tuple[VulnSpec, ...]

    def __post_init__(self) -> None:
        ids = [p.project_id for p in self.projects]
        if len(set(ids)) != len(ids):
            raise ValueError("manifest project_ids must be unique")
        known = {v.vuln_id for v in self.vulns}
        for project in self.projects:
            unresolved = set(project.vuln_refs) - known
            if unresolved:
                raise ValueError(
                    f"project {project.project_id} references unknown vulns: {sorted(unresolved)}"
                )

    def vuln_by_id(self, vuln_id: str) -> VulnSpec:
        for vuln in self.vulns:
            if vuln.vuln_id == vuln_id:
                return vuln
        raise KeyError(vuln_id)

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "BenchmarkManifest":
        projects = tuple(
            ProjectSpec(
                project_id=str(p["project_id"]),
                root_path=str(p["root_path"]),
                ground_truth=Judgment(p["ground_truth"]),
                vuln_refs=tuple(str(v) for v in p["vuln_refs"]),
            )
            for p in raw["projects"]
        )
        vulns = tuple(VulnSpec.from_dict(v) for v in raw["vulns"])
        return cls(projects=projects, vulns=vulns)

    @classmethod
    def from_file(cls, path: Path | str) -> "BenchmarkManifest":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self) -> None:
        for name, value in (("tp", self.tp), ("fp", self.fp), ("tn", self.tn), ("fn", self.fn)):
            if value < 0:
                raise ValueError(f"{name} must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    def to_dict(self) -> dict[str, int]:
        return {"tp": self.tp, "fp": self.fp, "tn": self.tn, "fn": self.fn}

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "ConfusionMatrix":
        return cls(tp=int(raw["tp"]), fp=int(raw["fp"]), tn=int(raw["tn"]), fn=int(raw["fn"]))


def score(predictions: Mapping[str, Judgment], manifest: BenchmarkManifest) -> ConfusionMatrix:
    """Project-level confusion matrix; every manifest project needs a prediction."""
    tp = fp = tn = fn = 0
    for project in manifest.projects:
        if project.project_id not in predictions:
            raise MissingPrediction(f"no prediction for project {project.project_id}")
        predicted = predictions[project.project_id]
        actual = project.ground_truth
        if predicted is Judgment.VULNERABLE and actual is Judgment.VULNERABLE:
            tp += 1
        elif predicted is Judgment.VULNERABLE and actual is Judgment.SECURE:
            fp += 1
        elif predicted is Judgment.SECURE and actual is Judgment.SECURE:
            tn += 1
        else:
            fn += 1
    return ConfusionMatrix(tp=tp, fp=fp, tn=tn, fn=fn)


def harmonic_f1(precision: float | None, recall: float | None) -> float | None:
    """Harmonic mean of precision and recall; None when undefined."""
    if precision is None or recall is None or precision + recall == 0:
        return None
    return 2 * precision * recall / (precision + recall)


def metrics(cm: ConfusionMatrix) -> dict[str, float | None]:
    """precision = tp/(tp+fp), recall = tp/(tp+fn), accuracy over all,
    f1 = harmonic mean of precision and recall. Zero denominators yield None."""
    precision = cm.tp / (cm.tp + cm.fp) if cm.tp + cm.fp > 0 else None
    recall = cm.tp / (cm.tp + cm.fn) if cm.tp + cm.fn > 0 else None
    accuracy = (cm.tp + cm.tn) / cm.total if cm.total > 0 else None
    return {
        "precision": precision,
        "recall": recall,
        "accuracy": accuracy,
        "f1": harmonic_f1(precision, recall),
    }


def corpus_digest(root: Path, ignore_globs: Sequence[str]) -> str:
    """Content hash of a source tree, for index cache keys."""
    acc = hashlib.sha256()
    for path in iter_project_files(root, ignore_globs):
        rel = path.relative_to(root).as_posix()
        acc.update(rel.encode("utf-8"))
        acc.update(b"\x00")
        acc.update(hashlib.sha256(path.read_bytes()).digest())
    return acc.hexdigest()


def build_index(
    root: Path,
    seg_cfg: SegmenterConfig,
    encoder: EncoderProvider,
    ignore_globs: Sequence[str],
    cache_dir: Path | None = None,
) -> VectorStore:
    """Segment and embed a project; reuse a cached index when the corpus,
    theta and encoder all match."""
    cache_path: Path | None = None
    if cache_dir is not None:
        digest = corpus_digest(root, ignore_globs)
        key = hashlib.sha256(
            f"{digest}|{seg_cfg.theta}|{encoder.name}|{encoder.dims}".encode("utf-8")
        ).hexdigest()[:24]
        cache_path = Path(cache_dir) / f"index-{key}.vrix"
        if cache_path.exists():
            return VectorStore.open(cache_path)
    blocks = segment_project(root, seg_cfg, ignore_globs=tuple(ignore_globs))
    vectors = embed(encoder, [b.source for b in blocks]) if blocks else []
    entries = [StoreEntry(b, v) for b, v in zip(blocks, vectors)]
    if cache_path is not None:
        return VectorStore.create(cache_path, encoder.dims, entries)
    store = VectorStore.in_memory(encoder.dims)
    store.insert(entries)
    return store


@dataclass(frozen=True)
class HarnessConfig:
    """Everything a benchmark run needs besides the manifest and providers."""

    theta: int = 2500
    tau: float = 0.35
    top_k: int = 10
    max_iterations: int = 5
    parallelism: int = 1
    ignore_globs: tuple[str, ...] = ("target/**", "build/**", "out/**", ".git/**")

    def detector(self) -> DetectorConfig:
        return DetectorConfig(
            tau=self.tau,
            top_k=self.top_k,
            max_iterations=self.max_iterations,
            parallelism=self.parallelism,
        )

    def segmenter(self) -> SegmenterConfig:
        return SegmenterConfig(theta=self.theta)


def run_benchmark(
    manifest: BenchmarkManifest,
    config: HarnessConfig,
    encoder: EncoderProvider,
    chat_provider: ChatProvider,
    out_dir: Path | str | None = None,
    prompts: PromptLibrary | None = None,
) -> dict[str, Any]:
    """Evaluate every manifest project against its referenced vulnerabilities.

    Returns the report dict (also written to ``out_dir`` when given, along
    with per-analysis transcripts and a rendered plain-text table).
    """
    out_path = Path(out_dir) if out_dir is not None else None
    cache_dir = out_path / "cache" if out_path is not None else None
    transcripts_dir = out_path / "transcripts" if out_path is not None else None
    if transcripts_dir is not None:
        transcripts_dir.mkdir(parents=True, exist_ok=True)
    prompts = prompts or PromptLibrary.bundled()

    rows: list[dict[str, Any]] = []
    predictions: dict[str, Judgment] = {}
    block_counts: dict[str, int] = {}
    for project in manifest.projects:
        row: dict[str, Any] = {
            "project_id": project.project_id,
            "ground_truth": project.ground_truth.value,
            "per_vuln": {},
        }
        try:
            root = Path(project.root_path)
            store = build_index(
                root, config.segmenter(), encoder, config.ignore_globs, cache_dir
            )
            block_counts[project.project_id] = store.count()
            judgments: list[Judgment] = []
            for vuln_id in project.vuln_refs:
                vuln = manifest.vuln_by_id(vuln_id)
                transcript_path = (
                    transcripts_dir / f"{project.project_id}__{vuln_id}.jsonl"
                    if transcripts_dir is not None
                    else None
                )
                gateway = ChatGateway(
                    chat_provider, prompts, Transcript(sink_path=transcript_path)
                )
                verdict = analyze(
                    store,
                    encoder,
                    gateway,
                    vuln,
                    config.detector(),
                    project.project_id,
                    transcript_path=str(transcript_path) if transcript_path else None,
                )
                row["per_vuln"][vuln_id] = verdict.project_judgment.value
                judgments.append(verdict.project_judgment)
            prediction = (
                Judgment.VULNERABLE
                if any(j is Judgment.VULNERABLE for j in judgments)
                else Judgment.SECURE
            )
            predictions[project.project_id] = prediction
            row["prediction"] = prediction.value
        except (VulnReachError, OSError, ValueError) as exc:
            log.warning("project %s failed to run: %s", project.project_id, exc)
            row["prediction"] = "failed"
            row["error"] = f"{type(exc).__name__}: {exc}"
            row["traceback"] = traceback.format_exc(limit=3)
        rows.append(row)

    scored = {pid: j for pid, j in predictions.items()}
    scored_manifest = BenchmarkManifest(
        projects=tuple(p for p in manifest.projects if p.project_id in scored),
        vulns=manifest.vulns,
    )
    cm = score(scored, scored_manifest)
    report = {
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "config": {
            "theta": config.theta,
            "tau": config.tau,
            "top_k": config.top_k,
            "max_iterations": config.max_iterations,
            "parallelism": config.parallelism,
            "encoder": f"{encoder.name}:{encoder.dims}",
            "chat": f"{chat_provider.name}:{chat_provider.model_id}",
        },
        "projects": rows,
        "block_counts": block_counts,
        "evaluated_projects": cm.total,
        "failed_projects": len(manifest.projects) - cm.total,
        "confusion_matrix": cm.to_dict(),
        "metrics": metrics(cm),
    }
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
        (out_path / f"report_theta_{config.theta}.json").write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        (out_path / f"report_theta_{config.theta}.txt").write_text(
            render_table(report), encoding="utf-8"
        )
    return report


def run_theta_sweep(
    manifest: BenchmarkManifest,
    config: HarnessConfig,
    encoder: EncoderProvider,
    chat_provider: ChatProvider,
    thetas: Sequence[int] = (500, 1000, 1500, 2000, 2500, 3000),
    out_dir: Path | str | None = None,
    prompts: PromptLibrary | None = None,
) -> dict[int, dict[str, Any]]:
    """One full benchmark report per segment-size setting."""
    from dataclasses import replace

    reports: dict[int, dict[str, Any]] = {}
    for theta in thetas:
        reports[theta] = run_benchmark(
            manifest, replace(config, theta=theta), encoder, chat_provider, out_dir, prompts
        )
    return reports


def run_tau_sweep(
    manifest: BenchmarkManifest,
    config: HarnessConfig,
    encoder: EncoderProvider,
    chat_provider: ChatProvider,
    taus: Sequence[float],
    out_dir: Path | str | None = None,
    prompts: PromptLibrary | None = None,
) -> dict[float, dict[str, Any]]:
    """One full benchmark report per similarity-threshold setting. Reports
    land in a ``tau_<value>`` subdirectory each, since theta is unchanged."""
    from dataclasses import replace

    reports: dict[float, dict[str, Any]] = {}
    for tau in taus:
        sub = Path(out_dir) / f"tau_{tau}" if out_dir is not None else None
        reports[tau] = run_benchmark(
            manifest, replace(config, tau=tau), encoder, chat_provider, sub, prompts
        )
    return reports


def render_table(report: Mapping[str, Any]) -> str:
    """Plain-text per-project table plus the aggregate metrics."""
    header = f"{'project':<28} {'truth':<11} {'prediction':<11} per-vuln"
    lines = [header, "-" * len(header)]
    for row in report["projects"]:
        per_vuln = ", ".join(f"{k}={v}" for k, v in sorted(row.get("per_vuln", {}).items()))
        lines.append(
            f"{row['project_id']:<28} {row['ground_truth']:<11} {row['prediction']:<11} {per_vuln}"
        )
    cm = report["confusion_matrix"]
    lines.append("")
    lines.append(
        f"confusion matrix: tp={cm['tp']} fp={cm['fp']} tn={cm['tn']} fn={cm['fn']}"
        f" (evaluated {report['evaluated_projects']}, failed {report['failed_projects']})"
    )
    m = report["metrics"]

    def fmt(value: float | None) -> str:
        return "n/a" if value is None else f"{value:.3f}"

    lines.append(
        "metrics: precision={p} recall={r} accuracy={a} f1={f}".format(
            p=fmt(m["precision"]), r=fmt(m["recall"]), a=fmt(m["accuracy"]), f=fmt(m["f1"])
        )
    )
    lines.append("")
    cfg = report["config"]
    lines.append(
        f"config: theta={cfg['theta']} tau={cfg['tau']} top_k={cfg['top_k']}"
        f" encoder={cfg['encoder']} chat={cfg['chat']}"
    )
    return "\n".join(lines) + "\n"
