"""Benchmark runner and metrics over project-level ground truth.

Scoring is at project granularity: a project counts as predicted vulnerable
when any of its referenced vulnerabilities yields a vulnerable verdict.
Projects that fail to run are recorded as such and excluded from the
confusion matrix, mirroring how comparative tables treat tools that cannot
process a subject: the metrics are over the projects that ran, and
``vulnreach evaluate`` exits non-zero when any failed. Metrics with zero
denominators are reported as null, never 0, to avoid fabricating perfect or
zero scores.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import shutil
import traceback
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Mapping, NamedTuple, Sequence

from .detector import analyze
from .embedding import EncoderProvider
from .errors import ConfigError, MissingPrediction, VulnReachError
from .gateway import ChatGateway, ChatProvider, PromptLibrary, Transcript
from .memo import Memo
from .model import CodeBlock, Config, Judgment, Verdict, VulnSpec, aggregate_judgment, checked_str, checked_strs
from .segmenter import iter_project_files, segment_project
from .store import VectorStore, _write_atomic, write_json

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ProjectSpec:
    project_id: str
    root_path: str
    ground_truth: Judgment
    vuln_refs: tuple[str, ...]


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
            if not project.vuln_refs:
                # It would be predicted "Secure" from no analysis at all.
                raise ValueError(f"project {project.project_id} has no vuln_refs")
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
        for key in ("projects", "vulns"):
            if not isinstance(raw[key], list):
                raise ConfigError(f"{key} must be a list, got {raw[key]!r}")
        projects = tuple(
            ProjectSpec(
                project_id=checked_str(p["project_id"], "project_id"),
                root_path=checked_str(p["root_path"], "root_path"),
                ground_truth=Judgment(p["ground_truth"]),
                vuln_refs=checked_strs(p["vuln_refs"], "vuln_refs"),
            )
            for p in raw["projects"]
        )
        vulns = tuple(VulnSpec.from_dict(v) for v in raw["vulns"])
        return cls(projects=projects, vulns=vulns)


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if type(value) is not int or value < 0:
                raise ValueError(f"{name} must be a non-negative integer, got {value!r}")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    def to_dict(self) -> dict[str, int]:
        return dict(vars(self))

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "ConfusionMatrix":
        return cls(tp=raw["tp"], fp=raw["fp"], tn=raw["tn"], fn=raw["fn"])


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


def format_metrics(m: Mapping[str, float | None]) -> str:
    """``precision=0.838 recall=0.738 accuracy=0.691 f1=0.785``; n/a for None."""
    return " ".join(
        f"{name}={'n/a' if m[name] is None else f'{m[name]:.3f}'}"
        for name in ("precision", "recall", "accuracy", "f1")
    )


def corpus_digest(root: Path, ignore_globs: Sequence[str]) -> str:
    """Content hash of a source tree. Unused by the program; kept because
    the benchmark's tracer names it."""
    acc = hashlib.sha256()
    for path in iter_project_files(root, ignore_globs):
        rel = path.relative_to(root).as_posix()
        acc.update(rel.encode("utf-8"))
        acc.update(b"\x00")
        acc.update(hashlib.sha256(path.read_bytes()).digest())
    return acc.hexdigest()


def build_index(root: Path, config: Config, encoder: EncoderProvider, memo: Memo) -> VectorStore:
    """Segment and embed a project into an in-memory index.

    Through ``memo``, the project's tree is read once and every later build
    segments that snapshot; files and block texts it has already seen (at
    another theta, say) are not parsed, segmented or embedded again (see
    ``segment_project``).
    """
    blocks = segment_project(root, config, memo=memo)
    store = VectorStore(encoder.dims)
    store.insert(blocks, memo.embed(encoder, [b.source for b in blocks]))
    return store


def run_analysis(
    store: VectorStore,
    encoder: EncoderProvider,
    chat_provider: ChatProvider,
    vuln: VulnSpec,
    config: Config,
    project_id: str,
    prompts: PromptLibrary,
    memo: Memo,
    transcript_path: Path,
) -> tuple[Verdict, Transcript]:
    """Analyze one vulnerability against one index: the one path by which
    ``vulnreach analyze`` and the harness reach a verdict. Every model call
    goes through one gateway on ``memo`` and streams to ``transcript_path``;
    returns the verdict and its closed transcript."""
    with Transcript(sink_path=transcript_path) as transcript:
        chat = ChatGateway(chat_provider, prompts, transcript, memo)
        verdict = analyze(store, encoder, chat, vuln, config, project_id)
    return verdict, transcript


class _Analyzed(NamedTuple):
    """A project's analyses at one theta, as a sweep's next theta reads them."""

    theta: int
    blocks: list[CodeBlock]
    verdicts: dict[str, tuple[Judgment, Path]]  # vuln id -> (verdict, transcript)


def run_benchmark(
    manifest: BenchmarkManifest,
    config: Config,
    encoder: EncoderProvider,
    chat_provider: ChatProvider,
    out_dir: Path | str,
    memo: Memo,
    _analyzed: dict[str, _Analyzed] | None = None,
) -> dict[str, Any]:
    """Evaluate every manifest project against its referenced vulnerabilities.

    Returns the report dict, also written to ``out_dir`` with a rendered
    plain-text table and per-analysis transcripts under
    ``transcripts/theta_<N>/``. Its ``config`` is ``config.to_dict()``, as
    ``analyze`` echoes it: the CLI builds ``encoder`` and ``chat_provider``
    from that config. Every index build and analysis of the run goes
    through ``memo``, and so does the prompt library's load, once before
    any project runs: a broken template fails the run, not each project.

    ``_analyzed`` is ``run_theta_sweep``'s record of the previous theta's
    analyses, by project. A project whose blocks equal the recorded ones
    takes the recorded verdicts instead of analyzing again, and its
    transcripts are hard links to the recorded ones (copies on a filesystem
    without hard links); a project that runs otherwise replaces its record,
    and one that fails drops it. Called alone, nothing is reused.
    """
    analyzed = {} if _analyzed is None else _analyzed
    out_path = Path(out_dir)
    transcripts_dir = out_path / "transcripts" / f"theta_{config.theta}"
    transcripts_dir.mkdir(parents=True, exist_ok=True)
    prompts = memo.prompts(config.prompts_dir)

    rows: list[dict[str, Any]] = []
    predictions: dict[str, Judgment] = {}
    block_counts: dict[str, int] = {}
    for project in manifest.projects:
        row: dict[str, Any] = {
            "project_id": project.project_id,
            "ground_truth": project.ground_truth.value,
            "per_vuln": {},
        }
        earlier = analyzed.pop(project.project_id, None)
        try:
            root = Path(project.root_path)
            store = build_index(root, config, encoder, memo)
            block_counts[project.project_id] = store.count()
            blocks = store.blocks()
            if earlier is not None and earlier.blocks != blocks:
                earlier = None
            verdicts: dict[str, tuple[Judgment, Path]] = {}
            for vuln_id in project.vuln_refs:
                vuln = manifest.vuln_by_id(vuln_id)
                transcript_path = transcripts_dir / f"{project.project_id}__{vuln_id}.jsonl"
                if earlier is not None:
                    # Same store, vuln and config but for theta: every
                    # question would be a memo hit, so the analysis is too.
                    judgment, recorded = earlier.verdicts[vuln_id]
                    # Safe to share: a transcript sink replaces its path,
                    # never rewrites a file in place.
                    transcript_path.unlink(missing_ok=True)
                    try:
                        os.link(recorded, transcript_path)
                    except OSError:
                        shutil.copyfile(recorded, transcript_path)
                else:
                    verdict, _ = run_analysis(
                        store, encoder, chat_provider, vuln, config, project.project_id,
                        prompts, memo, transcript_path,
                    )
                    judgment = verdict.project_judgment
                verdicts[vuln_id] = (judgment, transcript_path)
                row["per_vuln"][vuln_id] = judgment.value
            if earlier is not None:
                log.info(
                    "project %s at theta=%d: same blocks as theta=%d, %d verdicts reused",
                    project.project_id, config.theta, earlier.theta, len(verdicts),
                )
            prediction = aggregate_judgment([j for j, _ in verdicts.values()])
            predictions[project.project_id] = prediction
            row["prediction"] = prediction.value
            analyzed[project.project_id] = earlier or _Analyzed(config.theta, blocks, verdicts)
        except (VulnReachError, OSError, ValueError) as exc:
            log.info("project %s failed to run: %s", project.project_id, exc)
            row["prediction"] = "failed"
            row["error"] = f"{type(exc).__name__}: {exc}"
            row["traceback"] = traceback.format_exc(limit=3)
        rows.append(row)

    scored_manifest = BenchmarkManifest(
        projects=tuple(p for p in manifest.projects if p.project_id in predictions),
        vulns=manifest.vulns,
    )
    cm = score(predictions, scored_manifest)
    report = {
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "config": config.to_dict(),
        "projects": rows,
        "block_counts": block_counts,
        "evaluated_projects": cm.total,
        "failed_projects": len(manifest.projects) - cm.total,
        "confusion_matrix": cm.to_dict(),
        "metrics": metrics(cm),
    }
    # Each file is replaced whole: a crash never leaves a torn report.
    report_path = out_path / f"report_theta_{config.theta}.json"
    write_json(report_path, report)
    _write_atomic(report_path.with_suffix(".txt"), [render_table(report).encode("utf-8")])
    return report


def run_theta_sweep(
    manifest: BenchmarkManifest,
    config: Config,
    encoder: EncoderProvider,
    chat_provider: ChatProvider,
    out_dir: Path | str,
    memo: Memo,
    thetas: Sequence[int] = (500, 1000, 1500, 2000, 2500, 3000),
) -> dict[int, dict[str, Any]]:
    """One full benchmark report per segment-size setting, all through one
    memo: each project's tree is listed and its files read once, so every
    setting sees the same snapshot of it; each file is parsed once, and
    segmented again only where the setting crosses one of its sizes; each
    block text is embedded, each question asked and the prompt library
    loaded, once.

    Each distinct index is analyzed once: a project whose blocks equal its
    blocks at the previous setting reuses that setting's verdicts, and its
    transcripts there are hard links to that setting's (copies where the
    filesystem has none), with the same ``seq``s and timestamps. Every
    setting still builds every project's index.
    """
    analyzed: dict[str, _Analyzed] = {}
    return {
        theta: run_benchmark(
            manifest, replace(config, theta=theta), encoder, chat_provider, out_dir, memo, analyzed
        )
        for theta in dict.fromkeys(thetas)
    }


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
    lines.append(f"metrics: {format_metrics(report['metrics'])}")
    lines.append("")
    cfg = report["config"]
    lines.append(
        f"config: theta={cfg['theta']} tau={cfg['tau']} top_k={cfg['top_k']}"
        f" encoder={json.dumps(cfg['encoder'], sort_keys=True)}"
        f" chat={json.dumps(cfg['chat'], sort_keys=True)}"
    )
    return "\n".join(lines) + "\n"
