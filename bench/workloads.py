"""The three workloads: seeded inputs, set-up, one measured pass, and the
semantic digests of every output.

Each workload drives the public CLI entry ``vulnreach.cli.main`` in a closed
loop with one client: an invocation starts when the previous one returns.
A pass is one sweep over the workload's inputs; it is the unit that output
digests and model-cost counts are taken per.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

from vulnreach import cli
from vulnreach.store import VectorStore

import inputs
from inputs import BENCH, ROOT, THETAS, WORK, rel
from reference import Timing, timed


@dataclass
class Pass:
    """One pass: the timing of each CLI invocation, and per operation the
    observed outputs that are compared with the committed ones. An observed
    output that carries an "error" fails whatever was committed."""

    invocations: list[Timing] = field(default_factory=list)
    outputs: list[tuple[str, dict]] = field(default_factory=list)


def call_cli(argv: list[str], tracer=None, op: str = "") -> tuple[int, Timing]:
    """Run one CLI invocation in this process, output captured, and time it."""
    sink = io.StringIO()
    traced = tracer.operation(op) if tracer is not None else contextlib.nullcontext()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), traced:
        return timed(lambda: cli.main(argv))


def sha256_json(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode("utf-8")).hexdigest()


def index_digest(path: Path) -> str:
    """Block list plus float32 vector bytes, read back through
    VectorStore.open, so a change of the file format that keeps the content
    keeps the digest."""
    store = VectorStore.open(path)
    acc = hashlib.sha256()
    acc.update(json.dumps([e.block.to_dict() for e in store.entries()], sort_keys=True).encode())
    # The stored float32 rows; entries() hands out renormalized float64 copies.
    acc.update(store._vectors.astype("<f4").tobytes())
    return acc.hexdigest()


def remove_index(path: Path) -> None:
    path.unlink(missing_ok=True)
    path.with_name(path.name + ".meta.json").unlink(missing_ok=True)


def import_timing() -> Timing:
    """Time of importing the CLI module in a fresh interpreter, taken
    inside that interpreter so its reference samples run where it does."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(["src", "bench"])}
    argv = [sys.executable, "bench/reference.py", "vulnreach.cli"]
    out = subprocess.run(argv, cwd=ROOT, env=env, check=True, capture_output=True, text=True)
    return Timing(**json.loads(out.stdout))


def tail(samples: list[float]) -> tuple[float, int] | None:
    """The highest of the usual percentiles with at least ten samples beyond
    it, as (value, percentile)."""
    for pct in (99, 95, 90, 75, 50):
        if len(samples) * (100 - pct) / 100 >= 10:
            return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1], pct
    return None


class Workload:
    name = ""
    chat_script: Path | None = None

    def __init__(self, size: str, slot: int):
        self.size = inputs.SIZES[size]
        self.slot = slot
        self.dir = WORK / size / self.name
        self.inputs_dir = self.dir / "inputs"
        self.out_dir = self.dir / "out"
        self.builds = 0

    def prepare(self) -> str:
        """Generate the inputs afresh and return their digest."""
        inputs.fresh_dir(self.dir)
        self.out_dir.mkdir()
        self.generate()
        paths = [self.inputs_dir] + ([self.chat_script] if self.chat_script else [])
        return inputs.tree_digest(paths)

    def generate(self) -> None:
        raise NotImplementedError

    def sizes(self) -> dict:
        raise NotImplementedError

    def setup(self, repeats: int) -> tuple[list[Timing], Pass]:
        """Set-up samples, and any operations set-up performed."""
        return [import_timing() for _ in range(repeats)], Pass()

    def run_pass(self, tracer=None) -> Pass:
        raise NotImplementedError

    def named_metrics(self, invocations: list[float]) -> dict[str, tuple[float, str]]:
        """The workload's headline figures under the names users know them by."""
        return {}

    def build_index(self, corpus: Path, tracer=None) -> tuple[Path, Timing, dict]:
        """One `vulnreach index` build to a fresh path."""
        self.builds += 1
        out = self.out_dir / f"index-{self.builds}.vrix"
        rc, timing = call_cli(
            ["index", "--project", rel(corpus), "--out", rel(out)], tracer, f"index#{self.builds}"
        )
        observed = {"exit": rc, "digest": index_digest(out) if rc == 0 else None}
        if rc != 0:
            observed["error"] = f"exit {rc}"
        return out, timing, observed


def _source_kb(root: Path) -> float:
    return sum(p.stat().st_size for p in root.rglob("*.java")) / 1024


class IndexCold(Workload):
    """`vulnreach index` of one corpus, to a fresh path every time."""

    name = "index-cold"

    def generate(self) -> None:
        self.corpus = self.inputs_dir / "corpus"
        inputs.fixed_volume_corpus(
            self.corpus, inputs.corpus_seed(self.name, self.slot), self.size["index_kb"]
        )

    def sizes(self) -> dict:
        return {
            "files": len(list(self.corpus.rglob("*.java"))),
            "source_kb": round(_source_kb(self.corpus), 3),
        }

    def named_metrics(self, invocations):
        kb = _source_kb(self.corpus)
        return {"index_kb_per_s": (statistics.median(kb / s for s in invocations), "KB/s")}

    def run_pass(self, tracer=None) -> Pass:
        out, timing, observed = self.build_index(self.corpus, tracer)
        remove_index(out)
        return Pass([timing], [("index", observed)])


class AnalyzeCli(Workload):
    """`vulnreach analyze`, once per vuln spec, against the index of one
    corpus; the index build is the set-up.

    The corpus is the same for every seed and the seed draws the specs: in
    probes, seeded corpora moved model calls by 10% and prompt tokens by 11%
    between seeds (every spec of a seed shares its corpus, so more specs do
    not average it out), against 2.5% for seeded specs on one corpus.
    """

    name = "analyze-cli"
    chat_script = BENCH / "chat" / "analyze.json"

    def generate(self) -> None:
        self.corpus = self.inputs_dir / "corpus"
        self.index: Path | None = None
        inputs.fixed_volume_corpus(
            self.corpus, inputs.corpus_seed(self.name, 0), self.size["analyze_kb"]
        )
        rng = random.Random(f"{self.name}:{self.slot}")
        self.vulns = []
        for vuln in inputs.make_vulns(rng, f"A{self.slot}", self.size["analyze_specs"]):
            path = inputs.write_json(self.inputs_dir / "vulns" / f"{vuln['vuln_id']}.json", vuln)
            self.vulns.append((vuln["vuln_id"], path))
        self.config = inputs.write_json(
            self.inputs_dir / "config.json",
            {"top_k": 20, "chat": {"provider": "scripted", "script_path": rel(self.chat_script)}},
        )

    def sizes(self) -> dict:
        return {
            "files": len(list(self.corpus.rglob("*.java"))),
            "source_kb": round(_source_kb(self.corpus), 3),
            "specs": len(self.vulns),
        }

    def setup(self, repeats: int) -> tuple[list[Timing], Pass]:
        samples, setup_pass = [], Pass()
        for _ in range(repeats):
            if self.index is not None:
                remove_index(self.index)
            self.index, timing, observed = self.build_index(self.corpus)
            samples.append(timing)
            setup_pass.outputs.append(("index", observed))
        return samples, setup_pass

    def named_metrics(self, invocations):
        named = {"analyze_p50_s": (statistics.median(invocations), "s")}
        high = tail(invocations)
        if high is not None:
            named["analyze_tail_s"] = (high[0], "s")
            named["analyze_tail_percentile"] = (high[1], "pct")
            named["analyze_tail_samples"] = (len(invocations), "count")
        return named

    def run_pass(self, tracer=None) -> Pass:
        result = Pass()
        for vuln_id, path in self.vulns:
            report = self.out_dir / "reports" / f"{vuln_id}.json"
            rc, timing = call_cli(
                [
                    "analyze", "--index", rel(self.index), "--vuln", rel(path),
                    "--config", rel(self.config), "--report", rel(report),
                    "--project-id", "bench",
                ],
                tracer,
                f"analyze:{vuln_id}",
            )
            result.invocations.append(timing)
            digest = None
            if report.exists():
                data = json.loads(report.read_text(encoding="utf-8"))
                data.pop("generated_at", None)
                digest = sha256_json(data)
                report.unlink()
            observed = {"exit": rc, "digest": digest}
            if rc not in (cli.EXIT_OK, cli.EXIT_VULNERABLE):
                observed["error"] = f"exit {rc}"
            result.outputs.append((vuln_id, observed))
        return result


class SweepTheta(Workload):
    """`vulnreach evaluate --sweep-theta` over a manifest of small projects,
    with a fresh --out each time so the index cache starts cold.

    The deep reflection loops multiply small differences of content: in
    probes, seeded projects and specs moved model calls by +-30% and prompt
    tokens by more between seeds, beyond any bound the benchmark may set.
    So the projects and specs are the same for every seed, and the seed
    draws the ground truth, which the confusion matrices depend on.
    """

    name = "sweep-theta"
    chat_script = BENCH / "chat" / "sweep.json"

    def generate(self) -> None:
        vulns = inputs.make_vulns(random.Random(self.name), "S", self.size["sweep_vulns"])
        reachable = [v["vuln_id"] for v in vulns[0::2]]
        guarded = [v["vuln_id"] for v in vulns[1::2]]
        truth = random.Random(f"{self.name}:{self.slot}")
        projects = []
        for p in range(self.size["sweep_projects"]):
            root = self.inputs_dir / f"project{p}"
            inputs.fixed_volume_corpus(
                root, inputs.corpus_seed(self.name, 0, p), self.size["sweep_kb"]
            )
            # Odd projects reference only guarded vulns, so both predictions
            # occur; ground truth is a coin, so every confusion cell can fill.
            refs = reachable[:1] + guarded[:1] if p % 2 == 0 else guarded
            projects.append(
                {
                    "project_id": f"project{p}",
                    "root_path": rel(root),
                    "ground_truth": truth.choice(["Vulnerable", "Secure"]),
                    "vuln_refs": refs,
                }
            )
        self.projects = [p["project_id"] for p in projects]
        self.manifest = inputs.write_json(
            self.inputs_dir / "manifest.json", {"projects": projects, "vulns": vulns}
        )
        self.config = inputs.write_json(
            self.inputs_dir / "config.json",
            {"top_k": 3, "chat": {"provider": "scripted", "script_path": rel(self.chat_script)}},
        )

    def sizes(self) -> dict:
        roots = [self.inputs_dir / p for p in self.projects]
        return {
            "projects": len(roots),
            "files": sum(len(list(r.rglob("*.java"))) for r in roots),
            "source_kb": round(sum(_source_kb(r) for r in roots), 3),
            "thetas": list(THETAS),
        }

    def named_metrics(self, invocations):
        return {"sweep_s": (statistics.median(invocations), "s")}

    def run_pass(self, tracer=None) -> Pass:
        self.builds += 1
        out = self.out_dir / f"sweep-{self.builds}"
        rc, timing = call_cli(
            [
                "evaluate", "--manifest", rel(self.manifest), "--config", rel(self.config),
                "--out", rel(out), "--sweep-theta",
            ],
            tracer,
            f"evaluate#{self.builds}",
        )
        result = Pass([timing])
        for theta in THETAS:
            path = out / f"report_theta_{theta}.json"
            report = json.loads(path.read_text(encoding="utf-8")) if path.exists() else None
            for project in self.projects:
                observed: dict = {"exit": rc}
                if rc != 0 or report is None:
                    observed["error"] = f"exit {rc}, report {'present' if report else 'missing'}"
                else:
                    row = next(r for r in report["projects"] if r["project_id"] == project)
                    observed["digest"] = sha256_json(
                        {
                            "confusion_matrix": report["confusion_matrix"],
                            "blocks": report["block_counts"].get(project),
                            "prediction": row["prediction"],
                            "per_vuln": row["per_vuln"],
                        }
                    )
                    if row["prediction"] == "failed":
                        observed["error"] = row.get("error", "project failed")
                result.outputs.append((f"{theta}:{project}", observed))
        shutil.rmtree(out, ignore_errors=True)
        return result


WORKLOADS = {w.name: w for w in (IndexCold, AnalyzeCli, SweepTheta)}
