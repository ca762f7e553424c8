"""Acceptance suite: one test per release criterion, each printing a
pass/fail line and enforcing its runtime budget. Run with ``pytest -s
tests/test_acceptance.py`` to see the per-criterion lines."""

import json
import re
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import FIXTURES, FIXTURE_TAU, FIXTURE_THETA, write_tool_config, write_toy_manifest
from corpus import generate_corpus
from test_store import brute_force_search, random_store
from vulnreach import cli
from vulnreach.detector import QueryVectors, TerminationReason, complete_context
from vulnreach.embedding import unit_rows
from vulnreach.evalharness import ConfusionMatrix, harmonic_f1, metrics
from vulnreach.gateway import ChatGateway, RoleKind, ScriptedChatProvider, Transcript
from vulnreach.javaparse import parse_source
from vulnreach.memo import Memo
from vulnreach.model import (
    Candidate,
    CandidateJudgment,
    Config,
    Judgment,
    MatchedBy,
    NodeKind,
    Verdict,
)
from vulnreach.segmenter import segment_unit
from vulnreach.store import EMPTY_SCOPE, StoreEntry, VectorStore
from vulnreach.tokenizer import DEFAULT_TOKENIZER

THETA_GRID = (500, 1000, 1500, 2000, 2500, 3000)


class Budget:
    def __init__(self, criterion: str, seconds: float):
        self.criterion = criterion
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"{self.criterion} exceeded its {self.seconds:.0f}s budget ({elapsed:.2f}s)"
            )
            print(f"PASS {self.criterion} ({elapsed:.2f}s < {self.seconds:.0f}s)")
        else:
            print(f"FAIL {self.criterion} ({elapsed:.2f}s)")
        return False


def test_criterion_1_metrics_reproduction():
    with Budget("criterion 1: headline metrics reproduction", 1.0):
        cm = ConfusionMatrix(tp=31, fp=6, tn=7, fn=11)
        assert cm.total == 55
        m = metrics(cm)
        assert m["precision"] == pytest.approx(0.838, abs=0.0005)
        assert m["recall"] == pytest.approx(0.738, abs=0.0005)
        assert m["accuracy"] == pytest.approx(0.691, abs=0.0005)
        assert m["f1"] == pytest.approx(0.785, abs=0.0005)


def test_criterion_2_baseline_row_consistency():
    with Budget("criterion 2: baseline-row harmonic mean consistency", 1.0):
        assert harmonic_f1(0.700, 0.241) == pytest.approx(0.359, abs=0.001)
        assert harmonic_f1(0.73, 0.262) == pytest.approx(0.386, abs=0.001)


def test_criterion_3_segmentation_laws(tmp_path: Path):
    with Budget("criterion 3: segmentation laws on 50-file corpus", 30.0):
        root = tmp_path / "corpus50"
        files = generate_corpus(root, n_files=50)
        assert len(files) == 50
        for path in files:
            src = path.read_bytes().decode("utf-8", errors="replace")
            unit = parse_source(path.name, src)[0]
            unit_size = DEFAULT_TOKENIZER.count(src)
            line_total = len(src.splitlines())
            prev_count = None
            for theta in THETA_GRID:
                blocks = segment_unit(unit, Config(theta=theta))
                # line-coverage exactness
                covered = sorted(
                    ln for b in blocks for ln in range(b.line_start, b.line_end + 1)
                )
                assert covered == list(range(1, line_total + 1))
                # reassembly byte-equality
                assert "".join(b.source for b in blocks) == src
                # threshold law: single-unit-block iff below theta; flags honest
                single_unit = (
                    len(blocks) == 1 and blocks[0].node_kind == NodeKind.COMPILATION_UNIT
                )
                assert single_unit == (unit_size < theta)
                for block in blocks:
                    assert block.oversize == (block.size >= theta)
                # block-count monotonicity across the sweep grid
                if prev_count is not None:
                    assert len(blocks) <= prev_count
                prev_count = len(blocks)


def test_criterion_4_search_oracle_equivalence():
    with Budget("criterion 4: search equals brute-force scan on 200 stores", 60.0):
        rng = np.random.RandomState(20250811)
        sizes = (
            list(rng.randint(5, 200, size=170))
            + list(rng.randint(200, 2000, size=25))
            + list(rng.randint(2000, 10_000, size=5))
        )
        assert len(sizes) == 200 and max(sizes) <= 10_000
        scopes = [
            EMPTY_SCOPE,
        ]
        from vulnreach.store import ScopeFilter

        scopes += [ScopeFilter(class_name="Alpha"), ScopeFilter(file_glob="src/a/*.java")]
        for trial, n in enumerate(sizes):
            store, entries = random_store(rng, int(n), dims=64)
            query = unit_rows([rng.randn(64)])[0]
            tau = float(rng.choice([0.0, 0.1, 0.2]))
            k = int(rng.randint(1, 15))
            scope = scopes[trial % len(scopes)]
            actual = store.search(query, k=k, tau=tau, scope=scope)
            expected = brute_force_search(entries, query, k, tau, scope)
            assert [e.block.id for e, _ in actual] == [bid for bid, *_ in expected]
            for (_, score), (_, expected_score, _, _) in zip(actual, expected):
                assert score == pytest.approx(expected_score, abs=1e-9)


def _anchor_candidate(store: VectorStore) -> Candidate:
    entry = next(iter(store.entries()))
    return Candidate(entry.block, (entry.block,), MatchedBy.BOTH, 0.5, 0.5)


def test_criterion_5_reflection_loop_termination(guarded_store, encoder, vuln):
    with Budget("criterion 5: reflection-loop trace shapes and termination", 5.0):
        cfg = Config(tau=FIXTURE_TAU, top_k=10, max_iterations=5)

        # (a) the two-step scenario: context grows 1 -> 2 and the model
        # confirms adequacy on the second reflection.
        provider = ScriptedChatProvider(
            sequences={
                RoleKind.REFLECTION: [
                    '{"complete": false, "reason": "need the password accessor definition"}',
                    '{"complete": true, "reason": ""}',
                ],
                RoleKind.INFERENCE: [
                    json.dumps(
                        {
                            "missing_snippet": "public String getNewPassword()",
                            "scope": {
                                "class_name": "ChangeRequest",
                                "method_name": "getNewPassword",
                            },
                        }
                    )
                ],
            }
        )
        gw = ChatGateway(provider, transcript=Transcript())
        anchor_block = next(
            e.block for e in guarded_store.entries() if e.block.enclosing_method == "hashPassword"
        )
        anchor = Candidate(anchor_block, (anchor_block,), MatchedBy.BOTH, 0.5, 0.5)
        completion = complete_context(
            guarded_store, QueryVectors(encoder, Memo()), gw, anchor, vuln, cfg
        )
        assert completion.termination_reason is TerminationReason.CONTEXT_COMPLETE
        assert completion.reflection_calls == 2
        assert completion.inference_calls == 1
        assert completion.search_calls == 1
        assert (len(anchor.context), len(completion.candidate.context)) == (1, 2)

        # (b) nothing retrievable: first scoped search yields no new blocks.
        gw_b = ChatGateway(
            ScriptedChatProvider(
                defaults={
                    RoleKind.REFLECTION: '{"complete": false, "reason": "never satisfied"}',
                    RoleKind.INFERENCE: '{"missing_snippet": "wombat zyx unrelated", "scope": {"class_name": "NoSuchClass"}}',
                }
            ),
            transcript=Transcript(),
        )
        completion_b = complete_context(
            guarded_store, QueryVectors(encoder, Memo()), gw_b, anchor, vuln, cfg
        )
        assert completion_b.termination_reason is TerminationReason.NO_NEW_BLOCKS
        assert completion_b.reflection_calls == 1

        # (c) always-incomplete with ever-retrievable new context: the
        # iteration cap bounds reflection calls.
        snippets = {
            f"probe-{i}": f"public String get{name}()"
            for i, name in enumerate(["Username", "NewPassword", "PasswordHash"])
        }
        provider_c = ScriptedChatProvider(
            sequences={
                RoleKind.INFERENCE: [
                    json.dumps({"missing_snippet": s, "scope": {}}) for s in snippets.values()
                ]
                * 3
            },
            defaults={RoleKind.REFLECTION: '{"complete": false, "reason": "keep going"}'},
        )
        gw_c = ChatGateway(provider_c, transcript=Transcript())
        cfg_c = Config(tau=0.2, top_k=1, max_iterations=3)
        completion_c = complete_context(
            guarded_store, QueryVectors(encoder, Memo()), gw_c, anchor, vuln, cfg_c
        )
        assert completion_c.termination_reason is TerminationReason.ITERATION_CAP
        assert completion_c.reflection_calls == cfg_c.max_iterations
        assert len(completion_c.candidate.context) == 3  # one new block per search


def test_criterion_6_end_to_end_determinism(tmp_path: Path):
    with Budget("criterion 6: byte-identical evaluate runs modulo timestamps", 60.0):
        manifest = write_toy_manifest(tmp_path / "manifest.json")
        config = write_tool_config(tmp_path / "config.json")
        reports = []
        for run in ("one", "two"):
            out = tmp_path / run
            code = cli.main(
                [
                    "evaluate",
                    "--manifest", str(manifest),
                    "--config", str(config),
                    "--out", str(out),
                ]
            )
            assert code == 0
            text = (out / f"report_theta_{FIXTURE_THETA}.json").read_text(encoding="utf-8")
            reports.append(
                re.sub(r'^\s*"generated_at": "[^"]*",?\n', "", text, flags=re.MULTILINE)
            )
        assert reports[0] == reports[1]
        parsed = json.loads(reports[0])
        assert parsed["confusion_matrix"] == {"tp": 2, "fp": 0, "tn": 2, "fn": 0}


def test_criterion_7_verdict_logic_exhaustion():
    with Budget("criterion 7: verdict aggregation exhaustion (<=3 candidates)", 1.0):
        checked = 0
        for n in range(4):
            for mask in range(2**n):
                judgments = [
                    Judgment.VULNERABLE if (mask >> i) & 1 else Judgment.SECURE
                    for i in range(n)
                ]
                verdict = Verdict(
                    "p",
                    "v",
                    tuple(CandidateJudgment(f"c{i}", j, "r") for i, j in enumerate(judgments)),
                )
                if any(j is Judgment.VULNERABLE for j in judgments):
                    assert verdict.project_judgment is Judgment.VULNERABLE
                else:
                    assert verdict.project_judgment is Judgment.SECURE
                checked += 1
        assert checked == 15  # all judgment sequences up to length 3


def test_criterion_8_detection_quality_scope_note():
    # Headline detection quality depends on proprietary model behavior over a
    # large private corpus and is not reproducible at desk scale. The
    # acceptance basis for detection quality is therefore the deterministic
    # scripted-provider suite (criteria 5-7) plus the metric arithmetic
    # (criteria 1-2), not live-model accuracy. Documented in the README.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    assert "deterministic" in readme.lower()
    print("PASS criterion 8: detection-quality scope documented (scripted suite is the gate)")
