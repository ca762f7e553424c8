import json

import pytest

from conftest import FIXTURES, FIXTURE_TAU, CountingEncoder, CountingProvider, encode_alone, make_block
from vulnreach import detector as detector_module
from vulnreach.detector import (
    QueryVectors,
    TerminationReason,
    analyze,
    complete_context,
    identify_candidates,
)
from vulnreach.embedding import embed
from vulnreach.errors import EmptyIndex, ProviderError
from vulnreach.gateway import ChatGateway, RoleKind, ScriptedChatProvider, Transcript
from vulnreach.memo import Memo
from vulnreach.model import (
    Candidate,
    Config,
    EmbeddingVector,
    Judgment,
    MatchedBy,
    NodeKind,
    VulnSpec,
)
from vulnreach.store import StoreEntry, VectorStore

CFG = Config(tau=FIXTURE_TAU, top_k=10, max_iterations=5)


def fixture_gateway() -> ChatGateway:
    return ChatGateway(
        ScriptedChatProvider.from_file(FIXTURES / "chat_script.json"), transcript=Transcript()
    )


def axis(i: int, dims: int = 8) -> EmbeddingVector:
    values = [0.0] * dims
    values[i] = 1.0
    return EmbeddingVector(dims=dims, values=tuple(values))


class FakeEncoder:
    """Maps exact texts to fixed vectors; everything else goes to a far-away
    default axis. Gives tests exact control over retrieval geometry."""

    def __init__(self, mapping: dict[str, EmbeddingVector], dims: int = 8):
        self.name = "fake"
        self.dims = dims
        self.batch_limit = 64
        self.mapping = mapping

    def encode_batch(self, texts):
        return [list(self.mapping.get(t, axis(self.dims - 1, self.dims)).values) for t in texts]


def synthetic_store(vectors: list[EmbeddingVector], sources: list[str] | None = None):
    store = VectorStore(vectors[0].dims)
    entries = []
    for i, vec in enumerate(vectors):
        src = (sources[i] if sources else f"void block{i}() {{ work({i}); }}\n")
        entries.append(
            StoreEntry(
                make_block(
                    file_path=f"src/S{i}.java",
                    line_start=1,
                    line_end=1,
                    source=src,
                    node_kind=NodeKind.METHOD_DECLARATION,
                    enclosing_class=f"S{i}",
                    enclosing_method=f"block{i}",
                    size=8,
                ),
                vec,
            )
        )
    store.insert(entries)
    return store, entries


class TestIdentifyCandidates:
    def test_matches_brute_force_filter_oracle(self, guarded_store, encoder, vuln):
        candidates = identify_candidates(
            guarded_store, QueryVectors(encoder, Memo()), fixture_gateway(), vuln, CFG
        )

        # Oracle: recompute Eq.-style dual-seed filtering directly from the
        # store contents with independently computed similarities.
        api_vecs = [encode_alone(s, encoder.dims) for s in vuln.api_signatures]
        test_vec = encode_alone(vuln.pov_test_source, encoder.dims)
        per_seed_hits: set[str] = set()
        entries = list(guarded_store.entries())
        for seed in [*api_vecs, test_vec]:
            scored = sorted(
                ((e.vector.dot(seed), e.block) for e in entries),
                key=lambda it: (-it[0], it[1].file_path, it[1].line_start),
            )
            kept = [b.id for s, b in scored if s > CFG.tau][: CFG.top_k]
            per_seed_hits.update(kept)
        expected_ids = {
            bid
            for bid in per_seed_hits
            # F2: the scripted grader approves only blocks that call the API
            if ".encode(" in next(e.block.source for e in entries if e.block.id == bid)
        }
        assert {c.anchor.id for c in candidates} == expected_ids
        assert len(candidates) == 1
        anchor = candidates[0]
        assert anchor.anchor.enclosing_method == "hashPassword"
        # similarity metadata matches the independent computation
        entry = guarded_store.get(anchor.anchor.id)
        assert anchor.similarity_api == pytest.approx(
            max(entry.vector.dot(v) for v in api_vecs), abs=1e-9
        )
        assert anchor.similarity_test == pytest.approx(entry.vector.dot(test_vec), abs=1e-9)
        expected_matched = (
            MatchedBy.BOTH
            if anchor.similarity_api > CFG.tau and anchor.similarity_test > CFG.tau
            else MatchedBy.API_SIMILARITY
            if anchor.similarity_api > CFG.tau
            else MatchedBy.TEST_SIMILARITY
        )
        assert anchor.matched_by is expected_matched

    def test_tau_one_yields_no_candidates(self, guarded_store, encoder, vuln):
        cfg = Config(tau=1.0, top_k=10, max_iterations=5)
        assert identify_candidates(
            guarded_store, QueryVectors(encoder, Memo()), fixture_gateway(), vuln, cfg
        ) == []

    def test_grader_always_no_dominates_similarity(self, guarded_store, encoder, vuln):
        gw = ChatGateway(
            ScriptedChatProvider(defaults={RoleKind.GRADER: '{"answer": "no"}'}),
            transcript=Transcript(),
        )
        assert identify_candidates(
            guarded_store, QueryVectors(encoder, Memo()), gw, vuln, CFG
        ) == []

    def test_f2_soundness_no_denied_block_survives(self, unguarded_store, encoder, vuln):
        candidates = identify_candidates(
            unguarded_store, QueryVectors(encoder, Memo()), fixture_gateway(), vuln, CFG
        )
        assert candidates, "fixture must produce at least one candidate"
        assert all(".encode(" in c.anchor.source for c in candidates)

    def test_empty_index_raises(self, encoder, vuln):
        with pytest.raises(EmptyIndex):
            identify_candidates(
                VectorStore(encoder.dims), QueryVectors(encoder, Memo()), fixture_gateway(), vuln, CFG
            )

    def test_candidates_deduplicated_and_ordered(self, guarded_store, encoder, vuln):
        candidates = identify_candidates(
            guarded_store, QueryVectors(encoder, Memo()), fixture_gateway(), vuln, CFG
        )
        keys = [(c.anchor.file_path, c.anchor.line_start, c.anchor.id) for c in candidates]
        assert keys == sorted(keys)
        assert len({c.anchor.id for c in candidates}) == len(candidates)


class TestCompleteContext:
    def _candidate(self, block) -> Candidate:
        return Candidate(block, (block,), MatchedBy.BOTH, 0.5, 0.5)

    def test_two_step_reflection_grows_context_and_completes(self, guarded_store, encoder, vuln):
        anchor = identify_candidates(
            guarded_store, QueryVectors(encoder, Memo()), fixture_gateway(), vuln, CFG
        )[0]
        provider = ScriptedChatProvider(
            sequences={
                RoleKind.REFLECTION: [
                    '{"complete": false, "reason": "need the definition of getNewPassword"}',
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
        completion = complete_context(
            guarded_store, QueryVectors(encoder, Memo()), gw, anchor, vuln, CFG
        )
        assert completion.termination_reason is TerminationReason.CONTEXT_COMPLETE
        assert completion.reflection_calls == 2
        assert completion.inference_calls == 1
        assert completion.search_calls == 1
        assert len(anchor.context) == 1 and len(completion.candidate.context) == 2
        assert [b.enclosing_method for b in completion.new_blocks] == ["getNewPassword"]
        # retrieved blocks honor the structural scope constraint
        assert completion.candidate.context[1].enclosing_class == "ChangeRequest"

    def test_immediately_complete_context_stays_anchor_only(self, guarded_store, encoder, vuln):
        anchor = identify_candidates(
            guarded_store, QueryVectors(encoder, Memo()), fixture_gateway(), vuln, CFG
        )[0]
        gw = ChatGateway(
            ScriptedChatProvider(defaults={RoleKind.REFLECTION: '{"complete": true, "reason": ""}'}),
            transcript=Transcript(),
        )
        completion = complete_context(
            guarded_store, QueryVectors(encoder, Memo()), gw, anchor, vuln, CFG
        )
        assert completion.termination_reason is TerminationReason.CONTEXT_COMPLETE
        assert (completion.reflection_calls, completion.inference_calls, completion.search_calls) == (1, 0, 0)
        assert completion.candidate.context == anchor.context

    def test_unretrievable_snippet_terminates_no_new_blocks(self, guarded_store, encoder, vuln):
        anchor = identify_candidates(
            guarded_store, QueryVectors(encoder, Memo()), fixture_gateway(), vuln, CFG
        )[0]
        gw = ChatGateway(
            ScriptedChatProvider(
                defaults={
                    RoleKind.REFLECTION: '{"complete": false, "reason": "always unhappy"}',
                    RoleKind.INFERENCE: '{"missing_snippet": "zzz qqq entirely unrelated wombat", "scope": {"class_name": "NoSuchClass"}}',
                }
            ),
            transcript=Transcript(),
        )
        completion = complete_context(
            guarded_store, QueryVectors(encoder, Memo()), gw, anchor, vuln, CFG
        )
        assert completion.termination_reason is TerminationReason.NO_NEW_BLOCKS
        assert (completion.reflection_calls, completion.inference_calls, completion.search_calls) == (1, 1, 1)
        assert completion.new_blocks == ()

    def test_iteration_cap_bounds_reflection_calls(self, vuln):
        snippets = [f"snippet-{i}" for i in range(4)]
        mapping = {s: axis(i + 1) for i, s in enumerate(snippets)}
        encoder = FakeEncoder(mapping)
        store, entries = synthetic_store([axis(0), axis(1), axis(2), axis(3), axis(4)])
        provider = ScriptedChatProvider(
            sequences={
                RoleKind.INFERENCE: [
                    json.dumps({"missing_snippet": s, "scope": {}}) for s in snippets
                ]
            },
            defaults={RoleKind.REFLECTION: '{"complete": false, "reason": "never enough"}'},
        )
        gw = ChatGateway(provider, transcript=Transcript())
        cfg = Config(tau=0.5, top_k=10, max_iterations=5)
        completion = complete_context(
            store, QueryVectors(encoder, Memo()), gw, self._candidate(entries[0].block), vuln, cfg
        )
        assert completion.termination_reason is TerminationReason.ITERATION_CAP
        assert completion.reflection_calls == cfg.max_iterations
        assert (completion.inference_calls, completion.search_calls) == (4, 4)
        assert len(completion.candidate.context) == 5  # anchor + one new block per search

    def test_cap_of_one_means_single_reflection(self, vuln):
        encoder = FakeEncoder({})
        store, entries = synthetic_store([axis(0)])
        gw = ChatGateway(
            ScriptedChatProvider(
                defaults={RoleKind.REFLECTION: '{"complete": false, "reason": "more"}'}
            ),
            transcript=Transcript(),
        )
        cfg = Config(tau=0.5, top_k=10, max_iterations=1)
        completion = complete_context(
            store, QueryVectors(encoder, Memo()), gw, self._candidate(entries[0].block), vuln, cfg
        )
        assert completion.termination_reason is TerminationReason.ITERATION_CAP
        assert completion.reflection_calls == 1
        assert completion.inference_calls == 0


class TestAnalyze:
    def test_no_candidates_is_secure_with_empty_list(self, encoder, vuln):
        from conftest import build_fixture_store

        store = build_fixture_store("plain_app", encoder)
        verdict = analyze(store, encoder, fixture_gateway(), vuln, CFG, "plain_app")
        assert verdict.project_judgment is Judgment.SECURE
        assert verdict.per_candidate == ()

    def test_any_vulnerable_candidate_flips_project(self, vuln):
        api_vec = axis(0)
        encoder = FakeEncoder({s: api_vec for s in vuln.api_signatures} | {vuln.pov_test_source: axis(1)})
        store, entries = synthetic_store([api_vec, api_vec, api_vec])
        provider = ScriptedChatProvider(
            sequences={
                RoleKind.JUDGE: [
                    '{"judgment": "secure", "rationale": "first is guarded"}',
                    '{"judgment": "vulnerable", "rationale": "second is exposed"}',
                    '{"judgment": "secure", "rationale": "third is guarded"}',
                ]
            },
            defaults={
                RoleKind.GRADER: '{"answer": "yes"}',
                RoleKind.REFLECTION: '{"complete": true, "reason": ""}',
            },
        )
        gw = ChatGateway(provider, transcript=Transcript())
        cfg = Config(tau=0.5, top_k=10, max_iterations=5)
        verdict = analyze(store, encoder, gw, vuln, cfg, "proj")
        assert [c.judgment for c in verdict.per_candidate] == [
            Judgment.SECURE,
            Judgment.VULNERABLE,
            Judgment.SECURE,
        ]
        assert verdict.project_judgment is Judgment.VULNERABLE

    def test_mid_run_candidates_from_retrieval_are_judged_once(self, guarded_store, encoder, vuln):
        provider = ScriptedChatProvider(
            sequences={
                RoleKind.REFLECTION: [
                    '{"complete": false, "reason": "need the definition of getNewPassword"}',
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
            },
            rules=[
                (RoleKind.GRADER, ".encode(", '{"answer": "yes"}'),
                (
                    RoleKind.JUDGE,
                    "== null",
                    '{"judgment": "secure", "rationale": "guarded by a null check"}',
                ),
            ],
            defaults={
                RoleKind.GRADER: '{"answer": "no"}',
                RoleKind.REFLECTION: '{"complete": true, "reason": ""}',
                RoleKind.JUDGE: '{"judgment": "vulnerable", "rationale": "no visible guard"}',
            },
        )
        gw = ChatGateway(provider, transcript=Transcript())
        verdict = analyze(guarded_store, encoder, gw, vuln, CFG, "guarded_app")
        # the retrieved getNewPassword block became a candidate of its own
        assert len(verdict.per_candidate) == 2
        initial = identify_candidates(
            guarded_store, QueryVectors(encoder, Memo()), fixture_gateway(), vuln, CFG
        )
        initial_ids = {c.anchor.id for c in initial}
        extra = [c for c in verdict.per_candidate if c.candidate_id not in initial_ids]
        assert len(extra) == 1
        judged_ids = [c.candidate_id for c in verdict.per_candidate]
        assert len(set(judged_ids)) == len(judged_ids)  # judged at most once

    def test_guarded_fixture_secure_unguarded_vulnerable(self, guarded_store, unguarded_store, encoder, vuln):
        secure = analyze(guarded_store, encoder, fixture_gateway(), vuln, CFG, "guarded")
        vulnerable = analyze(unguarded_store, encoder, fixture_gateway(), vuln, CFG, "unguarded")
        assert secure.project_judgment is Judgment.SECURE
        assert vulnerable.project_judgment is Judgment.VULNERABLE
        assert all(c.rationale for c in secure.per_candidate + vulnerable.per_candidate)

    def test_deterministic_verdicts_across_runs(self, guarded_store, encoder, vuln):
        first = analyze(guarded_store, encoder, fixture_gateway(), vuln, CFG, "p")
        second = analyze(guarded_store, encoder, fixture_gateway(), vuln, CFG, "p")
        assert first.to_dict() == second.to_dict()

    def test_parallel_workers_reach_same_verdict(self, guarded_store, encoder, vuln):
        sequential = analyze(guarded_store, encoder, fixture_gateway(), vuln, CFG, "p")
        parallel_cfg = Config(
            tau=CFG.tau, top_k=CFG.top_k, max_iterations=CFG.max_iterations, parallelism=3
        )
        parallel = analyze(guarded_store, encoder, fixture_gateway(), vuln, parallel_cfg, "p")
        assert parallel.to_dict() == sequential.to_dict()

    def test_provider_failure_aborts_loudly_with_partial_transcript(self, unguarded_store, encoder, vuln):
        # grader script runs dry after the first call: fail, never guess
        provider = ScriptedChatProvider(sequences={RoleKind.GRADER: ['{"answer": "yes"}']})
        gw = ChatGateway(provider, transcript=Transcript())
        with pytest.raises(ProviderError):
            analyze(unguarded_store, encoder, gw, vuln, CFG, "p")
        assert len(gw.transcript.entries) >= 1

    def test_empty_index_raises(self, encoder, vuln):
        with pytest.raises(EmptyIndex):
            analyze(VectorStore(encoder.dims), encoder, fixture_gateway(), vuln, CFG, "p")


class TestQueryVectors:
    @pytest.mark.parametrize("shared", [True, False], ids=["one-memo", "fresh-memos"])
    def test_a_second_analysis_through_the_same_memo_sends_nothing(
        self, unguarded_store, encoder, vuln, shared
    ):
        counting = CountingEncoder(encoder.dims)
        chat = CountingProvider.from_file(FIXTURES / "chat_script.json")
        memos = [Memo()] * 2 if shared else [Memo(), Memo()]
        verdicts, sent = [], []
        for memo in memos:
            gw = ChatGateway(chat, transcript=Transcript(), memo=memo)
            verdicts.append(analyze(unguarded_store, counting, gw, vuln, CFG, "p").to_dict())
            sent.append((len(counting.texts), len(chat.asked)))
            counting.texts.clear()
            chat.asked.clear()
        assert verdicts[0] == verdicts[1]
        assert sent[0][0] > 0 and sent[0][1] > 0
        assert sent[1] == ((0, 0) if shared else sent[0])

    def test_each_seed_text_is_encoded_once_per_analysis(self, unguarded_store, encoder, vuln):
        counting = CountingEncoder(encoder.dims)
        seeds = [*vuln.api_signatures, vuln.pov_test_source]
        expected = analyze(unguarded_store, encoder, fixture_gateway(), vuln, CFG, "p")
        for runs in (1, 2):
            verdict = analyze(unguarded_store, counting, fixture_gateway(), vuln, CFG, "p")
            assert verdict.to_dict() == expected.to_dict()
            assert [counting.texts.count(seed) for seed in seeds] == [runs] * len(seeds)

    def test_repeated_inferred_snippets_are_encoded_once(self, guarded_store, encoder, vuln):
        counting = CountingEncoder(encoder.dims)
        provider = ScriptedChatProvider(
            rules=[(RoleKind.GRADER, ".encode(", '{"answer": "yes"}')],
            defaults={
                RoleKind.GRADER: '{"answer": "no"}',
                RoleKind.REFLECTION: '{"complete": false, "reason": "need the caller"}',
                RoleKind.INFERENCE: json.dumps(
                    {"missing_snippet": "public String getNewPassword()", "scope": {}}
                ),
                RoleKind.JUDGE: '{"judgment": "secure", "rationale": "guarded"}',
            },
        )
        gw = ChatGateway(provider, transcript=Transcript())
        analyze(guarded_store, counting, gw, vuln, CFG, "p")
        inferences = sum(e.role_kind is RoleKind.INFERENCE for e in gw.transcript.entries)
        assert inferences > 1
        assert len(counting.texts) == len(set(counting.texts))

    def test_vectors_match_encoding_each_text_alone(self, encoder):
        queries = QueryVectors(encoder, Memo())
        texts = ["int a = b;", "encoder.encode(raw)", "int a = b;"]
        got = queries(texts)
        assert got[0] is got[2]
        assert [v.values.tolist() for v in got] == [
            encode_alone(t, encoder.dims).values.tolist() for t in texts
        ]


class CountingStore:
    """Passes every call through to a store and records each search as
    (query vector bytes, scope)."""

    def __init__(self, store: VectorStore):
        self.store = store
        self.searches: list[tuple[bytes, object]] = []

    def __getattr__(self, name):
        return getattr(self.store, name)

    def search(self, query, k, tau, scope):
        self.searches.append((query.values.tobytes(), scope))
        return self.store.search(query, k, tau, scope)


class TestSearchMemo:
    @staticmethod
    def looping_gateway() -> ChatGateway:
        # Every reflection asks for more and every inference names one of two
        # snippets, so candidates repeat the same (snippet, scope) searches.
        provider = ScriptedChatProvider(
            rules=[(RoleKind.GRADER, ".encode(", '{"answer": "yes"}')],
            defaults={
                RoleKind.GRADER: '{"answer": "no"}',
                RoleKind.REFLECTION: '{"complete": false, "reason": "need the caller"}',
                RoleKind.JUDGE: '{"judgment": "secure", "rationale": "guarded"}',
            },
            sequences={
                RoleKind.INFERENCE: [
                    json.dumps({"missing_snippet": "getNewPassword()", "scope": {}}),
                    json.dumps(
                        {"missing_snippet": "getNewPassword()", "scope": {"file_glob": "*.java"}}
                    ),
                ]
                * 20
            },
        )
        return ChatGateway(provider, transcript=Transcript())

    def test_each_distinct_query_and_scope_is_searched_once(
        self, guarded_store, encoder, vuln, monkeypatch
    ):
        memo = CountingStore(guarded_store)
        verdict = analyze(memo, encoder, self.looping_gateway(), vuln, CFG, "p")
        assert len(memo.searches) == len(set(memo.searches))

        def unmemoized(self, store, text, scope, config):
            return tuple(store.search(self([text])[0], config.top_k, config.tau, scope))

        monkeypatch.setattr(QueryVectors, "search", unmemoized)
        plain = CountingStore(guarded_store)
        expected = analyze(plain, encoder, self.looping_gateway(), vuln, CFG, "p")
        assert verdict.to_dict() == expected.to_dict()
        assert set(plain.searches) == set(memo.searches)
        assert len(plain.searches) > len(memo.searches)


def yes_gateway() -> ChatGateway:
    """Grades every block as invoking the API, so every prefilter hit becomes
    a candidate."""
    return ChatGateway(
        ScriptedChatProvider(
            defaults={
                RoleKind.GRADER: '{"answer": "yes"}',
                RoleKind.REFLECTION: '{"complete": true, "reason": ""}',
                RoleKind.JUDGE: '{"judgment": "secure", "rationale": "guarded"}',
            }
        ),
        transcript=Transcript(),
    )


def seed_scores(store: VectorStore, encoder, vuln: VulnSpec) -> tuple[list, list]:
    """Every row's best API-seed score and test-seed score, as search scores rows."""
    *api_vecs, test_vec = embed(encoder, [*vuln.api_signatures, vuln.pov_test_source])
    api = [max(scores) for scores in zip(*(store.row_scores(v).tolist() for v in api_vecs))]
    return api, store.row_scores(test_vec).tolist()


class TestSeedScores:
    @pytest.mark.parametrize("tau", [0.02, 0.1, 0.2, FIXTURE_TAU, 0.5])
    def test_matched_by_agrees_with_the_scores_that_admitted_it(
        self, guarded_store, encoder, vuln, tau
    ):
        cfg = Config(tau=tau, top_k=10, max_iterations=5)
        candidates = identify_candidates(
            guarded_store, QueryVectors(encoder, Memo()), yes_gateway(), vuln, cfg
        )
        api, test = seed_scores(guarded_store, encoder, vuln)
        for candidate in candidates:
            row = guarded_store.row_of(candidate.anchor.id)
            # The very floats the filter compared with tau, not a recomputation.
            assert (candidate.similarity_api, candidate.similarity_test) == (api[row], test[row])
            api_pass, test_pass = api[row] > tau, test[row] > tau
            assert api_pass or test_pass
            assert candidate.matched_by is {
                (True, True): MatchedBy.BOTH,
                (True, False): MatchedBy.API_SIMILARITY,
                (False, True): MatchedBy.TEST_SIMILARITY,
            }[api_pass, test_pass]
        if tau == 0.02:
            assert {c.matched_by for c in candidates} >= {MatchedBy.BOTH}

    def test_retrieved_candidates_carry_their_rows_seed_scores(
        self, guarded_store, encoder, vuln, monkeypatch
    ):
        seen = []
        complete = detector_module.complete_context

        def recording(store, queries, chat, candidate, *args):
            seen.append(candidate)
            return complete(store, queries, chat, candidate, *args)

        monkeypatch.setattr(detector_module, "complete_context", recording)
        analyze(guarded_store, encoder, TestSearchMemo.looping_gateway(), vuln, CFG, "p")
        retrieved = [c for c in seen if c.matched_by is MatchedBy.CONTEXT_RETRIEVAL]
        assert retrieved
        api, test = seed_scores(guarded_store, encoder, vuln)
        for candidate in retrieved:
            row = guarded_store.row_of(candidate.anchor.id)
            assert (candidate.similarity_api, candidate.similarity_test) == (api[row], test[row])

    def test_analysis_builds_no_stored_vector_and_takes_no_dot(
        self, guarded_store, encoder, vuln, monkeypatch
    ):
        expected = analyze(guarded_store, encoder, TestSearchMemo.looping_gateway(), vuln, CFG, "p")

        def forbidden(*args, **kwargs):
            raise AssertionError("analyze read a stored vector or took a dot product")

        monkeypatch.setattr(EmbeddingVector, "dot", forbidden)
        monkeypatch.setattr(VectorStore, "get", forbidden)
        monkeypatch.setattr(VectorStore, "entries", forbidden)
        got = analyze(guarded_store, encoder, TestSearchMemo.looping_gateway(), vuln, CFG, "p")
        assert got.to_dict() == expected.to_dict()
