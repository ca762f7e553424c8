"""Orchestration of the detection phase.

Three steps: dual-seed candidate identification (similarity prefilter plus
model-graded invocation check), context-complete retrieval (the reflection
loop), and verdict aggregation. A project is vulnerable as soon as any
candidate is judged vulnerable; it is secure only when the candidate set is
empty or every candidate is judged secure.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .embedding import EncoderProvider
from .errors import EmptyIndex
from .gateway import ChatGateway
from .memo import memoized
from .model import (
    Candidate,
    CandidateJudgment,
    CodeBlock,
    Config,
    EmbeddingVector,
    MatchedBy,
    Verdict,
    VulnSpec,
)
from .store import EMPTY_SCOPE, ScopeFilter, StoreEntry, VectorStore


class TerminationReason(str, Enum):
    CONTEXT_COMPLETE = "ContextComplete"  # the model confirms context adequacy
    NO_NEW_BLOCKS = "NoNewBlocks"  # retrieval yielded nothing new
    ITERATION_CAP = "IterationCap"  # hard cap; recorded, not an error


@dataclass(frozen=True)
class ContextCompletion:
    """Result of the reflection loop for one candidate."""

    candidate: Candidate
    termination_reason: TerminationReason
    reflection_calls: int
    inference_calls: int
    search_calls: int
    new_blocks: tuple[CodeBlock, ...]  # feeds the global candidate pool


class QueryVectors:
    """Query vectors and search hits for one analysis.

    Each distinct seed or inferred snippet is encoded once, through the
    encoder's memo (a fresh one for a bare encoder), and each distinct
    (query text, scope) is searched once. A vector depends on its text
    alone, and one analysis searches one store with one config, so reuse
    changes no score and no hit.

    Entries are only ever added and ``setdefault`` keeps the first, so
    parallel candidates share one memo without a lock; a text two threads
    look up at once is simply encoded or searched twice.
    """

    def __init__(self, encoder: EncoderProvider):
        self.encoder = memoized(encoder)
        self._hits: dict[tuple[str, ScopeFilter], tuple[tuple[StoreEntry, float], ...]] = {}

    def __call__(self, texts: Sequence[str]) -> list[EmbeddingVector]:
        return self.encoder.embed(texts)

    def search(
        self, store: VectorStore, text: str, scope: ScopeFilter, config: Config
    ) -> tuple[tuple[StoreEntry, float], ...]:
        key = (text, scope)
        hits = self._hits.get(key)
        if hits is None:
            found = store.search(self([text])[0], config.top_k, config.tau, scope)
            hits = self._hits.setdefault(key, tuple(found))
        return hits


def _seed_vectors(queries: QueryVectors, vuln: VulnSpec):
    *api_vecs, test_vec = queries([*vuln.api_signatures, vuln.pov_test_source])
    return api_vecs, test_vec


def identify_candidates(
    store: VectorStore,
    encoder: EncoderProvider,
    chat: ChatGateway,
    vuln: VulnSpec,
    config: Config,
    queries: QueryVectors | None = None,
) -> list[Candidate]:
    """Dual-seed candidate identification.

    Every API signature and the triggering test source is embedded; the
    union of top-k hits strictly above tau for any seed passes the
    similarity prefilter, and only blocks the grader confirms to actually
    invoke the API survive. Deduplicated by block id, deterministic order.
    """
    if store.count() == 0:
        raise EmptyIndex("cannot identify candidates in an empty index")
    queries = queries or QueryVectors(encoder)
    api_vecs, test_vec = _seed_vectors(queries, vuln)

    hits: dict[str, CodeBlock] = {}
    vectors: dict[str, EmbeddingVector] = {}
    for seed in [*vuln.api_signatures, vuln.pov_test_source]:
        for entry, score in queries.search(store, seed, EMPTY_SCOPE, config):
            if score > config.tau and entry.block.id not in hits:
                hits[entry.block.id] = entry.block
                vectors[entry.block.id] = entry.vector

    grading_signature = "\n".join(vuln.api_signatures)
    candidates: list[Candidate] = []
    for block in sorted(hits.values(), key=lambda b: (b.file_path, b.line_start, b.id)):
        vec = vectors[block.id]
        sim_api = max(vec.dot(av) for av in api_vecs)
        sim_test = vec.dot(test_vec)
        api_pass = sim_api > config.tau
        test_pass = sim_test > config.tau
        if api_pass and test_pass:
            matched_by = MatchedBy.BOTH
        elif api_pass:
            matched_by = MatchedBy.API_SIMILARITY
        else:
            matched_by = MatchedBy.TEST_SIMILARITY
        if not chat.grade_invocation(block, grading_signature):
            continue
        candidates.append(Candidate.initial(block, matched_by, sim_api, sim_test))
    return candidates


def complete_context(
    store: VectorStore,
    encoder: EncoderProvider,
    chat: ChatGateway,
    candidate: Candidate,
    vuln: VulnSpec,
    config: Config,
    queries: QueryVectors | None = None,
) -> ContextCompletion:
    """Iteratively expand one candidate's context until the model confirms
    adequacy, retrieval stops yielding new blocks, or the iteration cap hits.

    Progress is counted in NEW blocks only: re-retrieving known context does
    not extend the loop, so termination is guaranteed on any finite store
    even without the cap.
    """
    queries = queries or QueryVectors(encoder)
    current = candidate
    new_blocks: list[CodeBlock] = []
    reflections = 0
    inferences = 0
    searches = 0

    complete, reason = chat.reflection_query(current.context, vuln)
    reflections += 1
    termination = TerminationReason.CONTEXT_COMPLETE
    while not complete:
        if reflections >= config.max_iterations:
            termination = TerminationReason.ITERATION_CAP
            break
        snippet, scope = chat.code_inference(current.context, vuln, reason)
        inferences += 1
        results = queries.search(store, snippet, scope, config)
        searches += 1
        known = current.context_ids()
        retrieved = [entry.block for entry, _ in results if entry.block.id not in known]
        if not retrieved:
            termination = TerminationReason.NO_NEW_BLOCKS
            break
        current = current.extend_context(retrieved)
        new_blocks.extend(retrieved)
        complete, reason = chat.reflection_query(current.context, vuln)
        reflections += 1
    return ContextCompletion(
        candidate=current,
        termination_reason=termination,
        reflection_calls=reflections,
        inference_calls=inferences,
        search_calls=searches,
        new_blocks=tuple(new_blocks),
    )


def _retrieval_candidate(
    store: VectorStore,
    api_vecs: Sequence,
    test_vec,
    block: CodeBlock,
) -> Candidate:
    entry = store.get(block.id)
    vec = entry.vector if entry is not None else None
    sim_api = max((vec.dot(av) for av in api_vecs), default=0.0) if vec is not None else 0.0
    sim_test = vec.dot(test_vec) if vec is not None else 0.0
    return Candidate.initial(block, MatchedBy.CONTEXT_RETRIEVAL, sim_api, sim_test)


def analyze(
    store: VectorStore,
    encoder: EncoderProvider,
    chat: ChatGateway,
    vuln: VulnSpec,
    config: Config,
    project_id: str,
    transcript_path: str | None = None,
) -> Verdict:
    """Full detection pass for one vulnerability against one indexed project.

    Candidates discovered mid-run by context retrieval join the work pool;
    each block is judged at most once. A provider failure on any candidate
    aborts the whole analysis (the transcript written so far survives): a
    best-effort partial verdict could silently flip vulnerable to secure.
    """
    if store.count() == 0:
        raise EmptyIndex("cannot analyze against an empty index")
    queries = QueryVectors(encoder)
    api_vecs, test_vec = _seed_vectors(queries, vuln)
    initial = identify_candidates(store, encoder, chat, vuln, config, queries)

    pending: queue.SimpleQueue[Candidate] = queue.SimpleQueue()
    enqueued: set[str] = set()
    state_lock = threading.Lock()
    judgments: dict[str, tuple[CodeBlock, CandidateJudgment]] = {}

    for candidate in initial:
        pending.put(candidate)
        enqueued.add(candidate.anchor.id)

    def process(candidate: Candidate) -> list[Candidate]:
        completion = complete_context(store, encoder, chat, candidate, vuln, config, queries)
        judgment, rationale = chat.judge_reachability(completion.candidate, vuln)
        followups = []
        with state_lock:
            judgments[candidate.anchor.id] = (
                candidate.anchor,
                CandidateJudgment(candidate.anchor.id, judgment, rationale),
            )
            for block in completion.new_blocks:
                if block.id not in enqueued:
                    enqueued.add(block.id)
                    followups.append(_retrieval_candidate(store, api_vecs, test_vec, block))
        return followups

    if config.parallelism == 1:
        while not pending.empty():
            for followup in process(pending.get()):
                pending.put(followup)
    else:
        from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait

        with ThreadPoolExecutor(max_workers=config.parallelism) as pool:
            in_flight = set()
            while not pending.empty() or in_flight:
                while not pending.empty() and len(in_flight) < config.parallelism:
                    in_flight.add(pool.submit(process, pending.get()))
                done, in_flight = wait(in_flight, return_when=FIRST_COMPLETED)
                for future in done:
                    for followup in future.result():
                        pending.put(followup)

    ordered = sorted(
        judgments.values(), key=lambda item: (item[0].file_path, item[0].line_start, item[0].id)
    )
    return Verdict.aggregate(
        project_id=project_id,
        vuln_id=vuln.vuln_id,
        per_candidate=[judgment for _, judgment in ordered],
        transcript_path=transcript_path,
    )
