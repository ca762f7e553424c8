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

import numpy as np

from .embedding import EncoderProvider
from .errors import EmptyIndex
from .gateway import ChatGateway
from .memo import Memo
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
from .store import EMPTY_SCOPE, ScopeFilter, StoreHit, VectorStore


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
    """Query vectors, search hits and seed scores for one analysis.

    Each distinct seed or inferred snippet is encoded once, through the
    gateway's memo, and each distinct (query text, scope) is searched once,
    as is each hit row's similarity to the seeds. A vector depends on its
    text alone, and one analysis searches one store with one config, so
    reuse changes no score and no hit.

    Entries are only ever added and ``setdefault`` keeps the first, so
    parallel candidates share one memo without a lock; a text two threads
    look up at once is simply encoded or searched twice.
    """

    def __init__(self, encoder: EncoderProvider, memo: Memo):
        self.encoder, self.memo = encoder, memo
        self._hits: dict[tuple[str, ScopeFilter], tuple[tuple[StoreHit, float], ...]] = {}
        self._similarities: dict[tuple[VulnSpec, int], tuple[float, float]] = {}

    def __call__(self, texts: Sequence[str]) -> list[EmbeddingVector]:
        return self.memo.embed(self.encoder, texts)

    def search(
        self, store: VectorStore, text: str, scope: ScopeFilter, config: Config
    ) -> tuple[tuple[StoreHit, float], ...]:
        key = (text, scope)
        hits = self._hits.get(key)
        if hits is None:
            found = store.search(self([text])[0], config.top_k, config.tau, scope)
            hits = self._hits.setdefault(key, tuple(found))
        return hits

    def similarities(
        self, store: VectorStore, vuln: VulnSpec, rows: Sequence[int]
    ) -> list[tuple[float, float]]:
        """Each row's (similarity_api, similarity_test): its best score for an
        API signature and its score for the test source, as search scores."""
        missing = [row for row in rows if (vuln, row) not in self._similarities]
        if missing:
            *api_vecs, test_vec = self([*vuln.api_signatures, vuln.pov_test_source])
            best_api = np.maximum.reduce([store.row_scores(v, missing) for v in api_vecs])
            pairs = zip(best_api.tolist(), store.row_scores(test_vec, missing).tolist())
            self._similarities.update(zip([(vuln, row) for row in missing], pairs))
        return [self._similarities[vuln, row] for row in rows]


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
    queries = queries or QueryVectors(encoder, chat.memo)
    seeds = [*vuln.api_signatures, vuln.pov_test_source]
    queries(seeds)  # every seed in one embedding batch
    hits: dict[str, StoreHit] = {}
    for seed in seeds:
        for hit, score in queries.search(store, seed, EMPTY_SCOPE, config):
            if score > config.tau:
                hits.setdefault(hit.block.id, hit)
    ordered = sorted(
        hits.values(), key=lambda h: (h.block.file_path, h.block.line_start, h.block.id)
    )
    similarities = queries.similarities(store, vuln, [hit.row for hit in ordered])

    grading_signature = "\n".join(vuln.api_signatures)
    candidates: list[Candidate] = []
    for hit, (sim_api, sim_test) in zip(ordered, similarities):
        # The filter above read these very scores, so one of them clears tau.
        if sim_api > config.tau:
            matched_by = MatchedBy.BOTH if sim_test > config.tau else MatchedBy.API_SIMILARITY
        else:
            matched_by = MatchedBy.TEST_SIMILARITY
        if not chat.grade_invocation(hit.block, grading_signature):
            continue
        candidates.append(Candidate.initial(hit.block, matched_by, sim_api, sim_test))
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
    queries = queries or QueryVectors(encoder, chat.memo)
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


def analyze(
    store: VectorStore,
    encoder: EncoderProvider,
    chat: ChatGateway,
    vuln: VulnSpec,
    config: Config,
    project_id: str,
) -> Verdict:
    """Full detection pass for one vulnerability against one indexed project.

    Candidates discovered mid-run by context retrieval join the work pool;
    each block is judged at most once. A provider failure on any candidate
    aborts the whole analysis (the transcript written so far survives): a
    best-effort partial verdict could silently flip vulnerable to secure.
    """
    if store.count() == 0:
        raise EmptyIndex("cannot analyze against an empty index")
    queries = QueryVectors(encoder, chat.memo)
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
            fresh = [block for block in completion.new_blocks if block.id not in enqueued]
            enqueued.update(block.id for block in fresh)
            rows = [store.row_of(block.id) for block in fresh]
            for block, (sim_api, sim_test) in zip(fresh, queries.similarities(store, vuln, rows)):
                followups.append(
                    Candidate.initial(block, MatchedBy.CONTEXT_RETRIEVAL, sim_api, sim_test)
                )
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
        transcript_path=str(sink) if (sink := chat.transcript.sink_path) is not None else None,
    )
