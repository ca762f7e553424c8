"""Orchestration of the detection phase.

Three steps: dual-seed candidate identification (similarity prefilter plus
model-graded invocation check), context-complete retrieval (the reflection
loop), and verdict aggregation. A project is vulnerable as soon as any
candidate is judged vulnerable; it is secure only when the candidate set is
empty or every candidate is judged secure. Candidates run on the calling
thread or on ``Config.parallelism`` workers; the calling thread alone owns
the candidate pool, and a worker returns its candidate's completion and
judgment.
"""

from __future__ import annotations

from collections import deque
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
    Judgment,
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

    Each distinct seed or inferred snippet is encoded once, through
    ``memo`` (``analyze`` passes the gateway's), and each distinct (query
    text, scope) is searched once, as is each hit row's similarity to the
    seeds. A vector depends on its text alone, and one analysis searches one
    store with one config, so reuse changes no score and no hit.

    Entries are only ever added and ``setdefault`` keeps the first, so the
    workers of one analysis share the hits and the memo's vectors without a
    lock; a text two threads look up at once is simply encoded or searched
    twice. Only the calling thread reads or adds seed scores.
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
            seeds = self([*vuln.api_signatures, vuln.pov_test_source])
            *api, test = store.row_scores(seeds, missing)  # each row renormalized once
            pairs = zip(np.maximum.reduce(api).tolist(), test.tolist())
            self._similarities.update(zip([(vuln, row) for row in missing], pairs))
        return [self._similarities[vuln, row] for row in rows]


def identify_candidates(
    store: VectorStore, queries: QueryVectors, chat: ChatGateway, vuln: VulnSpec, config: Config
) -> list[Candidate]:
    """Dual-seed candidate identification.

    Every API signature and the triggering test source is embedded; the
    union of top-k hits strictly above tau for any seed passes the
    similarity prefilter, and only blocks the grader confirms to actually
    invoke the API survive. Deduplicated by block id, deterministic order.
    """
    if store.count() == 0:
        raise EmptyIndex("cannot analyze against an empty index")
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
        candidates.append(Candidate(hit.block, (hit.block,), matched_by, sim_api, sim_test))
    return candidates


def complete_context(
    store: VectorStore,
    queries: QueryVectors,
    chat: ChatGateway,
    candidate: Candidate,
    vuln: VulnSpec,
    config: Config,
) -> ContextCompletion:
    """Iteratively expand one candidate's context until the model confirms
    adequacy, retrieval stops yielding new blocks, or the iteration cap hits.

    Progress is counted in NEW blocks only: re-retrieving known context does
    not extend the loop, so termination is guaranteed on any finite store
    even without the cap.
    """
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
        extended = current.extend_context(entry.block for entry, _ in results)
        if extended is current:
            termination = TerminationReason.NO_NEW_BLOCKS
            break
        new_blocks.extend(extended.context[len(current.context) :])
        current = extended
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
    each block is judged at most once. The calling thread alone owns the
    pool: a worker returns ``(candidate, completion, (judgment, rationale))``
    and the caller records it. A provider failure on any candidate aborts
    the whole analysis (the transcript written so far survives): a
    best-effort partial verdict could silently flip vulnerable to secure.
    """
    queries = QueryVectors(encoder, chat.memo)
    pending = deque(identify_candidates(store, queries, chat, vuln, config))
    enqueued = {candidate.anchor.id for candidate in pending}
    judgments: dict[tuple[str, int, str], CandidateJudgment] = {}  # by anchor position

    def process(candidate: Candidate) -> tuple[Candidate, ContextCompletion, tuple[Judgment, str]]:
        completion = complete_context(store, queries, chat, candidate, vuln, config)
        return candidate, completion, chat.judge_reachability(completion.candidate, vuln)

    def record(
        candidate: Candidate, completion: ContextCompletion, judged: tuple[Judgment, str]
    ) -> None:
        anchor = candidate.anchor
        position = (anchor.file_path, anchor.line_start, anchor.id)
        judgments[position] = CandidateJudgment(anchor.id, *judged)
        fresh = [block for block in completion.new_blocks if block.id not in enqueued]
        enqueued.update(block.id for block in fresh)
        rows = [store.row_of(block.id) for block in fresh]
        for block, (sim_api, sim_test) in zip(fresh, queries.similarities(store, vuln, rows)):
            pending.append(Candidate(block, (block,), MatchedBy.CONTEXT_RETRIEVAL, sim_api, sim_test))

    if config.parallelism == 1:
        while pending:
            record(*process(pending.popleft()))
    else:
        from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait

        with ThreadPoolExecutor(max_workers=config.parallelism) as pool:
            in_flight = set()
            while pending or in_flight:
                while pending and len(in_flight) < config.parallelism:
                    in_flight.add(pool.submit(process, pending.popleft()))
                done, in_flight = wait(in_flight, return_when=FIRST_COMPLETED)
                for future in done:
                    record(*future.result())

    return Verdict(
        project_id,
        vuln.vuln_id,
        tuple(judgments[position] for position in sorted(judgments)),
        str(sink) if (sink := chat.transcript.sink_path) is not None else None,
    )
