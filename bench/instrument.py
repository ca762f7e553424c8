"""Instrumentation the benchmark wraps around the program from its own
files: a model-cost meter at the provider boundary (always on) and a span
tracer over the public functions of every module (traced runs only).

Functions are patched at every name callers look them up by (for example
``vulnreach.detector.embed`` as well as ``vulnreach.embedding.embed``);
methods are patched on their class. Everything is restored afterwards.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from pathlib import Path
from typing import Any, Callable

from vulnreach.embedding import ReferenceEncoder
from vulnreach.gateway import REPROMPT_SUFFIX, ChatGateway, ScriptedChatProvider
from vulnreach.model import MatchedBy
from vulnreach.tokenizer import DEFAULT_TOKENIZER, LexicalTokenizer

_TRUNCATION_MARK = "// [context truncated:"
_COUNT = LexicalTokenizer.count  # the unpatched token counter


class Patcher:
    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        # vars() keeps a classmethod object intact; __defaults__ is not in vars().
        old = vars(owner)[attr] if attr in vars(owner) else getattr(owner, attr)
        self._undo.append((owner, attr, old))
        setattr(owner, attr, value)

    def function(self, module: Any, name: str, wrap: Callable) -> None:
        """Replace a module-level function at every vulnreach module that
        binds it."""
        original = getattr(module, name)
        wrapper = wrap(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "vulnreach" or mod_name.startswith("vulnreach."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self.replace(mod, attr, wrapper)

    def method(self, cls: type, name: str, wrap: Callable) -> None:
        raw = vars(cls)[name]
        if isinstance(raw, classmethod):
            self.replace(cls, name, classmethod(wrap(raw.__func__)))
        else:
            self.replace(cls, name, wrap(raw))

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class ModelMeter:
    """Counts every call into the model providers (chat completions and
    embedding batches) with the text sent. Tokens are counted in take(),
    outside the timed invocations. Transcripts cannot stand in for this:
    run_benchmark names them <project>__<vuln>.jsonl, without theta, so a
    sweep keeps only the last setting's."""

    def __init__(self) -> None:
        self.prompts: list[tuple[str, str]] = []
        self.batches: list[list[str]] = []
        self._patcher = Patcher()

    def install(self) -> None:
        meter = self

        def wrap_complete(fn):
            @functools.wraps(fn)
            def complete(provider, prompt, role):
                meter.prompts.append((role.value, prompt))
                return fn(provider, prompt, role)

            return complete

        def wrap_encode(fn):
            @functools.wraps(fn)
            def encode_batch(encoder, texts):
                meter.batches.append(texts)
                return fn(encoder, texts)

            return encode_batch

        self._patcher.method(ScriptedChatProvider, "complete", wrap_complete)
        self._patcher.method(ReferenceEncoder, "encode_batch", wrap_encode)

    def uninstall(self) -> None:
        self._patcher.restore()

    def take(self) -> dict[str, int]:
        """Counts since the previous take()."""
        chat_tokens = sum(_COUNT(DEFAULT_TOKENIZER, p) for _, p in self.prompts)
        embed_tokens = sum(_COUNT(DEFAULT_TOKENIZER, t) for batch in self.batches for t in batch)
        counts = {
            "model_calls": len(self.prompts) + len(self.batches),
            "prompt_tokens": chat_tokens + embed_tokens,
            "chat_calls": len(self.prompts),
            "chat_tokens": chat_tokens,
            "embed_batches": len(self.batches),
            "embed_texts": sum(len(b) for b in self.batches),
            "embed_tokens": embed_tokens,
        }
        self.prompts, self.batches = [], []
        return counts


# Every traced function: (self-time bucket, module, qualified name). The
# buckets partition all spans, so per operation they add up to its wall time.
TRACED = [
    ("javaparse.lex_s", "javaparse", "lex"),
    ("javaparse.parse_s", "javaparse", "parse_source"),
    ("tokenizer.count_s", "tokenizer", "LexicalTokenizer.count"),
    ("segmenter.self_s", "segmenter", "segment_project"),
    ("segmenter.self_s", "segmenter", "segment_unit"),
    ("embedding.embed_s", "embedding", "embed"),
    ("embedding.embed_s", "embedding", "ReferenceEncoder.encode_batch"),
    ("model.vector_build_s", "model", "EmbeddingVector.normalized"),
    ("model.dot_s", "model", "EmbeddingVector.dot"),
    ("store.open_s", "store", "VectorStore.open"),
    ("store.save_s", "store", "VectorStore.save"),
    ("store.insert_s", "store", "VectorStore.insert"),
    ("store.search_s", "store", "VectorStore.search"),
    ("store.get_s", "store", "VectorStore.get"),
    ("gateway.self_s", "gateway", "ChatGateway.grade_invocation"),
    ("gateway.self_s", "gateway", "ChatGateway.reflection_query"),
    ("gateway.self_s", "gateway", "ChatGateway.code_inference"),
    ("gateway.self_s", "gateway", "ChatGateway.judge_reachability"),
    ("gateway.transcript_s", "gateway", "Transcript.append"),
    ("gateway.provider_s", "gateway", "ScriptedChatProvider.complete"),
    ("detector.self_s", "detector", "identify_candidates"),
    ("detector.self_s", "detector", "complete_context"),
    ("detector.self_s", "detector", "analyze"),
    ("evalharness.build_index_s", "evalharness", "build_index"),
    ("evalharness.digest_s", "evalharness", "corpus_digest"),
    ("evalharness.self_s", "evalharness", "run_benchmark"),
    ("evalharness.self_s", "evalharness", "run_theta_sweep"),
    ("cli.self_s", "cli", "main"),
    ("cli.self_s", "cli", "cmd_index"),
    ("cli.self_s", "cli", "cmd_analyze"),
    ("cli.self_s", "cli", "cmd_evaluate"),
]
BUCKET = {f"{module}.{qualname}": bucket for bucket, module, qualname in TRACED}


def _save_bytes(store) -> int:
    path = Path(store.path)
    return path.stat().st_size + path.with_name(path.name + ".meta.json").stat().st_size


# What each span keeps of its call, for counts computed after the run.
# Each takes (args, result) and must be cheap: its time lands in the caller's span.
_OBSERVE: dict[str, Callable[[tuple, Any], Any]] = {
    "javaparse.parse_source": lambda a, r: (len(a[1]), r),
    "tokenizer.LexicalTokenizer.count": lambda a, r: len(a[1]),
    "segmenter.segment_project": lambda a, r: r,
    "embedding.embed": lambda a, r: a[1],
    "store.VectorStore.search": lambda a, r: (a[0].count(), len(r)),
    "store.VectorStore.save": lambda a, r: _save_bytes(a[0]),
    "gateway.ChatGateway.grade_invocation": lambda a, r: r,
    "gateway.ScriptedChatProvider.complete": lambda a, r: (a[2].value, a[1]),
    "detector.identify_candidates": lambda a, r: len(r),
    "detector.complete_context": lambda a, r: (
        a[3].matched_by is MatchedBy.CONTEXT_RETRIEVAL,
        r.termination_reason.value,
        r.search_calls,
    ),
    "evalharness.run_benchmark": lambda a, r: sum(
        row["prediction"] == "failed" for row in r["projects"]
    ),
}

# Span fields: name, start, end, parent index, operation id, observation.
NAME, START, END, PARENT, OP, INFO = range(6)


class Tracer:
    """Records one span per call of every TRACED function, in memory.

    Each span belongs to an operation: one CLI invocation, except that in
    the evaluation harness every (theta, project) evaluation is its own
    operation, from its build_index call to the end of its analyses.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._invocation = ""
        self._op = ""
        self._recording = False
        self._patcher = Patcher()

    @contextlib.contextmanager
    def operation(self, op: str):
        """Record spans only inside this block, as parts of operation ``op``."""
        self._invocation = self._op = op
        self._recording = True
        try:
            yield
        finally:
            self._recording = False

    def install(self) -> None:
        for _, module_name, qualname in TRACED:
            module = importlib.import_module(f"vulnreach.{module_name}")
            name = f"{module_name}.{qualname}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                self._patcher.method(getattr(module, cls_name), attr, self._wrapper(name))
            else:
                self._patcher.function(module, qualname, self._wrapper(name))
        # The gateway's default token counter is a bound method captured when
        # the class was defined; rebind it so packing is traced too.
        defaults = ChatGateway.__init__.__defaults__
        self._patcher.replace(
            ChatGateway.__init__,
            "__defaults__",
            tuple(DEFAULT_TOKENIZER.count if _is_count(d) else d for d in defaults),
        )

    def uninstall(self) -> None:
        self._patcher.restore()

    def _wrapper(self, name: str) -> Callable:
        tracer = self
        observe = _OBSERVE.get(name)
        opens_op = name == "evalharness.build_index"
        closes_op = name == "evalharness.run_benchmark"
        clock = time.perf_counter

        def wrap(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                if not tracer._recording:
                    return fn(*args, **kwargs)
                if opens_op:
                    tracer._op = f"theta={args[1].theta}:{Path(args[0]).name}"
                span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, tracer._op, None]
                tracer._stack.append(len(tracer.spans))
                tracer.spans.append(span)
                span[START] = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[END] = clock()
                    tracer._stack.pop()
                    if closes_op:
                        tracer._op = tracer._invocation
                if observe is not None:
                    span[INFO] = observe(args, result)
                return result

            return traced

        return wrap

    def take(self) -> list[list]:
        spans, self.spans = self.spans, []
        return spans


def _is_count(value: Any) -> bool:
    return getattr(value, "__func__", None) is _COUNT


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _repeat_share(items: list[str]) -> float:
    seen: set[str] = set()
    repeats = 0
    for item in items:
        if item in seen:
            repeats += 1
        else:
            seen.add(item)
    return _ratio(repeats, len(items))


def _error_nodes(nodes) -> int:
    return sum((n.kind == "error") + _error_nodes(n.members) for n in nodes)


def layer_metrics(spans: list[list], speed: float = 1.0) -> tuple[dict[str, float], dict[str, Any]]:
    """Per-layer metrics of one traced pass, and a check that, for every
    operation, the self times of its spans add up to its traced wall time.
    Layer times are scaled by ``speed``, the pass's normalized time over its
    wall time (see reference.py); the check is on wall time."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    m: dict[str, float] = {bucket: 0.0 for bucket, _, _ in TRACED}
    op_self: dict[str, float] = {}
    op_wall: dict[str, float] = {}
    by_name: dict[str, list[list]] = {}
    builds_by_harness: list[int] = []
    has_segment_child: set[int] = set()
    for idx, span in enumerate(spans):
        duration = span[END] - span[START]
        self_time = duration - child_time[idx]
        m[BUCKET[span[NAME]]] += self_time * speed
        op = span[OP]
        op_self[op] = op_self.get(op, 0.0) + self_time
        parent = span[PARENT]
        if parent < 0 or spans[parent][OP] != op:
            # A span that starts an operation inside another one moves its
            # time from the enclosing operation to its own.
            op_wall[op] = op_wall.get(op, 0.0) + duration
            if parent >= 0:
                outer = spans[parent][OP]
                op_wall[outer] = op_wall.get(outer, 0.0) - duration
        by_name.setdefault(span[NAME], []).append(span)
        if span[NAME] == "segmenter.segment_project" and parent >= 0:
            has_segment_child.add(parent)
        elif span[NAME] == "evalharness.build_index":
            builds_by_harness.append(idx)

    def infos(name: str) -> list:
        return [s[INFO] for s in by_name.get(name, [])]

    def calls(name: str) -> int:
        return len(by_name.get(name, []))

    parsed = infos("javaparse.parse_source")
    m["javaparse.files"] = len(parsed)
    m["javaparse.source_chars"] = sum(chars for chars, _ in parsed)
    m["javaparse.error_nodes"] = sum(_error_nodes(units[0].nodes) for _, units in parsed)
    m["tokenizer.calls"] = calls("tokenizer.LexicalTokenizer.count")
    m["tokenizer.chars"] = sum(infos("tokenizer.LexicalTokenizer.count"))
    m["tokenizer.chars_ratio"] = _ratio(m["tokenizer.chars"], m["javaparse.source_chars"])
    blocks = [b for result in infos("segmenter.segment_project") for b in result]
    m["segmenter.blocks"] = len(blocks)
    m["segmenter.oversize_blocks"] = sum(b.oversize for b in blocks)
    texts = [t for batch in infos("embedding.embed") for t in batch]
    m["embedding.texts"] = len(texts)
    m["embedding.chars"] = sum(len(t) for t in texts)
    m["embedding.repeat_text_share"] = _repeat_share(texts)
    m["model.vectors_built"] = calls("model.EmbeddingVector.normalized")
    m["model.dots"] = calls("model.EmbeddingVector.dot")
    searches = infos("store.VectorStore.search")
    m["store.opens"] = calls("store.VectorStore.open")
    m["store.searches"] = len(searches)
    m["store.rows_scanned"] = sum(rows for rows, _ in searches)
    m["store.hits_returned"] = sum(hits for _, hits in searches)
    m["store.gets"] = calls("store.VectorStore.get")
    m["store.inserts"] = calls("store.VectorStore.insert")
    m["store.saves"] = calls("store.VectorStore.save")
    m["store.bytes_written"] = sum(infos("store.VectorStore.save"))
    # A harness build that segments missed the index cache.
    misses = sum(idx in has_segment_child for idx in builds_by_harness)
    m["store.builds"] = calls("cli.cmd_index") + misses
    m["store.saves_per_build"] = _ratio(m["store.saves"], m["store.builds"])
    prompts = infos("gateway.ScriptedChatProvider.complete")
    m["gateway.calls"] = len(prompts)
    for role in ("grader", "reflection", "inference", "judge"):
        m[f"gateway.calls.{role}"] = sum(r == role for r, _ in prompts)
        m[f"gateway.prompt_tokens.{role}"] = sum(
            _COUNT(DEFAULT_TOKENIZER, p) for r, p in prompts if r == role
        )
    m["gateway.reprompts"] = sum(p.endswith(REPROMPT_SUFFIX) for _, p in prompts)
    m["gateway.truncated_prompts"] = sum(_TRUNCATION_MARK in p for _, p in prompts)
    m["gateway.repeat_prompt_share"] = _repeat_share([p for _, p in prompts])
    grades = infos("gateway.ChatGateway.grade_invocation")
    m["detector.candidates_initial"] = sum(infos("detector.identify_candidates"))
    completions = infos("detector.complete_context")
    m["detector.candidates_followup"] = sum(followup for followup, _, _ in completions)
    for reason in ("ContextComplete", "NoNewBlocks", "IterationCap"):
        m[f"detector.termination.{reason}"] = sum(r == reason for _, r, _ in completions)
    m["detector.grader_yes_ratio"] = _ratio(sum(grades), len(grades))
    loop_searches = sum(n for _, _, n in completions)
    m["detector.loop_searches"] = loop_searches
    m["detector.new_block_search_ratio"] = _ratio(
        loop_searches - m["detector.termination.NoNewBlocks"], loop_searches
    )
    m["evalharness.cache_misses"] = misses
    m["evalharness.cache_hits"] = len(builds_by_harness) - misses
    m["evalharness.projects_failed"] = sum(infos("evalharness.run_benchmark"))
    residual = max((abs(op_wall[op] - op_self[op]) for op in op_wall), default=0.0)
    check = {"operations": len(op_wall), "traced_wall_s": sum(op_wall.values()), "max_residual_s": residual}
    return m, check
