"""Semantic reachability analysis for known-vulnerable library APIs in Java
source trees: AST-aware segmentation, embedding similarity search, and a
chat-model reflection loop that completes context before judging impact."""

from .detector import (
    ContextCompletion,
    TerminationReason,
    analyze,
    complete_context,
    identify_candidates,
)
from .embedding import EncoderProvider, ReferenceEncoder, embed
from .evalharness import (
    BenchmarkManifest,
    ConfusionMatrix,
    metrics,
    run_benchmark,
    run_theta_sweep,
    score,
)
from .gateway import (
    ChatGateway,
    ChatProvider,
    PromptLibrary,
    PromptTemplate,
    ReplayChatProvider,
    RoleKind,
    ScriptedChatProvider,
    Transcript,
)
from .javaparse import CompilationUnit, parse_source
from .memo import Memo, encoder_fingerprint
from .model import (
    Candidate,
    CandidateJudgment,
    CodeBlock,
    Config,
    EmbeddingVector,
    Judgment,
    MatchedBy,
    NodeKind,
    Verdict,
    VulnSpec,
)
from .segmenter import segment_project, segment_unit
from .store import ScopeFilter, StoreEntry, VectorStore
from .tokenizer import DEFAULT_TOKENIZER, LexicalTokenizer

__version__ = "0.1.0"

__all__ = [
    "analyze",
    "BenchmarkManifest",
    "Candidate",
    "CandidateJudgment",
    "ChatGateway",
    "ChatProvider",
    "CodeBlock",
    "CompilationUnit",
    "Config",
    "complete_context",
    "ConfusionMatrix",
    "ContextCompletion",
    "DEFAULT_TOKENIZER",
    "embed",
    "EmbeddingVector",
    "encoder_fingerprint",
    "EncoderProvider",
    "identify_candidates",
    "Judgment",
    "LexicalTokenizer",
    "MatchedBy",
    "Memo",
    "metrics",
    "NodeKind",
    "parse_source",
    "PromptLibrary",
    "PromptTemplate",
    "ReferenceEncoder",
    "ReplayChatProvider",
    "RoleKind",
    "run_benchmark",
    "run_theta_sweep",
    "ScopeFilter",
    "score",
    "ScriptedChatProvider",
    "segment_project",
    "segment_unit",
    "StoreEntry",
    "TerminationReason",
    "Transcript",
    "VectorStore",
    "Verdict",
    "VulnSpec",
]
