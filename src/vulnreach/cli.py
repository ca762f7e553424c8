"""Command-line entry point: indexing, analysis, and benchmark evaluation.

Exit codes are the machine contract: 0 success/secure, 3 vulnerable,
1 user error, 2 provider or infrastructure error. Configuration precedence
is flags > config file > defaults, and the effective configuration is
echoed into every report.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import sys
from collections import Counter
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence, TypeVar

from . import evalharness
from .detector import analyze
from .embedding import EncoderProvider, ReferenceEncoder, RemoteEncoderProvider, embed
from .errors import (
    ConfigError,
    EmptyProject,
    MalformedResponse,
    MissingPrediction,
    ProviderError,
    VulnReachError,
)
from .gateway import (
    ChatGateway,
    ChatProvider,
    PromptLibrary,
    RemoteChatProvider,
    ReplayChatProvider,
    ScriptedChatProvider,
    Transcript,
)
from .memo import Memo, encoder_fingerprint
from .model import CodeBlock, Config, EmbeddingVector, Judgment, VulnSpec
from .segmenter import segment_project
from .store import StoreEntry, VectorStore, write_json

EXIT_OK = 0
EXIT_USER_ERROR = 1
EXIT_PROVIDER_ERROR = 2
EXIT_VULNERABLE = 3

_T = TypeVar("_T")


def _load_json(path: str, what: str, parse: Callable[[Any], _T]) -> _T:
    """``parse`` of the JSON in the file at ``path``. Any failure to read or
    parse it is a ``ConfigError`` starting with ``what``, or ``parse``'s own."""
    try:
        return parse(json.loads(Path(path).read_text(encoding="utf-8")))
    except (OSError, json.JSONDecodeError, AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def load_config(args: argparse.Namespace) -> Config:
    """Defaults, overridden by the ``--config`` file, overridden by flags."""
    config = Config()
    if args.config is not None:
        config = _load_json(args.config, f"cannot read config {args.config}", Config.from_dict)
    flags = {
        name: getattr(args, name)
        for name in ("theta", "tau")
        if getattr(args, name, None) is not None
    }
    if getattr(args, "encoder", None) is not None:
        flags["encoder"] = {**config.encoder, "provider": args.encoder}
    return replace(config, **flags)


def _encoder_dims(dims: Any, least: int) -> int:
    if type(dims) is not int or dims < least:
        raise ConfigError(f"encoder dims must be an integer >= {least}, got {dims!r}")
    return dims


def _encoder_provider(spec: Mapping[str, Any]) -> EncoderProvider:
    provider = spec.get("provider", "reference")
    if provider == "reference":
        return ReferenceEncoder(dims=_encoder_dims(spec.get("dims", 256), 8))
    if provider in ("openai-compat", "remote"):
        try:
            return RemoteEncoderProvider(
                name=spec.get("name", provider),
                model_id=str(spec["model"]),
                endpoint=str(spec["endpoint"]),
                dims=_encoder_dims(spec["dims"], 1),
                api_key_env=str(spec["api_key_env"]),
                batch_limit=int(spec.get("batch_limit", 64)),
            )
        except KeyError as exc:
            raise ConfigError(f"encoder config missing key {exc}") from exc
    raise ConfigError(f"unknown encoder provider {provider!r}")


def _chat_provider(spec: Mapping[str, Any]) -> ChatProvider:
    provider = spec.get("provider")
    if provider == "scripted":
        try:
            path = spec["script_path"]
        except KeyError as exc:
            raise ConfigError("scripted chat config needs script_path") from exc
        try:
            return ScriptedChatProvider.from_file(path)
        except (OSError, json.JSONDecodeError, ValueError) as exc:
            raise ConfigError(f"cannot load chat script: {exc}") from exc
    if provider == "replay":
        try:
            path = spec["transcript_path"]
        except KeyError as exc:
            raise ConfigError("replay chat config needs transcript_path") from exc
        return ReplayChatProvider(Transcript.load(path))
    if provider in ("openai-compat", "remote"):
        try:
            return RemoteChatProvider(
                name=spec.get("name", provider),
                model_id=str(spec["model"]),
                endpoint=str(spec["endpoint"]),
                api_key_env=str(spec["api_key_env"]),
                max_output_tokens=int(spec.get("max_output_tokens", 2048)),
                context_window=int(spec.get("context_window", 100_000)),
            )
        except KeyError as exc:
            raise ConfigError(f"chat config missing key {exc}") from exc
    raise ConfigError(
        "chat provider config required (provider: scripted | replay | openai-compat)"
    )


# -- commands ----------------------------------------------------------------


def cmd_index(args: argparse.Namespace) -> int:
    config = load_config(args)
    encoder = _encoder_provider(config.encoder)
    error_blocks: list[CodeBlock] = []
    try:
        # No parse memo: each file is parsed once anyway.
        blocks = segment_project(Path(args.project), config, on_error_block=error_blocks.append)
    except EmptyProject:
        print("error: no source files found under the project root", file=sys.stderr)
        return EXIT_USER_ERROR
    # Nothing touches the disk until every block is in: a failed embedding
    # leaves no file. A project whose files hold no code gives an empty index.
    store = VectorStore.in_memory(encoder.dims)
    _insert_embedded(store, encoder, blocks)
    store.save(args.out, encoder=encoder_fingerprint(encoder), theta=config.theta)
    print(
        f"indexed {store.count()} blocks at dims {store.dims} -> {args.out}"
        f" ({len(error_blocks)} parse error region(s) kept as Other blocks)"
    )
    return EXIT_OK


def _insert_embedded(store: VectorStore, encoder: EncoderProvider, blocks: list[CodeBlock]) -> None:
    """Insert every block with the vector of its text, in block order.

    The distinct texts are embedded in first-seen order, ``batch_limit`` at a
    time, as ``Memo.embed`` sends them. The blocks a batch completes
    are inserted before the next batch is sent, and a vector is dropped once
    the last block with its text is in: beside the store's float32 rows, only
    one batch of vectors is alive, and those of texts that are still to recur.
    """
    uses = Counter(block.source for block in blocks)
    texts = list(uses)
    vectors: dict[str, EmbeddingVector] = {}
    done = 0
    limit = max(1, encoder.batch_limit)
    for start in range(0, len(texts), limit):
        batch = texts[start : start + limit]
        vectors.update(zip(batch, embed(encoder, batch)))
        end = done
        while end < len(blocks) and blocks[end].source in vectors:
            end += 1
        ready = blocks[done:end]
        store.insert([StoreEntry(block, vectors[block.source]) for block in ready])
        for block in ready:
            uses[block.source] -= 1
            if not uses[block.source]:
                del vectors[block.source]
        done = end


def cmd_analyze(args: argparse.Namespace) -> int:
    config = load_config(args)
    vuln = _load_json(args.vuln, "invalid vulnerability spec", VulnSpec.from_dict)
    store = VectorStore.open(args.index)
    encoder = _encoder_provider(config.encoder)
    configured = encoder_fingerprint(encoder)
    if store.encoder != configured:
        # Vectors of two encoders are not comparable: every score would be noise.
        raise ConfigError(
            f"index {args.index} was built by encoder {store.encoder or '(unrecorded)'},"
            f" not by the configured {configured}; re-index with this encoder or configure that one"
        )
    if store.theta is not None:
        # The blocks were cut at the index's theta, so the report names it.
        config = replace(config, theta=store.theta)
    if args.transcript:
        # Every answer comes from the replay, so the report names it.
        config = replace(config, chat={"provider": "replay", "transcript_path": args.transcript})
    chat_provider = _chat_provider(config.chat)

    report_path = Path(args.report)
    report_path.parent.mkdir(parents=True, exist_ok=True)
    transcript_path = report_path.with_name(report_path.name + ".transcript.jsonl")
    prompts = PromptLibrary.load(config.prompts_dir)
    with Transcript(sink_path=transcript_path) as transcript:
        verdict = analyze(
            store,
            encoder,
            ChatGateway(chat_provider, prompts, transcript, Memo()),
            vuln,
            config,
            project_id=args.project_id,
        )
    report = {
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "config": config.to_dict(),
        **verdict.to_dict(),
    }
    write_json(report_path, report)
    print(
        f"{verdict.project_id}: {verdict.project_judgment.value}"
        f" ({len(verdict.per_candidate)} candidate(s)) -> {args.report}"
    )
    return EXIT_VULNERABLE if verdict.project_judgment is Judgment.VULNERABLE else EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    config = load_config(args)
    out_dir = Path(args.out)  # made by the first file written under it

    if args.from_predictions:
        return _evaluate_from_predictions(args, out_dir)

    manifest = _load_manifest(args.manifest)
    memo = Memo()
    encoder = _encoder_provider(config.encoder)
    chat_provider = _chat_provider(config.chat)
    # Embeddings outlive the command, so a re-run embeds only what changed.
    cache_dir = out_dir / "cache"
    memo.load_vectors(cache_dir, encoder)
    try:
        if args.sweep_theta:
            reports = evalharness.run_theta_sweep(
                manifest, config, encoder, chat_provider, out_dir=out_dir, memo=memo
            )
            for theta, report in sorted(reports.items()):
                print(f"theta={theta}: {evalharness.format_metrics(report['metrics'])}")
        else:
            report = evalharness.run_benchmark(
                manifest, config, encoder, chat_provider, out_dir=out_dir, memo=memo
            )
            print(evalharness.render_table(report), end="")
    finally:
        memo.save_vectors(cache_dir, encoder)
    return EXIT_OK


def _load_manifest(path: str) -> evalharness.BenchmarkManifest:
    return _load_json(path, f"invalid manifest {path}", evalharness.BenchmarkManifest.from_dict)


def _predictions(raw: Any) -> evalharness.ConfusionMatrix | dict[str, Judgment]:
    """A predictions file's confusion matrix, or its judgment per project."""
    if "confusion_matrix" in raw:
        return evalharness.ConfusionMatrix.from_dict(raw["confusion_matrix"])
    if "predictions" in raw:
        return {pid: Judgment(v) for pid, v in raw["predictions"].items()}
    raise ConfigError("predictions file needs 'confusion_matrix' or 'predictions'")


def _evaluate_from_predictions(args: argparse.Namespace, out_dir: Path) -> int:
    predicted = _load_json(args.from_predictions, "invalid predictions file", _predictions)
    if isinstance(predicted, evalharness.ConfusionMatrix):
        cm = predicted
    elif not args.manifest:
        raise ConfigError("--manifest is required to score raw predictions")
    else:
        manifest = _load_manifest(args.manifest)
        try:
            cm = evalharness.score(predicted, manifest)
        except MissingPrediction as exc:
            raise ConfigError(f"cannot score predictions: {exc}") from exc
    result = {"confusion_matrix": cm.to_dict(), "metrics": evalharness.metrics(cm)}
    write_json(out_dir / "metrics.json", result)
    print(f"tp={cm.tp} fp={cm.fp} tn={cm.tn} fn={cm.fn}")
    print(evalharness.format_metrics(result["metrics"]))
    return EXIT_OK


@functools.cache
def _log_to_stderr() -> None:
    """Print the ``vulnreach`` loggers' INFO lines and above to stderr, with
    one handler however often ``main`` runs in a process."""
    logger = logging.getLogger("vulnreach")
    handler = logging.StreamHandler()
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vulnreach",
        description=(
            "Decide whether a Java source tree is actually impacted by a "
            "known-vulnerable library API."
        ),
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="log progress (INFO and above) to stderr"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_index = sub.add_parser("index", help="segment and embed a project into an index file")
    p_index.add_argument("--project", required=True, help="project root directory")
    p_index.add_argument("--out", required=True, help="index file to write")
    p_index.add_argument("--theta", type=int, default=None, help="max block size in tokens")
    p_index.add_argument("--encoder", default=None, help="encoder provider name")
    p_index.add_argument("--config", default=None, help="JSON config file")

    p_analyze = sub.add_parser("analyze", help="analyze an indexed project for one vulnerability")
    p_analyze.add_argument("--index", required=True, help="index file from `index`")
    p_analyze.add_argument("--vuln", required=True, help="vulnerability spec JSON file")
    p_analyze.add_argument("--config", default=None, help="JSON config file")
    p_analyze.add_argument("--report", required=True, help="verdict report JSON to write")
    p_analyze.add_argument("--project-id", default="project", help="project id for the report")
    p_analyze.add_argument(
        "--transcript", default=None, help="replay a recorded transcript instead of calling a provider"
    )
    p_analyze.add_argument("--tau", type=float, default=None, help="similarity threshold")

    p_eval = sub.add_parser("evaluate", help="run the benchmark harness over a manifest")
    p_eval.add_argument("--manifest", default=None, help="benchmark manifest JSON")
    p_eval.add_argument("--config", default=None, help="JSON config file")
    p_eval.add_argument("--out", required=True, help="output directory for reports")
    p_eval.add_argument(
        "--sweep-theta", action="store_true", help="run one report per segment-size setting"
    )
    p_eval.add_argument(
        "--from-predictions",
        default=None,
        help="score a predictions/confusion-matrix JSON file instead of running the pipeline",
    )
    p_eval.add_argument("--theta", type=int, default=None, help="max block size in tokens")
    p_eval.add_argument("--tau", type=float, default=None, help="similarity threshold")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.verbose:
        _log_to_stderr()
    if args.command == "evaluate" and not args.manifest and not args.from_predictions:
        print("error: evaluate needs --manifest or --from-predictions", file=sys.stderr)
        return EXIT_USER_ERROR
    # Looked up per call, not bound into the parser: that is built once per process.
    command = {"index": cmd_index, "analyze": cmd_analyze, "evaluate": cmd_evaluate}[args.command]
    try:
        return command(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER_ERROR
    except ProviderError as exc:
        print(f"error: provider failure: {exc}", file=sys.stderr)
        return EXIT_PROVIDER_ERROR
    except MalformedResponse as exc:
        # The model answered, but not in the asked form: not the user's error.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PROVIDER_ERROR
    except VulnReachError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER_ERROR


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
