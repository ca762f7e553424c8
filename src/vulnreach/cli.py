"""Command-line entry point: indexing, analysis, and benchmark evaluation.

Exit codes are the machine contract: 0 success/secure, 3 vulnerable,
1 user error, 2 a provider failure or a model reply not in the asked form.
Each failure prints one ``error:`` line to stderr. Configuration precedence
is flags > config file > defaults, and the effective configuration is
echoed into every report.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import re
import sys
import time
from collections import Counter
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, Mapping, NoReturn, Sequence, TypeVar
from urllib.parse import urlsplit

import numpy as np

from . import evalharness
from .embedding import EncoderProvider, ReferenceEncoder, RemoteEncoderProvider, embed
from .errors import ConfigError, MalformedResponse, ProviderError, VulnReachError
from .gateway import (
    ChatProvider,
    RemoteChatProvider,
    ReplayChatProvider,
    RoleKind,
    ScriptedChatProvider,
    Transcript,
)
from .memo import Memo, encoder_fingerprint
from .model import CodeBlock, Config, Judgment, VulnSpec, checked_str
from .segmenter import segment_project
from .store import VectorStore, sidecar_path, write_json

EXIT_OK = 0
EXIT_USER_ERROR = 1
EXIT_PROVIDER_ERROR = 2
EXIT_VULNERABLE = 3

_T = TypeVar("_T")
log = logging.getLogger(__name__)


def _load_json(path: str, what: str, parse: Callable[[Any], _T]) -> _T:
    """``parse`` of the JSON in the file at ``path``. Any failure to read or
    parse it, ``parse``'s own ``ConfigError`` too, is a ``ConfigError``
    starting with ``what``."""
    try:
        return parse(json.loads(Path(path).read_text(encoding="utf-8")))
    except (OSError, ValueError, AttributeError, KeyError, TypeError, ConfigError) as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def load_config(args: argparse.Namespace) -> Config:
    """Defaults, overridden by the ``--config`` file, overridden by flags.
    A theta sweep sets theta itself, so it refuses one from either."""
    sweep = getattr(args, "sweep_theta", False)

    def parse(raw: Any) -> Config:
        if sweep and isinstance(raw, Mapping) and "theta" in raw:
            raise ConfigError("--sweep-theta sets theta itself; remove theta from the config")
        return Config.from_dict(raw)

    config = Config()
    if args.config is not None:
        config = _load_json(args.config, f"cannot read config {args.config}", parse)
    if getattr(args, "theta", None) is None:
        return config
    if sweep:
        raise ConfigError("--sweep-theta sets theta itself; drop --theta")
    return replace(config, theta=args.theta)


def _checked_int(value: Any, key: str, least: int = 1) -> int:
    if type(value) is not int or value < least:
        raise ConfigError(f"{key} must be an integer >= {least}, got {value!r}")
    return value


def _checked_endpoint(value: Any, key: str) -> str:
    """``value`` if it is an absolute http:// or https:// URL of printable
    ASCII; else a ``ConfigError`` naming ``key``, before any request."""
    endpoint = checked_str(value, key)
    try:
        parts = urlsplit(endpoint)
        # A port that is not a number below 65536, or an unclosed IPv6 host, is a ValueError.
        if re.fullmatch(r"https?://[!-~]+", endpoint) and parts.hostname and parts.port != 0:
            return endpoint
    except ValueError:
        pass
    raise ConfigError(f"{key} must be an absolute http:// or https:// URL, got {endpoint!r}")


def _encoder_provider(spec: Mapping[str, Any]) -> EncoderProvider:
    provider = spec.get("provider", "reference")
    if provider == "reference":
        return ReferenceEncoder(dims=_checked_int(spec.get("dims", 256), "encoder dims", 8))
    if provider == "openai-compat":
        try:
            return RemoteEncoderProvider(
                name=checked_str(spec.get("name", provider), "encoder name"),
                model_id=checked_str(spec["model"], "encoder model"),
                endpoint=_checked_endpoint(spec["endpoint"], "encoder endpoint"),
                dims=_checked_int(spec["dims"], "encoder dims"),
                api_key_env=checked_str(spec["api_key_env"], "encoder api_key_env"),
                batch_limit=_checked_int(spec.get("batch_limit", 64), "encoder batch_limit"),
            )
        except KeyError as exc:
            raise ConfigError(f"encoder config missing key {exc}") from exc
    raise ConfigError(f"unknown encoder provider {provider!r}")


def _chat_provider(spec: Mapping[str, Any]) -> ChatProvider:
    provider = spec.get("provider")
    if provider == "scripted":
        try:
            path = checked_str(spec["script_path"], "chat script_path")
        except KeyError as exc:
            raise ConfigError("scripted chat config needs script_path") from exc
        try:
            return ScriptedChatProvider.from_file(path)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot load chat script {path}: {exc}") from exc
    if provider == "replay":
        try:
            path = checked_str(spec["transcript_path"], "chat transcript_path")
        except KeyError as exc:
            raise ConfigError("replay chat config needs transcript_path") from exc
        return ReplayChatProvider(Transcript.load(path))
    if provider == "openai-compat":
        try:
            return RemoteChatProvider(
                name=checked_str(spec.get("name", provider), "chat name"),
                model_id=checked_str(spec["model"], "chat model"),
                endpoint=_checked_endpoint(spec["endpoint"], "chat endpoint"),
                api_key_env=checked_str(spec["api_key_env"], "chat api_key_env"),
                max_output_tokens=_checked_int(
                    spec.get("max_output_tokens", 2048), "chat max_output_tokens"
                ),
                context_window=_checked_int(
                    spec.get("context_window", 100_000), "chat context_window"
                ),
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
    # No parse memo: each file is parsed once anyway.
    blocks = segment_project(Path(args.project), config, on_error_block=error_blocks.append)
    # Nothing touches the disk until every block is in: a failed embedding
    # leaves no file. A project whose files hold no code gives an empty index.
    store = VectorStore(encoder.dims)
    _insert_embedded(store, encoder, blocks)
    store.save(args.out, encoder=encoder_fingerprint(encoder), theta=config.theta)
    print(
        f"indexed {store.count()} blocks at dims {store.dims} -> {args.out}"
        f" ({len(error_blocks)} parse error region(s) kept as Other blocks)"
    )
    return EXIT_OK


def _insert_embedded(store: VectorStore, encoder: EncoderProvider, blocks: list[CodeBlock]) -> None:
    """Insert every block with the row of its text, in block order.

    The distinct texts are embedded in first-seen order, ``batch_limit`` at a
    time, as ``Memo.embed`` sends them. The blocks a batch completes are
    inserted before the next batch is sent, and a row is dropped once the
    last block with its text is in. A row keeps its whole batch array alive,
    so the rows of texts still to recur are copied out of it: beside the
    store's float32 rows, only one batch array is alive, plus those copies.
    """
    uses = Counter(block.source for block in blocks)
    texts = list(uses)
    vectors: dict[str, np.ndarray] = {}
    done = 0
    limit = max(1, encoder.batch_limit)
    for start in range(0, len(texts), limit):
        batch = texts[start : start + limit]
        vectors.update(zip(batch, embed(encoder, batch)))
        end = done
        while end < len(blocks) and blocks[end].source in vectors:
            end += 1
        ready = blocks[done:end]
        store.insert(ready, [vectors[block.source] for block in ready])
        for block in ready:
            uses[block.source] -= 1
            if not uses[block.source]:
                del vectors[block.source]
        for text in batch:
            if text in vectors:
                vectors[text] = vectors[text].copy()
        done = end


def cmd_analyze(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    config = load_config(args)
    vuln = _load_json(args.vuln, f"invalid vulnerability spec {args.vuln}", VulnSpec.from_dict)
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
    transcript_path = report_path.with_name(report_path.name + ".transcript.jsonl")
    # Every input has been read and nothing written: no output may replace an input.
    chat_files = [config.chat.get("script_path"), config.chat.get("transcript_path")]
    given = [args.index, sidecar_path(Path(args.index)), args.vuln, args.config, *chat_files]
    for written in (report_path, transcript_path):
        for read in [Path(path) for path in given if isinstance(path, (str, Path))]:
            if written.exists() and read.exists() and written.samefile(read):
                raise ConfigError(f"{written} would overwrite input file {read}; choose another --report")
    report_path.parent.mkdir(parents=True, exist_ok=True)
    memo = Memo()
    prompts = memo.prompts(config.prompts_dir)
    opened = time.perf_counter()
    verdict, transcript = evalharness.run_analysis(
        store, encoder, chat_provider, vuln, config, args.project_id, prompts, memo, transcript_path
    )
    analyzed = time.perf_counter()
    report = {
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "config": config.to_dict(),
        **verdict.to_dict(),
    }
    write_json(report_path, report)
    if log.isEnabledFor(logging.INFO):
        calls = Counter(entry.role_kind for entry in transcript.entries)
        log.info(
            "open %.3f s, analysis %.3f s, report write %.3f s; model calls: %s",
            opened - started, analyzed - opened, time.perf_counter() - analyzed,
            ", ".join(f"{role.value} {calls[role]}" for role in RoleKind),
        )
    print(
        f"{verdict.project_id}: {verdict.project_judgment.value}"
        f" ({len(verdict.per_candidate)} candidate(s)) -> {args.report}"
    )
    return EXIT_VULNERABLE if verdict.project_judgment is Judgment.VULNERABLE else EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    if not args.manifest and not args.from_predictions:
        raise ConfigError("evaluate needs --manifest or --from-predictions")
    if args.from_predictions and (args.sweep_theta or args.theta is not None):
        flag = "--sweep-theta" if args.sweep_theta else "--theta"
        raise ConfigError(f"--from-predictions scores given predictions and runs no theta; drop {flag}")
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
            reports = evalharness.run_theta_sweep(manifest, config, encoder, chat_provider, out_dir, memo)
        else:
            report = evalharness.run_benchmark(manifest, config, encoder, chat_provider, out_dir, memo)
            print(evalharness.render_table(report), end="")
            reports = {config.theta: report}
    finally:
        memo.save_vectors(cache_dir, encoder)
    for theta, report in sorted(reports.items()):
        # A failed project is not in the confusion matrix: the metrics are over the others.
        print(f"theta={theta}: {evalharness.format_metrics(report['metrics'])} over"
              f" {report['evaluated_projects']} evaluated project(s), {report['failed_projects']} failed")
    failed = [row["error"] for report in reports.values() for row in report["projects"] if "error" in row]
    if failed:
        # The row names its error's class; main maps it to an exit status as if raised here.
        kind = {cls.__name__: cls for cls in (ProviderError, MalformedResponse)}
        raise kind.get(failed[0].partition(":")[0], VulnReachError)(
            f"{len(failed)} of {sum(len(r['projects']) for r in reports.values())} project runs failed,"
            f" the first with {failed[0]}; the reports are in {out_dir}"
        )
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
    path = args.from_predictions
    predicted = _load_json(path, f"invalid predictions file {path}", _predictions)
    if isinstance(predicted, evalharness.ConfusionMatrix):
        cm = predicted
    elif not args.manifest:
        raise ConfigError("--manifest is required to score raw predictions")
    else:
        manifest = _load_manifest(args.manifest)
        unknown = sorted(set(predicted) - {p.project_id for p in manifest.projects})
        if unknown:
            raise ConfigError(f"predictions for projects the manifest does not name: {unknown}")
        cm = evalharness.score(predicted, manifest)
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


class _ArgumentParser(argparse.ArgumentParser):
    """A usage error is a ``ConfigError``, so ``main`` prints it as one
    ``error:`` line and exits 1, as for any other user error. The
    subcommands' parsers are of this class too."""

    def error(self, message: str) -> NoReturn:
        raise ConfigError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
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
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.verbose:
            _log_to_stderr()
        # Looked up per call, not bound into the parser: that is built once per process.
        command = {"index": cmd_index, "analyze": cmd_analyze, "evaluate": cmd_evaluate}[args.command]
        return command(args)
    except (VulnReachError, OSError) as exc:
        prefix = "provider failure: " if isinstance(exc, ProviderError) else ""
        print(f"error: {prefix}{exc}", file=sys.stderr)
        # A model that answered, but not in the asked form, is not the user's error either.
        return EXIT_PROVIDER_ERROR if isinstance(exc, (ProviderError, MalformedResponse)) else EXIT_USER_ERROR


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
