"""Size-thresholded segmentation of parsed source into code blocks.

A compilation unit below the size threshold becomes a single block. Units at
or above the threshold are split structurally: import runs, fields, methods
and constructors become blocks of their own kind, type declarations recurse
when their own size is at or above the threshold, and everything else
(package declaration, type headers, initializers, enum constants, parse
errors) lands in Other blocks. Every line of every file is covered by
exactly one block, and concatenating block sources reproduces the file
byte-for-byte; the exception is a file of only whitespace, which, like an
empty one, yields no block, so no block is ever blank.
"""

from __future__ import annotations

import fnmatch
import logging
import re
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

from .errors import EmptyProject
from .javaparse import CompilationUnit, JavaNode, parse_source
from .model import CodeBlock, Config, NodeKind
from .tokenizer import DEFAULT_TOKENIZER

if TYPE_CHECKING:
    from .memo import Memo

log = logging.getLogger(__name__)

# Residue runs made only of whitespace, closing braces and semicolons carry
# no semantic content; they are absorbed into a neighboring block instead of
# polluting the index with empty Other blocks.
_STRUCTURAL_RESIDUE = re.compile(r"^[\s;}]*$")


@dataclass
class _Span:
    """A line span of one block kind: first a declaration's anchor, then,
    widened over residue, the extent of the block it becomes."""

    kind: NodeKind
    line_start: int
    line_end: int
    enclosing_class: str | None = None
    enclosing_method: str | None = None
    error: bool = False  # anchored on a parse error region


def segment_unit(
    unit: CompilationUnit,
    config: Config,
    on_error_block: Callable[[CodeBlock], None] | None = None,
) -> list[CodeBlock]:
    """Apply the size-thresholded segmentation rule to one compilation unit.

    ``on_error_block`` gets each Other block a parse error region became.
    """
    line_count = unit.line_count
    whole_text = unit.slice_text(1, line_count)
    if not whole_text.strip():
        return []  # an empty or whitespace-only file holds nothing to index
    primary_class = next((n.name for n in unit.nodes if n.kind == "type" and n.name), None)

    if DEFAULT_TOKENIZER.count(whole_text) < config.theta:
        return [
            _make_block(
                unit,
                _Span(NodeKind.COMPILATION_UNIT, 1, line_count, primary_class, None),
                config.theta,
            )
        ]

    anchors = _collect_anchors(unit, unit.nodes, config.theta, [])
    anchors = _normalize_anchors(anchors)
    spans = _carve(unit, anchors)
    blocks = [_make_block(unit, span, config.theta) for span in spans]
    if on_error_block is not None:
        for span, block in zip(spans, blocks):
            if span.error:
                on_error_block(block)
    return blocks


def _make_block(unit: CompilationUnit, span: _Span, theta: int) -> CodeBlock:
    source = unit.slice_text(span.line_start, span.line_end)
    size = DEFAULT_TOKENIZER.count(source)
    return CodeBlock.create(
        unit.file_path,
        span.line_start,
        span.line_end,
        source,
        span.kind,
        enclosing_class=span.enclosing_class,
        enclosing_method=span.enclosing_method,
        size=size,
        oversize=size >= theta,
    )


# Member kinds that become blocks of their own, keyed by parser node kind.
_SPLIT_NODES = {
    "field": NodeKind.FIELD_DECLARATION,
    "method": NodeKind.METHOD_DECLARATION,
    "constructor": NodeKind.CONSTRUCTOR_DECLARATION,
}


def _collect_anchors(
    unit: CompilationUnit,
    nodes: Sequence[JavaNode],
    theta: int,
    class_path: list[str],
) -> list[_Span]:
    """Anchors of a unit's top-level nodes or of one type's members.

    The parser yields imports and packages only at the top level and
    members only inside types, so one walk serves both levels.
    """
    anchors: list[_Span] = []
    enclosing = ".".join(class_path) or None
    i = 0
    while i < len(nodes):
        node = nodes[i]
        if node.kind == "import":
            j = i
            while (
                j + 1 < len(nodes)
                and nodes[j + 1].kind == "import"
                and _only_blank_between(unit, nodes[j].line_end, nodes[j + 1].line_start)
            ):
                j += 1
            anchors.append(
                _Span(NodeKind.IMPORT_DECLARATION, nodes[i].line_start, nodes[j].line_end)
            )
            i = j + 1
            continue
        if node.kind == "type":
            path = class_path + [node.name or "<anonymous>"]
            if DEFAULT_TOKENIZER.count(unit.text_of(node)) >= theta:
                anchors.extend(_collect_anchors(unit, node.members, theta, path))
            else:
                anchors.append(
                    _Span(NodeKind.OTHER, node.line_start, node.line_end, ".".join(path))
                )
        elif node.kind in _SPLIT_NODES:
            method = None if node.kind == "field" else node.name
            anchors.append(
                _Span(_SPLIT_NODES[node.kind], node.line_start, node.line_end, enclosing, method)
            )
        elif node.kind in ("initializer", "enum_constants", "error"):
            anchors.append(
                _Span(
                    NodeKind.OTHER, node.line_start, node.line_end, enclosing,
                    error=node.kind == "error",
                )
            )
        # package declarations stay residue
        i += 1
    return anchors


def _only_blank_between(unit: CompilationUnit, end_line: int, start_line: int) -> bool:
    if start_line - end_line <= 1:
        return True
    between = unit.slice_text(end_line + 1, start_line - 1)
    return not between.strip()


def _normalize_anchors(anchors: list[_Span]) -> list[_Span]:
    """Sort and make line spans pairwise disjoint.

    Declarations sharing a line (``int x; int y;``) overlap at line
    granularity; the later anchor is clipped to start after the earlier one
    and dropped entirely when swallowed.
    """
    ordered = sorted(anchors, key=lambda a: (a.line_start, a.line_end))
    cleaned: list[_Span] = []
    for anchor in ordered:
        if cleaned and anchor.line_start <= cleaned[-1].line_end:
            new_start = cleaned[-1].line_end + 1
            if new_start > anchor.line_end:
                continue
            anchor.line_start = new_start
        cleaned.append(anchor)
    return cleaned


def _carve(unit: CompilationUnit, anchors: list[_Span]) -> list[_Span]:
    """Turn disjoint anchors into full line coverage of the unit.

    Gaps with content become Other blocks; blank or brace-only gaps are
    absorbed into the preceding block (or the following one at file start).
    """
    line_count = unit.line_count
    drafts: list[_Span] = []
    pending_prefix: int | None = None
    pointer = 1

    def handle_gap(gap_start: int, gap_end: int) -> None:
        nonlocal pending_prefix
        text = unit.slice_text(gap_start, gap_end)
        if _STRUCTURAL_RESIDUE.match(text):
            if drafts:
                drafts[-1].line_end = gap_end
            elif pending_prefix is None:
                pending_prefix = gap_start
        else:
            start = pending_prefix if pending_prefix is not None else gap_start
            pending_prefix = None
            # Attribute trailing-edge residue (type headers and preambles
            # leading into a declaration) to the type it opens.
            drafts.append(
                _Span(NodeKind.OTHER, start, gap_end, _enclosing_class_at(unit, gap_end))
            )

    for anchor in anchors:
        if anchor.line_start > pointer:
            handle_gap(pointer, anchor.line_start - 1)
        start = pending_prefix if pending_prefix is not None else anchor.line_start
        pending_prefix = None
        anchor.line_start = start
        drafts.append(anchor)
        pointer = anchor.line_end + 1
    if pointer <= line_count:
        handle_gap(pointer, line_count)
    if pending_prefix is not None:
        # No block ever followed: the whole tail is residue on its own.
        drafts.append(
            _Span(NodeKind.OTHER, pending_prefix, line_count, _enclosing_class_at(unit, pending_prefix))
        )
    return drafts


def _enclosing_class_at(unit: CompilationUnit, line: int) -> str | None:
    """Dotted name of the innermost type declaration whose span contains the line."""
    best: str | None = None
    best_width = None
    for node, dotted in unit.iter_types():
        if node.line_start <= line <= node.line_end:
            width = node.line_end - node.line_start
            if best_width is None or width < best_width:
                best = dotted
                best_width = width
    return best


def iter_project_files(root: Path, ignore_globs: Sequence[str]) -> list[Path]:
    """Discover ``*.java`` files under root, deterministic order, honoring
    ignore globs (matched against the posix relative path; a glob without a
    slash also matches any single path segment)."""
    files = []
    for path in sorted(root.rglob("*.java")):
        if not path.is_file():
            continue
        rel = path.relative_to(root).as_posix()
        if _ignored(rel, ignore_globs):
            continue
        files.append(path)
    return files


def _ignored(rel_path: str, ignore_globs: Sequence[str]) -> bool:
    parts = rel_path.split("/")
    for glob in ignore_globs:
        if fnmatch.fnmatchcase(rel_path, glob):
            return True
        if "/" not in glob.rstrip("/*") and any(
            fnmatch.fnmatchcase(part, glob.rstrip("/*")) for part in parts[:-1]
        ):
            return True
    return False


def segment_project(
    root: Path | str,
    config: Config,
    *,
    on_io_error: Callable[[Path, OSError], None] | None = None,
    on_error_block: Callable[[CodeBlock], None] | None = None,
    memo: Memo | None = None,
) -> list[CodeBlock]:
    """Segment every source file under root that ``config.ignore_globs``
    leaves in.

    Unreadable files are collected via ``on_io_error`` (default: logged) and
    skipped; an empty project raises EmptyProject. ``on_error_block`` gets
    each Other block a parse error region became. A ``memo`` parses each
    file's content once across calls, as a theta sweep needs. Output is
    deterministic: ordered by (file_path, line_start).
    """
    root = Path(root)
    files = iter_project_files(root, config.ignore_globs)
    if not files:
        raise EmptyProject(f"no source files under {root}")
    blocks: list[CodeBlock] = []
    for path in files:
        rel = path.relative_to(root).as_posix()
        try:
            data = path.read_bytes()
        except OSError as exc:
            if on_io_error is not None:
                on_io_error(path, exc)
            else:
                log.warning("skipping unreadable file %s: %s", path, exc)
            continue
        text = data.decode("utf-8", errors="replace")
        unit = memo.parse(rel, text) if memo is not None else parse_source(rel, text)[0]
        blocks.extend(segment_unit(unit, config, on_error_block))
    blocks.sort(key=lambda b: (b.file_path, b.line_start))
    return blocks
