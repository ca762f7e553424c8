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
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from .errors import EmptyProject
from .javaparse import CompilationUnit, JavaNode, parse_source
from .model import CodeBlock, Config, NodeKind, block_id

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
    # Every non-whitespace character is part of a token, so a file without
    # tokens is empty or whitespace-only: it holds nothing to index.
    size = unit.token_count(1, line_count)
    if size == 0:
        return []
    primary_class = next((n.name for n in unit.nodes if n.kind == "type" and n.name), None)

    if size < config.theta:
        return [
            _make_block(
                unit,
                _Span(NodeKind.COMPILATION_UNIT, 1, line_count, primary_class, None),
                config.theta,
            )
        ]

    anchors = _collect_anchors(unit, config.theta)
    anchors = _normalize_anchors(anchors)
    spans = _carve(unit, anchors)
    blocks = [_make_block(unit, span, config.theta) for span in spans]
    if on_error_block is not None:
        for span, block in zip(spans, blocks):
            if span.error:
                on_error_block(block)
    return blocks


def theta_class(
    unit: CompilationUnit, blocks: Sequence[CodeBlock], theta: int
) -> tuple[float, float]:
    """The interval (low, high] of the thetas at which ``segment_unit``
    cuts ``unit`` into the ``blocks`` it cut at ``theta``.

    ``segment_unit`` compares theta with three kinds of size, each as
    ``size < theta`` or ``size >= theta``: the unit's token count, the
    token count of each type declaration, at any depth, and each block's
    ``size`` (for ``oversize``). Its blocks change only where theta crosses
    one of them: none lies between the nearest size below theta and the
    nearest one at or above it.
    """
    sizes = [unit.token_count(1, unit.line_count), *(b.size for b in blocks)]
    sizes.extend(unit.token_count(node.line_start, node.line_end) for node, _ in unit.iter_types())
    low = max((s for s in sizes if s < theta), default=-math.inf)
    high = min((s for s in sizes if s >= theta), default=math.inf)
    return low, high


def _make_block(unit: CompilationUnit, span: _Span, theta: int) -> CodeBlock:
    start, end = span.line_start, span.line_end
    size = unit.token_count(start, end)
    return CodeBlock(
        block_id(unit.file_path, start, end, span.kind),
        unit.file_path, start, end, unit.slice_text(start, end), span.kind,
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


def _collect_anchors(unit: CompilationUnit, theta: int) -> list[_Span]:
    """Anchors of a unit's nodes in depth-first declaration order: a type at
    or above theta gives its members' anchors in its place.

    The parser yields imports and packages only at the top level and
    members only inside types, so one walk serves every level. It loops
    over a stack of (nodes, next index, dotted class path) frames, one per
    type being walked, so nesting depth costs no recursion.
    """
    anchors: list[_Span] = []
    stack: list[tuple[Sequence[JavaNode], int, str | None]] = [(unit.nodes, 0, None)]
    while stack:
        nodes, i, enclosing = stack.pop()
        while i < len(nodes):
            node = nodes[i]
            i += 1
            if node.kind == "import":
                last = node
                while (
                    i < len(nodes)
                    and nodes[i].kind == "import"
                    and _only_blank_between(unit, last.line_end, nodes[i].line_start)
                ):
                    last = nodes[i]
                    i += 1
                anchors.append(_Span(NodeKind.IMPORT_DECLARATION, node.line_start, last.line_end))
            elif node.kind == "type":
                name = node.name or "<anonymous>"
                path = f"{enclosing}.{name}" if enclosing else name
                if unit.token_count(node.line_start, node.line_end) >= theta:
                    stack.append((nodes, i, enclosing))
                    stack.append((node.members, 0, path))
                    break
                anchors.append(_Span(NodeKind.OTHER, node.line_start, node.line_end, path))
            elif node.kind in _SPLIT_NODES:
                method = None if node.kind == "field" else node.name
                kind = _SPLIT_NODES[node.kind]
                anchors.append(_Span(kind, node.line_start, node.line_end, enclosing, method))
            elif node.kind in ("initializer", "enum_constants", "error"):
                anchors.append(
                    _Span(
                        NodeKind.OTHER, node.line_start, node.line_end, enclosing,
                        error=node.kind == "error",
                    )
                )
            # package declarations stay residue
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
                _Span(NodeKind.OTHER, start, gap_end, unit.class_at(gap_end))
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
            _Span(NodeKind.OTHER, pending_prefix, line_count, unit.class_at(pending_prefix))
        )
    return drafts


def iter_project_files(root: Path, ignore_globs: Sequence[str]) -> list[Path]:
    """Discover ``*.java`` files under root, in deterministic order, that no
    ignore glob matches. A glob is matched against the posix path relative
    to root; one with no slash other than a trailing ``/**`` (``build/**``)
    also matches a directory name above the first ``src`` directory, not
    below it, where a directory is a package: ``module/build/Y.java`` is
    ignored, ``src/main/java/com/acme/build/Builder.java`` is not."""
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
    dirs = rel_path.split("/")[:-1]
    if "src" in dirs:
        dirs = dirs[: dirs.index("src")]
    for glob in ignore_globs:
        if fnmatch.fnmatchcase(rel_path, glob):
            return True
        if "/" not in glob.rstrip("/*") and any(
            fnmatch.fnmatchcase(part, glob.rstrip("/*")) for part in dirs
        ):
            return True
    return False


def read_project(root: Path, ignore_globs: Sequence[str]) -> Iterator[tuple[str, str]]:
    """Each source file's posix path relative to root and its text, decoded
    as UTF-8, in ``iter_project_files`` order, read one at a time as the
    caller iterates.

    A file that is not valid UTF-8 is logged, and its undecodable bytes
    read as U+FFFD. An unreadable file is logged and skipped. The first
    step raises EmptyProject when the tree holds no source file.
    """
    files = iter_project_files(root, ignore_globs)
    if not files:
        raise EmptyProject(f"no source files under {root}")
    for path in files:
        try:
            data = path.read_bytes()
        except OSError as exc:
            log.warning("skipping unreadable file %s: %s", path, exc)
            continue
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            log.warning("reading invalid UTF-8 in %s as U+FFFD: %s", path, exc)
            text = data.decode("utf-8", errors="replace")
        yield path.relative_to(root).as_posix(), text


def segment_project(
    root: Path | str,
    config: Config,
    *,
    on_error_block: Callable[[CodeBlock], None] | None = None,
    memo: Memo | None = None,
) -> list[CodeBlock]:
    """Segment every source file under root that ``config.ignore_globs``
    leaves in.

    An unreadable file is logged and skipped; an empty project raises
    EmptyProject. ``on_error_block`` gets each Other block a parse error
    region became. Output is deterministic: ordered by (file_path,
    line_start).

    Without a ``memo``, files are read, parsed and segmented one at a time.
    A ``memo``, as a theta sweep passes, reads the tree once per (root,
    ignore globs) and keeps what it read: every later call segments that
    same snapshot, and an unreadable file is logged once. It parses each
    file's content once, and segments it again only at a theta on the other
    side of one of the sizes segmentation compares theta with.
    """
    root = Path(root)
    blocks: list[CodeBlock] = []
    if memo is None:
        for rel, text in read_project(root, config.ignore_globs):
            blocks.extend(segment_unit(parse_source(rel, text)[0], config, on_error_block))
    else:
        for rel, text in memo.sources(root, config.ignore_globs):
            blocks.extend(memo.segment(rel, text, config, on_error_block))
    blocks.sort(key=lambda b: (b.file_path, b.line_start))
    return blocks
