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
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .errors import EmptyProject
from .javaparse import CompilationUnit, JavaNode, parse_source
from .model import SPLIT_KINDS, CodeBlock, NodeKind
from .tokenizer import DEFAULT_TOKENIZER, Tokenizer

log = logging.getLogger(__name__)

DEFAULT_IGNORE_GLOBS: tuple[str, ...] = ("target/**", "build/**", "out/**", ".git/**")

# Residue runs made only of whitespace, closing braces and semicolons carry
# no semantic content; they are absorbed into a neighboring block instead of
# polluting the index with empty Other blocks.
_STRUCTURAL_RESIDUE = re.compile(r"^[\s;}]*$")


@dataclass(frozen=True)
class SegmenterConfig:
    theta: int = 2500
    language: str = "java"
    split_kinds: frozenset[NodeKind] = SPLIT_KINDS
    tokenizer: Tokenizer = DEFAULT_TOKENIZER

    def __post_init__(self) -> None:
        if self.theta < 1:
            raise ValueError("theta must be >= 1")
        if self.language.lower() != "java":
            raise ValueError(f"unsupported language: {self.language}")


@dataclass
class _Anchor:
    kind: NodeKind
    line_start: int
    line_end: int
    enclosing_class: str | None = None
    enclosing_method: str | None = None


@dataclass
class _Draft:
    kind: NodeKind
    line_start: int
    line_end: int
    enclosing_class: str | None = None
    enclosing_method: str | None = None


def segment_unit(unit: CompilationUnit, cfg: SegmenterConfig) -> list[CodeBlock]:
    """Apply the size-thresholded segmentation rule to one compilation unit."""
    line_count = unit.line_count
    whole_text = unit.slice_text(1, line_count)
    if not whole_text.strip():
        return []  # an empty or whitespace-only file holds nothing to index
    tok = cfg.tokenizer
    primary_class = next((n.name for n in unit.nodes if n.kind == "type" and n.name), None)

    if tok.count(whole_text) < cfg.theta:
        return [
            _make_block(
                unit,
                _Draft(NodeKind.COMPILATION_UNIT, 1, line_count, primary_class, None),
                tok,
                cfg.theta,
            )
        ]

    anchors = _collect_anchors(unit, unit.nodes, cfg, [])
    anchors = _normalize_anchors(anchors)
    drafts = _carve(unit, anchors)
    return [_make_block(unit, d, tok, cfg.theta) for d in drafts]


def _make_block(unit: CompilationUnit, draft: _Draft, tok: Tokenizer, theta: int) -> CodeBlock:
    source = unit.slice_text(draft.line_start, draft.line_end)
    size = tok.count(source)
    return CodeBlock.create(
        unit.file_path,
        draft.line_start,
        draft.line_end,
        source,
        draft.kind,
        enclosing_class=draft.enclosing_class,
        enclosing_method=draft.enclosing_method,
        size=size,
        oversize=size >= theta,
    )


def _collect_anchors(
    unit: CompilationUnit,
    nodes: Sequence[JavaNode],
    cfg: SegmenterConfig,
    class_path: list[str],
) -> list[_Anchor]:
    anchors: list[_Anchor] = []
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
                _Anchor(NodeKind.IMPORT_DECLARATION, nodes[i].line_start, nodes[j].line_end)
            )
            i = j + 1
            continue
        if node.kind == "type":
            path = class_path + [node.name or "<anonymous>"]
            if cfg.tokenizer.count(unit.text_of(node)) >= cfg.theta:
                anchors.extend(_collect_member_anchors(unit, node, cfg, path))
            else:
                anchors.append(
                    _Anchor(NodeKind.OTHER, node.line_start, node.line_end, ".".join(path))
                )
            i += 1
            continue
        if node.kind == "error":
            anchors.append(
                _Anchor(NodeKind.OTHER, node.line_start, node.line_end, enclosing)
            )
            i += 1
            continue
        # package declarations and anything else at this level stay residue
        i += 1
    return anchors


def _collect_member_anchors(
    unit: CompilationUnit,
    type_node: JavaNode,
    cfg: SegmenterConfig,
    class_path: list[str],
) -> list[_Anchor]:
    dotted = ".".join(class_path)
    anchors: list[_Anchor] = []
    for member in type_node.members:
        if member.kind == "field":
            anchors.append(
                _Anchor(NodeKind.FIELD_DECLARATION, member.line_start, member.line_end, dotted)
            )
        elif member.kind == "method":
            anchors.append(
                _Anchor(
                    NodeKind.METHOD_DECLARATION,
                    member.line_start,
                    member.line_end,
                    dotted,
                    member.name,
                )
            )
        elif member.kind == "constructor":
            anchors.append(
                _Anchor(
                    NodeKind.CONSTRUCTOR_DECLARATION,
                    member.line_start,
                    member.line_end,
                    dotted,
                    member.name,
                )
            )
        elif member.kind == "type":
            path = class_path + [member.name or "<anonymous>"]
            if cfg.tokenizer.count(unit.text_of(member)) >= cfg.theta:
                anchors.extend(_collect_member_anchors(unit, member, cfg, path))
            else:
                anchors.append(
                    _Anchor(NodeKind.OTHER, member.line_start, member.line_end, ".".join(path))
                )
        elif member.kind in ("initializer", "enum_constants", "error"):
            anchors.append(
                _Anchor(NodeKind.OTHER, member.line_start, member.line_end, dotted)
            )
    return anchors


def _only_blank_between(unit: CompilationUnit, end_line: int, start_line: int) -> bool:
    if start_line - end_line <= 1:
        return True
    between = unit.slice_text(end_line + 1, start_line - 1)
    return not between.strip()


def _normalize_anchors(anchors: list[_Anchor]) -> list[_Anchor]:
    """Sort and make line spans pairwise disjoint.

    Declarations sharing a line (``int x; int y;``) overlap at line
    granularity; the later anchor is clipped to start after the earlier one
    and dropped entirely when swallowed.
    """
    ordered = sorted(anchors, key=lambda a: (a.line_start, a.line_end))
    cleaned: list[_Anchor] = []
    for anchor in ordered:
        if cleaned and anchor.line_start <= cleaned[-1].line_end:
            new_start = cleaned[-1].line_end + 1
            if new_start > anchor.line_end:
                continue
            anchor = _Anchor(
                anchor.kind,
                new_start,
                anchor.line_end,
                anchor.enclosing_class,
                anchor.enclosing_method,
            )
        cleaned.append(anchor)
    return cleaned


def _carve(unit: CompilationUnit, anchors: list[_Anchor]) -> list[_Draft]:
    """Turn disjoint anchors into full line coverage of the unit.

    Gaps with content become Other blocks; blank or brace-only gaps are
    absorbed into the preceding block (or the following one at file start).
    """
    line_count = unit.line_count
    drafts: list[_Draft] = []
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
                _Draft(NodeKind.OTHER, start, gap_end, _enclosing_class_at(unit, gap_end))
            )

    for anchor in anchors:
        if anchor.line_start > pointer:
            handle_gap(pointer, anchor.line_start - 1)
        start = pending_prefix if pending_prefix is not None else anchor.line_start
        pending_prefix = None
        drafts.append(
            _Draft(anchor.kind, start, anchor.line_end, anchor.enclosing_class, anchor.enclosing_method)
        )
        pointer = anchor.line_end + 1
    if pointer <= line_count:
        handle_gap(pointer, line_count)
    if pending_prefix is not None:
        # No block ever followed: the whole tail is residue on its own.
        drafts.append(
            _Draft(NodeKind.OTHER, pending_prefix, line_count, _enclosing_class_at(unit, pending_prefix))
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


def iter_project_files(
    root: Path, ignore_globs: Sequence[str] = DEFAULT_IGNORE_GLOBS
) -> list[Path]:
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
    cfg: SegmenterConfig,
    *,
    ignore_globs: Sequence[str] = DEFAULT_IGNORE_GLOBS,
    on_io_error: Callable[[Path, OSError], None] | None = None,
) -> list[CodeBlock]:
    """Segment every source file under root.

    Unreadable files are collected via ``on_io_error`` (default: logged) and
    skipped; an empty project raises EmptyProject. Output is deterministic:
    ordered by (file_path, line_start).
    """
    root = Path(root)
    files = iter_project_files(root, ignore_globs)
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
        unit = parse_source(rel, text)[0]
        blocks.extend(segment_unit(unit, cfg))
    blocks.sort(key=lambda b: (b.file_path, b.line_start))
    return blocks
