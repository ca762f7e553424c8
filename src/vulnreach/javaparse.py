"""Error-tolerant declaration-level parsing of Java source.

Segmentation only needs the shallow shape of a file: package/import
declarations and type declarations at the top level, and field, method,
constructor, initializer and nested-type members inside type bodies.
Statement-level structure is never modeled; bodies are consumed by bracket
balancing with full string/comment awareness, so arbitrary (including
syntactically broken) content inside bodies cannot derail the scan. One
regular-expression scan finds a file's tokens; brackets are matched on
their texts, and a ``Token`` is built only for the few the parser reads.

Anything that cannot be recognized is captured as an ``error`` node that
still carries an exact line span. Downstream segmentation turns error nodes
into ordinary blocks, which keeps the line-coverage invariant intact on
real-world corpora containing unparseable files.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from typing import NamedTuple, Sequence

from .tokenizer import DEFAULT_TOKENIZER

MODIFIERS = frozenset(
    {
        "public",
        "protected",
        "private",
        "static",
        "final",
        "abstract",
        "synchronized",
        "native",
        "strictfp",
        "transient",
        "volatile",
        "default",
        "sealed",
    }
)

TYPE_KEYWORDS = frozenset({"class", "interface", "enum", "record"})

_OPENERS = frozenset("({[")
_CLOSERS = frozenset(")}]")

# The line model (JLS 3.4): a line ends at LF, CRLF or a lone CR.
_LINE = re.compile(r"[^\r\n]*(?:\r\n|\r|\n)|[^\r\n]+")

# Every token of a file, in order: comments, text blocks, string and char
# literals (ending at their quote, an unescaped line terminator or end of
# input; a backslash escapes one character, CRLF as one), identifiers,
# numbers, runs of line terminators (read only to count lines), and any other
# character but a blank (space, tab, FF, VT) as punctuation. Each match
# consumes the blank run before its token, so blanks are not tried one by
# one; at the end of input the token is empty. No alternative can fail once
# its loop stops, so the scan never backtracks.
_TOKEN = re.compile(
    r"""
    [ \t\f\v]*
    ( //[^\r\n]*
    | /\*[^*]*(?:\*+(?!/)[^*]*)*(?:\*/)?
    | \"\"\"[^"\\]*(?:(?:\\.|"(?!""))[^"\\]*)*(?:\"\"\"|\\?\Z)
    | "[^"\\\r\n]*(?:\\(?:\r\n|.)?[^"\\\r\n]*)*"?
    | '[^'\\\r\n]*(?:\\(?:\r\n|.)?[^'\\\r\n]*)*'?
    | [A-Za-z_$][A-Za-z0-9_$]*
    | [0-9][A-Za-z0-9_$.]*
    | [\r\n]+
    | [^ \t\f\v]
    | \Z
    )""",
    re.DOTALL | re.VERBOSE,
)
# A token's kind by its first character; "/" alone is punctuation.
_KIND = dict.fromkeys(string.ascii_letters + "_$", "ident") | dict.fromkeys(string.digits, "number")
_KIND.update({'"': "string", "'": "char", "/": "comment"})


class Token(NamedTuple):
    # A NamedTuple rather than a frozen dataclass: the parser builds one per
    # token it reads, and tuple construction is several times cheaper.
    kind: str  # ident | number | string | char | punct | comment
    text: str
    line_start: int
    line_end: int


def _line_breaks(text: str) -> int:
    """Line terminators in ``text``: LF, CRLF or a lone CR (JLS 3.4)."""
    return text.count("\n") + text.count("\r") - text.count("\r\n")


def _scan(source: str) -> tuple[list[str], list[int]]:
    """Every token of ``source`` in order: its text, and the line it starts on."""
    texts: list[str] = []
    lines: list[int] = []
    line = 1
    found = _TOKEN.findall(source)
    while found and not found[-1]:  # the end of input, after any blank run, matches empty
        found.pop()
    for text in found:
        if text[0] not in "\r\n":
            texts.append(text)
            lines.append(line)
        if text[0] in "\r\n/\"'":  # only these span lines
            line += _line_breaks(text)
    return texts, lines


class _Tokens:
    """The tokens at positions ``order`` of one scan, each built when read."""

    def __init__(self, texts: list[str], lines: list[int], order: Sequence[int]):
        self._texts, self._lines, self._order = texts, lines, order

    def __len__(self) -> int:
        return len(self._order)

    def __getitem__(self, i: int) -> Token:
        k = self._order[i]
        text, line = self._texts[k], self._lines[k]
        kind = "punct" if text == "/" else _KIND.get(text[0], "punct")
        return Token(kind, text, line, line + _line_breaks(text))


def lex(source: str) -> list[Token]:
    """Tokenize Java source, keeping comments as tokens (needed for
    attaching leading comment runs to declarations). Lines end at LF, CRLF
    or a lone CR, as in :attr:`CompilationUnit.lines`."""
    texts, lines = _scan(source)
    return list(_Tokens(texts, lines, range(len(texts))))


@dataclass
class JavaNode:
    """Shallow declaration node with an exact (1-based, inclusive) line span."""

    kind: str  # package | import | type | field | method | constructor |
    #            initializer | enum_constants | error
    line_start: int
    line_end: int
    name: str | None = None
    type_keyword: str | None = None
    members: list["JavaNode"] = field(default_factory=list)
    malformed: bool = False


@dataclass
class CompilationUnit:
    """Root handle for one parsed source file."""

    file_path: str
    # Lines end at LF, CRLF or a lone CR (JLS 3.4), terminator kept; exact
    # reassembly is ``"".join(lines)``.
    lines: list[str]
    nodes: list[JavaNode]

    @property
    def line_count(self) -> int:
        return len(self.lines)

    def slice_text(self, line_start: int, line_end: int) -> str:
        return "".join(self.lines[line_start - 1 : line_end])

    def token_count(self, line_start: int, line_end: int) -> int:
        """``DEFAULT_TOKENIZER.count(self.slice_text(line_start, line_end))``.

        No token contains whitespace, so none spans a line terminator and
        counts add exactly across lines: the file's lines are counted in one
        pass, on first use, and a span is a difference of prefix sums.
        """
        prefix = self._token_prefix
        return prefix[line_end] - prefix[line_start - 1]

    @cached_property
    def _token_prefix(self) -> list[int]:
        return [0, *accumulate(DEFAULT_TOKENIZER.count_lines(self.lines))]

    def class_at(self, line: int) -> str | None:
        """Dotted name of the innermost type declaration whose span contains
        the line; of two as narrow, the one declared first."""
        return self._class_by_line[line]

    @cached_property
    def _class_by_line(self) -> list[str | None]:
        names: list[str | None] = [None] * (self.line_count + 2)
        # Wider spans first, narrower ones written over them. The sort is
        # stable over the reversed declaration order, so of two as wide the
        # first declared is written last and wins.
        types = sorted(reversed(self.iter_types()), key=lambda t: t[0].line_start - t[0].line_end)
        for node, dotted in types:
            count = node.line_end - node.line_start + 1
            names[node.line_start : node.line_end + 1] = [dotted] * count
        return names

    def iter_types(self) -> list[tuple[JavaNode, str]]:
        """All type declarations with their dotted nesting path, outermost first."""
        out: list[tuple[JavaNode, str]] = []
        # A loop, not a nested recursive function: that would reference
        # itself through its closure, and the cycle would hold the whole
        # tree until the garbage collector ran.
        stack = [(node, "") for node in reversed(self.nodes)]
        while stack:
            node, prefix = stack.pop()
            if node.kind == "type":
                dotted = prefix + (node.name or "<anonymous>")
                out.append((node, dotted))
                stack.extend((member, dotted + ".") for member in reversed(node.members))
        return out


class _Parser:
    def __init__(self, texts: list[str], lines: list[int]):
        # The cursor walks the significant tokens; ``_comments`` keeps the
        # comment run directly before each significant token that has one.
        # Every bracket kind nests on one shared stack, so lambdas and
        # anonymous classes inside argument lists balance; an opener left
        # open at end of input has no entry.
        self.tokens = _Tokens(texts, lines, range(len(texts)))
        order: list[int] = []
        self._comments: dict[int, list[Token]] = {}
        self._closer: dict[int, int] = {}
        stack: list[int] = []
        for k, text in enumerate(texts):
            if text in _OPENERS:
                stack.append(len(order))
            elif text in _CLOSERS and stack:
                self._closer[stack.pop()] = len(order)
            elif text[0] == "/" and text != "/":
                self._comments.setdefault(len(order), []).append(self.tokens[k])
                continue
            order.append(k)
        self.sig = _Tokens(texts, lines, order)
        self.pos = 0

    # -- token access -------------------------------------------------

    def _peek(self, offset: int = 0) -> Token | None:
        """Next significant token (skipping comments), without consuming."""
        idx = self.pos + offset
        return self.sig[idx] if idx < len(self.sig) else None

    def _next(self) -> Token | None:
        """Consume and return the next significant token."""
        if self.pos >= len(self.sig):
            return None
        self.pos += 1
        return self.sig[self.pos - 1]

    def _decl_start(self) -> int:
        """First line of the declaration at the cursor: the line where the
        comment run directly above it starts, else its own first line.

        A run attaches when each comment ends on the line directly above the
        next element (javadoc style); a blank line breaks it.
        """
        anchor = self.sig[self.pos].line_start
        for tok in reversed(self._comments.get(self.pos, ())):
            if anchor - tok.line_end > 1:
                break
            anchor = tok.line_start
        return anchor

    # -- balanced consumption ------------------------------------------

    def _consume_balanced(self) -> Token | None:
        """Consume an opener token and everything up to its matching closer.

        Returns the closing token, or None when input ends first (malformed).
        """
        opener = self._next()
        if opener is None or opener.text not in _OPENERS:
            return opener
        closer = self._closer.get(self.pos - 1)
        if closer is None:
            self.pos = len(self.sig)
            return None
        self.pos = closer + 1
        return self.sig[closer]

    def _consume_to_semicolon(self) -> Token | None:
        """Consume until a ';' at bracket depth zero. Returns that token or
        the last one consumed when input ends first."""
        last: Token | None = None
        while True:
            tok = self._peek()
            if tok is None:
                return last
            if tok.kind == "punct" and tok.text in _OPENERS:
                last = self._consume_balanced()
                if last is None:
                    return None
                continue
            self.pos += 1
            last = tok
            if tok.kind == "punct" and tok.text == ";":
                return tok

    # -- declaration-head scanning ---------------------------------------

    def _scan_decl_head(self) -> tuple[str | None, int]:
        """Look ahead past annotations/modifiers/type parameters.

        Returns (type_keyword or None, significant-token offset of that
        keyword, or of the first token that is none of these). Does not
        consume anything.
        """
        offset = 0
        while True:
            tok = self._peek(offset)
            if tok is None:
                return None, offset
            if tok.kind == "punct" and tok.text == "@":
                nxt = self._peek(offset + 1)
                if nxt is not None and nxt.kind == "ident" and nxt.text == "interface":
                    return "@interface", offset
                # Annotation: @ Qualified.Name ( ... )?
                offset += 1
                while True:
                    name_tok = self._peek(offset)
                    if name_tok is None or name_tok.kind != "ident":
                        break
                    offset += 1
                    dot = self._peek(offset)
                    if dot is not None and dot.kind == "punct" and dot.text == ".":
                        offset += 1
                        continue
                    break
                paren = self._peek(offset)
                if paren is not None and paren.kind == "punct" and paren.text == "(":
                    closer = self._closer.get(self.pos + offset)
                    if closer is None:
                        return None, len(self.sig) - self.pos
                    offset = closer - self.pos + 1
                continue
            if tok.kind == "ident":
                if tok.text in MODIFIERS:
                    offset += 1
                    continue
                if tok.text == "non":
                    dash = self._peek(offset + 1)
                    sealed = self._peek(offset + 2)
                    if (
                        dash is not None
                        and dash.kind == "punct"
                        and dash.text == "-"
                        and sealed is not None
                        and sealed.text == "sealed"
                    ):
                        offset += 3
                        continue
                if tok.text in TYPE_KEYWORDS:
                    return tok.text, offset
                return None, offset
            if tok.kind == "punct" and tok.text == "<":
                depth = 0
                while True:
                    tok2 = self._peek(offset)
                    if tok2 is None:
                        return None, offset
                    if tok2.kind == "punct":
                        if tok2.text == "<":
                            depth += 1
                        elif tok2.text == ">":
                            depth -= 1
                    offset += 1
                    if depth == 0:
                        break
                continue
            return None, offset

    # -- grammar ----------------------------------------------------------

    def parse_unit(self) -> list[JavaNode]:
        nodes: list[JavaNode] = []
        while True:
            tok = self._peek()
            if tok is None:
                break
            if tok.kind == "ident" and tok.text == "package":
                nodes.append(self._parse_simple("package"))
                continue
            if tok.kind == "ident" and tok.text == "import":
                nodes.append(self._parse_simple("import"))
                continue
            keyword, offset = self._scan_decl_head()
            if keyword is not None:
                nodes.append(self._parse_type_decl(self._decl_start(), keyword, offset))
                continue
            if tok.kind == "punct" and tok.text == ";":
                self._next()  # stray top-level semicolon: residue
                continue
            nodes.append(self._recover_error())
        return nodes

    def _parse_simple(self, kind: str) -> JavaNode:
        start = self._decl_start()
        self.pos += 1  # keyword
        name_parts: list[str] = []
        tok = self._peek()
        while tok is not None and not (tok.kind == "punct" and tok.text == ";"):
            if tok.kind in ("ident", "punct"):
                name_parts.append(tok.text)
            self.pos += 1
            tok = self._peek()
        if tok is not None:
            self.pos += 1  # the ';'
            last = tok
        else:
            last = self.tokens[-1]
        return JavaNode(
            kind=kind,
            line_start=start,
            line_end=last.line_end,
            name="".join(name_parts) or None,
            malformed=tok is None,
        )

    def _parse_type_decl(self, start: int, keyword: str, offset: int) -> JavaNode:
        """Parse a type declaration whose keyword ``_scan_decl_head`` found
        ``offset`` significant tokens past the cursor."""
        self.pos += offset + (2 if keyword == "@interface" else 1)
        name_tok = self._peek()
        name = name_tok.text if name_tok is not None and name_tok.kind == "ident" else None
        # Header: everything before the body brace (extends/implements/record
        # components; generics cannot contain braces).
        last: Token | None = name_tok
        while True:
            tok = self._peek()
            if tok is None:
                return JavaNode(
                    "error",
                    start,
                    last.line_end if last is not None else start,
                    name=name,
                    malformed=True,
                )
            if tok.kind == "punct" and tok.text == "{":
                break
            if tok.kind == "punct" and tok.text == "(":
                last = self._consume_balanced()
                if last is None:
                    return JavaNode("error", start, self.tokens[-1].line_end, name=name, malformed=True)
                continue
            if tok.kind == "punct" and tok.text == ";":
                # Degenerate declaration without a body.
                last = self._next()
                return JavaNode("type", start, last.line_end, name=name, type_keyword=keyword)
            last = self._next()
        self._next()  # '{'
        node = JavaNode("type", start, 0, name=name, type_keyword=keyword)
        if keyword == "enum":
            constants = self._parse_enum_constants()
            if constants is not None:
                node.members.append(constants)
        closing = self._parse_members(node)
        if closing is None:
            node.line_end = self.tokens[-1].line_end
            node.malformed = True
        else:
            node.line_end = closing.line_end
        return node

    def _parse_enum_constants(self) -> JavaNode | None:
        first = self._peek()
        if first is None or (first.kind == "punct" and first.text in ("}", ";")):
            if first is not None and first.text == ";":
                self._next()
            return None
        start = first.line_start
        last = first
        while True:
            tok = self._peek()
            if tok is None:
                return JavaNode("enum_constants", start, last.line_end, malformed=True)
            if tok.kind == "punct" and tok.text == "}":
                return JavaNode("enum_constants", start, last.line_end)
            if tok.kind == "punct" and tok.text == ";":
                self.pos += 1
                return JavaNode("enum_constants", start, tok.line_end)
            if tok.kind == "punct" and tok.text in _OPENERS:
                closed = self._consume_balanced()
                if closed is None:
                    return JavaNode("enum_constants", start, last.line_end, malformed=True)
                last = closed
                continue
            self.pos += 1
            last = tok

    def _parse_members(self, type_node: JavaNode) -> Token | None:
        """Parse members until the type body's closing brace. Returns that
        closing token, or None at premature end of input."""
        while True:
            tok = self._peek()
            if tok is None:
                return None
            if tok.kind == "punct" and tok.text == "}":
                return self._next()
            if tok.kind == "punct" and tok.text == ";":
                self._next()  # stray semicolon: residue
                continue
            type_node.members.append(self._parse_member(type_node.name))

    def _parse_member(self, enclosing_name: str | None) -> JavaNode:
        first = self._peek()
        assert first is not None
        start = self._decl_start()

        if first.kind == "ident" and first.text == "static":
            nxt = self._peek(1)
            if nxt is not None and nxt.kind == "punct" and nxt.text == "{":
                self._next()  # 'static'
                first = nxt
        if first.kind == "punct" and first.text == "{":
            closing = self._consume_balanced()
            end = closing.line_end if closing is not None else self.tokens[-1].line_end
            return JavaNode("initializer", start, end, malformed=closing is None)

        keyword, offset = self._scan_decl_head()
        if keyword is not None:
            return self._parse_type_decl(start, keyword, offset)
        self.pos += offset
        return self._parse_field_or_callable(start, enclosing_name)

    def _parse_field_or_callable(self, start: int, enclosing_name: str | None) -> JavaNode:
        # Collect signature tokens until the decision point: '(' means a
        # callable, '=' or ';' a field, '{' a record compact constructor.
        sig: list[Token] = []
        while True:
            tok = self._peek()
            if tok is None:
                last_line = sig[-1].line_end if sig else self.tokens[-1].line_end
                return JavaNode("error", start, max(last_line, start), malformed=True)
            if tok.kind == "punct" and tok.text == "(":
                return self._finish_callable(start, sig, enclosing_name)
            if tok.kind == "punct" and tok.text in ("=", ";"):
                return self._finish_field(start, sig)
            if tok.kind == "punct" and tok.text == "{":
                name = sig[-1].text if sig and sig[-1].kind == "ident" else None
                closing = self._consume_balanced()
                end = closing.line_end if closing is not None else self.tokens[-1].line_end
                if name is not None and name == enclosing_name:
                    return JavaNode("constructor", start, end, name=name, malformed=closing is None)
                return JavaNode("error", start, end, malformed=True)
            if tok.kind == "punct" and tok.text == "}":
                # Unexpected body close: emit what we have as an error node
                # without consuming the brace (it closes the enclosing type).
                last_line = sig[-1].line_end if sig else start
                return JavaNode("error", start, max(last_line, start), malformed=True)
            self.pos += 1
            sig.append(tok)
    def _finish_callable(self, start: int, sig: list[Token], enclosing_name: str | None) -> JavaNode:
        name = sig[-1].text if sig and sig[-1].kind == "ident" else None
        idents = [t for t in sig if t.kind in ("ident", "number")]
        is_constructor = len(idents) == 1 and name is not None and name == enclosing_name
        params_close = self._consume_balanced()
        if params_close is None:
            return JavaNode("error", start, self.tokens[-1].line_end, name=name, malformed=True)
        last = params_close
        while True:
            tok = self._peek()
            if tok is None:
                return JavaNode("error", start, last.line_end, name=name, malformed=True)
            if tok.kind == "punct" and tok.text == "{":
                closing = self._consume_balanced()
                if closing is None:
                    return JavaNode(
                        "constructor" if is_constructor else "method",
                        start,
                        self.tokens[-1].line_end,
                        name=name,
                        malformed=True,
                    )
                last = closing
                break
            if tok.kind == "punct" and tok.text == ";":
                self.pos += 1
                last = tok
                break
            if tok.kind == "punct" and tok.text == "}":
                # Body never opened and the enclosing type is closing:
                # malformed declaration (do not consume the brace).
                return JavaNode("error", start, last.line_end, name=name, malformed=True)
            if tok.kind == "punct" and tok.text in _OPENERS:
                # Annotation-member default values and throws generics.
                closed = self._consume_balanced()
                if closed is None:
                    return JavaNode("error", start, self.tokens[-1].line_end, name=name, malformed=True)
                last = closed
                continue
            self.pos += 1
            last = tok
        return JavaNode(
            "constructor" if is_constructor else "method",
            start,
            last.line_end,
            name=name,
        )

    def _finish_field(self, start: int, sig: list[Token]) -> JavaNode:
        name = None
        for tok in reversed(sig):
            if tok.kind == "ident":
                name = tok.text
                break
        last = self._consume_to_semicolon()
        if last is None:
            return JavaNode("error", start, self.tokens[-1].line_end, name=name, malformed=True)
        return JavaNode("field", start, last.line_end, name=name)

    def _recover_error(self) -> JavaNode:
        start = self._decl_start()
        last: Token | None = None
        while True:
            tok = self._peek()
            if tok is None:
                break
            if tok.kind == "punct" and tok.text in _OPENERS:
                closed = self._consume_balanced()
                if closed is None:
                    last = self.tokens[-1]
                    break
                last = closed
                continue
            self.pos += 1
            last = tok
            if tok.kind == "punct" and tok.text == ";":
                break
        end = last.line_end if last is not None else start
        return JavaNode("error", start, max(end, start), malformed=True)


def parse_source(file_path: str, source: str) -> list[CompilationUnit]:
    """Parse one file into its compilation unit (always a 1-element list).

    Never raises: recoverable trouble surfaces as error nodes, and a file
    nested too deeply for the recursive descent becomes one error node
    spanning the whole file.
    """
    lines = _LINE.findall(source)
    try:
        nodes = _Parser(*_scan(source)).parse_unit()
    except RecursionError:
        nodes = [JavaNode("error", 1, len(lines), malformed=True)]
    unit = CompilationUnit(file_path=file_path, lines=lines, nodes=nodes)
    _clamp_spans(unit)
    return [unit]


def _clamp_spans(unit: CompilationUnit) -> None:
    """Keep every node span inside the file's real line range."""
    limit = max(unit.line_count, 1)
    stack = list(unit.nodes)
    while stack:
        node = stack.pop()
        node.line_start = min(max(node.line_start, 1), limit)
        node.line_end = min(max(node.line_end, node.line_start), limit)
        stack.extend(node.members)
