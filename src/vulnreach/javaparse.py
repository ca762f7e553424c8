"""Error-tolerant declaration-level parsing of Java source.

Segmentation only needs the shallow shape of a file: package/import
declarations and type declarations at the top level, and field, method,
constructor, initializer and nested-type members inside type bodies.
Statement-level structure is never modeled; bodies are consumed by bracket
balancing with full string/comment awareness, so arbitrary (including
syntactically broken) content inside bodies cannot derail the scan. One
regular-expression search per file finds only its comments, literals and
brackets, and pairs the brackets on one stack. The parser's cursor is a
source offset: a token, and the comment run before it, is scanned only when
the parser reads it, and from an opener the cursor jumps past its closer, so
a consumed body is never tokenized. Open type bodies wait on an explicit
stack, so a file of any nesting depth takes the one parse path.

Anything that cannot be recognized is captured as an ``error`` node that
still carries an exact line span. Downstream segmentation turns error nodes
into ordinary blocks, which keeps the line-coverage invariant intact on
real-world corpora containing unparseable files.
"""
from __future__ import annotations

import re
import string
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

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

# The tokens that can span lines: comments, text blocks, and string and char
# literals (ending at their quote, an unescaped line terminator or end of
# input; a backslash escapes one character, CRLF as one). No alternative can
# fail once its loop stops, so no scan backtracks.
_SPANNING = r"""
      //[^\r\n]*
    | /\*[^*]*(?:\*+(?!/)[^*]*)*(?:\*/)?
    | \"\"\"[^"\\]*(?:(?:\\.|"(?!""))[^"\\]*)*(?:\"\"\"|\\?\Z)
    | "[^"\\\r\n]*(?:\\(?:\r\n|.)?[^"\\\r\n]*)*"?
    | '[^'\\\r\n]*(?:\\(?:\r\n|.)?[^'\\\r\n]*)*'?
"""
# One token: a spanning one, an identifier, a number, a run of line
# terminators (read only to be skipped), or any other character but a blank
# (space, tab, FF, VT) as punctuation. Each match consumes the blank run
# before its token, so blanks are not tried one by one; at the end of input
# the token is empty.
_TOKEN = re.compile(
    r"[ \t\f\v]* (" + _SPANNING + r"""
    | [A-Za-z_$][A-Za-z0-9_$]*
    | [0-9][A-Za-z0-9_$.]*
    | [\r\n]+
    | [^ \t\f\v]
    | \Z
    )""",
    re.DOTALL | re.VERBOSE,
)
# A file's structure: its spanning tokens and its brackets. No other token
# holds a quote, a slash or a bracket, so each one this search meets starts a
# token, exactly as in a scan from the start of the file. Every alternative
# starts with a literal character, so the search skips ahead to the next such
# character without trying each alternative at every position.
_STRUCTURE = re.compile(r"\( | \{ | \[ | \) | \} | \] |" + _SPANNING, re.DOTALL | re.VERBOSE)
# A token's kind by its first character, else punctuation. Comments and
# literals are the only tokens that can span lines; "/" alone is punctuation.
_KIND = dict.fromkeys(string.ascii_letters + "_$", "ident") | dict.fromkeys(string.digits, "number")
_SPANNING_KIND = {'"': "string", "'": "char", "/": "comment"}


class Token(NamedTuple):
    # A NamedTuple rather than a frozen dataclass: the parser builds one per
    # token it reads, and tuple construction is several times cheaper.
    kind: str  # ident | number | string | char | punct | comment
    text: str
    line_start: int
    line_end: int


def _token(text: str, line: int) -> Token:
    """The token of ``text``, starting on ``line``; lines end at LF, CRLF or a
    lone CR (JLS 3.4)."""
    lead = text[0]
    if lead in _SPANNING_KIND and text != "/":
        breaks = text.count("\n") + text.count("\r") - text.count("\r\n")
        return Token(_SPANNING_KIND[lead], text, line, line + breaks)
    return Token(_KIND.get(lead, "punct"), text, line, line)


def lex(source: str) -> list[Token]:
    """Tokenize Java source, keeping comments as tokens (needed for
    attaching leading comment runs to declarations). Lines end at LF, CRLF
    or a lone CR, as in :attr:`CompilationUnit.line_starts`."""
    parser = _Parser(source)
    tokens: list[Token] = []
    while True:
        tok, parser.pos, comments = parser._scan(parser.pos)
        tokens += comments
        if tok is None:
            return tokens
        tokens.append(tok)


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
    source: str
    # The offset where each line starts, then ``len(source)``. A line ends at
    # LF, CRLF or a lone CR (JLS 3.4), and keeps its terminator.
    line_starts: np.ndarray
    nodes: list[JavaNode]

    @property
    def line_count(self) -> int:
        return len(self.line_starts) - 1

    def slice_text(self, line_start: int, line_end: int) -> str:
        return self.source[self.line_starts[line_start - 1] : self.line_starts[line_end]]

    def token_count(self, line_start: int, line_end: int) -> int:
        """``DEFAULT_TOKENIZER.count(self.slice_text(line_start, line_end))``.

        No token contains whitespace, and every line but the first starts
        after a line terminator, so no token spans a line start: the counts
        of the source up to each line start are taken in one pass, on first
        use, and a span's count is a difference of two of them.
        """
        prefix = self._token_prefix
        return int(prefix[line_end] - prefix[line_start - 1])

    @cached_property
    def _token_prefix(self) -> np.ndarray:
        return DEFAULT_TOKENIZER.count_prefixes(self.source, self.line_starts)

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
    """The grammar, over a cursor whose positions are source offsets.

    The cursor sits where the last consumed token ends. A significant token,
    and the comment run before it, is scanned from there with
    ``_TOKEN.match`` only when the parser peeks at it, and kept. From an
    opener the cursor jumps to the end of the closer the file's
    ``_STRUCTURE`` search paired with it, so a consumed body is never
    tokenized. Every scan starts at the end of a token of a scan from the
    start of the file, or at one of its brackets, so each token read is that
    scan's.
    """

    def __init__(self, source: str):
        self.source = source
        # One byte per character: "replace" makes each one past U+00FF a "?".
        chars = np.frombuffer(source.encode("latin-1", "replace"), np.uint8)
        ends = chars == 10  # LF
        ends[:-1] |= (chars[:-1] == 13) & ~ends[1:]  # CR, unless CRLF
        ends[-1:] = True  # the last line ends with the file
        self.line_starts = np.flatnonzero(np.concatenate(([True], ends)))
        self._starts = self.line_starts.tolist()  # bisect reads a list fastest
        # All brackets nest on one stack, so lambdas and anonymous classes
        # inside argument lists balance; an opener left open at end of input
        # has no partner.
        self._closer: dict[int, int] = {}
        stack: list[int] = []
        self._last_span: re.Match[str] | None = None
        for match in _STRUCTURE.finditer(source):
            at = match.start()
            if source[at] in "({[":
                stack.append(at)
            elif source[at] not in ")}]":
                self._last_span = match
            elif stack:
                self._closer[stack.pop()] = at
        self._scanned: dict[int, tuple[Token | None, int, list[Token]]] = {}
        self.pos = 0

    # -- token access -------------------------------------------------

    def _scan(self, pos: int) -> tuple[Token | None, int, list[Token]]:
        """The first significant token from offset ``pos`` (None at end of
        input), the offset where it ends, and the comments before it."""
        scanned = self._scanned.get(pos)
        if scanned is None:
            comments: list[Token] = []
            end = pos
            while text := (match := _TOKEN.match(self.source, end))[1]:
                end = match.end()
                if text[0] in "\r\n":
                    continue
                tok = _token(text, bisect_right(self._starts, match.start(1)))
                if tok.kind != "comment":
                    break
                comments.append(tok)
            else:
                tok = None
            scanned = self._scanned[pos] = (tok, end, comments)
        return scanned

    def _peek(self) -> Token | None:
        """Next significant token (skipping comments), without consuming."""
        return self._scan(self.pos)[0]

    def _next(self) -> Token | None:
        """Consume and return the next significant token."""
        tok, self.pos, _ = self._scan(self.pos)
        return tok

    @cached_property
    def _end_line(self) -> int:
        """The line the file's last token ends on: that of its last
        character that is no blank or line terminator, or a later one where
        the last comment or literal ends in a line terminator."""
        end = bisect_right(self._starts, len(self.source.rstrip(" \t\f\v\r\n")) - 1)
        if (span := self._last_span) is not None:
            end = max(end, _token(span[0], bisect_right(self._starts, span.start())).line_end)
        return end

    def _decl_start(self) -> int:
        """First line of the declaration at the cursor: the line where the
        comment run directly above it starts, else its own first line.

        A run attaches when each comment ends on the line directly above the
        next element (javadoc style); a blank line breaks it.
        """
        tok, _, comments = self._scan(self.pos)
        anchor = tok.line_start
        for comment in reversed(comments):
            if anchor - comment.line_end > 1:
                break
            anchor = comment.line_start
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
            self.pos = len(self.source)
            return None
        self.pos = closer
        return self._next()

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
            self._next()
            last = tok
            if tok.kind == "punct" and tok.text == ";":
                return tok

    # -- declaration-head scanning ---------------------------------------

    def _scan_decl_head(self) -> tuple[str | None, int]:
        """Look ahead past annotations/modifiers/type parameters.

        Returns (type_keyword or None, the cursor offset before that
        keyword, or before the first token that is none of these). Does not
        consume anything: the walk keeps its own offset.
        """
        at = self.pos
        while True:
            tok, end, _ = self._scan(at)
            if tok is None:
                return None, at
            if tok.kind == "punct" and tok.text == "@":
                nxt = self._scan(end)[0]
                if nxt is not None and nxt.kind == "ident" and nxt.text == "interface":
                    return "@interface", at
                # Annotation: @ Qualified.Name ( ... )?
                at = end
                while True:
                    name_tok, end, _ = self._scan(at)
                    if name_tok is None or name_tok.kind != "ident":
                        break
                    at = end
                    dot, end, _ = self._scan(at)
                    if dot is not None and dot.kind == "punct" and dot.text == ".":
                        at = end
                        continue
                    break
                paren, end, _ = self._scan(at)
                if paren is not None and paren.kind == "punct" and paren.text == "(":
                    closer = self._closer.get(end - 1)
                    if closer is None:
                        return None, len(self.source)
                    at = closer + 1
                continue
            if tok.kind == "ident":
                if tok.text in MODIFIERS:
                    at = end
                    continue
                if tok.text == "non":
                    dash, after, _ = self._scan(end)
                    sealed, after, _ = self._scan(after)
                    if dash is not None and dash.text == "-" and sealed is not None and sealed.text == "sealed":
                        at = after
                        continue
                if tok.text in TYPE_KEYWORDS:
                    return tok.text, at
                return None, at
            if tok.kind == "punct" and tok.text == "<":
                depth = 0
                while True:
                    tok2, end, _ = self._scan(at)
                    if tok2 is None:
                        return None, at
                    if tok2.kind == "punct":
                        if tok2.text == "<":
                            depth += 1
                        elif tok2.text == ">":
                            depth -= 1
                    at = end
                    if depth == 0:
                        break
                continue
            return None, at

    # -- grammar ----------------------------------------------------------

    def parse_unit(self) -> list[JavaNode]:
        """The file's top-level nodes. Every type body is parsed in this one
        loop, over a stack of the types whose bodies are open (innermost
        last), so a file of any nesting depth takes the same path."""
        nodes: list[JavaNode] = []
        open_types: list[JavaNode] = []
        while (tok := self._peek()) is not None:
            if tok.kind == "punct" and tok.text == ";":
                self._next()  # stray semicolon: residue
                continue
            if open_types:
                if tok.kind == "punct" and tok.text == "}":
                    self._next()
                    open_types.pop().line_end = tok.line_end
                    continue
                top = open_types[-1]
                node = self._parse_member(top.name)
                top.members.append(node)
            elif tok.kind == "ident" and tok.text in ("package", "import"):
                node = self._parse_simple(tok.text)
                nodes.append(node)
            else:
                keyword, at = self._scan_decl_head()
                if keyword is None:
                    node = self._recover_error()
                else:
                    node = self._parse_type_decl(self._decl_start(), keyword, at)
                nodes.append(node)
            if node.line_end == 0:  # a type whose body is open
                open_types.append(node)
        for node in open_types:  # input ended inside these bodies
            node.line_end = self._end_line
            node.malformed = True
        return nodes

    def _parse_simple(self, kind: str) -> JavaNode:
        start = self._decl_start()
        self._next()  # keyword
        name_parts: list[str] = []
        tok = self._peek()
        while tok is not None and not (tok.kind == "punct" and tok.text == ";"):
            if tok.kind in ("ident", "punct"):
                name_parts.append(tok.text)
            self._next()
            tok = self._peek()
        if tok is not None:
            self._next()  # the ';'
        return JavaNode(
            kind=kind,
            line_start=start,
            line_end=self._end_line if tok is None else tok.line_end,
            name="".join(name_parts) or None,
            malformed=tok is None,
        )

    def _parse_type_decl(self, start: int, keyword: str, at: int) -> JavaNode:
        """Parse the head of a type declaration whose keyword
        ``_scan_decl_head`` found at cursor offset ``at``, up to its body's
        ``{`` and an enum's constants. A type whose body opens is returned
        with ``line_end`` 0, for ``parse_unit`` to parse its members and
        closing brace."""
        self.pos = at
        self._next()
        if keyword == "@interface":
            self._next()
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
                    return JavaNode("error", start, self._end_line, name=name, malformed=True)
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
                self._next()
                return JavaNode("enum_constants", start, tok.line_end)
            if tok.kind == "punct" and tok.text in _OPENERS:
                closed = self._consume_balanced()
                if closed is None:
                    return JavaNode("enum_constants", start, last.line_end, malformed=True)
                last = closed
                continue
            self._next()
            last = tok

    def _parse_member(self, enclosing_name: str | None) -> JavaNode:
        first = self._peek()
        assert first is not None
        start = self._decl_start()

        if first.kind == "ident" and first.text == "static":
            nxt = self._scan(self._scan(self.pos)[1])[0]
            if nxt is not None and nxt.kind == "punct" and nxt.text == "{":
                self._next()  # 'static'
                first = nxt
        if first.kind == "punct" and first.text == "{":
            closing = self._consume_balanced()
            end = closing.line_end if closing is not None else self._end_line
            return JavaNode("initializer", start, end, malformed=closing is None)

        keyword, at = self._scan_decl_head()
        if keyword is not None:
            return self._parse_type_decl(start, keyword, at)
        self.pos = at
        return self._parse_field_or_callable(start, enclosing_name)

    def _parse_field_or_callable(self, start: int, enclosing_name: str | None) -> JavaNode:
        # Collect signature tokens until the decision point: '(' means a
        # callable, '=' or ';' a field, '{' a record compact constructor.
        sig: list[Token] = []
        while True:
            tok = self._peek()
            if tok is None:
                return JavaNode("error", start, sig[-1].line_end if sig else self._end_line, malformed=True)
            if tok.kind == "punct" and tok.text == "(":
                return self._finish_callable(start, sig, enclosing_name)
            if tok.kind == "punct" and tok.text in ("=", ";"):
                return self._finish_field(start, sig)
            if tok.kind == "punct" and tok.text == "{":
                name = sig[-1].text if sig and sig[-1].kind == "ident" else None
                closing = self._consume_balanced()
                end = closing.line_end if closing is not None else self._end_line
                if name is not None and name == enclosing_name:
                    return JavaNode("constructor", start, end, name=name, malformed=closing is None)
                return JavaNode("error", start, end, malformed=True)
            if tok.kind == "punct" and tok.text == "}":
                # Unexpected body close: emit what we have as an error node
                # without consuming the brace (it closes the enclosing type).
                return JavaNode("error", start, sig[-1].line_end if sig else start, malformed=True)
            self._next()
            sig.append(tok)
    def _finish_callable(self, start: int, sig: list[Token], enclosing_name: str | None) -> JavaNode:
        name = sig[-1].text if sig and sig[-1].kind == "ident" else None
        idents = [t for t in sig if t.kind in ("ident", "number")]
        is_constructor = len(idents) == 1 and name is not None and name == enclosing_name
        params_close = self._consume_balanced()
        if params_close is None:
            return JavaNode("error", start, self._end_line, name=name, malformed=True)
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
                        self._end_line,
                        name=name,
                        malformed=True,
                    )
                last = closing
                break
            if tok.kind == "punct" and tok.text == ";":
                self._next()
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
                    return JavaNode("error", start, self._end_line, name=name, malformed=True)
                last = closed
                continue
            self._next()
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
            return JavaNode("error", start, self._end_line, name=name, malformed=True)
        return JavaNode("field", start, last.line_end, name=name)

    def _recover_error(self) -> JavaNode:
        """An error node over the tokens from the cursor up to a ``;``, the
        end of the file, or the head of a type declaration, which is left for
        ``parse_unit``; a bracketed run is taken whole. A head scan that finds
        no type keyword is not repeated inside the tokens it passed over, so
        recovery stays linear in the tokens."""
        start = end = self._decl_start()
        next_scan = self._scan(self.pos)[1]  # parse_unit found no head at the cursor
        while True:
            tok, after, _ = self._scan(self.pos)
            if tok is None:
                break
            if self.pos >= next_scan:
                keyword, at = self._scan_decl_head()
                if keyword is not None:
                    break
                next_scan = max(at, after)
            if tok.kind == "punct" and tok.text in _OPENERS:
                closed = self._consume_balanced()
                if closed is None:
                    end = self._end_line
                    break
                end = closed.line_end
                continue
            self.pos = after
            end = tok.line_end
            if tok.kind == "punct" and tok.text == ";":
                break
        return JavaNode("error", start, end, malformed=True)


def parse_source(file_path: str, source: str) -> list[CompilationUnit]:
    """Parse one file into its compilation unit (always a 1-element list).

    Never raises: recoverable trouble surfaces as error nodes. Nesting
    depth is bounded by memory alone, as no step recurses.
    """
    parser = _Parser(source)
    unit = CompilationUnit(file_path, source, parser.line_starts, parser.parse_unit())
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
