"""The reference Java front end the parser is checked against.

``reference_lex`` is a per-character lexer. ``ReferenceParser`` is the
parser's grammar over a list of all of ``reference_lex``'s tokens, with the
significant ones, their comment runs and their bracket pairs built up front.
``reference_lines`` splits lines one character at a time.
"""

from __future__ import annotations

import re

from vulnreach.javaparse import MODIFIERS, TYPE_KEYWORDS, JavaNode, Token

_OPENERS = frozenset("({[")
_CLOSERS = frozenset(")}]")
_IDENT_START = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_$")
_IDENT_PART = _IDENT_START | frozenset("0123456789")


def _line_breaks(text: str) -> int:
    return text.count("\n") + text.count("\r") - text.count("\r\n")


def _literal_end(source: str, i: int, quote: str) -> int:
    n = len(source)
    stop = quote + "\r\n"
    j = i + 1
    while j < n and source[j] not in stop:
        if source[j] == "\\":
            j += source.startswith("\r\n", j + 1)
            j += 1
        j += 1
    if j < n and source[j] == quote:
        j += 1
    return min(j, n)


def reference_lex(source: str) -> list[Token]:
    """The per-character lexer ``lex`` replaced, kept as its reference."""
    tokens: list[Token] = []
    i = 0
    n = len(source)
    line = 1
    while i < n:
        ch = source[i]
        if ch in " \t\f\v":
            i += 1
            continue
        if ch == "\n":
            line += 1
            i += 1
            continue
        if ch == "\r":
            if not source.startswith("\n", i + 1):
                line += 1
            i += 1
            continue
        start_line = line
        if ch == "/" and i + 1 < n:
            nxt = source[i + 1]
            if nxt == "/":
                eol = re.compile(r"[\r\n]").search(source, i)
                j = eol.start() if eol else n
                tokens.append(Token("comment", source[i:j], start_line, start_line))
                i = j
                continue
            if nxt == "*":
                j = source.find("*/", i + 2)
                text = source[i:] if j == -1 else source[i : j + 2]
                i = n if j == -1 else j + 2
                line += _line_breaks(text)
                tokens.append(Token("comment", text, start_line, line))
                continue
        if ch in "\"'":
            if source.startswith('"""', i):
                j = i + 3
                while j < n:
                    if source[j] == "\\":
                        j += 2
                        continue
                    if source.startswith('"""', j):
                        j += 3
                        break
                    j += 1
                else:
                    j = n
            else:
                j = _literal_end(source, i, ch)
            text = source[i:j]
            i = j
            line += _line_breaks(text)
            tokens.append(Token("string" if ch == '"' else "char", text, start_line, line))
            continue
        if ch in _IDENT_START:
            j = i + 1
            while j < n and source[j] in _IDENT_PART:
                j += 1
            tokens.append(Token("ident", source[i:j], start_line, start_line))
            i = j
            continue
        if ch in "0123456789":
            j = i + 1
            while j < n and (source[j] in _IDENT_PART or source[j] == "."):
                j += 1
            tokens.append(Token("number", source[i:j], start_line, start_line))
            i = j
            continue
        tokens.append(Token("punct", ch, start_line, start_line))
        i += 1
    return tokens


class ReferenceParser:
    """The token-list parser: every token lexed up front, the cursor an index
    into the significant ones."""

    def __init__(self, source: str):
        # The token lists, comment runs and bracket pairs, built eagerly from
        # reference_lex's tokens: the significant tokens the cursor walks
        # (``sig``), the comment run directly before each significant token
        # that has one (``_comments``) and each opener's partner
        # (``_closer``), all brackets nesting on one stack.
        self.tokens = reference_lex(source)
        self.sig: list[Token] = []
        self._comments: dict[int, list[Token]] = {}
        for tok in self.tokens:
            if tok.kind == "comment":
                self._comments.setdefault(len(self.sig), []).append(tok)
            else:
                self.sig.append(tok)
        self._closer: dict[int, int] = {}
        stack: list[int] = []
        for i, tok in enumerate(self.sig):
            if tok.kind == "punct":
                if tok.text in _OPENERS:
                    stack.append(i)
                elif tok.text in _CLOSERS and stack:
                    self._closer[stack.pop()] = i
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
        """The file's top-level nodes. Every type body is parsed in this one
        loop, over a stack of the types whose bodies are open (innermost
        last), so a file of any nesting depth takes the same path."""
        nodes: list[JavaNode] = []
        open_types: list[JavaNode] = []
        while (tok := self._peek()) is not None:
            if tok.kind == "punct" and tok.text == ";":
                self.pos += 1  # stray semicolon: residue
                continue
            if open_types:
                if tok.kind == "punct" and tok.text == "}":
                    self.pos += 1
                    open_types.pop().line_end = tok.line_end
                    continue
                top = open_types[-1]
                node = self._parse_member(top.name)
                top.members.append(node)
            elif tok.kind == "ident" and tok.text in ("package", "import"):
                node = self._parse_simple(tok.text)
                nodes.append(node)
            else:
                keyword, offset = self._scan_decl_head()
                if keyword is None:
                    node = self._recover_error()
                else:
                    node = self._parse_type_decl(self._decl_start(), keyword, offset)
                nodes.append(node)
            if node.line_end == 0:  # a type whose body is open
                open_types.append(node)
        for node in open_types:  # input ended inside these bodies
            node.line_end = self.tokens[-1].line_end
            node.malformed = True
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
        """Parse the head of a type declaration whose keyword
        ``_scan_decl_head`` found ``offset`` significant tokens past the
        cursor, up to its body's ``{`` and an enum's constants. A type whose
        body opens is returned with ``line_end`` 0, for ``parse_unit`` to
        parse its members and closing brace."""
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
        """An error node over the tokens from the cursor up to a ``;``, the
        end of the file, or the head of a type declaration, which is left for
        ``parse_unit``; a bracketed run is taken whole. A head scan that finds
        no type keyword is not repeated inside the tokens it passed over, so
        recovery stays linear in the tokens."""
        start = self._decl_start()
        last: Token | None = None
        next_scan = self.pos + 1  # parse_unit found no head at the cursor
        while True:
            tok = self._peek()
            if tok is None:
                break
            if self.pos >= next_scan:
                keyword, offset = self._scan_decl_head()
                if keyword is not None:
                    break
                next_scan = self.pos + max(offset, 1)
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


def reference_parse(source: str) -> list[JavaNode]:
    """``ReferenceParser``'s nodes, clamped to the file's lines as
    ``parse_source`` clamps them."""
    nodes = ReferenceParser(source).parse_unit()
    limit = max(len(reference_lines(source)), 1)
    stack = list(nodes)
    while stack:
        node = stack.pop()
        node.line_start = min(max(node.line_start, 1), limit)
        node.line_end = min(max(node.line_end, node.line_start), limit)
        stack.extend(node.members)
    return nodes


def reference_lines(source: str) -> list[str]:
    """The lines of ``source``, each ending at LF, CRLF or a lone CR with
    its terminator kept (JLS 3.4)."""
    lines: list[str] = []
    start = 0
    for i, ch in enumerate(source):
        if ch == "\n" or (ch == "\r" and not source.startswith("\n", i + 1)):
            lines.append(source[start : i + 1])
            start = i + 1
    if start < len(source):
        lines.append(source[start:])
    return lines
