import bisect
import itertools
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import JAVA_SOURCES, record_token_counts
from vulnreach.javaparse import _OPENERS, _CLOSERS, Token, _Parser, lex, parse_source
from vulnreach.tokenizer import DEFAULT_TOKENIZER

# What lex skips between tokens; every other character starts one.
_LEX_SPACE = " \t\f\v\r\n"


def kinds(unit):
    return [n.kind for n in unit.nodes]


class TestLexer:
    def test_strings_and_comments_hide_braces(self):
        tokens = lex('x = "a { b"; // {\n/* } */ y = \'{\';')
        punct = [t.text for t in tokens if t.kind == "punct"]
        assert "{" not in punct and "}" not in punct

    def test_text_block_spans_lines(self):
        tokens = lex('String s = """\nline {one}\n""";')
        block = next(t for t in tokens if t.kind == "string")
        assert block.line_start == 1 and block.line_end == 3

    def test_line_numbers(self):
        tokens = lex("a\nb\n\nc")
        assert [(t.text, t.line_start) for t in tokens if t.kind == "ident"] == [
            ("a", 1),
            ("b", 2),
            ("c", 4),
        ]


class TestParseSource:
    def test_minimal_class(self):
        unit = parse_source("A.java", "class A { void m() {} }")[0]
        assert len(unit.nodes) == 1
        node = unit.nodes[0]
        assert node.kind == "type" and node.name == "A"
        assert [m.kind for m in node.members] == ["method"]
        assert node.members[0].name == "m"

    def test_empty_source_yields_unit_with_no_declarations(self):
        unit = parse_source("Empty.java", "")[0]
        assert unit.nodes == [] and unit.line_count == 0

    def test_broken_method_becomes_error_node_spanning_the_damage(self):
        # Derived oracle: the error-tolerant parse of this exact text wraps
        # the malformed method in an error member covering line 1.
        unit = parse_source("Broken.java", "class A { void m( }")[0]
        node = unit.nodes[0]
        assert node.kind == "type" and node.malformed
        assert [m.kind for m in node.members] == ["error"]
        assert (node.members[0].line_start, node.members[0].line_end) == (1, 1)

    def test_package_and_imports(self):
        unit = parse_source(
            "A.java", "package p.q;\nimport java.util.List;\nimport static java.lang.Math.max;\n"
        )[0]
        assert kinds(unit) == ["package", "import", "import"]
        assert unit.nodes[1].name == "java.util.List"

    def test_constructor_vs_method(self):
        src = (
            "class Widget {\n"
            "    public Widget(int size) {}\n"
            "    public Widget copy() { return this; }\n"
            "    <T> T generic(T t) { return t; }\n"
            "}\n"
        )
        members = parse_source("W.java", src)[0].nodes[0].members
        assert [(m.kind, m.name) for m in members] == [
            ("constructor", "Widget"),
            ("method", "copy"),
            ("method", "generic"),
        ]

    def test_record_compact_constructor(self):
        src = "record Point(int x, int y) {\n    public Point {\n        assert x >= 0;\n    }\n}\n"
        members = parse_source("P.java", src)[0].nodes[0].members
        assert [(m.kind, m.name) for m in members] == [("constructor", "Point")]

    def test_enum_constants_are_one_member(self):
        src = (
            "enum Status {\n"
            "    OPEN(1), CLOSED(2) { void hook() {} };\n"
            "    private final int code;\n"
            "    Status(int code) { this.code = code; }\n"
            "}\n"
        )
        members = parse_source("S.java", src)[0].nodes[0].members
        assert [m.kind for m in members] == ["enum_constants", "field", "constructor"]

    def test_annotation_type_with_defaults(self):
        src = '@interface Marker {\n    String value() default "x";\n    int[] counts() default {1, 2};\n}\n'
        members = parse_source("M.java", src)[0].nodes[0].members
        assert [m.kind for m in members] == ["method", "method"]

    def test_fields_with_lambdas_and_anonymous_classes(self):
        src = (
            "class H {\n"
            "    Runnable task = () -> { run(); };\n"
            "    Object o = new Object() {\n"
            "        public String toString() { return \"{x}\"; }\n"
            "    };\n"
            "}\n"
        )
        members = parse_source("H.java", src)[0].nodes[0].members
        assert [m.kind for m in members] == ["field", "field"]
        assert members[1].line_end == 5

    def test_initializer_blocks(self):
        src = "class I {\n    static { setup(); }\n    { instance(); }\n}\n"
        members = parse_source("I.java", src)[0].nodes[0].members
        assert [m.kind for m in members] == ["initializer", "initializer"]

    def test_nested_types_recorded_with_paths(self):
        src = "class Outer {\n    class Inner {\n        void deep() {}\n    }\n}\n"
        unit = parse_source("O.java", src)[0]
        paths = [dotted for _, dotted in unit.iter_types()]
        assert paths == ["Outer", "Outer.Inner"]

    def test_types_are_listed_outermost_first_in_declaration_order(self):
        src = "class Outer {\n    class A {}\n    class B { class C {} }\n}\nclass D {}\n"
        paths = [dotted for _, dotted in parse_source("O.java", src)[0].iter_types()]
        assert paths == ["Outer", "Outer.A", "Outer.B", "Outer.B.C", "D"]

    def test_javadoc_attaches_to_following_declaration(self):
        src = "class B {\n    /** doc */\n    void m() {}\n}\n"
        member = parse_source("B.java", src)[0].nodes[0].members[0]
        assert (member.line_start, member.line_end) == (2, 3)

    def test_detached_comment_does_not_attach(self):
        src = "class B {\n    /** orphan */\n\n    void m() {}\n}\n"
        member = parse_source("B.java", src)[0].nodes[0].members[0]
        assert member.line_start == 4

    def test_unclosed_body_is_tolerated(self):
        unit = parse_source("U.java", "class U {\n    void m() {\n        int x = 1;\n")[0]
        node = unit.nodes[0]
        assert node.kind == "type" and node.malformed
        assert node.line_end == 3

    def test_stray_top_level_garbage_becomes_error(self):
        for source, members in ((") ;\nclass A {}\n", []), ("}\nclass After {\n    void m() {}\n}\n", ["m"])):
            unit = parse_source("G.java", source)[0]
            assert kinds(unit) == ["error", "type"], source
            assert [member.name for member in unit.nodes[1].members] == members, source

    def test_recovery_scans_each_head_once(self):
        # Each "public" after the stray closer starts a head scan that runs
        # past every unbalanced "<" to the end of the input.
        for piece in (" public <", " <", " public"):
            source = "}\n" + piece * 20000 + " x"
            start = time.perf_counter()
            unit = parse_source("G.java", source)[0]
            assert time.perf_counter() - start < 10.0, piece
            assert kinds(unit) == ["error"], piece


def walk(nodes):
    for node in nodes:
        yield node
        yield from walk(node.members)


class TestFuzzNet:
    @settings(max_examples=300, deadline=None)
    @given(JAVA_SOURCES)
    def test_parse_never_raises_and_lines_agree(self, source):
        unit = parse_source("F.java", source)[0]
        assert "".join(unit.lines) == source
        for k, line in enumerate(unit.lines):
            # One terminator per line, at its end; only the last may lack it.
            body = line.removesuffix("\n").removesuffix("\r")
            assert "\r" not in body and "\n" not in body
            assert body != line or k == unit.line_count - 1
        # Each token's line_start is the unit line holding its first char.
        line_ends = list(itertools.accumulate(len(line) for line in unit.lines))
        pos = 0
        for tok in lex(source):
            while source[pos] in _LEX_SPACE:
                pos += 1
            assert source.startswith(tok.text, pos)
            assert tok.line_start == bisect.bisect_right(line_ends, pos) + 1
            assert tok.line_end >= tok.line_start
            pos += len(tok.text)
        assert not source[pos:].strip(_LEX_SPACE)
        for node in walk(unit.nodes):
            assert 1 <= node.line_start <= node.line_end <= unit.line_count

    def test_annotation_naming_class_literal_keeps_type_name(self):
        src = (
            "@RunWith(SpringRunner.class) public class OrderServiceTest {\n"
            "    public OrderServiceTest() {}\n"
            "}\n"
        )
        node = parse_source("T.java", src)[0].nodes[0]
        assert (node.kind, node.name, node.type_keyword) == ("type", "OrderServiceTest", "class")
        assert [(m.kind, m.name) for m in node.members] == [("constructor", "OrderServiceTest")]

    def test_nested_annotation_naming_class_literal_keeps_type_name(self):
        src = (
            "class Outer {\n"
            "    @Ann(value = Foo.class) static class Inner {\n"
            "        Inner() {}\n"
            "    }\n"
            "}\n"
        )
        unit = parse_source("O.java", src)[0]
        assert [dotted for _, dotted in unit.iter_types()] == ["Outer", "Outer.Inner"]
        inner = unit.nodes[0].members[0]
        assert [(m.kind, m.name) for m in inner.members] == [("constructor", "Inner")]

    def test_lone_cr_ends_lines(self):
        unit = parse_source("C.java", "class A {\r    int x;\r    void m() {\r    }\r}\r")[0]
        assert unit.line_count == 5
        members = unit.nodes[0].members
        assert [(m.kind, m.line_start, m.line_end) for m in members] == [
            ("field", 2, 2),
            ("method", 3, 4),
        ]

    def test_form_feed_and_line_separator_do_not_end_lines(self):
        src = "// page\f break \u2028 in a comment\nclass A {\f\n    void m() {}\n}\n"
        unit = parse_source("F.java", src)[0]
        assert unit.line_count == 4
        method = unit.nodes[0].members[0]
        assert (method.kind, method.line_start) == ("method", 3)
        assert unit.slice_text(method.line_start, method.line_end) == "    void m() {}\n"

    def test_escaped_line_break_in_string_advances_lines(self):
        for eol in ("\n", "\r\n", "\r"):
            src = eol.join(["class A {", '    String s = "a\\', 'b";', "    void m() {}", "}", ""])
            members = parse_source("S.java", src)[0].nodes[0].members
            assert [(m.kind, m.line_start, m.line_end) for m in members] == [
                ("field", 2, 3),
                ("method", 4, 4),
            ]

    @pytest.mark.parametrize("depth", [400, 2000])
    def test_deep_nesting_parses_every_type(self, depth):
        # Far past the interpreter's recursion limit: no step of the parser
        # recurses, so every level is its own type node.
        src = "class A {\n" * depth + "void m() {}\n" + "}\n" * depth
        unit = parse_source("D.java", src)[0]
        node, level = unit.nodes[0], 1
        assert len(unit.nodes) == 1
        while node.members[0].kind == "type":
            assert (node.kind, node.name, node.malformed) == ("type", "A", False)
            assert (node.line_start, node.line_end) == (level, 2 * depth + 2 - level)
            assert len(node.members) == 1
            node, level = node.members[0], level + 1
        assert level == depth
        assert [(m.kind, m.name, m.line_start) for m in node.members] == [("method", "m", depth + 1)]


# JAVA_SOURCES joined with line terminators and with whitespace that does not
# end a line (U+2028, the \x1c-\x1f separators, NEL).
_SOURCES_WITH_SEPARATORS = st.lists(
    st.one_of(
        JAVA_SOURCES, st.sampled_from(["\r", "\n", "\r\n", "\u2028", "\x1c", "\x1d", "\x85"])
    ),
    max_size=4,
).map("".join)


def spans_to_check(line_count: int):
    """Every span of a short unit; of a long one, about 40 prefixes and 40
    suffixes, the whole unit among them."""
    if line_count <= 60:
        return itertools.combinations_with_replacement(range(1, line_count + 1), 2)
    ends = [*range(1, line_count, line_count // 40), line_count]
    return itertools.chain(((1, b) for b in ends), ((a, line_count) for a in ends))


def innermost_type_by_scan(types, line: int):
    """Reference for ``class_at``: scan every type, keep the narrowest span
    holding the line, the first declared among equals."""
    best, best_width = None, None
    for node, dotted in types:
        if node.line_start <= line <= node.line_end:
            width = node.line_end - node.line_start
            if best_width is None or width < best_width:
                best, best_width = dotted, width
    return best


class TestLineTables:
    @settings(max_examples=100, deadline=None)
    @given(_SOURCES_WITH_SEPARATORS)
    def test_span_token_counts_equal_counting_the_span_text(self, source):
        unit = parse_source("F.java", source)[0]
        for a, b in spans_to_check(unit.line_count):
            assert unit.token_count(a, b) == DEFAULT_TOKENIZER.count(unit.slice_text(a, b))

    def test_each_line_is_counted_once(self, monkeypatch):
        unit = parse_source("A.java", "class A {\r\n    int x = 1;\r    void m() { x++; }\n}")[0]
        spans = [(a, b) for a in range(1, 5) for b in range(a, 5)]
        expected = {span: DEFAULT_TOKENIZER.count(unit.slice_text(*span)) for span in spans}
        counted = record_token_counts(monkeypatch)
        assert {span: unit.token_count(*span) for span in expected} == expected
        assert counted == unit.lines

    @settings(max_examples=100, deadline=None)
    @given(_SOURCES_WITH_SEPARATORS)
    def test_class_at_matches_a_scan_of_every_type(self, source):
        unit = parse_source("F.java", source)[0]
        types = unit.iter_types()
        for line in range(1, unit.line_count + 1):
            assert unit.class_at(line) == innermost_type_by_scan(types, line)

    def test_class_at_names_the_innermost_type(self):
        src = "class Outer {\n    class Inner { int x; }\n    int y;\n}\nclass B {}\n"
        unit = parse_source("O.java", src)[0]
        assert [unit.class_at(line) for line in range(1, 6)] == [
            "Outer", "Outer.Inner", "Outer", "Outer", "B",
        ]
        # Of two types as narrow, the first declared is named.
        one_line = parse_source("L.java", "class A { class B {} }\n")[0]
        assert one_line.class_at(1) == "A"


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


def reference_parser(source: str) -> _Parser:
    """A parser over ``reference_lex``'s tokens, with the token lists,
    comment runs and bracket pairs built eagerly from ``Token``s, as the
    parser did before it built tokens only when read."""
    tokens = reference_lex(source)
    parser = _Parser.__new__(_Parser)
    parser.tokens = tokens
    parser.sig = []
    parser._comments = {}
    for tok in tokens:
        if tok.kind == "comment":
            parser._comments.setdefault(len(parser.sig), []).append(tok)
        else:
            parser.sig.append(tok)
    parser._closer = {}
    stack: list[int] = []
    for i, tok in enumerate(parser.sig):
        if tok.kind == "punct":
            if tok.text in _OPENERS:
                stack.append(i)
            elif tok.text in _CLOSERS and stack:
                parser._closer[stack.pop()] = i
    parser.pos = 0
    return parser


def reference_parse(source: str):
    """``reference_parser``'s nodes."""
    return reference_parser(source).parse_unit()


# What the scan must get right: every line terminator, the blanks (space, tab,
# FF, VT) and characters that start no token (NUL, U+00A0, a non-ASCII letter,
# a lone surrogate, "/" at end of input), text blocks, escapes (also at end of
# input) and unterminated comments and literals.
_LEXER_CHARS = st.text(
    alphabet=st.sampled_from(
        ["\r", "\n", "\f", "\v", " ", "\t", "\x00", " ", "é", "\ud800",
         '"', "'", "\\", "/", "*", "{", "}", "(", ")", "a", "_", "$", "1", ".", ";"]
    ),
    max_size=40,
)
_LEXER_FRAGMENTS = st.lists(
    st.sampled_from(
        ['"""', '"', "'", "\\", "\\\r\n", "\\\r", "\\\n", "//", "/*", "*/", "/**/", "/*/", "**/",
         "\r\n", "\r", "\n", "\f", "\v", "\x00", " ", "é", "\ud800", "x1", "9.5e3_f",
         "class A { ", "void m() { ", "} ", "int f; ", "@Ann(x) ", "/** doc */\n", '"s"', "'c'",
         '"""\ntext {\n"""', "(", ")", "{", "}", "[", "]", ";", "/"]
    ),
    max_size=30,
).map("".join)
LEXER_SOURCES = st.one_of(_LEXER_CHARS, _LEXER_FRAGMENTS)


class TestScanAgainstReference:
    @settings(max_examples=600, deadline=None)
    @given(LEXER_SOURCES)
    def test_lex_and_parse_equal_the_per_character_reference(self, source):
        assert lex(source) == reference_lex(source)
        parser, reference = _Parser(source), reference_parser(source)
        assert list(parser.sig) == reference.sig
        assert parser._closer == reference._closer
        assert parser._comments == reference._comments
        assert parser.parse_unit() == reference.parse_unit()

    def test_edge_cases_equal_the_reference(self):
        sources = [
            "", "/", "a /", '"', "'", '"""', '"""\\', '"a\\', "'\\", '"a\\\r\nb"', '"a\\\rb"',
            "/* open", "/*/ x */", "// c\r\nx", " xé\x00", '""""', '"""""""', "a\rb\r\nc\n",
        ]
        for source in sources:
            assert lex(source) == reference_lex(source), source
            assert parse_source("F.java", source)[0].nodes == reference_parse(source), source

    def test_a_megabyte_unterminated_text_block_comment_or_string_parses_quickly(self):
        # Each runs to end of input, inside class A: a field's value, or a
        # comment with no member after it.
        openers = {
            'String s = """': ("x {\\\"\n", ["field"]),
            "/*": ("* x {\n", []),
            'String s = "': ("x\\\"{ ", ["field"]),  # no line terminator ends it
        }
        for opener, (piece, members) in openers.items():
            source = "class A {\n    " + opener + piece * ((1 << 20) // len(piece))
            start = time.perf_counter()
            unit = parse_source("A.java", source)[0]
            assert time.perf_counter() - start < 10.0, opener
            end = unit.line_count
            assert [(n.kind, n.line_end, n.malformed) for n in unit.nodes] == [("type", end, True)]
            assert [(m.kind, m.line_start, m.line_end) for m in unit.nodes[0].members] == [
                (kind, 2, end) for kind in members
            ]


class TestBlankRuns:
    def test_a_long_blank_run_at_end_of_input_lexes_quickly(self):
        # Each scan match takes the blanks before its token; at the end of
        # input no token follows, and that must not cost a retry per blank.
        for tail in (" " * (1 << 16), " \t\f\v" * (1 << 14)):
            start = time.perf_counter()
            tokens = lex("class A {}" + tail)
            assert time.perf_counter() - start < 10.0
            assert [t.text for t in tokens] == ["class", "A", "{", "}"]
            for source in ("x" + tail[:64], "// c" + tail[:64], '"s' + tail[:64], "/* c" + tail[:64]):
                assert lex(source) == reference_lex(source), source
