import bisect
import itertools
import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, JAVA_SOURCES, record_token_counts
from corpus import generate_corpus
from reference_javaparse import reference_lex, reference_lines, reference_parse
from vulnreach import javaparse
from vulnreach.javaparse import lex, parse_source
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


def assert_lines_equal_the_reference(unit, source: str) -> None:
    """The unit's line starts and line texts are those of the JLS 3.4 line
    model, and its lines reassemble the source."""
    lines = reference_lines(source)
    assert unit.line_starts.tolist() == [0, *itertools.accumulate(map(len, lines))], source
    assert [unit.slice_text(k, k) for k in range(1, unit.line_count + 1)] == lines, source
    assert unit.slice_text(1, unit.line_count) == source


def walk(nodes):
    for node in nodes:
        yield node
        yield from walk(node.members)


class TestFuzzNet:
    @settings(max_examples=300, deadline=None)
    @given(JAVA_SOURCES)
    def test_parse_never_raises_and_lines_agree(self, source):
        unit = parse_source("F.java", source)[0]
        assert_lines_equal_the_reference(unit, source)
        # Each token's line_start is the line holding its first char.
        line_ends = list(itertools.accumulate(map(len, reference_lines(source))))
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


# Each character that ``str.splitlines`` breaks at but Java does not.
_NOT_JAVA_LINE_ENDS = ["\f", "\v", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
# JAVA_SOURCES joined with line terminators and with those characters.
_SOURCES_WITH_SEPARATORS = st.lists(
    st.one_of(JAVA_SOURCES, st.sampled_from(["\r", "\n", "\r\n", *_NOT_JAVA_LINE_ENDS])),
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
        assert counted == [unit.source]

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


# What the scan must get right: every line terminator, the blanks (space, tab,
# FF, VT) and characters that start no token (NUL, U+00A0, a non-ASCII letter,
# a lone surrogate, an astral character, "/" at end of input), text blocks,
# escapes (also at end of input) and unterminated comments and literals, and
# the characters that do not end a line in Java but do in ``str.splitlines``.
_LEXER_CHARS = st.text(
    alphabet=st.sampled_from(
        ["\r", "\n", " ", "\t", "\x00", " ", "é", "\ud800", "\U0001d518", *_NOT_JAVA_LINE_ENDS,
         '"', "'", "\\", "/", "*", "{", "}", "(", ")", "a", "_", "$", "1", ".", ";"]
    ),
    max_size=40,
)
_LEXER_FRAGMENTS = st.lists(
    st.sampled_from(
        ['"""', '"', "'", "\\", "\\\r\n", "\\\r", "\\\n", "//", "/*", "*/", "/**/", "/*/", "**/",
         "\r\n", "\r", "\n", *_NOT_JAVA_LINE_ENDS, "\x00", " ", "é", "\ud800", "\U0001d518",
         "x1", "9.5e3_f",
         "class A { ", "void m() { ", "} ", "int f; ", "@Ann(x) ", "/** doc */\n", '"s"', "'c'",
         '"""\ntext {\n"""', "(", ")", "{", "}", "[", "]", ";", "/"]
    ),
    max_size=30,
).map("".join)
LEXER_SOURCES = st.one_of(_LEXER_CHARS, _LEXER_FRAGMENTS)


def assert_equals_the_reference(source: str) -> None:
    unit = parse_source("F.java", source)[0]
    assert lex(source) == reference_lex(source), source
    assert_lines_equal_the_reference(unit, source)
    assert unit.nodes == reference_parse(source), source


# What may be inserted into or deleted from a generated file: what opens or
# closes a bracket, a literal, a comment or an escape.
_EDITS = ["(", ")", "{", "}", "[", "]", '"', "'", "//", "/*", '"""', "\\"]


def edited(rng: random.Random, source: str) -> str:
    """``source`` after one to three random insertions or deletions of an
    ``_EDITS`` piece."""
    for _ in range(rng.randint(1, 3)):
        piece = rng.choice(_EDITS)
        found = [m.start() for m in re.finditer(re.escape(piece), source)]
        if found and rng.random() < 0.5:
            at = rng.choice(found)
            source = source[:at] + source[at + len(piece) :]
        else:
            at = rng.randint(0, len(source))
            source = source[:at] + piece + source[at:]
    return source


@pytest.fixture(scope="module")
def corpus_sources(tmp_path_factory) -> dict[int, list[str]]:
    """The files of ``generate_corpus`` at five seeds, by seed."""
    root = tmp_path_factory.mktemp("corpus")
    return {
        seed: [path.read_text(encoding="utf-8") for path in generate_corpus(root / str(seed), seed, 12)]
        for seed in (0, 7, 11, 23, 37)
    }


class TestScanAgainstReference:
    """Trees, lines and tokens equal those of the parser over a list of every
    token (``reference_javaparse``), which the on-demand scan replaced."""

    @settings(max_examples=2000, deadline=None)
    @given(LEXER_SOURCES)
    def test_lex_and_parse_equal_the_per_character_reference(self, source):
        assert_equals_the_reference(source)

    def test_every_fixture_file_equals_the_reference(self):
        paths = sorted(FIXTURES.rglob("*.java"))
        assert paths
        for path in paths:
            assert_equals_the_reference(path.read_text(encoding="utf-8"))

    def test_generated_corpus_trees_equal_the_reference(self, corpus_sources):
        for sources in corpus_sources.values():
            for source in sources:
                assert_equals_the_reference(source)

    def test_random_bracket_quote_and_comment_edits_equal_the_reference(self, corpus_sources):
        rng = random.Random(20251021)
        # The eight smallest files of each seed, each under about 10 KB, keep
        # a thousand edits quick.
        sources = [source for group in corpus_sources.values() for source in sorted(group, key=len)[:8]]
        for _ in range(1000):
            assert_equals_the_reference(edited(rng, rng.choice(sources)))

    def test_edge_cases_equal_the_reference(self):
        sources = [
            "", "/", "a /", '"', "'", '"""', '"""\\', '"a\\', "'\\", '"a\\\r\nb"', '"a\\\rb"',
            "/* open", "/*/ x */", "// c\r\nx", " xé\x00", '""""', '"""""""', "a\rb\r\nc\n",
            # A bracket as the last token; a comment after the last member.
            "class A { void m() {} }", "class A { int x; } // end", "class A { int x; /* end */ }",
            "class A { int x; }\n/** after */\n",
        ]
        # A type body still open at end of input, ending in an unterminated
        # string, char, text block or block comment, each followed by blanks,
        # CR, LF or CRLF, one or two of them, or by an escaped line end.
        for tail in ('"abc', "'a", '"""\n  text', "/* open", "int x;", "void m() {"):
            for end in ("", "  \t", "\r", "\n", "\r\n", "\r\r", "\n \n", "\r\n\t\r\n", "\\\n", "\\\r\n\r\n"):
                sources.append("class A {\n    int x;\n    " + tail + end)
        for source in sources:
            assert_equals_the_reference(source)

    def test_a_body_is_never_tokenized(self, monkeypatch):
        # Tokens the parser scans, counted for one method whose body holds
        # 10 statements and for one whose body holds 10,000.
        scanned = []

        class CountingToken:
            def match(self, source, pos):
                scanned.append(pos)
                return token.match(source, pos)

            def findall(self, source):
                found = token.findall(source)
                scanned.extend(found)
                return found

        token = javaparse._TOKEN
        monkeypatch.setattr(javaparse, "_TOKEN", CountingToken())
        counts = []
        for statements in (10, 10_000):
            body = "".join(f"        total += f({i}, \"{{\") /* ) */;\n" for i in range(statements))
            source = "class A {\n    int run(int total) {\n" + body + "        return total;\n    }\n}\n"
            scanned.clear()
            members = parse_source("A.java", source)[0].nodes[0].members
            assert [(m.kind, m.line_end) for m in members] == [("method", statements + 4)]
            counts.append(len(scanned))
        assert counts[0] == counts[1]

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
