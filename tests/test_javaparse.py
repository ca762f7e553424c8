import bisect
import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import JAVA_SOURCES, record_token_counts
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
        unit = parse_source("G.java", ") ;\nclass A {}\n")[0]
        assert kinds(unit) == ["error", "type"]


def walk(nodes):
    for node in nodes:
        yield node
        yield from walk(node.members)


def deep_nest(depth: int) -> str:
    return "class A {\n" * depth + "}\n" * depth


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
        assert unit.text_of(method) == "    void m() {}\n"

    def test_escaped_line_break_in_string_advances_lines(self):
        for eol in ("\n", "\r\n", "\r"):
            src = eol.join(["class A {", '    String s = "a\\', 'b";', "    void m() {}", "}", ""])
            members = parse_source("S.java", src)[0].nodes[0].members
            assert [(m.kind, m.line_start, m.line_end) for m in members] == [
                ("field", 2, 3),
                ("method", 4, 4),
            ]

    def test_too_deep_nesting_becomes_one_error_node(self):
        src = deep_nest(400)
        unit = parse_source("D.java", src)[0]
        assert [(n.kind, n.line_start, n.line_end) for n in unit.nodes] == [("error", 1, 800)]


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
