import json
import logging
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, JAVA_SOURCES, record_token_counts
from corpus import generate_corpus
from vulnreach import cli
from vulnreach.errors import EmptyProject
from vulnreach.javaparse import parse_source
from vulnreach.model import Config, NodeKind
from vulnreach.segmenter import _SPLIT_NODES, read_project, segment_project, segment_unit
from vulnreach.memo import Memo
from vulnreach.tokenizer import DEFAULT_TOKENIZER

THETA_GRID = (500, 1000, 1500, 2000, 2500, 3000)


def build_triple_worker() -> str:
    """Three ~1200-token methods in one class: the structural-split shape."""
    lines = ["package fixture;", "", "public class TripleWorker {", ""]
    for name in ("alpha", "beta", "gamma"):
        lines.append(f"    public long {name}(long seed) {{")
        lines.append("        long total = seed;")
        lines.extend(f"        total = total * 31 + {i};" for i in range(149))
        lines.append("        return total;")
        lines.append("    }")
        lines.append("")
    lines[-1] = "}"
    return "\n".join(lines) + "\n"


def assert_coverage_and_reassembly(source: str, blocks, lines_total: int | None = None) -> None:
    if lines_total is None:
        lines_total = len(source.splitlines())
    covered = sorted(ln for b in blocks for ln in range(b.line_start, b.line_end + 1))
    assert covered == list(range(1, lines_total + 1)), "line coverage must be exact"
    assert "".join(b.source for b in blocks) == source, "reassembly must be byte-exact"


class TestSegmentUnit:
    def test_below_threshold_yields_single_unit_block(self):
        src = "package p;\n\nclass A {\n    void m() {}\n}\n"
        unit = parse_source("A.java", src)[0]
        blocks = segment_unit(unit, Config(theta=2500))
        assert [b.node_kind for b in blocks] == [NodeKind.COMPILATION_UNIT]
        assert (blocks[0].line_start, blocks[0].line_end) == (1, 5)
        assert blocks[0].source == src
        assert blocks[0].size == DEFAULT_TOKENIZER.count(src)

    def test_empty_input_yields_zero_blocks(self):
        unit = parse_source("Empty.java", "")[0]
        assert segment_unit(unit, Config(theta=2500)) == []

    def test_three_large_methods_split_into_methods_plus_header_residue(self):
        src = build_triple_worker()
        unit = parse_source("TripleWorker.java", src)[0]
        assert DEFAULT_TOKENIZER.count(src) >= 2500
        blocks = segment_unit(unit, Config(theta=2500))
        kinds = [b.node_kind for b in blocks]
        assert kinds == [
            NodeKind.OTHER,
            NodeKind.METHOD_DECLARATION,
            NodeKind.METHOD_DECLARATION,
            NodeKind.METHOD_DECLARATION,
        ]
        for block in blocks[1:]:
            assert 1100 <= block.size <= 1300
            assert block.enclosing_class == "TripleWorker"
        assert [b.enclosing_method for b in blocks[1:]] == ["alpha", "beta", "gamma"]
        assert_coverage_and_reassembly(src, blocks)

    def test_block_count_non_increasing_across_theta_sweep(self):
        src = build_triple_worker()
        unit = parse_source("TripleWorker.java", src)[0]
        counts = [len(segment_unit(unit, Config(theta=t))) for t in THETA_GRID]
        assert counts == sorted(counts, reverse=True)

    def test_consecutive_imports_merge_into_one_block(self):
        src = (
            "package p;\n\n"
            "import java.io.File;\n"
            "import java.util.List;\n\n"
            "import java.util.Map;\n\n"
            "class A {\n    void m() {}\n}\n"
        )
        unit = parse_source("A.java", src)[0]
        blocks = segment_unit(unit, Config(theta=1))
        imports = [b for b in blocks if b.node_kind == NodeKind.IMPORT_DECLARATION]
        assert len(imports) == 1
        assert (imports[0].line_start, imports[0].line_end) >= (3, 6)
        assert_coverage_and_reassembly(src, blocks)

    def test_oversized_single_method_is_flagged_not_split(self):
        body = "".join(f"        total += {i};\n" for i in range(300))
        src = f"package p;\n\nclass Big {{\n    int crunch(int total) {{\n{body}        return total;\n    }}\n}}\n"
        unit = parse_source("Big.java", src)[0]
        blocks = segment_unit(unit, Config(theta=100))
        methods = [b for b in blocks if b.node_kind == NodeKind.METHOD_DECLARATION]
        assert len(methods) == 1
        assert methods[0].oversize and methods[0].size >= 100
        assert_coverage_and_reassembly(src, blocks)

    def test_error_regions_become_other_blocks_with_full_coverage(self):
        src = "package p;\n\npublic class Broken {\n    public int half(int v {\n        return v / 2;\n}\n"
        unit = parse_source("Broken.java", src)[0]
        blocks = segment_unit(unit, Config(theta=1))
        assert all(b.node_kind in {*_SPLIT_NODES.values(), NodeKind.OTHER} for b in blocks)
        assert_coverage_and_reassembly(src, blocks)

    def test_small_nested_type_stays_one_other_block(self):
        src = (
            "package p;\n\nclass Outer {\n"
            + "".join(f"    int f{i};\n" for i in range(40))
            + "    static class Inner {\n        void tiny() {}\n    }\n}\n"
        )
        unit = parse_source("O.java", src)[0]
        blocks = segment_unit(unit, Config(theta=30))
        inner = [b for b in blocks if b.enclosing_class == "Outer.Inner"]
        assert [b.node_kind for b in inner] == [NodeKind.OTHER]


@pytest.fixture(scope="module")
def corpus_root(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("gencorpus")
    generate_corpus(root, n_files=15)
    return root


class TestSegmentationLawsOnCorpus:
    def test_coverage_reassembly_threshold_and_monotonicity(self, corpus_root: Path):
        for path in sorted(corpus_root.rglob("*.java")):
            src = path.read_bytes().decode("utf-8", errors="replace")
            unit = parse_source(path.name, src)[0]
            unit_size = DEFAULT_TOKENIZER.count(src)
            prev_count = None
            for theta in THETA_GRID:
                blocks = segment_unit(unit, Config(theta=theta))
                assert_coverage_and_reassembly(src, blocks)
                single_unit = len(blocks) == 1 and blocks[0].node_kind == NodeKind.COMPILATION_UNIT
                assert single_unit == (unit_size < theta)
                for block in blocks:
                    assert block.oversize == (block.size >= theta)
                    assert block.size == DEFAULT_TOKENIZER.count(block.source)
                if prev_count is not None:
                    assert len(blocks) <= prev_count
                prev_count = len(blocks)

    def test_determinism(self, corpus_root: Path):
        cfg = Config(theta=1000)
        first = segment_project(corpus_root, cfg)
        second = segment_project(corpus_root, cfg)
        assert first == second


class TestSegmentProject:
    def test_two_small_files_two_blocks(self, tmp_path: Path):
        (tmp_path / "A.java").write_text("class A { void a() {} }\n")
        (tmp_path / "B.java").write_text("class B { void b() {} }\n")
        blocks = segment_project(tmp_path, Config(theta=2500))
        assert [(b.file_path, b.node_kind) for b in blocks] == [
            ("A.java", NodeKind.COMPILATION_UNIT),
            ("B.java", NodeKind.COMPILATION_UNIT),
        ]

    def test_ignored_directories_contribute_no_blocks(self, tmp_path: Path):
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "A.java").write_text("class A {}\n")
        (tmp_path / "target").mkdir()
        (tmp_path / "target" / "Gen.java").write_text("class Gen {}\n")
        blocks = segment_project(tmp_path, Config(theta=2500))
        assert [b.file_path for b in blocks] == ["src/A.java"]

    def test_a_package_named_like_a_build_output_is_indexed(self, tmp_path: Path):
        # A slash-less default glob (build/**, target/**) names a directory
        # only above the first src/: below it a directory is a package.
        kept = ["src/main/java/com/acme/app/App.java", "src/main/java/com/acme/build/Builder.java"]
        for rel in [*kept, "module/target/Gen.java", "build/X.java", "module/build/Y.java"]:
            (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / rel).write_text(f"class {Path(rel).stem} {{}}\n")
        blocks = segment_project(tmp_path, Config(theta=2500))
        assert [b.file_path for b in blocks] == kept

    def test_empty_project_raises(self, tmp_path: Path):
        with pytest.raises(EmptyProject):
            segment_project(tmp_path, Config(theta=2500))

    def test_unreadable_file_is_collected_not_fatal(self, tmp_path: Path, monkeypatch, caplog):
        (tmp_path / "A.java").write_text("class A {}\n")
        (tmp_path / "B.java").write_text("class B {}\n")
        real_read = Path.read_bytes

        def flaky_read(self: Path):
            if self.name == "A.java":
                raise OSError("simulated unreadable file")
            return real_read(self)

        monkeypatch.setattr(Path, "read_bytes", flaky_read)
        with caplog.at_level(logging.WARNING, logger="vulnreach.segmenter"):
            blocks = segment_project(tmp_path, Config(theta=2500))
        assert [b.file_path for b in blocks] == ["B.java"]
        assert [r.getMessage() for r in caplog.records] == [
            f"skipping unreadable file {tmp_path / 'A.java'}: simulated unreadable file"
        ]

    def test_miniproj_matches_frozen_golden_block_list(self):
        blocks = segment_project(FIXTURES / "miniproj", Config(theta=80))
        golden = json.loads(
            (FIXTURES / "golden_miniproj_theta80.json").read_text(encoding="utf-8")
        )
        assert [b.to_dict() for b in blocks] == golden

    def test_an_unreadable_file_is_logged_once_through_a_memo(self, tmp_path, monkeypatch, caplog):
        (tmp_path / "A.java").write_text("class A {}\n")
        (tmp_path / "B.java").write_text("class B {}\n")
        real_read = Path.read_bytes
        reads: list[str] = []

        def flaky_read(self: Path):
            reads.append(self.name)
            if self.name == "A.java":
                raise OSError("simulated unreadable file")
            return real_read(self)

        monkeypatch.setattr(Path, "read_bytes", flaky_read)
        memo = Memo()
        with caplog.at_level(logging.WARNING, logger="vulnreach.segmenter"):
            for theta in (1, 2500, 1):
                blocks = segment_project(tmp_path, Config(theta=theta), memo=memo)
                assert [b.file_path for b in blocks] == ["B.java"]
        assert reads == ["A.java", "B.java"]
        assert len(caplog.records) == 1

    def test_a_memo_segments_one_snapshot_of_the_tree(self, tmp_path: Path):
        (tmp_path / "A.java").write_text("class A {\n    void a() {}\n}\n")
        before = segment_project(tmp_path, Config(theta=1))
        memo = Memo()
        segment_project(tmp_path, Config(theta=2500), memo=memo)
        (tmp_path / "A.java").write_text("class A {\n    void b() {}\n}\n")
        (tmp_path / "B.java").write_text("class B {}\n")
        assert segment_project(tmp_path, Config(theta=1), memo=memo) == before
        assert segment_project(tmp_path, Config(theta=1)) != before

    def test_a_sweep_through_one_memo_counts_each_source_char_once(self, corpus_root, monkeypatch):
        fresh = {theta: segment_project(corpus_root, Config(theta=theta)) for theta in THETA_GRID}
        counted = record_token_counts(monkeypatch)
        memo = Memo()
        for theta in THETA_GRID:
            assert segment_project(corpus_root, Config(theta=theta), memo=memo) == fresh[theta]
        sources = [p.read_bytes().decode("utf-8", "replace") for p in corpus_root.rglob("*.java")]
        assert sum(map(len, counted)) == sum(map(len, sources))


def _straddling_thetas(roots) -> list[int]:
    """Each size segmentation compares theta with in these trees (unit,
    type declaration and block sizes, the last at theta 1 and at each unit
    and type size), and its neighbors on either side."""
    sizes: set[int] = set()
    for root in roots:
        for rel, text in read_project(root, ()):
            unit = parse_source(rel, text)[0]
            cuts = {unit.token_count(1, unit.line_count)}
            cuts.update(unit.token_count(n.line_start, n.line_end) for n, _ in unit.iter_types())
            sizes |= cuts
            for theta in {1, *cuts} - {0}:
                sizes.update(b.size for b in segment_unit(unit, Config(theta=theta)))
    return sorted({t for s in sizes for t in (s - 1, s, s + 1) if t >= 1})


FIXTURE_ROOTS = [
    FIXTURES / name for name in ("guarded_app", "unguarded_app", "plain_app", "legacy_app", "miniproj")
]
FIXTURE_THETAS = _straddling_thetas(FIXTURE_ROOTS)


def assert_memo_sweep_equals_fresh_runs(roots, thetas) -> None:
    """Every theta, in the order given, through one memo, gives the blocks
    and the error blocks of a memo-less run, field by field."""
    memo = Memo()
    for theta in thetas:
        for root in roots:
            runs = []
            for given_memo in (memo, None):
                errors: list = []
                blocks = segment_project(
                    root, Config(theta=theta, ignore_globs=()), on_error_block=errors.append,
                    memo=given_memo,
                )
                runs.append(([b.to_dict() for b in blocks], [b.to_dict() for b in errors]))
            assert runs[0] == runs[1], (root, theta)


@st.composite
def _nested_type(draw, depth: int = 0) -> tuple:
    """(field count, statement count of each method, nested types)."""
    fields = draw(st.integers(0, 2))
    methods = draw(st.lists(st.integers(0, 8), max_size=3))
    inner = draw(st.lists(_nested_type(depth + 1), max_size=2)) if depth < 2 else []
    return fields, methods, inner


def _render_type(spec: tuple, name: str, depth: int) -> list[str]:
    fields, methods, inner = spec
    pad = "    " * depth
    lines = [f"{pad}class {name} {{"]
    lines += [f"{pad}    int f{i} = {i};" for i in range(fields)]
    for i, statements in enumerate(methods):
        lines.append(f"{pad}    int m{i}(int x) {{")
        lines += [f"{pad}        x = x * 31 + {j};" for j in range(statements)]
        lines += [f"{pad}        return x;", f"{pad}    }}"]
    for k, child in enumerate(inner):
        lines += _render_type(child, f"{name}N{k}", depth + 1)
    return lines + [f"{pad}}}"]


class TestThetaClassReuse:
    """Through one memo, a file is segmented again only when theta crosses
    one of its sizes; every theta, in any order, gives a fresh run's blocks."""

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.sampled_from(FIXTURE_THETAS) | st.integers(1, 400), min_size=1, max_size=8))
    # miniproj's error region is a block of its own only at theta <= 20.
    @example([80, 20, 21, 5, 80, 5])
    def test_fixture_sweeps_equal_fresh_runs(self, thetas):
        assert_memo_sweep_equals_fresh_runs(FIXTURE_ROOTS, thetas)

    def test_error_blocks_reach_the_callback_at_every_theta(self):
        memo = Memo()
        seen = {}
        for theta in (5, 80, 5, 20, 5):
            errors: list = []
            segment_project(FIXTURES / "miniproj", Config(theta=theta), on_error_block=errors.append, memo=memo)
            seen.setdefault(theta, errors)
            assert errors == seen[theta]
        assert [b.file_path for b in seen[5]] == ["src/util/Broken.java"] and seen[80] == []

    @settings(max_examples=60, deadline=None)
    @given(_nested_type(), st.data())
    def test_nested_type_sweeps_equal_fresh_runs(self, spec, data):
        source = "package p;\n\n" + "\n".join(_render_type(spec, "Outer", 0)) + "\n"
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            (root / "Outer.java").write_text(source, encoding="utf-8")
            candidates = _straddling_thetas([root])
            thetas = data.draw(
                st.lists(st.sampled_from(candidates) | st.integers(1, 300), min_size=1, max_size=8)
            )
            assert_memo_sweep_equals_fresh_runs([root], thetas)


class TestFuzzNet:
    @settings(max_examples=100, deadline=None)
    @given(JAVA_SOURCES)
    def test_every_line_covered_once_at_every_theta(self, source):
        unit = parse_source("F.java", source)[0]
        for theta in (1, 5, 80, 2500):
            blocks = segment_unit(unit, Config(theta=theta))
            if not source.strip():
                assert blocks == []
            else:
                assert_coverage_and_reassembly(source, blocks, unit.line_count)

    @settings(max_examples=150, deadline=None)
    @given(JAVA_SOURCES)
    def test_stored_size_is_the_token_count_of_the_source(self, source):
        # Packing costs a block by its stored size, so the size must be the
        # count of the text, whatever the line terminators and characters.
        unit = parse_source("F.java", source)[0]
        for theta in (1, 5, 80, 2500):
            for block in segment_unit(unit, Config(theta=theta)):
                assert block.size == DEFAULT_TOKENIZER.count(block.source)

    def test_lone_cr_blocks_hold_their_declarations(self):
        src = "class A {\r    int x;\r    void m() {\r    }\r}\r"
        blocks = segment_unit(parse_source("C.java", src)[0], Config(theta=1))
        by_kind = {b.node_kind: b for b in blocks}
        assert by_kind[NodeKind.FIELD_DECLARATION].source == "    int x;\r"
        method = by_kind[NodeKind.METHOD_DECLARATION]
        assert (method.enclosing_method, method.source) == ("m", "    void m() {\r    }\r}\r")
        assert_coverage_and_reassembly(src, blocks, 5)

    def test_class_literal_annotation_keeps_enclosing_class(self):
        src = (
            "@RunWith(SpringRunner.class) public class OrderServiceTest {\n"
            "    public OrderServiceTest() {}\n"
            "    void check() {}\n"
            "}\n"
        )
        blocks = segment_unit(parse_source("T.java", src)[0], Config(theta=1))
        assert {b.enclosing_class for b in blocks} == {"OrderServiceTest"}
        assert [b.node_kind for b in blocks if b.enclosing_method] == [
            NodeKind.CONSTRUCTOR_DECLARATION,
            NodeKind.METHOD_DECLARATION,
        ]

    def test_too_deep_file_indexes_next_to_a_normal_one(self, tmp_path: Path):
        project = tmp_path / "proj"
        project.mkdir()
        (project / "A.java").write_text("class A {\n    void a() {}\n}\n")
        deep = "class D {\n" * 400 + "}\n" * 400
        (project / "Deep.java").write_text(deep)
        out = tmp_path / "app.vrix"
        code = cli.main(["index", "--project", str(project), "--out", str(out), "--theta", "80"])
        assert code == 0
        blocks = segment_project(project, Config(theta=80))
        assert [(b.file_path, b.node_kind) for b in blocks] == [
            ("A.java", NodeKind.COMPILATION_UNIT),
            ("Deep.java", NodeKind.OTHER),
        ]
        assert blocks[1].source == deep
