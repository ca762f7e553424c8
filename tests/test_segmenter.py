import json
from pathlib import Path

import pytest

from conftest import FIXTURES
from corpus import generate_corpus
from vulnreach.errors import EmptyProject
from vulnreach.javaparse import parse_source
from vulnreach.model import SPLIT_KINDS, Config, NodeKind
from vulnreach.segmenter import segment_project, segment_unit
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


def assert_coverage_and_reassembly(source: str, blocks) -> None:
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
        assert all(b.node_kind in SPLIT_KINDS | {NodeKind.OTHER} for b in blocks)
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

    def test_empty_project_raises(self, tmp_path: Path):
        with pytest.raises(EmptyProject):
            segment_project(tmp_path, Config(theta=2500))

    def test_unreadable_file_is_collected_not_fatal(self, tmp_path: Path, monkeypatch):
        (tmp_path / "A.java").write_text("class A {}\n")
        (tmp_path / "B.java").write_text("class B {}\n")
        real_read = Path.read_bytes

        def flaky_read(self: Path):
            if self.name == "A.java":
                raise OSError("simulated unreadable file")
            return real_read(self)

        monkeypatch.setattr(Path, "read_bytes", flaky_read)
        failures: list[tuple[Path, OSError]] = []
        blocks = segment_project(
            tmp_path,
            Config(theta=2500),
            on_io_error=lambda p, e: failures.append((p, e)),
        )
        assert [b.file_path for b in blocks] == ["B.java"]
        assert len(failures) == 1 and failures[0][0].name == "A.java"

    def test_miniproj_matches_frozen_golden_block_list(self):
        blocks = segment_project(FIXTURES / "miniproj", Config(theta=80))
        golden = json.loads(
            (FIXTURES / "golden_miniproj_theta80.json").read_text(encoding="utf-8")
        )
        assert [b.to_dict() for b in blocks] == golden
