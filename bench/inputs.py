"""Seeded inputs for the benchmark workloads, and the digests that pin them.

Every input is a pure function of (workload, size, slot). The workload seed
given on the command line selects one of ``SLOTS`` pinned slots, so that the
expected input and output digests of every seed the benchmark accepts can be
committed, in ``expected/<size>-<workload>.json``. Paths written into manifests and configs are
relative to the checkout root, so digests do not depend on where the
checkout lives.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import random
import shutil
from pathlib import Path

from corpus import generate_corpus

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
WORK = ROOT / ".bench_work"
SLOTS = 32

# Sizes of every workload. "full" is what the benchmark measures; "tiny" runs
# every workload end to end in seconds for the smoke test.
SIZES = {
    "full": {
        "index_kb": 100,
        "analyze_kb": 800,
        "analyze_specs": 24,
        "sweep_projects": 3,
        "sweep_kb": 7,
        "sweep_vulns": 3,
        "setup_repeats": 5,
    },
    "tiny": {
        "index_kb": 40,
        "analyze_kb": 60,
        "analyze_specs": 2,
        "sweep_projects": 2,
        "sweep_kb": 7,
        "sweep_vulns": 2,
        "setup_repeats": 3,
    },
}

THETAS = (500, 1000, 1500, 2000, 2500, 3000)  # the CLI's --sweep-theta grid

_SIGNATURES = (
    "java.util.List#add(java.lang.Object)",
    "java.util.ArrayList#<init>()",
    "java.util.Map#get(java.lang.Object)",
    "java.lang.Integer#parseInt(java.lang.String)",
    "java.lang.String#format(java.lang.String,java.lang.Object[])",
)
_WORDS = (
    "order", "invoice", "ledger", "batch", "queue", "router", "parser",
    "cache", "token", "session", "policy", "metric", "report", "worker",
)


def slot_of(seed: int) -> int:
    return seed % SLOTS


def corpus_seed(workload: str, slot: int, project: int = 0) -> int:
    """First generator seed tried for a corpus; fixed_volume_corpus searches
    at most 1000 seeds up from it, so corpora of different slots and
    projects never share a seed."""
    base = {"index-cold": 1, "analyze-cli": 2, "sweep-theta": 3}[workload]
    return base * 10_000_000 + slot * 100_000 + project * 1_000


def fixed_volume_corpus(root: Path, seed: int, target_kb: float) -> None:
    """Write a corpus of ``target_kb`` (up to 2% over): the shortest prefix
    of ``generate_corpus(root, s)`` that reaches the target, for the first
    s = seed, seed + 1, ... whose prefix overshoots by at most 2%. The seed
    varies the content, not the volume, so the timings of different seeds
    are comparable."""
    target = target_kb * 1024
    for candidate in range(seed, seed + 1_000):
        shutil.rmtree(root, ignore_errors=True)
        n_files = 2
        while True:
            paths = generate_corpus(root, seed=candidate, n_files=n_files)
            totals = list(itertools.accumulate(p.stat().st_size for p in paths))
            if totals[-1] >= target:
                break
            n_files *= 2
        count = bisect.bisect_left(totals, target) + 1
        if totals[count - 1] <= 1.02 * target:
            for extra in paths[count:]:
                extra.unlink()
            return
    raise RuntimeError(f"no corpus of {target_kb} KB among 1000 seeds from {seed}")


def _pov_test(rng: random.Random, name: str, reachable: bool) -> str:
    lines = [
        "@Test",
        f"public void {name}() {{",
        "    List<String> names = new ArrayList<>();",
        "    int total = seed;",
    ]
    for i in range(rng.randint(4, 8)):
        k = rng.randrange(2, 97)
        kind = rng.randrange(3)
        if kind == 0:
            lines.append(f'    names.add("{rng.choice(_WORDS)}-{i}");')
        elif kind == 1:
            lines.append(f"    for (int j{i} = 0; j{i} < {k % 7 + 1}; j{i}++) {{")
            lines.append(f"        total += j{i} * {k};")
            lines.append("    }")
        else:
            lines.append(f"    int v{i} = total * {k} + {i};")
    lines.append(f"    // expect: {'reachable' if reachable else 'guarded'}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def make_vulns(rng: random.Random, prefix: str, count: int) -> list[dict]:
    """Vuln specs whose trigger tests resemble the generated service methods.
    Even-numbered specs are reachable, so both verdicts occur in every slot."""
    vulns = []
    for i in range(count):
        vulns.append(
            {
                "vuln_id": f"{prefix}-{i}",
                "library": "bench-lib",
                "api_signatures": rng.sample(_SIGNATURES, rng.randint(1, 2)),
                "pov_test_source": _pov_test(rng, f"trigger{i}", reachable=i % 2 == 0),
            }
        )
    return vulns


def write_json(path: Path, obj) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def rel(path: Path) -> str:
    return path.relative_to(ROOT).as_posix()


def tree_digest(paths: list[Path]) -> str:
    """sha256 over (relative path, content) of the given files and of every
    file under the given directories, in sorted order."""
    files: list[Path] = []
    for path in paths:
        files.extend(sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path])
    acc = hashlib.sha256()
    for path in sorted(files, key=rel):
        acc.update(rel(path).encode("utf-8") + b"\x00")
        acc.update(hashlib.sha256(path.read_bytes()).digest())
    return acc.hexdigest()


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
