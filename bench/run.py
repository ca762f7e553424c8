"""Offline benchmark of the vulnreach CLI.

    python3 bench/run.py --workload index-cold --seed 3 --seconds 15 --trace 0

Workloads (see BENCHMARK.json for why each exists):
  index-cold   `vulnreach index` of one seeded corpus, fresh output each time
  analyze-cli  `vulnreach analyze` once per seeded vuln spec, against one index
  sweep-theta  `vulnreach evaluate --sweep-theta` over seeded small projects

Every run generates its inputs from the seed, refuses to run if their digest
differs from the one committed for that seed, measures passes over the
inputs for --seconds, and checks every output against its committed digest.
With --trace 0 it prints the end-to-end metrics; with --trace 1 it alternates
untraced and traced passes and prints the per-layer metrics and the tracing
overhead. Times are normalized to a machine-speed reference (reference.py);
the record keeps the raw wall times too. The last line of standard output is
one JSON object; the full record, with provenance, goes to
.bench_work/results/.

End-to-end metrics, per run:
  setup_s        median set-up: a fresh interpreter importing vulnreach.cli
                 (index-cold, sweep-theta), the `vulnreach index` build of the
                 analyzed corpus (analyze-cli)
  cli_p50_s      median time of one measured CLI invocation
  model_calls    chat completions plus embedding batches, per pass
  prompt_tokens  tokens of all text sent to the model providers, per pass
  peak_rss_mb    peak resident memory of the run's process
error_share (failed / attempted operations) is the result's failed and
attempted fields, and is printed with the workload's named figures.

    python3 bench/run.py --record --workload index-cold --size full

re-records the committed digests; only a change that means to change the
program's outputs should do that, and say why.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

END_TO_END = {
    "setup_s": "s",
    "cli_p50_s": "s",
    "model_calls": "count",
    "prompt_tokens": "count",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


def git_sha() -> str:
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def expected_path(size: str, workload: str) -> Path:
    return ROOT / "bench" / "expected" / f"{size}-{workload}.json"


def check(result, outputs: dict) -> list[str]:
    """Failure messages for the operations of one pass."""
    failures = []
    for label, observed in result.outputs:
        if "error" in observed:
            failures.append(f"{label}: {observed['error']}")
        elif observed != outputs.get(label):
            failures.append(f"{label}: output digest differs from the committed one")
    return failures


def measure(wl, outputs: dict, seconds: float, traced: bool) -> dict:
    """Set up, then run passes for ``seconds``: untraced ones, or (traced)
    an untraced warm-up and then untraced and traced passes in turn."""
    from instrument import ModelMeter, Tracer, layer_metrics

    meter, tracer = ModelMeter(), Tracer()
    m: dict = {"failures": [], "attempted": 0, "invocations": [], "counts": [],
               "untraced_walls": [], "traced_walls": [], "layers": [], "checks": [], "spans": []}

    def checked(result):
        m["failures"] += check(result, outputs)
        m["attempted"] += len(result.outputs)
        return result

    def wall(result) -> float:
        return sum(t.normalized for t in result.invocations)

    meter.install()
    try:
        m["setup_samples"], setup_pass = wl.setup(wl.size["setup_repeats"])
        checked(setup_pass)
        meter.take()  # model traffic of set-up is not part of a pass
        if traced:
            checked(wl.run_pass())
            meter.take()
        start = time.perf_counter()
        while True:
            result = checked(wl.run_pass())
            m["counts"].append(meter.take())
            m["invocations"] += result.invocations
            m["untraced_walls"].append(wall(result))
            if traced:
                tracer.install()
                try:
                    result = checked(wl.run_pass(tracer))
                finally:
                    tracer.uninstall()
                meter.take()
                spans = tracer.take()
                speed = wall(result) / sum(t.raw for t in result.invocations)
                layers, consistency = layer_metrics(spans, speed)
                m["traced_walls"].append(wall(result))
                m["layers"].append(layers)
                m["checks"].append(consistency)
                m["spans"].append(spans)
            if time.perf_counter() - start >= seconds:
                break
    finally:
        meter.uninstall()
    m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return m


def run(args) -> int:
    import numpy

    import inputs
    from workloads import WORKLOADS

    slot = inputs.slot_of(args.seed)
    wl = WORKLOADS[args.workload](args.size, slot)
    input_digest = wl.prepare()
    path = expected_path(args.size, args.workload)
    expected = json.loads(path.read_text(encoding="utf-8")).get(str(slot)) if path.exists() else None
    if expected is None or expected["inputs"] != input_digest:
        print(
            f"error: generated inputs for {args.workload} seed {args.seed} (slot {slot}) have"
            f" digest {input_digest}, committed {expected and expected['inputs']}; refusing to run",
            file=sys.stderr,
        )
        return 2
    m = measure(wl, expected["outputs"], args.seconds, bool(args.trace))

    counts = m["counts"]
    inv = [t.normalized for t in m["invocations"]]
    setup = [t.normalized for t in m["setup_samples"]]
    metrics: dict[str, tuple[float, str]] = {}
    if not args.trace:
        metrics["setup_s"] = (statistics.median(setup), "s")
        metrics["cli_p50_s"] = (statistics.median(inv), "s")
        for key in ("model_calls", "prompt_tokens"):
            metrics[key] = (statistics.median(c[key] for c in counts), "count")
        metrics["peak_rss_mb"] = (m["peak_rss_mb"], "MB")
    else:
        for name in m["layers"][0]:
            metrics[name] = (statistics.median(layer[name] for layer in m["layers"]), layer_unit(name))
        metrics["tracing.overhead_s"] = (
            statistics.median(m["traced_walls"]) - statistics.median(m["untraced_walls"]),
            "s",
        )
    # Named per workload: the figures the program's users ask about.
    named = {"error_share": (len(m["failures"]) / m["attempted"], "ratio")}
    named.update(wl.named_metrics(inv))
    for name, (value, unit) in {**metrics, **named}.items():
        print(f"{name} = {value:.6g} {unit}")
    if args.trace:
        operations = sum(c["operations"] for c in m["checks"])
        residual = max(c["max_residual_s"] for c in m["checks"])
        print(f"trace: per operation, layer self times add up to traced wall time within"
              f" {residual:.3g} s ({operations} operations)")
    for failure in m["failures"]:
        print(f"FAILED {failure}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "slot": slot,
        "size": args.size,
        "trace": args.trace,
        "seconds": args.seconds,
        "sizes": wl.sizes(),
        "input_digest": input_digest,
        "provenance": {
            "git_sha": git_sha(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
        },
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in {**metrics, **named}.items()},
        "passes": len(counts),
        "pass_counts": counts[0],
        "setup_samples": [t._asdict() for t in m["setup_samples"]],
        "invocations": [t._asdict() for t in m["invocations"]],
        "attempted": m["attempted"],
        "failures": m["failures"],
    }
    if args.trace:
        record["trace_checks"] = m["checks"]
    results = ROOT / ".bench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.size}-{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    if args.trace:
        with (results / f"{stem}.spans.jsonl").open("w", encoding="utf-8") as fh:
            for number, spans in enumerate(m["spans"]):
                for span in spans:
                    fh.write(json.dumps([number, *span[:5]]) + "\n")

    print(
        json.dumps(
            {
                "correct": not m["failures"],
                "attempted": m["attempted"],
                "failed": len(m["failures"]),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if not m["failures"] else 1


def record(args) -> int:
    """Commit the input and output digests of every slot of one workload."""
    import inputs
    from workloads import WORKLOADS

    path = expected_path(args.size, args.workload)
    table = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    for slot in range(inputs.SLOTS):
        wl = WORKLOADS[args.workload](args.size, slot)
        digest = wl.prepare()
        _, setup_pass = wl.setup(1)
        outputs: dict = {}
        for label, observed in setup_pass.outputs + wl.run_pass().outputs:
            if "error" in observed or outputs.get(label, observed) != observed:
                print(f"error: slot {slot} {label}: {observed}", file=sys.stderr)
                return 1
            outputs[label] = observed
        table[str(slot)] = {"inputs": digest, "outputs": outputs}
        print(f"recorded {args.workload} {args.size} slot {slot}", file=sys.stderr)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("index-cold", "analyze-cli", "sweep-theta"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--record", action="store_true", help="re-record the committed digests")
    args = parser.parse_args(argv)

    for needed in ("src/vulnreach/cli.py", "tests/corpus.py"):
        if not (ROOT / needed).is_file():
            print(f"error: {needed} is missing; run from a checkout of the repository", file=sys.stderr)
            return 2
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import vulnreach

    if Path(vulnreach.__file__).resolve().parent != ROOT / "src" / "vulnreach":
        print(f"error: imported vulnreach from {vulnreach.__file__}, not this checkout", file=sys.stderr)
        return 2
    return record(args) if args.record else run(args)


if __name__ == "__main__":
    sys.exit(main())
