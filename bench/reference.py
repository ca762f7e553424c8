"""Timing against a machine-speed reference.

Shared machines change speed in phases lasting seconds: by up to 1.7x on the
2-CPU machine this benchmark was developed on, whatever the seed. So while a
timed call runs, a fixed reference computation is sampled every
``INTERVAL_S`` (from a SIGALRM handler, on the same CPU and thread), and
three times just before and after it. The call's time is reported twice:
raw wall seconds, without the time spent in samples, and normalized to
``NOMINAL_S`` per reference, the seconds it would take on a machine that
runs the reference in ``NOMINAL_S``. The reference does not touch the
program, so a change to the program moves only the call's own time.

Run this file as a script to time one import of a module in a fresh
interpreter; it prints the Timing as JSON.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import re
import signal
import statistics
import sys
import time
from typing import Any, Callable, NamedTuple

NOMINAL_S = 0.00016
INTERVAL_S = 0.02
_TEXT = 'public int step(int seed) { names.add("order-1"); return seed * 31; }\n' * 8
_LEXEME = re.compile(r"\w+|[^\w\s]")


class Timing(NamedTuple):
    raw: float  # wall seconds
    normalized: float  # seconds at the nominal reference speed


def reference() -> float:
    """Seconds one run of the reference computation takes now."""
    start = time.perf_counter()
    counts: dict[str, int] = {}
    for token in _LEXEME.findall(_TEXT):
        counts[token] = counts.get(token, 0) + 1
        hashlib.blake2b(token.encode(), digest_size=8).digest()
    return time.perf_counter() - start


def timed(fn: Callable[[], Any]) -> tuple[Any, Timing]:
    """Call fn() in the main thread and return its result with its Timing."""
    samples = [reference() for _ in range(3)]
    in_call = 0.0

    def sample(signum, frame) -> None:
        nonlocal in_call
        start = time.perf_counter()
        samples.append(reference())
        in_call += time.perf_counter() - start

    previous = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    start = time.perf_counter()
    try:
        result = fn()
    finally:
        elapsed = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    samples.extend(reference() for _ in range(3))
    seconds = elapsed - in_call
    speed = statistics.fmean(NOMINAL_S / s for s in samples)
    return result, Timing(seconds, seconds * speed)


if __name__ == "__main__":
    _, timing = timed(lambda: importlib.import_module(sys.argv[1]))
    print(json.dumps(timing._asdict()))
