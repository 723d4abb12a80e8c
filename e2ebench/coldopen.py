"""``cold_open``'s worker: open the image, answer, close — repeatedly.

Runs as its own process (``python -m e2ebench.coldopen``) so that the
process being measured never holds the generated graph: its peak RSS
is what opening and querying an image costs, nothing else.  The traced
run calls :func:`cycle` in-process instead, under the tracer.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time
from typing import Iterator

from . import check, harness, workloads


def cycle(image: str, requests: list) -> dict:
    """One restart: ``open_store`` → engine → every request → close."""
    from repro.bitmat import backend
    from repro.core.engine import LBREngine
    queries = []
    started = time.perf_counter()
    # looked up on the module at call time, so the tracer's wrapper
    # (when installed) is what runs
    store = backend.open_store(image)
    try:
        engine = LBREngine(store)
        first_answer = None
        for key, text in requests:
            query_started = time.perf_counter()
            result = engine.execute(text)
            rows = result.rows
            finished = time.perf_counter()
            if first_answer is None:
                first_answer = finished - started
            count, digest = check.digest(
                [str(var) for var in result.variables],
                check.wire_rows(rows))
            queries.append([key, finished - query_started, count, digest])
        cache_stats = store.cache_stats()
    finally:
        store.close()
    return {"first_answer_s": first_answer,
            "cycle_s": time.perf_counter() - started, "queries": queries,
            "cache_stats": cache_stats}


def run(image: str, rounds: Iterator[list], seconds: float) -> dict:
    """Cycle until *seconds* have passed, at least once (the cycle
    before the first is the discarded warm-up: it pays the
    interpreter's imports)."""
    cycle(image, next(rounds))
    cycles = []
    started = time.perf_counter()
    while not cycles or time.perf_counter() - started < seconds:
        # a restarted process starts with an empty heap: without this,
        # whether the previous cycle's store is still awaiting the
        # cycle collector decides the peak RSS (52 or 60 MB)
        gc.collect()
        cycles.append(cycle(image, next(rounds)))
    return {"wall_s": sum(each["cycle_s"] for each in cycles),
            "cycles": cycles}


def main(argv: list[str]) -> int:
    image, seed, seconds = argv
    report = run(image, workloads.selective_rounds(int(seed)),
                 float(seconds))
    report["peak_rss_mb"] = harness.peak_rss_mb(os.getpid())
    json.dump(report, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
