"""Cold-start benchmark: open-to-first-query across load strategies.

The point of the ``LBRMMAP1`` image is that serving a frozen dataset
should not pay for decoding it.  Two strategies race from "nothing in
memory" to "first query answered" on the LUBM dataset:

* **rebuild** — parse the N-Triples file and ``BitMatStore.build`` the
  indexes from scratch (what ``lbr serve --data`` does);
* **mmap-open** — ``open_store`` on a frozen ``.lbrm`` image (what
  ``lbr serve --store`` does), which maps the file and materializes
  only the extents the query touches.

The gate: mmap open-to-first-query must be **≥10× faster** than the
rebuild path, and the first query must leave most predicate extents
untouched (the laziness the speedup comes from).  Timings land in
``benchmarks/out/BENCH_cold_start.json``; the committed baseline in
``benchmarks/baselines/`` feeds the CI regression gate via
``python -m repro.bench.compare --section cold_start``.
"""

from __future__ import annotations

import json
import os
import statistics
import time

import pytest

from repro import BitMatStore, LBREngine
from repro.bitmat import open_store, save_mmap_store
from repro.rdf import ntriples

OUT_DIR = os.path.join(os.path.dirname(__file__), "out")
OUT_PATH = os.path.join(OUT_DIR, "BENCH_cold_start.json")

#: independent cold trials per strategy (medians tame scheduler noise)
TRIALS = 5
#: the first query a fresh server answers — selective and single-
#: predicate, the shape that dominates dashboards and health checks.
#: Open-to-first-query measures the *storage* strategy, so the query
#: itself must be cheap enough not to drown the open cost.
QUERY_NAME = "headOf"
FIRST_QUERY = ("PREFIX ub: <http://swat.cse.lehigh.edu/onto/"
               "univ-bench.owl#>\n"
               "SELECT * WHERE { ?prof ub:headOf ?dept }")

#: the acceptance floor: mapping must beat rebuilding by this much
MIN_SPEEDUP_VS_REBUILD = 10.0


def _timed(action) -> tuple[float, object]:
    t0 = time.perf_counter()
    value = action()
    return time.perf_counter() - t0, value


@pytest.fixture(scope="module")
def cold_start_report(lubm_graph, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cold_start")
    data_path = str(tmp / "lubm.nt")
    frozen_path = str(tmp / "lubm.lbrm")
    ntriples.dump(lubm_graph, data_path)
    source = BitMatStore.build(lubm_graph)
    save_mmap_store(source, frozen_path)
    query = FIRST_QUERY

    def rebuild() -> object:
        store = BitMatStore.build(ntriples.load(data_path))
        return store, LBREngine(store).execute(query)

    def mmap_open() -> object:
        store = open_store(frozen_path)
        return store, LBREngine(store).execute(query)

    timings: dict[str, list[float]] = {}
    rows: dict[str, list] = {}
    materializations = 0
    for name, strategy in (("rebuild", rebuild),
                           ("mmap_open", mmap_open)):
        samples = []
        for _ in range(TRIALS):
            elapsed, (store, result) = _timed(strategy)
            samples.append(elapsed)
            rows[name] = sorted(result.rows)
            if name == "mmap_open":
                materializations = (
                    store.cache_stats()["extents"]["materializations"])
            store.close()
        timings[name] = samples

    medians = {name: statistics.median(samples)
               for name, samples in timings.items()}
    report = {
        "trials": TRIALS,
        "query": QUERY_NAME,
        "cold_start": {
            "rebuild_ms": medians["rebuild"] * 1000,
            "mmap_open_ms": medians["mmap_open"] * 1000,
            "mmap_speedup_vs_rebuild":
                medians["rebuild"] / medians["mmap_open"],
            "materializations_first_query": materializations,
            "num_predicates": source.num_predicates,
            "num_triples": source.num_triples,
            "rows": len(rows["mmap_open"]),
        },
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(OUT_PATH, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
    section = report["cold_start"]
    print(f"\n[cold start: rebuild={section['rebuild_ms']:.1f}ms "
          f"mmap={section['mmap_open_ms']:.1f}ms "
          f"speedup={section['mmap_speedup_vs_rebuild']:.1f}x "
          f"extents touched={materializations}"
          f"/{section['num_predicates']}]")
    print(f"[written to {OUT_PATH}]")
    report["_rows"] = rows
    return report


def test_mmap_cold_start_beats_rebuild_10x(cold_start_report):
    """Open-to-first-query over mmap must be ≥10× the rebuild path."""
    section = cold_start_report["cold_start"]
    assert section["mmap_speedup_vs_rebuild"] >= MIN_SPEEDUP_VS_REBUILD, \
        section


def test_first_query_leaves_most_extents_untouched(cold_start_report):
    """The speedup must come from laziness, not a faster decoder: the
    first query materializes only the predicates it names."""
    section = cold_start_report["cold_start"]
    assert 0 < section["materializations_first_query"] \
        < section["num_predicates"], section


def test_every_strategy_returns_the_same_rows(cold_start_report):
    rows = cold_start_report["_rows"]
    assert rows["rebuild"] == rows["mmap_open"]
    assert rows["mmap_open"], "first query returned no rows"
