"""Scaling — dataset size growth on the low-selectivity LUBM queries.

The paper's LUBM(10000) run demonstrates scalability: LBR's advantage
on low-selectivity queries persists (and grows) with data size because
pruning keeps the join input near the final result size while the
baselines' intermediate results grow with the data.  This bench runs
LUBM Q1/Q2 at 1× and 2× universities and checks that LBR's advantage
on Q2 does not shrink with scale.
"""

import os

import pytest

from repro import BitMatStore, LBREngine, NaiveEngine
from repro.bench import timed
from repro.datasets import LUBMConfig, LUBM_QUERIES, generate_lubm

from .conftest import OUT_DIR

SCALES = [1, 2]


@pytest.fixture(scope="module")
def scaled(lubm_graph, lubm_store):
    """``(graph, store)`` per scale; 1 university is the session's LUBM."""
    out = {1: (lubm_graph, lubm_store)}
    for universities in SCALES[1:]:
        graph = generate_lubm(LUBMConfig(universities=universities))
        out[universities] = (graph, BitMatStore.build(graph))
    return out


@pytest.fixture(scope="module")
def measured(scaled):
    """Seconds per (engine, universities, query), LBR on a fresh engine."""
    out = {}
    for universities in SCALES:
        graph, store = scaled[universities]
        for name in ("Q1", "Q2"):
            engine = LBREngine(store)
            out[("lbr", universities, name)] = timed(
                lambda: engine.execute(LUBM_QUERIES[name]))[0]
        naive = NaiveEngine(graph)
        out[("naive", universities, "Q2")] = timed(
            lambda: naive.execute(LUBM_QUERIES["Q2"]))[0]
    return out


@pytest.mark.parametrize("universities", SCALES)
@pytest.mark.parametrize("query_name", ["Q1", "Q2"])
def test_benchmark_scaling(measured, universities, query_name):
    assert measured[("lbr", universities, query_name)] > 0


def test_scaling_series_report(scaled, measured):
    lines = ["LUBM scaling (seconds/query, Q2)",
             f"{'universities':>13} {'triples':>10} {'LBR':>10} "
             f"{'naive':>10} {'ratio':>7}"]
    ratios = {}
    for universities in SCALES:
        graph, _ = scaled[universities]
        t_lbr = measured[("lbr", universities, "Q2")]
        t_naive = measured[("naive", universities, "Q2")]
        ratios[universities] = t_naive / t_lbr
        lines.append(f"{universities:>13} {len(graph):>10,} "
                     f"{t_lbr:>10.3f} {t_naive:>10.3f} "
                     f"{ratios[universities]:>6.1f}x")
    text = "\n".join(lines)
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "scaling.txt"), "w",
              encoding="utf-8") as handle:
        handle.write(text + "\n")
    print("\n" + text)

    # LBR must stay clearly ahead at the larger scale too
    assert ratios[SCALES[-1]] > 2.0


def test_results_correct_at_larger_scale(scaled):
    graph, store = scaled[SCALES[-1]]
    engine = LBREngine(store)
    oracle = NaiveEngine(graph)
    for name in ("Q1", "Q4", "Q6"):
        query = LUBM_QUERIES[name]
        assert engine.execute(query).as_multiset() == \
            oracle.execute(query).as_multiset(), name
