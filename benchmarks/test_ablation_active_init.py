"""Ablation — active pruning during init (§5) on vs off.

Active pruning restricts each BitMat while loading it using the
bindings of previously loaded master/peer TPs, and powers the paper's
early empty-result detection (UniProt Q2, DBPedia Q2/Q3: "LBR's init
procedure with active pruning detects empty results of the query much
earlier, and abandons further query processing").
"""

import itertools

import pytest

from repro import LBREngine
from repro.bench import timed
from repro.datasets import DBPEDIA_QUERIES, LUBM_QUERIES, UNIPROT_QUERIES

EMPTY_CASES = {"uniprot-Q2": ("uniprot", UNIPROT_QUERIES["Q2"]),
               "dbpedia-Q2": ("dbpedia", DBPEDIA_QUERIES["Q2"]),
               "dbpedia-Q3": ("dbpedia", DBPEDIA_QUERIES["Q3"])}


@pytest.fixture(scope="module")
def measured(request):
    """``(seconds, result, stats)`` per (active, case), fresh engines."""
    out = {}
    for (case_id, (dataset, query)), active in itertools.product(
            EMPTY_CASES.items(), ("on", "off")):
        engine = LBREngine(request.getfixturevalue(f"{dataset}_store"),
                           enable_active_prune=(active == "on"))
        seconds, result = timed(lambda: engine.execute(query))
        out[(active, case_id)] = (seconds, result, engine.last_stats)
    return out


@pytest.mark.parametrize("case_id", EMPTY_CASES)
@pytest.mark.parametrize("active", ["on", "off"])
def test_benchmark_active_init(measured, case_id, active):
    seconds, result, stats = measured[(active, case_id)]
    assert len(result) == 0
    assert stats.t_init > 0
    assert seconds >= stats.t_init + stats.t_prune


@pytest.mark.parametrize("case_id", EMPTY_CASES)
def test_empty_results_detected_at_init(measured, case_id):
    _, result, stats = measured[("on", case_id)]
    assert len(result) == 0
    assert stats.aborted_empty
    # detection happens before the join phase does any work
    assert stats.t_join == 0.0


@pytest.mark.parametrize("name", ["Q1", "Q4", "Q6"])
def test_active_init_preserves_results(lubm_store, name):
    query = LUBM_QUERIES[name]
    on = LBREngine(lubm_store, enable_active_prune=True).execute(query)
    off = LBREngine(lubm_store, enable_active_prune=False).execute(query)
    assert on.as_multiset() == off.as_multiset()
