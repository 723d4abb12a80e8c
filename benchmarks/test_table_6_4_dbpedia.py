"""Table 6.4 — DBPedia query processing times (Q1–Q6, three engines).

Expected shape (paper, DBPedia 565M): LBR ahead on the low-selectivity
Q1 (four OPTIONALs over populated places); Q2/Q3 are empty and detected
at init by active pruning; Q4–Q6 are selective and all engines finish
within milliseconds of each other; all six queries acyclic.
"""

import pytest

from .conftest import QUERY_SUITES, assert_measured


@pytest.mark.parametrize("query_name", QUERY_SUITES["DBPedia"])
@pytest.mark.parametrize("engine_name", ["lbr", "naive", "columnstore"])
def test_benchmark_dbpedia(dbpedia_rows, engine_name, query_name):
    assert_measured(dbpedia_rows[query_name], engine_name)


def test_table_6_4_report(dbpedia_rows):
    reports = dbpedia_rows.values()

    assert all(r.verified for r in reports)

    # all six queries acyclic: never best-match (Table 6.4)
    assert not any(r.best_match_required for r in reports)

    # Q2 and Q3 empty, detected during init with zero triples kept
    for name in ("Q2", "Q3"):
        report = dbpedia_rows[name]
        assert report.num_results == 0, name
        assert report.triples_after_pruning == 0, name

    # Q1 is the low-selectivity query: most results carry NULLs and a
    # large share of the initial triples is pruned
    q1 = dbpedia_rows["Q1"]
    assert q1.num_results > 100
    assert q1.results_with_nulls > q1.num_results / 2
    assert q1.triples_after_pruning < q1.initial_triples / 2

    # Q6 (eight OPTIONAL patterns) returns a small all-NULL-ish set
    q6 = dbpedia_rows["Q6"]
    assert 0 < q6.num_results < 100
    assert q6.results_with_nulls == q6.num_results
