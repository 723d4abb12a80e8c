"""Table 6.3 — UniProt query processing times (Q1–Q7, three engines).

Expected shape (paper, UniProt 845M): LBR ahead on the multi-block
low-selectivity queries; Q2 is detected empty at init (the paper's
"active pruning detects empty results much earlier"); Q4's slave is
emptied by a single master→slave semi-join, so every row is NULL-padded;
all seven queries are acyclic — best-match is never required.
"""

import pytest

from .conftest import QUERY_SUITES, assert_measured


@pytest.mark.parametrize("query_name", QUERY_SUITES["UniProt"])
@pytest.mark.parametrize("engine_name", ["lbr", "naive", "columnstore"])
def test_benchmark_uniprot(uniprot_rows, engine_name, query_name):
    assert_measured(uniprot_rows[query_name], engine_name)


def test_table_6_3_report(uniprot_rows):
    reports = uniprot_rows.values()

    assert all(r.verified for r in reports)

    # all seven queries are acyclic: never best-match (Table 6.3)
    assert not any(r.best_match_required for r in reports)

    # Q2 empty, detected early: zero triples left, way faster than the
    # baselines which discover emptiness much later
    q2 = uniprot_rows["Q2"]
    assert q2.num_results == 0
    assert q2.triples_after_pruning == 0
    assert q2.t_lbr < q2.t_naive
    assert q2.t_lbr < q2.t_columnstore

    # Q4: the semi-join empties the slave — every row NULL-padded
    q4 = uniprot_rows["Q4"]
    assert q4.num_results > 0
    assert q4.results_with_nulls == q4.num_results

    # Q5 hinges on the selective modified-date TP: tiny result
    assert uniprot_rows["Q5"].num_results < uniprot_rows["Q1"].num_results

    # pruning bites on the low-selectivity queries
    for name in ("Q1", "Q3", "Q5"):
        report = uniprot_rows[name]
        assert report.triples_after_pruning < report.initial_triples / 2
