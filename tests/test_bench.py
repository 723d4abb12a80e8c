"""Benchmark harness and reporting tests."""

import math

import pytest

from repro.bench import (BenchmarkHarness, QueryReport, SuiteReport,
                         format_characteristics_table, format_geomean_table,
                         format_query_table, format_verification,
                         geometric_mean)
from repro.rdf.graph import Graph

from .conftest import EX, triples


@pytest.fixture(scope="module")
def harness():
    graph = Graph(triples(
        ("a", "p", "b"), ("b", "p", "c"), ("a", "q", "x"), ("c", "q", "y"),
    ))
    return BenchmarkHarness("Tiny", graph, runs=1)


QUERY = f"PREFIX ex: <{EX}>\nSELECT * WHERE {{ ?s ex:p ?o OPTIONAL {{ ?o ex:q ?x }} }}"


class TestHarness:
    def test_run_query_collects_metrics(self, harness):
        report = harness.run_query("Q1", QUERY)
        assert report.dataset == "Tiny"
        assert report.num_results == 2
        assert report.t_lbr > 0
        assert report.t_naive is not None and report.t_naive > 0
        assert report.t_columnstore is not None
        assert report.initial_triples == 4
        assert report.verified is True

    def test_run_suite(self, harness):
        suite = harness.run_suite({"Q1": QUERY, "Q2": QUERY})
        assert [r.query for r in suite.queries] == ["Q1", "Q2"]
        assert suite.characteristics["triples"] == 4

    def test_geometric_means(self, harness):
        suite = harness.run_suite({"Q1": QUERY})
        means = suite.geometric_means()
        assert set(means) == {"lbr", "naive", "columnstore"}
        assert all(value > 0 for value in means.values())

    def test_engines_can_be_disabled(self):
        graph = Graph(triples(("a", "p", "b")))
        harness = BenchmarkHarness("T", graph, runs=1, with_naive=False,
                                   with_columnstore=False, verify=False)
        report = harness.run_query("Q", f"PREFIX ex: <{EX}>\n"
                                        f"SELECT * WHERE {{ ?s ex:p ?o }}")
        assert report.t_naive is None
        assert report.t_columnstore is None
        assert report.verified is None


class TestGeometricMean:
    def test_simple(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)

    def test_zero_guard(self):
        assert geometric_mean([0.0, 1.0]) > 0

    def test_single_value(self):
        assert geometric_mean([3.5]) == pytest.approx(3.5)


class TestReporting:
    def _suite(self):
        report = QueryReport(dataset="Tiny", query="Q1", t_init=0.001,
                             t_prune=0.002, t_lbr=0.01, t_naive=0.5,
                             t_columnstore=0.03, initial_triples=1000,
                             triples_after_pruning=10, num_results=5,
                             results_with_nulls=2,
                             best_match_required=True, verified=True)
        return SuiteReport(dataset="Tiny",
                           characteristics={"triples": 4, "subjects": 3,
                                            "predicates": 2, "objects": 4},
                           queries=[report])

    def test_query_table_contains_all_columns(self):
        text = format_query_table(self._suite())
        for token in ("Q1", "Tinit", "Tprune", "1,000", "Yes"):
            assert token in text
        # the fastest engine is starred
        assert "*" in text

    def test_characteristics_table(self):
        text = format_characteristics_table([self._suite()])
        assert "Tiny" in text and "#triples" in text

    def test_geomean_table(self):
        text = format_geomean_table([self._suite()])
        assert "Tiny" in text and "Geometric" in text

    def test_verification_lines(self):
        text = format_verification(self._suite().queries)
        assert "Tiny Q1: OK" in text

