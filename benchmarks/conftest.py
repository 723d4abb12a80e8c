"""Shared benchmark fixtures: bench-scale datasets and table output.

Dataset scale: the paper runs LUBM(10000)/UniProt/DBPedia at 0.5–1.3
billion triples on a C++ engine; this reproduction runs the same query
and data *structure* at laptop-Python scale (tens of thousands of
triples — see DESIGN.md §2).  All comparative claims are about shapes,
not absolute numbers.

Each (engine, query) is timed once per session (``BenchmarkHarness``
behind the ``*_rows`` fixtures and the OPTIONAL sweep, or
:func:`repro.bench.timed` for the ablation and scaling variants), LBR
on a fresh engine; the test ids assert against that one measurement
and never re-time.

Paper-style tables (6.1–6.4, geometric means, index sizes) are written
to ``benchmarks/out/`` at the end of the session and echoed to stdout.
"""

from __future__ import annotations

import os

import pytest

from repro import BitMatStore
from repro.bench import (BenchmarkHarness, format_characteristics_table,
                         format_geomean_table, format_query_table,
                         format_verification)
from repro.datasets import (DBPEDIA_QUERIES, LUBM_QUERIES, UNIPROT_QUERIES,
                            generate_dbpedia, generate_lubm,
                            generate_uniprot)

OUT_DIR = os.path.join(os.path.dirname(__file__), "out")

#: timed runs per engine and query (no warm-up; LBR on a fresh engine)
RUNS = 1


@pytest.fixture(scope="session")
def lubm_graph():
    return generate_lubm()


@pytest.fixture(scope="session")
def uniprot_graph():
    return generate_uniprot()


@pytest.fixture(scope="session")
def dbpedia_graph():
    return generate_dbpedia()


@pytest.fixture(scope="session")
def lubm_store(lubm_graph):
    return BitMatStore.build(lubm_graph)


@pytest.fixture(scope="session")
def uniprot_store(uniprot_graph):
    return BitMatStore.build(uniprot_graph)


@pytest.fixture(scope="session")
def dbpedia_store(dbpedia_graph):
    return BitMatStore.build(dbpedia_graph)


#: the paper's table number for each dataset's query suite
TABLES = {"LUBM": "6.2", "UniProt": "6.3", "DBPedia": "6.4"}


def _write_tables(suites) -> None:
    """Render the measured suites as the paper-style tables."""
    ordered = [suites[key] for key in TABLES if key in suites]
    if not ordered:
        return
    sections = ["TABLE 6.1 — dataset characteristics\n"
                + format_characteristics_table(ordered)]
    sections += [f"TABLE {TABLES[suite.dataset]}\n"
                 + format_query_table(suite) for suite in ordered]
    sections.append(format_geomean_table(ordered))
    sections.append("Correctness vs oracle\n" + format_verification(
        [report for suite in ordered for report in suite.queries]))
    text = "\n\n".join(sections) + "\n"
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "paper_tables.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    print("\n" + text)
    print(f"[tables written to {path}]")


@pytest.fixture(scope="session")
def table_sink():
    """``{dataset: SuiteReport}``, written out at the end of the session."""
    suites = {}
    yield suites
    _write_tables(suites)


def _measure(sink, name: str, graph, store):
    """Measure a dataset's §6 suite once; ``{query name: report}``."""
    harness = BenchmarkHarness(name, graph, runs=RUNS, store=store)
    sink[name] = harness.run_suite(QUERY_SUITES[name])
    return {report.query: report for report in sink[name].queries}


@pytest.fixture(scope="session")
def lubm_rows(table_sink, lubm_graph, lubm_store):
    return _measure(table_sink, "LUBM", lubm_graph, lubm_store)


@pytest.fixture(scope="session")
def uniprot_rows(table_sink, uniprot_graph, uniprot_store):
    return _measure(table_sink, "UniProt", uniprot_graph, uniprot_store)


@pytest.fixture(scope="session")
def dbpedia_rows(table_sink, dbpedia_graph, dbpedia_store):
    return _measure(table_sink, "DBPedia", dbpedia_graph, dbpedia_store)


def assert_measured(report, engine_name: str) -> None:
    """One engine's measured cell of a §6 row is complete and sane."""
    assert report.verified
    if engine_name == "lbr":
        # the timed run is memo-cold: init always runs, prune runs
        # unless init already emptied an absolute-master TP
        assert report.t_init > 0
        assert report.t_prune > 0 or report.triples_after_pruning == 0
        assert report.t_lbr >= report.t_init + report.t_prune
        assert report.t_warm > 0
    else:
        assert getattr(report, f"t_{engine_name}") > 0


QUERY_SUITES = {
    "LUBM": LUBM_QUERIES,
    "UniProt": UNIPROT_QUERIES,
    "DBPedia": DBPEDIA_QUERIES,
}
