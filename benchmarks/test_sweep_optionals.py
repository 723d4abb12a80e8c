"""Sweep — query complexity in number of OPTIONAL patterns (1..8).

DBPedia logs show queries with up to eight OPTIONAL patterns (§1); Q6
is the paper's eight-OPT specimen.  This sweep scales a Q6-like query
from one to eight OPTIONAL blocks over the company entities and runs
all three engines, producing a series (written to
``benchmarks/out/optional_sweep.txt``) that shows how each engine's
cost grows with OPTIONAL count.
"""

import os

import pytest

from repro import NULL, LBREngine
from repro.bench import BenchmarkHarness

from .conftest import OUT_DIR, assert_measured

_PREFIX = (
    "PREFIX dbpprop: <http://dbpedia.org/property/>\n"
    "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n"
    "PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>\n"
    "PREFIX skos: <http://www.w3.org/2004/02/skos/core#>\n"
    "PREFIX georss: <http://www.georss.org/georss/>\n")

_OPTIONAL_BLOCKS = [
    "OPTIONAL { ?v0 skos:subject ?o1 . }",
    "OPTIONAL { ?v0 dbpprop:industry ?o2 . }",
    "OPTIONAL { ?v0 dbpprop:location ?o3 . }",
    "OPTIONAL { ?v0 dbpprop:locationCountry ?o4 . }",
    "OPTIONAL { ?v0 dbpprop:locationCity ?o5 . }",
    "OPTIONAL { ?v0 dbpprop:products ?o6 . }",
    "OPTIONAL { ?v0 georss:point ?o7 . }",
    "OPTIONAL { ?v0 rdf:type ?o8 . }",
]

SWEEP = [1, 2, 4, 6, 8]


def sweep_query(optionals: int) -> str:
    blocks = "\n  ".join(_OPTIONAL_BLOCKS[:optionals])
    return (f"{_PREFIX}SELECT * WHERE {{\n"
            f"  ?v0 rdfs:comment ?v1 .\n  {blocks}\n}}")


@pytest.fixture(scope="module")
def measured(dbpedia_graph, dbpedia_store):
    """One §6 row per #OPTIONALs, each engine timed once."""
    harness = BenchmarkHarness("sweep", dbpedia_graph, runs=1,
                               store=dbpedia_store)
    return {optionals: harness.run_query(str(optionals),
                                         sweep_query(optionals))
            for optionals in SWEEP}


@pytest.mark.parametrize("optionals", SWEEP)
@pytest.mark.parametrize("engine_name", ["lbr", "naive", "columnstore"])
def test_benchmark_optional_sweep(measured, engine_name, optionals):
    assert_measured(measured[optionals], engine_name)


def test_sweep_series_report(measured):
    lines = ["OPTIONAL-count sweep over companies (seconds/query)",
             f"{'#OPT':>5} {'LBR':>10} {'naive':>10} {'columnstore':>12} "
             f"{'#results':>9}"]
    for optionals in SWEEP:
        report = measured[optionals]
        lines.append(f"{optionals:>5} {report.t_lbr:>10.4f} "
                     f"{report.t_naive:>10.4f} "
                     f"{report.t_columnstore:>12.4f} "
                     f"{report.num_results:>9,}")
    text = "\n".join(lines)
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "optional_sweep.txt"), "w",
              encoding="utf-8") as handle:
        handle.write(text + "\n")
    print("\n" + text)


def test_sweep_results_agree(measured):
    assert all(report.verified for report in measured.values())


def test_every_result_row_keeps_master_bindings(dbpedia_store):
    result = LBREngine(dbpedia_store).execute(sweep_query(8))
    comment_index = result.variables.index("v1")
    assert all(row[comment_index] is not NULL for row in result)
