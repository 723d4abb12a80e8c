"""Ablation — Algorithms 3.1+3.2 on vs off.

Not a paper table, but the design choice §3.3 defends: "our pruning
procedure is in fact quite light-weight, especially for low-selectivity
complex OPT patterns."  With pruning disabled the multi-way join runs
on the unpruned BitMats and needs the nullification/best-match safety
net; this ablation quantifies both effects.
"""

import statistics

import pytest

from repro import LBREngine
from repro.bench import timed
from repro.datasets import LUBM_QUERIES, UNIPROT_QUERIES

CASES = [("LUBM", "Q1"), ("LUBM", "Q2"), ("LUBM", "Q3"),
         ("UniProt", "Q1"), ("UniProt", "Q3")]


def _query(dataset, name):
    return (LUBM_QUERIES if dataset == "LUBM" else UNIPROT_QUERIES)[name]


def _cold_run(store, query, pruning: bool):
    """One timed run on a fresh engine: ``(seconds, result, stats)``."""
    engine = LBREngine(store, enable_prune=pruning)
    seconds, result = timed(lambda: engine.execute(query))
    return seconds, result, engine.last_stats


@pytest.fixture(scope="module")
def measured(lubm_store, uniprot_store):
    """Every (pruning, dataset, query) of the ablation, timed once."""
    stores = {"LUBM": lubm_store, "UniProt": uniprot_store}
    return {(pruning, dataset, name):
            _cold_run(stores[dataset], _query(dataset, name),
                      pruning == "on")
            for pruning in ("on", "off") for dataset, name in CASES}


@pytest.mark.parametrize("dataset,name", CASES)
@pytest.mark.parametrize("pruning", ["on", "off"])
def test_benchmark_pruning_ablation(measured, dataset, name, pruning):
    seconds, _, stats = measured[(pruning, dataset, name)]
    assert stats.t_init > 0
    assert seconds >= stats.t_init + stats.t_prune + stats.t_join
    if pruning == "off":
        # the join reads the BitMats exactly as init left them
        pruned = measured[("on", dataset, name)][2]
        assert stats.triples_after_pruning >= pruned.triples_after_pruning


@pytest.mark.parametrize("dataset,name", CASES)
def test_pruning_preserves_results(measured, dataset, name):
    on = measured[("on", dataset, name)][1]
    off = measured[("off", dataset, name)][1]
    assert on.as_multiset() == off.as_multiset()


def test_prune_time_is_lightweight(measured):
    """Tprune is a small fraction of Ttotal on low-selectivity queries."""
    for name in ("Q1", "Q2", "Q3"):
        stats = measured[("on", "LUBM", name)][2]
        assert stats.t_prune < stats.t_total / 2, name


def test_pruning_speeds_up_low_selectivity(lubm_store):
    """On LUBM Q2 the pruned run beats the unpruned run clearly.

    Every run is on a fresh engine, so init and prune are inside the
    comparison.  Medians of three interleaved measurements: a
    single-shot comparison occasionally loses a ~3x margin to one
    scheduler or GC hiccup on a loaded CI runner.
    """
    query = LUBM_QUERIES["Q2"]
    t_on, t_off = [], []
    for _ in range(3):
        t_on.append(_cold_run(lubm_store, query, True)[0])
        t_off.append(_cold_run(lubm_store, query, False)[0])
    assert statistics.median(t_on) < statistics.median(t_off)
