"""Metamorphic guards over the full example-query suites.

Three properties every Appendix E template query must satisfy on its
generated dataset, regardless of engine internals:

* **plan-cache warm ≡ cold** — a repeated execution served from the
  compiled-plan cache must return the *same rows in the same order* as
  a cold engine (the §5 invariant of DESIGN.md; guards the
  ``PhysicalPlan`` reuse under the structural-hash cache keys);
* **alpha-renaming is free** — the template with every variable renamed
  and the text re-serialized from the algebra is a plan-cache *hit* and
  returns the same rows under the new column names;
* **pruning ablation invariance** — ``enable_prune=True`` and
  ``False`` (and disabled active pruning) must agree bag-exactly:
  Algorithm 3.2 is an optimization, never a semantics change.

These complement the per-case checks the fuzz harness runs on random
queries: here the queries are the paper's 19 templates over the three
generated datasets.
"""

from __future__ import annotations

import pytest

from repro import BitMatStore, LBREngine, Variable
from repro.datasets import (ALL_SUITES, generate_dbpedia, generate_lubm,
                            generate_uniprot)
from repro.plan.hashing import variable_order
from repro.plan.logical import build_logical, rename_logical, to_ast
from repro.sparql.ast import Query
from repro.sparql.parser import parse_query

_GENERATORS = {
    "LUBM": generate_lubm,
    "UniProt": generate_uniprot,
    "DBPedia": generate_dbpedia,
}

_CASES = [(dataset, name, query)
          for dataset, suite in ALL_SUITES.items()
          for name, query in suite.items()]


@pytest.fixture(scope="module")
def stores():
    """One BitMat store per dataset, shared by every query of a suite."""
    return {dataset: BitMatStore.build(generate())
            for dataset, generate in _GENERATORS.items()}


@pytest.fixture(scope="module")
def warm_engines(stores):
    """One long-lived engine per dataset whose plan cache fills up."""
    return {dataset: LBREngine(store)
            for dataset, store in stores.items()}


@pytest.mark.parametrize("dataset,name,query", _CASES,
                         ids=[f"{d}-{n}" for d, n, _ in _CASES])
def test_plan_cache_warm_equals_cold(dataset, name, query, stores,
                                     warm_engines):
    store = stores[dataset]
    cold = LBREngine(store).execute(query)
    engine = warm_engines[dataset]
    engine.execute(query)  # populate the plan cache
    warm = engine.execute(query)  # plan-cache hit
    assert engine.plan_cache_stats()["hits"] >= 1
    assert warm.variables == cold.variables
    assert warm.rows == cold.rows, (
        f"{dataset} {name}: warm plan-cache run diverged from cold")


def alpha_renamed(text: str) -> tuple[str, dict[Variable, Variable]]:
    """The template with every variable suffixed ``zz``, re-serialized
    from the algebra (so the formatting differs too), and the
    renamed → original variable map."""
    query = parse_query(text)
    logical = build_logical(query)
    mapping = {var: Variable(f"{var}zz") for var in variable_order(logical)}
    renamed = rename_logical(logical, mapping)
    rebuilt = Query(pattern=to_ast(renamed.root), select=renamed.select,
                    distinct=renamed.distinct, prefixes=query.prefixes,
                    order_by=renamed.order_by, limit=renamed.limit,
                    offset=renamed.offset)
    return rebuilt.to_sparql(), {new: old for old, new in mapping.items()}


@pytest.mark.parametrize("dataset,name,query", _CASES,
                         ids=[f"{d}-{n}" for d, n, _ in _CASES])
def test_alpha_renamed_template_hits_the_plan_cache(dataset, name, query,
                                                    warm_engines):
    engine = warm_engines[dataset]
    original = engine.execute(query)
    renamed_text, back = alpha_renamed(query)
    assert renamed_text != query
    before = engine.plan_cache_stats()
    renamed = engine.execute(renamed_text)
    after = engine.plan_cache_stats()
    assert after["hits"] == before["hits"] + 1, f"{dataset} {name}"
    assert after["misses"] == before["misses"], f"{dataset} {name}"
    stats = engine.last_stats
    assert min(stats.t_plan, stats.t_init, stats.t_prune, stats.t_join) >= 0
    assert (stats.t_plan + stats.t_init + stats.t_prune + stats.t_join
            <= stats.t_total + 1e-9)
    column = {back[var]: i for i, var in enumerate(renamed.variables)}
    order = [column[var] for var in original.variables]
    assert [tuple(row[i] for i in order)
            for row in renamed.rows] == original.rows, f"{dataset} {name}"


@pytest.mark.parametrize("dataset,name,query", _CASES,
                         ids=[f"{d}-{n}" for d, n, _ in _CASES])
def test_prune_ablations_agree(dataset, name, query, stores):
    store = stores[dataset]
    pruned = LBREngine(store, enable_prune=True).execute(query)
    unpruned = LBREngine(store, enable_prune=False).execute(query)
    raw = LBREngine(store, enable_prune=False,
                    enable_active_prune=False).execute(query)
    assert pruned.as_multiset() == unpruned.as_multiset(), (
        f"{dataset} {name}: Algorithm 3.2 ablation changed results")
    assert pruned.as_multiset() == raw.as_multiset(), (
        f"{dataset} {name}: active-pruning ablation changed results")
