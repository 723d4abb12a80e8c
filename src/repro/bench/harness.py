"""Benchmark harness reproducing the paper's §6 measurement columns.

Every measurement is one :func:`timed` call: one run, no warm-up.  Per
query each engine is timed *runs* times and the average reported.  LBR
runs on a fresh :class:`LBREngine` over the warm store, so each timed
run compiles, initializes and prunes (the paper's Tplan/Tinit/Tprune/
Ttotal); a second run on the same engine replays the pruned-state memo
and is reported as ``t_warm``.  The baselines keep no cache, so one
run measures them.  Verification compares the timed runs' own results
(LBR and the columnstore against the naive oracle, bag-exactly)
instead of executing again.
"""

from __future__ import annotations

import gc
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence, TypeVar

from ..baselines.columnstore import ColumnStoreEngine
from ..baselines.naive import NaiveEngine
from ..bitmat.store import BitMatStore
from ..core.engine import LBREngine
from ..rdf.graph import Graph

T = TypeVar("T")


@dataclass
class QueryReport:
    """One row of a Table 6.2/6.3/6.4 reproduction."""

    dataset: str
    query: str
    t_plan: float = 0.0
    t_init: float = 0.0
    t_prune: float = 0.0
    t_lbr: float = 0.0
    t_warm: float = 0.0
    t_naive: float = 0.0
    t_columnstore: float = 0.0
    initial_triples: int = 0
    triples_after_pruning: int = 0
    num_results: int = 0
    results_with_nulls: int = 0
    best_match_required: bool = False
    verified: bool = False


@dataclass
class SuiteReport:
    """All query rows of one dataset plus the §6.2 geometric means."""

    dataset: str
    characteristics: dict[str, int]
    queries: list[QueryReport] = field(default_factory=list)

    def geometric_means(self) -> dict[str, float]:
        """Per-engine geometric mean of total query times (§6.2)."""
        return {
            "lbr": geometric_mean([r.t_lbr for r in self.queries]),
            "naive": geometric_mean([r.t_naive for r in self.queries]),
            "columnstore": geometric_mean(
                [r.t_columnstore for r in self.queries]),
        }


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean, guarding against zero measurements."""
    safe = [max(value, 1e-9) for value in values]
    return math.exp(sum(math.log(value) for value in safe) / len(safe))


def timed(run: Callable[[], T]) -> tuple[float, T]:
    """Run *run* once, with no warm-up: ``(seconds, result)``.  As in
    :mod:`timeit`, the cyclic GC is paused: one full collection over a
    test session's heap takes up to 0.7 s, on whichever query it hits."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        result = run()
        return time.perf_counter() - started, result
    finally:
        if enabled:
            gc.enable()


class BenchmarkHarness:
    """Runs a query suite over the three engines of §6."""

    def __init__(self, dataset: str, graph: Graph, runs: int = 3,
                 store: BitMatStore | None = None) -> None:
        if runs < 1:
            raise ValueError(f"runs must be at least 1, got {runs}")
        self.dataset = dataset
        self.graph = graph
        self.runs = runs
        self.store = store if store is not None else BitMatStore.build(graph)
        self.naive = NaiveEngine(graph)
        self.columnstore = ColumnStoreEngine(graph)

    def run_query(self, name: str, query: str) -> QueryReport:
        """Measure one query on every engine, *runs* times each."""
        report = QueryReport(dataset=self.dataset, query=name)
        share = 1.0 / self.runs
        for _ in range(self.runs):
            engine = LBREngine(self.store)
            seconds, lbr_result = timed(lambda: engine.execute(query))
            stats = engine.last_stats
            report.t_lbr += seconds * share
            report.t_plan += stats.t_plan * share
            report.t_init += stats.t_init * share
            report.t_prune += stats.t_prune * share
            report.t_warm += timed(lambda: engine.execute(query))[0] * share
            seconds, naive_result = timed(lambda: self.naive.execute(query))
            report.t_naive += seconds * share
            seconds, col_result = timed(
                lambda: self.columnstore.execute(query))
            report.t_columnstore += seconds * share

        report.initial_triples = stats.initial_triples
        report.triples_after_pruning = stats.triples_after_pruning
        report.num_results = stats.num_results
        report.results_with_nulls = stats.results_with_nulls
        report.best_match_required = stats.best_match_required
        report.verified = (lbr_result.as_multiset()
                           == naive_result.as_multiset()
                           == col_result.as_multiset())
        return report

    def run_suite(self, queries: Mapping[str, str]) -> SuiteReport:
        """Measure every query of a suite, in order."""
        suite = SuiteReport(dataset=self.dataset,
                            characteristics=self.graph.characteristics())
        for name, query in queries.items():
            suite.queries.append(self.run_query(name, query))
        return suite
