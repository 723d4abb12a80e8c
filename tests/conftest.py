"""Shared fixtures: the paper's running example, tiny datasets, oracles."""

from __future__ import annotations

import pytest

from repro import (BitMatStore, ColumnStoreEngine, Graph, LBREngine,
                   NaiveEngine, Triple, URI)

EX = "http://example.org/"


def uri(name: str) -> URI:
    """Shorthand for example.org URIs in tests."""
    return URI(EX + name)


def triples(*rows: tuple[str, str, str]) -> list[Triple]:
    """Build example.org triples from short names."""
    return [Triple(uri(s), uri(p), uri(o)) for s, p, o in rows]


#: The data of the paper's Figure 3.2 (the running example).
FIGURE_3_2 = [
    ("Julia", "actedIn", "Seinfeld"),
    ("Julia", "actedIn", "Veep"),
    ("Julia", "actedIn", "NewAdvOldChristine"),
    ("Julia", "actedIn", "CurbYourEnthu"),
    ("CurbYourEnthu", "location", "LosAngeles"),
    ("Larry", "actedIn", "CurbYourEnthu"),
    ("Jerry", "hasFriend", "Julia"),
    ("Jerry", "hasFriend", "Larry"),
    ("Seinfeld", "location", "NewYorkCity"),
    ("Veep", "location", "D.C."),
    ("NewAdvOldChristine", "location", "Jersey"),
]

#: The query of Figure 3.2 over that data (Q2 of the introduction).
FIGURE_3_2_QUERY = f"""
PREFIX ex: <{EX}>
SELECT ?friend ?sitcom WHERE {{
  ex:Jerry ex:hasFriend ?friend .
  OPTIONAL {{
    ?friend ex:actedIn ?sitcom .
    ?sitcom ex:location ex:NewYorkCity .
  }}
}}
"""


@pytest.fixture(scope="session")
def figure_graph() -> Graph:
    return Graph(triples(*FIGURE_3_2))


@pytest.fixture(scope="session")
def figure_store(figure_graph) -> BitMatStore:
    return BitMatStore.build(figure_graph)


@pytest.fixture()
def figure_engine(figure_store) -> LBREngine:
    return LBREngine(figure_store)


def decodes(store: BitMatStore) -> int:
    """Extents an image-backed store has decoded so far."""
    return store.cache_stats()["extents"]["materializations"]


def engines_for(graph: Graph):
    """(LBR, naive, columnstore) engines over a graph."""
    store = BitMatStore.build(graph)
    return LBREngine(store), NaiveEngine(graph), ColumnStoreEngine(graph)


def assert_engines_agree(graph: Graph, query: str,
                         compare: str = "bag") -> None:
    """Assert LBR, naive, and columnstore agree on a query."""
    lbr, naive, columnstore = engines_for(graph)
    result_lbr = lbr.execute(query)
    result_naive = naive.execute(query)
    result_col = columnstore.execute(query)
    if compare == "bag":
        assert result_lbr.as_multiset() == result_naive.as_multiset(), (
            f"LBR vs naive mismatch on:\n{query}")
        assert result_col.as_multiset() == result_naive.as_multiset(), (
            f"columnstore vs naive mismatch on:\n{query}")
    else:
        assert result_lbr.as_set() == result_naive.as_set()
        assert result_col.as_set() == result_naive.as_set()


def lbr_matches_oracle(graph: Graph, query: str) -> bool:
    """True when LBR's bag of rows equals the naive oracle's."""
    store = BitMatStore.build(graph)
    lbr = LBREngine(store).execute(query)
    naive = NaiveEngine(graph).execute(query)
    return lbr.as_multiset() == naive.as_multiset()
