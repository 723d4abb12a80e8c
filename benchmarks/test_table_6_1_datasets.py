"""Table 6.1 — dataset characteristics (#triples, #S, #P, #O).

The paper reports LUBM 1.33B / UniProt 845M / DBPedia 565M triples; the
reproduction generates structurally equivalent graphs at Python scale
and regenerates the same four columns (see ``benchmarks/out/``).
Graphs and stores are the session fixtures; nothing is regenerated.
"""


def test_benchmark_lubm_generation(lubm_graph):
    chars = lubm_graph.characteristics()
    assert chars["predicates"] >= 15
    assert chars["triples"] > 10_000


def test_benchmark_uniprot_generation(uniprot_graph):
    assert uniprot_graph.characteristics()["triples"] > 10_000


def test_benchmark_dbpedia_generation(dbpedia_graph):
    chars = dbpedia_graph.characteristics()
    # DBPedia's signature: a long predicate tail (57,453 in the paper)
    assert chars["predicates"] > 100


def test_benchmark_store_build(lubm_graph, lubm_store):
    assert lubm_store.num_triples == len(lubm_graph)


def test_characteristics_shape(lubm_graph, uniprot_graph, dbpedia_graph):
    lubm = lubm_graph.characteristics()
    uniprot = uniprot_graph.characteristics()
    dbpedia = dbpedia_graph.characteristics()
    # relative shapes of Table 6.1: LUBM has the fewest predicates,
    # DBPedia by far the most
    assert lubm["predicates"] < uniprot["predicates"] < dbpedia["predicates"]
    # triples dominate the other dimensions everywhere
    for chars in (lubm, uniprot, dbpedia):
        assert chars["triples"] >= chars["subjects"]
        assert chars["triples"] >= chars["objects"]
