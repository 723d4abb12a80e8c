"""Seeded request lists for the four workloads.

A request is ``(key, text)``: the key names the template or ad-hoc
shape (metrics are grouped by it), the text is what goes over the
wire.  Lists are pure functions of ``(seed, entity pools)`` — the same
seed gives byte-identical lists.
"""

from __future__ import annotations

import random
from typing import Iterator

Request = tuple[str, str]

#: the paper's "highly selective" templates — what ``cold_open`` runs
#: after every open, and the shapes ``adhoc_selective`` re-instantiates
SELECTIVE = ("LUBM-Q4", "LUBM-Q5", "LUBM-Q6", "UniProt-Q2", "UniProt-Q5",
             "DBPedia-Q2", "DBPedia-Q3", "DBPedia-Q6")

_PREFIXES = """\
PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
PREFIX uni: <http://purl.uniprot.org/core/>
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
PREFIX dbpowl: <http://dbpedia.org/ontology/>
PREFIX dbpprop: <http://dbpedia.org/property/>
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
PREFIX skos: <http://www.w3.org/2004/02/skos/core#>
PREFIX georss: <http://www.georss.org/georss/>
"""

#: ad-hoc shapes: (key, pool, body with ``$C`` for the constant, weight).
#: Each is a selective Appendix-E template with its ground term swapped
#: for one that identifies a single entity (``data.entity_pools``), so
#: the pools are large enough that no query text ever repeats.  Weights
#: are unequal on purpose: with equal shares the median of the mix
#: would sit exactly on the border between two shapes.
ADHOC_SHAPES = (
    # LUBM Q4/Q5: cyclic slave with more than one jvar (best-match)
    ("lubm-q4", "course", """
  ?x ub:teacherOf $C .
  OPTIONAL { ?y ub:advisor ?x . ?x ub:teacherOf ?z . ?y ub:takesCourse ?z . }
""", 3),
    # LUBM Q6: acyclic three-TP slave
    ("lubm-q6", "course", """
  ?x ub:teacherOf $C .
  OPTIONAL { ?x ub:emailAddress ?y1 . ?x ub:telephone ?y2 . ?x ub:name ?y3 . }
""", 2),
    # UniProt Q5: two master blocks, each with its own slave
    ("uniprot-q5", "protein", """
  { ?b uni:mnemonic $C .
    ?b rdf:type uni:Protein .
    OPTIONAL { ?b uni:sequence ?seq . ?seq uni:memberOf ?m . } }
  { ?b uni:encodedBy ?gene .
    OPTIONAL { ?gene uni:name ?name . ?gene rdf:type uni:Gene . } }
""", 3),
    # UniProt Q2: three blocks chained through ?b and ?z
    ("uniprot-q2", "protein", """
  { ?a rdf:subject ?b . OPTIONAL { ?a rdfs:seeAlso ?x . } }
  { ?b uni:mnemonic $C .
    ?b uni:sequence ?z .
    OPTIONAL { ?b uni:replaces ?c . } }
  { ?z a uni:Simple_Sequence . OPTIONAL { ?z uni:version ?v . } }
""", 2),
    # DBPedia Q2: always empty — literals have no dbpowl:capacity
    ("dbpedia-q2", "player", """
  ?v3 foaf:page $C .
  ?v3 a dbpowl:SoccerPlayer .
  ?v3 dbpprop:position ?v6 .
  ?v3 dbpprop:clubs ?v8 .
  ?v8 dbpowl:capacity ?v1 .
  ?v3 dbpowl:birthPlace ?v5 .
  OPTIONAL { ?v3 dbpowl:number ?v9 . }
""", 1),
    # DBPedia Q3: one master star, two slaves
    ("dbpedia-q3", "place", """
  ?v5 rdfs:label $C .
  ?v5 rdf:type dbpowl:PopulatedPlace .
  OPTIONAL { ?v5 foaf:homepage ?v10 . }
  OPTIONAL { ?v5 dbpowl:thumbnail ?v4 . }
""", 3),
    # DBPedia Q6: eight OPTIONAL patterns
    ("dbpedia-q6", "company", """
  ?v0 rdfs:comment $C .
  OPTIONAL { ?v0 skos:subject ?v6 . }
  OPTIONAL { ?v0 dbpprop:industry ?v5 . }
  OPTIONAL { ?v0 dbpprop:location ?v2 . }
  OPTIONAL { ?v0 dbpprop:locationCountry ?v3 . }
  OPTIONAL { ?v0 dbpprop:locationCity ?v9 . ?a dbpprop:manufacturer ?v0 . }
  OPTIONAL { ?v0 dbpprop:products ?v11 . ?b dbpprop:model ?v0 . }
  OPTIONAL { ?v0 georss:point ?v10 . }
  OPTIONAL { ?v0 rdf:type ?v7 . }
""", 2),
)


def templates() -> dict[str, str]:
    """The 19 Appendix-E templates, keyed ``<dataset>-<Qn>``."""
    from repro.datasets import ALL_SUITES
    return {f"{dataset}-{name}": text
            for dataset, suite in ALL_SUITES.items()
            for name, text in suite.items()}


def _rounds(label: str, requests: list[Request],
            ) -> Iterator[list[Request]]:
    """Endless passes over *requests*, each in a fresh seeded order.

    Reshuffling every pass matters with two clients: their passes take
    about the same time, so with one fixed order each the same pairs of
    requests would overlap for the whole run, and which pairs would
    depend on the seed.
    """
    rng = random.Random(label)
    while True:
        rng.shuffle(requests)
        yield list(requests)


def template_rounds(seed: int, client: int) -> Iterator[list[Request]]:
    """Passes over the 19 templates in this client's seeded orders."""
    return _rounds(f"templates/{seed}/{client}",
                   sorted(templates().items()))


def selective_rounds(seed: int) -> Iterator[list[Request]]:
    """Passes over the 8 selective templates in seeded orders."""
    texts = templates()
    return _rounds(f"selective/{seed}",
                   [(key, texts[key]) for key in SELECTIVE])


def adhoc_requests(seed: int, pools: dict[str, list[str]],
                   count: int) -> list[Request]:
    """*count* distinct selective queries in this seed's order.

    The (shape, constant) pairs are drawn without replacement, shapes
    in proportion to their weights as far as the pools allow, by a
    draw that does not depend on the seed: every text is checked
    against a ``ColumnStoreEngine`` answer that costs ~17 ms to
    compute, so the texts are the same for every seed (their answers
    are computed once per checkout) and the seed decides the order,
    and with it which client sends what and what meets what in the
    program's caches.
    """
    draw = random.Random("adhoc/texts")
    candidates: list[tuple[str, str]] = []
    total_weight = sum(weight for *_, weight in ADHOC_SHAPES)
    for key, pool, body, weight in ADHOC_SHAPES:
        wanted = min(len(pools[pool]), -(-count * weight // total_weight))
        for constant in draw.sample(pools[pool], wanted):
            candidates.append((key, _PREFIXES + "SELECT * WHERE {"
                               + body.replace("$C", constant) + "}"))
    draw.shuffle(candidates)
    requests = candidates[:count]
    random.Random(f"adhoc/{seed}").shuffle(requests)
    return requests


#: benchmark-only vocabulary: no template mentions it, and its subjects
#: never appear as objects (so the overlay's shared S-O region is
#: never violated and no batch forces a synchronous checkpoint)
BENCH_NS = "http://e2ebench.invalid/"
#: triples per update batch (adds + deletes)
BATCH_TRIPLES = 200
#: benchmark-only triples kept live before the writer starts deleting
LIVE_POPULATION = 10000


def update_batches(seed: int) -> Iterator[tuple[list[str], list[str]]]:
    """Endless ``(adds, deletes)`` batches of N-Triples lines.

    Every batch adds fresh benchmark-only triples; once
    ``LIVE_POPULATION`` of them are live, each batch also deletes the
    oldest ones, half adds and half deletes, so the graph stays bounded
    while the delta keeps growing towards the compaction threshold.
    """
    rng = random.Random(f"updates/{seed}")
    live: list[str] = []
    serial = 0
    while True:
        deleting = len(live) >= LIVE_POPULATION
        adds = []
        for _ in range(BATCH_TRIPLES // 2 if deleting else BATCH_TRIPLES):
            serial += 1
            adds.append(f"<{BENCH_NS}s/{seed}/{serial}> "
                        f"<{BENCH_NS}p{rng.randrange(4)}> "
                        f"\"v{rng.randrange(1 << 30)}\" .")
        deletes = []
        if deleting:
            deletes, live = (live[:BATCH_TRIPLES // 2],
                             live[BATCH_TRIPLES // 2:])
        live.extend(adds)
        yield adds, deletes
