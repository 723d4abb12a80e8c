"""The benchmark graph: one merged Appendix-E dataset at one scale.

``generate_lubm`` + ``generate_uniprot`` + ``generate_dbpedia`` on one
store, so all 19 templates run against it.  The graph is the same for
every ``--seed``: template result sizes swing 5–30 % between generator
seeds (LUBM Q2: 7.8k–10.8k rows at the default scale), which would
drown a 10 % regression bound, and a graph per seed would have to be
generated (4 s) and given its reference answers (2 min) in every run.
So the seed drives the *request lists* and the generator seeds stay
the generators' own defaults.  Generation is the benchmark's
cost, not the program's: the triples are cached under ``out/`` per
scale and the time is reported as ``datasets.datagen_s``, outside
``setup_s``.
"""

from __future__ import annotations

import gc
import hashlib
import os
import pickle
import time

from . import OUT, SRC

#: multiple of the generators' default configs: 4 LUBM universities,
#: 8,000 proteins and four times the default DBPedia population on one
#: store, 288,820 triples.  The issue's tiers are 1M, 500k and 250k,
#: the largest that fits; what it has to fit is the driver's 92 runs in
#: 3420 s, 35 s a run with everything.  Measured on this machine: at
#: 1.02M (scale 14) one set-up is 8 s and the discarded warm-up pass
#: 15 s; at 514k (scale 7) a set-up is 3.1 s and a run with three of
#: them, a warm-up and 20 s of measurement 36-45 s.  At 289k it is
#: 27-35 s (2970 s for all 92 with the trace runs and the two
#: first-run cache fills), which leaves a slow machine some room.
#: This is the 250k tier.
SCALE = 4.0


def cache_tag(scale: float = SCALE) -> str:
    """Names this scale's caches: the scale plus a hash of the sources
    the graph and its reference answers come from (generators, terms,
    parser, reference engine, this module), so that a cache never
    outlives the code that made it."""
    hasher = hashlib.blake2b(digest_size=6)
    paths = [os.path.abspath(__file__)]
    for part in ("datasets", "rdf", "sparql", "baselines"):
        root = os.path.join(SRC, "repro", part)
        paths += [os.path.join(root, name)
                  for name in sorted(os.listdir(root))
                  if name.endswith(".py")]
    for path in paths:
        with open(path, "rb") as handle:
            hasher.update(handle.read())
    return f"x{scale:g}-{hasher.hexdigest()}"


def generate(scale: float) -> list:
    """The merged graph as a list of distinct triples."""
    from repro.datasets import (DBPediaConfig, LUBMConfig, UniProtConfig,
                                generate_dbpedia, generate_lubm,
                                generate_uniprot)
    lubm = LUBMConfig(universities=max(1, round(scale)))
    if scale < 1:  # below one university, shrink its departments
        lubm.departments_min = max(1, round(lubm.departments_min * scale))
        lubm.departments_max = max(1, round(lubm.departments_max * scale))
    uniprot = UniProtConfig()
    uniprot.proteins = int(uniprot.proteins * scale)
    dbpedia = DBPediaConfig()
    for knob in ("places", "settlements", "airports", "soccer_players",
                 "persons", "companies", "vehicles"):
        setattr(dbpedia, knob, int(getattr(dbpedia, knob) * scale))
    triples: list = []
    # the three vocabularies share predicates (rdf:type, rdfs:label)
    # but no subject, so concatenation cannot produce a duplicate
    for graph in (generate_lubm(lubm), generate_uniprot(uniprot),
                  generate_dbpedia(dbpedia)):
        triples.extend(sorted(graph))
    return triples


def load(scale: float = SCALE) -> tuple[list, float]:
    """``(triples, datagen_s)``, from the cache when it is there."""
    started = time.perf_counter()
    path = os.path.join(OUT, f"graph-{cache_tag(scale)}.pickle")
    # a million small objects: the collector would traverse them on
    # every generation-2 pass, here and for the rest of the run
    gc.disable()
    try:
        try:
            # only ever bytes this benchmark wrote itself
            with open(path, "rb") as handle:
                triples = pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError):
            triples = generate(scale)
            os.makedirs(OUT, exist_ok=True)
            # the sources changed: this scale's older caches are dead
            for name in os.listdir(OUT):
                if name.partition("-")[2].startswith(f"x{scale:g}-"):
                    os.remove(os.path.join(OUT, name))
            temporary = f"{path}.{os.getpid()}.tmp"
            with open(temporary, "wb") as handle:
                pickle.dump(triples, handle, pickle.HIGHEST_PROTOCOL)
            os.replace(temporary, path)
    finally:
        gc.enable()
    gc.freeze()
    return triples, time.perf_counter() - started


#: ad-hoc constants: pool name -> (predicate suffix, object marker).
#: Each object identifies (nearly) one subject, so a triple pattern
#: ``?x <predicate> <constant>`` is a highly selective master.
_POOLS = {"course": ("#teacherOf", "Course"),
          "protein": ("/mnemonic", "PROT"),
          "place": ("#label", "Place "),
          "player": ("/page", "/Player"),
          "company": ("#comment", "about company ")}


def entity_pools(triples: list) -> dict[str, list[str]]:
    """Sorted N3 constants per pool, for the ad-hoc queries."""
    by_predicate = {suffix: (name, marker)
                    for name, (suffix, marker) in _POOLS.items()}
    pools: dict[str, list[str]] = {name: [] for name in _POOLS}
    suffix_of: dict[str, tuple[str, str] | None] = {}
    for _subject, predicate, obj in triples:
        if predicate not in suffix_of:
            suffix_of[predicate] = next(
                (entry for suffix, entry in by_predicate.items()
                 if predicate.endswith(suffix)), None)
        entry = suffix_of[predicate]
        if entry is not None and entry[1] in obj:
            pools[entry[0]].append(obj.n3)
    return {name: sorted(set(members)) for name, members in pools.items()}
