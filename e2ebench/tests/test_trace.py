"""The tracer sees the layers, adds up, and leaves nothing behind."""

import importlib

from e2ebench import summary
from e2ebench.trace import NAME, PARENT, REQUEST, TARGETS, Tracer

QUERY = """SELECT * WHERE { ?a <http://x/knows> ?b .
           OPTIONAL { ?b <http://x/mail> ?m } }"""


def _originals():
    found = []
    for module_name, owner_name, attribute, _, _ in TARGETS:
        owner = importlib.import_module(module_name)
        if owner_name is not None:
            owner = getattr(owner, owner_name)
        found.append(owner.__dict__[attribute])
    return found


def _engine():
    from repro import BitMatStore, Graph, LBREngine, Literal, Triple, URI
    graph = Graph()
    for index in range(20):
        graph.add(Triple(URI(f"http://x/p{index}"), URI("http://x/knows"),
                         URI(f"http://x/p{index + 1}")))
        if index % 2:
            graph.add(Triple(URI(f"http://x/p{index}"), URI("http://x/mail"),
                             Literal(f"m{index}")))
    return LBREngine(BitMatStore.build(graph))


def test_install_wraps_every_target_and_uninstall_restores_it():
    before = _originals()
    tracer = Tracer().install()
    try:
        assert all(new is not old
                   for new, old in zip(_originals(), before))
    finally:
        tracer.uninstall()
    assert all(new is old for new, old in zip(_originals(), before))


def test_nothing_is_recorded_unless_recording():
    engine = _engine()
    tracer = Tracer().install()
    try:
        engine.execute(QUERY)
        assert tracer.spans == []
        with tracer:
            rows = engine.execute(QUERY).rows
        assert len(rows) == 20 and tracer.spans
    finally:
        tracer.uninstall()


def test_spans_nest_under_the_query_and_self_times_add_up():
    engine = _engine()
    tracer = Tracer().install()
    try:
        with tracer:
            engine.execute(QUERY)   # cold: compiles, loads, prunes
            engine.execute(QUERY)   # warm: plan cache and memo hit
    finally:
        tracer.uninstall()
    spans = tracer.spans
    roots = [i for i, span in enumerate(spans) if span[PARENT] is None]
    assert [spans[i][NAME] for i in roots] == ["core.engine"] * 2
    cold = {span[NAME] for span in spans
            if span[REQUEST] == spans[roots[0]][REQUEST]}
    warm = {span[NAME] for span in spans
            if span[REQUEST] == spans[roots[1]][REQUEST]}
    assert {"sparql.parse", "plan.frontend", "plan.physical",
            "core.tp.init", "core.multiway.join",
            "core.results.decode"} <= cold
    assert not {"sparql.parse", "plan.physical", "core.tp.init"} & warm
    own = summary.self_times(spans)
    assert all(seconds >= 0 for seconds in own)
    total = sum(spans[i][2] - spans[i][1] for i in roots)
    assert abs(sum(own) - total) < 1e-9
