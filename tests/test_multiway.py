"""VarMap and multi-way join mechanics (Alg 5.4 internals)."""

import pytest

from repro import BitMatStore, Graph, LBREngine, NULL
from repro.core.gosn import GoSN
from repro.core.results import ResultSet, VarMap, decode_binding
from repro.core.tp import TPState, translate_id
from repro.rdf.terms import Literal, URI, Variable
from repro.sparql import parse_query

from .conftest import EX, triples, uri


def build_states(graph, text):
    pattern = parse_query(text).pattern
    gosn = GoSN.from_pattern(pattern)
    store = BitMatStore.build(graph)
    states = [TPState.load(i, tp, store)
              for i, tp in enumerate(gosn.patterns)]
    return store, gosn, states


GRAPH = Graph(triples(
    ("a", "p", "b"), ("b", "q", "c"), ("a", "r", "d"),
))

QUERY = f"""PREFIX ex: <{EX}>
SELECT * WHERE {{ ?x ex:p ?y . ?y ex:q ?z . ?x ex:r ?w }}"""


class TestTranslateId:
    def test_same_space_passthrough(self):
        assert translate_id(("s", 7), "s", 3) == 7

    def test_cross_space_inside_shared(self):
        assert translate_id(("s", 2), "o", 3) == 2
        assert translate_id(("o", 3), "s", 3) == 3

    def test_cross_space_outside_shared(self):
        assert translate_id(("s", 4), "o", 3) is None

    def test_predicate_never_crosses(self):
        assert translate_id(("p", 1), "s", 99) is None
        assert translate_id(("s", 1), "p", 99) is None


class TestVarMap:
    def test_slots_and_effective(self):
        store, gosn, states = build_states(GRAPH, QUERY)
        varmap = VarMap(states)
        y = Variable("y")
        assert varmap.effective(y) is None
        varmap.bind(0, {Variable("x"): ("s", 1), y: ("o", 2)})
        assert varmap.effective(y) == ("o", 2)

    def test_master_preferred_binding(self):
        store, gosn, states = build_states(GRAPH, QUERY)
        varmap = VarMap(states)
        y = Variable("y")
        # slot 1 binds ?y too, but slot 0 (earlier in sort order) wins
        varmap.bind(1, {y: ("s", 9), Variable("z"): ("o", 1)})
        assert varmap.effective(y) == ("s", 9)
        varmap.bind(0, {Variable("x"): ("s", 1), y: ("o", 2)})
        assert varmap.effective(y) == ("o", 2)

    def test_failed_slot_yields_null(self):
        store, gosn, states = build_states(GRAPH, QUERY)
        varmap = VarMap(states)
        varmap.bind_failed(0)
        assert varmap.effective(Variable("x")) is NULL

    def test_unbind_restores(self):
        store, gosn, states = build_states(GRAPH, QUERY)
        varmap = VarMap(states)
        varmap.bind(0, {Variable("x"): ("s", 1), Variable("y"): ("o", 2)})
        varmap.unbind(0)
        assert varmap.effective(Variable("x")) is None
        assert 0 not in varmap.visited

    def test_constraints_for(self):
        store, gosn, states = build_states(GRAPH, QUERY)
        varmap = VarMap(states)
        varmap.bind(0, {Variable("x"): ("s", 1), Variable("y"): ("o", 2)})
        constraints, mapped, any_null = varmap.constraints_for(1)
        assert mapped and not any_null
        assert Variable("y") in constraints

    def test_variables_sorted(self):
        store, gosn, states = build_states(GRAPH, QUERY)
        varmap = VarMap(states)
        assert varmap.variables() == sorted([Variable("x"), Variable("y"),
                                             Variable("z"), Variable("w")])


class TestVisitPlanning:
    def test_visit_order_is_connected(self):
        from repro.core.multiway import MultiWayJoin
        from repro.core.nullification import GroupPlan
        store, gosn, states = build_states(GRAPH, QUERY)
        plan = GroupPlan(gosn, states)
        join = MultiWayJoin(states, gosn, plan, False, [],
                            store.dictionary, lambda row: None)
        order = join.visit_order
        assert sorted(order) == [0, 1, 2]
        # every later TP shares a variable with an earlier one
        seen_vars = set(states[order[0]].variables())
        for position in order[1:]:
            assert seen_vars & set(states[position].variables())
            seen_vars |= set(states[position].variables())

    def test_depth_sources_point_to_visited(self):
        from repro.core.multiway import MultiWayJoin
        from repro.core.nullification import GroupPlan
        store, gosn, states = build_states(GRAPH, QUERY)
        plan = GroupPlan(gosn, states)
        join = MultiWayJoin(states, gosn, plan, False, [],
                            store.dictionary, lambda row: None)
        visited = set()
        for depth, position in enumerate(join.visit_order):
            for var, source in join.depth_sources[depth]:
                if source is not None:
                    assert source in visited
            visited.add(position)


class TestResultSet:
    def test_project_and_distinct(self):
        rs = ResultSet((Variable("a"), Variable("b")),
                       [(uri("x"), uri("y")), (uri("x"), uri("z"))])
        projected = rs.project([Variable("a")])
        assert projected.rows == [(uri("x"),), (uri("x"),)]
        assert projected.distinct().rows == [(uri("x"),)]

    def test_project_missing_var_gives_null(self):
        rs = ResultSet((Variable("a"),), [(uri("x"),)])
        projected = rs.project([Variable("a"), Variable("zz")])
        assert projected.rows == [(uri("x"), NULL)]

    def test_rows_with_nulls(self):
        rs = ResultSet((Variable("a"), Variable("b")),
                       [(uri("x"), NULL), (uri("x"), uri("y"))])
        assert rs.rows_with_nulls() == 1

    def test_multiset_and_set_views(self):
        rs = ResultSet((Variable("a"),), [(uri("x"),), (uri("x"),)])
        assert rs.as_multiset() == {(uri("x"),): 2}
        assert rs.as_set() == {(uri("x"),)}

    def test_sorted_rows_handles_nulls(self):
        rs = ResultSet((Variable("a"),), [(NULL,), (uri("x"),)])
        assert rs.sorted_rows() == [(uri("x"),), (NULL,)]

    def test_bindings_view(self):
        rs = ResultSet((Variable("a"), Variable("b")),
                       [(uri("x"), NULL)])
        row = next(rs.bindings())
        assert row[Variable("a")] == uri("x")
        assert row[Variable("b")] is NULL

    def test_contains(self):
        rs = ResultSet((Variable("a"),), [(uri("x"),)])
        assert (uri("x"),) in rs


class TestDecodeBinding:
    def test_decode_each_space(self, figure_store):
        dictionary = figure_store.dictionary
        jerry_s = dictionary.subject_id(uri("Jerry"))
        assert decode_binding(("s", jerry_s), dictionary) == uri("Jerry")
        pred = dictionary.predicate_id(uri("hasFriend"))
        assert decode_binding(("p", pred), dictionary) == uri("hasFriend")
        nyc_o = dictionary.object_id(uri("NewYorkCity"))
        assert decode_binding(("o", nyc_o), dictionary) == uri("NewYorkCity")

    def test_decode_none_is_null(self, figure_store):
        assert decode_binding(None, figure_store.dictionary) is NULL

    def test_decode_rows_matches_per_element_decode(self, figure_store):
        """The columnar batch decode equals decoding cell by cell."""
        from repro.core.results import decode_rows
        dictionary = figure_store.dictionary
        spaces = ("s", "o", "s")
        # ids are 1-based: index 0 of a term table is unused
        width = {space: len(dictionary.term_table(space)) - 1
                 for space in set(spaces)}
        rows = [tuple(NULL if (i + k) % 5 == 0
                      else 1 + (i * (k + 3)) % width[space]
                      for k, space in enumerate(spaces))
                for i in range(200)]
        expected = [tuple(decode_binding(None if value is NULL
                                         else (space, value), dictionary)
                          for space, value in zip(spaces, row))
                    for row in rows]
        assert decode_rows(rows, spaces, dictionary) == expected
