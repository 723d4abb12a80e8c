"""The LBR query processor — Algorithm 5.1 end to end.

Compilation runs through the staged pipeline in :mod:`repro.plan`:

1. **frontend** — parse and lower to the annotated logical IR, then
   canonicalize variable names and compute the structural hash
   (:mod:`repro.plan.hashing`);
2. **passes** — the rewrite-pass manager (:mod:`repro.plan.passes`):
   equality-filter elimination, UNION normal form (§5.2), filter-scope
   assignment, well-designedness analysis + the Appendix B transform;
3. **physical planning** — per UNION-free branch, GoSN (§2) and GoJ
   (§3.1), selectivity ranking, the Algorithm 3.1 jvar orders, the
   init-vs-FaN filter routing, and the nullification/best-match
   decision (:mod:`repro.plan.physical`).

Physical plans are cached keyed on the structural hash of the logical
IR, so alpha-equivalent queries — renamed variables, reformatted text
— share one compiled plan; constants, operators, and solution
modifiers are all part of the key.

Execution per branch is the paper's runtime half:

4. ``init()``: load one BitMat per TP with *active pruning*, abandoning
   early when an absolute master TP is empty (the §5 "simple
   optimization");
5. ``prune_triples`` (Alg 3.2) over the compressed BitMats;
6. sort TPs masters-first (§5.1) and run the multi-way pipelined join
   (Alg 5.4) with FaN filters;
7. best-match when the branch required nullification.

Branch results are bag-unioned, with minimum-union cleanup when UNF
rewrite rule 3 may have introduced spurious rows.

Concurrency: the engine itself holds only *shared* state — the store,
the config switches, and the compile caches.  All mutable per-query
state (TP slot states, join scratch, the :class:`QueryStats`) lives in
an :class:`EngineSession`, so any number of sessions can execute
concurrently against one engine built with ``thread_safe=True`` (which
swaps the compile caches for lock-striped ones and single-flights plan
compilation so a burst of structurally identical queries shares one
compile).  ``LBREngine.execute`` remains the single-threaded
convenience wrapper: it runs a throwaway session and mirrors its stats
into ``last_stats``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from ..bitmat.bitvec import BitVector
from ..bitmat.store import BitMatStore
from ..exceptions import DeadlineExceededError
from ..lru import LRUCache, StripedLRUCache
from ..plan.compiler import FrontendResult, compile_frontend, run_pipeline
from ..plan.passes import PassManager, default_passes
from ..plan.physical import BranchPhysicalPlan, PhysicalPlan, build_physical
from ..rdf.terms import NULL, Variable
from ..sparql.ast import Query
from ..sparql.expressions import passes
from ..sync import UNSET, SingleFlight
from .multiway import MultiWayJoin
from .nullification import GroupPlan, minimum_union
from .prune import active_prune, prune_triples
from .results import (ResultSet, apply_solution_modifiers, decode_binding,
                      decode_rows)
from .tp import TPState

#: Bound on the per-engine compiled (physical) plan cache.
PLAN_CACHE_SIZE = 128
#: Bound on the per-engine parse/canonicalize memo (text-keyed).
FRONTEND_CACHE_SIZE = 256

#: How many emitted join rows between deadline checks (the check is a
#: clock read; amortizing it keeps the hot emit path cheap).
_DEADLINE_STRIDE = 512


@dataclass
class QueryStats:
    """The §6.1 evaluation metrics for one query execution."""

    t_plan: float = 0.0
    t_init: float = 0.0
    t_prune: float = 0.0
    t_join: float = 0.0
    t_total: float = 0.0
    initial_triples: int = 0
    triples_after_pruning: int = 0
    num_results: int = 0
    results_with_nulls: int = 0
    #: whether this execution could have emitted NULLs at all (slave
    #: TPs, nullification, or branch padding) — when False the NULL
    #: row count above is exact without scanning the result
    nulls_possible: bool = False
    best_match_required: bool = False
    aborted_empty: bool = False
    branches: int = 0
    nwd_transformed: bool = False
    jvar_order_bu: list = field(default_factory=list)
    jvar_order_td: list = field(default_factory=list)


class LBREngine:
    """Left Bit Right query engine over a :class:`BitMatStore`.

    The ablation switches exist for the paper-table ablations and the
    fuzz oracle: *enable_prune* turns Algorithm 3.2 off (the multi-way join alone is
    still correct for acyclic well-designed queries only when combined
    with nullification, so disabling pruning forces the
    nullification/best-match path), and *enable_active_prune* controls
    the init-time pruning of §5.
    """

    def __init__(self, store: BitMatStore, enable_prune: bool = True,
                 enable_active_prune: bool = True,
                 plan_cache_size: int = PLAN_CACHE_SIZE,
                 max_join_rows: int | None = None,
                 thread_safe: bool = False) -> None:
        self.store = store
        self.enable_prune = enable_prune
        self.enable_active_prune = enable_active_prune
        #: optional resource limit: a branch join that produces more
        #: rows raises :class:`~repro.exceptions.BudgetExceededError`
        #: (used by the fuzz harness and as the scheduler's default
        #: per-query budget; None means unlimited)
        self.max_join_rows = max_join_rows
        #: when True the compile caches are lock-striped and plan
        #: compilation is single-flighted; required for concurrent
        #: sessions (the snapshot publisher always sets it)
        self.thread_safe = thread_safe
        self.last_stats = QueryStats()
        # store-bound pipeline: the cost-based-ordering pass reads the
        # store's freeze-time statistics (heuristic fallback when None)
        self._pass_manager = PassManager(default_passes(store))
        cache_class = StripedLRUCache if thread_safe else LRUCache
        # Compiled physical plans keyed on the structural hash of the
        # canonicalized logical IR.  GoSN, GoJ, jvar orders, and the
        # filter routing never depend on binding values, so a repeated
        # query template — even alpha-renamed or reformatted — pays
        # only init + prune + join.  Constants are part of the key:
        # two queries differing only in a constant never share a plan.
        self._plan_cache = cache_class(plan_cache_size)
        # Text-keyed parse/canonicalize memo in front of the plan
        # cache (exact-text repeats skip the parser as well).
        self._frontend_cache = cache_class(
            max(plan_cache_size, FRONTEND_CACHE_SIZE))
        # Structurally identical concurrent queries share one compile:
        # the first thread to miss becomes the leader, the rest wait
        # and re-read the cache ("request batching" at the plan layer).
        self._compile_flight = SingleFlight() if thread_safe else None
        self._compile_lock = threading.Lock()
        self._compiles = 0
        self._shared_compiles = 0

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def explain(self, query: Query | str):
        """The plan LBR would run (see :mod:`repro.core.explain`)."""
        from .explain import explain
        return explain(self.store, query)

    def session(self, max_join_rows: int | None = UNSET,
                deadline: float | None = None) -> "EngineSession":
        """A per-request execution context over this engine.

        *max_join_rows* overrides the engine default when given;
        *deadline* is an absolute ``time.monotonic()`` timestamp after
        which execution raises :class:`DeadlineExceededError`.
        """
        return EngineSession(self, max_join_rows=max_join_rows,
                             deadline=deadline)

    def execute(self, query: Query | str) -> ResultSet:
        """Run a SELECT query; per-query metrics land in ``last_stats``.

        Single-threaded convenience wrapper: concurrent callers should
        hold their own :meth:`session` instead (``last_stats`` is
        shared engine state and would be overwritten racily).
        """
        session = self.session()
        result = session.execute(query)
        self.last_stats = session.last_stats
        return result

    def plan_cache_stats(self) -> dict[str, int]:
        """Hit/miss/eviction counters of the compiled plan cache."""
        return self._plan_cache.stats()

    def frontend_cache_stats(self) -> dict[str, int]:
        """Hit/miss/eviction counters of the parse/canonicalize memo."""
        return self._frontend_cache.stats()

    def compile_stats(self) -> dict[str, int]:
        """Plan compilation counters.

        ``compiles`` counts actual physical-plan builds; ``shared``
        counts requests that piggybacked on another thread's in-flight
        compile instead of building their own (the batching win).
        """
        with self._compile_lock:
            return {"compiles": self._compiles,
                    "shared": self._shared_compiles}

    # ------------------------------------------------------------------
    # query planning (binding-independent, cached)
    # ------------------------------------------------------------------

    def _plan_query(self, query: Query | str,
                    ) -> tuple[FrontendResult, PhysicalPlan]:
        """Compile *query*, serving repeats from the plan cache.

        Two caches stack: a text-keyed frontend memo (parse + lower +
        canonicalize; for parsed queries, keyed on the canonical
        re-serialization) and the physical-plan cache keyed on the
        structural hash of the canonical logical IR.  A renamed or
        reformatted template misses the text memo but *hits* the plan
        cache; planning failures are never cached.
        """
        text = query if isinstance(query, str) else query.to_sparql()
        frontend = self._frontend_cache.get(text)
        if frontend is None:
            frontend = compile_frontend(
                query if isinstance(query, Query) else text)
            self._frontend_cache.put(text, frontend)
        key = frontend.canonical.key
        plan = self._plan_cache.get(key)
        if plan is None:
            plan = self._compile_plan(key, frontend)
        return frontend, plan

    def _compile_plan(self, key: str,
                      frontend: FrontendResult) -> PhysicalPlan:
        """Build (or wait for) the physical plan for structural *key*."""
        if self._compile_flight is None:
            plan = self._build_plan(key, frontend)
            self._plan_cache.put(key, plan)
            self._compiles += 1
            return plan
        while True:
            leader, event = self._compile_flight.begin(key)
            if leader:
                try:
                    plan = self._build_plan(key, frontend)
                    self._plan_cache.put(key, plan)
                    with self._compile_lock:
                        self._compiles += 1
                    return plan
                finally:
                    # released on failure too, so followers retry
                    # rather than wait forever on a failed compile
                    self._compile_flight.finish(key)
            event.wait()
            plan = self._plan_cache.get(key)
            if plan is not None:
                with self._compile_lock:
                    self._shared_compiles += 1
                return plan
            # the leader failed (planning error, eviction race):
            # take a turn at compiling ourselves

    def _build_plan(self, key: str,
                    frontend: FrontendResult) -> PhysicalPlan:
        compiled = run_pipeline(frontend.canonical.logical,
                                self._pass_manager)
        return build_physical(compiled, self.store,
                              enable_prune=self.enable_prune,
                              structural_key=key)


class EngineSession:
    """Per-request execution context: all mutable query state lives here.

    The engine, the compiled plans, and the store are only *read*
    during execution — BitMat materializations are immutable, pruning
    ``unfold``s into fresh per-session objects, and the join's slot
    array is private to the session's :class:`MultiWayJoin` — so any
    number of sessions can run concurrently against one engine
    snapshot.  Per-session budgets (``max_join_rows``, an absolute
    *deadline*) bound each request independently.
    """

    def __init__(self, engine: LBREngine,
                 max_join_rows: int | None = UNSET,
                 deadline: float | None = None) -> None:
        self.engine = engine
        self.max_join_rows = (engine.max_join_rows
                              if max_join_rows is UNSET else max_join_rows)
        #: absolute ``time.monotonic()`` deadline, or None
        self.deadline = deadline
        self.last_stats = QueryStats()

    @property
    def store(self) -> BitMatStore:
        return self.engine.store

    def execute(self, query: Query | str) -> ResultSet:
        """Run a SELECT query; metrics land in this session's
        ``last_stats``."""
        started = time.perf_counter()
        self._check_deadline()
        frontend, plan = self.engine._plan_query(query)
        t_plan = time.perf_counter() - started

        stats = QueryStats(branches=len(plan.branches), t_plan=t_plan)
        all_variables = plan.all_variables  # canonical space
        #: canonical → source variable names (stats and result columns
        #: must never leak the internal canonical names)
        back = frontend.canonical.from_canonical
        combined: list[tuple] = []
        #: whether any NULL sentinel can appear in the combined rows —
        #: tracked so the per-row NULL scan below runs only when a NULL
        #: source (nullification, branch padding, projection widening)
        #: actually fired
        nulls_possible = False
        for branch_plan in plan.branches:
            rows, branch_vars, branch_stats = (
                self._execute_branch(branch_plan))
            if rows and (branch_stats.nulls_possible
                         or any(var not in branch_vars
                                for var in all_variables)):
                nulls_possible = True
            stats.t_init += branch_stats.t_init
            stats.t_prune += branch_stats.t_prune
            stats.t_join += branch_stats.t_join
            stats.initial_triples += branch_stats.initial_triples
            stats.triples_after_pruning += branch_stats.triples_after_pruning
            stats.best_match_required |= branch_stats.best_match_required
            stats.aborted_empty |= branch_stats.aborted_empty
            stats.nwd_transformed |= branch_stats.nwd_transformed
            if not stats.jvar_order_bu:
                stats.jvar_order_bu = [back.get(v, v)
                                       for v in branch_stats.jvar_order_bu]
                stats.jvar_order_td = [back.get(v, v)
                                       for v in branch_stats.jvar_order_td]
            combined.extend(_align_rows(rows, branch_vars, all_variables))
        if plan.spurious_possible:
            combined = minimum_union(combined)

        if plan.renames:
            # restore columns dropped by FILTER(?m = ?n) elimination:
            # the dropped variable carries the kept variable's binding
            renames = plan.renames
            restored = tuple(sorted(set(all_variables) | set(renames)))
            kept_index = {var: i for i, var in enumerate(all_variables)}
            if combined and any(renames.get(var, var) not in kept_index
                                for var in restored):
                nulls_possible = True
            combined = [
                tuple(row[kept_index[renames.get(var, var)]]
                      if renames.get(var, var) in kept_index else NULL
                      for var in restored)
                for row in combined]
            all_variables = restored

        # translate the canonical column names back to the source
        # names — a pure relabeling: rows are positional
        source_variables = tuple(back.get(var, var)
                                 for var in all_variables)
        if combined and any(var not in source_variables
                            for var in frontend.query.projected()):
            nulls_possible = True
        result = apply_solution_modifiers(
            ResultSet(source_variables, combined), frontend.query)

        stats.num_results = len(result)
        stats.nulls_possible = nulls_possible
        stats.results_with_nulls = (result.rows_with_nulls()
                                    if nulls_possible else 0)
        stats.t_total = time.perf_counter() - started
        self.last_stats = stats
        return result

    # ------------------------------------------------------------------
    # budgets
    # ------------------------------------------------------------------

    def _check_deadline(self) -> None:
        if (self.deadline is not None
                and time.monotonic() >= self.deadline):
            raise DeadlineExceededError(
                "query exceeded its wall-clock deadline")

    def _deadline_sinks(self, rows: list) -> tuple[object, object]:
        """Scalar + batch row sinks with one amortized deadline check."""
        counter = [0]
        check = self._check_deadline
        append = rows.append
        extend = rows.extend

        def sink(row) -> None:
            append(row)
            counter[0] += 1
            if not counter[0] % _DEADLINE_STRIDE:
                check()

        def sink_many(batch) -> None:
            extend(batch)
            before = counter[0]
            counter[0] = before + len(batch)
            if counter[0] // _DEADLINE_STRIDE != before // _DEADLINE_STRIDE:
                check()
        return sink, sink_many

    # ------------------------------------------------------------------
    # one UNION-free branch (Alg 5.1)
    # ------------------------------------------------------------------

    def _execute_branch(self, plan: BranchPhysicalPlan,
                        ) -> tuple[list[tuple], tuple[Variable, ...],
                                   QueryStats]:
        stats = QueryStats()
        patterns = plan.patterns
        if not patterns:
            return [()], (), stats

        gosn = plan.gosn
        stats.nwd_transformed = plan.nwd_transformed
        stats.initial_triples = plan.initial_triples
        stats.jvar_order_bu = list(plan.order_bu)
        stats.jvar_order_td = list(plan.order_td)
        nul_required = plan.nul_required
        stats.best_match_required = nul_required
        engine = self.engine

        # ---- pruned-state memo (warm repeats of a cached plan) ------
        # A plan bakes its constants, init filters, and jvar orders in,
        # and the engine's store is an immutable snapshot, so the
        # post-prune TP states are a pure function of the plan.  After
        # pruning the join only *reads* the states (enumeration plus
        # add-only transpose/fold caches), so the memoized states are
        # shared safely across executions and concurrent sessions.
        memo = plan.pruned_memo
        if memo is not None:
            sorted_states, group_plan, aborted = memo
            stats.triples_after_pruning = (
                sum(state.count() for state in sorted_states)
                if sorted_states is not None else 0)
            if aborted:
                stats.aborted_empty = True
                return [], tuple(), stats
            self._check_deadline()
        else:
            # ---- init with active pruning ---------------------------
            t0 = time.perf_counter()
            states: list[TPState] = []
            for index, tp in enumerate(patterns):
                state = TPState.load(index, tp, self.store,
                                     plan.row_first)
                for init_filter in plan.init_filters.get(index, ()):
                    self._apply_init_filter(state, init_filter)
                if engine.enable_active_prune:
                    active_prune(state, states, gosn,
                                 self.store.num_shared)
                states.append(state)
                if (state.is_empty()
                        and gosn.tp_in_absolute_master(index)):
                    stats.aborted_empty = True
                    stats.t_init = time.perf_counter() - t0
                    stats.triples_after_pruning = 0
                    plan.pruned_memo = (None, None, True)
                    return [], tuple(), stats
            _fail_groups_with_absent_ground(states, gosn)
            stats.t_init = time.perf_counter() - t0
            self._check_deadline()

            # ---- prune (Alg 3.2) ------------------------------------
            t0 = time.perf_counter()
            if engine.enable_prune:
                def abort_check() -> bool:
                    return any(state.is_empty()
                               and gosn.tp_in_absolute_master(state.index)
                               for state in states)

                completed = prune_triples(plan.order_bu, plan.order_td,
                                          gosn, states,
                                          self.store.num_shared,
                                          abort_check)
                if not completed:
                    stats.aborted_empty = True
                    stats.t_prune = time.perf_counter() - t0
                    stats.triples_after_pruning = sum(
                        s.count() for s in states)
                    return [], tuple(), stats
            stats.t_prune = time.perf_counter() - t0
            stats.triples_after_pruning = sum(
                state.count() for state in states)
            self._check_deadline()

        # ---- multi-way pipelined join (Alg 5.4) ---------------------
        t0 = time.perf_counter()
        if memo is None:
            sorted_states = _sort_states(states, gosn, plan.ranker)
            group_plan = GroupPlan(gosn, sorted_states)
            plan.pruned_memo = (sorted_states, group_plan, False)
        encoded: list[tuple] = []
        if self.deadline is None:
            sink, sink_many = encoded.append, encoded.extend
        else:
            sink, sink_many = self._deadline_sinks(encoded)
        join = MultiWayJoin(sorted_states, gosn, group_plan, nul_required,
                            list(plan.fan_filters), self.store.dictionary,
                            sink,
                            max_output_rows=self.max_join_rows,
                            emit_many=sink_many)
        join.run()
        self._check_deadline()
        if nul_required or join.fan_nullified:
            # Minimum union (Rao et al.): drop subsumed rows *and* the
            # duplicates nullification introduces.  Full-width rows of a
            # well-formed query have multiplicity one, so this restores
            # exact bag semantics before projection.  Encoded rows are
            # id-per-column, so subsumption on them matches subsumption
            # on the decoded terms exactly.
            encoded = minimum_union(encoded)
            stats.best_match_required = True
        stats.nulls_possible = bool(encoded) and (
            join.may_emit_nulls or join.fan_nullified)
        rows = decode_rows(encoded, join.output_spaces,
                           self.store.dictionary)
        if join.dropping_fans:
            # top-level filters apply to the *restored* solution set
            # (post nullification and best-match), never inline: a
            # nullified partial match must first be subsumed by its
            # fuller row even when the filter drops that fuller row
            variables = join.output_variables
            filtered: list[tuple] = []
            for row in rows:
                binding = {var: value
                           for var, value in zip(variables, row)
                           if value is not NULL}
                if all(passes(fan.expr, binding)
                       for fan in join.dropping_fans):
                    filtered.append(row)
            rows = filtered
        stats.t_join = time.perf_counter() - t0
        branch_vars = tuple(join.output_variables)
        return rows, branch_vars, stats

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _apply_init_filter(self, state: TPState, init_filter) -> None:
        """Apply one single-certain-variable filter while loading (§5.2).

        The routing decision — which filters are safe at init and which
        must wait for FaN — was made by the physical planner
        (:func:`repro.plan.physical._route_filters`).
        """
        var = init_filter.var
        expr = init_filter.expr
        fold = state.fold(var)
        space = state.space_of(var)
        passing = [position for position in fold.iter_positions()
                   if passes(expr, {var: decode_binding(
                       (space, position), self.store.dictionary)})]
        state.unfold(var, BitVector.from_positions(fold.size, passing))


# ----------------------------------------------------------------------
# module helpers
# ----------------------------------------------------------------------

def _align_rows(rows: list[tuple], branch_vars: tuple[Variable, ...],
                all_variables: tuple[Variable, ...]) -> list[tuple]:
    """Pad/reorder branch rows onto the query-wide variable tuple."""
    if branch_vars == all_variables:
        return rows
    positions = [branch_vars.index(var) if var in branch_vars else None
                 for var in all_variables]
    return [tuple(row[i] if i is not None else NULL for i in positions)
            for row in rows]


def _fail_groups_with_absent_ground(states: list[TPState],
                                    gosn) -> None:
    """Empty every TP of a slave group containing an absent ground TP.

    A fully ground triple pattern that is not in the data makes its
    whole supernode peer group unsatisfiable; other TPs of the group
    must not contribute bindings (the OPTIONAL block fails as a unit),
    which pruning cannot express because ground TPs carry no variables.
    """
    dead_groups: set[frozenset[int]] = set()
    for state in states:
        if state.ground_present is False:
            dead_groups.add(
                frozenset(gosn.peers_of(gosn.sn_of_tp[state.index])))
    if not dead_groups:
        return
    for state in states:
        group = frozenset(gosn.peers_of(gosn.sn_of_tp[state.index]))
        if group in dead_groups and state.ground_present is None:
            for var in state.variables():
                fold = state.fold(var)
                state.unfold(var, BitVector.empty(fold.size))
                break


def _sort_states(states: list[TPState], gosn,
                 ranker) -> list[TPState]:
    """The stps order of §5.1.

    Absolute-master TPs first in ascending post-prune count, then the
    remaining TPs grouped by supernode peer group in master-first
    topological order, each group's TPs in ascending count.
    """
    from .jvar_order import order_slave_supernodes

    absolute = gosn.absolute_masters()
    sn_rank: dict[int, int] = {}
    for sn in absolute:
        sn_rank[sn] = 0
    for position, sn in enumerate(order_slave_supernodes(gosn, ranker),
                                  start=1):
        sn_rank[sn] = position
    # lift SN ranks to peer-group ranks so peers stay adjacent
    group_rank: dict[int, int] = {}
    for sn, rank in sn_rank.items():
        for peer in gosn.peers_of(sn):
            group_rank[peer] = min(group_rank.get(peer, rank), rank)

    def key(state: TPState) -> tuple[int, int, int]:
        sn = gosn.sn_of_tp[state.index]
        return (group_rank.get(sn, len(sn_rank)), state.count(),
                state.index)

    return sorted(states, key=key)
