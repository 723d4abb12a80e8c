"""The runner: set up, drive one workload, check, print the metrics.

``--trace 0`` is the timed run: the program runs as its users run it
(``lbr serve`` in its own process, or the cold-opening worker), the
load comes from this process over loopback TCP, and the output is the
end-to-end metrics.  ``--trace 1`` prints the per-layer metrics from
two passes: the same timed pass (what the wire, the ``stats`` op and
the client clock already show), then a pass half as long against the
service hosted *in this process* under :mod:`e2ebench.trace` (self
times and per-layer counts).  See README.md for every definition.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import itertools
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Iterator

from . import OUT, ROOT, check, coldopen, data, harness, summary, workloads
from .trace import END, NAME, NOTE, PARENT, REQUEST, START, Tracer

WORKLOADS = ("lowsel_templates", "adhoc_selective", "cold_open",
             "live_mixed")
#: set-ups per timed run; ``setup_s`` is their median
SETUP_ROUNDS = 3
#: distinct ad-hoc queries per run (both clients together); far more
#: than the plan cache (128) and the frontend memo (256) hold
ADHOC_REQUESTS = 6000
#: discarded requests per ad-hoc client: they materialize the extents
#: and projections every later request would otherwise pay for once
ADHOC_WARMUP = 60
#: longest wait for ``live_mixed``'s compaction to finish after the pass
COMPACTION_WAIT_S = 30.0
#: queries between two updates in the single-client traced pass
TRACED_QUERIES_PER_UPDATE = 4
#: ad-hoc requests per round of the traced pass
ADHOC_TRACED_ROUND = 50


# ----------------------------------------------------------------------
# set-up: triples -> frozen image (-> serving process)
# ----------------------------------------------------------------------

def build_image(triples: list, path: str) -> dict[str, float]:
    """``BitMatStore.build`` + ``freeze`` + ``save_mmap_store``, timed."""
    from repro.bitmat.mmapstore import save_mmap_store
    from repro.bitmat.store import BitMatStore
    started = time.perf_counter()
    store = BitMatStore.build(triples)
    built = time.perf_counter()
    store.freeze()
    frozen = time.perf_counter()
    size = save_mmap_store(store, path)
    saved = time.perf_counter()
    return {"build_s": built - started, "freeze_s": frozen - built,
            "save_s": saved - frozen, "image_bytes": size}


def serve_args(workload: str, image: str, live_dir: str) -> tuple[str, ...]:
    if workload == "live_mixed":
        return ("--store", image, "--live-dir", live_dir)
    return ("--store", image, "--mmap")


def set_up(workload: str, triples: list, workdir: str, rounds: int,
           ) -> tuple[list[dict], harness.ServerProcess | None]:
    """Set up *rounds* times; the last round's server stays up.

    A round is everything between "here are the triples" and "the
    first request can be sent": build, freeze, save, and — except for
    ``cold_open``, whose worker opens the image itself — spawning
    ``lbr serve`` until it answers a ping.
    """
    image = os.path.join(workdir, "graph.lbrm")
    reports: list[dict] = []
    server = None
    for index in range(rounds):
        live_dir = os.path.join(workdir, f"live-{index}")
        report = {**build_image(triples, image), "ready_s": 0.0,
                  "image": image, "live_dir": live_dir}
        if workload != "cold_open":
            server = harness.ServerProcess(
                workdir, *serve_args(workload, image, live_dir))
            report["ready_s"] = server.ready_s
            if index < rounds - 1:
                server.kill()
        report["setup_s"] = (report["build_s"] + report["freeze_s"]
                             + report["save_s"] + report["ready_s"])
        reports.append(report)
    return reports, server


# ----------------------------------------------------------------------
# the request plan of one run
# ----------------------------------------------------------------------

@dataclass
class Plan:
    """What the clients of one run send, and what must come back."""

    #: per query connection: (discarded warm-up, endless rounds of
    #: measured requests)
    clients: list[tuple[list, Iterator[list]]]
    #: a round is a pass over a fixed set of templates and is only ever
    #: run whole, so every key keeps its exact share of the samples
    whole_rounds: bool
    #: every query text -> (rows, digest) from the reference engine
    expected: dict[str, check.Digest]
    reference_s: float


def make_plan(workload: str, seed: int, triples: list,
              scale: float) -> Plan:
    adhoc = workloads.adhoc_requests(seed, data.entity_pools(triples),
                                     ADHOC_REQUESTS)
    if workload == "adhoc_selective":
        half = len(adhoc) // 2
        # a client that outruns its list starts over: by then each
        # text is thousands of requests stale, long evicted
        clients = [(part[:ADHOC_WARMUP],
                    itertools.cycle([part[ADHOC_WARMUP:]]))
                   for part in (adhoc[:half], adhoc[half:])]
    else:
        if workload == "lowsel_templates":
            rounds = [workloads.template_rounds(seed, client)
                      for client in (0, 1)]
        elif workload == "live_mixed":
            rounds = [workloads.template_rounds(seed, 0)]
        else:
            rounds = [workloads.selective_rounds(seed)]
        # the warm-up is one pass of its own: it fills the plan cache
        # and the pruned-state memo before the clock starts
        clients = [(next(each), each) for each in rounds]
    # every text any workload sends, whatever the workload: the first
    # run in a checkout computes all the answers (about two minutes)
    # and every later run, of any workload and seed, reads them back
    reference = check.Reference(triples, data.cache_tag(scale))
    expected = {text: reference.answer(text)
                for text in [*workloads.templates().values(),
                             *(text for _, text in adhoc)]}
    reference.save()
    return Plan(clients, workload != "adhoc_selective", expected,
                reference.seconds)


# ----------------------------------------------------------------------
# the timed pass
# ----------------------------------------------------------------------

@dataclass
class Measured:
    """What one timed pass observed from outside the program."""

    #: (key, latency_s, rows, response bytes, wait_s, exec_s)
    queries: list[tuple] = field(default_factory=list)
    #: (latency_s, delta size acknowledged)
    updates: list[tuple] = field(default_factory=list)
    ops_per_s: float = 0.0
    rows_per_s: float = 0.0
    peak_rss_mb: float = 0.0
    #: ``cold_open``: per cycle, open_store call -> first rows in hand
    first_answer_s: list[float] = field(default_factory=list)
    #: the ``stats`` op when the pass ended (``cold_open``: the last
    #: cycle's ``store.cache_stats()`` under ``store_caches``)
    stats: dict = field(default_factory=dict)
    recovery_s: float = 0.0
    acked_lost: int = 0


def _query(connection: harness.Connection, key: str, text: str,
           checker: check.Checker) -> tuple:
    """One checked query: (key, latency_s, rows, bytes, wait_s, exec_s)."""
    reply, elapsed = connection.call_raw({"op": "query", "query": text})
    rows, envelope = checker.query(key, text, reply)
    return (key, elapsed, rows, len(reply), envelope.get("wait_s", 0.0),
            envelope.get("exec_s", 0.0))


def _query_client(port: int, warmup: list, rounds: Iterator[list],
                  whole_rounds: bool, seconds: float,
                  barrier: threading.Barrier, checker: check.Checker,
                  samples: list) -> float:
    """One closed-loop query connection; returns its measured wall time."""
    try:
        with harness.Connection(port) as connection:
            for key, text in warmup:
                _query(connection, key, text, checker)
            barrier.wait(timeout=120)
            started = time.perf_counter()
            deadline = started + seconds
            for requests in rounds:
                for key, text in requests:
                    samples.append(_query(connection, key, text, checker))
                    if not whole_rounds and time.perf_counter() >= deadline:
                        break
                if time.perf_counter() >= deadline:
                    break
            return time.perf_counter() - started
    except BaseException:
        barrier.abort()
        raise


def _check_ack(checker: check.Checker, response: dict, adds: list,
               deletes: list) -> bool:
    checker.attempted += 1
    if (response.get("ok") and response.get("added") == len(adds)
            and response.get("deleted") == len(deletes)):
        return True
    checker.fail(f"update: {response}")
    return False


def _update_client(port: int, seed: int, seconds: float,
                   barrier: threading.Barrier, checker: check.Checker,
                   samples: list, acked: list) -> float:
    """The closed-loop writer connection; returns its wall time."""
    try:
        with harness.Connection(port) as connection:
            barrier.wait(timeout=120)
            started = time.perf_counter()
            deadline = started + seconds
            for adds, deletes in workloads.update_batches(seed):
                response, elapsed = connection.call(
                    {"op": "update", "add": adds, "delete": deletes})
                if _check_ack(checker, response, adds, deletes):
                    acked.append((adds, deletes))
                samples.append((elapsed, response.get("delta_size", 0)))
                if time.perf_counter() >= deadline:
                    break
            return time.perf_counter() - started
    except BaseException:
        barrier.abort()
        raise


def _recover(live_dir: str, acked: list) -> tuple[float, int]:
    """Reopen a killed server's live directory; count lost batches.

    A batch is lost when the last acknowledged word on any of its
    triples — added or deleted — is not what the recovered store says.
    """
    from repro.rdf import ntriples
    from repro.update import LiveConfig, LiveGraphStore
    from repro.update.overlay import store_has_triple
    started = time.perf_counter()
    live = LiveGraphStore.open(live_dir,
                               config=LiveConfig(background=False))
    recovery_s = time.perf_counter() - started
    try:
        store = live.current_store()
        final: dict[str, tuple[bool, int]] = {}
        for index, (adds, deletes) in enumerate(acked):
            for line in deletes:
                final[line] = (False, index)
            for line in adds:
                final[line] = (True, index)
        lost = {index for line, (present, index) in final.items()
                if store_has_triple(
                    store, ntriples.parse_line(line)) != present}
    finally:
        live.close()
    return recovery_s, len(lost)


def measure_server(workload: str, server: harness.ServerProcess,
                   live_dir: str, plan: Plan, seed: int, seconds: float,
                   base_triples: int, checker: check.Checker) -> Measured:
    """Drive the serving process from two connections; kill it after."""
    measured = Measured()
    acked: list = []
    writer = workload == "live_mixed"
    barrier = threading.Barrier(len(plan.clients) + writer)
    samples: list[list] = [[] for _ in plan.clients]
    jobs = [(_query_client, (server.port, warmup, rounds,
                             plan.whole_rounds, seconds, barrier, checker,
                             mine))
            for (warmup, rounds), mine in zip(plan.clients, samples)]
    if writer:
        jobs.append((_update_client, (server.port, seed, seconds, barrier,
                                      checker, measured.updates, acked)))
    with concurrent.futures.ThreadPoolExecutor(len(jobs)) as pool:
        futures = [pool.submit(function, *arguments)
                   for function, arguments in jobs]
        walls = [future.result() for future in futures]
    # each closed loop's own rate, summed: the clients stop at slightly
    # different times (a round is never cut short)
    for mine, wall in zip(samples, walls):
        measured.queries += mine
        measured.ops_per_s += len(mine) / wall
        measured.rows_per_s += sum(sample[2] for sample in mine) / wall
    if writer:
        measured.ops_per_s += len(measured.updates) / walls[-1]
    with harness.Connection(server.port) as connection:
        waiting = time.monotonic() + COMPACTION_WAIT_S
        while True:
            measured.stats = connection.call({"op": "stats"})[0]["stats"]
            # the writer sets off a compaction about half-way through
            # the pass; let it finish, so that every run's peak RSS and
            # recovery are those of a store that has compacted once,
            # not of wherever the compaction happened to be
            if (not (measured.stats.get("live") or {}).get("compacting")
                    or time.monotonic() >= waiting):
                break
            time.sleep(0.05)
    measured.peak_rss_mb = server.peak_rss_mb()
    if writer:
        checker.attempted += 1
        visible = measured.stats["live"]["visible_triples"]
        expected = base_triples + sum(
            len(adds) - len(deletes) for adds, deletes in acked)
        if visible != expected:
            checker.fail(f"visible_triples {visible}, want {expected}")
    server.kill()
    if writer:
        measured.recovery_s, measured.acked_lost = _recover(live_dir, acked)
        for _ in range(measured.acked_lost):
            checker.fail("acknowledged batch lost across SIGKILL")
    return measured


def _check_cycles(cycles: list[dict], checker: check.Checker,
                  measured: Measured) -> None:
    texts = workloads.templates()
    for cycle in cycles:
        measured.first_answer_s.append(cycle["first_answer_s"])
        for key, latency, count, digest in cycle["queries"]:
            checker.answer(key, texts[key], (count, digest))
            measured.queries.append((key, latency, count, 0, 0.0, latency))
    measured.stats = {"store_caches": cycles[-1]["cache_stats"]}


def measure_cold(image: str, seed: int, seconds: float,
                 checker: check.Checker) -> Measured:
    """Run the cold-opening worker process and check what it saw."""
    completed = subprocess.run(
        [sys.executable, "-m", "e2ebench.coldopen", image, str(seed),
         str(seconds)],
        cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        timeout=seconds + 120, check=True)
    report = json.loads(completed.stdout)
    measured = Measured(peak_rss_mb=report["peak_rss_mb"])
    _check_cycles(report["cycles"], checker, measured)
    measured.ops_per_s = len(measured.queries) / report["wall_s"]
    measured.rows_per_s = (sum(sample[2] for sample in measured.queries)
                           / report["wall_s"])
    return measured


def measure(workload: str, server: harness.ServerProcess | None,
            setup: dict, plan: Plan, seed: int, seconds: float,
            base_triples: int, checker: check.Checker) -> Measured:
    if server is None:
        return measure_cold(setup["image"], seed, seconds, checker)
    return measure_server(workload, server, setup["live_dir"], plan, seed,
                          seconds, base_triples, checker)


def _ms(seconds: float) -> float:
    return seconds * 1e3


def end_to_end(measured: Measured, setups: list[dict],
               triples: int) -> dict[str, tuple[float, str]]:
    return {
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "ops_per_s": (measured.ops_per_s, "1/s"),
        "rows_per_s": (measured.rows_per_s, "1/s"),
        "peak_rss_mb": (measured.peak_rss_mb, "MB"),
        "image_bytes_per_triple": (setups[-1]["image_bytes"] / triples,
                                   "B"),
    }


# ----------------------------------------------------------------------
# the traced pass: the service hosted in this process
# ----------------------------------------------------------------------

class InProcessServer:
    """``LBRServer`` + ``QueryService`` as ``lbr serve`` wires them,
    but in this process, where the tracer's wrappers can see them."""

    def __init__(self, workload: str, image: str, workdir: str) -> None:
        from repro.bitmat import backend
        from repro.server import LBRServer, QueryService
        self.live = None
        self.service = QueryService()
        store = backend.open_store(image)
        if workload == "live_mixed":
            from repro.update import LiveGraphStore
            try:
                self.live = LiveGraphStore.open(
                    os.path.join(workdir, "live-traced"), initial=store)
            finally:
                store.close()  # the live store serves its own image
            self.service.attach_live_store(self.live)
        else:
            self.service.load_store(store)
        self.server = LBRServer(self.service, port=0).start()
        self.port = self.server.address[1]

    def __enter__(self) -> "InProcessServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.server.close()
        self.service.close()


def _traced_rounds(workload: str, plan: Plan, seed: int,
                   ) -> Iterator[list[tuple]]:
    """The single traced client's rounds of operations: client 0's
    requests, with an update after every few queries on ``live_mixed``."""
    _, rounds = plan.clients[0]
    if not plan.whole_rounds:
        stream = itertools.chain.from_iterable(rounds)
        rounds = (list(itertools.islice(stream, ADHOC_TRACED_ROUND))
                  for _ in itertools.count())
    updates = workloads.update_batches(seed)
    for requests in rounds:
        operations: list[tuple] = []
        for index, (key, text) in enumerate(requests, start=1):
            operations.append(("query", key, text))
            if (workload == "live_mixed"
                    and index % TRACED_QUERIES_PER_UPDATE == 0):
                operations.append(("update", *next(updates)))
        yield operations


def _single_client(connection: harness.Connection, operations: list,
                   checker: check.Checker) -> tuple[list, float, int]:
    """Send one round; (query latencies, Σ exec_s, update triples)."""
    latencies, executing, triples = [], 0.0, 0
    for operation in operations:
        if operation[0] == "query":
            sample = _query(connection, *operation[1:], checker)
            latencies.append(sample[1])
            executing += sample[5]
        else:
            _, adds, deletes = operation
            response, _ = connection.call(
                {"op": "update", "add": adds, "delete": deletes})
            _check_ack(checker, response, adds, deletes)
            triples += len(adds) + len(deletes)
    return latencies, executing, triples


@dataclass
class Traced:
    spans: list
    untraced_p50_s: float
    traced_p50_s: float
    #: what the traced pass's queries took by the program's own clock
    #: (wire ``exec_s``; ``cold_open``: ``engine.execute`` wall time)
    exec_s: float
    update_triples: int


def traced_server(workload: str, image: str, plan: Plan, seed: int,
                  seconds: float, workdir: str, tracer: Tracer,
                  checker: check.Checker) -> Traced:
    """Untraced rounds, then as many traced: same process, same
    client, same stream of requests."""
    warmup, _ = plan.clients[0]
    rounds = _traced_rounds(workload, plan, seed)
    with InProcessServer(workload, image, workdir) as hosted, \
            harness.Connection(hosted.port) as connection:
        for key, text in warmup:
            _query(connection, key, text, checker)
        untraced: list[float] = []
        count = 0
        deadline = time.perf_counter() + seconds * 0.4
        while time.perf_counter() < deadline:
            untraced += _single_client(connection, next(rounds), checker)[0]
            count += 1
        traced: list[float] = []
        executing, triples = 0.0, 0
        with tracer:
            for operations in itertools.islice(rounds, count):
                latencies, exec_s, batch = _single_client(
                    connection, operations, checker)
                traced += latencies
                executing += exec_s
                triples += batch
            if hosted.live is not None and not any(
                    span[NAME] == "update.live.compaction"
                    for span in tracer.spans):
                # too short a pass to cross the compaction threshold:
                # run one now, so its cost is on record
                hosted.live.compact()
    return Traced(tracer.spans, summary.median(untraced),
                  summary.median(traced), executing, triples)


def traced_cold(image: str, seed: int, seconds: float, tracer: Tracer,
                checker: check.Checker) -> Traced:
    rounds = workloads.selective_rounds(seed)
    untraced = coldopen.run(image, rounds, seconds * 0.4)["cycles"]
    with tracer:
        traced = [coldopen.cycle(image, next(rounds)) for _ in untraced]
    quiet, loud = Measured(), Measured()
    _check_cycles(untraced, checker, quiet)
    _check_cycles(traced, checker, loud)
    return Traced(tracer.spans,
                  summary.median([s[1] for s in quiet.queries]),
                  summary.median([s[1] for s in loud.queries]),
                  sum(s[1] for s in loud.queries), 0)


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------

def _rate(counters: dict | None) -> float:
    if not counters:
        return 0.0
    total = counters["hits"] + counters["misses"]
    return counters["hits"] / total if total else 0.0


def _credible(samples: list[float], q: float) -> float:
    """A diagnostic percentile, or 0 when the sample cannot carry it."""
    try:
        return _ms(summary.percentile(samples, q))
    except summary.TooFewSamples:
        return 0.0


def _during_compaction(updates: list[tuple], threshold: int) -> list[float]:
    """Latencies of the updates acknowledged while a compaction ran.

    Seen from the writer's own acks: a compaction is requested by the
    batch whose acknowledged delta reaches the threshold, and has
    swapped in by the first later ack whose delta is smaller than the
    one before it.
    """
    inside, running, previous = [], False, 0
    for latency, delta in updates:
        if running and delta < previous:
            running = False
        if running:
            inside.append(latency)
        if delta >= threshold:
            running = True
        previous = delta
    return inside


def per_layer(measured: Measured, traced: Traced, setup: dict, plan: Plan,
              datagen_s: float, triples: int, checker: check.Checker,
              ) -> dict[str, tuple[float, str]]:
    from repro.update import LiveConfig
    spans = traced.spans
    own = summary.self_times(spans)
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    notes: dict[str, list] = defaultdict(list)
    engine, compactions = [], []
    loads: Counter = Counter()  # TPState.load calls per request
    inside = set()  # every span below a core.engine span, and itself
    for index, (span, seconds) in enumerate(zip(spans, own)):
        name = span[NAME]
        self_s[name] += seconds
        calls[name] += 1
        if span[NOTE] is not None:
            notes[name].append(span[NOTE])
        if name == "core.engine":
            engine.append(span)
        elif name == "core.tp.init":
            loads[span[REQUEST]] += 1
        elif name == "update.live.compaction":
            compactions.append(span)
        if name == "core.engine" or span[PARENT] in inside:
            inside.add(index)
    queries = max(1, len(engine))
    updates = max(1, calls["update.live.apply_batch"])

    def per_query_ms(*names: str) -> float:
        return _ms(sum(self_s[name] for name in names) / queries)

    def per_call_ms(name: str) -> float:
        return _ms(self_s[name] / calls[name]) if calls[name] else 0.0

    initial = sum(note["initial_triples"] for note in notes["core.engine"])
    pruned = sum(note["triples_after_pruning"]
                 for note in notes["core.engine"])
    unions = notes["core.nullification.best_match"]
    emitted = sum(notes["core.results.decode"])

    latencies = [sample[1] for sample in measured.queries]
    exec_s = [sample[5] for sample in measured.queries]
    by_key: dict[str, list[float]] = defaultdict(list)
    for sample in measured.queries:
        by_key[sample[0]].append(sample[1])
    stats = measured.stats
    caches = stats.get("store_caches", {})
    scheduler = stats.get("scheduler", {})
    live = stats.get("live", {})
    update_latencies = [sample[0] for sample in measured.updates]

    metrics: dict[str, tuple[float, str]] = {
        "datasets.datagen_s": (datagen_s, "s"),
        "datasets.triples": (triples, "count"),
        "bitmat.store.build_s": (setup["build_s"], "s"),
        "bitmat.store.freeze_s": (setup["freeze_s"], "s"),
        "bitmat.mmapstore.save_s": (setup["save_s"], "s"),
        "bitmat.mmapstore.image_bytes": (setup["image_bytes"], "B"),
        "server.ready_s": (setup["ready_s"], "s"),
        "bitmat.backend.open_ms": (per_call_ms("bitmat.backend.open")
                                   + per_call_ms("rdf.dictionary.load"),
                                   "ms"),
        "rdf.dictionary.load_ms": (per_call_ms("rdf.dictionary.load"),
                                   "ms"),
        "bitmat.mmapstore.materializations": (
            caches.get("extents", {}).get("materializations", 0), "count"),
        "bitmat.mmapstore.extent_hit_rate": (
            _rate(caches.get("extents")), "ratio"),
        "bitmat.store.cache.so.hit_rate": (_rate(caches.get("so")), "ratio"),
        "bitmat.store.cache.os.hit_rate": (_rate(caches.get("os")), "ratio"),
        "bitmat.store.cache.rows.hit_rate": (_rate(caches.get("rows")),
                                             "ratio"),
        "bitmat.store.cache.evictions": (
            sum(cache.get("evictions", 0) for cache in caches.values()),
            "count"),
        "sparql.parse.self_ms": (per_query_ms("sparql.parse"), "ms"),
        "plan.frontend.self_ms": (per_query_ms("plan.frontend"), "ms"),
        "plan.passes.self_ms": (per_query_ms("plan.passes"), "ms"),
        "plan.physical.self_ms": (per_query_ms("plan.physical"), "ms"),
        "plan.compiles": (calls["plan.physical"] / queries, "1/query"),
        "core.engine.frontend_cache.hit_rate": (
            1 - calls["plan.frontend"] / queries, "ratio"),
        "core.engine.plan_cache.hit_rate": (
            1 - calls["plan.physical"] / queries, "ratio"),
        "core.engine.plan_cache.evictions": (
            stats.get("plan_cache", {}).get("evictions", 0), "count"),
        "core.engine.memo_hit_share": (
            sum(1 for span in engine if not loads[span[REQUEST]]) / queries,
            "ratio"),
        "core.engine.self_ms": (per_query_ms("core.engine"), "ms"),
        "core.tp.init.self_ms": (per_query_ms("core.tp.init"), "ms"),
        "core.tp.loads": (calls["core.tp.init"] / queries, "1/query"),
        "core.tp.initial_triples": (initial / queries, "1/query"),
        "core.prune.self_ms": (
            per_query_ms("core.prune", "core.prune.active"), "ms"),
        "core.prune.triples_removed_share": (
            1 - pruned / initial if initial else 0.0, "ratio"),
        "core.prune.aborted_empty": (
            sum(note["aborted_empty"] for note in notes["core.engine"])
            / queries, "1/query"),
        "core.multiway.join.self_ms": (per_query_ms("core.multiway.join"),
                                       "ms"),
        "core.multiway.rows_emitted": (emitted / queries, "1/query"),
        "core.multiway.rows_per_ms": (
            emitted / _ms(self_s["core.multiway.join"])
            if self_s["core.multiway.join"] else 0.0, "1/ms"),
        "core.nullification.best_match.calls": (len(unions) / queries,
                                                "1/query"),
        "core.nullification.best_match.self_ms": (
            per_query_ms("core.nullification.best_match"), "ms"),
        "core.nullification.rows_dropped_share": (
            1 - sum(kept for _, kept in unions)
            / max(1, sum(given for given, _ in unions)), "ratio"),
        "core.results.decode.self_ms": (per_query_ms("core.results.decode"),
                                        "ms"),
        "core.results.modifiers.self_ms": (
            per_query_ms("core.results.modifiers"), "ms"),
        "server.protocol.encode.self_ms": (
            per_query_ms("server.protocol.encode",
                         "server.protocol.rows_to_wire"), "ms"),
        "server.protocol.response_bytes": (
            statistics.fmean(s[3] for s in measured.queries), "B"),
        "server.net.overhead_ms": (
            _ms(summary.median(latencies) - summary.median(exec_s)), "ms"),
        "server.scheduler.queue_wait_ms": (
            _ms(statistics.fmean(s[4] for s in measured.queries)), "ms"),
        "server.scheduler.exec_ms": (_ms(statistics.fmean(exec_s)), "ms"),
        "server.scheduler.rejected": (scheduler.get("rejected", 0), "count"),
        "server.scheduler.timeouts": (scheduler.get("timeouts", 0), "count"),
        "server.snapshot.publishes": (
            max(0, (stats.get("snapshot") or {}).get("version", 1) - 1),
            "count"),
        "server.snapshot.publish.self_ms": (
            per_call_ms("server.snapshot.publish"), "ms"),
        "update.wal.append.self_ms": (
            _ms((self_s["update.wal.append"] + self_s["update.wal.encode"])
                / updates), "ms"),
        "update.wal.bytes_per_update_triple": (
            sum(notes["update.wal.encode"])
            / max(1, traced.update_triples), "B"),
        "update.live.apply_batch.self_ms": (
            _ms(self_s["update.live.apply_batch"] / updates), "ms"),
        "update.live.compactions": (live.get("compactions", 0), "count"),
        "update.live.compaction.busy_s": (
            statistics.fmean(span[END] - span[START]
                             for span in compactions)
            if compactions else 0.0, "s"),
        "update.live.compaction.bytes_rewritten": (
            sum(notes["update.live.image_dump"]) / len(compactions)
            if compactions else 0.0, "B"),
        "update.live.compaction_failures": (
            live.get("compaction_failures", 0), "count"),
        "update.live.update_p50_during_compaction_ms": (
            _credible(_during_compaction(
                measured.updates, LiveConfig().compact_threshold), 0.5),
            "ms"),
        "update.live.recovery_s": (measured.recovery_s, "s"),
        "update.live.acked_lost": (measured.acked_lost, "count"),
        "client.samples": (len(latencies), "count"),
        "client.failed_share": (checker.failed / checker.attempted,
                                "ratio"),
        "client.query_p50_ms": (_ms(summary.median(latencies)), "ms"),
        "client.query_p95_ms": (_credible(latencies, 0.95), "ms"),
        "client.query_p99_ms": (_credible(latencies, 0.99), "ms"),
        "client.query_max_ms": (_ms(max(latencies)), "ms"),
        "client.update_p50_ms": (_credible(update_latencies, 0.5), "ms"),
        "client.update_p95_ms": (_credible(update_latencies, 0.95), "ms"),
        "client.open_first_answer_ms": (
            _credible(measured.first_answer_s, 0.5), "ms"),
        "client.reference_s": (plan.reference_s, "s"),
        "trace.overhead_share": (
            traced.traced_p50_s / traced.untraced_p50_s - 1, "ratio"),
        "trace.exec_coverage_share": (
            sum(own[index] for index in inside) / traced.exec_s
            if traced.exec_s else 0.0, "ratio"),
    }
    for key in workloads.templates():
        metrics[f"client.template.{key}.p50_ms"] = (
            _credible(by_key.get(key, []), 0.5), "ms")
    return metrics


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool,
        workdir: str, scale: float = data.SCALE) -> dict:
    triples, datagen_s = data.load(scale)
    plan = make_plan(workload, seed, triples, scale)
    checker = check.Checker(plan.expected)
    setups, server = set_up(workload, triples, workdir,
                            1 if trace else SETUP_ROUNDS)
    try:
        measured = measure(workload, server, setups[-1], plan, seed,
                           seconds, len(triples), checker)
    finally:
        if server is not None:
            server.kill()
    if not trace:
        metrics = end_to_end(measured, setups, len(triples))
    else:
        image = setups[-1]["image"]
        tracer = Tracer().install()
        try:
            with tracer:
                # on record for every workload: what one open costs
                from repro.bitmat import backend
                backend.open_store(image).close()
            if workload == "cold_open":
                traced = traced_cold(image, seed, seconds / 2, tracer,
                                     checker)
            else:
                traced = traced_server(workload, image, plan, seed,
                                       seconds / 2, workdir, tracer,
                                       checker)
        finally:
            tracer.uninstall()
            tracer.dump(os.path.join(OUT, f"trace-{workload}.jsonl"))
        metrics = per_layer(measured, traced, setups[-1], plan, datagen_s,
                            len(triples), checker)
    if checker.first_failure:
        print(f"e2ebench: {checker.failed} of {checker.attempted} "
              f"operations failed; first: {checker.first_failure}",
              file=sys.stderr)
    return {"correct": checker.failed == 0,
            "attempted": checker.attempted, "failed": checker.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python3 -m e2ebench", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the timed pass measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: print the per-layer metrics instead of "
                             "the end-to-end ones")
    args = parser.parse_args(argv)
    try:
        import repro  # noqa: F401 - the program under test
    except ImportError as exc:
        print(f"e2ebench: cannot import the program from {ROOT}/src: {exc}",
              file=sys.stderr)
        return 2
    # a terminated benchmark must still reap its server: turn SIGTERM
    # into the exception every ``with``/``finally`` above unwinds on
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="run-") as workdir:
        result = run(args.workload, args.seed, args.seconds,
                     bool(args.trace), workdir)
    print(json.dumps(result))
    return 0 if result["correct"] else 1
