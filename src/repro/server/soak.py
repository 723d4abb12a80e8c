"""Seeded multi-client soak run — the CI ``server-soak`` gate.

Builds one merged dataset (the three §6 evaluation datasets plus the
graphs of a batch of fuzz-generated cases), computes a single-threaded
reference answer for every workload query, then hammers a live TCP
server from N client threads for a fixed wall-clock budget while a
reloader thread keeps republishing snapshots (alternating between two
pre-built stores of the same data, so every swap is a full
copy-on-write publication with cold plan caches).

With ``--writers N`` the server serves a WAL-backed live store and N
writer threads concurrently toggle one fixed *slice* of the dataset
(delete the whole slice / re-add the whole slice, each an atomic
batch) while a compaction-storm thread keeps forcing base merges.
Because every writer toggles the *same* slice, every committed state
equals either the full graph or the graph minus the slice — the
single-writer oracle — so readers are checked against exactly two
precomputed reference answers per query and writers assert the exact
post-batch triple count.  Any response matching neither state is a
divergence.  The run fails unless at least one compaction completed.

The gate fails on:

* **divergence** — any concurrent result whose sorted wire rows differ
  from the single-threaded engine's answer for the same query (in
  writer mode: from both committed states' answers);
* **unhandled errors** — any ``internal`` outcome, client-side
  exception, or nonzero scheduler ``worker_errors`` counter;
* **deadlock** — clients not finishing within a grace period after the
  soak window (a watchdog exits 3 with a thread dump).

Admission rejections and deadline timeouts are *expected* under
saturation and are only reported; the run still fails if literally no
request completed (and, in writer mode, if no batch committed or no
compaction ran).

Exit codes: 0 clean, 1 divergence/errors, 2 setup failure, 3 deadlock.
"""

from __future__ import annotations

import argparse
import faulthandler
import random
import sys
import threading
import time

from ..bitmat.store import BitMatStore
from ..core.engine import LBREngine
from ..exceptions import (BudgetExceededError, ReproError,
                          RetriesExhaustedError, UnsupportedQueryError,
                          internal_error)
from ..rdf.graph import Graph
from .net import LBRServer, ServerClient
from .protocol import rows_to_wire
from .service import QueryService, ServiceConfig

#: extra seconds granted past --seconds before declaring a deadlock
WATCHDOG_GRACE = 120.0


def build_workload(seed: int, fuzz_cases: int,
                   ) -> tuple[Graph, dict[str, str]]:
    """The merged soak dataset and its named query set.

    Templates keep their dataset-qualified names; fuzz queries are
    generated with the campaign generator and their graphs are unioned
    into the dataset, so every query has data to bite on.  Reference
    answers are computed over the *merged* graph, which keeps the
    comparison exact even though fuzz cases share entity vocabularies.
    """
    from ..datasets import (DBPEDIA_QUERIES, LUBM_QUERIES,
                            UNIPROT_QUERIES, generate_dbpedia,
                            generate_lubm, generate_uniprot)
    from ..fuzz.runner import CampaignConfig, generate_case

    graph = Graph()
    queries: dict[str, str] = {}
    for label, generate, templates in (
            ("LUBM", generate_lubm, LUBM_QUERIES),
            ("UniProt", generate_uniprot, UNIPROT_QUERIES),
            ("DBPedia", generate_dbpedia, DBPEDIA_QUERIES)):
        graph.add_all(generate())
        for name, text in templates.items():
            queries[f"{label}/{name}"] = text

    config = CampaignConfig(seed=seed, budget=fuzz_cases)
    master = random.Random(seed)
    for index in range(fuzz_cases):
        case, _shape = generate_case(config, master.getrandbits(48),
                                     index)
        graph.add_all(case.triples)
        queries[f"fuzz/{index}"] = case.query_text
    return graph, queries


#: per-query budgets for workload admission: queries the
#: single-threaded engine cannot answer within these bounds (possible
#: among fuzz-generated ones, whose joins can explode on the merged
#: graph) are dropped from the workload up front — the soak measures
#: serving correctness, not query pathology
#: (1s cold single-threaded ≈ worst-case ~10s under 8-way GIL
#: contention on a 2-core CI runner — comfortably inside the service's
#: 30s default deadline)
REFERENCE_MAX_JOIN_ROWS = 100_000
REFERENCE_DEADLINE_S = 1.0


def compute_references(store: BitMatStore, queries: dict[str, str],
                       ) -> dict[str, list]:
    """Single-threaded reference: sorted wire rows per workload query.

    Queries outside LBR's fragment or over the reference budgets are
    dropped from the workload rather than failed.
    """
    engine = LBREngine(store)
    references: dict[str, list] = {}
    dropped = []
    for name, text in queries.items():
        session = engine.session(
            max_join_rows=REFERENCE_MAX_JOIN_ROWS,
            deadline=time.monotonic() + REFERENCE_DEADLINE_S)
        try:
            result = session.execute(text)
        except (UnsupportedQueryError, BudgetExceededError):
            dropped.append(name)
            continue
        except ReproError as exc:
            raise SystemExit(
                f"soak setup: reference evaluation of {name} failed: "
                f"{exc}")
        references[name] = sorted(rows_to_wire(result.rows),
                                  key=_row_key)
    for name in dropped:
        queries.pop(name)
    if dropped:
        print(f"soak: dropped {len(dropped)} unsupported/over-budget "
              f"fuzz queries ({', '.join(dropped[:5])} ...)")
    return references


def _row_key(row: list) -> tuple:
    return tuple("" if cell is None else cell for cell in row)


def select_toggle_slice(graph: Graph, cap: int = 200) -> list:
    """A slice of triples safe for delete/re-add toggling.

    Every selected triple's subject still appears as a subject, its
    object as an object, and its predicate as a predicate somewhere in
    the remaining graph.  That keeps the dictionary's shared region
    stable across a compaction at *either* committed state: re-adding
    the slice never puts a term on both sides outside the shared
    region, so toggling never degenerates into a forced rebuild per
    batch.
    """
    subject_uses: dict = {}
    predicate_uses: dict = {}
    object_uses: dict = {}
    for triple in graph:
        subject_uses[triple.s] = subject_uses.get(triple.s, 0) + 1
        predicate_uses[triple.p] = predicate_uses.get(triple.p, 0) + 1
        object_uses[triple.o] = object_uses.get(triple.o, 0) + 1
    slice_triples = []
    for triple in sorted(graph, key=lambda t: (t.s.n3, t.p.n3, t.o.n3)):
        if (subject_uses[triple.s] >= 2 and predicate_uses[triple.p] >= 2
                and object_uses[triple.o] >= 2):
            slice_triples.append(triple)
            subject_uses[triple.s] -= 1
            predicate_uses[triple.p] -= 1
            object_uses[triple.o] -= 1
            if len(slice_triples) >= cap:
                break
    return slice_triples


class ClientStats:
    """Mutable per-client tally (each client thread owns one)."""

    def __init__(self) -> None:
        self.completed = 0
        self.rejected = 0
        self.timeouts = 0
        self.budget = 0
        self.divergences: list[str] = []
        self.errors: list[str] = []


def _client_loop(index: int, seed: int, host: str, port: int,
                 names: list[str], references: dict[str, list],
                 queries: dict[str, str], stop_at: float,
                 tally: ClientStats,
                 alt_references: dict[str, list] | None = None) -> None:
    rng = random.Random((seed << 8) | index)
    try:
        client = ServerClient(host, port, timeout=WATCHDOG_GRACE)
    except OSError as exc:
        tally.errors.append(f"client {index}: connect failed: {exc}")
        return
    try:
        while time.monotonic() < stop_at:
            name = rng.choice(names)
            try:
                response = client.query(queries[name])
            except (OSError, ValueError) as exc:
                tally.errors.append(f"client {index}: {name}: "
                                    f"{type(exc).__name__}: {exc}")
                return
            if response.get("ok"):
                got = sorted(response["rows"], key=_row_key)
                matched = got == references[name]
                if not matched and alt_references is not None:
                    matched = got == alt_references[name]
                if not matched:
                    tally.divergences.append(
                        f"client {index}: {name}: got "
                        f"{len(got)} rows != reference "
                        f"{len(references[name])} rows "
                        f"(snapshot v{response.get('snapshot_version')})")
                else:
                    tally.completed += 1
                continue
            error = response.get("error") or {}
            error_type = error.get("type")
            if error_type == "rejected":
                tally.rejected += 1
                time.sleep(0.002)  # back off as a polite client would
            elif error_type == "timeout":
                tally.timeouts += 1
            elif error_type == "budget":
                tally.budget += 1
            else:
                tally.errors.append(
                    f"client {index}: {name}: {error_type}: "
                    f"{error.get('message')}")
    finally:
        client.close()


def _reloader_loop(service: QueryService, stores: list[BitMatStore],
                   interval: float, stop_at: float) -> None:
    """Republish alternating stores until the window closes."""
    flip = 0
    while time.monotonic() < stop_at:
        time.sleep(interval)
        flip += 1
        # publishing adopts a reference; ours stays for the next round
        service.load_store(stores[flip % len(stores)].retain())


class WriterStats:
    """Mutable per-writer tally (each writer thread owns one)."""

    def __init__(self) -> None:
        self.committed = 0
        self.checkpointed = 0
        self.exhausted = 0
        self.divergences: list[str] = []
        self.errors: list[str] = []


def _writer_loop(index: int, host: str, port: int, slice_lines: list,
                 expected_full: int, expected_minus: int,
                 interval: float, stop_at: float,
                 tally: WriterStats) -> None:
    """Toggle the shared slice: delete-all, re-add-all, repeat.

    Each batch is atomic, and every writer toggles the *same* slice,
    so the post-batch triple count reported by the server must equal
    the minus-slice count after a delete and the full count after an
    add — regardless of how writers interleave.  Anything else means a
    committed state outside the single-writer oracle's state set.
    """
    try:
        client = ServerClient(host, port, timeout=WATCHDOG_GRACE,
                              retries=6, backoff_base=0.02)
    except OSError as exc:
        tally.errors.append(f"writer {index}: connect failed: {exc}")
        return
    deleting = True
    try:
        while time.monotonic() < stop_at:
            try:
                if deleting:
                    response = client.update(deletes=slice_lines)
                    expected = expected_minus
                else:
                    response = client.update(adds=slice_lines)
                    expected = expected_full
            except RetriesExhaustedError:
                tally.exhausted += 1
                time.sleep(interval)
                continue
            except (OSError, ValueError) as exc:
                tally.errors.append(f"writer {index}: "
                                    f"{type(exc).__name__}: {exc}")
                return
            if not response.get("ok"):
                error = response.get("error") or {}
                if error.get("type") == "shutting_down":
                    return
                tally.errors.append(
                    f"writer {index}: {error.get('type')}: "
                    f"{error.get('message')}")
                return
            tally.committed += 1
            if response.get("checkpointed"):
                tally.checkpointed += 1
            visible = response.get("visible_triples")
            if visible != expected:
                tally.divergences.append(
                    f"writer {index}: seq {response.get('seq')} "
                    f"({'delete' if deleting else 'add'}) left "
                    f"{visible} visible triples, expected {expected}")
            deleting = not deleting
            time.sleep(interval)
    finally:
        client.close()


def _compaction_storm(live, interval: float, stop_at: float,
                      errors: list[str]) -> None:
    """Force base merges back-to-back while writers toggle."""
    while time.monotonic() < stop_at:
        time.sleep(interval)
        try:
            live.compact()
        except Exception as exc:
            # a failed merge fails the soak gate by name, not just
            # through the compactions counter staying flat
            errors.append(f"compaction storm: {internal_error(exc)}")
            return


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.server.soak",
        description="seeded multi-client soak of the query service")
    parser.add_argument("--seconds", type=float, default=60.0,
                        help="soak window (default 60)")
    parser.add_argument("--threads", type=int, default=8,
                        help="client threads (default 8)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--fuzz-cases", type=int, default=25,
                        help="fuzz-generated queries mixed into the "
                             "workload (default 25)")
    parser.add_argument("--workers", type=int, default=4,
                        help="service worker threads (default 4)")
    parser.add_argument("--queue-limit", type=int, default=32,
                        help="admission queue bound — small enough "
                             "that saturation exercises rejection "
                             "(default 32)")
    parser.add_argument("--reload-interval", type=float, default=3.0,
                        help="seconds between snapshot republications "
                             "(default 3)")
    parser.add_argument("--writers", type=int, default=0,
                        help="concurrent writer threads toggling one "
                             "shared slice through the update op "
                             "(default 0 = read-only soak)")
    parser.add_argument("--write-interval", type=float, default=0.2,
                        help="seconds each writer pauses between "
                             "batches (default 0.2)")
    parser.add_argument("--compact-interval", type=float, default=4.0,
                        help="seconds between forced compactions in "
                             "writer mode (default 4)")
    parser.add_argument("--slice-size", type=int, default=150,
                        help="triples in the toggled slice "
                             "(default 150)")
    args = parser.parse_args(argv)

    writer_mode = args.writers > 0
    print(f"soak: building workload (seed={args.seed}, "
          f"fuzz_cases={args.fuzz_cases}, writers={args.writers})",
          flush=True)
    live_dir = None
    try:
        graph, queries = build_workload(args.seed, args.fuzz_cases)
        # two stores of the same data: snapshot swaps alternate between
        # them, so each publication is a real engine rebuild with cold
        # plan caches (maximum pressure on single-flight compilation)
        stores = [BitMatStore.build(graph), BitMatStore.build(graph)]
        references = compute_references(BitMatStore.build(graph),
                                        queries)
        alt_references = None
        slice_triples: list = []
        if writer_mode:
            slice_triples = select_toggle_slice(graph, args.slice_size)
            if not slice_triples:
                raise SystemExit("soak setup: empty toggle slice")
            minus_graph = Graph()
            slice_set = set(slice_triples)
            minus_graph.add_all(t for t in graph if t not in slice_set)
            minus_queries = dict(queries)
            alt_references = compute_references(
                BitMatStore.build(minus_graph), minus_queries)
            # a query must be answerable in BOTH committed states
            for name in list(references):
                if name not in alt_references:
                    references.pop(name)
                    queries.pop(name, None)
    except SystemExit:
        raise
    except Exception as exc:
        print(f"soak setup failed: {internal_error(exc)}",
              file=sys.stderr, flush=True)
        return 2
    names = sorted(references)
    print(f"soak: {len(graph):,} triples, {len(names)} queries "
          f"({sum(1 for n in names if n.startswith('fuzz/'))} fuzz)",
          flush=True)

    service = QueryService(
        ServiceConfig(workers=args.workers,
                      queue_limit=args.queue_limit,
                      default_timeout=30.0))
    live = None
    if writer_mode:
        import tempfile

        from ..update import LiveConfig, LiveGraphStore
        live_dir = tempfile.mkdtemp(prefix="lbr-soak-live-")
        # the storm thread owns compaction; no background daemon and
        # no size threshold, so every merge is deliberate and counted
        live = LiveGraphStore.open(
            live_dir, initial=stores[0],
            config=LiveConfig(compact_threshold=None, background=False))
        service.attach_live_store(live)
        print(f"soak: live store at {live_dir}, toggle slice of "
              f"{len(slice_triples)} triples", flush=True)
    else:
        service.load_store(stores[0].retain())
    server = LBRServer(service, port=0).start()
    host, port = server.address

    stop_at = time.monotonic() + args.seconds
    tallies = [ClientStats() for _ in range(args.threads)]
    clients = [
        threading.Thread(
            target=_client_loop, daemon=True, name=f"soak-client-{i}",
            args=(i, args.seed, host, port, names, references, queries,
                  stop_at, tallies[i], alt_references))
        for i in range(args.threads)]
    started = time.monotonic()
    for thread in clients:
        thread.start()
    writer_tallies = [WriterStats() for _ in range(args.writers)]
    writers: list[threading.Thread] = []
    if writer_mode:
        slice_lines = [t.n3 for t in slice_triples]
        full_count = stores[0].num_triples
        minus_count = full_count - len(slice_triples)
        writers = [
            threading.Thread(
                target=_writer_loop, daemon=True,
                name=f"soak-writer-{i}",
                args=(i, host, port, slice_lines, full_count,
                      minus_count, args.write_interval, stop_at,
                      writer_tallies[i]))
            for i in range(args.writers)]
        for thread in writers:
            thread.start()
        storm_errors: list[str] = []
        storm = threading.Thread(
            target=_compaction_storm, daemon=True, name="soak-compactor",
            args=(live, args.compact_interval, stop_at, storm_errors))
        storm.start()
    else:
        reloader = threading.Thread(
            target=_reloader_loop, daemon=True, name="soak-reloader",
            args=(service, stores, args.reload_interval, stop_at))
        reloader.start()

    # deadlock watchdog: if clients cannot finish within the grace
    # period past the window, dump every stack and exit 3
    deadline = stop_at + WATCHDOG_GRACE
    for thread in clients + writers:
        thread.join(timeout=max(0.0, deadline - time.monotonic()))
    if any(thread.is_alive() for thread in clients + writers):
        print("soak: DEADLOCK — clients still running after "
              f"{args.seconds + WATCHDOG_GRACE:.0f}s; thread dump:",
              file=sys.stderr, flush=True)
        faulthandler.dump_traceback(file=sys.stderr)
        return 3
    if writer_mode:
        storm.join(timeout=args.compact_interval + 60)
    else:
        reloader.join(timeout=args.reload_interval + 10)
    elapsed = time.monotonic() - started

    scheduler_stats = service.scheduler.stats()
    live_stats = live.stats() if live is not None else None
    server.close()
    service.close()
    if live_dir is not None:
        import shutil
        shutil.rmtree(live_dir, ignore_errors=True)

    completed = sum(t.completed for t in tallies)
    rejected = sum(t.rejected for t in tallies)
    timeouts = sum(t.timeouts for t in tallies)
    budget = sum(t.budget for t in tallies)
    divergences = [d for t in tallies for d in t.divergences]
    errors = [e for t in tallies for e in t.errors]
    divergences += [d for t in writer_tallies for d in t.divergences]
    errors += [e for t in writer_tallies for e in t.errors]
    if writer_mode:
        errors += storm_errors
    worker_errors = scheduler_stats["worker_errors"]
    batches = sum(t.committed for t in writer_tallies)
    compactions = live_stats["compactions"] if live_stats else 0

    print(f"soak: {elapsed:.1f}s, {args.threads} clients, "
          f"{completed:,} row-identical results "
          f"({completed / elapsed:.1f} qps), {rejected:,} rejected, "
          f"{timeouts:,} timeouts, {budget:,} over budget", flush=True)
    print(f"soak: snapshots published: "
          f"{service.snapshots.version}, scheduler p50="
          f"{scheduler_stats['p50_ms']:.1f}ms "
          f"p99={scheduler_stats['p99_ms']:.1f}ms "
          f"worker_errors={worker_errors}", flush=True)
    if writer_mode:
        checkpoints = sum(t.checkpointed for t in writer_tallies)
        exhausted = sum(t.exhausted for t in writer_tallies)
        print(f"soak: writers committed {batches:,} batches "
              f"({checkpoints} forced checkpoints, {exhausted} gave "
              f"up after retries), {compactions} compactions, "
              f"live: {live_stats}", flush=True)
    for line in divergences[:20]:
        print(f"soak: DIVERGENCE {line}", file=sys.stderr, flush=True)
    for line in errors[:20]:
        print(f"soak: ERROR {line}", file=sys.stderr, flush=True)

    writer_gate_failed = writer_mode and (not batches or not compactions)
    if divergences or errors or worker_errors or not completed \
            or writer_gate_failed:
        print(f"soak: FAILED (divergences={len(divergences)}, "
              f"errors={len(errors)}, worker_errors={worker_errors}, "
              f"completed={completed}, batches={batches}, "
              f"compactions={compactions})",
              file=sys.stderr, flush=True)
        return 1
    print("soak: OK", flush=True)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
