"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``generate`` — write one of the evaluation datasets as N-Triples;
* ``freeze``   — build the store image (``LBRMMAP1``, the only
  format) from an N-Triples file: per-predicate extents that every
  ``--store`` command maps and materializes lazily (``index`` is an
  alias);
* ``query``    — run a SPARQL query over a data file or store image;
* ``info``     — dataset characteristics (the Table 6.1 columns);
* ``bench``    — run a full Appendix E query suite with all engines
  and print the paper-style table;
* ``fuzz``     — differential fuzzing: run seeded random (graph,
  query) cases across the engine matrix against the naive oracle,
  shrink failures, and optionally save them into the regression
  corpus; ``--replay`` re-runs a saved corpus instead;
* ``serve``    — run the concurrent query service: an
  admission-controlled worker pool over snapshot-isolated engine
  sessions, speaking newline-delimited JSON over a TCP socket;
* ``lint``     — run the project-invariant static checkers
  (:mod:`repro.analysis`): lock discipline, resource lifecycles,
  planner determinism, durability protocol, exception taxonomy.
  ``lbr lint --changed-only`` scopes the pass to files touched per
  ``git diff`` for fast pre-commit runs; ``--format json`` emits the
  machine-readable report CI archives.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .baselines import ColumnStoreEngine, NaiveEngine
from .bitmat.backend import is_store_image, open_store
from .bitmat.mmapstore import PAGE_SHIFT, save_mmap_store
from .bitmat.store import BitMatStore
from .core.engine import LBREngine
from .exceptions import ParseError, UnsupportedQueryError
from .rdf import ntriples
from .rdf.terms import NULL


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Left Bit Right (LBR) — SPARQL OPTIONAL-pattern "
                    "query processor (SIGMOD 2015 reproduction)")
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="generate an evaluation dataset as N-Triples")
    generate.add_argument("dataset",
                          choices=["lubm", "uniprot", "dbpedia"])
    generate.add_argument("--out", required=True,
                          help="output N-Triples file")
    generate.add_argument("--scale", type=float, default=1.0,
                          help="relative size multiplier (default 1.0)")
    generate.add_argument("--seed", type=int, default=None)

    freeze = commands.add_parser(
        "freeze", aliases=["index"],
        help="build the store image (LBRMMAP1) from N-Triples",
        description="Build a dataset into the LBRMMAP1 store image: "
                    "each predicate's BitMat pairs live in an "
                    "independently checksummed, page-aligned extent, so "
                    "every --store command opens the file without "
                    "decoding anything and materializes predicates "
                    "lazily as queries touch them.  'index' is an "
                    "alias.")
    freeze.add_argument("data",
                        help="N-Triples file (or an image to rewrite)")
    freeze.add_argument("--out", required=True,
                        help="output .lbrm image path")

    query = commands.add_parser("query", help="run a SPARQL query")
    source = query.add_mutually_exclusive_group(required=True)
    source.add_argument("--data", help="N-Triples file")
    source.add_argument("--store", help="store image (.lbrm)")
    query.add_argument("--query-file", help="file containing the query")
    query.add_argument("--query", help="query text")
    query.add_argument("--engine", default="lbr",
                       choices=["lbr", "naive", "columnstore"])
    query.add_argument("--explain", action="store_true",
                       help="print the LBR plan instead of executing")
    query.add_argument("--stats", action="store_true",
                       help="print the Table 6.x metrics after the rows")
    query.add_argument("--limit", type=int, default=None,
                       help="print at most N rows")

    info = commands.add_parser(
        "info", help="dataset characteristics (Table 6.1 columns)")
    info.add_argument("data", help="N-Triples file or store image")

    bench = commands.add_parser(
        "bench", help="run an Appendix E suite on all three engines")
    bench.add_argument("dataset", choices=["lubm", "uniprot", "dbpedia"])
    bench.add_argument("--runs", type=int, default=3)

    fuzz = commands.add_parser(
        "fuzz",
        help="differential fuzzing against the naive oracle",
        description="Generate seeded random (graph, query) pairs, run "
                    "each on the full engine matrix (LBR with pruning "
                    "on/off, plan-cache cold/warm, the raw unpruned "
                    "join, and the NULL-intolerant oracle where "
                    "applicable), and diff every result against the "
                    "reference evaluation.  Failing cases are "
                    "delta-debugged to a minimal counterexample.")
    fuzz.add_argument("--seed", type=int, default=0,
                      help="campaign seed (default 0); the case stream "
                           "is a pure function of it")
    fuzz.add_argument("--budget", type=int, default=200,
                      help="number of cases to run (default 200)")
    fuzz.add_argument("--seconds", type=float, default=None,
                      help="optional wall-clock cap for interactive "
                           "runs; CI gates should use a fixed --budget "
                           "instead so the covered case set does not "
                           "depend on machine speed")
    fuzz.add_argument("--shape", default="mix",
                      choices=["mix", "uniform", "star", "clustered"],
                      help="graph shape (default: mix of all three)")
    fuzz.add_argument("--profile", default="full",
                      choices=["wd", "full", "nul", "updates", "ordering"],
                      help="query profile: 'wd' well-designed only, "
                           "'full' adds non-well-designed nesting, "
                           "'nul' stresses nullification/best-match, "
                           "'updates' mutates a live store with WAL "
                           "batches and diffs against a rebuilt store, "
                           "'ordering' diffs cost-based vs heuristic "
                           "join ordering (frozen vs unfrozen store)")
    fuzz.add_argument("--min-triples", type=int, default=8)
    fuzz.add_argument("--max-triples", type=int, default=60,
                      help="graph size range per case (default 8..60)")
    fuzz.add_argument("--no-shrink", action="store_true",
                      help="report failing cases without minimizing")
    fuzz.add_argument("--save-failing", metavar="DIR", default=None,
                      help="write shrunk failing cases as corpus JSON "
                           "into DIR")
    fuzz.add_argument("--replay", metavar="DIR", default=None,
                      help="replay a corpus directory instead of "
                           "generating cases")
    fuzz.add_argument("--inject-bug", default=None,
                      choices=["nullification"],
                      help="deliberately break an engine component to "
                           "validate that the harness catches it")

    serve = commands.add_parser(
        "serve",
        help="serve SPARQL queries over a TCP socket (NDJSON)",
        description="Run the concurrent query service: queries from "
                    "any number of client connections are admitted "
                    "into a bounded queue and executed by a worker "
                    "pool against the current immutable dataset "
                    "snapshot; a 'reload' request swaps in a new "
                    "snapshot without disturbing in-flight queries.")
    serve_source = serve.add_mutually_exclusive_group(required=False)
    serve_source.add_argument("--data", help="N-Triples file")
    serve_source.add_argument("--store", help="store image (.lbrm)")
    serve.add_argument("--live-dir", default=None,
                       help="directory for a writable live store "
                            "(WAL + frozen base images); enables the "
                            "'update' op.  --data/--store seed it on "
                            "first creation; an existing directory is "
                            "recovered from its WAL")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8815,
                       help="TCP port (0 = pick an ephemeral port; "
                            "the bound port is printed and written to "
                            "--port-file)")
    serve.add_argument("--port-file", default=None,
                       help="write the bound port to this file once "
                            "listening (for scripted callers)")
    serve.add_argument("--workers", type=int, default=4,
                       help="query worker threads (default 4)")
    serve.add_argument("--queue-limit", type=int, default=64,
                       help="admission queue bound; a full queue "
                            "rejects new queries immediately "
                            "(default 64)")
    serve.add_argument("--timeout", type=float, default=30.0,
                       help="default per-query deadline in seconds, "
                            "measured from admission (default 30)")
    serve.add_argument("--max-join-rows", type=int, default=1_000_000,
                       help="default per-query join output budget "
                            "(default 1,000,000)")
    serve.add_argument("--no-shutdown-op", action="store_true",
                       help="reject the protocol 'shutdown' op "
                            "(stop with SIGINT instead)")
    serve.add_argument("--drain-timeout", type=float, default=10.0,
                       help="graceful-shutdown deadline: seconds to "
                            "wait for in-flight queries before closing "
                            "(default 10)")
    serve.add_argument("--mmap", action="store_true",
                       help="accepted and ignored: every --store image "
                            "is memory-mapped and decoded lazily, with "
                            "or without this flag (kept for scripts "
                            "that still pass it)")

    lint = commands.add_parser(
        "lint",
        help="run the project-invariant static checkers "
             "(repro.analysis)",
        description="Walk the source ASTs and enforce the project "
                    "invariants ordinary tests only catch by luck: "
                    "lock discipline in the concurrent service, "
                    "retain()/close() pairing on refcounted stores, "
                    "hash-seed-independent ordering in the planner, "
                    "the tmp->fsync->rename durability protocol, and "
                    "the typed exception taxonomy.  Exits 1 when any "
                    "unsuppressed finding remains.")
    lint.add_argument("paths", nargs="*",
                      help="files or directories to check (default: "
                           "[tool.lbr.lint] paths from pyproject.toml)")
    lint.add_argument("--root", default=".",
                      help="repo root holding pyproject.toml "
                           "(default .)")
    lint.add_argument("--format", choices=["text", "json"],
                      default="text", dest="lint_format",
                      help="report format (default text)")
    lint.add_argument("--out", default=None,
                      help="also write the report to this file")
    lint.add_argument("--rules", default=None,
                      help="comma-separated rule ids to run "
                           "(default: all)")
    lint.add_argument("--changed-only", action="store_true",
                      help="check only files changed vs --base "
                           "(git diff + untracked)")
    lint.add_argument("--base", default="HEAD",
                      help="git base for --changed-only "
                           "(default HEAD)")
    lint.add_argument("--list-rules", action="store_true",
                      help="list rule ids and exit")
    lint.add_argument("--selfcheck", action="store_true",
                      help="run the planted-violation fixture corpus "
                           "and exit")
    return parser


def _generate(args) -> int:
    from .datasets import (DBPediaConfig, LUBMConfig, UniProtConfig,
                           generate_dbpedia, generate_lubm,
                           generate_uniprot)
    scale = args.scale
    if args.dataset == "lubm":
        config = LUBMConfig()
        config.universities = max(1, round(config.universities * scale))
        if args.seed is not None:
            config.seed = args.seed
        graph = generate_lubm(config)
    elif args.dataset == "uniprot":
        config = UniProtConfig()
        config.proteins = max(10, round(config.proteins * scale))
        if args.seed is not None:
            config.seed = args.seed
        graph = generate_uniprot(config)
    else:
        config = DBPediaConfig()
        for attribute in ("places", "settlements", "airports",
                          "soccer_players", "persons", "companies",
                          "vehicles"):
            setattr(config, attribute,
                    max(5, round(getattr(config, attribute) * scale)))
        if args.seed is not None:
            config.seed = args.seed
        graph = generate_dbpedia(config)
    written = ntriples.dump(graph, args.out)
    print(f"wrote {written:,} triples to {args.out}")
    return 0


def _freeze(args) -> int:
    if is_store_image(args.data):
        store = open_store(args.data)
    else:
        store = BitMatStore.build(ntriples.load(args.data))
    try:
        size = save_mmap_store(store, args.out)
        print(f"froze {store.num_triples:,} triples "
              f"({store.num_predicates:,} predicate extents, "
              f"{1 << PAGE_SHIFT}-byte aligned) "
              f"-> {args.out} ({size:,} bytes)")
    finally:
        store.close()
    return 0


def _query(args) -> int:
    if not args.query_file and not args.query:
        print("error: provide --query or --query-file", file=sys.stderr)
        return 2
    if args.query_file:
        with open(args.query_file, encoding="utf-8") as handle:
            query_text = handle.read()
    else:
        query_text = args.query

    if args.store and args.engine != "lbr":
        print("error: the baseline engines need --data (an N-Triples "
              "file), not a store image", file=sys.stderr)
        return 2
    graph = store = None
    if not args.store:
        graph = ntriples.load(args.data)
        if args.engine == "lbr" or args.explain:  # explain is LBR's plan
            store = BitMatStore.build(graph)
    else:
        store = open_store(args.store)
    try:
        if args.explain:
            engine = LBREngine(store)
            print(engine.explain(query_text))
            return 0

        if args.engine == "lbr":
            engine = LBREngine(store)
        elif args.engine == "naive":
            engine = NaiveEngine(graph)
        else:
            engine = ColumnStoreEngine(graph)
        result = engine.execute(query_text)

        print("\t".join(f"?{v}" for v in result.variables))
        for index, row in enumerate(result):
            if args.limit is not None and index >= args.limit:
                print(f"... ({len(result) - args.limit:,} more rows)")
                break
            print("\t".join("NULL" if value is NULL
                            else getattr(value, "n3", str(value))
                            for value in row))
        print(f"\n{len(result):,} rows", file=sys.stderr)

        if args.stats and args.engine == "lbr":
            stats = engine.last_stats
            print(f"Tplan={stats.t_plan:.4f}s Tinit={stats.t_init:.4f}s "
                  f"Tprune={stats.t_prune:.4f}s "
                  f"Ttotal={stats.t_total:.4f}s", file=sys.stderr)
            print(f"initial={stats.initial_triples:,} "
                  f"pruned-to={stats.triples_after_pruning:,} "
                  f"results-with-nulls={stats.results_with_nulls:,} "
                  f"best-match={stats.best_match_required}",
                  file=sys.stderr)
        return 0
    except (ParseError, UnsupportedQueryError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        if store is not None:
            store.close()


def _info(args) -> int:
    if is_store_image(args.data):
        store = open_store(args.data)
        try:
            print(f"triples={store.num_triples:,} "
                  f"subjects={store.num_subjects:,} "
                  f"predicates={store.num_predicates:,} "
                  f"objects={store.num_objects:,} "
                  f"shared={store.num_shared:,}")
        finally:
            store.close()
        return 0
    graph = ntriples.load(args.data)
    chars = graph.characteristics()
    print(f"triples={chars['triples']:,} subjects={chars['subjects']:,} "
          f"predicates={chars['predicates']:,} "
          f"objects={chars['objects']:,}")
    return 0


def _bench(args) -> int:
    from .bench import BenchmarkHarness, format_query_table
    from .datasets import (DBPEDIA_QUERIES, LUBM_QUERIES, UNIPROT_QUERIES,
                           generate_dbpedia, generate_lubm,
                           generate_uniprot)
    generators = {"lubm": (generate_lubm, LUBM_QUERIES, "LUBM"),
                  "uniprot": (generate_uniprot, UNIPROT_QUERIES, "UniProt"),
                  "dbpedia": (generate_dbpedia, DBPEDIA_QUERIES,
                              "DBPedia")}
    generate, queries, label = generators[args.dataset]
    graph = generate()
    harness = BenchmarkHarness(label, graph, runs=args.runs)
    suite = harness.run_suite(queries)
    print(format_query_table(suite))
    return 0


def _fuzz(args) -> int:
    from contextlib import nullcontext

    from .fuzz import (CampaignConfig, format_campaign_report,
                       inject_bug, load_corpus, run_campaign, run_case)

    injection = (inject_bug(args.inject_bug) if args.inject_bug
                 else nullcontext())

    if args.replay:
        entries = load_corpus(args.replay)
        if not entries:
            print(f"error: no corpus cases under {args.replay}",
                  file=sys.stderr)
            return 2
        failures = 0
        with injection:
            for entry in entries:
                result = run_case(entry.case)
                ok = result.status == entry.expect
                status = result.status if ok else (
                    f"{result.status} (expected {entry.expect})")
                print(f"{entry.case.name or entry.path}: {status}")
                for disagreement in result.disagreements:
                    print(f"  {disagreement.describe()}")
                if not ok:
                    failures += 1
        print(f"{len(entries)} corpus cases, {failures} failing")
        return 1 if failures else 0

    config = CampaignConfig(
        seed=args.seed, budget=args.budget, seconds=args.seconds,
        shape=args.shape, profile=args.profile,
        min_triples=args.min_triples, max_triples=args.max_triples,
        shrink_failures=not args.no_shrink,
        save_failing=args.save_failing)
    with injection:
        report = run_campaign(config, log=print)
    print(format_campaign_report(report))
    return 0 if report.ok else 1


def _serve(args) -> int:
    from .server import LBRServer, QueryService, ServiceConfig

    config = ServiceConfig(
        workers=args.workers,
        queue_limit=args.queue_limit if args.queue_limit > 0 else None,
        default_timeout=args.timeout if args.timeout > 0 else None,
        max_join_rows=(args.max_join_rows
                       if args.max_join_rows > 0 else None))
    if not args.live_dir and not args.store and not args.data:
        print("error: provide --data, --store, or --live-dir",
              file=sys.stderr)
        return 2
    service = QueryService(config)
    live = None
    if args.live_dir:
        from .update import LiveGraphStore
        if args.store:
            seed = open_store(args.store)
            try:
                # the live store writes and serves its own base image
                live = LiveGraphStore.open(args.live_dir, initial=seed)
            finally:
                seed.close()
        else:
            live = LiveGraphStore.open(
                args.live_dir,
                initial=ntriples.load(args.data) if args.data else None)
        service.attach_live_store(live)
    elif args.store:
        service.load_store(open_store(args.store))
    else:
        service.load_store(BitMatStore.build(ntriples.load(args.data)))
    snapshot = service.snapshots.current()
    server = LBRServer(service, host=args.host, port=args.port,
                       allow_shutdown=not args.no_shutdown_op,
                       drain_timeout=(args.drain_timeout
                                      if args.drain_timeout > 0
                                      else None))
    host, port = server.address
    mode = f"live store at {args.live_dir}" if live else "read-only"
    if args.mmap:
        mode += ", mmap"
    print(f"lbr serve: {snapshot.store.num_triples:,} triples "
          f"(snapshot v{snapshot.version}), {args.workers} workers, "
          f"queue limit {args.queue_limit}, {mode}", flush=True)
    print(f"listening on {host}:{port}", flush=True)
    if args.port_file:
        with open(args.port_file, "w", encoding="utf-8") as handle:
            handle.write(f"{port}\n")
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        server.shutdown_gracefully()
    finally:
        server.close()
        service.close()
    print("lbr serve: stopped", flush=True)
    return 0


def _lint(args) -> int:
    from .analysis.runner import main as lint_main
    forwarded: list[str] = list(args.paths)
    forwarded += ["--root", args.root, "--format", args.lint_format,
                  "--base", args.base]
    if args.out:
        forwarded += ["--out", args.out]
    if args.rules:
        forwarded += ["--rules", args.rules]
    if args.changed_only:
        forwarded.append("--changed-only")
    if args.list_rules:
        forwarded.append("--list-rules")
    if args.selfcheck:
        forwarded.append("--selfcheck")
    return lint_main(forwarded)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"generate": _generate, "index": _freeze,
                "freeze": _freeze, "query": _query,
                "info": _info, "bench": _bench, "fuzz": _fuzz,
                "serve": _serve, "lint": _lint}
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
