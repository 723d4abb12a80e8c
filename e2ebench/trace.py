"""Outside-in tracing: timing wrappers around public entry points.

The program has no spans of its own yet (ROADMAP item 1), so the
traced run installs wrappers from here — around the names each layer
exports, patched where the *calling* module looks them up (``from x
import f`` binds ``f`` in the importer, so ``repro.core.engine
.prune_triples`` is the name to replace, not ``repro.core.prune``'s).
Nothing under ``src/`` is edited and everything is restored by
:meth:`Tracer.uninstall`.

A span is ``[name, start, end, parent, request, note]``.  Parents are
tracked per thread, and a connection thread stamps its spans with the
wire id of the request it last decoded; the one thread hop on the
query path (connection thread → scheduler worker) is bridged by object
identity: the worker's ``EngineSession.execute`` receives the very
``str`` the connection thread handed to ``QueryScheduler.execute``.  Spans stay in memory and
are written out by the runner when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from typing import Callable

NAME, START, END, PARENT, REQUEST, NOTE = range(6)


def _stats_note(args, _result):
    stats = args[0].last_stats
    return {"initial_triples": stats.initial_triples,
            "triples_after_pruning": stats.triples_after_pruning,
            "aborted_empty": stats.aborted_empty}


#: (module, owner class or None, attribute, span name, note function).
#: The note function sees ``(args, result)`` and returns what the
#: layer's counters need (row counts, byte counts).
TARGETS: tuple[tuple[str, str | None, str, str, Callable | None], ...] = (
    ("repro.server.net", None, "decode_line", "server.protocol.decode",
     None),
    ("repro.server.net", None, "encode_line", "server.protocol.encode",
     lambda args, result: len(result)),
    ("repro.server.protocol", None, "rows_to_wire",
     "server.protocol.rows_to_wire", None),
    ("repro.server.scheduler", "QueryScheduler", "execute",
     "server.scheduler", None),
    ("repro.server.scheduler", "QueryScheduler", "submit",
     "server.scheduler.submit", None),
    ("repro.core.engine", "EngineSession", "execute", "core.engine",
     _stats_note),
    ("repro.plan.compiler", None, "parse_query", "sparql.parse", None),
    ("repro.core.engine", None, "compile_frontend", "plan.frontend", None),
    ("repro.core.engine", None, "run_pipeline", "plan.passes", None),
    ("repro.core.engine", None, "build_physical", "plan.physical", None),
    ("repro.core.engine", "TPState", "load", "core.tp.init", None),
    ("repro.core.engine", None, "active_prune", "core.prune.active", None),
    ("repro.core.engine", None, "prune_triples", "core.prune", None),
    ("repro.core.engine", "MultiWayJoin", "run", "core.multiway.join",
     None),
    ("repro.core.engine", None, "minimum_union",
     "core.nullification.best_match",
     lambda args, result: (len(args[0]), len(result))),
    ("repro.core.engine", None, "decode_rows", "core.results.decode",
     lambda args, result: len(args[0])),
    ("repro.core.engine", None, "apply_solution_modifiers",
     "core.results.modifiers", None),
    ("repro.server.snapshot", "SnapshotManager", "publish_store",
     "server.snapshot.publish", None),
    ("repro.update.live", "LiveGraphStore", "apply_batch",
     "update.live.apply_batch", None),
    ("repro.update.live", "LiveGraphStore", "compact",
     "update.live.compaction", None),
    ("repro.update.live", None, "dump_mmap_bytes",
     "update.live.image_dump", lambda args, result: len(result)),
    ("repro.update.wal", "WriteAheadLog", "append_batch",
     "update.wal.append", None),
    ("repro.update.wal", None, "encode_record", "update.wal.encode",
     lambda args, result: len(result)),
    ("repro.bitmat.backend", None, "open_store", "bitmat.backend.open",
     None),
    ("repro.bitmat.mmapstore", None, "read_dictionary",
     "rdf.dictionary.load", None),
)


class Tracer:
    """Installs the wrappers, collects the spans."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        #: wrappers pass calls straight through unless this is set, so
        #: they can be installed before the service is built (it binds
        #: ``publish_store`` as a callback at construction) and still
        #: leave an untraced pass untraced
        self.recording = False
        self._lock = threading.Lock()
        self._local = threading.local()
        #: id(query text) -> (request id, scheduler span index)
        self._handoff: dict[int, tuple[object, int]] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- span bookkeeping ---------------------------------------------

    def _open(self, name: str, parent: int | None, request) -> int:
        span = [name, 0.0, 0.0, parent, request, None]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        span[START] = time.perf_counter()
        return index

    def _wrap(self, function: Callable, name: str,
              note: Callable | None) -> Callable:
        local = self._local
        spans = self.spans
        handoff = self._handoff

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return function(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if stack:
                parent = stack[-1]
                request = spans[parent][REQUEST]
            else:
                parent = None
                request = getattr(local, "request", None)
                if name == "core.engine":
                    # the thread hop: adopt the connection thread's span
                    request, parent = handoff.pop(id(args[1]),
                                                  (None, None))
            index = self._open(name, parent, request)
            span = spans[index]
            if name == "server.scheduler":
                handoff[id(args[1])] = (request, index)
            elif name == "core.engine" and request is None:
                span[REQUEST] = f"local-{index}"  # no wire: cold_open
            stack.append(index)
            try:
                result = function(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if name == "server.protocol.decode":
                # every later top-level span of this connection thread,
                # up to the next decode, belongs to the request just read
                local.request = span[REQUEST] = result.get("id")
            if note is not None:
                span[NOTE] = note(args, result)
            return result

        return wrapper

    # -- patching ------------------------------------------------------

    def install(self) -> "Tracer":
        for module_name, owner_name, attribute, name, note in TARGETS:
            owner = importlib.import_module(module_name)
            if owner_name is not None:
                owner = getattr(owner, owner_name)
            original = owner.__dict__[attribute]
            if isinstance(original, classmethod):
                patched: object = classmethod(
                    self._wrap(original.__func__, name, note))
            else:
                patched = self._wrap(original, name, note)
            self._restore.append((owner, attribute, original))
            setattr(owner, attribute, patched)
        return self

    def uninstall(self) -> None:
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> "Tracer":
        """``with tracer:`` records; the wrappers must be installed."""
        self.recording = True
        return self

    def __exit__(self, *exc_info) -> None:
        self.recording = False

    # -- output --------------------------------------------------------

    def dump(self, path: str) -> None:
        """One JSON object per span: name, start, end, parent, request."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps(
                    {"span": index, "name": span[NAME],
                     "start": span[START], "end": span[END],
                     "parent": span[PARENT], "request": span[REQUEST],
                     "note": span[NOTE]}) + "\n")
