"""TCP front door: the NDJSON socket server and its client.

:class:`LBRServer` wraps a ``ThreadingTCPServer``: each connection gets
a reader thread that parses one JSON request per line, drives the
shared :class:`~repro.server.service.QueryService`, and writes one JSON
response per line.  Concurrency control lives in the *scheduler*, not
here — connection threads block on their request's outcome, and the
bounded admission queue is what pushes back when clients outrun the
worker pool.

:class:`ServerClient` is the reference client: tests, the soak gate,
and the load generator all speak through it.  It can retry
transparently (off by default): transient connection failures and
``rejected`` backpressure responses are retried with exponential
backoff plus jitter up to a bounded attempt count, after which a
typed :class:`~repro.exceptions.RetriesExhaustedError` surfaces the
last underlying failure; ``shutting_down`` responses are never
retried — that server is going away.
"""

from __future__ import annotations

import random
import socket
import socketserver
import threading
import time

from ..bitmat.backend import open_store
from ..exceptions import (AdmissionError, ParseError, RetriesExhaustedError,
                          ShuttingDownError, StorageError, internal_error)
from ..rdf import ntriples
from .protocol import (PROTOCOL_VERSION, decode_line, encode_line,
                       error_response, outcome_to_response)
from ..sync import UNSET
from .service import QueryService


def _parse_triples(lines: list, what: str) -> list:
    """Wire N-Triples lines → triples (blank/comment lines skipped)."""
    triples = []
    for index, line in enumerate(lines):
        if not isinstance(line, str):
            raise ParseError(f"{what}[{index}] is not a string")
        triple = ntriples.parse_line(line, index + 1)
        if triple is not None:
            triples.append(triple)
    return triples


def _triple_line(triple) -> str:
    """One wire line for a triple (strings pass through verbatim)."""
    if isinstance(triple, str):
        return triple
    return triple.n3


def _clamp_budget(value: object, ceiling: float | None,
                  name: str) -> object:
    """Validate a client-supplied budget and cap it at the server's.

    Wire clients may *tighten* the operator's per-query limits but
    never raise or disable them — JSON ``null`` or an over-ceiling
    number would otherwise let one misbehaving client occupy workers
    indefinitely.  Raises ValueError (reported as a protocol error)
    for anything that is not a non-negative number.
    """
    if value is UNSET:
        return UNSET  # server default applies
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or value < 0):
        raise ValueError(f"{name} must be a non-negative number")
    if ceiling is not None:
        value = min(value, ceiling)
    return value


class _RequestHandler(socketserver.StreamRequestHandler):
    """One thread per connection; requests on a connection run in order."""

    def handle(self) -> None:
        server: "_TCPServer" = self.server  # type: ignore[assignment]
        for raw_line in self.rfile:
            line = raw_line.strip()
            if not line:
                continue
            try:
                request = decode_line(line)
            except ValueError as exc:
                self._send(error_response("protocol", str(exc)))
                continue
            request_id = request.get("id")
            try:
                response, stop = self._dispatch(server, request,
                                                request_id)
            except Exception as exc:  # never kill the connection thread
                response, stop = error_response(
                    "internal", str(internal_error(exc)),
                    request_id), False
            self._send(response)
            if stop:
                threading.Thread(target=server.lbr_graceful_stop,
                                 daemon=True).start()
                return

    def _dispatch(self, server: "_TCPServer", request: dict,
                  request_id) -> tuple[dict, bool]:
        service = server.lbr_service
        op = request.get("op", "query")
        if op == "query":
            query_text = request.get("query")
            if not isinstance(query_text, str):
                return error_response("protocol",
                                      "missing 'query' text",
                                      request_id), False
            try:
                timeout = _clamp_budget(
                    request.get("timeout", UNSET),
                    service.config.default_timeout, "timeout")
                max_join_rows = _clamp_budget(
                    request.get("max_join_rows", UNSET),
                    service.config.max_join_rows, "max_join_rows")
            except ValueError as exc:
                return error_response("protocol", str(exc),
                                      request_id), False
            outcome = service.execute(query_text, timeout=timeout,
                                      max_join_rows=max_join_rows)
            return outcome_to_response(outcome, request_id), False
        if op == "ping":
            return {"ok": True, "pong": True,
                    "protocol": PROTOCOL_VERSION,
                    "id": request_id}, False
        if op == "stats":
            return {"ok": True, "stats": service.stats(),
                    "id": request_id}, False
        if op == "reload":
            if "data" in request:
                snapshot = service.load_graph(
                    ntriples.load(request["data"]))
            elif "store" in request:
                snapshot = service.load_store(
                    open_store(request["store"]))
            else:
                return error_response(
                    "protocol", "reload needs 'data' or 'store'",
                    request_id), False
            return {"ok": True, "snapshot": snapshot.describe(),
                    "id": request_id}, False
        if op == "update":
            add_lines = request.get("add", [])
            delete_lines = request.get("delete", [])
            if (not isinstance(add_lines, list)
                    or not isinstance(delete_lines, list)):
                return error_response(
                    "protocol",
                    "'add' and 'delete' must be lists of N-Triples lines",
                    request_id), False
            try:
                adds = _parse_triples(add_lines, "add")
                deletes = _parse_triples(delete_lines, "delete")
            except ParseError as exc:
                return error_response("parse", str(exc), request_id), False
            try:
                summary = service.update_batch(adds, deletes)
            except ShuttingDownError as exc:
                return error_response("shutting_down", str(exc),
                                      request_id), False
            except AdmissionError as exc:
                return error_response("rejected", str(exc),
                                      request_id), False
            except StorageError as exc:
                # read-only service, failed WAL, closed store
                return error_response("error", str(exc), request_id), False
            response = {"ok": True, "id": request_id}
            response.update(summary)
            return response, False
        if op == "shutdown":
            if not server.allow_shutdown:
                return error_response("protocol",
                                      "shutdown op disabled",
                                      request_id), False
            return {"ok": True, "stopping": True,
                    "id": request_id}, True
        return error_response("protocol", f"unknown op {op!r}",
                              request_id), False

    def _send(self, payload: dict) -> None:
        self.wfile.write(encode_line(payload))
        self.wfile.flush()


class _TCPServer(socketserver.ThreadingTCPServer):
    daemon_threads = True
    allow_reuse_address = True
    lbr_service: QueryService
    allow_shutdown: bool
    drain_timeout: float | None

    def lbr_graceful_stop(self) -> None:
        """Drain admitted queries, fsync the WAL, then stop listening.

        New submits are refused with ``shutting_down`` the moment this
        starts, so clients get a typed protocol error — never a
        connection reset — while in-flight work completes up to the
        drain deadline.
        """
        service = self.lbr_service
        service.begin_shutdown()
        service.drain(self.drain_timeout)
        if service.live is not None:
            service.live.sync()
        self.shutdown()


class LBRServer:
    """The socket server; binds eagerly so the port is known at once."""

    def __init__(self, service: QueryService, host: str = "127.0.0.1",
                 port: int = 0, allow_shutdown: bool = True,
                 drain_timeout: float | None = 10.0) -> None:
        self.service = service
        self._tcp = _TCPServer((host, port), _RequestHandler)
        self._tcp.lbr_service = service
        self._tcp.allow_shutdown = allow_shutdown
        self._tcp.drain_timeout = drain_timeout
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        """The actually bound (host, port) — resolves ``port=0``."""
        host, port = self._tcp.server_address[:2]
        return host, port

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`shutdown`."""
        self._tcp.serve_forever(poll_interval=0.1)

    def start(self) -> "LBRServer":
        """Serve on a background thread (tests and embedders)."""
        if self._thread is None:
            self._thread = threading.Thread(target=self.serve_forever,
                                            daemon=True,
                                            name="lbr-server")
            self._thread.start()
        return self

    def shutdown(self) -> None:
        """Stop accepting connections and unwind ``serve_forever``."""
        self._tcp.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None

    def shutdown_gracefully(self) -> None:
        """Drain in-flight work, fsync the WAL, then stop serving."""
        self._tcp.lbr_graceful_stop()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None

    def close(self) -> None:
        self.shutdown()
        self._tcp.server_close()

    def __enter__(self) -> "LBRServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ServerClient:
    """Blocking NDJSON client over one TCP connection.

    With ``retries=0`` (the default) every failure surfaces
    immediately, exactly as before.  With ``retries=N`` the client
    transparently retries transient failures — dropped connections
    (reconnecting first) and ``rejected`` backpressure responses — up
    to N extra attempts with exponential backoff plus jitter, then
    raises :class:`~repro.exceptions.RetriesExhaustedError`.
    ``shutting_down`` responses are returned as-is, never retried.
    """

    def __init__(self, host: str, port: int,
                 timeout: float | None = 60.0, retries: int = 0,
                 backoff_base: float = 0.05,
                 backoff_cap: float = 2.0) -> None:
        self._host = host
        self._port = port
        self._timeout = timeout
        self._retries = max(0, int(retries))
        self._backoff_base = backoff_base
        self._backoff_cap = backoff_cap
        self._rng = random.Random()
        self._lock = threading.Lock()
        self._next_id = 0
        self._sock: socket.socket | None = None
        self._reader = None
        self._writer = None
        try:
            self._connect()
        except OSError:
            if self._retries == 0:
                raise
            # leave disconnected; the retry loop reconnects on use

    def _connect(self) -> None:
        self._sock = socket.create_connection(
            (self._host, self._port), timeout=self._timeout)
        self._reader = self._sock.makefile("rb")
        self._writer = self._sock.makefile("wb")

    def _reconnect(self) -> None:
        self._close_socket()
        self._connect()

    def _close_socket(self) -> None:
        for stream in (self._reader, self._writer):
            if stream is not None:
                try:
                    stream.close()
                except OSError:
                    pass
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
        self._sock = self._reader = self._writer = None

    def _request_once(self, payload: dict) -> dict:
        with self._lock:
            if self._sock is None:
                raise ConnectionError("client is disconnected")
            self._next_id += 1
            payload = dict(payload)
            payload.setdefault("id", self._next_id)
            self._writer.write(encode_line(payload))
            self._writer.flush()
            line = self._reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return decode_line(line)

    def _backoff(self, attempt: int) -> float:
        """Exponential backoff with jitter; attempt counts from 1."""
        delay = min(self._backoff_cap,
                    self._backoff_base * (2 ** (attempt - 1)))
        return delay * (0.5 + self._rng.random())

    def request(self, payload: dict) -> dict:
        """Send one request object and read its response.

        Retries transient failures when the client was built with
        ``retries > 0``; see the class docstring for the policy.
        """
        if self._retries == 0:
            return self._request_once(payload)
        attempts = 0
        last_error: Exception | None = None
        while True:
            attempts += 1
            failure: Exception | None = None
            if self._sock is None:
                try:
                    self._connect()
                except OSError as exc:
                    failure = exc
            if failure is None:
                try:
                    response = self._request_once(payload)
                except (ConnectionError, OSError) as exc:
                    failure = exc
                    self._close_socket()
                else:
                    error = response.get("error")
                    if (isinstance(error, dict)
                            and error.get("type") == "rejected"):
                        failure = AdmissionError(
                            str(error.get("message", "rejected")))
                    else:
                        return response
            last_error = failure
            if attempts > self._retries:
                break
            # the only sleep in the loop, reached strictly *between*
            # attempts — structurally, the client can never burn a
            # backoff delay after the attempt it has already given up on
            time.sleep(self._backoff(attempts))
        raise RetriesExhaustedError(
            f"request failed after {attempts} attempts: {last_error}",
            attempts=attempts, last_error=last_error)

    def query(self, query_text: str, timeout: object = None,
              max_join_rows: object = None) -> dict:
        """Run one query; returns the raw response object."""
        payload: dict = {"op": "query", "query": query_text}
        if timeout is not None:
            payload["timeout"] = timeout
        if max_join_rows is not None:
            payload["max_join_rows"] = max_join_rows
        return self.request(payload)

    def ping(self) -> dict:
        return self.request({"op": "ping"})

    def stats(self) -> dict:
        return self.request({"op": "stats"})

    def reload(self, data: str | None = None,
               store: str | None = None) -> dict:
        payload: dict = {"op": "reload"}
        if data is not None:
            payload["data"] = data
        if store is not None:
            payload["store"] = store
        return self.request(payload)

    def update(self, adds=None, deletes=None) -> dict:
        """Commit one atomic update batch of triples (or N3 lines)."""
        payload = {"op": "update",
                   "add": [_triple_line(t) for t in (adds or [])],
                   "delete": [_triple_line(t) for t in (deletes or [])]}
        return self.request(payload)

    def shutdown(self) -> dict:
        return self.request({"op": "shutdown"})

    def close(self) -> None:
        self._close_socket()

    def __enter__(self) -> "ServerClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
