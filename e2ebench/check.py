"""Answer checking against an engine that is never LBR itself.

A response is reduced to ``(row count, order-independent digest)`` over
its rows with the columns sorted by variable name, so neither row order
nor column order matters but a dropped row, a duplicated row or one
changed cell does.  The reference is ``ColumnStoreEngine`` — the
repository's independent comparator — run once per query text over the
same triples; the graph is fixed, so its answers are memoized under
``out/`` next to the graph itself.
"""

from __future__ import annotations

import hashlib
import json
import os
import time

from . import OUT

Digest = tuple[int, int]


def wire_rows(rows: list[tuple]) -> list[list]:
    """Engine rows in the wire's cell form: N3 text, None for NULL.

    The benchmark's own rendering, not ``repro.server.protocol``'s: a
    checker that shared the server's encoder would agree with it about
    a wrongly encoded cell.
    """
    from repro.rdf.terms import NULL
    return [[None if value is NULL else value.n3 for value in row]
            for row in rows]


def digest(variables: list[str], rows: list[list]) -> Digest:
    """``(count, digest)`` of wire-form rows (N3 strings, None = NULL)."""
    order = sorted(range(len(variables)), key=lambda i: variables[i])
    total = 0
    for row in rows:
        canonical = repr([row[i] for i in order]).encode()
        total += int.from_bytes(
            hashlib.blake2b(canonical, digest_size=8).digest(), "big")
    return len(rows), total & ((1 << 64) - 1)


class Reference:
    """Memoized ``ColumnStoreEngine`` answers for one fixed graph."""

    def __init__(self, triples: list, tag: str) -> None:
        self._triples = triples
        self._engine = None
        self._path = os.path.join(OUT, f"reference-{tag}.json")
        self._dirty = False
        #: seconds spent computing (not loading) reference answers
        self.seconds = 0.0
        try:
            with open(self._path, encoding="utf-8") as handle:
                self._memo: dict[str, list[int]] = json.load(handle)
        except (OSError, ValueError):
            self._memo = {}

    def answer(self, text: str) -> Digest:
        key = hashlib.blake2b(text.encode(), digest_size=12).hexdigest()
        known = self._memo.get(key)
        if known is None:
            from repro.baselines import ColumnStoreEngine
            started = time.perf_counter()
            if self._engine is None:
                self._engine = ColumnStoreEngine(self._triples)
            result = self._engine.execute(text)
            known = list(digest([str(var) for var in result.variables],
                                wire_rows(result.rows)))
            self.seconds += time.perf_counter() - started
            self._memo[key] = known
            self._dirty = True
        return known[0], known[1]

    def save(self) -> None:
        if self._dirty:
            os.makedirs(OUT, exist_ok=True)
            temporary = f"{self._path}.{os.getpid()}.tmp"
            with open(temporary, "w", encoding="utf-8") as handle:
                json.dump(self._memo, handle)
            os.replace(temporary, self._path)
            self._dirty = False


class Checker:
    """Counts attempted and failed operations for one run.

    A query response passes when it is ``ok`` and its digest equals
    the reference answer for its text; a text without a reference
    answer fails.  Thread-safe enough for the load generator: each
    call does one dict read/write and two integer increments under the
    GIL, and the totals are read after the client threads have joined.
    """

    def __init__(self, expected: dict[str, Digest]) -> None:
        self._expected = expected
        #: (text, fingerprint of the variables-and-rows bytes) -> rows,
        #: for responses that passed the full check
        self._passed: dict[tuple[str, bytes], int] = {}
        self.attempted = 0
        self.failed = 0
        self.first_failure: str | None = None

    def fail(self, what: str) -> None:
        self.failed += 1
        if self.first_failure is None:
            self.first_failure = what

    def answer(self, key: str, text: str, got: Digest) -> None:
        """Check one answer's (rows, digest) against the expected one."""
        self.attempted += 1
        want = self._expected.get(text)
        if got != want:
            self.fail(f"{key}: got (rows, digest) {got}, want {want}")

    def query(self, key: str, text: str,
              reply: bytes) -> tuple[int, dict]:
        """Check one wire query response.

        Returns ``(rows, envelope)``, the envelope being the response
        without its variables and rows (``ok``, ``wait_s``, ``exec_s``,
        ``stats``, ``error``).  Decoding and digesting thousands of
        rows holds this process's GIL for tens of milliseconds, which
        the other client thread would see as latency; so once a
        response has passed the full check, a later one whose
        variables-and-rows bytes are identical passes by fingerprint
        alone, and only its small envelope is decoded.
        """
        start = reply.find(b'"variables":')
        end = reply.rfind(b',"stats":')
        framed = 0 < start < end
        if framed:
            body = memoryview(reply)[start:end]
            fingerprint = (text, hashlib.blake2b(
                body, digest_size=16).digest())
            rows = self._passed.get(fingerprint)
            if rows is not None:
                self.attempted += 1
                return rows, json.loads(
                    reply[:start] + b'"rows":null' + reply[end:])
        response = json.loads(reply)
        if not response.get("ok"):
            self.attempted += 1
            self.fail(f"{key}: {response.get('error')}")
            return 0, response
        rows = len(response["rows"])
        failed = self.failed
        self.answer(key, text,
                    digest(response["variables"], response.pop("rows")))
        if self.failed == failed and framed:
            self._passed[fingerprint] = rows
        return rows, response
