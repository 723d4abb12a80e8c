"""The benchmark's side of the wire: a lean NDJSON client and the
``lbr serve`` subprocess it talks to.

The client is deliberately not ``repro.server.ServerClient``: the load
generator must cost as little as possible and must see the raw
response bytes (their count is a metric), and a benchmark that shared
the program's client would not notice a protocol regression the two
ends agree on.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time

from . import SRC


class Connection:
    """One blocking NDJSON connection; one request in flight."""

    def __init__(self, port: int, timeout: float = 120.0) -> None:
        self._sock = socket.create_connection(("127.0.0.1", port),
                                              timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader = self._sock.makefile("rb")

    def call_raw(self, payload: dict) -> tuple[bytes, float]:
        """``(response line, seconds)`` for one request.

        The clock stops when the whole response line is in hand;
        decoding it is the client's own cost and is not counted.
        """
        line = (json.dumps(payload, separators=(",", ":")) + "\n").encode()
        started = time.perf_counter()
        self._sock.sendall(line)
        reply = self._reader.readline()
        elapsed = time.perf_counter() - started
        if not reply:
            raise ConnectionError("server closed the connection")
        return reply, elapsed

    def call(self, payload: dict) -> tuple[dict, float]:
        """``(decoded response, seconds)`` for one request."""
        reply, elapsed = self.call_raw(payload)
        return json.loads(reply), elapsed

    def close(self) -> None:
        self._reader.close()
        self._sock.close()

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def peak_rss_mb(pid: int) -> float:
    """High-water resident set of a live process, from /proc."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for pid {pid}")


def program_env() -> dict[str, str]:
    """Environment under which the program's own CLI is importable."""
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (SRC + os.pathsep + inherited if inherited
                         else SRC)
    return env


class ServerProcess:
    """``python -m repro serve`` on an ephemeral port.

    ``ready_s`` is spawn → first ``ping`` answered.  The process is
    killed on every way out of the ``with`` block; nothing is left
    running.
    """

    def __init__(self, workdir: str, *serve_args: str) -> None:
        self._port_file = os.path.join(workdir, "port")
        if os.path.exists(self._port_file):
            os.remove(self._port_file)
        self._log = open(os.path.join(workdir, "server.log"), "ab")
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--port-file", self._port_file, *serve_args],
            stdout=self._log, stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL, env=program_env())
        try:
            self.port = self._await_port()
            with Connection(self.port) as connection:
                response, _ = connection.call({"op": "ping"})
            if not response.get("pong"):
                raise RuntimeError(f"bad ping response: {response}")
        except BaseException:
            self.kill()
            raise
        self.ready_s = time.perf_counter() - started

    def _await_port(self, timeout: float = 120.0) -> int:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"lbr serve exited with {self.process.returncode}; "
                    f"see {self._log.name}")
            try:
                with open(self._port_file, encoding="ascii") as handle:
                    text = handle.read()
                if text.endswith("\n"):
                    return int(text)
            except FileNotFoundError:
                pass
            time.sleep(0.005)
        raise TimeoutError("lbr serve did not publish its port")

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.process.pid)

    def kill(self) -> None:
        """SIGKILL and reap; safe to call twice."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGKILL)
        self.process.wait()
        self._log.close()

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc_info) -> None:
        self.kill()
