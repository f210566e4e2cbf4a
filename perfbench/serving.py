"""The server process and a JSON-lines client for the serve workloads.

Untraced runs start the real ``python -m repro serve``; traced runs start
``perfbench/traced_server.py``, which installs the span wrappers before
handing the same arguments to the repo's CLI. Either way the server is
a child process that this module starts, stops with SIGINT and waits
for.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional

_BANNER = re.compile(r"serving on ([\d.]+):(\d+)")

#: How long a server may take to print its banner.
START_TIMEOUT = 60.0


def peak_rss_mb(pid="self") -> float:
    """VmHWM (peak resident set) of a process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"VmHWM missing from /proc/{pid}/status")


def reset_peak_rss() -> None:
    """Restart this process's VmHWM from its current RSS (Linux
    ``clear_refs``), so the peak excludes the benchmark's input
    generation."""
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")


def children_peak_rss_mb(exclude=()) -> float:
    """Summed VmHWM of this process's live ``multiprocessing`` children
    (the worker pool) other than ``exclude`` pids, in MiB."""
    import multiprocessing

    return sum(
        peak_rss_mb(p.pid)
        for p in multiprocessing.active_children()
        if p.pid not in exclude
    )


class ServerProcess:
    """One server child process; ``port`` is known once it is ready."""

    def __init__(
        self,
        root: str,
        serve_args: List[str],
        log_path: str,
        spans_path: Optional[str] = None,
    ) -> None:
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + os.pathsep + root
        if spans_path is None:
            cmd = [sys.executable, "-u", "-m", "repro", "serve"]
        else:
            launcher = os.path.join(root, "perfbench", "traced_server.py")
            cmd = [sys.executable, "-u", launcher, "--spans", spans_path, "--"]
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            cmd + serve_args,
            cwd=root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=self._log,
        )
        self.port: Optional[int] = None
        self._lines: List[str] = []

    def wait_ready(self, timeout: float = START_TIMEOUT) -> int:
        """Block until the banner names the port; returns it."""
        found: Dict[str, int] = {}

        def read() -> None:
            assert self.proc.stdout is not None
            for raw in self.proc.stdout:
                line = raw.decode("utf-8", "replace")
                self._lines.append(line)
                m = _BANNER.search(line)
                if m:
                    found["port"] = int(m.group(2))
                    return

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        reader.join(timeout)
        if "port" not in found:
            self.stop()
            raise RuntimeError(
                "server did not start: " + "".join(self._lines[-5:])
            )
        self.port = found["port"]
        return self.port

    def peak_rss_mb(self) -> float:
        """Peak RSS of the server process, in MiB."""
        return peak_rss_mb(self.proc.pid)

    def stop(self, timeout: float = 30.0) -> None:
        """SIGINT (the CLI's shutdown path), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()


class Client:
    """A blocking JSON-lines connection; one request in flight at a time.

    Every request carries a wire ``id``. With ``spans`` (a list), each
    round trip is recorded there as ``(id, op, start, end)``.
    """

    def __init__(self, port: int, spans: Optional[list] = None) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=120)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")
        self.spans = spans
        self._next_id = 0

    def request(self, payload: Dict[str, Any]) -> tuple:
        """Send one request; returns (response dict, round trip seconds)."""
        self._next_id += 1
        payload = dict(payload, id=self._next_id)
        line = (json.dumps(payload, separators=(",", ":")) + "\n").encode()
        t0 = time.perf_counter()
        self.sock.sendall(line)
        raw = self.reader.readline()
        t1 = time.perf_counter()
        if not raw:
            raise ConnectionError("server closed the connection")
        if self.spans is not None:
            self.spans.append((self._next_id, payload["op"], t0, t1))
        return json.loads(raw), t1 - t0

    def send_raw(self, line: bytes) -> dict:
        """Send one pre-encoded request line (large set-up payloads)."""
        self.sock.sendall(line)
        raw = self.reader.readline()
        if not raw:
            raise ConnectionError("server closed the connection")
        return json.loads(raw)

    def close(self) -> None:
        self.reader.close()
        self.sock.close()
