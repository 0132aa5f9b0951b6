"""Boot, probe and stop the default ``repro serve`` front end."""

from __future__ import annotations

import os
import re
import selectors
import signal
import subprocess
import sys
import time
from pathlib import Path

from wire import Connection

_LISTENING = re.compile(rb"listening on http://[^:]+:(\d+)")


class ServerError(Exception):
    pass


class Server:
    """``python -m repro serve --port 0`` as a child process.

    Only the default front end and default knobs are used, apart from the
    arguments a workload passes (e.g. ``--live-dir``), so whatever a later
    change makes the default is what gets measured.
    """

    def __init__(self, root: Path, workdir: Path, args: list[str], boot_timeout: float = 60.0):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        self.log_path = workdir / "server.log"
        self._log = open(self.log_path, "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", *args],
            cwd=root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=self._log,
        )
        try:
            self.port = self._await_port(boot_timeout)
            with Connection(self.port) as conn:
                status, _ = conn.get("/v1/healthz")
            if status != 200:
                raise ServerError(f"/v1/healthz answered {status}")
        except BaseException:
            self.stop()
            raise

    def _await_port(self, timeout: float) -> int:
        assert self.proc.stdout is not None
        deadline = time.monotonic() + timeout
        seen = b""
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            while (match := _LISTENING.search(seen)) is None:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not sel.select(remaining):
                    raise ServerError(f"server did not report its port (see {self.log_path})")
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    raise ServerError(f"server exited during boot (see {self.log_path})")
                seen += chunk
        return int(match.group(1))

    def peak_rss_mb(self) -> float:
        """The server's peak resident set size (``VmHWM``) in MiB."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        (kib,) = re.findall(r"^VmHWM:\s+(\d+) kB", status, re.M)
        return int(kib) / 1024.0

    def stop(self) -> None:
        """SIGTERM (graceful drain), then SIGKILL if it does not exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()
