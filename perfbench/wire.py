"""A minimal keep-alive HTTP/1.1 client and the closed-loop load generator.

The client does as little as possible per request: one scatter-gather
write of pre-encoded bytes, then a read of the status line, headers and
``Content-Length`` body.  Response bodies are kept as bytes and checked
after the timed phase, so the client's JSON work never competes with the
server while it is being measured.
"""

from __future__ import annotations

import dataclasses
import socket
import threading
import time
from collections.abc import Sequence

from inputs import Request, http_head


class WireError(Exception):
    """The connection failed or the server sent a malformed response."""


class Connection:
    """One keep-alive connection to the server under test."""

    def __init__(self, port: int, timeout: float = 120.0) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buf = b""

    def close(self) -> None:
        self.sock.close()

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def write(self, buffers: Sequence[bytes]) -> None:
        views = [memoryview(b) for b in buffers if b]
        while views:
            sent = self.sock.sendmsg(views[:512])
            while sent:
                if sent >= len(views[0]):
                    sent -= len(views[0])
                    views.pop(0)
                else:
                    views[0] = views[0][sent:]
                    sent = 0

    def _read_until(self, marker: bytes) -> bytes:
        while (end := self._buf.find(marker)) < 0:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise WireError("connection closed mid-response")
            self._buf += chunk
        out, self._buf = self._buf[:end], self._buf[end + len(marker):]
        return out

    def _read_exact(self, n: int) -> bytes:
        chunks = [self._buf[:n]]
        have = len(chunks[0])
        self._buf = self._buf[n:]
        while have < n:
            chunk = self.sock.recv(max(65536, n - have))
            if not chunk:
                raise WireError("connection closed mid-body")
            if have + len(chunk) > n:
                self._buf = chunk[n - have:]
                chunk = chunk[: n - have]
            chunks.append(chunk)
            have += len(chunk)
        return b"".join(chunks)

    def roundtrip(self, head: bytes, parts: Sequence[bytes] = ()) -> tuple[int, bytes]:
        """Send one request; return ``(status, body)``."""
        try:
            self.write((head, *parts))
            return self.reply()
        except (OSError, ValueError, IndexError) as exc:
            raise WireError(f"{type(exc).__name__}: {exc}") from exc

    def reply(self) -> tuple[int, bytes]:
        """Read one response: ``(status, body)``."""
        header = self._read_until(b"\r\n\r\n").decode("latin-1")
        lines = header.split("\r\n")
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        return int(lines[0].split(" ", 2)[1]), self._read_exact(length)

    def send(self, request: Request) -> tuple[int, bytes]:
        return self.roundtrip(request.head, request.parts)

    def get(self, path: str) -> tuple[int, bytes]:
        return self.roundtrip(http_head("GET", path))


def pipelined(conn: Connection, requests: Sequence[Request]) -> list[tuple[int, bytes]]:
    """Send ``requests`` back to back on one connection, then read every reply.

    For untimed work only (finishing a stream, extra checks): a writer
    thread keeps sending while replies are read, so neither side's socket
    buffer can fill up and stall the other.
    """
    failure: list[BaseException] = []

    def writer() -> None:
        try:
            for request in requests:
                conn.write((request.head, *request.parts))
        except OSError as exc:
            failure.append(exc)

    thread = threading.Thread(target=writer, daemon=True)
    thread.start()
    try:
        replies = [conn.reply() for _ in requests]
    except (OSError, ValueError, IndexError) as exc:
        raise WireError(f"{type(exc).__name__}: {exc}") from exc
    finally:
        thread.join(timeout=60)
    if failure:
        raise WireError(str(failure[0]))
    return replies


@dataclasses.dataclass
class Sample:
    """One timed request: its index in the sequence and its outcome."""

    index: int
    start: float
    end: float
    status: int  # HTTP status, or 0 when the transport failed
    body: bytes

    @property
    def latency(self) -> float:
        return self.end - self.start


@dataclasses.dataclass
class LoadResult:
    samples: list[Sample]
    started: float
    finished: float

    @property
    def elapsed(self) -> float:
        return self.finished - self.started

    def sent(self) -> int:
        """How many leading requests of the sequence were sent."""
        return max((s.index for s in self.samples), default=-1) + 1


def closed_loop(port: int, sequence: Sequence[Request], seconds: float,
                cycle: bool = False) -> LoadResult:
    """Drive ``sequence`` through one closed-loop client.

    The client sends its next request only after the previous reply.  It
    stops taking requests once ``seconds`` have passed or the sequence is
    used up (``cycle`` repeats it instead); the request in flight at the
    deadline completes and counts.
    """
    samples: list[Sample] = []
    with Connection(port) as conn:
        started = time.perf_counter()
        deadline = started + seconds
        i = 0
        while time.perf_counter() < deadline and (cycle or i < len(sequence)):
            request = sequence[i % len(sequence)]
            t0 = time.perf_counter()
            try:
                status, body = conn.send(request)
            except WireError as exc:
                samples.append(Sample(i, t0, time.perf_counter(), 0, str(exc).encode()))
                break
            samples.append(Sample(i, t0, time.perf_counter(), status, body))
            i += 1
        finished = time.perf_counter()
    return LoadResult(samples, started, finished)
