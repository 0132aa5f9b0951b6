"""Raw-socket HTTP/1.1 exchange for front-end framing tests.

``urllib`` and ``http.client`` refuse to send the malformed requests these
tests need, and they hide how many responses came back on a connection.
"""

from __future__ import annotations

import socket


def raw_exchange(
    port: int, data: bytes, *, timeout: float = 10.0
) -> list[tuple[int, dict[str, str], bytes]]:
    """Send ``data`` on one connection and read until the server closes it.

    Returns every ``(status, headers, body)`` response on the connection,
    in order.  A server that keeps the connection open makes the read
    time out, which raises :class:`TimeoutError`.
    """
    received = b""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(data)
        while chunk := sock.recv(65536):
            received += chunk
    responses = []
    while received:
        head, _, rest = received.partition(b"\r\n\r\n")
        status_line, *header_lines = head.decode("latin-1").split("\r\n")
        headers = {}
        for line in header_lines:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        responses.append((int(status_line.split()[1]), headers, rest[:length]))
        received = rest[length:]
    return responses
