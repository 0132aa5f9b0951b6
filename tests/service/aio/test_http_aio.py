"""Async HTTP front-end tests: threaded client parity, async client, stats.

The threaded :class:`ServiceClient` is used unchanged against the async
server — wire compatibility is part of the contract (chunked batch
responses are reassembled transparently by ``urllib``).
"""

import asyncio
import json
import threading
import urllib.request

import pytest

from repro.core.serialize import problem_to_dict
from repro.exceptions import ServiceError
from repro.service.aio.client import AsyncServiceClient
from repro.service.aio.http import BackgroundAsyncServer
from repro.service.app import SchedulingService
from repro.service.codec import dumps
from repro.service.http import ServiceClient, make_server
from tests.service.wire import raw_exchange


@pytest.fixture
def async_served():
    """(service, server, threaded client) around a live async node."""
    service = SchedulingService(max_workers=2, queue_size=8, cache_size=32)
    with BackgroundAsyncServer(
        service, max_workers=2, queue_size=8, batch_window=0.002, batch_max=8
    ) as server:
        yield service, server, ServiceClient(server.base_url)
    service.close()


@pytest.fixture
def request_payload(example_problem):
    return {"problem": problem_to_dict(example_problem), "budget": 57.0}


class TestRoutes:
    def test_healthz(self, async_served):
        _, _, client = async_served
        assert client.healthz() == {"status": "ok"}

    def test_unknown_route_404(self, async_served):
        _, _, client = async_served
        response = client._request("/v1/nope")
        assert response["status"] == "error"
        assert response["error"]["kind"] == "not_found"

    def test_solve_parity_with_threaded_server(self, async_served, request_payload):
        service, _, client = async_served
        threaded_service = SchedulingService(
            max_workers=2, queue_size=8, cache_size=32
        )
        threaded = make_server(threaded_service)
        thread = threading.Thread(target=threaded.serve_forever, daemon=True)
        thread.start()
        threaded_client = ServiceClient(
            f"http://127.0.0.1:{threaded.server_address[1]}"
        )
        try:
            ours = client.solve(request_payload)
            theirs = threaded_client.solve(request_payload)
            assert ours["status"] == theirs["status"] == "ok"
            assert dumps(ours["result"]) == dumps(theirs["result"])
        finally:
            threaded.shutdown()
            threaded.server_close()
            threaded_service.close()

    def test_solve_replay_cache_hit(self, async_served, request_payload):
        _, _, client = async_served
        first = client.solve(request_payload)
        second = client.solve(request_payload)
        assert first["cache_hit"] is False
        assert second["cache_hit"] is True

    def test_missing_budget_is_bad_request(self, async_served, request_payload):
        _, _, client = async_served
        del request_payload["budget"]
        response = client.solve(request_payload)
        assert response["status"] == "error"
        assert response["error"]["kind"] == "bad_request"
        assert "budget" in response["error"]["message"]

    def test_stats_has_aio_section(self, async_served, request_payload):
        _, _, client = async_served
        client.solve(request_payload)
        stats = client.stats()["stats"]
        assert "aio" in stats
        assert stats["aio"]["flights_started"] >= 1
        assert stats["executor"]["done"] >= 1


class TestBatchEndpoint:
    def test_chunked_batch_parity_and_dedupe(self, async_served, request_payload):
        _, _, client = async_served
        items = [
            dict(request_payload),
            dict(request_payload),  # duplicate
            dict(request_payload, budget=70.0),
            {"problem": request_payload["problem"]},  # missing budget
        ]
        response = client.solve_batch(items)
        assert response["status"] == "ok"
        results = response["results"]
        assert len(results) == 4
        assert results[0]["status"] == "ok"
        assert results[1]["deduped"] is True
        assert dumps(results[1]["result"]) == dumps(results[0]["result"])
        assert results[2]["status"] == "ok"
        assert results[3]["status"] == "error"
        assert results[3]["error"]["kind"] == "bad_request"

    def test_batch_response_is_chunked_on_the_wire(
        self, async_served, request_payload
    ):
        _, server, _ = async_served
        body = json.dumps({"requests": [request_payload]}).encode()
        request = urllib.request.Request(
            f"{server.base_url}/v1/solve_batch",
            data=body,
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            assert response.headers.get("Transfer-Encoding") == "chunked"
            payload = json.loads(response.read())
        assert payload["status"] == "ok"

    def test_non_array_requests_is_bad_request(self, async_served):
        _, _, client = async_served
        response = client.solve_batch({"not": "a list"})  # type: ignore[arg-type]
        assert response["status"] == "error"
        assert response["error"]["kind"] == "bad_request"
        assert "array" in response["error"]["message"]


class TestFraming:
    """Client framing faults get a 400 and a closed connection."""

    @pytest.fixture
    def port(self, async_served):
        _, server, _ = async_served
        return int(server.base_url.rsplit(":", 1)[1])

    @pytest.mark.parametrize("length", ["abc", "1_0", "-5", ""])
    def test_bad_content_length_is_400_and_closes(self, port, length):
        # The body looks like a second request: a server that read it as
        # one would answer twice.
        smuggled = b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\n\r\n"
        request = (
            f"POST /v1/solve HTTP/1.1\r\nHost: x\r\n"
            f"Content-Length: {length}\r\n\r\n"
        ).encode() + smuggled
        [(status, headers, body)] = raw_exchange(port, request)
        assert status == 400
        assert headers["connection"] == "close"
        error = json.loads(body)["error"]
        assert error["kind"] == "bad_request"
        assert "Content-Length" in error["message"]

    @pytest.mark.parametrize(
        "line", [b"GARBAGE\r\n", b"GET /v1/healthz\r\n", b"GET / HTTP/1.1 extra\r\n"]
    )
    def test_malformed_request_line_is_400_and_closes(self, port, line):
        [(status, headers, body)] = raw_exchange(port, line + b"\r\n")
        assert status == 400
        assert headers["connection"] == "close"
        assert json.loads(body)["error"]["kind"] == "bad_request"

    def test_valid_requests_keep_the_connection_alive(self, port):
        ping = b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\n\r\n"
        last = b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
        responses = raw_exchange(port, ping + ping + last)
        assert [status for status, _, _ in responses] == [200, 200, 200]


class TestAsyncClient:
    def test_concurrent_duplicates_coalesce_over_http(
        self, async_served, request_payload
    ):
        _, server, _ = async_served

        async def scenario():
            client = AsyncServiceClient(server.base_url)
            responses = await asyncio.gather(
                *(client.solve(request_payload) for _ in range(6))
            )
            stats = await client.stats()
            return responses, stats["stats"]

        responses, stats = asyncio.run(scenario())
        blobs = {dumps(r["result"]) for r in responses}
        assert len(blobs) == 1
        assert stats["aio"]["coalesced"] >= 1
        assert (
            stats["aio"]["flights_started"] + stats["aio"]["coalesced"]
            >= len(responses)
        )

    def test_rejects_non_http_url(self):
        with pytest.raises(ServiceError):
            AsyncServiceClient("ftp://example.com")
