"""The stdlib HTTP/JSON front: envelopes over a socket, status mapping."""

import asyncio
import json

import pytest

from repro.service import AdmissionController, FacilityService
from repro.service.http import MAX_BODY_BYTES, ServiceHTTPServer


def run(coro):
    return asyncio.run(coro)


async def http(port, method, path, body=None, length=None):
    """Minimal HTTP/1.1 client; returns (status, headers, json_body).

    ``body`` is sent as JSON, or as it is when it is already ``bytes``;
    ``length`` replaces the true ``Content-Length`` value when given."""
    if isinstance(body, bytes):
        payload = body
    else:
        payload = b"" if body is None else json.dumps(body).encode()
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: test\r\n"
        f"Content-Length: {len(payload) if length is None else length}\r\n"
        "Connection: close\r\n\r\n"
    )
    return await exchange(port, head.encode() + payload)


def _refuse_non_finite(token):
    raise ValueError(f"non-JSON number {token} on the wire")


async def exchange(port, request):
    """Send raw request bytes; returns the reply's (status, headers, json_body).

    The body must parse as RFC 8259 JSON: no NaN or infinity."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(request)
    await writer.drain()
    status_line = await reader.readline()
    status = int(status_line.split()[1])
    headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode().partition(":")
        headers[name.strip().lower()] = value.strip()
    body_bytes = await reader.readexactly(int(headers["content-length"]))
    writer.close()
    await writer.wait_closed()
    return status, headers, json.loads(body_bytes, parse_constant=_refuse_non_finite)


async def with_server(service, fn):
    server = ServiceHTTPServer(service, port=0)
    await server.start()
    try:
        return await fn(server.port)
    finally:
        await server.stop()


class TestRoutes:
    def test_request_route_answers_envelopes(self):
        async def main():
            service = FacilityService()

            async def scenario(port):
                status, _, body = await http(
                    port,
                    "POST",
                    "/v1/request",
                    {
                        "v": 1,
                        "method": "classify_regime",
                        "params": {"at_ci_g_per_kwh": 190.0},
                        "tenant": "curl",
                    },
                )
                assert status == 200
                assert body["ok"] is True
                assert body["result"]["regime"] == "scope2-dominated"

            await with_server(service, scenario)
            assert service.metrics.reconciles()
            assert service.metrics.requests_in == {"curl": 1}

        run(main())

    def test_health_and_metrics_routes(self):
        async def main():
            service = FacilityService()

            async def scenario(port):
                status, _, body = await http(port, "GET", "/v1/health")
                assert status == 200 and body["ok"] and body["in_flight"] == 0
                status, _, body = await http(port, "GET", "/v1/metrics")
                assert status == 200
                assert body["requests_in"] == {}

            await with_server(service, scenario)

        run(main())

    def test_error_status_mapping(self):
        async def main():
            service = FacilityService()

            async def scenario(port):
                status, _, body = await http(
                    port, "POST", "/v1/request", {"v": 99, "method": "emissions"}
                )
                assert status == 400
                assert body["error"]["code"] == "unsupported-version"
                status, _, body = await http(port, "GET", "/nope")
                assert status == 404
                assert body["error"]["code"] == "not-found"

            await with_server(service, scenario)

        run(main())

    def test_garbage_body_is_a_400_not_a_crash(self, time_limit):
        async def main(body):
            service = FacilityService()

            async def scenario(port):
                loop = asyncio.get_running_loop()
                start = loop.time()
                status, _, envelope = await http(port, "POST", "/v1/request", body)
                assert loop.time() - start < 1.0, body
                assert status == 400, body
                assert envelope["ok"] is False
                assert envelope["error"]["code"] == "bad-request"

            await with_server(service, scenario)
            metrics = service.metrics
            assert metrics.requests_in == metrics.failed == {"default": 1}, body
            assert metrics.reconciles()

        sched = b'{"v":1,"method":"sched_compare","params":{"days":%s,"nodes":64}}'
        for body in (
            b"not json!",
            b"[1,2]",
            b"42",
            b'"x"',
            b"null",
            # RFC 8259 has no non-finite numbers; an infinite span never ends.
            sched % b"Infinity",
            sched % b"-Infinity",
            sched % b"NaN",
        ):
            run(main(body))

    def test_bad_content_length_is_a_400_not_a_hang(self, time_limit):
        """A negative, non-numeric or over-cap length gets a counted 400
        before any body is read, and the connection closes."""

        async def main(length):
            service = FacilityService()

            async def scenario(port):
                status, headers, envelope = await http(
                    port, "POST", "/v1/request", b"{}", length=length
                )
                assert status == 400, length
                assert envelope["error"]["code"] == "bad-request"
                assert headers["connection"] == "close"

            await with_server(service, scenario)
            metrics = service.metrics
            assert metrics.requests_in == metrics.failed == {"default": 1}, length
            assert metrics.reconciles()

        for length in ("-5", "abc", str(MAX_BODY_BYTES + 1)):
            run(main(length))

    def test_malformed_head_is_a_counted_400(self, time_limit):
        """A request line without a path, an over-long header line and too
        many headers each get a counted 400 and a closed connection."""

        async def main(request):
            service = FacilityService()

            async def scenario(port):
                status, headers, envelope = await exchange(port, request)
                assert status == 400
                assert envelope["error"]["code"] == "bad-request"
                assert headers["connection"] == "close"

            await with_server(service, scenario)
            metrics = service.metrics
            assert metrics.requests_in == metrics.failed == {"default": 1}
            assert metrics.reconciles()

        head = b"GET /v1/health HTTP/1.1\r\n"
        for request in (
            b"GARBAGE\r\n\r\n",
            head + b"X-Long: " + b"a" * 70_000 + b"\r\n\r\n",
            head + b"".join(b"X-H%d: v\r\n" % i for i in range(5_000)) + b"\r\n",
        ):
            run(main(request))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_out_of_range_numbers_are_counted_400s(self):
        """Finite numbers whose answer is not finite, or a node count past
        int64, get a 400 in strict JSON, each counted as failed."""
        cases = [
            ("advise", {"ci_g_per_kwh": 1e308}),
            ("classify_regime", {"ci_g_per_kwh": 1e308}),
            ("sweep", {"overrides": {"node_counts": [2**63]}}),
        ]

        async def main():
            service = FacilityService()

            async def scenario(port):
                for method, params in cases:
                    envelope = {"v": 1, "method": method, "params": params}
                    status, _, body = await http(port, "POST", "/v1/request", envelope)
                    assert status == 400, method
                    assert body["error"]["code"] == "bad-request", method

            await with_server(service, scenario)
            metrics = service.metrics
            assert metrics.requests_in == metrics.failed == {"default": len(cases)}
            assert metrics.reconciles()

        run(main())

    def test_rate_limited_requests_carry_retry_after(self):
        async def main():
            service = FacilityService(
                admission=AdmissionController(rate_per_s=1.0, burst=1.0),
                clock=lambda: 0.0,
            )

            async def scenario(port):
                envelope = {
                    "v": 1,
                    "method": "classify_regime",
                    "params": {"at_ci_g_per_kwh": 190.0},
                    "tenant": "noisy",
                }
                status, _, _ = await http(port, "POST", "/v1/request", envelope)
                assert status == 200
                status, headers, body = await http(
                    port, "POST", "/v1/request", envelope
                )
                assert status == 429
                assert body["error"]["code"] == "rate-limited"
                assert int(headers["retry-after"]) >= 1

            await with_server(service, scenario)
            assert service.metrics.reconciles()

        run(main())
