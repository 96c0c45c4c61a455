"""Thin stdlib HTTP/JSON front over :class:`FacilityService`.

No web framework: a few dozen lines of :func:`asyncio.start_server` HTTP
parsing, because the service *is* the in-process object — HTTP is just one
more way to deliver an envelope to ``service.handle``. Everything stays on
one event loop, which is what lets requests arriving over separate
connections coalesce into one evaluation.

Routes:

* ``POST /v1/request`` — body is a request envelope, response is the
  versioned response envelope. Structured error codes map onto HTTP
  status (``rate-limited``/``overloaded`` → 429 with ``Retry-After``).
* ``GET /v1/health`` — liveness plus in-flight depth.
* ``GET /v1/metrics`` — the full :meth:`ServiceMetrics.state_dict`.
"""

from __future__ import annotations

import asyncio
import json
from typing import NoReturn

from .envelope import PROTOCOL_VERSION, ServiceResponse
from .service import FacilityService

__all__ = ["ServiceHTTPServer", "http_status"]

#: Structured error code → HTTP status. Admission refusals are 429s (the
#: client should back off and retry); malformed envelopes are 400s;
#: anything unexpected is a 500.
_STATUS_BY_CODE = {
    "rate-limited": 429,
    "overloaded": 429,
    "bad-request": 400,
    "unknown-method": 400,
    "unsupported-version": 400,
    "internal-error": 500,
}


def _refuse_non_finite(token: str) -> NoReturn:
    """``json.loads`` hook for ``NaN`` and ``±Infinity``: RFC 8259 has neither."""
    raise ValueError(f"{token} is not a JSON number")


def http_status(response: ServiceResponse) -> int:
    """The HTTP status one response envelope travels under."""
    if response.ok:
        return 200
    return _STATUS_BY_CODE.get(response.error["code"], 500)


class ServiceHTTPServer:
    """Serves one :class:`FacilityService` over a listening socket."""

    def __init__(
        self, service: FacilityService, *, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None

    async def start(self) -> None:
        """Bind and start accepting; resolves ``self.port`` when 0."""
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop accepting and wait for the listener to close."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def serve_forever(self) -> None:
        """Run until cancelled (call :meth:`start` first)."""
        assert self._server is not None, "call start() before serve_forever()"
        await self._server.serve_forever()

    # -- connection handling ------------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                parsed = await self._read_request(reader)
                if parsed is None:
                    break
                method, path, headers, body = parsed
                status, payload, extra = await self._route(method, path, body)
                keep_alive = headers.get("connection", "keep-alive") != "close"
                await self._write_response(
                    writer, status, payload, extra, keep_alive
                )
                if not keep_alive:
                    break
        except (asyncio.IncompleteReadError, ConnectionError, ValueError):
            pass  # client went away or spoke garbage; drop the connection
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    @staticmethod
    async def _read_request(reader: asyncio.StreamReader):
        request_line = await reader.readline()
        if not request_line or request_line in (b"\r\n", b"\n"):
            return None
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            raise ValueError("malformed request line")
        method, path = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        body = await reader.readexactly(length) if length else b""
        return method, path, headers, body

    async def _route(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, dict, dict[str, str]]:
        if method == "GET" and path == "/v1/health":
            return (
                200,
                {
                    "v": PROTOCOL_VERSION,
                    "ok": True,
                    "in_flight": self.service.in_flight,
                },
                {},
            )
        if method == "GET" and path == "/v1/metrics":
            return 200, self.service.metrics.state_dict(), {}
        if method == "POST" and path == "/v1/request":
            try:
                envelope = json.loads(
                    body.decode("utf-8"), parse_constant=_refuse_non_finite
                )
            except ValueError:  # JSONDecodeError, UnicodeDecodeError or the hook
                self.service.metrics.record_in("default")
                self.service.metrics.record_failed("default", "bad-request")
                return (
                    400,
                    {
                        "v": PROTOCOL_VERSION,
                        "ok": False,
                        "error": {
                            "code": "bad-request",
                            "type": "JSONDecodeError",
                            "message": "request body is not valid JSON",
                        },
                    },
                    {},
                )
            response = await self.service.handle(envelope)
            extra: dict[str, str] = {}
            if not response.ok and "retry_after_s" in response.error:
                extra["Retry-After"] = str(
                    max(1, round(response.error["retry_after_s"]))
                )
            return http_status(response), response.to_dict(), extra
        return (
            404,
            {
                "v": PROTOCOL_VERSION,
                "ok": False,
                "error": {
                    "code": "not-found",
                    "type": "LookupError",
                    "message": f"no route for {method} {path}",
                },
            },
            {},
        )

    @staticmethod
    async def _write_response(
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict,
        extra_headers: dict[str, str],
        keep_alive: bool,
    ) -> None:
        reasons = {200: "OK", 400: "Bad Request", 404: "Not Found",
                   429: "Too Many Requests", 500: "Internal Server Error"}
        body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
        head = [
            f"HTTP/1.1 {status} {reasons.get(status, 'Unknown')}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        head += [f"{name}: {value}" for name, value in extra_headers.items()]
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body)
        await writer.drain()
