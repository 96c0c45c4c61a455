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

__all__ = ["MAX_BODY_BYTES", "MAX_HEADERS", "MAX_LINE_BYTES", "ServiceHTTPServer", "http_status"]

#: Largest request body the front reads, in bytes. Service envelopes are
#: well under a kilobyte, so this only stops a stated length from holding
#: a connection open while it waits for bytes that never come.
MAX_BODY_BYTES = 1 << 20
#: Longest request line or header line the front reads, in bytes (the
#: ``asyncio`` stream default), and the most header lines in one request.
#: Either bound stops a request head from growing without limit.
MAX_LINE_BYTES = 1 << 16
MAX_HEADERS = 100

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


class _MalformedRequest(Exception):
    """A request head the front cannot parse; the message goes back in a 400."""


def _refuse_non_finite(token: str) -> NoReturn:
    """``json.loads`` hook for ``NaN`` and ``±Infinity``: RFC 8259 has neither."""
    raise ValueError(f"{token} is not a JSON number")


def _body_length(value: str) -> int | None:
    """The body length a ``Content-Length`` value states, or ``None`` if it is bad.

    Only plain decimal digits up to :data:`MAX_BODY_BYTES` are a length; a
    sign, a non-number or a larger value is refused before any body is read.
    """
    if not (value.isascii() and value.isdigit() and len(value) <= 9):
        return None
    length = int(value)
    return length if length <= MAX_BODY_BYTES else None


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    """One line of a request head; a line over the reader's limit is malformed."""
    try:
        return await reader.readline()
    except ValueError:  # readline's form of asyncio.LimitOverrunError
        message = f"a line of the request head is over {MAX_LINE_BYTES} bytes"
        raise _MalformedRequest(message) from None


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
            self._serve_connection, self.host, self.port, limit=MAX_LINE_BYTES
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
                try:
                    parsed = await self._read_request(reader)
                except _MalformedRequest as exc:
                    # Where the request ends is unknown, so the connection closes.
                    status, payload = self._bad_request("ValueError", str(exc))
                    await self._write_response(writer, status, payload, {}, False)
                    break
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
        except (asyncio.IncompleteReadError, ConnectionError):
            pass  # client went away mid-request; drop the connection
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    @staticmethod
    async def _read_request(reader: asyncio.StreamReader):
        """``(method, path, headers, body)`` of the next request, or ``None``.

        Raises :class:`_MalformedRequest` for a request line without a
        method and a path, a line over :data:`MAX_LINE_BYTES`, more than
        :data:`MAX_HEADERS` header lines or a bad ``Content-Length``.
        """
        request_line = await _read_line(reader)
        if not request_line or request_line in (b"\r\n", b"\n"):
            return None
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            raise _MalformedRequest("the request line needs a method and a path")
        method, path = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        for _ in range(MAX_HEADERS + 1):
            line = await _read_line(reader)
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        else:
            raise _MalformedRequest(f"more than {MAX_HEADERS} header lines")
        length = _body_length(headers.get("content-length", "0"))
        if length is None:
            raise _MalformedRequest(
                f"Content-Length must be a whole number of bytes up to {MAX_BODY_BYTES}"
            )
        body = await reader.readexactly(length) if length else b""
        return method, path, headers, body

    def _bad_request(self, error_type: str, message: str) -> tuple[int, dict]:
        """A counted 400 ``bad-request`` for a request the service never saw."""
        self.service.metrics.record_in("default")
        self.service.metrics.record_failed("default", "bad-request")
        error = {"code": "bad-request", "type": error_type, "message": message}
        return 400, {"v": PROTOCOL_VERSION, "ok": False, "error": error}

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
                status, payload = self._bad_request(
                    "JSONDecodeError", "request body is not valid JSON"
                )
                return status, payload, {}
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
