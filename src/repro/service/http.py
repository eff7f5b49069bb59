"""Minimal HTTP/1.1 + Server-Sent Events on raw asyncio streams.

The experiment service deliberately runs on the standard library only
(the repo rule: no runtime dependency beyond numpy), so this module
is the thin slice of HTTP it actually needs — request parsing with
bounded header/body sizes, plain JSON responses, and the
``text/event-stream`` wire format.  One request per connection: every
response carries ``Connection: close``, which keeps the server loop
trivial and is exactly how the artifact/submit routes are used; only
the SSE route holds a connection open, and that one ends when the job
reaches a terminal state or the client goes away.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from urllib.parse import parse_qs, unquote, urlsplit

__all__ = [
    "HttpError",
    "HttpRequest",
    "HttpResponse",
    "json_response",
    "read_request",
    "sse_event",
]

MAX_HEADER_BYTES = 32 * 1024
MAX_BODY_BYTES = 16 * 1024 * 1024

REASONS = {
    200: "OK",
    202: "Accepted",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """A request the server rejects with ``status`` and a JSON body."""

    def __init__(self, status: int, message: str, headers: dict[str, str] | None = None):
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = headers or {}

    def response(self) -> "HttpResponse":
        return json_response(
            {"error": self.message}, status=self.status, headers=self.headers
        )


@dataclass(frozen=True)
class HttpRequest:
    """One parsed request (headers lower-cased, query flattened)."""

    method: str
    path: str
    query: dict[str, str]
    headers: dict[str, str]
    body: bytes

    def json(self) -> dict:
        """The body as a JSON object, or a 400 :class:`HttpError`."""
        if not self.body:
            raise HttpError(400, "expected a JSON body")
        try:
            payload = json.loads(self.body)
        except ValueError as exc:
            raise HttpError(400, f"invalid JSON body: {exc}") from exc
        if not isinstance(payload, dict):
            raise HttpError(400, "JSON body must be an object")
        return payload


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    try:
        return await reader.readline()
    except ValueError as exc:  # longer than the stream's limit
        raise HttpError(400, "request or header line too long") from exc


async def read_request(reader: asyncio.StreamReader) -> HttpRequest | None:
    """Parse one request, or ``None`` if the peer closed the connection.

    A malformed request is an :class:`HttpError` with a 4xx status; a
    peer that closes mid-body raises :class:`asyncio.IncompleteReadError`.
    """
    line = await _read_line(reader)
    if not line:
        return None
    parts = line.split()
    if len(parts) != 3:
        raise HttpError(400, "malformed request line")
    method, target, _version = parts
    headers: dict[str, str] = {}
    header_bytes = 0
    while True:
        raw = await _read_line(reader)
        if raw in (b"\r\n", b"\n", b""):
            break
        header_bytes += len(raw)
        if header_bytes > MAX_HEADER_BYTES:
            raise HttpError(400, "headers too large")
        name, sep, value = raw.decode("latin-1").partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()
    declared = headers.get("content-length", "") or "0"
    if not (declared.isascii() and declared.isdigit()):
        raise HttpError(400, "bad Content-Length")
    # Compare digit counts before int(), which raises ValueError for a
    # run longer than sys.get_int_max_str_digits().
    digits = declared.lstrip("0") or "0"
    if len(digits) > len(str(MAX_BODY_BYTES)) or int(digits) > MAX_BODY_BYTES:
        raise HttpError(413, f"body exceeds {MAX_BODY_BYTES} bytes")
    length = int(digits)
    body = await reader.readexactly(length) if length > 0 else b""
    try:
        split = urlsplit(target.decode("latin-1"))
    except ValueError as exc:  # e.g. an unbalanced "[" in the authority
        raise HttpError(400, "malformed request target") from exc
    query = {k: v[-1] for k, v in parse_qs(split.query).items()}
    return HttpRequest(
        method=method.decode("latin-1").upper(),
        path=unquote(split.path),
        query=query,
        headers=headers,
        body=body,
    )


@dataclass
class HttpResponse:
    """One response; :meth:`encode` renders the wire bytes."""

    status: int = 200
    body: bytes = b""
    content_type: str = "application/json"
    headers: dict[str, str] = field(default_factory=dict)

    def encode(self) -> bytes:
        reason = REASONS.get(self.status, "Unknown")
        lines = [
            f"HTTP/1.1 {self.status} {reason}",
            f"Content-Type: {self.content_type}",
            f"Content-Length: {len(self.body)}",
            "Connection: close",
        ]
        lines.extend(f"{k}: {v}" for k, v in self.headers.items())
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        return head + self.body


def json_response(
    payload: object, status: int = 200, headers: dict[str, str] | None = None
) -> HttpResponse:
    """A canonical-JSON response (sorted keys, trailing newline)."""
    body = (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")
    return HttpResponse(status=status, body=body, headers=headers or {})


def sse_event(event: str, data: object) -> bytes:
    """One ``text/event-stream`` frame: named event + compact JSON data."""
    payload = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return f"event: {event}\ndata: {payload}\n\n".encode("utf-8")


#: The periodic comment frame that keeps idle SSE connections alive
#: (clients ignore comment lines by spec).
SSE_HEARTBEAT = b": heartbeat\n\n"

#: Response head for an SSE stream (written once, then frames follow).
SSE_HEADER = (
    b"HTTP/1.1 200 OK\r\n"
    b"Content-Type: text/event-stream\r\n"
    b"Cache-Control: no-cache\r\n"
    b"Connection: close\r\n"
    b"\r\n"
)
