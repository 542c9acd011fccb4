"""Minimal HTTP/1.1 over asyncio streams — the gateway's wire layer.

The gateway deliberately speaks plain HTTP with nothing but the
standard library: requests are parsed straight off an
``asyncio.StreamReader``, responses are rendered to bytes, and
long-lived status streams use ``Transfer-Encoding: chunked`` so a
client can read job events line by line while the search runs.  This is
the same "no framework, just sockets" discipline as the cluster's
length-prefixed protocol — everything on the wire is inspectable with
``curl`` and ``tcpdump``.

Connections persist as HTTP/1.1 says they do (RFC 9112 section 9.3):
a request's :attr:`Request.keep_alive` is false only when the client
sends ``Connection: close`` or speaks HTTP/1.0 without ``keep-alive``,
and a response says which way it went in its own ``Connection`` header.
Scope is otherwise small: bodies bounded by ``max_body``, no request
chunking, no TLS.  Anything outside that scope gets a clean 4xx/5xx
instead of undefined behaviour.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Mapping, Optional
from urllib.parse import parse_qsl, unquote, urlsplit

__all__ = [
    "HttpError",
    "Request",
    "response_bytes",
    "read_request",
    "start_chunked",
    "write_chunk",
    "end_chunked",
    "STATUS_PHRASES",
]

STATUS_PHRASES = {
    200: "OK",
    201: "Created",
    202: "Accepted",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
}

# Bound on the request head (request line + headers) and default bound
# on bodies: a search JobSpec is well under a kilobyte, so anything
# megabyte-sized is a client error, not a bigger buffer's job.
_MAX_HEAD_LINE = 16 * 1024
# A head ends at an empty line after a line ending: CRLF heads end in
# "\r\n\r\n", which ends in this too.
_HEAD_END = b"\n\r\n"
DEFAULT_MAX_BODY = 1 * 1024 * 1024


class HttpError(Exception):
    """A request that cannot be served; carries the response status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: dict = field(default_factory=dict)
    headers: dict = field(default_factory=dict)  # keys lower-cased
    body: bytes = b""
    keep_alive: bool = True  # the connection may carry another request

    def json(self) -> dict:
        """The body parsed as a JSON object (raises 400-flavoured
        :class:`HttpError` on anything else)."""
        try:
            data = json.loads(self.body.decode("utf-8"))
        except (ValueError, RecursionError) as exc:  # RecursionError: deep nesting
            raise HttpError(400, f"body is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise HttpError(400, "body must be a JSON object")
        return data


async def read_request(
    reader: asyncio.StreamReader, *, max_body: int = DEFAULT_MAX_BODY
) -> Optional[Request]:
    """Parse one request off ``reader``; None on a clean EOF.

    The head is read in one ``readuntil`` up to its blank line.  A line
    may end in a bare LF, but the blank line that ends the head must be
    CRLF: a lone LF there is not seen as the end of the head (RFC 9112
    §2.2 lets a recipient choose).  Malformed input raises
    :class:`HttpError` with the right status (400 bad syntax or an
    over-long head, 413 oversized body, 501 request chunking).
    """
    try:
        head = await reader.readuntil(_HEAD_END)
    except (asyncio.IncompleteReadError, ConnectionError):
        return None  # EOF before the head ended: not a request
    except asyncio.LimitOverrunError:  # the reader's own limit
        raise HttpError(400, "request head too long") from None
    lines = head.decode("latin-1").split("\n")[:-2]  # drop the blank line
    if max(map(len, lines)) >= _MAX_HEAD_LINE:
        raise HttpError(400, "request head line too long")
    try:
        method, target, version = lines[0].strip().split(" ", 2)
    except ValueError:
        raise HttpError(400, "malformed request line") from None
    if not version.startswith("HTTP/1."):
        raise HttpError(400, f"unsupported protocol {version!r}")

    headers: dict = {}
    for line in lines[1:]:
        if len(headers) > 100:
            raise HttpError(400, "headers too large")
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()

    if "chunked" in headers.get("transfer-encoding", "").lower():
        raise HttpError(501, "chunked request bodies are not supported")
    body = b""
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError:
            raise HttpError(400, "bad Content-Length") from None
        if length < 0:
            raise HttpError(400, "bad Content-Length")
        if length > max_body:
            raise HttpError(413, f"body exceeds {max_body} bytes")
        try:
            body = await reader.readexactly(length)
        except (asyncio.IncompleteReadError, ConnectionError):
            return None  # client hung up mid-body; nothing to respond to

    try:
        split = urlsplit(target)
    except ValueError as exc:  # e.g. an unclosed IPv6 bracket
        raise HttpError(400, f"bad request target: {exc}") from None
    connection = headers.get("connection", "").lower()
    return Request(
        method=method.upper(),
        path=unquote(split.path) or "/",
        query=dict(parse_qsl(split.query)),
        headers=headers,
        body=body,
        keep_alive=(
            "keep-alive" in connection if version == "HTTP/1.0"
            else "close" not in connection
        ),
    )


def response_bytes(
    status: int,
    body: bytes | str | dict,
    *,
    content_type: str = "application/json",
    extra_headers: Optional[Mapping[str, str]] = None,
    keep_alive: bool = False,
) -> bytes:
    """Render a complete non-streaming response.

    ``body`` may be a dict (serialised as JSON), str (UTF-8 encoded) or
    raw bytes; Content-Length is always set, and ``Connection`` says
    ``keep-alive`` if ``keep_alive`` else ``close``.
    """
    if isinstance(body, dict):
        body = json.dumps(body, sort_keys=True).encode()
    elif isinstance(body, str):
        body = body.encode()
    phrase = STATUS_PHRASES.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {phrase}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        "Connection: keep-alive" if keep_alive else "Connection: close",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    head = "\r\n".join(lines) + "\r\n\r\n"
    return head.encode("latin-1") + body


async def start_chunked(
    writer: asyncio.StreamWriter,
    *,
    status: int = 200,
    content_type: str = "application/x-ndjson",
    extra_headers: Optional[Mapping[str, str]] = None,
) -> None:
    """Send the head of a ``Transfer-Encoding: chunked`` response; the
    stream's end ends its connection (``Connection: close``)."""
    phrase = STATUS_PHRASES.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {phrase}",
        f"Content-Type: {content_type}",
        "Transfer-Encoding: chunked",
        "Cache-Control: no-store",
        "Connection: close",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))
    await writer.drain()


async def write_chunk(writer: asyncio.StreamWriter, data: bytes | str) -> None:
    """Write one chunk (and flush — streams must not sit in buffers)."""
    if isinstance(data, str):
        data = data.encode()
    if not data:
        return  # an empty chunk would terminate the stream
    writer.write(f"{len(data):x}\r\n".encode("latin-1") + data + b"\r\n")
    await writer.drain()


async def end_chunked(writer: asyncio.StreamWriter) -> None:
    """Terminate a chunked response."""
    writer.write(b"0\r\n\r\n")
    await writer.drain()
