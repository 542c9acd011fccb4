"""HTTP/1.1 parsing and serialisation primitives.

The parser is driven directly over in-memory asyncio streams — no
sockets — so every malformed-input branch is cheap to hit.
"""

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gateway.http import (
    HttpError,
    Request,
    read_request,
    response_bytes,
    start_chunked,
    write_chunk,
)


def parse(raw: bytes, **kw):
    """Feed raw bytes to read_request via an in-memory StreamReader."""

    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader, **kw)

    return asyncio.run(run())


class TestReadRequest:
    def test_simple_get(self):
        req = parse(b"GET /jobs/j1 HTTP/1.1\r\nHost: x\r\n\r\n")
        assert req.method == "GET"
        assert req.path == "/jobs/j1"
        assert req.headers["host"] == "x"
        assert req.body == b""

    def test_post_with_body(self):
        body = b'{"a": "b"}'
        req = parse(
            b"POST /jobs HTTP/1.1\r\n"
            + f"Content-Length: {len(body)}\r\n".encode()
            + b"Content-Type: application/json\r\n\r\n"
            + body
        )
        assert req.method == "POST"
        assert req.json() == {"a": "b"}

    def test_query_string_is_parsed_off_the_path(self):
        req = parse(b"GET /jobs/j1/events?timeout=5 HTTP/1.1\r\n\r\n")
        assert req.path == "/jobs/j1/events"
        assert req.query == {"timeout": "5"}

    def test_eof_before_request_returns_none(self):
        assert parse(b"") is None

    def test_header_names_are_case_insensitive(self):
        req = parse(b"GET / HTTP/1.1\r\nX-Thing: 1\r\n\r\n")
        assert req.headers["x-thing"] == "1"

    def test_bad_request_line_is_400(self):
        with pytest.raises(HttpError) as err:
            parse(b"NONSENSE\r\n\r\n")
        assert err.value.status == 400

    def test_bad_content_length_is_400(self):
        with pytest.raises(HttpError) as err:
            parse(b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n")
        assert err.value.status == 400

    def test_oversized_body_is_413(self):
        with pytest.raises(HttpError) as err:
            parse(
                b"POST / HTTP/1.1\r\nContent-Length: 100\r\n\r\n" + b"x" * 100,
                max_body=10,
            )
        assert err.value.status == 413

    def test_chunked_request_body_is_501(self):
        with pytest.raises(HttpError) as err:
            parse(
                b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
                b"0\r\n\r\n"
            )
        assert err.value.status == 501

    def test_truncated_head_returns_none(self):
        # EOF before the blank line: not a request, however far it got.
        assert parse(b"GET /healthz HTTP/1.1\r\nHost: x") is None
        assert parse(b"GET /healthz HTTP/1.1\r\n") is None

    def test_truncated_body_returns_none(self):
        # Client hung up mid-body: not an error worth a response.
        assert parse(b"POST / HTTP/1.1\r\nContent-Length: 50\r\n\r\nhalf") is None

    def test_json_on_invalid_body_is_400(self):
        req = parse(b"POST / HTTP/1.1\r\nContent-Length: 4\r\n\r\nnope")
        with pytest.raises(HttpError) as err:
            req.json()
        assert err.value.status == 400


    def test_deeply_nested_json_is_400(self):
        body = b"[" * 5000 + b"]" * 5000
        req = parse(b"POST /jobs HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % len(body) + body)
        with pytest.raises(HttpError) as err:
            req.json()
        assert err.value.status == 400

    def test_unparseable_target_is_400(self):
        with pytest.raises(HttpError) as err:
            parse(b"GET http://[::1/jobs HTTP/1.1\r\n\r\n")
        assert err.value.status == 400

    def test_http11_keeps_the_connection_unless_told_to_close(self):
        assert parse(b"GET / HTTP/1.1\r\n\r\n").keep_alive
        assert not parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").keep_alive
        assert not parse(b"GET / HTTP/1.1\r\nConnection: Close\r\n\r\n").keep_alive

    def test_http10_closes_unless_it_asks_for_keep_alive(self):
        assert not parse(b"GET / HTTP/1.0\r\n\r\n").keep_alive
        assert parse(b"GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n").keep_alive

    def test_requests_follow_one_another_on_one_reader(self):
        async def run():
            reader = asyncio.StreamReader()
            reader.feed_data(
                b"POST /jobs HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}"
                b"GET /healthz HTTP/1.1\r\n\r\n"
            )
            reader.feed_eof()
            return [await read_request(reader) for _ in range(3)]

        first, second, end = asyncio.run(run())
        assert (first.method, first.body) == ("POST", b"{}")
        assert (second.method, second.path) == ("GET", "/healthz")
        assert end is None

    def test_a_line_past_the_readers_limit_is_400(self):
        async def run():
            reader = asyncio.StreamReader(limit=64)
            reader.feed_data(b"GET /" + b"x" * 100 + b" HTTP/1.1\r\n\r\n")
            reader.feed_eof()
            return await read_request(reader)

        with pytest.raises(HttpError) as err:
            asyncio.run(run())
        assert err.value.status == 400

    @pytest.mark.parametrize("size", [1, 2, 3, 7])
    def test_a_head_split_across_small_writes(self, size):
        """The client's writes land in the reader a few bytes at a time,
        the blank line's CRLF pair split among them."""
        raw = b"POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\n{}"

        async def run():
            reader = asyncio.StreamReader()

            async def trickle():
                for at in range(0, len(raw), size):
                    reader.feed_data(raw[at : at + size])
                    await asyncio.sleep(0)
                reader.feed_eof()

            feeder = asyncio.create_task(trickle())
            request = await read_request(reader)
            await feeder
            return request, await read_request(reader)

        request, end = asyncio.run(run())
        assert (request.method, request.path, request.body) == ("POST", "/jobs", b"{}")
        assert request.headers == {"host": "x", "content-length": "2"}
        assert end is None

    def test_lines_may_end_in_a_bare_lf(self):
        req = parse(b"GET /healthz HTTP/1.1\nHost: x\n\r\n")
        assert (req.path, req.headers) == ("/healthz", {"host": "x"})

    def test_more_than_a_hundred_headers_is_400(self):
        fields = lambda n: b"".join(b"X-%d: 1\r\n" % i for i in range(n))
        assert len(parse(b"GET / HTTP/1.1\r\n" + fields(101) + b"\r\n").headers) == 101
        with pytest.raises(HttpError) as err:
            parse(b"GET / HTTP/1.1\r\n" + fields(102) + b"\r\n")
        assert err.value.status == 400

    def test_a_line_past_the_line_bound_is_400(self):
        async def run(line):
            reader = asyncio.StreamReader(limit=1 << 20)
            reader.feed_data(b"GET / HTTP/1.1\r\nX: " + line + b"\r\n\r\n")
            reader.feed_eof()
            return await read_request(reader)

        assert asyncio.run(run(b"y" * 16000)).headers["x"] == "y" * 16000
        with pytest.raises(HttpError) as err:
            asyncio.run(run(b"y" * 16 * 1024))
        assert err.value.status == 400

    def test_a_head_past_the_readers_limit_is_400(self):
        """Short lines, but more of them than the reader buffers."""
        with pytest.raises(HttpError) as err:
            parse(b"GET / HTTP/1.1\r\n" + b"X: %s\r\n" % (b"y" * 1000) * 80 + b"\r\n")
        assert err.value.status == 400


HEADS = st.sampled_from([
    b"",
    b"GET / HTTP/1.1\r\n",
    b"POST /jobs HTTP/1.1\r\nContent-Length: 40\r\n\r\n",
    b"POST /jobs HTTP/1.1\r\nContent-Length: 4\r\n\r\n{\"a\"",
])


class TestHostileRequests:
    """Whatever a client sends, parsing it returns a request (or None)
    or raises HttpError, which the server answers with its status."""

    @settings(max_examples=300, deadline=None)
    @given(HEADS, st.binary(max_size=200))
    def test_read_request(self, head, tail):
        try:
            parse(head + tail)
        except HttpError:
            pass

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=200) | st.text(max_size=100).map(str.encode))
    def test_json(self, body):
        try:
            assert isinstance(Request("POST", "/jobs", body=body).json(), dict)
        except HttpError as err:
            assert err.status == 400


class TestResponses:
    def test_response_bytes_shape(self):
        raw = response_bytes(404, {"error": "no such job"})
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 404 Not Found\r\n")
        assert b"content-type: application/json" in head.lower()
        assert f"content-length: {len(body)}".encode() in head.lower()
        assert b"no such job" in body

    def test_connection_header_closes_by_default(self):
        assert b"\r\nConnection: close\r\n" in response_bytes(200, {})
        kept = response_bytes(200, {}, keep_alive=True)
        assert b"\r\nConnection: keep-alive\r\n" in kept
        assert b"close" not in kept

    def test_extra_headers_are_emitted(self):
        raw = response_bytes(429, {"error": "full"}, extra_headers={"Retry-After": "2"})
        assert b"Retry-After: 2\r\n" in raw

    def test_chunked_stream_round_trip(self):
        class Sink:
            def __init__(self):
                self.data = b""

            def write(self, chunk):
                self.data += chunk

            async def drain(self):
                pass

        async def run():
            from repro.gateway.http import end_chunked

            sink = Sink()
            await start_chunked(sink)
            await write_chunk(sink, b'{"event": "queued"}\n')
            await write_chunk(sink, b"")  # must not terminate the stream
            await end_chunked(sink)
            return sink.data

        data = asyncio.run(run())
        assert b"Transfer-Encoding: chunked" in data
        # chunk framing: hex size, CRLF, payload, CRLF, then 0-terminator
        payload = b'{"event": "queued"}\n'
        assert f"{len(payload):x}".encode() + b"\r\n" + payload in data
        assert data.endswith(b"0\r\n\r\n")
