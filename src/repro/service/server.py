"""Minimal asyncio HTTP/1.1 server exposing the campaign-service job API.

Stdlib only — the transport is hand-rolled on ``asyncio.start_server``
rather than pulling in an HTTP framework, because the protocol surface is
tiny: JSON request bodies, JSON responses, and one chunked event stream.
Connections are single-request (``Connection: close``); clients open a
fresh connection per call, which keeps the parser trivial and is cheap at
the request rates a simulation service sees.

Routes
------
``GET  /health``                liveness probe.
``GET  /stats``                 service/pool/cache/queue counters.
``GET  /workloads``             submittable workload names + audit suite.
``GET  /jobs``                  all jobs, summaries only.
``POST /jobs``                  submit a job spec; 202 + job summary.
``GET  /jobs/<id>``             job detail (result included once done).
``GET  /jobs/<id>/events``      chunked stream, one JSON event per line.
``POST /jobs/<id>/cancel``      cancel a queued or running job.
"""

from __future__ import annotations

import asyncio
import json
import urllib.parse

from repro.service.jobs import JobManager, JobSpecError

#: Request head (request line + headers) size cap; bodies are bounded by
#: Content-Length below.
MAX_HEAD_BYTES = 16 * 1024
MAX_BODY_BYTES = 1024 * 1024

_STATUS_TEXT = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 500: "Internal Server Error",
}


class ServiceServer:
    """One campaign service: HTTP front end + job manager + worker pool."""

    def __init__(self, *, host: str = "127.0.0.1", port: int = 0,
                 workers: int | None = None, cache=None,
                 cache_dir=None, max_active: int = 2):
        self.host = host
        self.port = port
        self._workers = workers
        self._cache = cache
        self._cache_dir = cache_dir
        self._max_active = max_active
        self.pool = None
        self.manager: JobManager | None = None
        self._server: asyncio.AbstractServer | None = None

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        """Spawn the worker pool and start accepting connections."""
        from repro.sampler.exec_backend import WorkerPool

        if self._cache is None:
            from repro.sampler.trace_cache import TraceCache

            self._cache = TraceCache(self._cache_dir)
        # Fork the pool before any executor threads exist.
        self.pool = WorkerPool(self._workers)
        self.manager = JobManager(pool=self.pool, cache=self._cache,
                                  max_active=self._max_active)
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self.manager is not None:
            await self.manager.close()
            self.manager = None
        if self.pool is not None:
            self.pool.close()
            self.pool = None

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    async def __aenter__(self) -> "ServiceServer":
        await self.start()
        return self

    async def __aexit__(self, *_exc) -> None:
        await self.close()

    # -- connection handling ------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            request = await self._read_request(reader)
            if request is not None:
                await self._route(writer, *request)
        except (asyncio.IncompleteReadError, ConnectionResetError):
            pass  # client went away mid-request/response
        except asyncio.LimitOverrunError:
            await self._respond(writer, 400,
                                {"error": "request head too large"})
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            try:
                await self._respond(
                    writer, 500,
                    {"error": f"{type(exc).__name__}: {exc}"})
            except (ConnectionResetError, RuntimeError):
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, OSError):
                pass

    @staticmethod
    async def _read_request(reader: asyncio.StreamReader):
        """Parse one HTTP/1.1 request → (method, path, query, body|None)."""
        try:
            head = await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"), timeout=30)
        except asyncio.IncompleteReadError:
            return None  # connection closed before a full request
        if len(head) > MAX_HEAD_BYTES:
            raise asyncio.LimitOverrunError("request head too large", 0)
        request_line, *header_lines = head.decode(
            "latin-1").split("\r\n")
        parts = request_line.split(" ")
        if len(parts) != 3:
            return None
        method, target, _version = parts
        headers = {}
        for line in header_lines:
            if ":" in line:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
        parsed = urllib.parse.urlsplit(target)
        query = dict(urllib.parse.parse_qsl(parsed.query))
        body = None
        length = int(headers.get("content-length", 0) or 0)
        if length:
            if length > MAX_BODY_BYTES:
                raise asyncio.LimitOverrunError("body too large", 0)
            body = await reader.readexactly(length)
        return method.upper(), parsed.path, query, body

    async def _respond(self, writer: asyncio.StreamWriter, status: int,
                       payload: dict) -> None:
        body = (json.dumps(payload, indent=2) + "\n").encode()
        writer.write(
            f"HTTP/1.1 {status} {_STATUS_TEXT[status]}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n".encode() + body)
        await writer.drain()

    # -- routing ------------------------------------------------------------

    async def _route(self, writer, method: str, path: str, query: dict,
                     body: bytes | None) -> None:
        manager = self.manager
        if manager is None:
            await self._respond(writer, 500,
                                {"error": "service is shutting down"})
            return
        if path == "/health":
            await self._respond(writer, 200, {"status": "ok"})
            return
        if path == "/stats" and method == "GET":
            await self._respond(writer, 200, manager.stats())
            return
        if path == "/workloads" and method == "GET":
            from repro.cli import AUDIT_EXPECTATIONS, known_workloads

            await self._respond(writer, 200, {
                "workloads": list(known_workloads()),
                "audit_suite": list(AUDIT_EXPECTATIONS),
            })
            return
        if path == "/jobs":
            if method == "POST":
                await self._submit(writer, body)
            elif method == "GET":
                await self._respond(writer, 200, {
                    "jobs": [job.to_dict(include_result=False)
                             for job in manager.jobs()],
                })
            else:
                await self._respond(writer, 405,
                                    {"error": f"{method} not allowed"})
            return
        if path.startswith("/jobs/"):
            await self._job_route(writer, method, path, query)
            return
        await self._respond(writer, 404, {"error": f"no route for {path}"})

    async def _submit(self, writer, body: bytes | None) -> None:
        try:
            payload = json.loads(body or b"")
        except json.JSONDecodeError as error:
            await self._respond(writer, 400,
                                {"error": f"invalid JSON body: {error}"})
            return
        try:
            job = self.manager.submit(payload)
        except JobSpecError as error:
            await self._respond(writer, 400, {"error": str(error)})
            return
        await self._respond(writer, 202, job.to_dict(include_result=False))

    async def _job_route(self, writer, method: str, path: str,
                         query: dict) -> None:
        segments = path.strip("/").split("/")
        job = self.manager.get(segments[1])
        if job is None:
            await self._respond(writer, 404,
                                {"error": f"unknown job {segments[1]!r}"})
            return
        if len(segments) == 2 and method == "GET":
            await self._respond(writer, 200, job.to_dict())
            return
        if len(segments) == 3 and segments[2] == "cancel" \
                and method == "POST":
            cancelled = self.manager.cancel(job.id)
            await self._respond(writer, 200,
                                {"id": job.id, "cancelled": cancelled,
                                 "state": job.state})
            return
        if len(segments) == 3 and segments[2] == "events" \
                and method == "GET":
            await self._stream_events(writer, job, query)
            return
        await self._respond(writer, 404, {"error": f"no route for {path}"})

    async def _stream_events(self, writer, job, query: dict) -> None:
        """Chunked stream of job events, one JSON object per line.

        The stream starts at event ``?start=N`` (default 0, so reconnecting
        clients can resume) and terminates — with the usual zero-length
        chunk — once the job reaches a terminal state.
        """
        try:
            start = int(query.get("start", 0))
        except ValueError:
            start = 0
        writer.write(b"HTTP/1.1 200 OK\r\n"
                     b"Content-Type: application/x-ndjson\r\n"
                     b"Transfer-Encoding: chunked\r\n"
                     b"Connection: close\r\n\r\n")
        await writer.drain()
        async for event in job.stream(start):
            line = (json.dumps(event) + "\n").encode()
            writer.write(f"{len(line):x}\r\n".encode() + line + b"\r\n")
            await writer.drain()
        writer.write(b"0\r\n\r\n")
        await writer.drain()


async def run_service(**kwargs) -> None:
    """Start a server and serve until cancelled (``microsampler serve``)."""
    server = ServiceServer(**kwargs)
    await server.start()
    try:
        await server.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await server.close()
