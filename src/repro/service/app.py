"""Partitioning-as-a-service: the async HTTP/JSON application layer.

A deliberately thin server — stdlib :mod:`asyncio` streams, no framework —
in front of the library's drivers:

* ``POST /partition`` — k-way partition an inline CSR graph or a named
  :mod:`repro.matrices` workload; ``POST /order`` — a fill-reducing
  ordering (mlnd/mmd/snd).  Jobs run on the bounded
  :class:`~repro.service.jobs.JobQueue`; per-request ``options.deadline``
  degrades gracefully inside the job (the response carries the
  :class:`~repro.resilience.report.ResilienceReport`, never a 500).
* A **content-addressed result cache**
  (:class:`~repro.service.cache.ResultCache`) keyed by the CSR bytes plus
  the canonical options serialization.  A hit replays the stored response
  bit-identically — same ``where`` vector, same ``where_sha256`` — with
  no partitioner phase spans emitted.  Identical requests arriving while
  the first is still computing coalesce onto the same job (single-flight).
  Requests with a ``deadline`` bypass the cache entirely: their results
  depend on wall-clock, so they are neither stored nor served from store.
  In front of the cache, a bounded **body memo** maps a digest of the raw
  request bytes to the key of the response they were answered with, so a
  repeated body is answered without decoding or validating it again.
* **Progress streaming** — ``"stream": true`` answers with newline-
  delimited JSON: the tracer records of the running job (spans/events from
  :mod:`repro.obs`) as ``progress`` lines, then one ``result`` line.
* **Observability** — when the service is started with a trace target,
  every request, cache decision and job lands in the service's own JSONL
  trace as ``service.*`` events/counters, and fresh jobs splice their
  CTime/ITime/RTime/PTime back as ``job.phase`` spans (the
  ``worker.phase`` device), so ``repro trace`` profiles a serving window
  end to end.

``GET /healthz`` and ``GET /stats`` expose liveness and the cache/queue
counters; ``DELETE /cache`` drops every cached result (an ops knob for
rolling out changed defaults).  See ``docs/SERVICE.md``.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import signal
import tempfile
import threading
import time

from repro.core.kway import partition as kway_partition
from repro.core.kway_refine import partition_refined
from repro.core.options import ambient_key_inputs, cache_key_payload
from repro.obs.export import read_trace
from repro.obs.schema import PHASE_KEYS
from repro.obs.tracer import NULL as NULL_TRACER
from repro.obs.tracer import open_tracer, trace_target
from repro.service.cache import ResultCache, request_key
from repro.service.jobs import JobQueue
from repro.service.schema import (
    ORDER_METHODS,
    ServiceRequestError,
    graph_from_request,
    ordering_response,
    parse_options,
    partition_response,
    typed_param,
)
from repro.utils.errors import (
    ConfigurationError,
    GraphValidationError,
    OrderingError,
    PartitionError,
    ReproError,
    TraceError,
)

__all__ = ["PartitionService", "serve", "BackgroundServer"]

#: Library errors a request can legitimately provoke, mapped to 400.
_BAD_REQUEST_ERRORS = (
    PartitionError,
    GraphValidationError,
    ConfigurationError,
    OrderingError,
)

#: Cache-event name -> trace counter suffix (matches ResultCache.stats()).
_CACHE_COUNTER_NAMES = {
    "hit": "hits",
    "miss": "misses",
    "evict": "evictions",
    "expire": "expirations",
    "coalesce": "coalesces",
}

#: The product paths: their answers are cached, and their bodies memoised.
_PRODUCT_PATHS = ("/partition", "/order")

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
}


class PartitionService:
    """The service core: routing, cache, job queue and tracing.

    Parameters
    ----------
    cache_size, cache_ttl:
        :class:`~repro.service.cache.ResultCache` capacity and entry
        lifetime (``ttl=None`` disables expiry, ``cache_size=0`` disables
        caching).  ``cache_size`` also bounds the body memo.
    queue_workers, backlog:
        :class:`~repro.service.jobs.JobQueue` bounds.
    trace:
        Optional JSONL trace target (path, or ``-`` for stdout) for the
        service's own tracer; ``None`` falls back to ``REPRO_TRACE``.
    max_body:
        Request-body byte cap; larger posts answer 413.
    """

    def __init__(self, *, cache_size: int = 128, cache_ttl: float | None = None,
                 queue_workers: int = 2, backlog: int = 16,
                 trace: str | None = None, max_body: int = 64 << 20):
        if trace is None:
            trace = trace_target()
        self.tracer = (
            open_tracer(trace, run="service") if trace else NULL_TRACER
        )
        self.cache = ResultCache(
            cache_size, cache_ttl, on_event=self._cache_event
        )
        #: Body digest -> the result-cache key its request was answered
        #: with (see :func:`_memo_digest`).  No TTL: an entry whose result
        #: has left the cache only falls through to the decoded path.
        self.memo = ResultCache(cache_size)
        self.queue = JobQueue(queue_workers, backlog)
        self.max_body = max_body
        self.started_at = time.monotonic()
        #: key -> Future for in-flight jobs (single-flight coalescing).
        self._inflight: dict[str, asyncio.Future] = {}

    # -- observability -------------------------------------------------

    def _cache_event(self, name: str, *, key: str, **fields) -> None:
        if self.tracer:
            self.tracer.event(f"service.cache.{name}", key=key, **fields)
            plural = _CACHE_COUNTER_NAMES.get(name, f"{name}s")
            self.tracer.counter(f"service.cache.{plural}")

    def _event(self, name: str, **fields) -> None:
        if self.tracer:
            self.tracer.event(name, **fields)
            self.tracer.counter(f"{name}s")

    def close(self) -> None:
        """Release the job pool and close the tracer (flushes counters)."""
        self.queue.shutdown()
        self.tracer.close()

    # -- job execution -------------------------------------------------

    def _job_trace_path(self) -> str | None:
        """A fresh temp file for one job's trace, or ``None`` when unused."""
        fd, path = tempfile.mkstemp(prefix="repro-job-", suffix=".jsonl")
        os.close(fd)
        return path

    def _splice_job_trace(self, path: str) -> list[dict]:
        """Fold a finished job's trace into the service trace.

        Phase-tagged spans come back as ``job.phase`` spans (the
        ``worker.phase`` idiom), so a traced serving window still
        reconciles phase totals; returns the raw records for callers that
        stream them.
        """
        try:
            records = read_trace(path)
        except (OSError, TraceError):
            return []
        if self.tracer:
            for rec in records:
                if rec.get("t") != "span":
                    continue
                phase = rec.get("fields", {}).get("phase")
                if phase in PHASE_KEYS:
                    self.tracer.record_span(
                        "job.phase", float(rec["dur"]), phase=phase
                    )
        return records

    async def _run_coalesced(self, key: str, job, trace_path: str | None,
                             *, consume_trace: bool = True):
        """Run ``job`` once per key; concurrent identical requests share it.

        With ``consume_trace`` (the JSON path) the job's trace file is
        spliced into the service trace and removed here; the streaming
        path passes ``False`` and does both itself after a final tail.
        """
        existing = self._inflight.get(key)
        if existing is not None:
            self._cache_event("coalesce", key=key)
            if trace_path is not None:  # ours would never be written
                _unlink_quiet(trace_path)
            return await asyncio.shield(existing), False
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        self._inflight[key] = future
        try:
            response = await self.queue.run(job)
            self._event("service.job.run", key=key)
            future.set_result(response)
            return response, True
        except BaseException as exc:
            if isinstance(exc, ServiceRequestError) and exc.status == 503:
                self._event("service.job.rejected", key=key)
            future.set_exception(exc)
            # A coalesced waiter may never await the future; don't warn.
            future.exception()
            raise
        finally:
            self._inflight.pop(key, None)
            if trace_path is not None and consume_trace:
                self._splice_job_trace(trace_path)
                _unlink_quiet(trace_path)

    # -- request handlers ----------------------------------------------

    def _prepare_partition(self, body: dict):
        """Parse a /partition body into (graph, options, job, key)."""
        graph = graph_from_request(body)
        options = parse_options(body.get("options"))
        nparts = typed_param(body, "nparts", int, 2)
        kway = typed_param(body, "kway_refine", bool, False)
        if nparts < 1:
            raise ServiceRequestError(f"nparts must be >= 1, got {nparts}")
        if nparts > graph.nvtxs:
            raise ServiceRequestError(
                f"cannot cut {graph.nvtxs} vertices into {nparts} parts"
            )
        payload = {
            "options": cache_key_payload(options),
            "nparts": nparts,
            "kway_refine": kway,
        }
        key = request_key("partition", graph, payload)

        def job(trace_path=None):
            opts = options
            if trace_path is not None:
                opts = opts.with_(trace=trace_path)
            if kway:
                result = partition_refined(graph, nparts, opts)
            else:
                result = kway_partition(graph, nparts, opts)
            return partition_response(graph, result, key=key)

        return options, job, key

    def _prepare_order(self, body: dict):
        """Parse an /order body into (graph, options, job, key)."""
        graph = graph_from_request(body)
        options = parse_options(body.get("options"))
        method = typed_param(body, "method", str, "mlnd")
        if method not in ORDER_METHODS:
            raise ServiceRequestError(
                f"unknown ordering method {method!r}; "
                f"expected one of {ORDER_METHODS}"
            )
        payload = {"options": cache_key_payload(options), "method": method}
        key = request_key("order", graph, payload)

        def job(trace_path=None):
            opts = options
            if trace_path is not None:
                opts = opts.with_(trace=trace_path)
            if method == "mmd":
                from repro.ordering import mmd_ordering

                ordering = mmd_ordering(graph)
            elif method == "snd":
                from repro.ordering import snd_ordering

                ordering = snd_ordering(graph, opts)
            else:
                from repro.ordering import mlnd_ordering

                ordering = mlnd_ordering(graph, opts)
            return ordering_response(ordering, key=key, method=method)

        return options, job, key

    def _memo_hit(self, digest: str):
        """The cached response of a memoised body, or ``None``.

        ``None`` also when the memo's key has left the cache (evicted,
        expired or cleared): that miss is left uncounted, because the
        decoded path the request falls through to counts it.
        """
        key = self.memo.get(digest)
        if key is None:
            return None
        cached = self.cache.get(key, count_miss=False)
        if cached is None:
            return None
        self._cache_event("hit", key=key, decoded=False)
        return {**cached, "cached": True}

    async def _serve_product(self, kind: str, body: dict, digest=None):
        """Shared /partition + /order flow: cache front, job behind.

        A request answered on the cacheable path memoises ``digest``, its
        raw body's memo key, against its cache key.
        """
        prepare = self._prepare_partition if kind == "partition" else self._prepare_order
        options, job, key = prepare(body)
        # Deadline runs depend on wall-clock: bypass the cache both ways.
        use_cache = options.deadline is None
        response = self.cache.get(key) if use_cache else None
        cached = response is not None
        if use_cache:
            self._cache_event("hit" if cached else "miss", key=key)
        if not cached:
            trace_path = self._job_trace_path() if self.tracer else None
            response, ran_here = await self._run_coalesced(
                key, lambda: job(trace_path), trace_path
            )
            if use_cache and ran_here:
                self.cache.put(key, response)
        if use_cache and digest is not None:
            self.memo.put(digest, key)
        return {**response, "cached": cached}

    async def _stream_product(self, prepared):
        """ndjson progress stream for /partition + /order requests.

        ``prepared`` is the ``(options, job, key)`` triple from the
        ``_prepare_*`` step — parsing happens *before* the 200 header goes
        out, so malformed requests still get a clean 400.
        """
        options, job, key = prepared
        use_cache = options.deadline is None
        if use_cache:
            cached = self.cache.get(key)
            if cached is not None:
                self._cache_event("hit", key=key)
                yield {"t": "accepted", "key": key, "cached": True}
                yield {"t": "result", "result": {**cached, "cached": True}}
                return
            self._cache_event("miss", key=key)
        yield {"t": "accepted", "key": key, "cached": False}
        # Streaming always needs the job trace, tracer or not.
        trace_path = self._job_trace_path()
        task = asyncio.ensure_future(
            self._run_coalesced(
                key, lambda: job(trace_path), trace_path, consume_trace=False
            )
        )
        offset = 0
        try:
            try:
                while not task.done():
                    await asyncio.wait({task}, timeout=0.05)
                    records, offset = _tail_jsonl(trace_path, offset)
                    for rec in records:
                        yield {"t": "progress", "record": rec}
                # The job tracer flushes on close: one final tail picks up
                # what the poll missed (for a fast job, the whole trace).
                records, offset = _tail_jsonl(trace_path, offset)
                for rec in records:
                    yield {"t": "progress", "record": rec}
            finally:
                self._splice_job_trace(trace_path)
                _unlink_quiet(trace_path)
            response, ran_here = task.result()
        except ServiceRequestError as exc:
            yield {"t": "error", "status": exc.status, "message": str(exc)}
            return
        except _BAD_REQUEST_ERRORS as exc:
            yield {"t": "error", "status": 400, "message": str(exc)}
            return
        except Exception as exc:  # repro: noqa[RP003] - the 200 header is
            # already on the wire; the only way to surface a crashed job
            # to a streaming client is an in-band error line.
            yield {"t": "error", "status": 500, "message": str(exc)}
            return
        if use_cache and ran_here:
            self.cache.put(key, response)
        yield {"t": "result", "result": {**response, "cached": False}}

    # -- routing -------------------------------------------------------

    async def dispatch(self, method: str, path: str, body: dict | None,
                       digest: str | None = None):
        """Route one request.

        Returns ``(status, payload, stream)`` where ``stream`` is an async
        generator of ndjson dicts for streaming responses (``payload`` is
        then ``None``).  ``digest`` is the body's memo key
        (:func:`_memo_digest`), or ``None`` to memoise nothing.
        """
        if path == "/healthz":
            if method != "GET":
                return 405, {"error": "use GET"}, None
            return 200, {"status": "ok", "uptime": time.monotonic() - self.started_at}, None
        if path == "/stats":
            if method != "GET":
                return 405, {"error": "use GET"}, None
            return 200, {
                "cache": self.cache.stats(),
                "memo": self.memo.stats(),
                "queue": self.queue.stats(),
                "inflight": len(self._inflight),
                "uptime": time.monotonic() - self.started_at,
            }, None
        if path == "/cache":
            if method != "DELETE":
                return 405, {"error": "use DELETE"}, None
            return 200, {
                "cleared": self.cache.clear(),
                "memo_cleared": self.memo.clear(),
            }, None
        if path in _PRODUCT_PATHS:
            if method != "POST":
                return 405, {"error": "use POST"}, None
            kind = path.lstrip("/")
            if body is None:
                return 400, {"error": "request body must be a JSON object"}, None
            try:
                if typed_param(body, "stream", bool, False):
                    prepare = (
                        self._prepare_partition
                        if kind == "partition"
                        else self._prepare_order
                    )
                    return 200, None, self._stream_product(prepare(body))
                payload = await self._serve_product(kind, body, digest)
            except ServiceRequestError as exc:
                return exc.status, {"error": str(exc)}, None
            except _BAD_REQUEST_ERRORS as exc:
                return 400, {"error": str(exc)}, None
            except ReproError as exc:
                return 500, {"error": str(exc)}, None
            return 200, payload, None
        return 404, {"error": f"unknown path {path!r}"}, None

    async def handle_request(self, method: str, path: str, raw_body: bytes):
        """Decode, dispatch and account one request.

        A product request whose exact body was answered on the cacheable
        path before is answered from the memo, without decoding it, while
        the response it maps to is still cached.
        """
        digest = None
        if method == "POST" and path in _PRODUCT_PATHS:
            digest = _memo_digest(path, raw_body)
            payload = self._memo_hit(digest)
            if payload is not None:
                self._event("service.request", path=path, status=200)
                return 200, payload, None
        body = None
        if raw_body:
            try:
                body = json.loads(raw_body)
            except (ValueError, RecursionError) as exc:
                # ValueError covers JSONDecodeError, non-UTF-8 bytes
                # (UnicodeDecodeError) and int literals past Python's
                # digit limit; RecursionError covers deep nesting.
                self._event("service.request", path=path, status=400)
                return 400, {"error": f"invalid JSON body: {exc}"}, None
            if not isinstance(body, dict):
                self._event("service.request", path=path, status=400)
                return 400, {"error": "request body must be a JSON object"}, None
        status, payload, stream = await self.dispatch(method, path, body, digest)
        self._event("service.request", path=path, status=status)
        return status, payload, stream


def _memo_digest(path: str, raw_body: bytes) -> str:
    """The memo key of a product request: SHA-256 over its path, what the
    result-cache key reads from outside the body
    (:func:`~repro.core.options.ambient_key_inputs`) and the raw body
    bytes, each length-prefixed so no two requests alias."""
    digest = hashlib.sha256()
    ambient = repr(sorted(ambient_key_inputs().items()))
    for part in (path.encode(), ambient.encode(), raw_body):
        digest.update(len(part).to_bytes(8, "little"))
        digest.update(part)
    return digest.hexdigest()


def _unlink_quiet(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


def _tail_jsonl(path: str, offset: int):
    """New complete JSONL records in ``path`` past ``offset``.

    Only consumes up to the last newline, so a partially-flushed record is
    picked up whole on the next call.  Returns ``(records, new_offset)``.
    """
    try:
        with open(path, "rb") as fh:
            fh.seek(offset)
            chunk = fh.read()
    except OSError:
        return [], offset
    if not chunk:
        return [], offset
    complete, _, _ = chunk.rpartition(b"\n")
    if not complete:
        return [], offset
    records = []
    for line in complete.split(b"\n"):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            continue
    return records, offset + len(complete) + 1


# ----------------------------------------------------------------------
# HTTP plumbing (asyncio streams)
# ----------------------------------------------------------------------

_IDLE_TIMEOUT = 60.0  #: seconds a keep-alive connection may sit silent


def _http_head(status: int, *, length: int | None, keep_alive: bool,
               content_type: str = "application/json") -> bytes:
    reason = _REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
    ]
    if length is not None:
        lines.append(f"Content-Length: {length}")
    lines.append(
        "Connection: keep-alive" if keep_alive else "Connection: close"
    )
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")


async def _read_line(reader) -> bytes:
    """One request or header line; an over-long line is a bad request."""
    try:
        return await asyncio.wait_for(reader.readline(), _IDLE_TIMEOUT)
    except ValueError:
        # StreamReader.readline raises ValueError past its buffer limit.
        raise ServiceRequestError("request or header line too long") from None


async def _read_request(reader, max_body: int):
    """Parse one HTTP/1.1 request; ``None`` on clean EOF.

    Returns ``(method, path, headers, body, too_large)``; ``too_large``
    signals the caller to answer 413 and close without reading the body.
    Malformed framing raises :class:`ServiceRequestError` (answered 400),
    and any ``Transfer-Encoding`` one with status 501 before the body is
    read: only ``Content-Length`` framing is served.
    """
    line = await _read_line(reader)
    if not line:
        return None
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3:
        raise ServiceRequestError(f"malformed request line {line!r}")
    method, target, _version = parts
    headers = {}
    lengths = set()
    while True:
        hline = await _read_line(reader)
        if hline in (b"\r\n", b"\n", b""):
            break
        name, sep, value = hline.decode("latin-1").partition(":")
        if sep:
            name, value = name.strip().lower(), value.strip()
            headers[name] = value
            if name == "content-length":
                if not (value.isascii() and value.isdigit()):
                    raise ServiceRequestError("malformed Content-Length")
                lengths.add(int(value))
    if "transfer-encoding" in headers:
        raise ServiceRequestError(
            "Transfer-Encoding is not supported; send Content-Length",
            status=501,
        )
    if len(lengths) > 1:
        raise ServiceRequestError("conflicting Content-Length headers")
    length = lengths.pop() if lengths else 0
    if length > max_body:
        return method, target, headers, b"", True
    body = (
        await asyncio.wait_for(reader.readexactly(length), _IDLE_TIMEOUT)
        if length
        else b""
    )
    path = target.split("?", 1)[0]
    return method, path, headers, body, False


async def _handle_connection(service: PartitionService, reader, writer):
    """Serve one client connection (keep-alive loop)."""
    try:
        while True:
            try:
                request = await _read_request(reader, service.max_body)
            except (asyncio.TimeoutError, TimeoutError,
                    asyncio.IncompleteReadError):
                return
            except ServiceRequestError as exc:
                payload = json.dumps({"error": str(exc)}).encode()
                writer.write(
                    _http_head(exc.status, length=len(payload),
                               keep_alive=False)
                    + payload
                )
                await writer.drain()
                return
            if request is None:
                return
            method, path, headers, raw_body, too_large = request
            if too_large:
                payload = json.dumps(
                    {"error": f"body exceeds {service.max_body} bytes"}
                ).encode()
                writer.write(
                    _http_head(413, length=len(payload), keep_alive=False)
                    + payload
                )
                await writer.drain()
                return
            keep_alive = headers.get("connection", "").lower() != "close"
            try:
                status, payload, stream = await service.handle_request(
                    method, path, raw_body
                )
            except Exception as exc:  # repro: noqa[RP003] - a crashed
                # handler must answer 500 and keep the server alive; the
                # failure is surfaced via the trace, not a dead socket.
                service._event("service.error", path=path, error=str(exc))
                body = json.dumps({"error": f"internal error: {exc}"}).encode()
                writer.write(
                    _http_head(500, length=len(body), keep_alive=False) + body
                )
                await writer.drain()
                return
            if stream is not None:
                writer.write(
                    _http_head(
                        status, length=None, keep_alive=False,
                        content_type="application/x-ndjson",
                    )
                )
                await writer.drain()
                async for record in stream:
                    writer.write(
                        json.dumps(record, separators=(",", ":")).encode()
                        + b"\n"
                    )
                    await writer.drain()
                return
            body = json.dumps(payload).encode()
            writer.write(
                _http_head(status, length=len(body), keep_alive=keep_alive)
                + body
            )
            await writer.drain()
            if not keep_alive:
                return
    except (ConnectionError, BrokenPipeError, OSError):
        return
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def serve_async(service: PartitionService, host: str = "127.0.0.1",
                      port: int = 8157, *, ready=None, stop=None):
    """Run the server until ``stop`` (an :class:`asyncio.Event`) is set.

    ``ready`` (a callable) receives the bound ``(host, port)`` once the
    socket is listening — how embedders and tests learn an ephemeral port.
    """
    connections: set[asyncio.Task] = set()

    async def handler(reader, writer):
        task = asyncio.current_task()
        connections.add(task)
        try:
            await _handle_connection(service, reader, writer)
        finally:
            connections.discard(task)

    server = await asyncio.start_server(handler, host, port)
    bound = server.sockets[0].getsockname()[:2]
    if ready is not None:
        ready(bound)
    if stop is None:
        stop = asyncio.Event()
    async with server:
        await stop.wait()
    # Idle keep-alive connections would otherwise outlive the loop and
    # close their transports after loop.close() (an unraisable error).
    for task in list(connections):
        task.cancel()
    if connections:
        await asyncio.gather(*connections, return_exceptions=True)


def serve(host: str = "127.0.0.1", port: int = 8157, **config) -> None:
    """Blocking entry point: build a :class:`PartitionService` and serve.

    ``config`` forwards to :class:`PartitionService`.  Returns after
    SIGINT or SIGTERM, once the job pool is drained and the trace closed.
    The handlers replace an inherited SIG_IGN, which a job started with
    ``&`` by a non-interactive shell has for SIGINT.
    """
    service = PartitionService(**config)

    async def main():
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, stop.set)
        await serve_async(service, host, port, stop=stop)

    try:
        asyncio.run(main())
    finally:
        service.close()


class BackgroundServer:
    """A service running on its own thread + event loop.

    The test suite's (and embedders') handle: ``start()`` returns the
    bound ``(host, port)``; ``stop()`` shuts the loop down, drains the job
    pool and closes the tracer so counters land in the trace file.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, **config):
        self.service = PartitionService(**config)
        self._host = host
        self._port = port
        self.address: tuple[str, int] | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._ready = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="repro-service-loop", daemon=True
        )

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        self._stop = asyncio.Event()

        def ready(addr):
            self.address = (addr[0], addr[1])
            self._ready.set()

        try:
            loop.run_until_complete(
                serve_async(
                    self.service, self._host, self._port,
                    ready=ready, stop=self._stop,
                )
            )
        finally:
            loop.close()

    def start(self) -> tuple[str, int]:
        """Start serving; block until the socket listens; return address."""
        self._thread.start()
        if not self._ready.wait(timeout=10.0):
            raise ServiceRequestError("service failed to start", status=503)
        assert self.address is not None
        return self.address

    def stop(self) -> None:
        """Stop the loop, join the thread, release pool and tracer."""
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=10.0)
        self.service.close()

    def __enter__(self) -> "BackgroundServer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
