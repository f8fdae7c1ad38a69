"""A stdlib-asyncio HTTP front end for :class:`~repro.serve.service.SNDService`.

``repro-snd serve`` binds this server over one experiment store.  It is a
deliberately small HTTP/1.1 implementation (no third-party web framework —
the repo's no-new-dependencies rule) with the shape the workload needs:

* **Blocking work off the event loop** — every service call runs in a
  thread pool via ``run_in_executor``, sized above the default so a burst
  of duplicate requests genuinely runs concurrently and the engine's
  :class:`~repro.snd.scheduler.PairScheduler` gets to coalesce it into
  one solve (serving the burst from one thread would hide the scheduler).
* **Streaming watch** — ``POST /v1/watch`` answers with a chunked NDJSON
  response, one line per :class:`~repro.snd.engine.StreamUpdate`, so
  anomaly scores flow to the client as transitions are solved.
* **Backpressure as 503 / 429** — a saturated scheduler queue
  (:class:`~repro.exceptions.SchedulerSaturatedError`) maps to HTTP 503;
  a client over its per-identity fairness quota
  (:class:`~repro.exceptions.ClientSaturatedError`) maps to HTTP 429, so
  well-behaved clients can tell "the server is full" from "I am being
  rationed".  Validation failures map to 400, unknown names/routes to 404,
  and any other exception to 500.
* **Bounded framing** — an oversized body gets a 413 before it is read,
  an overlong line or too many headers a 431, a request that stops
  arriving a 408, and the connection closes (``MAX_BODY_BYTES``,
  ``MAX_LINE_BYTES``, ``MAX_HEADERS``, ``READ_TIMEOUT_S``); an idle
  keep-alive connection is closed after ``IDLE_TIMEOUT_S``.
* **Observability** — ``GET /v1/metrics`` serves Prometheus text
  exposition (see :mod:`repro.serve.metrics`): live per-route request
  counters and latency histograms plus a snapshot translation of the
  service stats tree (scheduler, caches, solver metric families,
  persistence counters).

API versioning (v1)
-------------------
All routes are mounted under ``/v1/``; any other path, the old
unversioned spellings included, gets the 404 ``not_found`` envelope.
Every 4xx/5xx response body is one JSON envelope::

    {"error": {"code": "<machine-readable>", "message": "<human>", "detail": {...}}}

Client identity: requests may carry ``X-Client`` (an opaque identity
string, case preserved) and ``X-Priority`` (``low`` / ``normal`` /
``high``); the distance endpoint threads them into the scheduler's
per-client accounting and fairness quotas.

Routes
------
``GET  /v1/healthz``          liveness probe
``GET  /v1/stats``            cache + scheduler + pool counters, per shard
``GET  /v1/metrics``          Prometheus text exposition format
``GET  /v1/corpora``          corpora stored for serving
``POST /v1/distance``         ``{"name", "i", "j"}`` → one coalescable pair
``POST /v1/series``           ``{"name", "measure"?, "window"?}``
``POST /v1/matrix``           ``{"name", "measure"?}``
``POST /v1/corpus/query``     ``{"name", "corpus", "state", "k"?}``
``POST /v1/watch``            ``{"name", "window"?, "threshold"?}`` (NDJSON)
"""

from __future__ import annotations

import asyncio
import itertools
import json
import logging
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, is_dataclass

import numpy as np

from repro.exceptions import (
    ClientSaturatedError,
    ReproError,
    SchedulerSaturatedError,
    ValidationError,
)
from repro.serve.metrics import CONTENT_TYPE as METRICS_CONTENT_TYPE
from repro.serve.metrics import ServeMetrics
from repro.serve.service import SNDService

__all__ = ["HttpServer", "BackgroundServer", "serve_forever"]

_LOG = logging.getLogger(__name__)

#: Executor width: wide enough that duplicate-pair bursts overlap in time
#: (the whole point of scheduler coalescing), bounded so a misbehaving
#: client cannot fork unbounded threads.
DEFAULT_EXECUTOR_WORKERS = 16

#: The one supported API version prefix.
API_PREFIX = "/v1"

#: Framing caps. A request line or header line longer than
#: ``MAX_LINE_BYTES``, or more than ``MAX_HEADERS`` header lines, gets a
#: 431; a ``Content-Length`` above ``MAX_BODY_BYTES`` gets a 413 before
#: any of the body is read. Every request body carries only names and
#: indices, so these sit far above what a well-formed request needs.
MAX_LINE_BYTES = 64 * 1024
MAX_HEADERS = 100
MAX_BODY_BYTES = 1024 * 1024
#: Timeouts, in seconds. A request whose line, headers and body have not
#: all arrived ``READ_TIMEOUT_S`` after its first byte gets a 408, and a
#: connection that starts no request for ``IDLE_TIMEOUT_S`` is closed; in
#: both cases the connection closes, so a stalled or idle client cannot
#: hold a connection handler.
READ_TIMEOUT_S = 30.0
IDLE_TIMEOUT_S = 60.0

_WATCH_END = object()


def _json_safe(value):
    """Recursively convert numpy scalars/arrays and dataclasses so the
    payload survives ``json.dumps``."""
    if is_dataclass(value) and not isinstance(value, type):
        return _json_safe(asdict(value))
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, np.ndarray):
        return _json_safe(value.tolist())
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def _update_payload(update) -> dict:
    """One ``watch`` NDJSON line for a :class:`StreamUpdate` (states are
    elided — clients already have the series; scores are the payload)."""
    scored = update.scored
    return _json_safe(
        {
            "index": update.index,
            "distance": update.distance,
            "window_distances": update.window_distances,
            "scored": None
            if scored is None
            else {
                "index": scored.index,
                "distance": scored.distance,
                "normalized": scored.normalized,
                "score": scored.score,
                "threshold": scored.threshold,
                "flagged": scored.flagged,
            },
        }
    )


#: status → default machine-readable error code of the v1 envelope.
_ERROR_CODES = {
    400: "bad_request",
    404: "not_found",
    405: "method_not_allowed",
    408: "request_timeout",
    413: "content_too_large",
    429: "client_quota_exceeded",
    431: "header_fields_too_large",
    500: "internal",
    503: "saturated",
}


def _error_envelope(status: int, message: str, *, code: str | None = None,
                    detail=None) -> dict:
    """The uniform v1 error body: ``{"error": {code, message, detail}}``."""
    return {
        "error": {
            "code": code or _ERROR_CODES.get(status, "error"),
            "message": message,
            "detail": detail,
        }
    }


class _HttpError(Exception):
    def __init__(self, status: int, message: str, *, code: str | None = None,
                 detail=None) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.code = code
        self.detail = detail


_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Content Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class HttpServer:
    """The asyncio server; one instance per :class:`SNDService`."""

    def __init__(
        self,
        service: SNDService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        executor_workers: int = DEFAULT_EXECUTOR_WORKERS,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.metrics = ServeMetrics()
        self._executor = ThreadPoolExecutor(
            max_workers=executor_workers, thread_name_prefix="snd-serve"
        )
        self._server: asyncio.AbstractServer | None = None
        self._flush_task: asyncio.Task | None = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=MAX_LINE_BYTES
        )
        self.port = self._server.sockets[0].getsockname()[1]
        config = getattr(self.service, "config", None)
        if config is not None and config.persist_transitions:
            self._flush_task = asyncio.get_running_loop().create_task(
                self._flush_loop(config.flush_interval)
            )

    async def stop(self) -> None:
        if self._flush_task is not None:
            self._flush_task.cancel()
            try:
                await self._flush_task
            except asyncio.CancelledError:
                pass
            self._flush_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._executor.shutdown(wait=False, cancel_futures=True)
        # service.close() flushes transition caches before engines go down.
        self.service.close()

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    async def _flush_loop(self, interval: float) -> None:
        """Periodically spill transition caches to the store so a crash
        loses at most *interval* seconds of solves (``close()`` flushes
        the remainder on clean shutdown). A failed flush is logged and
        never takes down the serving loop; the next tick writes its rows
        again."""
        while True:
            await asyncio.sleep(interval)
            try:
                await self._run(self.service.flush)
            except Exception:
                _LOG.exception("transition flush failed; retrying in %.3g s", interval)

    def _run(self, fn, *args, **kwargs):
        """Run one blocking service call on the executor."""
        loop = asyncio.get_running_loop()
        return loop.run_in_executor(self._executor, lambda: fn(*args, **kwargs))

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #

    async def _handle_connection(self, reader, writer) -> None:
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                method, path, headers, body = request
                # An _HttpError in place of the body marks a framing error
                # (an unreadable or oversized Content-Length, an overlong
                # line, too many headers): the request is answered, then
                # the connection closes (its framing is lost).
                framing = body if isinstance(body, _HttpError) else None
                keep_alive = framing is None and (
                    headers.get("connection", "keep-alive").lower() != "close"
                )
                route = self._route(path)
                status = 200
                started = time.perf_counter()
                try:
                    if framing is not None:
                        raise framing
                    if route is None:
                        raise _HttpError(404, f"no such route: {method} {path}")
                    force_close = await self._dispatch(
                        method, route, headers, body, writer, keep_alive
                    )
                    if force_close:
                        keep_alive = False
                except _HttpError as exc:
                    status = exc.status
                    self._write_json(
                        writer,
                        exc.status,
                        _error_envelope(
                            exc.status, exc.message, code=exc.code,
                            detail=exc.detail,
                        ),
                        keep_alive,
                    )
                except ClientSaturatedError as exc:
                    status = 429
                    self._write_json(
                        writer, 429, _error_envelope(429, str(exc)), keep_alive
                    )
                except SchedulerSaturatedError as exc:
                    status = 503
                    self._write_json(
                        writer, 503, _error_envelope(503, str(exc)), keep_alive
                    )
                except (ValidationError, json.JSONDecodeError) as exc:
                    status = 400
                    self._write_json(
                        writer, 400, _error_envelope(400, str(exc)), keep_alive
                    )
                except ReproError as exc:
                    # Lookup misses: unknown graph/corpus names (StoreError)
                    # and node ids (NodeError).
                    status = 404
                    self._write_json(
                        writer, 404, _error_envelope(404, str(exc)), keep_alive
                    )
                except Exception as exc:
                    # Anything else is a bug: answer 500, keep serving, and
                    # leave the traceback in the server's log.
                    _LOG.exception("internal error on %s %s", method, path)
                    status = 500
                    self._write_json(
                        writer, 500, _error_envelope(500, str(exc)), keep_alive
                    )
                self.metrics.observe_request(
                    "other" if route is None else route,
                    status,
                    time.perf_counter() - started,
                )
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass  # client went away mid-request
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except Exception:  # pragma: no cover - teardown race
                pass

    @staticmethod
    def _route(path: str) -> str | None:
        """The route of a ``/v1/...`` path with the version prefix
        stripped, or ``None`` for any other path."""
        if path == API_PREFIX or path.startswith(API_PREFIX + "/"):
            return path[len(API_PREFIX):] or "/"
        return None

    async def _read_request(self, reader):
        """``(method, path, headers, body)`` of the next request, ``None``
        at the end of the connection (closed, reset, or idle for
        ``IDLE_TIMEOUT_S``). A framing error, or a request not whole
        ``READ_TIMEOUT_S`` after its first byte, comes back as an
        :class:`_HttpError` in place of the body."""
        try:
            async with asyncio.timeout(IDLE_TIMEOUT_S):
                first = await reader.readexactly(1)
        except (asyncio.IncompleteReadError, ConnectionResetError, TimeoutError):
            return None
        method = path = ""
        headers: dict[str, str] = {}
        try:
            async with asyncio.timeout(READ_TIMEOUT_S):
                try:
                    request_line = first + await reader.readline()
                except ConnectionResetError:
                    return None
                except ValueError:  # the line outran MAX_LINE_BYTES
                    return "", "", {}, _HttpError(
                        431, f"request line longer than {MAX_LINE_BYTES} bytes"
                    )
                parts = request_line.decode("latin-1").strip().split()
                if len(parts) != 3:
                    return None
                method, path, _version = parts
                for n_lines in itertools.count():
                    try:
                        line = await reader.readline()
                    except ValueError:
                        return method, path, headers, _HttpError(
                            431, f"header line longer than {MAX_LINE_BYTES} bytes"
                        )
                    if line in (b"\r\n", b"\n", b""):
                        break
                    if n_lines == MAX_HEADERS:
                        return method, path, headers, _HttpError(
                            431, f"more than {MAX_HEADERS} header lines"
                        )
                    name, _, value = line.decode("latin-1").partition(":")
                    # Header *names* are case-insensitive; values keep their
                    # case (X-Client carries an opaque identity string).
                    headers[name.strip().lower()] = value.strip()
                length = headers.get("content-length") or "0"
                if not (length.isascii() and length.isdigit()):
                    return method, path, headers, _HttpError(
                        400, f"invalid Content-Length {length!r}"
                    )
                if int(length) > MAX_BODY_BYTES:
                    return method, path, headers, _HttpError(
                        413, f"Content-Length {length} exceeds {MAX_BODY_BYTES} bytes"
                    )
                return method, path, headers, await reader.readexactly(int(length))
        except TimeoutError:
            return method, path, headers, _HttpError(
                408, f"request not received within {READ_TIMEOUT_S:g} s"
            )

    async def _dispatch(self, method, path, headers, body, writer, keep_alive) -> bool:
        """Handle one request; returns True when the response format
        forces the connection closed (chunked watch streams)."""
        if method == "GET":
            if path == "/healthz":
                self._write_json(writer, 200, {"ok": True}, keep_alive)
                return False
            if path == "/stats":
                payload = await self._run(self.service.stats)
                self._write_json(writer, 200, _json_safe(payload), keep_alive)
                return False
            if path == "/metrics":
                stats = await self._run(self.service.stats)
                text = self.metrics.render(stats)
                self._write_text(writer, 200, text, METRICS_CONTENT_TYPE, keep_alive)
                return False
            if path == "/corpora":
                rows = await self._run(self.service.list_corpora)
                payload = [
                    {"graph": g, "corpus": c, "n_states": n} for g, c, n in rows
                ]
                self._write_json(writer, 200, _json_safe(payload), keep_alive)
                return False
            raise _HttpError(404, f"no such route: GET {path}")
        if method != "POST":
            raise _HttpError(405, f"unsupported method {method}")
        params = json.loads(body.decode("utf-8") or "{}")
        if not isinstance(params, dict):
            raise _HttpError(400, "request body must be a JSON object")
        if path == "/distance":
            # A header wins over the body field; the field is checked either way.
            client = self._optional_field(params, "client", str, "a JSON string")
            client = headers.get("x-client") or client
            priority = self._optional_field(params, "priority", str, "a JSON string")
            priority = headers.get("x-priority") or priority
            value = await self._run(
                self.service.distance_pair,
                self._require(params, "name"),
                self._int_field(params, "i"),
                self._int_field(params, "j"),
                client=client,
                priority=priority,
            )
            self._write_json(writer, 200, {"distance": float(value)}, keep_alive)
            return False
        if path == "/series":
            values = await self._run(
                self.service.series_distances,
                self._require(params, "name"),
                measure=params.get("measure", "snd"),
                window=self._optional_field(params, "window", int, "a JSON integer"),
            )
            self._write_json(
                writer, 200, {"distances": _json_safe(values)}, keep_alive
            )
            return False
        if path == "/matrix":
            matrix = await self._run(
                self.service.matrix,
                self._require(params, "name"),
                measure=params.get("measure", "snd"),
            )
            self._write_json(writer, 200, {"matrix": _json_safe(matrix)}, keep_alive)
            return False
        if path == "/corpus/query":
            neighbours = await self._run(
                self.service.corpus_query,
                self._require(params, "name"),
                self._require(params, "corpus"),
                self._int_field(params, "state"),
                k=self._int_field(params, "k", default=3),
            )
            payload = [
                {"index": idx, "distance": dist} for idx, dist in neighbours
            ]
            self._write_json(
                writer, 200, {"neighbours": _json_safe(payload)}, keep_alive
            )
            return False
        if path == "/watch":
            await self._stream_watch(params, writer)
            return True  # chunked responses always close
        raise _HttpError(404, f"no such route: POST {path}")

    @staticmethod
    def _require(params: dict, key: str):
        try:
            return params[key]
        except KeyError:
            raise _HttpError(
                400, f"missing required field {key!r}",
                detail={"field": key},
            ) from None

    @staticmethod
    def _typed(key: str, value, kinds, what: str):
        """*value* if it is one of *kinds* (never a bool: a bool, a float
        or a numeric string is refused, not cast), else the 400 envelope."""
        if isinstance(value, bool) or not isinstance(value, kinds):
            raise _HttpError(
                400, f"field {key!r} must be {what}, got {json.dumps(value)}",
                detail={"field": key},
            )
        return value

    @classmethod
    def _int_field(cls, params: dict, key: str, default: int | None = None) -> int:
        """*key* as a JSON integer."""
        value = cls._require(params, key) if default is None else params.get(key, default)
        return cls._typed(key, value, int, "a JSON integer")

    @classmethod
    def _optional_field(cls, params: dict, key: str, kinds, what: str, default=None):
        """*key* (*default* when absent) as one of *kinds*, or ``None``
        for a JSON null."""
        value = params.get(key, default)
        return None if value is None else cls._typed(key, value, kinds, f"{what} or null")

    # ------------------------------------------------------------------ #
    # Watch streaming
    # ------------------------------------------------------------------ #

    async def _stream_watch(self, params: dict, writer) -> None:
        name = self._require(params, "name")
        window = self._optional_field(params, "window", int, "a JSON integer", 10)
        threshold = self._optional_field(
            params, "threshold", (int, float), "a JSON number"
        )
        updates = await self._run(
            self.service.watch, name, window=window, threshold=threshold
        )

        def _next():
            # Each next() may solve one SND pair — keep it off the loop.
            return next(updates, _WATCH_END)

        # The stream checks its arguments on the first update: take it
        # before the head, so a refusal still gets its own status.
        update = await self._run(_next)
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: application/x-ndjson\r\n"
            "Transfer-Encoding: chunked\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("ascii"))
        while update is not _WATCH_END:
            line = json.dumps(_update_payload(update)) + "\n"
            data = line.encode("utf-8")
            writer.write(f"{len(data):x}\r\n".encode("ascii") + data + b"\r\n")
            await writer.drain()
            update = await self._run(_next)
        writer.write(b"0\r\n\r\n")
        await writer.drain()

    # ------------------------------------------------------------------ #
    # Response writing
    # ------------------------------------------------------------------ #

    @staticmethod
    def _write_payload(
        writer, status: int, body: bytes, content_type: str, keep_alive: bool
    ) -> None:
        connection = "keep-alive" if keep_alive else "close"
        head = (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'OK')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {connection}\r\n\r\n"
        )
        writer.write(head.encode("ascii") + body)

    @classmethod
    def _write_json(cls, writer, status: int, payload, keep_alive: bool) -> None:
        cls._write_payload(
            writer, status, json.dumps(payload).encode("utf-8"),
            "application/json", keep_alive,
        )

    @classmethod
    def _write_text(
        cls, writer, status: int, text: str, content_type: str, keep_alive: bool
    ) -> None:
        cls._write_payload(
            writer, status, text.encode("utf-8"), content_type, keep_alive
        )


class BackgroundServer:
    """Run an :class:`HttpServer` on a daemon thread — the harness used by
    tests and :mod:`benchmarks.bench_serve` (and handy interactively)::

        with BackgroundServer(SNDService(store)) as server:
            requests.post(f"http://127.0.0.1:{server.port}/v1/distance", ...)
    """

    def __init__(self, service: SNDService, *, host: str = "127.0.0.1", port: int = 0):
        self.server = HttpServer(service, host=host, port=port)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def host(self) -> str:
        return self.server.host

    def start(self) -> "BackgroundServer":
        self._loop = asyncio.new_event_loop()

        def run() -> None:
            asyncio.set_event_loop(self._loop)
            self._loop.run_until_complete(self.server.start())
            self._started.set()
            self._loop.run_forever()
            # Drain the server teardown once run_forever is stopped: give
            # connection handlers a moment to see EOF and finish, then
            # cancel stragglers (silencing the loop's exception handler —
            # cancellation during writer.wait_closed() otherwise logs).
            self._loop.run_until_complete(self.server.stop())
            pending = [t for t in asyncio.all_tasks(self._loop) if not t.done()]
            if pending:
                self._loop.set_exception_handler(lambda loop, context: None)

                async def _drain() -> None:
                    _done, rest = await asyncio.wait(pending, timeout=1.0)
                    for task in rest:
                        task.cancel()
                    if rest:
                        await asyncio.gather(*rest, return_exceptions=True)

                self._loop.run_until_complete(_drain())
            self._loop.close()

        self._thread = threading.Thread(
            target=run, name="snd-serve-loop", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=30):
            raise RuntimeError("server failed to start within 30s")
        return self

    def stop(self) -> None:
        if self._loop is not None and self._thread is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=30)
            self._loop = None
            self._thread = None

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


async def _serve_async(server: HttpServer, announce: bool, state: dict) -> None:
    await server.start()
    if announce:
        config = server.service.config
        print(f"repro-snd serve: listening on http://{server.host}:{server.port}")
        print(
            f"# store={server.service.store_path} jobs={config.jobs} "
            f"max_pending={config.engine_kwargs()['max_pending']}",
            flush=True,
        )
    # Process managers stop services with SIGTERM, whose default action
    # would kill the process without flushing the transition cache.
    # Route it through the same cancellation path as SIGINT so both
    # signals get the graceful stop (flush + close).
    loop = asyncio.get_running_loop()
    task = asyncio.current_task()
    try:
        loop.add_signal_handler(signal.SIGTERM, task.cancel)
        sigterm_wired = True
    except (NotImplementedError, RuntimeError):  # pragma: no cover - platform
        sigterm_wired = False
    try:
        await server.serve_forever()
    except asyncio.CancelledError:
        # SIGINT: asyncio.Runner cancels the main task.  Swallowing the
        # cancellation lets asyncio.run() return normally, so announce
        # the shutdown here (and remember, to avoid a double message on
        # interpreters that still convert this to KeyboardInterrupt).
        if announce:
            print("repro-snd serve: shutting down", flush=True)
        state["announced_shutdown"] = True
    finally:
        if sigterm_wired:
            loop.remove_signal_handler(signal.SIGTERM)
        await server.stop()


def serve_forever(
    service: SNDService,
    *,
    host: str = "127.0.0.1",
    port: int = 8765,
    announce: bool = True,
) -> int:
    """Blocking entry point behind ``repro-snd serve``."""
    server = HttpServer(service, host=host, port=port)
    state = {"announced_shutdown": False}
    try:
        asyncio.run(_serve_async(server, announce, state))
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        if announce and not state["announced_shutdown"]:
            print("repro-snd serve: shutting down")
    return 0
