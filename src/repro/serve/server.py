"""`repro serve`: the asyncio HTTP/JSON synthesis service.

Stdlib-only (``asyncio.start_server`` + hand-rolled HTTP/1.1: the
container has no aiohttp, and four endpoints do not need one).  The
server composes the durable pieces:

- :class:`~repro.serve.store.JobStore` — every lifecycle transition
  committed before it is acknowledged, so ``kill -9`` + restart
  resumes the queue exactly;
- :class:`~repro.serve.runner.JobRunner` — pool execution with
  timeouts and broken-pool rebuild;
- :class:`~repro.resilience.pool.RetryPolicy` — jittered, seeded
  backoff between retry attempts of transiently-failed jobs;
- admission control — bounded queue depth and per-client concurrency
  caps answered with ``429`` + ``Retry-After`` (dedup'd submissions
  bypass the depth check: they cost a row, not an execution);
- graceful drain — ``SIGTERM``/``SIGINT`` stop admissions (``503``),
  let running jobs finish inside a grace window, and leave the
  ``SUBMITTED`` queue durable for the next boot.

Endpoints (all JSON)::

    POST /jobs            {"kind", "params", "client"} -> 200/202/400/429/503
    GET  /jobs            every job (compact)
    GET  /jobs/<id>       one job, result included
    GET  /stats           store counters + runner + server counters
    GET  /healthz         {"status": "ok"|"draining"}
    POST /drain           begin a graceful drain (also wired to signals)

Every request runs inside an observability span named after its route
template (``serve/GET /jobs/{id}``; anything unrouted is
``serve/unmatched``), so ``repro.obs`` tooling sees serving work the
same way it sees synthesis passes — with a fixed set of section names,
however many job IDs and junk paths clients send.  The span registry
bounds itself (:data:`repro.obs.spans.SPAN_HISTORY`), so neither the
server nor its pool workers trim anything.
"""

from __future__ import annotations

import asyncio
import json
from typing import Dict, Optional, Tuple

from repro.errors import JobError
from repro.obs.spans import span
from repro.resilience.pool import RetryPolicy
from repro.serve import jobs as jobmodel
from repro.serve.jobs import (
    DONE,
    SUBMITTED,
    Job,
    canonical_params,
    classify_failure,
    job_key,
)
from repro.serve.runner import JobRunner
from repro.serve.store import JobStore

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: largest request body the server will read
MAX_BODY = 1 << 20

#: (method, route template) pairs :meth:`JobServer._route` answers
_ROUTES = {
    ("GET", "/healthz"),
    ("GET", "/stats"),
    ("GET", "/jobs"),
    ("POST", "/jobs"),
    ("GET", "/jobs/{id}"),
    ("POST", "/drain"),
}


def request_path(target: str) -> str:
    """The request target without query string or trailing slash."""
    return target.split("?", 1)[0].rstrip("/") or "/"


def route_span_name(method: str, path: str) -> str:
    """The span name of a request: its route template, never the raw
    path, so client-chosen IDs cannot mint new section keys."""
    template = "/jobs/{id}" if path.startswith("/jobs/") else path
    if (method, template) in _ROUTES:
        return f"serve/{method} {template}"
    return "serve/unmatched"


class ServerConfig:
    """Knobs for one :class:`JobServer` (plain data, CLI-mappable)."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        executor: str = "thread",
        queue_depth: int = 64,
        client_cap: int = 8,
        job_timeout: Optional[float] = None,
        policy: Optional[RetryPolicy] = None,
        drain_grace: float = 30.0,
        chaos=None,
    ):
        self.host = host
        self.port = port
        self.workers = workers
        self.executor = executor
        self.queue_depth = queue_depth
        self.client_cap = client_cap
        self.job_timeout = job_timeout
        self.policy = policy or RetryPolicy()
        self.drain_grace = drain_grace
        #: optional :class:`repro.serve.chaos.ServeFaultPlan`
        self.chaos = chaos


class JobServer:
    """One serving instance over one store path."""

    def __init__(self, store_path, config: Optional[ServerConfig] = None):
        self.config = config or ServerConfig()
        self.store_path = store_path
        self.store: Optional[JobStore] = None
        self.runner: Optional[JobRunner] = None
        self.draining = False
        self.port: Optional[int] = None
        self.recovered_jobs = 0
        self.request_count = 0
        self.shed_count = 0
        self.dropped_connections = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._inflight: Dict[str, asyncio.Task] = {}
        self._closing = False
        self._wake = asyncio.Event()
        self._stopped = asyncio.Event()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        self.store = JobStore(self.store_path)
        self.recovered_jobs = self.store.recover()
        self.runner = JobRunner(
            workers=self.config.workers, executor=self.config.executor
        )
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._dispatcher = asyncio.create_task(self._dispatch_loop())

    async def stop(self, drain: bool = True) -> None:
        """Stop serving; with ``drain``, let running jobs finish first."""
        self.draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if drain and self._inflight:
            pending = [task for task in self._inflight.values() if not task.done()]
            if pending:
                await asyncio.wait(
                    pending, timeout=self.config.drain_grace
                )
        if self._dispatcher is not None:
            # flag + wake, not bare cancel(): under 3.11's wait_for a
            # cancellation arriving during timeout handling can be
            # swallowed as TimeoutError, losing the one-shot cancel and
            # wedging the await below forever
            self._closing = True
            self._wake.set()
            try:
                await asyncio.wait_for(self._dispatcher, timeout=5.0)
            except (asyncio.TimeoutError, asyncio.CancelledError):
                self._dispatcher.cancel()
        for task in self._inflight.values():
            task.cancel()
        if self.runner is not None:
            self.runner.shutdown(wait=drain)
        if self.store is not None:
            self.store.close()
        self._stopped.set()

    def begin_drain(self) -> None:
        """Signal-handler entry: stop admitting, schedule the stop."""
        if self.draining:
            return
        self.draining = True
        asyncio.get_event_loop().create_task(self.stop(drain=True))

    async def wait_stopped(self) -> None:
        await self._stopped.wait()

    # ------------------------------------------------------------------
    # dispatcher
    # ------------------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        while not self._closing:
            try:
                await asyncio.wait_for(self._wake.wait(), timeout=0.05)
            except asyncio.TimeoutError:
                pass
            self._wake.clear()
            if self._closing:
                return
            if self.draining:
                continue  # running jobs finish; the queue stays durable
            self._reap_inflight()
            while len(self._inflight) < self.config.workers:
                job = self.store.next_pending(exclude=tuple(self._inflight))
                if job is None:
                    break
                if not self.store.claim(job.job_id):
                    continue
                self._inflight[job.job_id] = asyncio.create_task(
                    self._run_job(job)
                )

    def _reap_inflight(self) -> None:
        for job_id in [jid for jid, task in self._inflight.items() if task.done()]:
            del self._inflight[job_id]

    async def _run_job(self, job: Job) -> None:
        try:
            with span(f"serve/job {job.kind}", job_id=job.job_id, attempt=job.attempts):
                result = await self.runner.execute(
                    job.kind, job.params, timeout=self.config.job_timeout
                )
        except asyncio.CancelledError:
            raise
        except BaseException as exc:  # noqa: BLE001 — classified below
            state, exit_class, retryable = classify_failure(exc)
            attempt = self.store.get(job.job_id).attempts
            if retryable and attempt <= self.config.policy.max_retries:
                delay = self.config.policy.delay(attempt - 1)
                await asyncio.sleep(delay)
                self.store.release_for_retry(job.job_id, error=str(exc))
            else:
                self.store.fail(job.job_id, str(exc), exit_class, state=state)
        else:
            self.store.finish(job.job_id, result)
        finally:
            self._wake.set()

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            status, payload = await self._handle_request(reader, writer)
            if status is None:  # chaos drop: close without answering
                return
            body = json.dumps(payload, sort_keys=True).encode("utf-8")
            reason = _REASONS.get(status, "?")
            head = (
                f"HTTP/1.1 {status} {reason}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
            )
            if status in (429, 503):
                head += "Retry-After: 1\r\n"
            head += "Connection: close\r\n\r\n"
            writer.write(head.encode("utf-8") + body)
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _handle_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> Tuple[Optional[int], Optional[dict]]:
        try:
            request_line = await reader.readline()
            method, target, _version = request_line.decode("latin-1").split(" ", 2)
        except (ValueError, UnicodeDecodeError):
            return 400, {"error": "malformed request line"}
        content_length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    return 400, {"error": "bad content-length"}
        if content_length > MAX_BODY:
            return 413, {"error": "request body too large"}
        body = await reader.readexactly(content_length) if content_length else b""

        self.request_count += 1
        chaos = self.config.chaos
        if chaos is not None:
            action = chaos.request_action(self.request_count)
            if action is not None:
                kind, amount = action
                if kind == "delay":
                    await asyncio.sleep(amount)
                elif kind == "drop":
                    self.dropped_connections += 1
                    return None, None

        path = request_path(target)
        with span(route_span_name(method, path)):
            return self._route(method, path, body)

    def _route(self, method: str, path: str, body: bytes) -> Tuple[int, dict]:
        if path == "/healthz" and method == "GET":
            return 200, {
                "status": "draining" if self.draining else "ok",
                "recovered_jobs": self.recovered_jobs,
            }
        if path == "/stats" and method == "GET":
            return 200, self.stats()
        if path == "/jobs" and method == "GET":
            return 200, {
                "jobs": [job.to_dict(include_result=False) for job in self.store.jobs()]
            }
        if path == "/jobs" and method == "POST":
            return self._submit(body)
        if path.startswith("/jobs/") and method == "GET":
            job = self.store.get(path[len("/jobs/"):])
            if job is None:
                return 404, {"error": "no such job"}
            return 200, {"job": job.to_dict()}
        if path == "/drain" and method == "POST":
            self.begin_drain()
            return 200, {"status": "draining"}
        if path in ("/healthz", "/stats", "/jobs", "/drain"):
            return 405, {"error": f"{method} not allowed on {path}"}
        return 404, {"error": f"no route for {path}"}

    def _submit(self, body: bytes) -> Tuple[int, dict]:
        if self.draining:
            return 503, {"error": "server is draining; resubmit elsewhere"}
        try:
            request = json.loads(body.decode("utf-8") or "{}")
            if not isinstance(request, dict):
                raise ValueError("body must be a JSON object")
        except (ValueError, UnicodeDecodeError) as exc:
            return 400, {"error": f"bad request body: {exc}"}
        kind = request.get("kind", "")
        client = str(request.get("client", ""))
        try:
            canon = canonical_params(kind, request.get("params"))
            key = job_key(kind, canon)
        except JobError as exc:
            return 400, {"error": str(exc), "exit_class": "fatal"}

        # admission control: dedup'd submissions are always welcome
        # (they hit the cache, not the CPU); fresh work is bounded
        if not self.store.would_dedup(key):
            if self.store.queue_depth() >= self.config.queue_depth:
                self.shed_count += 1
                return 429, {"error": "queue full", "queue_depth": self.config.queue_depth}
            if client and self.store.client_load(client) >= self.config.client_cap:
                self.shed_count += 1
                return 429, {
                    "error": f"client {client!r} at its concurrency cap",
                    "client_cap": self.config.client_cap,
                }

        job, dedup = self.store.submit(kind, canon, key, client=client)
        self._wake.set()
        status = 200 if job.state == DONE else 202
        return status, {"job": job.to_dict(include_result=job.state == DONE)}

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        stats = {
            "store": self.store.stats(),
            "runner": self.runner.stats(),
            "server": {
                "requests": self.request_count,
                "shed": self.shed_count,
                "dropped_connections": self.dropped_connections,
                "draining": self.draining,
                "recovered_jobs": self.recovered_jobs,
                "inflight": len(self._inflight),
            },
        }
        return stats


async def serve_forever(store_path, config: ServerConfig) -> JobServer:
    """CLI entry: start, wire signals, park until drained."""
    import signal

    server = JobServer(store_path, config)
    await server.start()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, server.begin_drain)
        except (NotImplementedError, RuntimeError):
            pass  # non-Unix event loop: ctrl-C still raises KeyboardInterrupt
    print(
        f"repro serve: listening on http://{server.config.host}:{server.port} "
        f"(store {server.store_path}, {server.config.workers} "
        f"{server.config.executor} workers, queue depth "
        f"{server.config.queue_depth}"
        + (f", recovered {server.recovered_jobs} jobs" if server.recovered_jobs else "")
        + ")",
        flush=True,
    )
    await server.wait_stopped()
    return server
