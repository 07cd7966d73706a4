"""``sst serve`` — the resident similarity service (ROADMAP tentpole).

Every one-shot ``sst`` invocation re-parses the corpus, recompiles the
taxonomy index and rewarms L1 from disk; the paper frames the toolkit
as a shared service ("SST Web Services") answering similarity queries
for many clients.  This module is that service: a stdlib-only
HTTP/JSON server on :func:`asyncio.start_server` that

* loads ontologies **once** (including ``.sstdb`` sqlite stores) and
  shares the facade — CompiledTaxonomy tables, SimilarityKernel, the
  per-pair measures' CachedRunner L1/L2 — across all requests,
* **batches** each request's pairs through the existing batch
  kernel/parallel engine (one ``score_pairs`` call per request, not a
  Python loop per pair), in-process: the facade's engines run serially,
  so a request thread never forks a process pool; a single pair on a
  kernel measure is scored on the event loop itself, everything else
  on a worker pool,
* speaks **persistent HTTP/1.1**: connections default to
  ``keep-alive`` with per-connection defenses — one read deadline
  (``--idle-timeout``) on the request line, the header block and the
  body, one timer per phase (a slow-loris trickling bytes gets a
  typed 408; a quietly idle connection is closed cleanly), a cap on
  concurrent connections and on requests served per connection,
* runs a five-state **lifecycle**
  (:class:`~repro.core.lifecycle.ServiceLifecycle`): ``/readyz``
  advertises readiness (200 only in READY), ``/healthz`` stays
  liveness; SIGTERM/SIGINT begin a **graceful drain** — the listener
  closes, new work is refused with 503 + ``Retry-After``, admitted
  work finishes within ``--drain-timeout``, then the process exits 0,
* applies layered admission control *before* work is queued:
  the failure-driven :class:`~repro.core.resilience.CircuitBreaker`
  (open → 503) plus the saturation-driven
  :class:`~repro.core.resilience.AdmissionController` (queue full, or
  an estimated queue wait beyond the request deadline → typed 429
  with ``Retry-After``; sustained shedding
  flips the lifecycle DEGRADED so ``/readyz`` turns traffic away
  while in-flight work completes),
* bounds every computation with a per-request
  :class:`~repro.core.resilience.Deadline` (expiry → 504),
* exposes the telemetry registry as prometheus text on ``/metrics``
  and traces every request as a ``server.request`` span with a
  propagated request id (``X-Request-Id`` in, echoed out).

Every setting comes from one ``sst serve`` flag (:class:`ServerConfig`
holds the defaults and range checks); there are no environment twins.

Endpoints::

    POST /v1/similarity   pair, pair-batch, or matrix similarity
    POST /v1/ksim         k most (dis)similar concepts
    GET  /v1/ontologies   the loaded corpus
    GET  /healthz         liveness + corpus summary + lifecycle state
    GET  /readyz          readiness (200 only while READY)
    GET  /metrics         prometheus exposition

Status table — every refusal is typed JSON ``{"error": {"code",
"message", "request_id"}}``, never a traceback::

    status  code                  when
    ------  --------------------  ------------------------------------
    400     bad_request           malformed request line / header /
                                  Content-Length
    400     bad_json              body is not valid JSON
    400     truncated_body        body ended before Content-Length
    404     unknown_path          no such endpoint
    404     unknown_ontology      request names an unloaded ontology
    404     unknown_concept       request names an undefined concept
    405     method_not_allowed    wrong verb (carries ``Allow``)
    408     timeout               read deadline hit mid-request
                                  (slow-loris defense; connection
                                  closes)
    411     length_required       POST without Content-Length
    413     payload_too_large     body exceeds ``--max-body``
    422     missing_field /       body is structurally valid JSON but
            invalid_field / ...   not a valid request
    429     overloaded            admission control shed the request
                                  before queueing (``Retry-After``)
    431     headers_too_large     header block beyond hard limits
    500     internal              unexpected server-side failure
    503     unavailable           circuit breaker open
                                  (``Retry-After``)
    503     draining              shutting down; retry elsewhere
                                  (``Retry-After``, connection closes)
    503     too_many_connections  connection cap reached
    504     deadline_exceeded     per-request deadline expired

Responses are bit-identical to the one-shot CLI because both go
through the very same facade services (``tests/server/`` pins this),
and a malformed request or misbehaving connection can never wedge the
accept loop.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import json
import math
import os
import socket
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

from repro.core import resilience, telemetry
from repro.core.kernel import batchable
from repro.core.lifecycle import (DEGRADED, DRAINING, READY,
                                  ServiceLifecycle, install_signal_drain)
from repro.core.registry import Measure
from repro.core.resilience import AdmissionController, CircuitBreaker, Deadline
from repro.core.results import QualifiedConcept
from repro.errors import (DeadlineExceededError, OverloadedError,
                          SSTCoreError, SSTError, UnknownConceptError,
                          UnknownMeasureError, UnknownOntologyError)

__all__ = [
    "RequestError",
    "ServerConfig",
    "ServerHandle",
    "SimilarityServer",
    "SimilarityService",
    "listen",
    "serve",
    "serve_in_thread",
]

#: Hard parse limits: a request line or header block beyond these is
#: rejected up front, before any body bytes are read.
MAX_REQUEST_LINE = 4096
MAX_HEADER_BYTES = 16384
MAX_HEADERS = 64

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout",
    411: "Length Required", 413: "Payload Too Large",
    422: "Unprocessable Entity", 429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error", 503: "Service Unavailable",
    504: "Gateway Timeout",
}


class ServerConfig:
    """``sst serve`` settings: one flag, one default, one range check each.

    ``port=0`` binds an ephemeral port (tests read it back from the
    handle).  ``deadline_seconds`` bounds each computation (504) and
    is also the admission wait bound: a request whose estimated queue
    wait exceeds it is shed with 429 up front instead of timing out
    after holding a queue slot.  ``idle_timeout`` is the one read
    deadline — for the request line (fresh or kept-alive connection),
    the whole header block, and the body.  A ``0`` deadline or idle
    timeout disables it; ``queue_limit=None`` means four requests
    queued per worker.  An out-of-range value raises
    :class:`~repro.errors.SSTCoreError`.  ``install_signals`` is only
    set by the blocking :func:`serve` entry point — embedded servers
    drain via :meth:`SimilarityServer.request_drain` instead.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8642,
                 workers: int = 8,
                 deadline_seconds: float = 30.0,
                 max_body_bytes: int = 1 << 20,
                 breaker_threshold: int = 5,
                 breaker_reset: float = 30.0,
                 drain_seconds: float = 10.0,
                 idle_timeout: float = 10.0,
                 max_requests_per_connection: int = 100,
                 max_connections: int = 128,
                 queue_limit: int | None = None,
                 install_signals: bool = False):
        self.host = host
        self.port = port
        self.workers = workers
        self.deadline_seconds = deadline_seconds
        self.max_body_bytes = max_body_bytes
        self.breaker_threshold = breaker_threshold
        self.breaker_reset = breaker_reset
        self.drain_seconds = drain_seconds
        self.idle_timeout = idle_timeout
        self.max_requests_per_connection = max_requests_per_connection
        self.max_connections = max_connections
        self.queue_limit = queue_limit
        self.install_signals = install_signals
        if not 0 <= port <= 65535:
            raise SSTCoreError(f"serve setting port must be 0-65535, "
                               f"got {port}")
        for name in ("workers", "max_connections",
                     "max_requests_per_connection", "breaker_threshold",
                     "max_body_bytes", "queue_limit"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise SSTCoreError(
                    f"serve setting {name} must be at least 1, got {value}")
        for name in ("deadline_seconds", "idle_timeout", "drain_seconds",
                     "breaker_reset"):
            value = getattr(self, name)
            if value < 0:
                raise SSTCoreError(
                    f"serve setting {name} must not be negative, got {value}")

    def deadline(self) -> Deadline:
        """A fresh per-request deadline under this configuration."""
        if self.deadline_seconds > 0:
            return Deadline(self.deadline_seconds)
        return Deadline.never()

    def admission(self) -> AdmissionController:
        """A fresh admission controller under this configuration."""
        return AdmissionController(
            self.workers, queue_limit=self.queue_limit,
            max_wait=self.deadline_seconds or None)


class RequestError(SSTCoreError):
    """A request the service refuses, carrying its HTTP mapping.

    ``status`` is the response code, ``code`` the machine-readable
    error token in the JSON body, ``headers`` any extra response
    headers (e.g. ``Retry-After``).  ``close_connection`` marks
    refusals after which the connection cannot be kept alive — either
    because request framing is unknown (the body was never consumed)
    or because the service is going away.
    """

    def __init__(self, status: int, code: str, message: str,
                 headers: Sequence[tuple[str, str]] = (),
                 close_connection: bool = False):
        super().__init__(message)
        self.status = status
        self.code = code
        self.headers = list(headers)
        self.close_connection = close_connection


# ---------------------------------------------------------------------------
# Transport-independent request handling
# ---------------------------------------------------------------------------


def _require(payload: dict, field: str, kinds: tuple[type, ...],
             kind_name: str):
    value = payload.get(field)
    if value is None:
        raise RequestError(422, "missing_field",
                           f"request body needs a {kind_name} {field!r} "
                           "field")
    if not isinstance(value, kinds) or isinstance(value, bool):
        raise RequestError(422, "invalid_field",
                           f"field {field!r} must be a {kind_name}")
    return value


def _concept_ref(value, field: str) -> tuple[str, str]:
    """Validate one ``[ontology, concept]`` reference."""
    if (not isinstance(value, (list, tuple)) or len(value) != 2
            or not all(isinstance(part, str) and part for part in value)):
        raise RequestError(
            422, "invalid_concept",
            f"field {field!r} must be a two-element "
            "[ontology, concept] list of non-empty strings")
    return value[0], value[1]


class SimilarityService:
    """JSON payloads → facade services, independent of any transport.

    The HTTP layer (and the fuzz tests, directly) hand validated-JSON
    dicts to :meth:`similarity` / :meth:`ksim`; every refusal is a
    :class:`RequestError` with its HTTP mapping attached.  Both methods
    honor the request ``Deadline``.  They run on worker threads, except
    a single pair that :meth:`scores_inline` lets the event loop score.
    """

    def __init__(self, toolkit, breaker: CircuitBreaker | None = None):
        self.toolkit = toolkit
        self.breaker = breaker if breaker is not None else CircuitBreaker(
            name="server")
        self._corpus_summary: dict | None = None

    def warm(self) -> None:
        """Build the shared structures once, before serving traffic.

        The batch kernel is among them, so a pair the event loop scores
        never builds per-corpus tables.
        """
        self.toolkit.tree
        self.toolkit.wrapper.kernel()
        # The corpus is immutable while serving, so summarise it once
        # here instead of walking (possibly sqlite-backed) stores on
        # every /healthz and /v1/ontologies hit.
        self._corpus_summary = self._summarise_corpus()

    def _summarise_corpus(self) -> dict:
        soqa = self.toolkit.soqa
        return {"ontologies": [{
            "name": name,
            "language": soqa.ontology(name).language,
            "concepts": len(soqa.ontology(name)),
        } for name in self.toolkit.ontology_names()]}

    def scores_inline(self, payload) -> bool:
        """May the event loop score this ``/v1/similarity`` request?

        Only a single ``first``/``second`` pair on a measure the kernel
        batches, once the kernel and that measure's runner are built:
        a few table lookups, cheaper than the hop to a worker thread.
        Everything else goes to the pool.  Decided without the facade's
        build lock, which a worker may hold across a lazy build.
        """
        if (not isinstance(payload, dict) or "first" not in payload
                or "second" not in payload or "pairs" in payload
                or "concepts" in payload):
            return False
        try:
            runner = self.toolkit.built_runner(self._resolve_measure(payload))
        except RequestError:
            return False  # the pool answers with the typed refusal
        return (runner is not None and batchable(runner)
                and runner.wrapper.has_kernel)

    # -- validation ---------------------------------------------------------

    def _resolve_measure(self, payload: dict):
        measure = payload.get("measure", int(Measure.SHORTEST_PATH))
        if isinstance(measure, bool) or not isinstance(measure, (int, str)):
            raise RequestError(422, "invalid_field",
                               "field 'measure' must be a measure id or "
                               "name")
        try:
            self.toolkit.registry.resolve(measure)
        except UnknownMeasureError as error:
            raise RequestError(422, "unknown_measure", str(error)) from error
        return measure

    def _validate_concept(self, ontology_name: str, concept_name: str,
                          ) -> QualifiedConcept:
        try:
            self.toolkit.soqa.ontology(ontology_name)
        except UnknownOntologyError as error:
            raise RequestError(404, "unknown_ontology", str(error)) from error
        concept = QualifiedConcept(ontology_name, concept_name)
        try:
            self.toolkit.tree.node_of(concept)
        except UnknownConceptError as error:
            raise RequestError(404, "unknown_concept", str(error)) from error
        return concept

    @staticmethod
    def _payload_dict(payload) -> dict:
        if not isinstance(payload, dict):
            raise RequestError(422, "invalid_payload",
                               "request body must be a JSON object")
        return payload

    # -- endpoints ----------------------------------------------------------

    def similarity(self, payload, deadline: Deadline) -> dict:
        """``POST /v1/similarity``: pair, pair-batch, or matrix mode."""
        payload = self._payload_dict(payload)
        deadline.check("similarity request")
        measure = self._resolve_measure(payload)
        runner_name = self.toolkit.runner(measure).name
        if "concepts" in payload:
            references = _require(payload, "concepts", (list,), "list")
            if not references:
                raise RequestError(422, "invalid_field",
                                   "field 'concepts' must not be empty")
            qualified = [
                self._validate_concept(*_concept_ref(ref, "concepts"))
                for ref in references]
            matrix = self.toolkit.get_similarity_matrix(qualified, measure)
            labels = [f"{concept.ontology_name}:{concept.concept_name}"
                      for concept in qualified]
            return {"measure": runner_name, "labels": labels,
                    "matrix": matrix}
        if "pairs" in payload:
            raw_pairs = _require(payload, "pairs", (list,), "list")
            if not raw_pairs:
                raise RequestError(422, "invalid_field",
                                   "field 'pairs' must not be empty")
            pairs = []
            for entry in raw_pairs:
                if not isinstance(entry, (list, tuple)) or len(entry) != 4:
                    raise RequestError(
                        422, "invalid_pair",
                        "every pair must be a four-element "
                        "[ontology, concept, ontology, concept] list")
                first = self._validate_concept(
                    *_concept_ref(entry[:2], "pairs"))
                second = self._validate_concept(
                    *_concept_ref(entry[2:], "pairs"))
                pairs.append((first, second))
            values = self.toolkit.engine(measure).score_pairs(pairs)
            return {"measure": runner_name, "values": values}
        if "first" in payload or "second" in payload:
            first = self._validate_concept(
                *_concept_ref(payload.get("first"), "first"))
            second = self._validate_concept(
                *_concept_ref(payload.get("second"), "second"))
            values = self.toolkit.engine(measure).score_pairs(
                [(first, second)])
            return {"measure": runner_name, "similarity": values[0]}
        raise RequestError(
            422, "missing_field",
            "request body needs 'first'/'second', 'pairs', or 'concepts'")

    def ksim(self, payload, deadline: Deadline) -> dict:
        """``POST /v1/ksim``: the k most (dis)similar concepts."""
        payload = self._payload_dict(payload)
        deadline.check("ksim request")
        ontology_name = _require(payload, "ontology", (str,), "string")
        concept_name = _require(payload, "concept", (str,), "string")
        measure = self._resolve_measure(payload)
        k = payload.get("k", 10)
        if isinstance(k, bool) or not isinstance(k, int) or k < 1:
            raise RequestError(422, "invalid_field",
                               "field 'k' must be a positive integer")
        dissimilar = payload.get("dissimilar", False)
        if not isinstance(dissimilar, bool):
            raise RequestError(422, "invalid_field",
                               "field 'dissimilar' must be a boolean")
        subtree_concept = subtree_ontology = None
        subtree = payload.get("subtree")
        if subtree is not None:
            if not isinstance(subtree, str) or ":" not in subtree:
                raise RequestError(
                    422, "invalid_field",
                    "field 'subtree' must be an 'ontology:Concept' "
                    "string")
            subtree_ontology, _, subtree_concept = subtree.partition(":")
            self._validate_concept(subtree_ontology, subtree_concept)
        self._validate_concept(ontology_name, concept_name)
        service = (self.toolkit.get_most_dissimilar_concepts if dissimilar
                   else self.toolkit.get_most_similar_concepts)
        entries = service(concept_name, ontology_name,
                          subtree_root_concept_name=subtree_concept,
                          subtree_ontology_name=subtree_ontology,
                          k=k, measure=measure)
        return {
            "measure": self.toolkit.runner(measure).name,
            "k": k,
            "entries": [{
                "rank": rank,
                "ontology": entry.ontology_name,
                "concept": entry.concept_name,
                "similarity": entry.similarity,
            } for rank, entry in enumerate(entries, start=1)],
        }

    def ontologies(self) -> dict:
        """``GET /v1/ontologies``: the loaded corpus summary."""
        summary = self._corpus_summary
        if summary is None:  # cold service (warm=False): compute now
            summary = self._summarise_corpus()
        return summary

    def health(self) -> dict:
        """``GET /healthz``: liveness plus corpus shape."""
        entries = self.ontologies()["ontologies"]
        return {
            "status": "ok",
            "ontologies": len(entries),
            "concepts": sum(entry["concepts"] for entry in entries),
        }


# ---------------------------------------------------------------------------
# The asyncio HTTP server
# ---------------------------------------------------------------------------


class _Response:
    """One rendered HTTP response."""

    __slots__ = ("status", "body", "content_type", "headers")

    def __init__(self, status: int, body: bytes,
                 content_type: str = "application/json",
                 headers: Sequence[tuple[str, str]] = ()):
        self.status = status
        self.body = body
        self.content_type = content_type
        self.headers = list(headers)


def _json_response(status: int, payload: dict,
                   headers: Sequence[tuple[str, str]] = ()) -> _Response:
    body = (json.dumps(payload, indent=2) + "\n").encode("utf-8")
    return _Response(status, body, headers=headers)


def _error_response(status: int, code: str, message: str, request_id: str,
                    headers: Sequence[tuple[str, str]] = ()) -> _Response:
    return _json_response(status, {"error": {
        "code": code, "message": message, "request_id": request_id,
    }}, headers=headers)


class _Timeout:
    """Raise :class:`asyncio.TimeoutError` if a ``with`` block outlasts
    ``seconds`` (``None`` or ``0``: no limit).

    One ``loop.call_later`` timer that cancels the running task, for a
    whole read phase; ``asyncio.wait_for`` would start a task and a
    timer for every read.  ``asyncio.timeout`` does the same from
    Python 3.11 on, where ``Task.uncancel`` also tells this timer's
    cancellation apart from another one.
    """

    __slots__ = ("_seconds", "_task", "_timer", "_expired")

    def __init__(self, seconds: float | None):
        self._seconds = seconds
        self._task: asyncio.Task | None = None
        self._timer: asyncio.TimerHandle | None = None
        self._expired = False

    def __enter__(self) -> "_Timeout":
        if self._seconds:
            self._task = asyncio.current_task()
            self._timer = asyncio.get_running_loop().call_later(
                self._seconds, self._expire)
        return self

    def _expire(self) -> None:
        self._expired = True
        self._task.cancel()

    def __exit__(self, kind, error, traceback) -> None:
        if self._timer is not None:
            self._timer.cancel()
        if self._expired and kind is asyncio.CancelledError:
            uncancel = getattr(self._task, "uncancel", None)
            if uncancel is None or uncancel() == 0:
                raise asyncio.TimeoutError from None


def _stalled(delay: float, handler: Callable, payload, deadline: Deadline):
    """``handler`` after the ``server.slow`` fault's stall."""
    time.sleep(delay)
    return handler(payload, deadline)


def listen(config: ServerConfig) -> socket.socket:
    """A socket listening on ``config.host``/``config.port``.

    ``sst serve`` binds before it loads the corpus, so a taken port
    fails at once.  A failure raises :class:`~repro.errors.SSTCoreError`
    chained to the ``OSError``.
    """
    try:
        family, kind, protocol, _, address = socket.getaddrinfo(
            config.host or None, config.port, type=socket.SOCK_STREAM,
            flags=socket.AI_PASSIVE)[0]
        listener = socket.socket(family, kind, protocol)
        try:
            if os.name == "posix":  # as asyncio.start_server does
                listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR,
                                    1)
            listener.bind(address)
            listener.listen(100)
        except OSError:
            listener.close()
            raise
    except OSError as error:
        raise SSTCoreError(f"sst serve failed to start: {error}") from error
    return listener


class SimilarityServer:
    """The asyncio accept loop around a :class:`SimilarityService`.

    Connections are persistent (``Connection: keep-alive``) up to
    ``max_requests_per_connection``, bounded in number by
    ``max_connections``, and defended against slow clients by one read
    deadline on the request line, the header block and the body.  Every
    request is parsed under hard limits, admitted through the breaker
    *and* the saturation controller, computed under a per-request
    deadline, and answered with typed JSON.  A single kernel-measure
    pair is scored on the event loop (see
    :meth:`SimilarityService.scores_inline`); all other work runs on a
    bounded worker pool.  A failing request can only fail itself: the
    handler catches everything and the accept loop never sees an
    exception.

    ``listener`` is a bound, listening socket (see :func:`listen`);
    without one, :meth:`run` binds ``config.host``/``config.port``.

    Shutdown is graceful: :meth:`request_drain` (wired to
    SIGTERM/SIGINT by the blocking entry point) flips the lifecycle to
    DRAINING, closes the listener, refuses new work with 503 and waits
    up to ``drain_seconds`` for admitted work before stopping; a
    second *signal* escalates to an immediate stop.
    """

    def __init__(self, service: SimilarityService,
                 config: ServerConfig | None = None,
                 listener: socket.socket | None = None):
        self.service = service
        self.config = config if config is not None else ServerConfig()
        self._listener = listener
        self.host: str | None = None
        self.port: int | None = None
        self.lifecycle = ServiceLifecycle()
        self.admission = self.config.admission()
        #: Filled by the drain sequence: how much admitted work
        #: finished inside the drain window vs. was abandoned at the
        #: deadline.
        self.drain_report: dict = {"inflight_at_drain": 0, "completed": 0,
                                   "abandoned": 0, "drain_seconds": 0.0}
        self._ids = itertools.count(1)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._asyncio_server: asyncio.AbstractServer | None = None
        self._drain_task: asyncio.Task | None = None
        # Touched only on the loop thread (coroutines and
        # call_soon_threadsafe callbacks), so plain ints suffice.
        self._open_connections = 0
        self._active_requests = 0

    # -- lifecycle ----------------------------------------------------------

    async def run(self, ready: threading.Event | None = None) -> None:
        """Serve until drained, :meth:`request_stop`, or cancellation."""
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.workers,
            thread_name_prefix="sst-serve")
        try:
            # Inside the try so a failed bind (port in use, bad host)
            # still shuts the executor down and propagates the error
            # instead of leaving a waiter to time out on ``ready``.
            listener = (self._listener if self._listener is not None
                        else listen(self.config))
            server = await asyncio.start_server(
                self._handle_connection, sock=listener,
                limit=max(MAX_HEADER_BYTES * 4, 1 << 16))
            self._asyncio_server = server
            sockname = server.sockets[0].getsockname()
            self.host, self.port = sockname[0], sockname[1]
            telemetry.gauge("server.workers", self.config.workers)
            if self.config.install_signals:
                install_signal_drain(self._loop, self._on_signal)
            self.lifecycle.mark_ready()
            if ready is not None:
                ready.set()
            async with server:
                await self._stop.wait()
        finally:
            self.lifecycle.mark_stopped()
            self._drain_aware_executor_shutdown()

    def _drain_aware_executor_shutdown(self) -> None:
        """Tear the worker pool down without betraying the drain.

        After a clean drain (or an idle stop) nothing is in flight and
        ``wait=True`` returns immediately while guaranteeing that any
        just-finishing thread has fully released.  Only work still
        running *past the drain deadline* is abandoned: queued futures
        are cancelled, running threads release at process exit.
        """
        executor = self._executor
        if executor is None:
            return
        if self._active_requests == 0:
            executor.shutdown(wait=True)
        else:
            telemetry.count("server.drain.executor_cancelled")
            executor.shutdown(wait=False, cancel_futures=True)

    def request_stop(self) -> None:
        """Ask the serve loop to exit *immediately* (thread-safe).

        Skips the drain: in-flight requests are abandoned.  Prefer
        :meth:`request_drain` for production shutdown.
        """
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None:
            try:
                loop.call_soon_threadsafe(stop.set)
            except RuntimeError:
                pass  # loop already closed: nothing left to stop

    def request_drain(self) -> None:
        """Begin a graceful drain (thread- and signal-safe, idempotent).

        Lifecycle → DRAINING, listener closes, new work is refused
        with 503, admitted work gets ``drain_seconds`` to finish, then
        the loop exits.  Calling again while a drain is in progress is
        a no-op — escalation to an immediate stop is reserved for
        repeated *signals* (double Ctrl-C) and :meth:`request_stop`.
        """
        loop = self._loop
        if loop is None or self._stop is None:
            return
        try:
            loop.call_soon_threadsafe(self._begin_drain_on_loop)
        except RuntimeError:
            pass  # loop already closed: already stopped

    def _begin_drain_on_loop(self) -> None:
        if self.lifecycle.begin_drain():
            self._drain_task = asyncio.ensure_future(self._drain_and_stop())

    def _on_signal(self) -> None:
        """First signal drains gracefully; a second stops immediately."""
        if self.lifecycle.state == DRAINING:
            telemetry.count("server.drain.escalated")
            self.request_stop()
        else:
            self.request_drain()

    async def _drain_and_stop(self) -> None:
        started = time.monotonic()
        deadline = started + self.config.drain_seconds
        initial = self._active_requests
        server = self._asyncio_server
        if server is not None:
            server.close()  # stop accepting; existing sockets live on
        while self._active_requests > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.05)
        remaining = self._active_requests
        completed = max(0, initial - remaining)
        elapsed = time.monotonic() - started
        self.drain_report = {
            "inflight_at_drain": initial,
            "completed": completed,
            "abandoned": remaining,
            "drain_seconds": round(elapsed, 6),
        }
        telemetry.count("server.drain.completed", completed)
        if remaining:
            telemetry.count("server.drain.abandoned", remaining)
        telemetry.observe("server.drain.wait_seconds", elapsed)
        self._stop.set()

    # -- connection handling ------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self._open_connections += 1
        telemetry.gauge("server.connections", self._open_connections)
        telemetry.count("server.connections.opened")
        try:
            if self._open_connections > self.config.max_connections:
                telemetry.count("server.rejected.connections")
                response = _error_response(
                    503, "too_many_connections",
                    f"connection cap of {self.config.max_connections} "
                    "reached", "conn-cap",
                    headers=[("Retry-After", "1")])
                # Swallow whatever request bytes already arrived so
                # the close after the 503 is a FIN, not an RST that
                # could destroy the response before the client reads
                # it.
                try:
                    with _Timeout(0.2):
                        await reader.read(65536)
                except (asyncio.TimeoutError, ConnectionError, OSError):
                    pass
                await self._send(writer, response, "conn-cap",
                                 keep_alive=False)
                return
            await self._connection_loop(reader, writer)
        # The accept loop can never see an exception; a connection that
        # breaks in an unforeseen way is simply closed.
        except Exception:  # sst: disable=swallowed-exception
            telemetry.count("server.errors.connection")
        finally:
            self._open_connections -= 1
            telemetry.gauge("server.connections", self._open_connections)
            await self._close_writer(writer)

    async def _connection_loop(self, reader: asyncio.StreamReader,
                               writer: asyncio.StreamWriter) -> None:
        """Serve requests off one connection until it should close."""
        served = 0
        while True:
            # One-element box: header parsing replaces the generated id
            # with a client-supplied X-Request-Id, and the error and
            # response paths must all see whichever id is in effect.
            request_id = [f"req-{next(self._ids)}"]
            started = time.monotonic()
            try:
                outcome = await self._serve_one(reader, request_id,
                                                first=(served == 0))
            # The one deliberate catch-all of the request path: a
            # failing request must fail alone.
            except Exception as error:  # sst: disable=swallowed-exception
                telemetry.count("server.errors.internal")
                outcome = (_error_response(
                    500, "internal",
                    f"internal error: {type(error).__name__}",
                    request_id[0]), False)
            if outcome is None:
                return  # EOF or clean idle timeout: nothing to answer
            response, keep = outcome
            served += 1
            if served > 1:
                telemetry.count("server.keepalive.reuse")
            keep = (keep
                    and served < self.config.max_requests_per_connection
                    and self.lifecycle.accepts_work())
            telemetry.count("server.requests")
            telemetry.count(
                f"server.responses.{response.status // 100}xx")
            telemetry.observe("server.request.seconds",
                              time.monotonic() - started)
            if not await self._send(writer, response, request_id[0],
                                    keep_alive=keep):
                return

    async def _send(self, writer: asyncio.StreamWriter, response: _Response,
                    request_id: str, keep_alive: bool) -> bool:
        """Write one response; True when the connection stays usable."""
        reason = _REASONS.get(response.status, "Status")
        lines = [f"HTTP/1.1 {response.status} {reason}",
                 f"Content-Type: {response.content_type}",
                 f"Content-Length: {len(response.body)}",
                 f"X-Request-Id: {request_id}"]
        lines.extend(f"{name}: {value}"
                     for name, value in response.headers)
        if keep_alive:
            lines.append("Connection: keep-alive")
            if self.config.idle_timeout > 0:
                lines.append("Keep-Alive: timeout="
                             f"{max(1, int(self.config.idle_timeout))}")
        else:
            lines.append("Connection: close")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        try:
            writer.write(head + response.body)
            await writer.drain()
        except (ConnectionError, OSError):
            return False  # client hung up mid-response
        if not keep_alive:
            await self._close_writer(writer)
            return False
        return True

    @staticmethod
    async def _close_writer(writer: asyncio.StreamWriter) -> None:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    @staticmethod
    def _partial_request(reader: asyncio.StreamReader) -> bool:
        """Did the client start (but not finish) a request line?

        Distinguishes a slow-loris mid-request stall (typed 408) from
        a quietly idle keep-alive connection (clean close).  Falls
        back to "idle" on stream implementations without the CPython
        buffer attribute.
        """
        return bool(getattr(reader, "_buffer", b""))

    async def _read_request_line(self, reader: asyncio.StreamReader,
                                 first: bool) -> bytes | None:
        """The next request line, or None when the connection is done.

        A fresh or kept-alive connection gets ``idle_timeout`` to
        produce its line.  Timing out on a fresh connection, or with
        bytes already on the wire, is a slow client (408); a kept-alive
        connection timing out clean is just idleness.
        """
        try:
            with _Timeout(self.config.idle_timeout):
                line = await reader.readline()
        except asyncio.TimeoutError:
            if first or self._partial_request(reader):
                raise RequestError(
                    408, "timeout", "timed out reading the request line",
                    close_connection=True) from None
            return None
        except ValueError:
            raise RequestError(
                400, "bad_request",
                "request line exceeds the stream limit",
                close_connection=True) from None
        if not line.strip():
            return None  # EOF (or bare CRLF) — no request
        if len(line) > MAX_REQUEST_LINE:
            raise RequestError(
                400, "bad_request",
                f"request line longer than {MAX_REQUEST_LINE} bytes",
                close_connection=True)
        return line

    async def _read_headers(self, reader: asyncio.StreamReader) -> dict:
        """The header block, lower-cased names to values.

        The whole block shares one read timer: trickling one header
        byte per second can't hold a connection open.
        """
        headers: dict[str, str] = {}
        header_bytes = 0
        try:
            with _Timeout(self.config.idle_timeout):
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        return headers
                    header_bytes += len(line)
                    if len(line) > MAX_HEADER_BYTES:
                        raise RequestError(
                            431, "headers_too_large",
                            f"header longer than {MAX_HEADER_BYTES} bytes",
                            close_connection=True)
                    if (header_bytes > MAX_HEADER_BYTES
                            or len(headers) >= MAX_HEADERS):
                        raise RequestError(
                            431, "headers_too_large",
                            "request header block is too large",
                            close_connection=True)
                    name, separator, value = line.decode(
                        "latin-1").partition(":")
                    if not separator:
                        raise RequestError(
                            400, "bad_request",
                            f"malformed header line {name.strip()!r}",
                            close_connection=True)
                    headers[name.strip().lower()] = value.strip()
        except asyncio.TimeoutError:
            raise RequestError(
                408, "timeout", "timed out reading the header block",
                close_connection=True) from None
        except ValueError:
            raise RequestError(
                400, "bad_request", "header exceeds the stream limit",
                close_connection=True) from None

    async def _serve_one(self, reader: asyncio.StreamReader,
                         request_id: list[str],
                         first: bool) -> tuple[_Response, bool] | None:
        """Parse and answer one request.

        Returns ``(response, may_keep_alive)``, or ``None`` when the
        connection ended without a request.  ``may_keep_alive``
        reflects both the client's wish and whether request framing
        stayed intact (an unconsumed body poisons the stream).
        """
        client_keep = True
        try:
            parsed = await self._parse_request(reader, request_id, first)
            if parsed is None:
                return None
            method, path, headers, client_keep = parsed
            with telemetry.span("server.request", method=method, path=path,
                                request_id=request_id[0]):
                response = await self._route(method, path, headers, reader)
            return response, client_keep
        except RequestError as error:
            return (_error_response(error.status, error.code, str(error),
                                    request_id[0], headers=error.headers),
                    client_keep and not error.close_connection)

    async def _parse_request(self, reader: asyncio.StreamReader,
                             request_id: list[str], first: bool,
                             ) -> tuple[str, str, dict, bool] | None:
        request_line = await self._read_request_line(reader, first)
        if request_line is None:
            return None
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise RequestError(400, "bad_request",
                               "malformed HTTP request line",
                               close_connection=True)
        method, target, version = parts
        headers = await self._read_headers(reader)
        client_id = headers.get("x-request-id", "")
        if client_id and len(client_id) <= 128 and client_id.isprintable():
            request_id[0] = client_id
        keep = self._client_keep_alive(version, method, headers)
        path = target.split("?", 1)[0]
        return method, path, headers, keep

    @staticmethod
    def _client_keep_alive(version: str, method: str,
                           headers: dict) -> bool:
        """May the connection persist after this exchange?

        HTTP/1.1 defaults to keep-alive unless ``Connection: close``;
        HTTP/1.0 requires an explicit ``Connection: keep-alive``.  A
        GET that smuggles a body is never kept alive — its body bytes
        are not consumed and would poison the next request's framing.
        """
        tokens = {token.strip().lower()
                  for token in headers.get("connection", "").split(",")}
        if version.startswith("HTTP/1.0"):
            keep = "keep-alive" in tokens
        else:
            keep = "close" not in tokens
        if method != "POST" and headers.get("content-length", "0") not in (
                "0", ""):
            keep = False
        return keep

    async def _route(self, method: str, path: str, headers: dict,
                     reader: asyncio.StreamReader) -> _Response:
        # The GET endpoints run on the worker pool too: an unwarmed
        # corpus summary or a large metrics render must never stall
        # the accept loop.
        loop = asyncio.get_running_loop()
        if path == "/healthz":
            self._check_method(method, "GET")
            payload = await loop.run_in_executor(self._executor,
                                                 self.service.health)
            payload["state"] = self.lifecycle.state
            return _json_response(200, payload)
        if path == "/readyz":
            self._check_method(method, "GET")
            return self._readiness_response()
        if path == "/metrics":
            self._check_method(method, "GET")
            body = await loop.run_in_executor(
                self._executor, telemetry.get_registry().render_prometheus)
            return _Response(200, body.encode("utf-8"),
                             content_type="text/plain; version=0.0.4")
        if path == "/v1/ontologies":
            self._check_method(method, "GET")
            payload = await loop.run_in_executor(self._executor,
                                                 self.service.ontologies)
            return _json_response(200, payload)
        if path == "/v1/similarity":
            self._check_method(method, "POST")
            payload = await self._read_json_body(reader, headers)
            return await self._compute(
                self.service.similarity, payload,
                inline=self.service.scores_inline(payload))
        if path == "/v1/ksim":
            self._check_method(method, "POST")
            payload = await self._read_json_body(reader, headers)
            return await self._compute(self.service.ksim, payload)
        raise RequestError(404, "unknown_path",
                           f"no such endpoint: {path}")

    def _readiness_response(self) -> _Response:
        """``GET /readyz``: should a balancer route traffic here?

        Pure in-memory state — deliberately *not* on the worker pool,
        so readiness stays answerable even when every worker is busy
        (that saturation is exactly what the body reports).
        """
        snapshot = self.lifecycle.snapshot()
        payload = {
            "status": snapshot["state"],
            "ready": snapshot["state"] == READY,
            "queue_depth": self.admission.queue_depth(),
            "saturation": round(self.admission.saturation(), 4),
        }
        if snapshot["reason"]:
            payload["reason"] = snapshot["reason"]
        if payload["ready"]:
            return _json_response(200, payload)
        return _json_response(503, payload,
                              headers=[("Retry-After", "1")])

    @staticmethod
    def _check_method(method: str, expected: str) -> None:
        if method != expected:
            raise RequestError(405, "method_not_allowed",
                               f"use {expected} for this endpoint",
                               headers=[("Allow", expected)])

    async def _read_json_body(self, reader: asyncio.StreamReader,
                              headers: dict):
        raw_length = headers.get("content-length")
        if raw_length is None:
            raise RequestError(411, "length_required",
                               "request needs a Content-Length header",
                               close_connection=True)
        try:
            length = int(raw_length)
        except ValueError:
            raise RequestError(400, "bad_request",
                               "malformed Content-Length header",
                               close_connection=True) from None
        if length < 0:
            raise RequestError(400, "bad_request",
                               "negative Content-Length",
                               close_connection=True)
        if length > self.config.max_body_bytes:
            raise RequestError(
                413, "payload_too_large",
                f"request body of {length} bytes exceeds the "
                f"{self.config.max_body_bytes} byte limit",
                close_connection=True)
        try:
            with _Timeout(self.config.idle_timeout):
                body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise RequestError(400, "truncated_body",
                               "request body ended early",
                               close_connection=True) from None
        except asyncio.TimeoutError:
            raise RequestError(408, "timeout",
                               "timed out reading the request body",
                               close_connection=True) from None
        try:
            return json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            # Body fully consumed: framing is intact, keep-alive is
            # fine even though the payload was garbage.
            raise RequestError(400, "bad_json",
                               f"request body is not valid JSON: {error}"
                               ) from error

    async def _compute(self, handler: Callable, payload,
                       inline: bool = False) -> _Response:
        """Run a service endpoint, guarded by the lifecycle (draining →
        503), the breaker (failure admission → 503), the saturation
        controller (overload admission → 429) and the per-request
        deadline (expiry → 504).

        An ``inline`` request runs right here on the event loop and
        releases its admission ticket in the same tick; any other runs
        on the worker pool.  The ``server.slow`` fault fires after
        admission and sends even an inline request to the pool, to
        stall a worker there.

        Every admitted request records exactly one breaker outcome —
        otherwise a half-open probe that happens to be a client error
        (or hits an unexpected exception) would leave the breaker
        HALF_OPEN forever, refusing all traffic until restart.  On the
        pool, admission release and drain accounting ride the
        *executor* future's done callback, so they fire when the worker
        thread truly finishes — not when an impatient awaiter times
        out.
        """
        if not self.lifecycle.accepts_work():
            telemetry.count("server.rejected.draining")
            raise RequestError(
                503, "draining",
                "service is draining for shutdown; retry against "
                "another instance",
                headers=[("Retry-After", "1")], close_connection=True)
        breaker = self.service.breaker
        if not breaker.allow():
            telemetry.count("server.rejected.breaker")
            retry_after = max(1, math.ceil(breaker.retry_after()))
            raise RequestError(
                503, "unavailable",
                "service temporarily refusing work (circuit open)",
                headers=[("Retry-After", str(retry_after))])
        try:
            ticket = self.admission.try_admit()
        except OverloadedError as error:
            self.lifecycle.degrade("admission control shedding")
            raise RequestError(
                429, "overloaded", str(error),
                headers=[("Retry-After", str(error.retry_after))]
            ) from error
        deadline = self.config.deadline()
        delay = resilience.maybe_fire("server.slow")
        self._active_requests += 1
        try:
            if inline and not delay:
                telemetry.count("server.requests.inline")
                try:
                    result = handler(payload, deadline)
                finally:
                    self._request_finished(ticket)
            else:
                if delay:
                    handler = functools.partial(_stalled, delay, handler)
                loop = asyncio.get_running_loop()
                work = self._executor.submit(handler, payload, deadline)
                work.add_done_callback(lambda future: (
                    self._finished_threadsafe(loop, ticket, future)))
                with _Timeout(deadline.remaining()):
                    result = await asyncio.wrap_future(work)
        except (asyncio.TimeoutError, DeadlineExceededError):
            breaker.record_failure()
            telemetry.count("server.responses.deadline")
            raise RequestError(
                504, "deadline_exceeded",
                f"request exceeded its {self.config.deadline_seconds:g}s "
                "deadline") from None
        except RequestError:
            # A client-level refusal (404/422/...) means the backend
            # did its job: not a service failure, but it must still
            # resolve a half-open probe as healthy.
            breaker.record_success()
            raise
        except SSTError as error:
            breaker.record_failure()
            raise RequestError(500, "internal",
                               f"computation failed: {error}") from error
        except BaseException:
            # Unexpected exceptions escape to the connection handler's
            # catch-all (500) — record the failure first so the probe
            # can never leak.
            breaker.record_failure()
            raise
        breaker.record_success()
        return _json_response(200, result)

    def _finished_threadsafe(self, loop: asyncio.AbstractEventLoop,
                             ticket: float, future) -> None:
        """Executor-thread side of request completion accounting."""
        if not future.cancelled():
            future.exception()  # abandoned work must never warn
        try:
            loop.call_soon_threadsafe(self._request_finished, ticket)
        except RuntimeError:
            # The loop is already gone (hard stop): account directly —
            # the single-threaded invariant no longer matters.
            self._request_finished(ticket)

    def _request_finished(self, ticket: float) -> None:
        self.admission.release(ticket)
        self._active_requests -= 1
        if (self.lifecycle.state == DEGRADED
                and self.admission.saturation()
                <= AdmissionController.RESTORE_FRACTION):
            self.lifecycle.restore()


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def serve(toolkit, config: ServerConfig | None = None,
          log=None, listener: socket.socket | None = None) -> None:
    """Run the service in the current thread until interrupted.

    This is the ``sst serve`` blocking entry point; ``log`` (a callable
    taking one string) receives the startup and drain lines, and
    ``listener`` is the socket :func:`listen` bound (the server binds
    one when not given).  SIGTERM and SIGINT trigger a graceful drain
    and a clean (exit 0) return; a second signal stops immediately.
    """
    config = config if config is not None else ServerConfig()
    config.install_signals = True
    service = SimilarityService(toolkit, breaker=CircuitBreaker(
        failure_threshold=config.breaker_threshold,
        reset_timeout=config.breaker_reset, name="server"))
    service.warm()
    server = SimilarityServer(service, config, listener)

    async def _main() -> None:
        task = asyncio.ensure_future(server.run())
        await asyncio.sleep(0)  # let run() bind the socket
        while server.port is None and not task.done():
            await asyncio.sleep(0.01)
        if log is not None and server.port is not None:
            log(f"sst serve: listening on http://{server.host}:"
                f"{server.port} ({len(toolkit.ontology_names())} "
                f"ontologies, {toolkit.concept_count()} concepts)")
        await task

    asyncio.run(_main())
    if log is not None:
        report = server.drain_report
        log(f"sst serve: drained ({report['completed']} completed, "
            f"{report['abandoned']} abandoned, "
            f"{report['drain_seconds']:.3f}s)")
    if server._active_requests > 0:
        # Abandoned work (drain overrun or an escalated second signal)
        # is still running on non-daemon pool threads, which the
        # interpreter would join at exit — for however long the stuck
        # handler takes.  The report is out and the sockets are
        # closed; leave without waiting for work nobody will read.
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(0)


class ServerHandle:
    """A running background server (tests): address plus ``stop()``."""

    def __init__(self, server: SimilarityServer, thread: threading.Thread):
        self.server = server
        self.thread = thread

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def service(self) -> SimilarityService:
        return self.server.service

    def stop(self, timeout: float = 10.0) -> dict:
        """Gracefully drain, stop, and report.

        Returns the drain report (``completed`` vs ``abandoned``
        in-flight requests and the drain wait).  Should the drain
        overrun ``timeout``, escalates to an immediate stop.
        """
        self.server.request_drain()
        self.thread.join(timeout)
        if self.thread.is_alive():
            self.server.request_stop()
            self.thread.join(timeout)
        return dict(self.server.drain_report)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def serve_in_thread(toolkit, config: ServerConfig | None = None,
                    warm: bool = True) -> ServerHandle:
    """Start the service on a daemon thread and return its handle.

    The returned handle's ``host``/``port`` are bound (pass ``port=0``
    in the config for an ephemeral port); ``stop()`` drains and shuts
    the loop down.  Usable as a context manager.
    """
    config = config if config is not None else ServerConfig(port=0)
    service = SimilarityService(toolkit, breaker=CircuitBreaker(
        failure_threshold=config.breaker_threshold,
        reset_timeout=config.breaker_reset, name="server"))
    if warm:
        service.warm()
    # Bound here, so a taken port raises at once, chained to its OSError.
    server = SimilarityServer(service, config, listen(config))
    ready = threading.Event()
    failure: list[BaseException] = []

    def _run() -> None:
        try:
            asyncio.run(server.run(ready))
        # Not swallowed: the startup waiter below re-raises it chained.
        except BaseException as error:  # sst: disable=swallowed-exception
            failure.append(error)
        finally:
            ready.set()  # failure is recorded before any waiter wakes

    thread = threading.Thread(target=_run, name="sst-serve-loop",
                              daemon=True)
    thread.start()
    if not ready.wait(30.0) or server.port is None:
        if failure:
            raise SSTCoreError(
                f"sst serve failed to start: {failure[0]}") from failure[0]
        raise SSTCoreError("sst serve failed to start within 30s")
    return ServerHandle(server, thread)
