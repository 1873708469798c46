"""`repro serve` — the online, multi-tenant entity-resolution daemon.

Everything before this module is call-and-return: one caller hands an
engine a pairs list and waits.  A service for "heavy traffic from millions
of users" is a different shape — many small concurrent requests, a
long-lived process, snapshots that republish underneath it — and this
module is that shape:

* **Admission control + backpressure.**  Every request is admitted against
  a bounded budget of queued-plus-inflight pairs
  (``DaemonConfig.max_queued_pairs``).  Past the high-water mark the daemon
  rejects with :class:`BackpressureError` carrying a ``retry_after``
  estimated from the recent scoring rate — clients shed load by retrying
  later instead of piling onto an unbounded queue.
* **Cross-request continuous micro-batching.**  Concurrent small requests
  for the same (domain, snapshot digest) are merged by a collector that
  flushes when the merged size reaches ``max_batch_pairs`` /
  ``max_batch_tokens`` or when the oldest entry's ``flush_interval``
  deadline expires.  The whole flush rides the *existing* engine stack —
  scheduler, score cache, supervised pool — in one scoring-lane round,
  and each caller gets its own decisions back.  Within the flush every
  request keeps its own batch composition (BLAS picks GEMM kernels per
  matrix shape, so folding a request into a larger concatenated batch can
  move the last ulp): merged decisions are therefore bit-identical to
  scoring each request alone, no matter what else was in flight — the
  daemon bench re-asserts this end to end.
* **Multi-tenant routing + zero-downtime hot swap.**  Requests name a
  domain; a :class:`~repro.serve.registry.ModelRegistry` resolves it to a
  lease-pinned engine.  Republishing a snapshot swaps atomically: in-flight
  requests finish on the digest they resolved (collectors are keyed by
  digest, so a merge can never mix snapshots), new requests score on the
  new one, and the content-addressed cache invalidates by construction.
* **Observability.**  Every request runs under a ``serve.request`` span
  (admission → flush → response) and the ``serve.daemon.*`` registry
  family counts requests, rejections, flushes, merged pairs, hot swaps,
  and SLO misses; ``serve.daemon.request_seconds`` histograms end-to-end
  latency.

Scoring runs on a single dedicated executor thread — the numerics stay on
the deterministic single-threaded BLAS path — while the event loop keeps
admitting, merging, and answering.  That concurrency is exactly what the
three bugfixes riding this PR make safe: the score cache's lock, the
tracer's contextvars span stacks, and the meters' per-run cache
accounting.

The wire protocol is JSON lines over TCP (one object per line, ``op`` =
``score`` | ``publish`` | ``domains`` | ``stats`` | ``ping`` |
``shutdown``); :class:`~repro.serve.client.DaemonClient` speaks it, and
:func:`start_daemon_thread` hosts a daemon in-process for tests and the
bench.
"""

from __future__ import annotations

import asyncio
import json
import logging
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from .. import telemetry
from ..data import Entity, EntityPair
from ..pipeline import MatchDecision
from ..telemetry import REGISTRY
from .registry import ModelRegistry, TenantLease, UnknownDomain
from .request import ScoreRequest, ScoreResponse, next_request_id

logger = logging.getLogger("repro.serve")

#: Longest request line the server reads, in bytes: asyncio's default
#: ``StreamReader`` limit, passed explicitly so the ``frame-too-large``
#: reply can state it.
FRAME_LIMIT = 2 ** 16


class BackpressureError(RuntimeError):
    """Admission rejected: the daemon is past its high-water mark.

    ``retry_after`` (seconds) estimates when capacity frees up, derived
    from the queued depth and the recent scoring rate.
    """

    def __init__(self, retry_after: float, queued_pairs: int, limit: int):
        super().__init__(
            f"daemon at capacity ({queued_pairs}/{limit} pairs queued); "
            f"retry in {retry_after:.3f}s")
        self.retry_after = retry_after
        self.queued_pairs = queued_pairs
        self.limit = limit


@dataclass(frozen=True)
class DaemonConfig:
    """Knobs for admission, merging, and latency accounting."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the bound port is reported at startup
    #: Admission high-water mark: queued + inflight pairs past this reject.
    max_queued_pairs: int = 4096
    #: Collector flush threshold on merged pairs.
    max_batch_pairs: int = 256
    #: Collector flush threshold on merged (truncated) token estimate.
    max_batch_tokens: int = 16384
    #: Deadline from the oldest queued entry to a forced flush (seconds).
    flush_interval: float = 0.005
    #: Request-latency SLO; responses slower than this bump
    #: ``serve.daemon.slo_miss``.
    slo_seconds: float = 2.0
    #: Floor/ceiling for the backpressure retry hint (seconds).
    min_retry_after: float = 0.01
    max_retry_after: float = 5.0

    def __post_init__(self) -> None:
        if self.max_queued_pairs <= 0:
            raise ValueError("max_queued_pairs must be positive")
        if self.max_batch_pairs <= 0:
            raise ValueError("max_batch_pairs must be positive")
        if self.max_batch_tokens <= 0:
            raise ValueError("max_batch_tokens must be positive")
        if self.flush_interval <= 0:
            raise ValueError("flush_interval must be positive")


class _Pending:
    """One admitted request waiting in a collector."""

    __slots__ = ("request", "lease", "future", "span", "submitted", "tokens")

    def __init__(self, request: ScoreRequest, lease: TenantLease,
                 future: "asyncio.Future", span, submitted: float,
                 tokens: int):
        self.request = request
        self.lease = lease
        self.future = future
        self.span = span
        self.submitted = submitted
        self.tokens = tokens


class _Collector:
    """Pending requests for one (domain, digest), awaiting merge + flush."""

    __slots__ = ("key", "entries", "pairs", "tokens", "timer")

    def __init__(self, key: Tuple[str, str]):
        self.key = key
        self.entries: List[_Pending] = []
        self.pairs = 0
        self.tokens = 0
        self.timer: Optional[asyncio.TimerHandle] = None


def _token_estimate(pairs: Tuple[EntityPair, ...], max_len: int) -> int:
    """Upper-bound the padded footprint without touching the vocabulary
    (serialization is pure string work, safe on the event loop)."""
    return sum(min(len(pair.tokens()), max_len) for pair in pairs)


class ServeDaemon:
    """The asyncio request loop: admission → merge → score → scatter.

    Construct with a :class:`~repro.serve.registry.ModelRegistry` that
    already has (or will receive) published snapshots, then either
    :meth:`submit` requests directly from coroutines, or wrap it in the TCP
    front-end via :func:`serve_forever` / :func:`start_daemon_thread`.
    """

    def __init__(self, registry: ModelRegistry,
                 config: Optional[DaemonConfig] = None):
        self.registry = registry
        self.config = config or DaemonConfig()
        self._collectors: Dict[Tuple[str, str], _Collector] = {}
        # One dedicated scoring lane: numerics stay single-threaded (the
        # determinism contract), the loop stays free to admit and merge.
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-score")
        self._queued_pairs = 0     # admitted, not yet handed to the executor
        self._inflight_pairs = 0   # handed to the executor, not yet answered
        self._inflight_flushes = 0
        self._pairs_per_second = 0.0  # EMA of merged scoring throughput
        self._accepting = True
        self._closed = False
        self.stats = {
            "requests": 0, "rejected": 0, "failed": 0, "responses": 0,
            "flushes": 0, "merged_requests": 0, "merged_pairs": 0,
            "slo_misses": 0,
        }

    # -- admission ----------------------------------------------------------- #
    def _load(self) -> int:
        return self._queued_pairs + self._inflight_pairs

    def _retry_after(self) -> float:
        rate = self._pairs_per_second
        backlog = max(1, self._load())
        if rate > 0:
            estimate = backlog / rate
        else:
            # Cold start: no flush has completed yet, so there is no
            # measured rate to divide by.  A flat min_retry_after here
            # invited every rejected client back immediately no matter how
            # deep the backlog was; scale the floor by how many
            # max_batch_pairs flushes are already queued instead, so the
            # hint stays monotone in backlog from the very first request.
            # The first completed flush seeds the EMA (see _deliver) and
            # takes over from this estimate.
            estimate = self.config.min_retry_after * (
                1.0 + backlog / self.config.max_batch_pairs)
        return float(min(self.config.max_retry_after,
                         max(self.config.min_retry_after, estimate)))

    async def submit(self, request: ScoreRequest) -> ScoreResponse:
        """Admit, merge, score, and answer one request.

        Raises :class:`BackpressureError` past the high-water mark,
        :class:`~repro.serve.registry.UnknownDomain` for unroutable
        domains, and re-raises scoring failures.
        """
        loop = asyncio.get_running_loop()
        config = self.config
        num_pairs = request.num_pairs
        self.stats["requests"] += 1
        REGISTRY.counter("serve.daemon.requests").inc()
        if not self._accepting:
            raise RuntimeError("daemon is shutting down")
        if self._load() + num_pairs > config.max_queued_pairs:
            self.stats["rejected"] += 1
            REGISTRY.counter("serve.daemon.rejected").inc()
            raise BackpressureError(self._retry_after(), self._load(),
                                    config.max_queued_pairs)
        lease = self.registry.resolve(request.domain)  # may raise
        span = telemetry.span("serve.request", domain=request.domain,
                              request_id=request.request_id,
                              num_pairs=num_pairs)
        max_len = lease.engine.scheduler.max_len
        entry = _Pending(request, lease, loop.create_future(), span,
                         loop.time(), _token_estimate(request.pairs, max_len))
        key = (request.domain, lease.digest or "")
        collector = self._collectors.get(key)
        if collector is None:
            collector = self._collectors[key] = _Collector(key)
        collector.entries.append(entry)
        collector.pairs += num_pairs
        collector.tokens += entry.tokens
        self._queued_pairs += num_pairs
        if (collector.pairs >= config.max_batch_pairs
                or collector.tokens >= config.max_batch_tokens):
            self._flush(key)
        elif collector.timer is None:
            collector.timer = loop.call_later(config.flush_interval,
                                              self._flush, key)
        return await entry.future

    # -- merge + flush ------------------------------------------------------- #
    def _flush(self, key: Tuple[str, str]) -> None:
        collector = self._collectors.pop(key, None)
        if collector is None or not collector.entries:
            return
        if collector.timer is not None:
            collector.timer.cancel()
        loop = asyncio.get_running_loop()
        self._queued_pairs -= collector.pairs
        self._inflight_pairs += collector.pairs
        self._inflight_flushes += 1
        self.stats["flushes"] += 1
        self.stats["merged_requests"] += len(collector.entries)
        self.stats["merged_pairs"] += collector.pairs
        REGISTRY.counter("serve.daemon.flushes").inc()
        REGISTRY.counter("serve.daemon.merged_pairs").inc(collector.pairs)
        future = loop.run_in_executor(self._executor, self._score_merged,
                                      collector)
        future.add_done_callback(
            lambda f, c=collector: self._deliver(c, f))

    def _score_merged(self, collector: _Collector):
        """Executor-side: score every request of one flush back to back.

        Each request keeps its OWN batch composition (one engine run per
        request, not one run over the concatenated pairs).  This is what
        makes daemon decisions bit-identical to a standalone sequential
        engine: BLAS selects GEMM kernels per matrix shape, so scoring a
        request's pairs inside a larger merged batch can move the last ulp
        — decisions must never depend on which other requests happened to
        be in flight.  The merge win is everything around the matmul: one
        executor round-trip, one warm cache pass, and shared admission /
        telemetry overhead across all requests in the flush.
        """
        entries = collector.entries
        engine = entries[0].lease.engine
        started = time.perf_counter()
        responses = [engine.score_request(entry.request)
                     for entry in entries]
        return responses, time.perf_counter() - started

    def _deliver(self, collector: _Collector, future) -> None:
        """Loop-side: hand each caller its response from the shared flush."""
        loop = asyncio.get_running_loop()
        self._inflight_pairs -= collector.pairs
        self._inflight_flushes -= 1
        error = future.exception()
        responses, wall = ((None, 0.0) if error is not None
                           else future.result())
        if wall > 0:
            rate = collector.pairs / wall
            self._pairs_per_second = (
                rate if self._pairs_per_second == 0.0
                else 0.8 * self._pairs_per_second + 0.2 * rate)
        for index, entry in enumerate(collector.entries):
            latency = loop.time() - entry.submitted
            entry.span.set(latency_seconds=latency)
            if error is not None:
                entry.span.set(error=str(error))
                entry.span.finish()
                self.stats["failed"] += 1
                REGISTRY.counter("serve.daemon.failed").inc()
                if not entry.future.cancelled():
                    entry.future.set_exception(error)
            else:
                response = responses[index]
                entry.span.finish()
                self.stats["responses"] += 1
                REGISTRY.histogram("serve.daemon.request_seconds").observe(
                    latency)
                if latency > self.config.slo_seconds:
                    self.stats["slo_misses"] += 1
                    REGISTRY.counter("serve.daemon.slo_miss").inc()
                if not entry.future.cancelled():
                    entry.future.set_result(ScoreResponse(
                        request_id=entry.request.request_id,
                        domain=entry.request.domain,
                        decisions=response.decisions,
                        snapshot_digest=response.snapshot_digest,
                        metrics=response.metrics,
                        latency_seconds=latency,
                        routing=response.routing))
            entry.lease.release()

    # -- hot swap ------------------------------------------------------------ #
    async def publish(self, domain: str, directory: str,
                      num_workers: int = 0) -> str:
        """Load and hot-swap a snapshot without blocking the request loop.

        Loading happens on the default executor (not the scoring lane, which
        may be busy); the registry swap itself is atomic.  Requests already
        collected against the old digest flush on the old engine — the
        collector key includes the digest, so a merge can never mix
        snapshots.
        """
        loop = asyncio.get_running_loop()
        digest = await loop.run_in_executor(
            None, self.registry.publish, domain, directory, num_workers)
        REGISTRY.counter("serve.daemon.hot_swap").inc()
        return digest

    # -- introspection ------------------------------------------------------- #
    def snapshot_stats(self) -> Dict[str, Any]:
        flushes = self.stats["flushes"]
        merged = self.stats["merged_requests"]
        router = getattr(self.registry, "router", None)
        return {
            "risk": router.stats() if router is not None else None,
            **self.stats,
            "queued_pairs": self._queued_pairs,
            "inflight_pairs": self._inflight_pairs,
            "pairs_per_second_ema": self._pairs_per_second,
            "domains": self.registry.domains(),
            "requests_per_flush": merged / flushes if flushes else 0.0,
            # Fraction of merged requests that shared their flush with at
            # least one other request — the daemon's merge win over
            # one-request-one-batch serving.
            "merge_efficiency": (merged - flushes) / merged if merged else 0.0,
        }

    # -- lifecycle ----------------------------------------------------------- #
    async def drain(self, timeout: float = 30.0) -> None:
        """Flush every collector and wait for in-flight scoring to finish."""
        self._accepting = False
        for key in list(self._collectors):
            self._flush(key)
        deadline = time.monotonic() + timeout
        while (self._inflight_flushes or self._collectors):
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"daemon drain timed out with {self._inflight_flushes} "
                    f"flush(es) in flight")
            await asyncio.sleep(0.002)

    async def aclose(self) -> None:
        """Drain, then tear down the executor and every tenant engine."""
        if self._closed:
            return
        self._closed = True
        await self.drain()
        self._executor.shutdown(wait=True)
        self.registry.close()


# --------------------------------------------------------------------------- #
# wire protocol (JSON lines over TCP)
# --------------------------------------------------------------------------- #

def entity_to_wire(entity: Entity) -> Dict[str, Any]:
    return {"id": entity.entity_id, "attributes": dict(entity.attributes)}

def entity_from_wire(obj: Dict[str, Any]) -> Entity:
    return Entity(str(obj["id"]),
                  {str(k): (None if v is None else str(v))
                   for k, v in dict(obj["attributes"]).items()})

def pair_to_wire(pair: EntityPair) -> Dict[str, Any]:
    return {"left": entity_to_wire(pair.left),
            "right": entity_to_wire(pair.right)}

def pair_from_wire(obj: Dict[str, Any]) -> EntityPair:
    return EntityPair(entity_from_wire(obj["left"]),
                      entity_from_wire(obj["right"]))

def decision_to_wire(decision: MatchDecision) -> Dict[str, Any]:
    return {"left_id": decision.left_id, "right_id": decision.right_id,
            "probability": decision.probability,
            "is_match": decision.is_match}

def decision_from_wire(obj: Dict[str, Any]) -> MatchDecision:
    return MatchDecision(str(obj["left_id"]), str(obj["right_id"]),
                         float(obj["probability"]))


class DaemonServer:
    """TCP front-end: one JSON object per line in, one per line out."""

    def __init__(self, daemon: ServeDaemon):
        self.daemon = daemon
        self._server: Optional[asyncio.AbstractServer] = None
        self._shutdown = asyncio.Event()
        self.address: Optional[Tuple[str, int]] = None

    async def start(self) -> Tuple[str, int]:
        config = self.daemon.config
        self._server = await asyncio.start_server(
            self._handle_connection, config.host, config.port,
            limit=FRAME_LIMIT)
        sock = self._server.sockets[0]
        self.address = sock.getsockname()[:2]
        logger.info("repro serve listening on %s:%d", *self.address)
        return self.address

    async def serve_until_shutdown(self) -> None:
        await self._shutdown.wait()
        self._server.close()
        await self._server.wait_closed()
        await self.daemon.aclose()

    def request_shutdown(self) -> None:
        self._shutdown.set()

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # Over FRAME_LIMIT: the rest of the frame may still be
                    # in flight, so no later line boundary can be trusted.
                    await self._send(writer, {"ok": False,
                                              "error": "frame-too-large",
                                              "limit": FRAME_LIMIT})
                    break
                if not line:
                    break
                try:
                    message = json.loads(line)
                except (json.JSONDecodeError, UnicodeDecodeError) as error:
                    await self._send(writer, {"ok": False,
                                              "error": "bad-json",
                                              "detail": str(error)})
                    continue
                if not isinstance(message, dict):
                    await self._send(writer, {
                        "ok": False, "error": "bad-request",
                        "detail": f"expected a JSON object, got "
                                  f"{type(message).__name__}"})
                    continue
                reply = await self._dispatch(message)
                await self._send(writer, reply)
                if message.get("op") == "shutdown":
                    break
        except (ConnectionResetError, BrokenPipeError):  # client went away
            pass
        except asyncio.CancelledError:  # loop teardown at shutdown
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError,
                    asyncio.CancelledError):
                pass

    @staticmethod
    async def _send(writer: asyncio.StreamWriter,
                    payload: Dict[str, Any]) -> None:
        writer.write(json.dumps(payload).encode() + b"\n")
        await writer.drain()

    async def _dispatch(self, message: Dict[str, Any]) -> Dict[str, Any]:
        op = message.get("op")
        request_id = message.get("id", "")
        try:
            if op == "ping":
                return {"ok": True, "op": "ping"}
            if op == "stats":
                return {"ok": True, "stats": self.daemon.snapshot_stats()}
            if op == "domains":
                return {"ok": True,
                        "domains": self.daemon.registry.domains()}
            if op == "publish":
                digest = await self.daemon.publish(
                    str(message["domain"]), str(message["directory"]),
                    int(message.get("workers", 0)))
                return {"ok": True, "domain": message["domain"],
                        "digest": digest}
            if op == "shutdown":
                self.request_shutdown()
                return {"ok": True, "op": "shutdown"}
            if op == "score":
                request = ScoreRequest(
                    pairs=tuple(pair_from_wire(p)
                                for p in message["pairs"]),
                    request_id=str(request_id) or next_request_id(),
                    domain=str(message.get("domain", "default")))
                response = await self.daemon.submit(request)
                decisions = [decision_to_wire(d)
                             for d in response.decisions]
                if response.routing is not None:
                    # Risk routing on: each decision carries its routing
                    # verdict; "review" means the daemon refused to
                    # auto-decide and durably queued the pair.
                    for obj, routed in zip(decisions, response.routing):
                        obj.update(routed.to_wire())
                return {"ok": True, "id": response.request_id,
                        "domain": response.domain,
                        "digest": response.snapshot_digest,
                        "latency_seconds": response.latency_seconds,
                        "routed": response.routing is not None,
                        "decisions": decisions}
            return {"ok": False, "id": request_id, "error": "unknown-op",
                    "detail": f"unknown op {op!r}"}
        except BackpressureError as error:
            return {"ok": False, "id": request_id, "error": "backpressure",
                    "retry_after": error.retry_after,
                    "queued_pairs": error.queued_pairs}
        except UnknownDomain as error:
            return {"ok": False, "id": request_id, "error": "unknown-domain",
                    "detail": str(error), "known": error.known}
        except (KeyError, TypeError, ValueError) as error:
            return {"ok": False, "id": request_id, "error": "bad-request",
                    "detail": f"{type(error).__name__}: {error}"}
        except Exception as error:  # scoring failure: report, keep serving
            logger.exception("daemon request failed")
            return {"ok": False, "id": request_id, "error": "internal",
                    "detail": f"{type(error).__name__}: {error}"}


async def serve_forever(registry: ModelRegistry,
                        config: Optional[DaemonConfig] = None,
                        ready: Optional["asyncio.Future"] = None) -> None:
    """Run a daemon until a ``shutdown`` op arrives (the CLI entry point)."""
    daemon = ServeDaemon(registry, config)
    server = DaemonServer(daemon)
    address = await server.start()
    if ready is not None and not ready.done():
        ready.set_result(address)
    await server.serve_until_shutdown()


# --------------------------------------------------------------------------- #
# in-process hosting (tests, bench)
# --------------------------------------------------------------------------- #

class DaemonHandle:
    """A daemon running on its own thread + event loop.

    ``address`` is the bound (host, port); :meth:`stop` requests shutdown
    and joins the thread.  Context-manager friendly.
    """

    def __init__(self, registry: ModelRegistry,
                 config: Optional[DaemonConfig] = None):
        self.registry = registry
        self.config = config or DaemonConfig()
        self.address: Optional[Tuple[str, int]] = None
        self.daemon: Optional[ServeDaemon] = None
        self._server: Optional[DaemonServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(target=self._run,
                                        name="repro-serve-daemon",
                                        daemon=True)

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as error:  # surface startup/teardown failures
            self._error = error
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self.daemon = ServeDaemon(self.registry, self.config)
        self._server = DaemonServer(self.daemon)
        self.address = await self._server.start()
        self._ready.set()
        await self._server.serve_until_shutdown()

    def start(self, timeout: float = 30.0) -> Tuple[str, int]:
        if not self._thread.is_alive() and not self._ready.is_set():
            self._thread.start()
        if not self._ready.wait(timeout):
            raise TimeoutError("daemon failed to start in time")
        if self._error is not None:
            raise RuntimeError("daemon failed to start") from self._error
        return self.address

    def stop(self, timeout: float = 30.0) -> None:
        if self._loop is not None and self._thread.is_alive():
            try:
                self._loop.call_soon_threadsafe(self._server.request_shutdown)
            except RuntimeError:
                pass  # loop already closed: a client shut the daemon down
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise TimeoutError("daemon failed to stop in time")
        if self._error is not None:
            raise RuntimeError("daemon died") from self._error

    def __enter__(self) -> "DaemonHandle":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def start_daemon_thread(registry: ModelRegistry,
                        config: Optional[DaemonConfig] = None,
                        ) -> DaemonHandle:
    """Host a daemon in-process; returns a started :class:`DaemonHandle`."""
    handle = DaemonHandle(registry, config)
    handle.start()
    return handle
