"""The batched scoring engine: one scheduler, inline or on a thread pool.

:class:`SequentialScorer` drives a persisted
:class:`~repro.pipeline.ERPipeline` at throughput, with batches formed by
the length-bucketing :class:`~repro.serve.scheduler.BatchScheduler`
instead of the legacy fixed-stride/full-padding loop.  At ``num_workers``
0 or 1 it runs every batch inline.  At ``num_workers >= 2`` it maps the
scheduled batches' forward passes over a
:class:`~concurrent.futures.ThreadPoolExecutor` (numpy releases the GIL
inside GEMMs and ufuncs); each pool thread replays its own
:class:`~repro.nn.compiled.CompiledInference`, because a compiled
program's buffers are reused across calls.

Only the forward runs on pool threads.  Scatter, cache admission,
metering and ``serve.batch`` spans stay on the calling thread, in schedule
order.  Batch formation is a pure function of the pair sequence and the
scheduler configuration, and each batch's forward is a pure function of its
padded ``(ids, mask)`` arrays, so the :class:`~repro.pipeline.MatchDecision`
list — and the cache contents — are **bit-identical** for any worker count.
Every run records :class:`~repro.serve.metrics.ServeMetrics` (pairs/sec,
p50/p95 batch latency, worker utilization).

The engine optionally fronts its scheduler with a content-addressed
:class:`~repro.serve.cache.ScoreCache` keyed by ``(manifest digest, token
ids)``: hits are scattered straight into the decision vector, only misses
are batched, and the probability vector is NaN-initialized with a
full-coverage assertion after the scatter loop so a scheduling bug can never
surface as an uninitialized "probability".

The engine is a :class:`RequestScorer`: its native unit of work is a
:class:`~repro.serve.request.ScoreRequest` (``score_request`` for one,
``score_stream`` for an iterable), and ``score_pairs`` is a compatibility
wrapper that builds an anonymous request.  The request core owns the run
shape — meter, cache lookup, scheduling, coverage assertion, per-run cache
stats — and :meth:`RequestScorer._score_batches` moves the floats.
"""

from __future__ import annotations

import logging
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .. import telemetry
from ..artifacts import ArtifactStore
from ..blocking import CandidateStream
from ..data import Entity, EntityPair
from ..nn import no_grad
from ..nn.compiled import CompiledInference
from ..pipeline import ERPipeline, MatchDecision
from .cache import ScoreCache, pair_key
from .metrics import ServeMetrics, ThroughputMeter
from .request import ScoreRequest, ScoreResponse, as_request
from .scheduler import BatchScheduler

logger = logging.getLogger("repro.serve")

#: Default number of candidate pairs buffered per streaming window.
STREAM_WINDOW = 2048


def _decisions(pairs: Sequence[EntityPair],
               probabilities: np.ndarray) -> List[MatchDecision]:
    return [MatchDecision(pair.left.entity_id, pair.right.entity_id, float(p))
            for pair, p in zip(pairs, probabilities)]


def _assert_covered(probabilities: np.ndarray, engine: str) -> None:
    """Refuse to emit any position the scatter loop never filled.

    The probability vector starts as all-NaN; a scheduler or dedup bug that
    skips a pair must surface as a loud error here, never as an
    uninitialized-memory "probability" in a decision list.
    """
    missing = np.flatnonzero(np.isnan(probabilities))
    if missing.size:
        preview = ", ".join(str(i) for i in missing[:8].tolist())
        suffix = ", ..." if missing.size > 8 else ""
        raise RuntimeError(
            f"{engine} scoring left {missing.size} of {probabilities.size} "
            f"pairs unscored (positions {preview}{suffix})")


def _cache_lookup(cache: ScoreCache, digest: str,
                  encoded: Sequence[Sequence[int]],
                  probabilities: np.ndarray,
                  meter: ThroughputMeter) -> Tuple[np.ndarray, List[str]]:
    """Fill cache hits into ``probabilities``; returns (miss positions, keys)."""
    with telemetry.span("serve.cache.lookup", num_pairs=len(encoded)):
        keys = [pair_key(seq) for seq in encoded]
        cached = cache.lookup(digest, keys)
    hit = np.isfinite(cached)
    probabilities[hit] = cached[hit]
    meter.record_cached(int(hit.sum()))
    meter.record_misses(int((~hit).sum()))
    return np.flatnonzero(~hit), keys


def _snapshot_calibrator(directory: Union[str, Path]):
    """The snapshot's persisted risk calibrator, or ``None`` (logged)."""
    from ..risk.calibration import load_calibrator  # lazy: avoids a cycle
    calibrator = load_calibrator(ArtifactStore(Path(directory)))
    if calibrator is None:
        logger.warning(
            "snapshot %s carries no calibration.json; risk routing will "
            "band raw matcher probabilities", directory)
    return calibrator


class RequestScorer:
    """The request-stream core of the scoring engine.

    Subclasses provide ``self.scheduler``, ``self.cache``, ``self._digest``
    plus the :meth:`_score_batches` hook, and inherit the whole run shape:
    meter lifecycle, cache lookup before batch formation, coverage
    assertion, per-run (meter-local, race-free) cache statistics, and the
    ``score_request`` / ``score_stream`` / ``score_pairs`` surface.
    """

    #: Engine label stamped into metrics and spans; set by subclasses.
    engine_name = "abstract"

    scheduler: BatchScheduler
    cache: Optional[ScoreCache]
    _digest: Optional[str]
    last_metrics: Optional[ServeMetrics]
    #: Optional :class:`repro.risk.RiskRouter`; when set, every response
    #: carries per-decision routing annotations and uncertain pairs land
    #: on the router's review queue.  The decision list itself is computed
    #: before routing and never modified by it.
    router = None
    #: Optional :class:`repro.risk.Calibrator` loaded from the snapshot
    #: (``calibration.json``); ``None`` routes raw probabilities.
    calibrator = None

    @property
    def snapshot_digest(self) -> Optional[str]:
        """Manifest digest of the snapshot this engine scores with."""
        return self._digest

    def _meter_workers(self) -> int:
        return 1

    def _score_batches(self, encoded: Sequence[Sequence[int]],
                       positions: Optional[np.ndarray],
                       keys: List[str], probabilities: np.ndarray,
                       meter: ThroughputMeter) -> None:
        """Score every scheduled batch into ``probabilities``."""
        raise NotImplementedError

    def _admit_scored(self, batch, probs: np.ndarray, keys: List[str],
                      meter: ThroughputMeter) -> None:
        """Cache one batch's scores, attributing evictions to this run."""
        if self.cache is not None:
            evicted = self.cache.put_many(
                self._digest,
                [keys[i] for i in batch.row_positions.tolist()], probs)
            meter.record_evictions(evicted)

    def score_request(self, request: ScoreRequest) -> ScoreResponse:
        """Score one request; decisions come back in request order."""
        meter = ThroughputMeter(self.engine_name,
                                num_workers=self._meter_workers())
        pairs = request.pairs
        if not pairs:  # zero work: never touch (or spin up) the pool
            self.last_metrics = meter.finalize()
            return ScoreResponse(request_id=request.request_id,
                                 domain=request.domain, decisions=[],
                                 snapshot_digest=self._digest,
                                 metrics=self.last_metrics,
                                 routing=([] if self.router is not None
                                          else None))
        probabilities = np.full(len(pairs), np.nan, dtype=np.float64)
        encoded = self.scheduler.encode(pairs)
        keys: List[str] = []
        if self.cache is not None:
            positions, keys = _cache_lookup(self.cache, self._digest, encoded,
                                            probabilities, meter)
            encoded = [encoded[i] for i in positions]
        else:
            positions = None
        self._score_batches(encoded, positions, keys, probabilities, meter)
        _assert_covered(probabilities, self.engine_name)
        cache_stats = (meter.cache_stats(len(self.cache))
                       if self.cache is not None else None)
        self.last_metrics = meter.finalize(cache=cache_stats)
        decisions = _decisions(pairs, probabilities)
        routing = None
        if self.router is not None:
            # Annotate-only: the decision list above is already final, so
            # routing (and any fault inside it) can never move a
            # probability — the bit-identity contract the risk tier pins.
            routing = self.router.route(pairs, decisions, self.calibrator,
                                        self._digest, request.domain)
        return ScoreResponse(request_id=request.request_id,
                             domain=request.domain,
                             decisions=decisions,
                             snapshot_digest=self._digest,
                             metrics=self.last_metrics,
                             routing=routing)

    def score_stream(self, requests: Iterable[ScoreRequest]
                     ) -> Iterator[ScoreResponse]:
        """Score a request stream lazily, one response per request."""
        for request in requests:
            yield self.score_request(as_request(request))

    def score_pairs(self, pairs: Sequence[EntityPair]) -> List[MatchDecision]:
        """Compatibility wrapper: one anonymous request, decisions only."""
        return self.score_request(as_request(pairs)).decisions


class SequentialScorer(RequestScorer):
    """Scoring through the length-bucketing scheduler, inline or threaded.

    ``num_workers`` 0 or 1 scores every batch on the calling thread.  At
    ``num_workers >= 2`` the batches' forward passes run on a lazily
    started thread pool of that size; decisions are bit-identical to the
    inline run.  Call :meth:`close` (or use the scorer as a context
    manager) to stop the pool; a closed scorer refuses further threaded
    work instead of silently restarting it.

    With ``cache`` set, every request consults the content-addressed
    :class:`~repro.serve.cache.ScoreCache` before batch formation — only
    misses are encoded into batches — and newly scored probabilities are
    admitted back.  The pipeline must carry a ``manifest_digest`` (any
    pipeline saved or loaded through :class:`ERPipeline` does), because the
    snapshot identity is half of every cache key.
    """

    def __init__(self, pipeline: ERPipeline,
                 scheduler: Optional[BatchScheduler] = None,
                 cache: Optional[ScoreCache] = None,
                 router=None, calibrator=None, compiled: bool = False,
                 num_workers: int = 0):
        if num_workers < 0:
            raise ValueError("num_workers must be >= 0")
        self.pipeline = pipeline
        self.scheduler = scheduler or BatchScheduler(
            pipeline.extractor.vocab, pipeline.extractor.max_len)
        self.cache = cache
        self.router = router
        self.calibrator = calibrator
        self.num_workers = num_workers
        self._digest = getattr(pipeline, "manifest_digest", None)
        #: Trace-and-replay engine (``compiled=True``): programs recorded
        #: per (digest, bucket shape), transparent tape fallback otherwise.
        #: Inline scoring replays this one; each pool thread records its own.
        self.compiled: Optional[CompiledInference] = (
            CompiledInference(pipeline, digest=self._digest)
            if compiled else None)
        if cache is not None and self._digest is None:
            raise ValueError(
                "a ScoreCache needs the pipeline's snapshot identity; save "
                "or load the pipeline through ERPipeline so it carries a "
                "manifest_digest")
        self.last_metrics: Optional[ServeMetrics] = None
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_lock = threading.Lock()
        self._thread_state = threading.local()
        self._closed = False

    @classmethod
    def from_directory(cls, directory: Union[str, Path],
                       cache: Optional[ScoreCache] = None,
                       router=None, compiled: bool = False,
                       num_workers: int = 0,
                       **scheduler_kwargs) -> "SequentialScorer":
        pipeline = ERPipeline.load(directory)
        scheduler = BatchScheduler(pipeline.extractor.vocab,
                                   pipeline.extractor.max_len,
                                   **scheduler_kwargs)
        calibrator = _snapshot_calibrator(directory) if router else None
        return cls(pipeline, scheduler, cache=cache, router=router,
                   calibrator=calibrator, compiled=compiled,
                   num_workers=num_workers)

    @property
    def engine_name(self) -> str:
        """Label stamped into metrics and spans."""
        return "parallel" if self.num_workers > 1 else "sequential"

    def _meter_workers(self) -> int:
        return max(1, self.num_workers)

    # -- thread pool ------------------------------------------------------- #
    def _init_pool_thread(self) -> None:
        # A compiled program replays into preallocated buffers, so no two
        # threads may share one: each pool thread records its own.
        if self.compiled is not None:
            self._thread_state.compiled = CompiledInference(
                self.pipeline, digest=self._digest)

    def _executor(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._closed:
                raise RuntimeError(
                    "SequentialScorer is closed; construct a new scorer "
                    "instead of reusing one whose thread pool has stopped")
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.num_workers,
                    thread_name_prefix="repro-score",
                    initializer=self._init_pool_thread)
            return self._pool

    def close(self) -> None:
        """Stop the thread pool, if one started; safe to call twice."""
        with self._pool_lock:
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "SequentialScorer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- scoring ----------------------------------------------------------- #
    def _forward(self, compiled: Optional[CompiledInference],
                 batch) -> np.ndarray:
        if compiled is not None:
            return compiled.probabilities(batch.ids, batch.mask)
        # Inference never reads the tape — skip building it.  Entered here,
        # per call, because the no-grad contextvar does not follow work
        # into pool threads.
        with no_grad():
            return self.pipeline.matcher.probabilities(
                self.pipeline.extractor.encode(batch.ids, batch.mask))

    def _pool_forward(self, batch) -> Tuple[np.ndarray, float]:
        """One batch's forward on a pool thread: (probabilities, seconds)."""
        started = time.perf_counter()
        probs = self._forward(getattr(self._thread_state, "compiled", None),
                              batch)
        return probs, time.perf_counter() - started

    def _score_batches(self, encoded, positions, keys, probabilities,
                       meter) -> None:
        batches = self.scheduler.schedule_encoded(encoded, positions)
        if self.num_workers > 1:
            with telemetry.span("serve.schedule", num_pairs=len(encoded)):
                batches = list(batches)
            self._score_on_pool(batches, keys, probabilities, meter)
            return
        for batch in batches:
            with telemetry.span("serve.batch", engine=self.engine_name,
                                num_pairs=batch.num_pairs,
                                padded_length=batch.padded_length) as sp:
                probs = self._forward(self.compiled, batch)
            meter.record_batch(batch.num_covered, sp.duration)
            batch.scatter(probabilities, probs)
            self._admit_scored(batch, probs, keys, meter)

    def _score_on_pool(self, batches, keys, probabilities, meter) -> None:
        if not batches:  # a fully warm request never starts the pool
            return
        pool = self._executor()
        futures = [pool.submit(self._pool_forward, batch)
                   for batch in batches]
        try:
            for batch, future in zip(batches, futures):
                with telemetry.span("serve.batch", engine=self.engine_name,
                                    num_pairs=batch.num_pairs,
                                    padded_length=batch.padded_length) as sp:
                    probs, busy = future.result()
                    sp.set(busy_seconds=busy)
                meter.record_batch(batch.num_covered, busy)
                batch.scatter(probabilities, probs)
                self._admit_scored(batch, probs, keys, meter)
        finally:  # on error, drop the batches no thread has started yet
            for future in futures:
                future.cancel()

    # -- streaming --------------------------------------------------------- #
    def score_tables(self, left_table: Iterable[Entity],
                     right_table: Iterable[Entity],
                     window: int = STREAM_WINDOW,
                     blocker: Optional[CandidateStream] = None
                     ) -> Iterator[MatchDecision]:
        """Stream decisions for every blocked candidate pair.

        ``blocker`` overrides the snapshot's own overlap blocker — any
        :class:`~repro.blocking.CandidateStream` works, e.g. a
        :class:`repro.scale.ShardedBlocker` streaming entity chunks.
        """
        yield from _stream_tables(self, blocker or self.pipeline.blocker,
                                  left_table, right_table, window)

    def match_tables(self, left_table: Iterable[Entity],
                     right_table: Iterable[Entity]) -> List[Tuple[str, str]]:
        """Blocked + matched id pairs above the snapshot's threshold."""
        return [(d.left_id, d.right_id)
                for d in self.score_tables(left_table, right_table)
                if d.probability >= self.pipeline.threshold]


# --------------------------------------------------------------------------- #
# streaming API
# --------------------------------------------------------------------------- #

def _stream_tables(scorer, blocker: CandidateStream,
                   left_table: Iterable[Entity],
                   right_table: Iterable[Entity],
                   window: int) -> Iterator[MatchDecision]:
    """Block lazily and score in bounded windows — O(window) memory."""
    if window <= 0:
        raise ValueError("window must be positive")
    buffer: List[EntityPair] = []
    for pair in blocker.iter_candidates(left_table, right_table):
        buffer.append(pair)
        if len(buffer) >= window:
            yield from scorer.score_pairs(buffer)
            buffer = []
    if buffer:
        yield from scorer.score_pairs(buffer)


def score_tables(pipeline: Union[ERPipeline, str, Path],
                 left_table: Iterable[Entity],
                 right_table: Iterable[Entity],
                 num_workers: int = 0,
                 window: int = STREAM_WINDOW,
                 cache: Optional[ScoreCache] = None,
                 router=None,
                 blocker: Optional[CandidateStream] = None,
                 **scheduler_kwargs) -> Iterator[MatchDecision]:
    """Stream a :class:`MatchDecision` for every blocked candidate pair.

    ``pipeline`` is either a live :class:`ERPipeline` or a snapshot
    directory.  Scoring runs through :class:`SequentialScorer`: inline at
    ``num_workers`` 0 or 1, on a thread pool of that size at ``>= 2``, with
    bit-identical decisions either way.  Decisions stream in blocker order
    with at most ``window`` candidates buffered, so two large tables never
    materialize their full candidate set.  Filter on ``d.probability`` (or
    ``d.is_match``) to keep matches only.  ``cache`` memoizes probabilities
    across windows and calls — overlapping candidate sets are scored once.
    ``router`` (a :class:`repro.risk.RiskRouter`) annotates every window as
    it streams — uncertain pairs land on the router's review queue — while
    the yielded decisions stay bit-identical to a router-less run.
    ``blocker`` substitutes any :class:`~repro.blocking.CandidateStream`
    for the snapshot's built-in overlap blocker — the scale pipeline passes
    a :class:`repro.scale.ShardedBlocker` here, with both tables as lazy
    entity streams.
    """
    calibrator = None
    if not isinstance(pipeline, ERPipeline):
        if router is not None:
            calibrator = _snapshot_calibrator(pipeline)
        pipeline = ERPipeline.load(pipeline)
    with SequentialScorer(pipeline, BatchScheduler(
            pipeline.extractor.vocab, pipeline.extractor.max_len,
            **scheduler_kwargs), cache=cache, router=router,
            calibrator=calibrator, num_workers=num_workers) as scorer:
        yield from scorer.score_tables(left_table, right_table,
                                       window=window, blocker=blocker)
