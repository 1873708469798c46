"""Which public calls a traced run wraps, and the per-layer metrics.

:func:`install` wraps every call in the table below on its defining class
(or, for the trainers' ``evaluate``, on the module that calls it) and
returns the :class:`~perfbench.spans.Patches` that undo it.  The program's
files are untouched; a traced run only replaces attributes for its own
duration.

=====================  ==================================================
span name              wrapped call
=====================  ==================================================
``data.read``          ``next()`` on the ``iter_entity_table`` streams the
                       benchmark hands in (wrapped at the call site)
``minhash.*``          ``MinHasher.signatures`` / ``.band_keys``
``artifacts.*``        ``ArtifactStore.write`` / ``.read``
``blocker``            ``next()`` on ``ShardedBlocker.iter_candidates``
``scheduler.*``        ``BatchScheduler.encode`` / ``next()`` on
                       ``.schedule_encoded``
``cache.*``            ``ScoreCache.lookup`` / ``.put_many``
``nn.encode``          ``TransformerExtractor.encode``
``nn.probabilities``   ``MlpMatcher.probabilities``
``nn.compiled``        ``CompiledInference.probabilities``
``engine``             ``RequestScorer.score_request``
``cluster.*``          ``TransitiveClusterer.add_entities`` /
                       ``.add_decisions`` / ``.clusters``
``nn.backward``        ``Tensor.backward``
``optim.step``         ``step`` of every ``repro.nn.optim`` optimizer
``aligner.loss``       ``alignment_loss`` / ``discriminator_loss`` /
                       ``generator_loss`` of every aligner class
``train.eval``         ``repro.train.metrics.evaluate`` as the trainers
                       call it (``repro.train.loops.evaluate``)
=====================  ==================================================
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional

import numpy as np

from .common import current_rss_mb
from .spans import (Patches, Span, SpanRecorder, ancestors, outermost_total,
                    self_times)

#: Span name -> the layer its self time is charged to.
LAYER_OF = {
    "run": "runner",
    "data.read": "repro.data",
    "minhash.signatures": "repro.scale.minhash",
    "minhash.band_keys": "repro.scale.minhash",
    "artifacts.write": "repro.artifacts",
    "artifacts.read": "repro.artifacts",
    "blocker": "repro.scale.blocker",
    "scheduler.encode": "repro.serve.scheduler",
    "scheduler.schedule": "repro.serve.scheduler",
    "cache.lookup": "repro.serve.cache",
    "cache.put": "repro.serve.cache",
    "nn.encode": "repro.nn",
    "nn.probabilities": "repro.nn",
    "nn.compiled": "repro.nn",
    "engine": "repro.serve.engine",
    "cluster.add_entities": "repro.scale.cluster",
    "cluster.add_decisions": "repro.scale.cluster",
    "cluster.clusters": "repro.scale.cluster",
    "nn.backward": "repro.nn",
    "optim.step": "repro.nn.optim",
    "aligner.loss": "repro.aligners",
    "train.eval": "repro.train",
}

_ALIGNER_METHODS = ("alignment_loss", "discriminator_loss", "generator_loss")


def _sample_blocker_rss(recorder: SpanRecorder, inside: bool = False) -> None:
    """Track peak RSS at span boundaries inside the candidate iterator."""
    if inside or recorder.inside("blocker"):
        key = "blocker.peak_rss_mb"
        recorder.counts[key] = max(recorder.counts[key], current_rss_mb())


def install(recorder: SpanRecorder) -> Patches:
    """Wrap every call in the module table; returns the undo handle."""
    from repro import aligners
    from repro.artifacts import ArtifactStore
    from repro.extractors.transformer import TransformerExtractor
    from repro.matcher.mlp import MlpMatcher
    from repro.nn import Tensor, grad_enabled, optim
    from repro.nn.compiled import CompiledInference
    from repro.scale.blocker import ShardedBlocker
    from repro.scale.cluster import TransitiveClusterer
    from repro.scale.minhash import MinHasher
    from repro.serve.cache import ScoreCache
    from repro.serve.engine import RequestScorer
    from repro.serve.scheduler import BatchScheduler
    from repro.train import loops

    count = recorder.count
    patches = Patches()
    try:
        def signatures(span, args, kwargs, result):
            count("minhash.rows", len(args[1]))
            _sample_blocker_rss(recorder)

        patches.wrap_call(recorder, MinHasher, "signatures",
                          "minhash.signatures", after=signatures)
        patches.wrap_call(recorder, MinHasher, "band_keys",
                          "minhash.band_keys")

        def wrote(span, args, kwargs, path):
            count("artifacts.write_bytes", path.stat().st_size)
            _sample_blocker_rss(recorder)

        def read(span, args, kwargs, result):
            count("artifacts.reads")
            count("artifacts.read_bytes",
                  args[0].path(args[1]).stat().st_size)
            _sample_blocker_rss(recorder)

        patches.wrap_call(recorder, ArtifactStore, "write",
                          "artifacts.write", after=wrote)
        patches.wrap_call(recorder, ArtifactStore, "read", "artifacts.read",
                          after=read)

        def candidate(span, pair):
            if span.duration > 1e-3:  # a probe window's worth of work
                _sample_blocker_rss(recorder, inside=True)

        patches.wrap_iter(recorder, ShardedBlocker, "iter_candidates",
                          "blocker", on_item=candidate)

        def batch(span, item):
            count("scheduler.batches")
            count("scheduler.rows", item.num_pairs)
            count("scheduler.covered", item.num_covered)
            count("scheduler.real_tokens", float(item.mask.sum()))
            count("scheduler.padded_tokens", int(item.mask.size))

        patches.wrap_call(recorder, BatchScheduler, "encode",
                          "scheduler.encode")
        patches.wrap_iter(recorder, BatchScheduler, "schedule_encoded",
                          "scheduler.schedule", on_item=batch)

        def looked_up(span, args, kwargs, result):
            hits = int(np.isfinite(result).sum())
            span.attrs = dict(span.attrs or {}, hits=hits,
                              misses=int(result.size) - hits)
            count("cache.hits", hits)
            count("cache.lookups", int(result.size))

        patches.wrap_call(recorder, ScoreCache, "lookup", "cache.lookup",
                          after=looked_up)
        patches.wrap_call(recorder, ScoreCache, "put_many", "cache.put")

        def forward(span, args, kwargs, result):
            ids = args[1]
            span.attrs = dict(span.attrs or {}, grad=grad_enabled(),
                              rows=int(ids.shape[0]), tokens=int(ids.size))

        patches.wrap_call(recorder, TransformerExtractor, "encode",
                          "nn.encode", after=forward)
        patches.wrap_call(recorder, MlpMatcher, "probabilities",
                          "nn.probabilities")

        seen: Dict[int, Dict[str, int]] = {}

        def compiled(span, args, kwargs, result):
            stats = args[0].stats
            last = seen.get(id(args[0]), {})
            count("nn.compiles", stats["compiles"] - last.get("compiles", 0))
            count("nn.replays", stats["replays"] - last.get("replays", 0))
            seen[id(args[0])] = dict(stats)

        patches.wrap_call(recorder, CompiledInference, "probabilities",
                          "nn.compiled", after=compiled)
        patches.wrap_call(
            recorder, RequestScorer, "score_request", "engine",
            attrs=lambda args, kwargs: {"request_id": args[1].request_id})

        def decided(span, args, kwargs, result):
            count("cluster.decisions", len(args[1]))

        # The bulk forms: one span per chunk or window, not per entity.
        patches.wrap_call(recorder, TransitiveClusterer, "add_entities",
                          "cluster.add_entities")
        patches.wrap_call(recorder, TransitiveClusterer, "add_decisions",
                          "cluster.add_decisions", after=decided)
        patches.wrap_call(recorder, TransitiveClusterer, "clusters",
                          "cluster.clusters")

        patches.wrap_call(recorder, Tensor, "backward", "nn.backward")

        def stepped(span, args, kwargs, result):
            count("optim.steps")

        for cls in _own_subclasses(optim.Optimizer, optim):
            if "step" in vars(cls):
                patches.wrap_call(recorder, cls, "step", "optim.step",
                                  after=stepped)
        for cls in _own_subclasses(aligners.FeatureAligner, aligners):
            for method in _ALIGNER_METHODS:
                if method in vars(cls):
                    patches.wrap_call(recorder, cls, method, "aligner.loss")
        patches.wrap_call(recorder, loops, "evaluate", "train.eval")
    except BaseException:
        patches.restore()
        raise
    return patches


def _own_subclasses(base: type, package: Any) -> List[type]:
    """Every subclass of ``base`` defined under ``package``'s modules."""
    found, pending = [], list(base.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if cls.__module__.startswith(package.__name__):
            found.append(cls)
    return sorted(set(found), key=lambda c: c.__qualname__)


# --------------------------------------------------------------------------- #
# metric derivation
# --------------------------------------------------------------------------- #

#: Every per-layer metric, with its unit.  A traced run of any workload
#: reports all of them; layers a workload never calls read 0.
PER_LAYER_UNITS = {
    "data.read_s": "s", "data.rows": "count",
    "minhash.signatures_s": "s", "minhash.band_keys_s": "s",
    "minhash.rows": "count",
    "artifacts.write_s": "s", "artifacts.write_bytes": "bytes",
    "artifacts.read_s": "s", "artifacts.reads": "count",
    "artifacts.read_bytes": "bytes",
    "blocker.self_s": "s", "blocker.candidates": "count",
    "blocker.precision": "ratio", "blocker.shards": "count",
    "blocker.windows": "count", "blocker.peak_rss_mb": "MB",
    "scheduler.encode_s": "s", "scheduler.schedule_s": "s",
    "scheduler.batches": "count", "scheduler.unique_share": "ratio",
    "scheduler.padding_efficiency": "ratio",
    "cache.lookup_s": "s", "cache.put_s": "s", "cache.hit_rate": "ratio",
    "nn.forward_s": "s", "nn.rows": "count", "nn.padded_tokens": "count",
    "nn.compiles": "count", "nn.replays": "count",
    "engine.self_s": "s", "engine.requests": "count",
    "daemon.server_p50_ms": "ms", "daemon.server_p99_ms": "ms",
    "wire.p50_ms": "ms", "daemon.requests_per_flush": "ratio",
    "daemon.rejected": "count", "daemon.failed": "count",
    "cluster.s": "s", "cluster.decisions": "count",
    "cluster.merged_edges": "count",
    "nn.backward_s": "s", "nn.train_forward_s": "s", "optim.step_s": "s",
    "optim.steps": "count",
    "aligner.loss_s": "s",
    "train.eval_s": "s", "train.recoveries": "count",
    "input.unique_share": "ratio",
    "trace.wall_s": "s", "trace.overhead_s": "s",
    "trace.unattributed_share": "ratio", "trace.spans": "count",
}


def _sum_self(spans: Iterable[Span], selfs: Dict[int, float],
              names: Iterable[str]) -> float:
    names = set(names)
    return sum(selfs[s.id] for s in spans if s.name in names)


def layer_metrics(spans: List[Span], counts: Dict[str, float]
                  ) -> Dict[str, float]:
    """Per-layer metrics from one traced run's spans and counts.

    Times of one layer sum its outermost spans (a nested call of the same
    layer counts once); ``*.self_s`` subtracts child spans.  Inference
    forward time is ``nn.encode`` with autograd off or under evaluation,
    plus the matcher head and compiled replays; training forward time is
    ``nn.encode`` with autograd on outside evaluation.
    """
    by_id = {s.id: s for s in spans}
    selfs = self_times(spans)

    def under_eval(span: Span) -> bool:
        return any(a.name == "train.eval" for a in ancestors(span, by_id))

    def training(span: Span) -> bool:
        return bool((span.attrs or {}).get("grad")) and not under_eval(span)

    def total(*names: str, keep=None) -> float:
        return outermost_total(spans, names, by_id, keep)

    inference = [s for s in spans if s.name == "nn.encode"
                 and not training(s)
                 and not any(a.name == "nn.compiled"
                             for a in ancestors(s, by_id))]
    nn_names = ("nn.encode", "nn.probabilities", "nn.compiled")
    out = {name: 0.0 for name in PER_LAYER_UNITS}
    out.update({
        "data.read_s": total("data.read"),
        "data.rows": counts.get("data.rows", 0),
        "minhash.signatures_s": total("minhash.signatures"),
        "minhash.band_keys_s": total("minhash.band_keys"),
        "minhash.rows": counts.get("minhash.rows", 0),
        "artifacts.write_s": total("artifacts.write"),
        "artifacts.write_bytes": counts.get("artifacts.write_bytes", 0),
        "artifacts.read_s": total("artifacts.read"),
        "artifacts.reads": counts.get("artifacts.reads", 0),
        "artifacts.read_bytes": counts.get("artifacts.read_bytes", 0),
        "blocker.self_s": _sum_self(spans, selfs, ["blocker"]),
        "blocker.peak_rss_mb": counts.get("blocker.peak_rss_mb", 0),
        "scheduler.encode_s": total("scheduler.encode"),
        "scheduler.schedule_s": total("scheduler.schedule"),
        "scheduler.batches": counts.get("scheduler.batches", 0),
        "scheduler.unique_share": _ratio(counts.get("scheduler.rows", 0),
                                         counts.get("scheduler.covered", 0)),
        "scheduler.padding_efficiency": _ratio(
            counts.get("scheduler.real_tokens", 0),
            counts.get("scheduler.padded_tokens", 0)),
        "cache.lookup_s": total("cache.lookup"),
        "cache.put_s": total("cache.put"),
        "cache.hit_rate": _ratio(counts.get("cache.hits", 0),
                                 counts.get("cache.lookups", 0)),
        "nn.forward_s": total(*nn_names, keep=lambda s: not (
            s.name == "nn.encode" and training(s))),
        "nn.rows": sum(s.attrs["rows"] for s in inference),
        "nn.padded_tokens": sum(s.attrs["tokens"] for s in inference),
        "nn.compiles": counts.get("nn.compiles", 0),
        "nn.replays": counts.get("nn.replays", 0),
        "engine.self_s": _sum_self(spans, selfs, ["engine"]),
        "engine.requests": sum(1 for s in spans if s.name == "engine"),
        "cluster.s": total("cluster.add_entities", "cluster.add_decisions",
                           "cluster.clusters"),
        "cluster.decisions": counts.get("cluster.decisions", 0),
        "nn.backward_s": total("nn.backward"),
        "nn.train_forward_s": total("nn.encode", keep=training),
        "optim.step_s": total("optim.step"),
        "optim.steps": counts.get("optim.steps", 0),
        "aligner.loss_s": total("aligner.loss"),
        "train.eval_s": total("train.eval"),
        "trace.spans": len(spans),
    })
    return out


def _ratio(numerator: float, denominator: float) -> float:
    return float(numerator) / denominator if denominator else 0.0


def layer_self_times(spans: List[Span]) -> Dict[str, float]:
    """Self time per layer (see :data:`LAYER_OF`), runner glue included."""
    selfs = self_times(spans)
    out: Dict[str, float] = {}
    for span in spans:
        layer = LAYER_OF.get(span.name, span.name)
        out[layer] = out.get(layer, 0.0) + selfs[span.id]
    return out


def reconcile(spans: List[Span], root: Span) -> Dict[str, float]:
    """How much of the root's wall the layers' self times cover.

    Only spans inside ``root``'s tree count.  ``unattributed_share`` is
    the root's own self time — benchmark glue between layer calls — over
    its wall; the layers' self times sum to the rest exactly.
    """
    by_id = {s.id: s for s in spans}
    tree = [s for s in spans if s is root
            or any(a is root for a in ancestors(s, by_id))]
    per_layer = layer_self_times(tree)
    wall = root.duration
    runner = per_layer.pop("runner", 0.0)
    return {"wall_s": wall, "layers_s": sum(per_layer.values()),
            "unattributed_share": runner / wall if wall > 0 else 0.0,
            "per_layer": per_layer}


def rung_cache_misses(spans: List[Span], request_ids: Iterable[str]
                      ) -> Optional[int]:
    """Cache misses recorded by lookups made for ``request_ids``."""
    wanted = set(request_ids)
    misses = [int(s.attrs.get("misses", 0)) for s in spans
              if s.name == "cache.lookup" and s.attrs
              and s.attrs.get("request_id") in wanted]
    return sum(misses) if misses else None
