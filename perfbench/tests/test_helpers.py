"""Tests for the benchmark's own helpers.

Run with ``python3 -m pytest perfbench/tests -q`` from the repo root.
"""

import asyncio

import pytest

from perfbench import layers, openloop
from perfbench.common import tail_percentile
from perfbench.spans import Patches, Span, SpanRecorder, self_times


# -- the >=10-samples-beyond percentile rule --------------------------------- #

def test_tail_is_p99_when_enough_samples():
    values = list(range(2000))
    percentile, value = tail_percentile(values)
    assert percentile == 99.0
    assert value == 1979
    assert sum(v > value for v in values) == 20


def test_tail_falls_back_to_highest_percentile_with_ten_beyond():
    values = [float(v) for v in range(200)]
    percentile, value = tail_percentile(values[::-1])  # order-free
    assert percentile == pytest.approx(95.0)
    assert sum(v > value for v in values) == 10


def test_tail_at_exactly_1000_samples_keeps_p99():
    values = list(range(1000))
    percentile, value = tail_percentile(values)
    assert percentile == 99.0
    assert sum(v > value for v in values) == 10


def test_tail_refuses_too_few_samples():
    with pytest.raises(ValueError):
        tail_percentile(list(range(10)))


# -- self time from a span tree ---------------------------------------------- #

def _span(span_id, name, parent, start, end):
    span = Span(span_id, name, parent, start)
    span.end = end
    return span


def test_self_time_subtracts_direct_children_only():
    root = _span(0, "run", None, 0.0, 10.0)
    blocker = _span(1, "blocker", 0, 1.0, 5.0)
    minhash = _span(2, "minhash.signatures", 1, 2.0, 3.5)
    engine = _span(3, "engine", 0, 6.0, 9.0)
    forward = _span(4, "nn.encode", 3, 6.5, 8.0)
    spans = [root, blocker, minhash, engine, forward]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 4.0 - 3.0)
    assert selfs[1] == pytest.approx(4.0 - 1.5)
    assert selfs[2] == pytest.approx(1.5)
    assert selfs[3] == pytest.approx(3.0 - 1.5)
    assert sum(selfs.values()) == pytest.approx(root.duration)

    rec = layers.reconcile(spans, root)
    assert rec["wall_s"] == pytest.approx(10.0)
    assert rec["layers_s"] == pytest.approx(7.0)
    assert rec["unattributed_share"] == pytest.approx(0.3)
    assert rec["per_layer"]["repro.scale.blocker"] == pytest.approx(2.5)


def test_self_time_clips_a_child_that_outlives_its_parent():
    parent = _span(0, "blocker", None, 0.0, 2.0)
    child = _span(1, "data.read", 0, 1.5, 3.0)
    assert self_times([parent, child])[0] == pytest.approx(1.5)


def test_recorder_nests_spans_and_inherits_request_id():
    recorder = SpanRecorder()
    outer = recorder.begin("engine", request_id="q7")
    inner = recorder.begin("nn.encode")
    recorder.end(inner)
    recorder.end(outer)
    assert inner.parent == outer.id
    assert inner.attrs["request_id"] == "q7"
    assert [s.name for s in recorder.spans] == ["nn.encode", "engine"]


def test_timed_iter_records_one_span_per_next():
    recorder = SpanRecorder()
    assert list(recorder.timed_iter("data.read", iter([1, 2, 3]))) == [1, 2, 3]
    assert [s.name for s in recorder.spans] == ["data.read"] * 4


# -- latency timed from the due time ----------------------------------------- #

def test_latency_runs_from_due_time_through_a_stall():
    """One link, a daemon that takes 50 ms per request, three requests due
    10 ms apart: the later ones wait for the link, and that wait is part
    of their latency."""
    plan = [openloop.Planned(i, 0, 0.01 * i, i, False) for i in range(3)]

    async def slow_send(link, planned):
        await asyncio.sleep(0.05)
        return {"ok": True}

    outcomes, generator = asyncio.run(
        openloop.run_rung(plan, slow_send, links=1))
    assert [o.status for o in outcomes] == ["ok"] * 3
    for outcome in outcomes:
        assert outcome.latency == pytest.approx(outcome.done - outcome.due)
        assert outcome.sent >= outcome.handed >= outcome.due - 1e-3
    last = outcomes[-1]
    # Due at +20 ms, sent only after two 50 ms exchanges finished.
    assert last.sent - last.due > 0.07
    assert last.latency > 0.12
    assert last.latency > (last.done - last.sent) + 0.07
    assert generator["max_lateness_s"] < 0.05


def test_refused_and_failed_replies_miss_the_limit():
    plan = [openloop.Planned(i, 0, 0.0, i, False) for i in range(12)]
    replies = iter([{"ok": False, "error": "backpressure"}]
                   + [{"ok": True}] * 11)

    async def send(link, planned):
        return next(replies)

    outcomes, generator = asyncio.run(openloop.run_rung(plan, send))
    summary = openloop.summarize_rung(40, outcomes, generator)
    assert summary["refused"] == 1 and summary["succeeded"] == 11
    assert not summary["meets_limit"]
    assert openloop.max_rate([summary]) == 0.0


def test_plan_repeats_earlier_requests_verbatim():
    plan = openloop.plan_ladder([200] * 4, seed=3)
    assert not plan[0].repeat
    assert 0.15 < sum(p.repeat for p in plan) / len(plan) < 0.35
    fresh = [p.payload for p in plan if not p.repeat]
    assert fresh == list(range(len(fresh)))
    assert openloop.plan_ladder([200] * 4, seed=3) == plan


# -- wrapper install / restore ----------------------------------------------- #

def _patched_owners():
    from repro import aligners
    from repro.artifacts import ArtifactStore
    from repro.extractors.transformer import TransformerExtractor
    from repro.matcher.mlp import MlpMatcher
    from repro.nn import Tensor, optim
    from repro.nn.compiled import CompiledInference
    from repro.scale.blocker import ShardedBlocker
    from repro.scale.cluster import TransitiveClusterer
    from repro.scale.minhash import MinHasher
    from repro.serve.cache import ScoreCache
    from repro.serve.engine import RequestScorer
    from repro.serve.scheduler import BatchScheduler
    from repro.train import loops
    owners = [ArtifactStore, TransformerExtractor, MlpMatcher, Tensor,
              CompiledInference, ShardedBlocker, TransitiveClusterer,
              MinHasher, ScoreCache, RequestScorer, BatchScheduler, loops]
    owners += layers._own_subclasses(optim.Optimizer, optim)
    owners += layers._own_subclasses(aligners.FeatureAligner, aligners)
    return owners


def test_install_then_restore_leaves_patched_classes_unchanged():
    owners = _patched_owners()
    before = [dict(vars(owner)) for owner in owners]
    patches = layers.install(SpanRecorder())
    try:
        from repro.scale.minhash import MinHasher
        assert hasattr(MinHasher.signatures, "__wrapped__")
    finally:
        patches.restore()
    after = [dict(vars(owner)) for owner in owners]
    for owner, old, new in zip(owners, before, after):
        assert old.keys() == new.keys(), owner
        for key in old:
            assert new[key] is old[key], (owner, key)


def test_wrapped_call_records_span_and_restores_after_an_error():
    class Target:
        def work(self, x):
            if x < 0:
                raise ValueError("negative")
            return x * 2

    original = Target.__dict__["work"]
    recorder = SpanRecorder()
    with Patches() as patches:
        patches.wrap_call(recorder, Target, "work", "target.work")
        assert Target().work(4) == 8
        with pytest.raises(ValueError):
            Target().work(-1)
    assert Target.__dict__["work"] is original
    assert [s.name for s in recorder.spans] == ["target.work"] * 2
    assert all(s.end >= s.start for s in recorder.spans)


def test_patching_an_inherited_attribute_is_refused():
    class Base:
        def work(self):
            return 1

    class Child(Base):
        pass

    with pytest.raises(AttributeError):
        Patches().replace(Child, "work", lambda self: 2)
    assert Child().work() == 1
