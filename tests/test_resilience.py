"""Unit tests for the repro.resilience layer (tier 1 — no injected faults).

The chaos tier (``pytest -m chaos``, ``tests/test_failure_injection.py``)
proves the recovery paths end-to-end; these tests pin the pure machinery:
backoff schedules, event arithmetic, chaos-plan parsing, guard-rail
rollback semantics, and the threaded engine's no-work/closed edge cases.
"""

import numpy as np
import pytest

from repro.data import Entity, EntityPair
from repro.matcher import MlpMatcher
from repro.resilience import (BackoffPolicy, ChaosConfig, Events, Fault,
                              GuardRail, TrainingDiverged, merge_chaos)
from repro.serve import SequentialScorer


class TestBackoffPolicy:
    def test_schedule_is_deterministic(self):
        a = BackoffPolicy(seed=7).preview(6)
        b = BackoffPolicy(seed=7).preview(6)
        assert a == b

    def test_grows_then_caps(self):
        policy = BackoffPolicy(base=0.1, factor=2.0, cap=0.5, jitter=0.0)
        assert policy.preview(5) == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_jitter_stays_bounded(self):
        policy = BackoffPolicy(base=0.1, factor=2.0, cap=0.5, jitter=0.25)
        for delay in policy.preview(20):
            assert delay <= 0.5 * 1.25 + 1e-12

    def test_instant_never_sleeps(self):
        policy = BackoffPolicy.instant()
        assert policy.preview(10) == [0.0] * 10
        assert policy.sleep(3) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            BackoffPolicy(base=-1)
        with pytest.raises(ValueError):
            BackoffPolicy(factor=0.5)
        with pytest.raises(ValueError):
            BackoffPolicy(jitter=2.0)
        with pytest.raises(ValueError):
            BackoffPolicy().delay(-1)


class TestEvents:
    def test_delta_and_sum(self):
        before = Events(rollbacks=2, lr_halvings=1)
        after = Events(rollbacks=5, lr_halvings=1)
        delta = after - before
        assert delta.rollbacks == 3 and delta.lr_halvings == 0
        assert (before + delta).to_dict() == after.to_dict()

    def test_bool_is_any_recovery(self):
        assert not Events()
        assert Events(rollbacks=1)

    def test_copy_is_independent(self):
        a = Events(rollbacks=1)
        b = a.copy()
        b.rollbacks += 1
        assert a.rollbacks == 1

    def test_merge_accumulates_in_place(self):
        a = Events(rollbacks=1)
        a.merge(Events(rollbacks=2, lr_halvings=1))
        assert a.rollbacks == 3 and a.lr_halvings == 1


class TestChaosConfig:
    def test_from_spec_round_trip(self):
        plan = ChaosConfig.from_spec(
            "nan_loss:step=3;promote_crash:step=1,times=2;"
            "corrupt_segment:times=always")
        kinds = [f.kind for f in plan.faults]
        assert kinds == ["nan_loss", "promote_crash", "corrupt_segment"]
        assert plan.faults[1].step == 1 and plan.faults[1].times == 2
        assert plan.faults[2].times is None
        assert plan.nan_loss_at(3) and not plan.nan_loss_at(4)

    def test_from_spec_rejects_junk(self):
        with pytest.raises(ValueError):
            ChaosConfig.from_spec("explode:step=1")
        with pytest.raises(ValueError):
            ChaosConfig.from_spec("nan_loss:step")
        with pytest.raises(ValueError):
            ChaosConfig.from_spec("nan_loss:color=red")
        with pytest.raises(ValueError):
            ChaosConfig.from_spec("crash:batch=2")  # retired serving kind

    def test_times_gates_retries_deterministically(self):
        plan = ChaosConfig((Fault("promote_crash", step=2, times=1),))
        assert plan.risk_fault_at("promote_crash", 2, occurrence=0)
        # The restarted worker (occurrence 1) escapes the fault.
        assert not plan.risk_fault_at("promote_crash", 2, occurrence=1)
        assert not plan.risk_fault_at("promote_crash", 1, occurrence=0)
        assert not plan.risk_fault_at("corrupt_segment", 2, occurrence=0)

    def test_poison_fault_never_expires(self):
        plan = ChaosConfig((Fault("promote_crash", times=None),))
        for occurrence in range(10):
            assert plan.risk_fault_at("promote_crash", occurrence % 3,
                                      occurrence)

    def test_merge(self):
        a = ChaosConfig((Fault("nan_loss", step=1),))
        b = ChaosConfig((Fault("promote_crash", step=2),))
        merged = merge_chaos([a, None, b])
        assert [f.kind for f in merged.faults] == ["nan_loss",
                                                   "promote_crash"]
        assert merge_chaos([None, None]) is None

    def test_fault_validation(self):
        with pytest.raises(ValueError):
            Fault("meteor")
        with pytest.raises(ValueError):
            Fault("crash")  # worker faults retired with the process pool
        with pytest.raises(ValueError):
            Fault("nan_loss", times=0)


def _stub_optimizer(lr=1e-3):
    class _Opt:
        def __init__(self):
            self.lr = lr
    return _Opt()


class TestGuardRail:
    def test_healthy_steps_pass_through(self):
        matcher = MlpMatcher(4, np.random.default_rng(0))
        with GuardRail({"matcher": matcher}, [_stub_optimizer()]) as guard:
            for step in range(5):
                assert guard.observe(1.0 - 0.01 * step, epoch=0, step=step)
            assert guard.recoveries == 0
            assert guard.events.total() == 0

    def test_nan_loss_rolls_back_and_halves_lr(self):
        matcher = MlpMatcher(4, np.random.default_rng(0))
        optimizer = _stub_optimizer(lr=0.01)
        guard = GuardRail({"matcher": matcher}, [optimizer])
        snapshot = [p.data.copy() for p in matcher.parameters()]
        # Corrupt the live weights, then observe a NaN: the guard must
        # restore the snapshot, not keep the corruption.
        for param in matcher.parameters():
            param.data += 17.0
        assert guard.observe(float("nan"), epoch=0, step=0) is False
        for param, good in zip(matcher.parameters(), snapshot):
            np.testing.assert_array_equal(param.data, good)
        assert optimizer.lr == pytest.approx(0.005)
        assert guard.events.rollbacks == 1
        assert guard.events.lr_halvings == 1
        guard.close()

    def test_non_finite_gradient_is_rejected(self):
        matcher = MlpMatcher(4, np.random.default_rng(0))
        guard = GuardRail({"matcher": matcher}, [_stub_optimizer()])
        params = matcher.parameters()
        params[0].grad = np.full_like(params[0].data, np.inf)
        assert guard.observe(0.5, epoch=0, step=0, params=params) is False
        assert guard.incidents[0]["reason"] == "non-finite gradient"
        guard.close()

    def test_divergence_bound_trips_after_warmup(self):
        matcher = MlpMatcher(4, np.random.default_rng(0))
        guard = GuardRail({"matcher": matcher}, [_stub_optimizer()],
                          patience=5.0, warmup_steps=3)
        for step in range(4):
            assert guard.observe(1.0, epoch=0, step=step)
        assert guard.observe(100.0, epoch=0, step=4) is False
        assert "diverged loss" in guard.incidents[0]["reason"]
        guard.close()

    def test_bounded_recoveries_raise_with_history(self):
        matcher = MlpMatcher(4, np.random.default_rng(0))
        guard = GuardRail({"matcher": matcher}, [_stub_optimizer()],
                          max_recoveries=2, method="unit")
        with pytest.raises(TrainingDiverged) as exc_info:
            for step in range(10):
                guard.observe(float("inf"), epoch=1, step=step)
        diverged = exc_info.value
        assert diverged.method == "unit"
        assert diverged.recoveries == 2
        assert len(diverged.incidents) == 3  # two recovered + the fatal one
        assert diverged.epoch == 1
        guard.close()

    def test_chaos_nan_injection_targets_global_step(self):
        matcher = MlpMatcher(4, np.random.default_rng(0))
        guard = GuardRail({"matcher": matcher}, [_stub_optimizer()],
                          chaos=ChaosConfig((Fault("nan_loss", step=2),)))
        assert guard.observe(1.0, epoch=0, step=0)
        assert guard.observe(1.0, epoch=0, step=1)
        assert guard.observe(1.0, epoch=0, step=2) is False  # injected
        assert guard.observe(1.0, epoch=0, step=3)
        guard.close()

    def test_validation(self):
        matcher = MlpMatcher(4, np.random.default_rng(0))
        with pytest.raises(ValueError):
            GuardRail({}, [])
        with pytest.raises(ValueError):
            GuardRail({"m": matcher}, [], max_recoveries=-1)
        with pytest.raises(ValueError):
            GuardRail({"m": matcher}, [], patience=1.0)
        with pytest.raises(ValueError):
            GuardRail({"m": matcher}, [], ema_decay=1.5)


class TestScorerEdgeCases:
    @pytest.fixture()
    def snapshot_dir(self, tmp_path, tiny_lm):
        from repro.matcher import MlpMatcher
        from repro.pipeline import ERPipeline
        from repro.pretrain import fresh_copy
        extractor = fresh_copy(tiny_lm[0], seed=0)
        extractor.eval()
        matcher = MlpMatcher(extractor.feature_dim, np.random.default_rng(0))
        matcher.eval()
        ERPipeline(extractor, matcher).save(tmp_path / "pipeline")
        return tmp_path / "pipeline"

    def test_empty_pairs_never_spin_up_workers(self, snapshot_dir):
        with SequentialScorer.from_directory(snapshot_dir,
                                             num_workers=2) as scorer:
            assert scorer.score_pairs([]) == []
            assert scorer._pool is None
            assert scorer.last_metrics.num_pairs == 0

    def test_empty_blocker_output_never_spins_up_workers(self, snapshot_dir):
        with SequentialScorer.from_directory(snapshot_dir,
                                             num_workers=2) as scorer:
            # Disjoint vocabularies: the overlap blocker emits nothing.
            left = [Entity("l0", {"name": "aardvark"})]
            right = [Entity("r0", {"name": "zyzzyva"})]
            assert list(scorer.score_tables(left, right)) == []
            assert scorer._pool is None

    def test_closed_scorer_refuses_parallel_work(self, snapshot_dir):
        scorer = SequentialScorer.from_directory(snapshot_dir, num_workers=2)
        pairs = [EntityPair(Entity("l0", {"name": "red kettle"}),
                            Entity("r0", {"name": "red kettle"}))]
        assert len(scorer.score_pairs(pairs)) == 1
        assert scorer._pool is not None
        scorer.close()
        scorer.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            scorer.score_pairs(pairs)
