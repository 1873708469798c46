"""Child processes of the benchmark: set-up steps and measured passes.

Run as ``python3 perfbench/child.py <step> --dir DIR --seed N [...]`` with
``src`` on ``PYTHONPATH``; each step prints one JSON object as its last
line of standard output.  Steps:

* ``resolve-setup`` — snapshot build + scale corpus, ``--repeats`` times;
* ``resolve-pass``  — one resolution pass in this fresh process;
* ``serve-setup``   — snapshot build + request pool, ``--repeats`` times
  (daemon start is timed by the parent);
* ``adapt-setup``   — LM load + the two datasets, ``--repeats`` times;
* ``adapt-run``     — both ``repro.adapt`` calls in this fresh process.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import layers  # noqa: E402
from perfbench.common import digest, peak_rss_mb  # noqa: E402
from perfbench.spans import SpanRecorder  # noqa: E402

#: ``resolve``: corpus size and (shard, chunk) layout.  At 30k records the
#: layout makes 9 left shards x 5 right windows — the shape of the
#: 1M-record e2e run (11 x 6) — and the chunk is smaller than the shard.
#: Blocking recall is ~0.992 with a per-corpus spread that shrinks with
#: size: at 15k records one seed in about 40 fell under the >= 0.99 check.
RESOLVE_RECORDS = 30_000
RESOLVE_LAYOUT = (2304, 768)
#: Scoring window of ``score_tables``.
RESOLVE_WINDOW = 2048

#: Snapshot every workload scores with: NoDA training on the corpus spec.
SNAPSHOT_SPEC = "fodors_zagats"
SNAPSHOT_SEED = 0
SNAPSHOT_EPOCHS = 2
SNAPSHOT_SCALE = 1.0

#: ``serve`` pool: pairs per request, and candidate pairs blocked per
#: generated record (measured ~0.5; sized low so the pool never runs short).
PAIRS_PER_REQUEST = 8
POOL_CANDIDATES_PER_RECORD = 0.4
#: Offset that keeps the pool corpus's seed apart from ``resolve``'s.
POOL_SEED_OFFSET = 7919

#: ``adapt``: the paper's job at one fixed size.
ADAPT_SOURCE = "books2"
ADAPT_TARGET = "fodors_zagats"
ADAPT_SCALE = 1.0
ADAPT_EPOCHS = 4
ADAPT_ALIGNERS = ("mmd", "invgan_kd")


def _lm_kwargs() -> Dict[str, Any]:
    from repro.serve.bench import BENCH_LM
    return dict(BENCH_LM)


def _build_snapshot(directory: Path) -> None:
    from repro.scale.bench import build_e2e_pipeline
    build_e2e_pipeline(directory, SNAPSHOT_SPEC, SNAPSHOT_SEED,
                       SNAPSHOT_EPOCHS, SNAPSHOT_SCALE, _lm_kwargs())


def _blocker(spill_dir: Path, shard_size: int, chunk_size: int):
    from repro.scale.bench import BENCH_BLOCKER
    from repro.scale import ShardedBlocker
    return ShardedBlocker(seed=0, shard_size=shard_size,
                          chunk_size=chunk_size, spill_dir=spill_dir,
                          **BENCH_BLOCKER)


def unique_share(pairs, vocab, max_len: int) -> float:
    """Distinct truncated encodings over pairs, as the scheduler sees them."""
    from repro.serve.scheduler import BatchScheduler
    encoded = BatchScheduler(vocab, max_len).encode(pairs)
    return len({tuple(seq) for seq in encoded}) / max(1, len(encoded))


# --------------------------------------------------------------------------- #
# resolve
# --------------------------------------------------------------------------- #

def timed_setups(step, work: Path, repeats: int, *args) -> Dict[str, Any]:
    """Run one set-up step ``repeats`` times into ``work/setup-<i>``; each
    is timed on its own (imports are paid once, before the first)."""
    seconds, result = [], None
    for i in range(repeats):
        start = time.perf_counter()
        result = step(work / f"setup-{i}", *args)
        seconds.append(time.perf_counter() - start)
    return {"seconds": seconds, "last": result}


def resolve_setup(work: Path, seed: int) -> Dict[str, Any]:
    from repro.scale import generate_scale_corpus
    from repro.scale.bench import BENCH_DIRT
    _build_snapshot(work / "snapshot")
    corpus = generate_scale_corpus(work / "corpus", RESOLVE_RECORDS,
                                   spec=SNAPSHOT_SPEC, seed=seed,
                                   dirt=BENCH_DIRT)
    stats = corpus.describe()
    (work / "corpus.json").write_text(json.dumps(stats))
    return stats


def _table_stream(path: Path, chunk_size: int,
                  recorder) -> Iterator[List[Any]]:
    from repro.data import iter_entity_table
    stream = iter_entity_table(path, chunk_size=chunk_size)
    if recorder is None:
        return stream

    def rows(span, chunk):
        recorder.count("data.rows", len(chunk))

    return recorder.timed_iter("data.read", stream, rows)


def resolve_pass(work: Path, trace: bool, check_inputs: bool) -> Dict[str, Any]:
    """Two raw tables in, clusters out; timed from the first entity read
    until ``clusters()`` returns."""
    from repro.pipeline import ERPipeline
    from repro.scale import TransitiveClusterer, cluster_quality
    from repro.scale.synth import true_cluster_of
    from repro.serve import score_tables
    from repro.telemetry import REGISTRY

    shard_size, chunk_size = RESOLVE_LAYOUT
    corpus = json.loads((work / "corpus.json").read_text())
    left_path, right_path = work / "corpus/left.csv", work / "corpus/right.csv"
    pipeline = ERPipeline.load(work / "snapshot")
    spill = work / f"spill-{time.monotonic_ns()}"
    blocker = _blocker(spill, shard_size, chunk_size)
    clusterer = TransitiveClusterer(threshold=pipeline.threshold)
    recorder = SpanRecorder() if trace else None
    patches = layers.install(recorder) if trace else None
    pairs: List[tuple] = []
    before = REGISTRY.snapshot()
    try:
        root = recorder.begin("run") if trace else None
        start, cpu_start = time.perf_counter(), time.process_time()
        for path in (left_path, right_path):
            for chunk in _table_stream(path, chunk_size, recorder):
                clusterer.add_entities([e.entity_id for e in chunk])
        decisions = score_tables(
            pipeline, _table_stream(left_path, chunk_size, recorder),
            _table_stream(right_path, chunk_size, recorder), num_workers=0,
            window=RESOLVE_WINDOW, blocker=blocker)
        # Folded in window-sized runs through the bulk calls, in stream
        # order: the same clusters as one add_decision per decision.
        pending: List[Any] = []
        for decision in decisions:
            pairs.append((decision.left_id, decision.right_id))
            pending.append(decision)
            if len(pending) == RESOLVE_WINDOW:
                clusterer.add_decisions(pending)
                pending = []
        clusterer.add_decisions(pending)
        clusters = clusterer.clusters()
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu_start
        if trace:
            recorder.end(root)
    finally:
        if patches is not None:
            patches.restore()
    after = REGISTRY.snapshot()

    def delta(name: str) -> float:
        return after.get(name, 0) - before.get(name, 0)

    assignments = clusters.assignments
    truth = {entity_id: true_cluster_of(entity_id) for entity_id in assignments}
    caught = sum(truth[l] == truth[r] for l, r in pairs)
    quality = cluster_quality(assignments, truth)
    right_rows = int(delta("scale.block.right_rows"))
    result: Dict[str, Any] = {
        "wall_s": wall,
        "cpu_s": cpu,
        "records": corpus["records"],
        "true_matches": corpus["true_matches"],
        "candidates": len(pairs),
        "caught": caught,
        "blocking_recall": caught / corpus["true_matches"],
        "cluster_f1": quality.f1,
        "clusters_digest": digest(sorted(assignments.items())),
        "peak_rss_mb": peak_rss_mb(),
        "registry": {
            "candidates": delta("scale.block.candidates"),
            "shards": delta("scale.block.shards"),
            "right_rows": right_rows,
            "merged_edges": delta("scale.cluster.merged_edges"),
            "entities": delta("scale.cluster.entities"),
        },
    }
    if check_inputs:
        result["unique_share"] = _candidate_unique_share(
            pipeline, (left_path, right_path), pairs)
    if trace:
        metrics = layers.layer_metrics(recorder.spans, recorder.counts)
        metrics.update({
            "blocker.candidates": delta("scale.block.candidates"),
            "blocker.precision": caught / max(1, len(pairs)),
            "blocker.shards": delta("scale.block.shards"),
            "blocker.windows": math.ceil(right_rows / shard_size),
            "cluster.merged_edges": delta("scale.cluster.merged_edges"),
        })
        result["layers"] = metrics
        result["reconcile"] = layers.reconcile(recorder.spans, root)
    return result


def _candidate_unique_share(pipeline, paths, pairs) -> float:
    from repro.data import EntityPair, iter_entity_table
    entities = {}
    for path in paths:
        for chunk in iter_entity_table(path):
            entities.update((e.entity_id, e) for e in chunk)
    candidates = [EntityPair(entities[l], entities[r]) for l, r in pairs]
    return unique_share(candidates, pipeline.extractor.vocab,
                        pipeline.extractor.max_len)


# --------------------------------------------------------------------------- #
# serve
# --------------------------------------------------------------------------- #

def serve_setup(work: Path, seed: int, requests: int) -> Dict[str, Any]:
    """Snapshot + a pool of ``requests`` distinct 8-pair requests blocked
    from a corpus seeded apart from ``resolve``'s, in wire format."""
    import numpy as np
    from repro.data import iter_entity_table
    from repro.scale import generate_scale_corpus
    from repro.scale.bench import BENCH_DIRT
    from repro.serve.daemon import pair_to_wire

    _build_snapshot(work / "snapshot")
    needed = requests * PAIRS_PER_REQUEST
    records = math.ceil(needed / POOL_CANDIDATES_PER_RECORD)
    corpus = generate_scale_corpus(work / "pool_corpus", records,
                                   spec=SNAPSHOT_SPEC,
                                   seed=seed + POOL_SEED_OFFSET,
                                   dirt=BENCH_DIRT)

    def chunks(path):
        return iter_entity_table(path, chunk_size=4096)

    blocker = _blocker(work / "pool_spill", 65536, 4096)
    candidates = list(blocker.iter_candidates(chunks(corpus.left_path),
                                              chunks(corpus.right_path)))
    if len(candidates) < needed:
        raise RuntimeError(f"pool blocked {len(candidates)} candidate pairs, "
                           f"{needed} needed")
    order = np.random.default_rng((seed, 0x9001)).permutation(
        len(candidates))[:needed]
    chosen = [candidates[i] for i in order.tolist()]
    with open(work / "pool.jsonl", "w") as handle:
        for start in range(0, needed, PAIRS_PER_REQUEST):
            batch = chosen[start:start + PAIRS_PER_REQUEST]
            handle.write(json.dumps([pair_to_wire(p) for p in batch]) + "\n")
    return {"requests": requests, "pool_records": corpus.records,
            "pool_candidates": len(candidates)}


# --------------------------------------------------------------------------- #
# adapt
# --------------------------------------------------------------------------- #

def _adapt_datasets(seed: int):
    from repro import load_dataset
    return (load_dataset(ADAPT_SOURCE, scale=ADAPT_SCALE, seed=seed),
            load_dataset(ADAPT_TARGET, scale=ADAPT_SCALE, seed=seed))


def adapt_setup(work: Path, seed: int) -> Dict[str, Any]:
    from repro.pretrain import pretrained_lm
    pretrained_lm(**_lm_kwargs())
    source, target = _adapt_datasets(seed)
    return {"source_pairs": len(source), "target_pairs": len(target)}


def adapt_run(seed: int, trace: bool) -> Dict[str, Any]:
    from repro import adapt
    from repro.pretrain import pretrained_lm
    from repro.train import TrainConfig

    source, target = _adapt_datasets(seed)
    extractor, __ = pretrained_lm(**_lm_kwargs())
    share = unique_share(list(source.pairs) + list(target.pairs),
                         extractor.vocab, extractor.max_len)
    recorder = SpanRecorder() if trace else None
    runs: Dict[str, Dict[str, Any]] = {}
    for aligner in ADAPT_ALIGNERS:
        patches = layers.install(recorder) if trace else None
        try:
            root = recorder.begin("run") if trace else None
            start, cpu_start = time.perf_counter(), time.process_time()
            result = adapt(source, target, aligner=aligner,
                           config=TrainConfig(epochs=ADAPT_EPOCHS, seed=seed),
                           seed=seed, lm_kwargs=_lm_kwargs())
            wall = time.perf_counter() - start
            cpu = time.process_time() - cpu_start
            if trace:
                recorder.end(root)
        finally:
            if patches is not None:
                patches.restore()
        events = result.events
        runs[aligner] = {"train_s": wall, "cpu_s": cpu,
                         "target_f1": result.test_metrics.f1,
                         "recoveries": events.rollbacks if events else 0}
    out: Dict[str, Any] = {"runs": runs, "unique_share": share,
                           "peak_rss_mb": peak_rss_mb()}
    if trace:
        metrics = layers.layer_metrics(recorder.spans, recorder.counts)
        metrics["train.recoveries"] = sum(r["recoveries"]
                                          for r in runs.values())
        out["layers"] = metrics
        roots = [s for s in recorder.spans if s.name == "run"]
        walls = [layers.reconcile(recorder.spans, r) for r in roots]
        out["reconcile"] = {
            "wall_s": sum(w["wall_s"] for w in walls),
            "unattributed_share": (
                sum(w["wall_s"] * w["unattributed_share"] for w in walls)
                / max(1e-12, sum(w["wall_s"] for w in walls)))}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("step", choices=["resolve-setup", "resolve-pass",
                                         "serve-setup", "adapt-setup",
                                         "adapt-run"])
    parser.add_argument("--dir", type=Path, default=None)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--check-inputs", action="store_true")
    parser.add_argument("--requests", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=1)
    args = parser.parse_args(argv)
    if args.step == "resolve-setup":
        result = timed_setups(resolve_setup, args.dir, args.repeats,
                              args.seed)
    elif args.step == "resolve-pass":
        result = resolve_pass(args.dir, args.trace, args.check_inputs)
    elif args.step == "serve-setup":
        result = timed_setups(serve_setup, args.dir, args.repeats,
                              args.seed, args.requests)
    elif args.step == "adapt-setup":
        result = timed_setups(adapt_setup, args.dir, args.repeats,
                              args.seed)
    else:
        result = adapt_run(args.seed, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
