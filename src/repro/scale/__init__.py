"""repro.scale — end-to-end entity resolution at millions of rows.

The training stack resolves *datasets*; this package resolves *tables*:
a constant-memory pipeline that streams two entity tables through sharded
blocking, windowed matcher scoring, and transitive clustering, with every
intermediate spilled through :mod:`repro.artifacts` and every stage timed
through :mod:`repro.telemetry` (``scale.block.*`` / ``scale.cluster.*``).

* :mod:`~repro.scale.minhash` — vectorized MinHash signatures + LSH band
  keys, deterministic across processes and shard layouts.
* :mod:`~repro.scale.blocker` — :class:`ShardedBlocker`, the spilling
  :class:`~repro.blocking.CandidateStream`: MinHash-LSH collisions with
  an optional signature-byte verify filter, shard-invariant candidate
  order.
* :mod:`~repro.scale.cluster` — union-find (path compression + union by
  rank) folding pairwise decisions — review abstentions excluded — into
  entity clusters with order-invariant canonical ids, plus pairwise
  cluster-quality metrics.
* :mod:`~repro.scale.bench` — the ``repro e2e-bench`` harness: synthesize
  a cluster corpus, block, score (sequential / parallel / daemon), cluster,
  and write per-stage throughput + quality to ``BENCH_e2e.json``.

See DESIGN.md §14 for the shard layout, spill format, and the
determinism contract (cluster assignments bit-identical across engines and
shard counts).
"""

from .minhash import DEFAULT_BANDS, DEFAULT_ROWS, MinHasher, jaccard, token_hash
from .blocker import DEFAULT_SHARD_SIZE, ShardedBlocker
from .cluster import (ClusterQuality, Clusters, TransitiveClusterer,
                      UnionFind, cluster_quality)
from .synth import (ScaleCorpus, generate_scale_corpus, true_assignments,
                    true_cluster_of)
from .bench import format_e2e_report, run_e2e_bench

__all__ = [
    "DEFAULT_BANDS", "DEFAULT_ROWS", "DEFAULT_SHARD_SIZE",
    "MinHasher", "ShardedBlocker", "jaccard", "token_hash",
    "UnionFind", "TransitiveClusterer", "Clusters", "ClusterQuality",
    "cluster_quality",
    "ScaleCorpus", "generate_scale_corpus", "true_assignments",
    "true_cluster_of",
    "run_e2e_bench", "format_e2e_report",
]
