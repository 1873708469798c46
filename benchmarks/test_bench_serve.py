"""Standing throughput benchmark for the repro.serve scoring engines.

Races the legacy sequential ``ERPipeline.__call__`` path against the
batched :class:`SequentialScorer`, inline and with a 4-thread pool
(reported as the ``parallel`` engine), on a >=10k-pair candidate workload,
asserts the engine contract (threaded bit-identical to inline, both within
1e-9 of the reference, threaded >=3x pairs/sec over the reference), and
persists the numbers to
``BENCH_serve.json`` at the repo root so the perf trajectory is recorded.

Run with ``pytest benchmarks/test_bench_serve.py`` or, outside pytest,
``python -m repro serve-bench``.
"""

import json
from pathlib import Path

from repro.serve import format_report, run_serve_bench

REPO_ROOT = Path(__file__).resolve().parents[1]
REPORT_PATH = REPO_ROOT / "BENCH_serve.json"

NUM_PAIRS = 10_000
NUM_WORKERS = 4
MIN_SPEEDUP = 3.0


def test_parallel_scorer_throughput(profile):
    report = run_serve_bench(num_pairs=NUM_PAIRS, num_workers=NUM_WORKERS,
                             output=REPORT_PATH, seed=0)
    print()
    print(format_report(report))

    engines = report["engines"]
    assert report["parallel_bit_identical_to_sequential"] is True
    assert report["max_abs_diff_vs_reference"] <= 1e-9
    assert engines["parallel"]["num_pairs"] == NUM_PAIRS
    assert engines["parallel"]["num_workers"] == NUM_WORKERS

    speedup = engines["parallel"]["speedup_vs_reference"]
    assert speedup >= MIN_SPEEDUP, (
        f"the {NUM_WORKERS}-thread engine reached only {speedup:.2f}x over "
        f"the sequential reference (need >= {MIN_SPEEDUP}x)")

    # the report landed on disk for the perf trajectory
    persisted = json.loads(REPORT_PATH.read_text())
    assert persisted["engines"]["parallel"]["pairs_per_second"] == \
        engines["parallel"]["pairs_per_second"]
