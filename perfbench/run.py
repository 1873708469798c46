"""Layer-split benchmark of the DADER reproduction: one command, three jobs.

    python3 perfbench/run.py --workload {resolve,serve,adapt,all} \\
        --seed N --seconds S --trace {0,1}

Workloads (inputs generated from ``--seed`` by the repo's own generators):

* ``resolve`` — two raw tables in, clusters out, in one fresh process:
  a 30k-record ``generate_scale_corpus`` corpus, ``ShardedBlocker`` at the
  e2e-bench operating point in 9 shards x 5 windows, ``score_tables``
  (sequential engine, 2048-pair windows), ``TransitiveClusterer``;
* ``serve`` — open-loop load over two connections against a ``repro
  serve`` daemon with default flags: 8-pair requests blocked from a
  second corpus, one in four a verbatim repeat, offered at 40/70/100/130
  requests per second (``--seconds`` sets the ladder's length);
* ``adapt`` — ``repro.adapt(books2 -> fodors_zagats, scale 1.0,
  4 epochs)`` with ``mmd`` (Algorithm 1) and ``invgan_kd`` (Algorithm 2).

Every workload reports ``setup_s`` (median of three set-ups), ``peak_rss_mb``
and ``cpu_s``, the CPU seconds its working process spends on one unit of
output (see :data:`perfbench.workloads.CPU_S`), and prints its own
wall-clock metrics by name.
``--trace 1`` adds a traced run that wraps the public calls of each layer
(:mod:`perfbench.layers`) and reports per-layer metrics instead.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed``, ``metrics``.  A failed output check exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import (SRC, WORK_ROOT,  # noqa: E402
                              check_source_tree)

E2E_METRICS = ("setup_s", "peak_rss_mb", "cpu_s")


def _print_report(report, seed: int, trace: bool) -> None:
    from perfbench.workloads import CPU_S
    print(f"== {report.workload} (seed {seed}, "
          f"{'traced' if trace else 'untraced'}) ==")
    for name, value, unit in report.named:
        print(f"  {name:<22} {value:>14.6f} {unit}")
    print(f"  {'cpu_s':<22} {report.e2e['cpu_s'][0]:>14.6f} s   "
          f"[{CPU_S[report.workload]}]")
    for line in report.lines:
        print(line)
    for name, passed, detail in report.checks:
        print(f"  check {'ok  ' if passed else 'FAIL'} {name}"
              + (f": {detail}" if detail else ""))
    if trace:
        from perfbench.layers import PER_LAYER_UNITS
        for name, unit in PER_LAYER_UNITS.items():
            print(f"  layer {name:<30} {report.layers[name]:>16.6f} {unit}")


def _metrics(report, trace: bool) -> Dict[str, Dict[str, float]]:
    if trace:
        from perfbench.layers import PER_LAYER_UNITS
        return {name: {"value": float(report.layers[name]), "unit": unit}
                for name, unit in PER_LAYER_UNITS.items()}
    return {name: {"value": float(report.e2e[name][0]),
                   "unit": report.e2e[name][1]} for name in E2E_METRICS}


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=["resolve", "serve", "adapt", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the serve ladder's schedule")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    # A terminated run still reaches the finally blocks that stop daemons.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    problem = check_source_tree()
    if problem is not None:
        print(f"perfbench: cannot run: {problem}", file=sys.stderr)
        return 2
    # The repo's determinism contract: one BLAS thread in every process
    # that scores, this one included (it re-scores sampled replies).
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    from perfbench.workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    trace = bool(args.trace)
    WORK_ROOT.mkdir(exist_ok=True)
    reports = []
    for name in names:
        work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT))
        try:
            report = WORKLOADS[name](work, args.seed, args.seconds, trace)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        _print_report(report, args.seed, trace)
        reports.append(report)

    if len(reports) == 1:
        metrics = _metrics(reports[0], trace)
    else:
        metrics = {f"{r.workload}.{k}": v for r in reports
                   for k, v in _metrics(r, trace).items()}
    correct = all(r.correct for r in reports)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r.attempted for r in reports),
                      "failed": sum(r.failed for r in reports),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
