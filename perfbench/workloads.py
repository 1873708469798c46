"""The three workloads, orchestrated from the benchmark's parent process.

Every workload sets up :data:`~perfbench.common.SETUP_REPEATS` times (in
one child process, plus a fresh daemon per set-up for ``serve``) and
reports the median as ``setup_s``; only the last set-up's artifacts are
measured.  Program work runs in child processes so that each peak-RSS
figure belongs to the process doing the work.

Every workload reports the same three end-to-end metrics — ``setup_s``,
``peak_rss_mb`` and ``cpu_s``, the CPU seconds its working process spends
on one unit of output (see :data:`CPU_S`) — and prints its own wall-clock
metrics by name (``records_per_s``, ``latency_p50_ms``, ``max_rate_rps``,
``train_s_mmd``, ...).  CPU seconds leave out the time the machine's
other tenants take from this one, so they repeat better than wall clock
on a shared machine.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import layers, openloop
from .common import (BENCH_DIR, SETUP_REPEATS, SRC, WORK_ROOT, child_env,
                     median, process_cpu_s, run_child, tail_percentile,
                     vm_hwm_mb)
from .spans import Span

#: What ``cpu_s`` is on each workload.
CPU_S = {
    "resolve": "the pass process, first entity read until clusters() "
               "returns",
    "serve": "the daemon process per request at the lowest rung",
    "adapt": "the adapt process, both repro.adapt calls",
}

#: Output checks.  Recall on one corpus is a binomial estimate over its
#: true pairs (sd ~0.001 at 30k records, around a mean of ~0.992), so the
#: check gates on its one-sided 99% upper confidence bound: a point
#: estimate of 0.9906 passes, a blocker whose recall fell to 0.985 fails.
MIN_BLOCKING_RECALL = 0.99
RECALL_Z = 2.326
#: Unique-encoding share floors: below these the model would mostly see
#: repeated token sequences, and a speed figure would measure dedup.
UNIQUE_SHARE_FLOOR = {"resolve": 0.6, "serve": 0.5, "adapt": 0.6}
#: Traced ``resolve``: benchmark glue between layer calls may take at most
#: this share of the traced wall; the layers' self times cover the rest.
RECONCILE_TOLERANCE = 0.02
#: ``serve``: replies re-scored by a fresh ``SequentialScorer`` per group,
#: and the tolerance for replies that may come from another request's
#: cached batch (the repo's cross-policy agreement bound).
IDENTITY_SAMPLE = 32
SHARED_TOLERANCE = 1e-9
#: ``serve``: share of the ladder's scheduled time spent on the lowest rung.
LOW_RUNG_SHARE = 0.72


class Report:
    """What one workload run measured and checked."""

    def __init__(self, workload: str):
        self.workload = workload
        self.e2e: Dict[str, Tuple[float, str]] = {}
        self.named: List[Tuple[str, float, str]] = []
        self.layers: Dict[str, float] = {}
        self.checks: List[Tuple[str, bool, str]] = []
        self.lines: List[str] = []
        self.attempted = 0
        self.failed = 0

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append((name, bool(passed), detail))

    @property
    def correct(self) -> bool:
        return all(passed for __, passed, __ in self.checks)


def _setups(step: str, work: Path, seed: int, *extra: str) -> List[float]:
    """Time SETUP_REPEATS set-ups in one child, into ``work/setup-<i>``."""
    result = run_child([step, "--dir", str(work), "--seed", str(seed),
                        "--repeats", str(SETUP_REPEATS), *extra], work)
    return result["seconds"]


def _setup_line(walls: Sequence[float]) -> str:
    return ("  setups: " + ", ".join(f"{w:.3f}s" for w in walls)
            + f" (median {median(walls):.3f}s)")


# --------------------------------------------------------------------------- #
# outputs that must repeat across runs
# --------------------------------------------------------------------------- #

def _code_digest() -> str:
    """Digest of the program and benchmark sources: outputs are compared
    across runs only for the same code."""
    h = hashlib.sha256()
    for root in (SRC, BENCH_DIR):
        for path in sorted(root.rglob("*.py")):
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def remember_output(key: str, value: Any) -> Optional[Any]:
    """Record ``value`` under ``key`` for later runs in this checkout;
    return the value an earlier run recorded, if any."""
    store = WORK_ROOT / "outputs.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    key = f"{_code_digest()}:{key}"
    earlier = known.get(key)
    if earlier is None:
        known[key] = value
        tmp = store.with_suffix(f".tmp-{os.getpid()}")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        os.replace(tmp, store)
    return earlier


def _check_repeat(report: Report, key: str, value: Any, what: str) -> None:
    earlier = remember_output(key, value)
    report.check(f"{what} identical to earlier runs at this seed",
                 earlier is None or earlier == value,
                 f"{value} vs {earlier}" if earlier is not None
                 else f"{value} (first run at this seed)")


# --------------------------------------------------------------------------- #
# resolve
# --------------------------------------------------------------------------- #

def run_resolve(work: Path, seed: int, seconds: float,
                trace: bool) -> Report:
    report = Report("resolve")
    walls = _setups("resolve-setup", work, seed)
    data = work / f"setup-{SETUP_REPEATS - 1}"
    plain = run_child(["resolve-pass", "--dir", str(data), "--seed",
                       str(seed), "--check-inputs"], work)
    records = plain["records"]
    report.attempted = records
    report.e2e = {"setup_s": (median(walls), "s"),
                  "peak_rss_mb": (plain["peak_rss_mb"], "MB"),
                  "cpu_s": (plain["cpu_s"], "s")}
    report.named = [
        ("setup_s", median(walls), "s"),
        ("peak_rss_mb", plain["peak_rss_mb"], "MB"),
        ("records_per_s", records / plain["wall_s"], "1/s"),
        ("blocking_recall", plain["blocking_recall"], "ratio"),
        ("cluster_f1", plain["cluster_f1"], "ratio"),
    ]
    report.lines += [
        _setup_line(walls),
        f"  {records} records, {plain['candidates']} candidates "
        f"({plain['caught']}/{plain['true_matches']} true pairs), "
        f"unique-encoding share {plain['unique_share']:.4f}, "
        f"clusters digest {plain['clusters_digest']}",
    ]
    recall, true = plain["blocking_recall"], plain["true_matches"]
    upper = recall + RECALL_Z * math.sqrt(recall * (1.0 - recall) / true)
    report.check(
        f"blocking_recall >= {MIN_BLOCKING_RECALL} (one-sided 99% upper "
        f"confidence bound)", upper >= MIN_BLOCKING_RECALL,
        f"{recall:.5f} over {true} true pairs, bound {upper:.5f}")
    report.check(
        f"unique-encoding share >= {UNIQUE_SHARE_FLOOR['resolve']}",
        plain["unique_share"] >= UNIQUE_SHARE_FLOOR["resolve"],
        f"{plain['unique_share']:.4f}")
    report.check("per-pass counters match the pass",
                 plain["registry"]["candidates"] == plain["candidates"]
                 and plain["registry"]["entities"] == records,
                 json.dumps(plain["registry"]))
    _check_repeat(report, f"resolve:{seed}", plain["clusters_digest"],
                  "cluster digest")
    if trace:
        traced = run_child(["resolve-pass", "--dir", str(data), "--seed",
                            str(seed), "--trace"], work)
        rec = traced["reconcile"]
        report.layers = dict(traced["layers"])
        report.layers.update({
            "input.unique_share": plain["unique_share"],
            "trace.wall_s": traced["wall_s"],
            "trace.overhead_s": traced["wall_s"] - plain["wall_s"],
            "trace.unattributed_share": rec["unattributed_share"],
        })
        report.check("traced clusters identical to untraced",
                     traced["clusters_digest"] == plain["clusters_digest"])
        report.check(
            f"layer self times reconcile with the traced wall within "
            f"{RECONCILE_TOLERANCE:.0%}",
            rec["unattributed_share"] <= RECONCILE_TOLERANCE,
            f"unattributed {rec['unattributed_share']:.4%} of "
            f"{rec['wall_s']:.3f}s")
        report.lines.append("  traced self time by layer: " + ", ".join(
            f"{k} {v:.3f}s" for k, v in sorted(rec["per_layer"].items())))
    return report


# --------------------------------------------------------------------------- #
# serve
# --------------------------------------------------------------------------- #

class Daemon:
    """One ``repro serve`` process with default flags on an ephemeral port."""

    def __init__(self, snapshot: Path, work: Path,
                 spans: Optional[Path] = None, timeout: float = 60.0):
        serve_args = ["--snapshot", f"default={snapshot}", "--port", "0"]
        if spans is None:
            command = [sys.executable, "-m", "repro", "serve", *serve_args]
        else:
            command = [sys.executable, str(BENCH_DIR / "daemon.py"),
                       "--spans", str(spans), "--", *serve_args]
        self.spans = spans
        self.log = work / f"daemon-{time.monotonic_ns()}.log"
        with open(self.log, "w") as log:
            self.proc = subprocess.Popen(command, cwd=work,
                                         env=child_env(work), stdout=log,
                                         stderr=subprocess.STDOUT)
        try:
            self.host, self.port = self._wait_listening(timeout)
            self._ping(timeout)
        except BaseException:
            self.kill()
            raise

    def _wait_listening(self, timeout: float) -> Tuple[str, int]:
        deadline = time.monotonic() + timeout
        marker = "repro serve listening on "
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError("daemon exited during start:\n"
                                   + self.log.read_text()[-2000:])
            for line in self.log.read_text().splitlines():
                if line.startswith(marker):
                    host, __, port = line[len(marker):].rpartition(":")
                    return host, int(port)
            time.sleep(0.005)
        raise TimeoutError("daemon did not start listening")

    def _ping(self, timeout: float) -> None:
        from repro.serve import DaemonClient
        with DaemonClient(self.host, self.port, timeout=timeout) as client:
            if not client.ping():
                raise RuntimeError("daemon did not answer ping")

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.proc.pid)

    def stop(self, timeout: float = 60.0) -> Optional[Dict[str, Any]]:
        """Shut down over the wire and wait; returns the traced daemon's
        spans, if it was traced."""
        from repro.serve import DaemonClient
        try:
            with DaemonClient(self.host, self.port, timeout=timeout) as client:
                client.shutdown()
            code = self.proc.wait(timeout=timeout)
        finally:
            self.kill()
        if code != 0:
            raise RuntimeError(f"daemon exited {code}:\n"
                               + self.log.read_text()[-2000:])
        if self.spans is not None:
            return json.loads(self.spans.read_text())
        return None

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


async def _drive(daemon: Daemon, pool: Sequence[List[Any]],
                 plan: Sequence[openloop.Planned]) -> Dict[str, Any]:
    """Every rung in turn over the same links; daemon ``stats`` are read
    between rungs, once the rung has drained, and differenced per rung."""
    links = openloop.WireLinks(daemon.host, daemon.port, pool)
    await links.open()
    # The load generator's own collector pauses would be charged to the
    # daemon's latency; the ladder allocates little, so collect up front.
    gc.collect()
    gc.disable()
    try:
        first = (await links.call(0, {"op": "stats"}))["stats"]
        previous = first
        rungs, outcomes = [], []
        for rung, rate in enumerate(openloop.LADDER):
            part = [p for p in plan if p.rung == rung]
            cpu = process_cpu_s(daemon.proc.pid)
            done, generator = await openloop.run_rung(part, links.send)
            cpu = process_cpu_s(daemon.proc.pid) - cpu
            stats = (await links.call(0, {"op": "stats"}))["stats"]
            summary = openloop.summarize_rung(rate, done, generator)
            summary["daemon_cpu_s"] = cpu
            delta = {k: stats[k] - previous[k]
                     for k in ("requests", "rejected", "failed", "flushes",
                               "merged_requests", "responses")}
            delta["requests_per_flush"] = (
                delta["merged_requests"] / delta["flushes"]
                if delta["flushes"] else 0.0)
            summary["daemon"] = delta
            previous = stats
            rungs.append(summary)
            outcomes.extend(done)
        return {"rungs": rungs, "outcomes": outcomes, "initial": first}
    finally:
        gc.enable()
        await links.close()


def _rung_line(r: Dict[str, Any]) -> str:
    return (f"  rung {r['rate_rps']:>4.0f} req/s: sent {r['sent']}, ok "
            f"{r['succeeded']}, failed {r['failed']}, refused "
            f"{r['refused']}; p50 {r['latency_p50_ms']:.2f} ms, "
            f"p{r['tail_percentile']:.2f} {r['latency_tail_ms']:.2f} ms; "
            f"generator late <= {r['max_lateness_ms']:.2f} ms; backlog "
            f"{r['backlog_end']}; {r['daemon']['requests_per_flush']:.2f} "
            f"requests/flush; daemon CPU "
            f"{r['daemon_cpu_s'] / r['sent'] * 1e3:.2f} ms/request; "
            f"{'meets' if r['meets_limit'] else 'misses'} the limit")


def serve_plan(seconds: float, seed: int) -> List[openloop.Planned]:
    """The ladder's schedule for ``seconds`` of offered load: the lowest
    rung, whose latency is the headline, gets :data:`LOW_RUNG_SHARE` of
    the time; the rungs above it share the rest in equal request counts."""
    low, *upper = openloop.LADDER
    counts = [max(40, round(seconds * LOW_RUNG_SHARE * low))]
    upper_time = seconds * (1.0 - LOW_RUNG_SHARE)
    counts += [max(40, round(upper_time / sum(1.0 / r for r in upper)))
               ] * len(upper)
    return openloop.plan_ladder(counts, seed)


def _check_replies(report: Report, snapshot: Path, pool, outcomes,
                   seed: int) -> float:
    """Re-score sampled replies with a fresh ``SequentialScorer`` on the
    same snapshot; returns the unique-encoding share of all sent pairs.

    A request none of whose encodings occurs in any other pooled request
    is scored from its own batches alone, cache or not, so its reply must
    be bit-identical.  A request sharing an encoding with another one may
    be answered from a ``ScoreCache`` entry written while scoring that
    other request's batch, whose shape can move the last ulp; those are
    held to the repo's cross-policy contract (identical match decisions,
    probabilities within :data:`SHARED_TOLERANCE`) and every reply that is
    not bit-identical is counted and printed.
    """
    from collections import Counter

    from repro.pipeline import ERPipeline
    from repro.serve import SequentialScorer
    from repro.serve.daemon import pair_from_wire
    from .child import unique_share

    pipeline = ERPipeline.load(snapshot)
    scorer = SequentialScorer(pipeline)
    payloads = sorted({o.planned.payload for o in outcomes})
    pairs = {i: [pair_from_wire(p) for p in pool[i]] for i in payloads}
    encoded = {i: {tuple(seq) for seq in scorer.scheduler.encode(pairs[i])}
               for i in payloads}
    owners = Counter(seq for i in payloads for seq in encoded[i])
    ok = [o for o in outcomes if o.status == "ok"]
    isolated = [o for o in ok
                if all(owners[seq] == 1 for seq in encoded[o.planned.payload])]
    shared = [o for o in ok if o not in isolated]
    rng = np.random.default_rng((seed, 0x1D))

    def sample(group):
        picks = rng.choice(len(group), size=min(IDENTITY_SAMPLE, len(group)),
                           replace=False)
        return [group[i] for i in sorted(picks.tolist())]

    def compare(outcome):
        expected = scorer.score_pairs(pairs[outcome.planned.payload])
        got = outcome.reply["decisions"]
        ids = [(d.left_id, d.right_id) for d in expected] == [
            (d["left_id"], d["right_id"]) for d in got]
        diffs = [abs(d.probability - float(g["probability"]))
                 for d, g in zip(expected, got)]
        same_decisions = ids and [d.is_match for d in expected] == [
            bool(g["is_match"]) for g in got]
        return ids and max(diffs) == 0.0, same_decisions, max(diffs)

    strict = [compare(o) for o in sample(isolated)]
    loose = [compare(o) for o in sample(shared)]
    report.check(
        "sampled replies of isolated requests bit-identical to "
        "SequentialScorer", bool(strict) and all(c[0] for c in strict),
        f"{sum(not c[0] for c in strict)}/{len(strict)} differ")
    worst = max((c[2] for c in loose), default=0.0)
    report.check(
        f"sampled replies of requests sharing encodings: same decisions, "
        f"|dp| <= {SHARED_TOLERANCE:g}",
        all(c[1] and c[2] <= SHARED_TOLERANCE for c in loose),
        f"{sum(not c[0] for c in loose)}/{len(loose)} not bit-identical, "
        f"max |dp| {worst:.3g}")
    sent = [pair for o in outcomes for pair in pairs[o.planned.payload]]
    return unique_share(sent, pipeline.extractor.vocab,
                        pipeline.extractor.max_len)


def run_serve(work: Path, seed: int, seconds: float, trace: bool) -> Report:
    report = Report("serve")
    plan = serve_plan(seconds, seed)
    needed = openloop.fresh_needed(plan)
    walls = _setups("serve-setup", work, seed, "--requests", str(needed))
    dirs = [work / f"setup-{i}" for i in range(SETUP_REPEATS)]
    daemons: List[Daemon] = []
    try:
        # Each set-up ends with its own daemon answering a ping.
        for i, directory in enumerate(dirs):
            start = time.perf_counter()
            daemons.append(Daemon(directory / "snapshot", work))
            walls[i] += time.perf_counter() - start
            if i < len(dirs) - 1:
                daemons.pop().stop()
        daemon = daemons[-1]
        snapshot = dirs[-1] / "snapshot"
        pool = [json.loads(line) for line in
                (dirs[-1] / "pool.jsonl").read_text().splitlines()]
        plain = asyncio.run(_drive(daemon, pool, plan))
        rss = daemon.peak_rss_mb()
        daemons.pop().stop()
    finally:
        for leftover in daemons:
            leftover.kill()
    rungs = plain["rungs"]
    low = rungs[0]
    report.attempted = len(plain["outcomes"])
    report.failed = sum(o.status != "ok" for o in plain["outcomes"])
    report.e2e = {"setup_s": (median(walls), "s"),
                  "peak_rss_mb": (rss, "MB"),
                  "cpu_s": (low["daemon_cpu_s"] / low["sent"], "s")}
    report.named = [
        ("setup_s", median(walls), "s"),
        ("peak_rss_mb", rss, "MB"),
        ("latency_p50_ms", low["latency_p50_ms"], "ms"),
        ("latency_p99_ms", low["latency_tail_ms"], "ms"),
        ("max_rate_rps", openloop.max_rate(rungs), "req/s"),
    ]
    report.lines.append(_setup_line(walls))
    report.lines.append(
        f"  latency_p99_ms is p{low['tail_percentile']:.2f} of "
        f"{low['sent']} requests (the highest percentile with >= 10 "
        f"samples beyond it)")
    report.lines += [_rung_line(r) for r in rungs]
    share = _check_replies(report, snapshot, pool, plain["outcomes"], seed)
    report.lines.append(f"  unique-encoding share of sent pairs "
                        f"{share:.4f}")
    report.check("every reply ok", report.failed == 0,
                 f"{report.failed} of {report.attempted} not ok")
    report.check(
        "first rung starts cold: fresh daemon, fresh pairs",
        plain["initial"]["requests"] == 0
        and any(not p.repeat for p in plan if p.rung == 0),
        f"daemon had served {plain['initial']['requests']} requests")
    report.check(
        f"unique-encoding share >= {UNIQUE_SHARE_FLOOR['serve']}",
        share >= UNIQUE_SHARE_FLOOR["serve"], f"{share:.4f}")
    if trace:
        _trace_serve(report, work, snapshot, pool, plan, plain, share)
    return report


def _trace_serve(report: Report, work: Path, snapshot: Path, pool, plan,
                 plain: Dict[str, Any], share: float) -> None:
    daemon = Daemon(snapshot, work, spans=work / "daemon-spans.json")
    try:
        traced = asyncio.run(_drive(daemon, pool, plan))
        dump = daemon.stop()
    finally:
        daemon.kill()
    spans = [Span.from_dict(record) for record in dump["spans"]]
    metrics = layers.layer_metrics(spans, dump["counts"])
    low = traced["rungs"][0]
    first = [o for o in traced["outcomes"] if o.planned.rung == 0]
    server = [o.reply["latency_seconds"] * 1e3 for o in first
              if o.status == "ok"]
    wire = [(o.done - o.sent) * 1e3 - o.reply["latency_seconds"] * 1e3
            for o in first if o.status == "ok"]
    __, server_tail = tail_percentile(server)
    metrics.update({
        "daemon.server_p50_ms": median(server),
        "daemon.server_p99_ms": server_tail,
        "wire.p50_ms": median(wire),
        "daemon.requests_per_flush": low["daemon"]["requests_per_flush"],
        "daemon.rejected": sum(r["daemon"]["rejected"]
                               for r in traced["rungs"]),
        "daemon.failed": sum(r["daemon"]["failed"] for r in traced["rungs"]),
        "input.unique_share": share,
        "trace.wall_s": low["latency_p50_ms"] / 1e3,
        "trace.overhead_s": (low["latency_p50_ms"]
                             - plain["rungs"][0]["latency_p50_ms"]) / 1e3,
    })
    report.layers = metrics
    misses = layers.rung_cache_misses(spans, [f"q{o.planned.index}"
                                              for o in first])
    report.check("first traced rung records cache misses > 0",
                 bool(misses), f"{misses} misses")
    report.lines.append("  traced ladder:")
    report.lines += ["  " + _rung_line(r) for r in traced["rungs"]]


# --------------------------------------------------------------------------- #
# adapt
# --------------------------------------------------------------------------- #

def run_adapt(work: Path, seed: int, seconds: float, trace: bool) -> Report:
    report = Report("adapt")
    walls = _setups("adapt-setup", work, seed)
    plain = run_child(["adapt-run", "--seed", str(seed)], work)
    runs = plain["runs"]
    train = sum(r["train_s"] for r in runs.values())
    report.attempted = len(runs)
    report.e2e = {"setup_s": (median(walls), "s"),
                  "peak_rss_mb": (plain["peak_rss_mb"], "MB"),
                  "cpu_s": (sum(r["cpu_s"] for r in runs.values()), "s")}
    report.named = [("setup_s", median(walls), "s"),
                    ("peak_rss_mb", plain["peak_rss_mb"], "MB")]
    report.named += [(f"train_s_{a}", r["train_s"], "s")
                     for a, r in runs.items()]
    report.named += [(f"target_f1_{a}", r["target_f1"], "ratio")
                     for a, r in runs.items()]
    report.lines.append(_setup_line(walls))
    report.lines.append(
        f"  unique-encoding share {plain['unique_share']:.4f}; guard-rail "
        f"recoveries " + ", ".join(f"{a} {r['recoveries']}"
                                    for a, r in runs.items()))
    f1s = {a: r["target_f1"] for a, r in runs.items()}
    report.check("target F1 in [0, 1]",
                 all(0.0 <= f <= 1.0 for f in f1s.values()), str(f1s))
    report.check(
        f"unique-encoding share >= {UNIQUE_SHARE_FLOOR['adapt']}",
        plain["unique_share"] >= UNIQUE_SHARE_FLOOR["adapt"],
        f"{plain['unique_share']:.4f}")
    _check_repeat(report, f"adapt:{seed}", f1s, "target F1")
    if trace:
        traced = run_child(["adapt-run", "--seed", str(seed), "--trace"],
                           work)
        traced_f1s = {a: r["target_f1"] for a, r in traced["runs"].items()}
        report.check("traced target F1 identical to untraced",
                     traced_f1s == f1s, f"{traced_f1s} vs {f1s}")
        traced_train = sum(r["train_s"] for r in traced["runs"].values())
        report.layers = dict(traced["layers"])
        report.layers.update({
            "input.unique_share": plain["unique_share"],
            "trace.wall_s": traced_train,
            "trace.overhead_s": traced_train - train,
            "trace.unattributed_share":
                traced["reconcile"]["unattributed_share"],
        })
    return report


WORKLOADS = {"resolve": run_resolve, "serve": run_serve, "adapt": run_adapt}
