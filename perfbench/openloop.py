"""Open-loop load: a seeded request schedule, sent on time over few links.

Requests are due on a Poisson schedule fixed by the seed before the rung
starts.  A generator hands each one to a queue at its due time, whatever
the daemon is doing; ``links`` sender tasks (one connection each, one
request in flight per connection, as the daemon's wire protocol allows)
take them in order.  A request's latency runs from its *due* time to its
reply, so a stalled daemon charges its stall to every request queued
behind it, and the generator's own lateness is recorded separately.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import (Any, Awaitable, Callable, Dict, List, Optional, Sequence,
                    Tuple)

import numpy as np

from .common import median, tail_percentile

#: Offered rates (requests per second), lowest first.  Measured on a
#: 2-core x86-64 box, the daemon's knee sits between 80 and 100 req/s;
#: the top rung stays above it.
LADDER = (40, 70, 100, 130)
#: Share of requests that repeat, verbatim, one sent earlier in the run.
REPEAT_SHARE = 0.25
#: Connections the load comes over.
LINKS = 2
#: ``max_rate_rps`` criteria: tail latency limit, and the most requests
#: that may still be queued or in flight at a rung's last due time.
LATENCY_LIMIT_MS = 100.0
BACKLOG_LIMIT = 2 * LINKS
#: A rung whose generator handed a request over later than this after its
#: due time did not offer the load it names, and does not count.
LATENESS_LIMIT_MS = 50.0


@dataclass
class Planned:
    """One scheduled request."""

    index: int
    rung: int
    due: float          # seconds after the rung's start
    payload: int        # index into the request pool
    repeat: bool


@dataclass
class Outcome:
    """What happened to one planned request (times on the loop clock)."""

    planned: Planned
    due: float = 0.0
    handed: float = 0.0   # generator put it on the queue
    sent: float = 0.0
    done: float = 0.0
    status: str = "pending"   # ok | failed | refused
    reply: Optional[Dict[str, Any]] = field(default=None, repr=False)

    @property
    def latency(self) -> float:
        """Seconds from the request's due time to its reply."""
        return self.done - self.due


def plan_ladder(counts: Sequence[int], seed: int,
                rates: Sequence[float] = LADDER,
                repeat_share: float = REPEAT_SHARE) -> List[Planned]:
    """Poisson arrivals, ``counts[i]`` requests at ``rates[i]``; one
    request in four (by default) repeats a request already planned earlier
    in the run, the rest take fresh pool entries in order.  The first
    request is always fresh."""
    rng = np.random.default_rng((seed, 0x0BE7))
    plan: List[Planned] = []
    fresh = 0
    for rung, (rate, count) in enumerate(zip(rates, counts)):
        due = 0.0
        for __ in range(count):
            due += float(rng.exponential(1.0 / rate))
            if plan and rng.random() < repeat_share:
                payload = plan[int(rng.integers(len(plan)))].payload
                repeat = True
            else:
                payload, repeat = fresh, False
                fresh += 1
            plan.append(Planned(len(plan), rung, due, payload, repeat))
    return plan


def fresh_needed(plan: Sequence[Planned]) -> int:
    return 1 + max(p.payload for p in plan)


Send = Callable[[int, Planned], Awaitable[Dict[str, Any]]]


async def run_rung(plan: Sequence[Planned], send: Send,
                   links: int = LINKS, lead: float = 0.02
                   ) -> Tuple[List[Outcome], Dict[str, float]]:
    """Offer ``plan`` (one rung) on schedule; return outcomes + generator
    statistics.  ``send(link, planned)`` performs one exchange on
    connection ``link`` and returns the reply."""
    loop = asyncio.get_running_loop()
    queue: "asyncio.Queue[Optional[Outcome]]" = asyncio.Queue()
    outcomes = [Outcome(p) for p in plan]
    start = loop.time() + lead
    finished = 0
    generator = {"max_lateness_s": 0.0, "backlog_end": 0}

    async def generate() -> None:
        for outcome in outcomes:
            outcome.due = start + outcome.planned.due
            delay = outcome.due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            outcome.handed = loop.time()
            generator["max_lateness_s"] = max(generator["max_lateness_s"],
                                              outcome.handed - outcome.due)
            queue.put_nowait(outcome)
        generator["backlog_end"] = len(outcomes) - finished
        for __ in range(links):
            queue.put_nowait(None)

    async def sender(link: int) -> None:
        nonlocal finished
        while True:
            outcome = await queue.get()
            if outcome is None:
                return
            outcome.sent = loop.time()
            try:
                reply = await send(link, outcome.planned)
            except (ConnectionError, asyncio.IncompleteReadError,
                    ValueError) as error:
                reply = {"ok": False, "error": "transport",
                         "detail": str(error)}
            outcome.done = loop.time()
            outcome.reply = reply
            if reply.get("ok"):
                outcome.status = "ok"
            elif reply.get("error") == "backpressure":
                outcome.status = "refused"
            else:
                outcome.status = "failed"
            finished += 1

    tasks = [asyncio.ensure_future(generate())]
    tasks += [asyncio.ensure_future(sender(i)) for i in range(links)]
    await asyncio.gather(*tasks)
    return outcomes, generator


def summarize_rung(rate: float, outcomes: Sequence[Outcome],
                   generator: Dict[str, float]) -> Dict[str, Any]:
    """Per-rung report, and whether the rung meets the rate criteria.
    A failed or refused request counts as missing the latency limit."""
    ok = [o for o in outcomes if o.status == "ok"]
    latencies = [o.latency * 1e3 for o in outcomes]
    failed = sum(o.status == "failed" for o in outcomes)
    refused = sum(o.status == "refused" for o in outcomes)
    percentile, tail = tail_percentile(latencies)
    report = {
        "rate_rps": rate, "sent": len(outcomes), "succeeded": len(ok),
        "failed": failed, "refused": refused,
        "latency_p50_ms": median(latencies),
        "tail_percentile": percentile, "latency_tail_ms": tail,
        "max_lateness_ms": generator["max_lateness_s"] * 1e3,
        "backlog_end": generator["backlog_end"],
    }
    report["meets_limit"] = bool(
        tail <= LATENCY_LIMIT_MS and not failed and not refused
        and report["backlog_end"] <= BACKLOG_LIMIT
        and report["max_lateness_ms"] <= LATENESS_LIMIT_MS)
    return report


def max_rate(rungs: Sequence[Dict[str, Any]]) -> float:
    """Highest offered rate whose rung met every criterion (0 if none)."""
    return max((r["rate_rps"] for r in rungs if r["meets_limit"]),
               default=0.0)


class WireLinks:
    """``LINKS`` JSON-lines connections to one daemon."""

    def __init__(self, host: str, port: int, pool: Sequence[List[Any]],
                 links: int = LINKS):
        self.address = (host, port)
        self.pool = pool
        self.links = links
        self._streams: List[Tuple[asyncio.StreamReader,
                                  asyncio.StreamWriter]] = []

    async def open(self) -> None:
        for __ in range(self.links):
            self._streams.append(await asyncio.open_connection(
                *self.address, limit=2**22))

    async def call(self, link: int, message: Dict[str, Any]
                   ) -> Dict[str, Any]:
        reader, writer = self._streams[link]
        writer.write(json.dumps(message).encode() + b"\n")
        await writer.drain()
        line = await reader.readline()
        if not line.endswith(b"\n"):
            raise ConnectionError("daemon closed the connection mid-reply")
        return json.loads(line)

    async def send(self, link: int, planned: Planned) -> Dict[str, Any]:
        """Serialize at send time: wire JSON is part of the request's cost."""
        return await self.call(link, {"op": "score", "domain": "default",
                                      "id": f"q{planned.index}",
                                      "pairs": self.pool[planned.payload]})

    async def close(self) -> None:
        for __, writer in self._streams:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass
        self._streams = []
