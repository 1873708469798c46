"""Shared helpers: fixed settings, statistics, memory probes, child processes.

Everything the benchmark writes goes under :data:`WORK_ROOT` inside the
checkout; every child process runs single-threaded BLAS (the repo's
determinism contract) with its temporary directory inside that root.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
SRC = REPO / "src"
WORK_ROOT = REPO / ".perfbench-work"
CHILD = BENCH_DIR / "child.py"

#: Setups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Tail percentile aimed for, and the samples that must lie beyond it.
TAIL_PERCENTILE = 99.0
TAIL_BEYOND = 10

#: Child processes that outlive this are killed and the run fails.
CHILD_TIMEOUT_S = 150.0


def tail_percentile(values: Sequence[float], target: float = TAIL_PERCENTILE,
                    beyond: int = TAIL_BEYOND) -> Tuple[float, float]:
    """``(percentile, value)``: the ``target`` percentile, or the highest
    lower one that still has ``beyond`` samples above it.

    With ``n`` samples the sample at sorted index ``n - beyond - 1`` has
    exactly ``beyond`` samples above it, i.e. percentile
    ``100 * (n - beyond) / n``.  Raises when ``n <= beyond``.
    """
    n = len(values)
    if n <= beyond:
        raise ValueError(f"{n} samples cannot leave {beyond} beyond any "
                         f"percentile")
    percentile = min(target, 100.0 * (n - beyond) / n)
    index = max(0, math.ceil(percentile / 100.0 * n) - 1)
    return percentile, sorted(values)[index]


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def current_rss_mb() -> float:
    """Resident set size of this process now, in MB."""
    with open("/proc/self/statm") as handle:
        pages = int(handle.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB (Linux KB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def process_cpu_s(pid: int) -> float:
    """CPU seconds the live threads of a process have run, to the
    nanosecond (``/proc/<pid>/task/*/schedstat``; clock ticks in
    ``/proc/<pid>/stat`` are too coarse for a few hundred requests)."""
    total = 0
    for task in Path(f"/proc/{pid}/task").iterdir():
        try:
            total += int((task / "schedstat").read_text().split()[0])
        except FileNotFoundError:  # the thread exited while we looked
            continue
    return total / 1e9


def digest(obj: Any) -> str:
    """Short stable digest of a JSON-serializable object."""
    payload = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def child_env(work_dir: Path) -> Dict[str, str]:
    """Environment for every process the benchmark starts."""
    env = dict(os.environ)
    env.update({
        "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "PYTHONPATH": str(SRC),
        "REPRO_CACHE": str(REPO / ".cache"),
        "TMPDIR": str(work_dir),
        "PYTHONDONTWRITEBYTECODE": "1",
    })
    return env


def last_json_line(text: str) -> Dict[str, Any]:
    for line in reversed(text.splitlines()):
        if line.startswith("{"):
            return json.loads(line)
    raise RuntimeError("child printed no JSON result")


class ChildError(RuntimeError):
    pass


def run_child(args: List[str], work_dir: Path,
              timeout: float = CHILD_TIMEOUT_S) -> Dict[str, Any]:
    """Run ``child.py args`` to completion; return its JSON result."""
    try:
        done = subprocess.run([sys.executable, str(CHILD), *args],
                              cwd=REPO, env=child_env(work_dir),
                              capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as error:  # run() killed and reaped it
        raise ChildError(f"child {args[0]} timed out after {timeout}s"
                         ) from error
    if done.returncode != 0:
        raise ChildError(f"child {args[0]} exited {done.returncode}:\n"
                         + done.stderr[-4000:])
    return last_json_line(done.stdout)


def check_source_tree() -> Optional[str]:
    """Why the program cannot be run from this checkout, or ``None``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return f"no program sources at {SRC / 'repro'}"
    if not (REPO / ".cache").is_dir():
        return f"no pretrained checkpoint cache at {REPO / '.cache'}"
    return None
