"""Traced ``repro serve``: the CLI daemon with the benchmark's wrappers.

``python3 perfbench/daemon.py --spans OUT -- <repro serve arguments>``
installs :func:`perfbench.layers.install`, runs ``repro serve`` through
its own CLI entry point until a ``shutdown`` op arrives, restores the
patched classes and writes every recorded span to ``OUT`` as one JSON
document.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import layers  # noqa: E402
from perfbench.spans import SpanRecorder  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", type=Path, required=True)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = [a for a in args.serve_args if a != "--"]
    from repro.cli import main as repro_main

    recorder = SpanRecorder()
    patches = layers.install(recorder)
    try:
        code = repro_main(["serve", *serve_args])
    finally:
        patches.restore()
        args.spans.write_text(json.dumps({
            "spans": [s.to_dict() for s in recorder.spans],
            "counts": dict(recorder.counts)}))
    return code


if __name__ == "__main__":
    sys.exit(main())
