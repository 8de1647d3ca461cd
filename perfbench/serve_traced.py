"""Run ``repro serve`` with the benchmark's layer wrappers installed.

    python perfbench/serve_traced.py SPANS.json [serve options...]

Spans are timed with ``time.monotonic`` so the caller can cut them to its
own timed phase, and are written to ``SPANS.json`` when the server exits.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv):
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from benchkit import layers
    from benchkit.spans import SpanRecorder, write_spans
    from repro.cli import main as cli_main

    spans_path, serve_args = argv[0], argv[1:]
    recorder = SpanRecorder(clock=time.monotonic)
    layers.install(recorder)
    try:
        return cli_main(["serve", *serve_args])
    finally:
        write_spans(recorder.spans, spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
