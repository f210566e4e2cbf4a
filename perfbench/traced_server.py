"""Run ``repro serve`` with the span wrappers installed.

Usage: ``python3 perfbench/traced_server.py --spans OUT.json -- <serve args>``

Installs :mod:`perfbench.spans` in this process, hands the remaining
arguments to the repo's CLI ``serve`` command, and writes the recorded
spans to ``OUT.json`` when the server shuts down (SIGINT).
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv) -> int:
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, serve_args = argv[1], argv[3:]
    for path in (ROOT, os.path.join(ROOT, "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench.spans import SpanRecorder, install

    recorder = SpanRecorder()
    install(recorder)
    import repro.cli

    try:
        return repro.cli.main(["serve"] + serve_args)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
