"""Traced cold CLI process: ``python3 perfbench/child.py SPANS_PATH VERB ARGS...``.

Runs ``persuade.cli.main`` exactly as ``python -m persuade`` would, with the
span recorder installed, then writes the spans as JSON to SPANS_PATH and
exits with the CLI's code.  Its stdout is the CLI's stdout alone.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import persuade.cli  # noqa: E402

from perfbench.trace import Tracer  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    try:
        with tracer.recording(0):
            return persuade.cli.main(argv)
    finally:
        sys.stdout.flush()
        Path(spans_path).write_text(json.dumps(tracer.spans))


if __name__ == "__main__":
    sys.exit(main())
