"""Traced server: install the layer wrappers, then run ``repro serve``.

Usage: ``python3 perfbench/serve_launcher.py SPANS_OUT serve ARGS...``.
The wrappers (``layers.install``) go in before the CLI runs; the spans
are written to ``SPANS_OUT`` once the server has drained (SIGINT).
"""

from __future__ import annotations

import sys
from pathlib import Path

import layers


def main(argv) -> int:
    spans_out, cli_args = Path(argv[0]), argv[1:]
    recorder = layers.install()
    from repro.cli import main as repro_main

    try:
        return repro_main(cli_args)
    finally:
        recorder.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
