"""Start ``repro.cli serve`` with the benchmark's spans installed.

    python3 serve_launch.py <spans.jsonl> serve <index> --port N ...

Used only by ``--trace`` runs of ``serve_mix``: the server is a separate
process, so its layers are wrapped here, inside it, and the spans are
written when it shuts down (SIGINT, the CLI's clean exit). The untraced
server is plain ``python -m repro.cli serve``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import common

common.bootstrap()

from spans import TRACER, write_spans  # noqa: E402 - needs bootstrap()


def main(argv: list[str]) -> int:
    spans_out, cli_argv = Path(argv[0]), argv[1:]
    from repro.cli import main as cli_main

    TRACER.install()
    TRACER.unit = "server"
    TRACER.on = True
    try:
        return cli_main(cli_argv)
    finally:
        TRACER.on = False
        write_spans(spans_out, TRACER.spans, {"proc": "server"})


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
