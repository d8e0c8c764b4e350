"""Start the sweep service with the benchmark's timing wrappers installed.

Usage::

    python3 perfbench/serve_traced.py TRACE_OUT serve --socket ... [...]

Everything after ``TRACE_OUT`` is passed to ``repro.cli`` unchanged,
so this is ``repro-sim serve`` with every call in
:data:`layers.TARGETS` timed.  When the server stops, the spans and the
per-layer aggregates are written to ``TRACE_OUT`` as JSON.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import layers


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    from repro.cli import main as cli_main

    tracer = layers.LayerTracer()
    tracer.arm = "service"
    tracer.install()
    try:
        code = cli_main(cli_args)
    finally:
        tracer.remove()
        payload = {"aggregates": tracer.aggregates(),
                   "counts": tracer.counts(),
                   "spans": [dataclasses.astuple(span)
                             for span in tracer.spans]}
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
