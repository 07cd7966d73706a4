"""Traced ``sst serve``: install the layer hooks, then run the CLI.

Run by ``run.py`` for the traced ``serve-mixed`` session:

    python perfbench/serve_launcher.py SPAWNED REPORT SPANS -- SST_ARGS...

``SPAWNED`` is the parent's ``time.monotonic()`` at spawn.  After the
server drains (SIGTERM) the launcher writes ``REPORT`` (JSON: import
time, per-layer span totals, handler and gate span statistics, root
spans the program's tracer still retains, ancestor-table size) and
the raw spans to ``SPANS``.
"""

from __future__ import annotations

import json
import sys
import time


def main(argv: list[str]) -> int:
    spawned, report_path, spans_path = float(argv[0]), argv[1], argv[2]
    sst_args = argv[argv.index("--") + 1:]
    from repro import cli
    from repro.core import telemetry
    imported = time.monotonic()
    import tracing

    recorder = tracing.Recorder()
    tracing.install(recorder)
    code = cli.main(sst_args)

    table = tracing.SpanTable(recorder.spans)
    handler = table.durations.get("server.handler", [])
    report = {
        "import_s": imported - spawned,
        "layers": tracing.layer_seconds(table),
        "handler_s": sum(handler),
        "handler_calls": len(handler),
        "request_s": table.total.get("server.request", 0.0),
        "gate_self_s": table.self_time.get("server.gate", 0.0),
        "gate_calls": table.calls.get("server.gate", 0),
        "retained_spans": len(telemetry.get_tracer().roots),
        "missing_hooks": recorder.missing,
        "ancestor_entries": 0,
    }
    trees = recorder.built.get("unified.build", [])
    if trees:
        tables = trees[-1].taxonomy.compile().export_tables()
        report["ancestor_entries"] = sum(
            len(tables.ancestor_distances[index])
            for index in range(tables.size))
    tracing.write_spans(recorder.spans, spans_path)
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
