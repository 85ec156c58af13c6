"""The program side of the benchmark: a process that runs ``repro`` code.

Two modes, each started by ``run.py`` with ``PYTHONPATH=src``:

``python pipebench/child.py batch [--traced]``
    A batch worker.  It imports the job pipeline, writes one ``ready``
    line, then answers each JSON line on stdin: ``{"op": "job",
    "request": {...}}`` runs ``execute_job`` with the trace cache off
    and answers ``{"ok", "payload" | "error", "wall_s",
    "trace_warp_insts"}``; ``{"op": "report"}`` answers the layer
    report (traced only).  It exits at end of input.

``python pipebench/child.py serve --report PATH -- <repro serve args>``
    ``repro serve`` with the layer wrappers installed (per-cycle
    simulator wrappers excluded: the server is multi-threaded).  The
    layer report is written to PATH when the server shuts down.  The
    untraced service runs ``python -m repro serve`` directly instead.
"""

from __future__ import annotations

import json
import sys
import time


def _trace_warp_insts(registry):
    # the runner publishes each application's trace size here; read as
    # a before/after difference around one job
    counter = registry.get("app.trace.warp_insts")
    return 0 if counter is None else counter.total()


def batch(traced):
    from repro.obs.metrics import get_registry
    from repro.service.pipeline import execute_job

    lc = None
    run = execute_job
    if traced:
        import layers

        lc = layers.install(layers.LayerClock(), per_cycle=True)
        run = lc.wrap(layers.JOB, execute_job)
    out = sys.stdout
    out.write(json.dumps({"ready": True}) + "\n")
    out.flush()
    registry = get_registry()
    for line in sys.stdin:
        message = json.loads(line)
        if message["op"] == "report":
            answer = lc.report() if lc is not None else {}
        else:
            before = _trace_warp_insts(registry)
            start = time.perf_counter()
            try:
                payload = run(message["request"], use_trace_cache=False)
                answer = {"ok": True, "payload": payload}
            except Exception as exc:  # noqa: BLE001 — reported as failed job
                answer = {"ok": False,
                          "error": "%s: %s" % (type(exc).__name__, exc)}
            answer["wall_s"] = time.perf_counter() - start
            answer["trace_warp_insts"] = _trace_warp_insts(registry) - before
        out.write(json.dumps(answer) + "\n")
        out.flush()
    return 0


def serve(report_path, argv):
    import layers
    from repro import cli

    lc = layers.install(layers.LayerClock(), per_cycle=False)
    try:
        return cli.main(["serve"] + argv)
    finally:
        with open(report_path, "w") as fh:
            json.dump(lc.report(), fh)


def main(argv):
    if argv[:1] == ["batch"]:
        return batch("--traced" in argv[1:])
    if argv[:2] == ["serve", "--report"] and argv[3:4] == ["--"]:
        return serve(argv[2], argv[4:])
    sys.stderr.write(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
