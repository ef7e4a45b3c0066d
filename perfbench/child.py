"""The program process of a benchmark run, when it is not plain ``repro serve``.

``python perfbench/child.py claims [--spans PATH]``
    Imports ``repro``, prints the monitor names on one line, then evaluates one
    claim monitor per line read from stdin (its name) and answers each
    with one JSON line.  ``exit`` ends the process.  The driver times
    every round trip; this process times nothing it reports as a metric.
``python perfbench/child.py serve --spans PATH [repro serve flags...]``
    Runs ``repro serve`` with the span wrappers installed and writes the
    spans when the server stops (SIGINT).

With ``--spans`` the public callables of :func:`spans.install` are
rebound before any work starts, and the span list is written to PATH
when the process ends.
"""

from __future__ import annotations

from time import perf_counter

T_BOOT = perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def _import_repro(recorder):
    start = perf_counter()
    import repro  # noqa: F401

    if recorder is not None:
        recorder.add("import.repro", start, perf_counter())
        from spans import install

        start = perf_counter()
        install(recorder)
        recorder.add("bench.install", start, perf_counter())


def _claims() -> int:
    from repro.obs.monitors import monitor_names, run_monitors

    print(json.dumps({"monitors": list(monitor_names())}), flush=True)
    for line in sys.stdin:
        name = line.strip()
        if name == "exit":
            break
        result = run_monitors([name], record=False)[0]
        print(json.dumps({"name": result.name, "passed": result.passed}), flush=True)
    return 0


def _serve(flags) -> int:
    from repro.cli import main

    return main(["serve", *flags])


def main(argv) -> int:
    mode, rest = argv[0], list(argv[1:])
    spans_path = None
    if rest[:1] == ["--spans"]:
        spans_path, rest = rest[1], rest[2:]
    recorder = None
    if spans_path is not None:
        from spans import SpanRecorder

        recorder = SpanRecorder()
    _import_repro(recorder)
    try:
        if mode == "claims":
            return _claims()
        if mode == "serve":
            return _serve(rest)
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    finally:
        if recorder is not None:
            recorder.dump(spans_path, t_boot=T_BOOT, t_end=perf_counter())


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
