"""The ``claims-check`` workload: the eight claim monitors, in batch.

A repetition starts a fresh program process (``child.py claims``),
times spawn-to-ready as ``setup_s``, then asks for the monitors one at
a time, in the program's declaration order, and times the batch.
Repetitions run while the next one is expected to end within
``--seconds``.

``wall_s`` is the eight monitors back to back, as the driver sees them;
``cpu_s`` is the CPU time the program process spent on them, read from
``/proc`` with steal left out; the gated ``cpu_ref`` divides each
monitor's CPU time by the mean of two timings of the reference mix
(:mod:`reference`) on the program's CPU, one just before and one just
after it.  Each is the sum over the monitors of the monitor's median
over the repetitions: the host's speed changes from one second to the
next, and a median per monitor follows its typical speed more closely
than the median of whole repetitions does.  ``wall_s`` and ``cpu_s``
are printed on the protocol line: the host's load moved them by more
than any bound a gate may set (NOTES.md).

The monitors run at the program's pinned claim seed.  ``--seed`` is
recorded but changes no input: several claim bands do not hold at
other seeds (see NOTES.md), and a workload must not fail by design.

With ``--trace 1`` repetitions alternate untraced and traced program
processes; per-layer numbers come from the traced ones and the ratio
of the two median wall times is reported as the tracing overhead.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

import reference
import spans as spanlib
from programs import ClaimsProgram

#: Fewest repetitions of one untraced run (a traced run makes at least
#: one untraced and one traced).
MIN_REPS = 2

#: Program starts whose spawn-to-ready times ``setup_s`` is the median
#: of: the repetitions' own starts, topped up with starts that stop as
#: soon as the program is ready.
SETUPS = 5

#: Longest one monitor may take before the run fails.
MONITOR_TIMEOUT_S = 120.0


def _rep(scratch: Path, spans_path: Optional[Path]) -> Dict:
    t0 = perf_counter()
    program = ClaimsProgram(scratch, spans_path=spans_path)
    try:
        setup_s = perf_counter() - t0
        names = program.ready["monitors"]
        passed: Dict[str, bool] = {}
        wall: Dict[str, float] = {}
        cpu: Dict[str, float] = {}
        ratio: Dict[str, float] = {}
        ref = reference.cpu_s()
        for name in names:
            c, t = program.cpu_s(), perf_counter()
            answer = program.evaluate(name, MONITOR_TIMEOUT_S)
            wall[name] = perf_counter() - t
            cpu[name] = program.cpu_s() - c
            after = reference.cpu_s()
            ratio[name] = cpu[name] / ((ref + after) / 2)
            ref = after
            passed[name] = bool(answer["passed"]) and answer["name"] == name
        rss = program.peak_rss_mb()
        code = program.stop()
    except BaseException:
        program.kill()
        raise
    if code != 0:
        raise RuntimeError(f"claims program exited with code {code}")
    return {
        "setup_s": setup_s,
        "wall": wall,
        "cpu": cpu,
        "ratio": ratio,
        "peak_rss_mb": rss,
        "passed": passed,
    }


def run(seed: int, seconds: float, trace: bool, scratch: Path) -> Dict:
    """One run; returns ``{"attempted", "failed", "metrics", "protocol"}``."""
    plain: List[Dict] = []
    traced: List[Dict] = []
    layer_rows: List[Dict[str, float]] = []
    t_start = perf_counter()
    while True:
        plain.append(_rep(scratch, None))
        if trace:
            spans_path = scratch / f"claims-spans-{len(traced)}.json"
            traced.append(_rep(scratch, spans_path))
            layer_rows.append(_layers(json.loads(spans_path.read_text())))
        elapsed = perf_counter() - t_start
        enough = trace or len(plain) >= MIN_REPS
        if enough and elapsed + elapsed / len(plain) > seconds:
            break
    setups = [rep["setup_s"] for rep in plain]
    while len(setups) < SETUPS:
        t0 = perf_counter()
        program = ClaimsProgram(scratch)
        setups.append(perf_counter() - t0)
        if program.stop() != 0:
            raise RuntimeError("claims program failed to stop")
    attempted = failed = 0
    for rep in plain + traced:
        attempted += len(rep["passed"])
        failed += sum(not ok for ok in rep["passed"].values())
        for name, ok in rep["passed"].items():
            if not ok:
                print(f"claim monitor {name} is not green")
    metrics = {
        "wall_s": _sum_of_medians(plain, "wall"),
        "cpu_s": _sum_of_medians(plain, "cpu"),
        "cpu_ref": _sum_of_medians(plain, "ratio"),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in plain),
    }
    metrics["setup_s"] = statistics.median(setups)
    metrics["ok_frac"] = (attempted - failed) / attempted
    result = {
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "protocol": {
            "repetitions": len(plain),
            "setups": len(setups),
            "wall_s": metrics["wall_s"],
            "cpu_s": metrics["cpu_s"],
            "reference_s": statistics.median(
                rep["cpu"][name] / rep["ratio"][name] for rep in plain for name in rep["cpu"]
            ),
            "traced_repetitions": len(traced),
            "monitor_seed": "program default",
            "monitors": list(plain[0]["passed"]),
        },
    }
    if trace:
        layers = {key: statistics.median(row[key] for row in layer_rows) for key in layer_rows[0]}
        layers["bench.trace_overhead_frac"] = (
            _sum_of_medians(traced, "wall") / metrics["wall_s"] - 1.0
        )
        result["layers"] = layers
    return result


def _sum_of_medians(reps: List[Dict], key: str) -> float:
    """Each monitor's median time over the repetitions, summed."""
    return sum(statistics.median(rep[key][name] for rep in reps) for name in reps[0][key])


def _layers(doc: Dict) -> Dict[str, float]:
    window = (doc["t_boot"], doc["t_end"])
    layers = spanlib.layer_metrics(doc, window)
    for name, row in spanlib.layer_totals(doc["spans"], window).items():
        if name.startswith("monitors."):
            layers[f"{name}.wall_s"] = row["wall_s"]
    return layers
