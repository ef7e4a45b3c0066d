"""A fixed piece of work that says how fast the program's CPU is now.

The host lends these CPUs to other machines too, and the CPU time the
same program needs for the same work moved up to 1.8x with the host's
load (NOTES.md): a core shared with another machine runs fewer
instructions a second.  :func:`cpu_s` runs a fixed mix of the kind of
work the program does (interpreter-bound JSON and dict handling, as a
served request does, and small NumPy array passes) on
the program's own CPU just before and just after each timed piece of
the program's work, so the gated ``cpu_ref`` metric can count the
program's CPU time in units of this mix.
"""

from __future__ import annotations

import json
import os
from time import process_time

import numpy as np

from programs import PROGRAM_CPUS

_DOC = {
    "workload": "x264",
    "points": [
        {"tp_s": i * 0.5, "energy_j": (i * 37 % 101) * 3.25, "mix": f"{i % 9} A9 + {i % 5} K10"}
        for i in range(64)
    ],
}
_ARRAY = np.random.default_rng(0).random(20_000)

#: Rounds of the mix in one timing (~10 ms on an idle host).
ROUNDS = 20

#: Timings averaged in one measurement.
REPEATS = 5


def _once() -> None:
    for _ in range(ROUNDS):
        doc = json.loads(json.dumps(_DOC))
        sorted(doc["points"], key=lambda p: (p["energy_j"], p["tp_s"]))
        np.sort(_ARRAY).cumsum()


def cpu_s() -> float:
    """Mean CPU seconds of one mix, run on the program's CPU."""
    before = os.sched_getaffinity(0)
    if PROGRAM_CPUS:
        os.sched_setaffinity(0, PROGRAM_CPUS)
    try:
        _once()  # settle on the CPU
        start = process_time()
        for _ in range(REPEATS):
            _once()
        return (process_time() - start) / REPEATS
    finally:
        os.sched_setaffinity(0, before)
