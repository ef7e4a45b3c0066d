"""The ``serve-hot`` and ``serve-cold`` workloads.

One run starts ``python -m repro serve`` with default flags (set-up,
timed and repeated :data:`SETUPS` times), then drives the last server
through fixed phases from this one process over at most ``nproc``
connections:

1. warm-up — a closed batch that brings the cache to steady state, not
   reported;
2. ``wall_s`` and ``cpu_s`` — a pipelined closed batch of
   ``wall_requests`` requests (:data:`DEPTH` in flight per connection,
   so the server never waits for the driver), timed by the driver and
   by the server's own CPU time; and open-loop Poisson traffic at two
   fixed rates (``lo`` and ``hi``), interleaved in :data:`SEGMENTS`
   pieces (:func:`_segments`);
3. ``max_rate_rps`` — a bisection over a fixed ladder of rates for the
   highest one with p95 within the workload's latency limit, no failed
   request and no growing backlog (:func:`judge_probe`).

The closed batch runs as :data:`WALL_PIECES` pieces in each segment,
and the reference mix (:mod:`reference`) is timed on the server's CPU
between pieces.  ``wall_s``, ``cpu_s`` and the gated ``cpu_ref`` (each
piece's CPU time over the mean of the two reference timings around
it) are the median piece scaled to ``wall_requests``, so a burst of
misses or a slow stretch of the shared host moves one piece, not the
metric.  ``wall_s``, ``cpu_s``, the open-loop latencies (from each
request's due time, :mod:`loadgen`; a failed request counts as
infinitely slow; p50 to p99, each the median over the segments of
each segment's percentile) and ``max_rate_rps`` are printed on the
protocol line: the host's load moved them 1.5-5x with the program
unchanged (NOTES.md).

A seeded sample of the answers of phase 2 is compared with the
offline search after the server stops; every wrong answer is a failure.
The ladder probes go past saturation on purpose, so their sheds and
timeouts decide the probe but are not counted as failures of the run.

With ``--trace 1`` the server is the traced twin (``child.py serve``,
request tracing at sample rate 1.0), and the per-layer numbers come
from its spans, its ``/stats`` and the driver's own timing.  A second,
untraced server then repeats the low-rate segments, and the ratio of
the two p50s is reported as the tracing overhead.
"""

from __future__ import annotations

import json
import math
import os
import random
import statistics
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

import loadgen
import plans
import reference
import spans as spanlib
from programs import ServeProgram

#: Server starts per untraced run; ``setup_s`` is their median.
SETUPS = 5

#: Pieces each reported phase is split into (see :func:`_segments`).
SEGMENTS = 8

#: The tail percentile reported and judged.  Not p99: on a shared
#: 2-CPU virtual machine the p99 of a sub-millisecond service lands
#: among the host's 10-40 ms stalls and measures how often the host
#: stalls, not the program (see NOTES.md).
TAIL_Q = 95

#: Pieces of the pipelined closed batch in each segment: the median of
#: many short pieces follows the host's typical speed over the run,
#: which moves by up to a third from one second to the next.
WALL_PIECES = 4

#: Requests in flight per connection in the pipelined closed batch.
DEPTH = 16

#: Answers checked per segment of a reported phase.
CHECKS_PER_PHASE = 5

#: Connections the driver opens: at most one per CPU.
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))

#: Probes of one ladder rung before it counts as failed.
PROBE_TRIES = 2

#: Client-side timeout of one request.
TIMEOUT_S = 10.0


def _ladder(start: float, step: float, rungs: int) -> Tuple[float, ...]:
    return tuple(float(round(start * step**k)) for k in range(rungs))


@dataclass(frozen=True)
class ServeSpec:
    name: str
    #: ``hot``: one warm space; ``cold``: the Zipf working set.
    kind: str
    lo_rps: float
    hi_rps: float
    #: Tail (:data:`TAIL_Q`) latency limit a ladder rung must meet.
    limit_ms: float
    ladder: Tuple[float, ...]
    wall_requests: int
    #: Untimed closed-batch requests that bring the cache to steady state.
    warm_requests: int
    #: Shares of ``--seconds`` for the lo and hi phases and for one probe.
    lo_share: float
    hi_share: float
    probe_share: float


SPECS = {
    "serve-hot": ServeSpec(
        name="serve-hot",
        kind="hot",
        lo_rps=500.0,
        hi_rps=1100.0,
        limit_ms=50.0,
        ladder=_ladder(500.0, 1.1, 33),
        wall_requests=48000,
        warm_requests=1000,
        lo_share=0.15,
        hi_share=0.15,
        probe_share=0.03,
    ),
    "serve-cold": ServeSpec(
        name="serve-cold",
        kind="cold",
        lo_rps=35.0,
        hi_rps=80.0,
        limit_ms=1000.0,
        ladder=_ladder(60.0, 1.2, 14),
        wall_requests=1200,
        warm_requests=400,
        lo_share=0.25,
        hi_share=0.25,
        probe_share=0.08,
    ),
}


# -- one server session ----------------------------------------------------
class Session:
    """One running server and the seeded plans sent to it."""

    def __init__(self, spec: ServeSpec, seed: int, program: ServeProgram) -> None:
        self.spec = spec
        self.seed = seed
        self.program = program
        self.tp_ranges = self._prime()
        self.digests = plans.cold_digests(self._rng("digests"))
        self.checks: List[Tuple[str, Dict, loadgen.Outcome]] = []

    def _rng(self, phase: str) -> random.Random:
        return random.Random(f"{self.seed}:{self.spec.name}:{phase}")

    def _prime(self) -> Dict[str, Tuple[float, float]]:
        """Warm the hot space of every workload; read its frontier range."""
        bodies = [plans.space_fields(w, plans.HOT_SPACE, None) for w in plans.WORKLOADS]
        outs, _ = loadgen.run_schedule(
            self.program.host,
            self.program.port,
            [loadgen.encode_request("POST", "/frontier", b) for b in bodies],
            [0.0] * len(bodies),
            connections=CONNECTIONS,
            timeout_s=TIMEOUT_S,
        )
        ranges = {}
        for workload, out in zip(plans.WORKLOADS, outs):
            if not out.ok:
                raise RuntimeError(f"priming {workload} failed: status {out.status} {out.error}")
            tps = [p["tp_s"] for p in json.loads(out.body)["points"]]
            ranges[workload] = (min(tps), max(tps))
        return ranges

    def plan(self, phase: str, n: int) -> List[Tuple[str, Dict]]:
        rng = self._rng(phase)
        if self.spec.kind == "hot":
            return plans.hot_plan(rng, n, self.tp_ranges)
        return plans.cold_plan(rng, n, self.digests, self.tp_ranges)

    def run(
        self, phase: str, rate: Optional[float], n: int, *, check: bool = False
    ) -> Tuple[List[loadgen.Outcome], float]:
        """Send one phase: Poisson at ``rate``, or a closed batch if None.

        The closed batch is pipelined (:data:`DEPTH`).  Returns the
        outcomes and the wall time.
        """
        plan = self.plan(phase, n)
        rng = self._rng(phase + ":due")
        keep = set(rng.sample(range(n), min(n, CHECKS_PER_PHASE))) if check else set()
        wire = [loadgen.encode_request("POST", path, body) for path, body in plan]
        address = (self.program.host, self.program.port)
        if rate is None:
            outs, wall = loadgen.run_pipelined(
                *address, wire, connections=CONNECTIONS, depth=DEPTH,
                timeout_s=TIMEOUT_S, keep_bodies=keep,
            )
        else:
            outs, wall = loadgen.run_schedule(
                *address, wire, plans.poisson_due(rng, rate, n),
                connections=CONNECTIONS, timeout_s=TIMEOUT_S, keep_bodies=keep,
            )
        for i in sorted(keep):
            self.checks.append((plan[i][0], plan[i][1], outs[i]))
        return outs, wall


# -- statistics ------------------------------------------------------------
def latencies_ms(outs: Sequence[loadgen.Outcome]) -> List[float]:
    """Due-time latencies; a failed request counts as infinitely slow."""
    return [o.latency_s * 1e3 if o.ok else math.inf for o in outs]


def segment_percentile(parts: Sequence[Sequence[float]], q: float) -> float:
    """The median over ``parts`` of each part's ``q``-th percentile."""
    return statistics.median(loadgen.percentile(part, q) for part in parts if part)


def thirds(values: Sequence[float]) -> List[Sequence[float]]:
    n = len(values)
    return [values[k * n // 3:(k + 1) * n // 3] for k in range(3)]


def judge_probe(spec: ServeSpec, outs: Sequence[loadgen.Outcome]) -> Dict:
    """Nothing failed, the tail within the limit, and no growing backlog.

    The backlog grows when each third of the probe waits longer, at the
    median, than the one before by more than a fifth of the limit.  A
    backlog that grows keeps growing; one stall of the host slows one
    third and then drains, and decides neither this nor the tail (the
    median over the thirds).
    """
    parts = thirds(latencies_ms(outs))
    tail = segment_percentile(parts, TAIL_Q)
    p50s = [loadgen.percentile(part, 50) for part in parts]
    growth = min(p50s[1] - p50s[0], p50s[2] - p50s[1])
    failed = sum(not o.ok for o in outs)
    return {
        "passed": failed == 0 and tail <= spec.limit_ms and growth <= spec.limit_ms / 5,
        "failed": failed,
        f"p{TAIL_Q}_ms": tail,
        "growth_ms": growth,
    }


def max_rate(spec: ServeSpec, session: Session, seconds: float) -> Tuple[float, List[Dict]]:
    """Bisection over ``spec.ladder`` from the high rate's rung.

    A rung fails only when :data:`PROBE_TRIES` probes in a row fail:
    one stall of the shared host must not send the search down the
    ladder (it once read 1.7k req/s where the runs around it read 3.4k
    to 5.4k).
    """
    probe_s = spec.probe_share * seconds
    log: List[Dict] = []

    def probe(index: int) -> bool:
        rate = spec.ladder[index]
        n = max(3, int(rate * probe_s))
        for attempt in range(PROBE_TRIES):
            outs, _ = session.run(f"probe{index}.{attempt}", rate, n)
            verdict = judge_probe(spec, outs)
            log.append({"rate_rps": rate, "requests": n, **verdict})
            if verdict["passed"]:
                return True
        return False

    lo = max((i for i, r in enumerate(spec.ladder) if r <= spec.hi_rps), default=0)
    while not probe(lo):
        if lo == 0:
            return 0.0, log
        lo -= 1
    hi = len(spec.ladder)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if probe(mid):
            lo = mid
        else:
            hi = mid
    return spec.ladder[lo], log


def _stage_totals(after: Dict, before: Dict) -> Dict[str, Tuple[float, float]]:
    """``{stage: (requests, seconds)}`` the service recorded in between."""
    out = {}
    a, b = after["tracing"]["stages"], before["tracing"]["stages"]
    for name in ("parse", "validate", "admission", "cache", "lookup", "render"):
        n = a.get(name, {}).get("count", 0.0) - b.get(name, {}).get("count", 0.0)
        total = a.get(name, {}).get("total_s", 0.0) - b.get(name, {}).get("total_s", 0.0)
        out[name] = (n, total)
    return out


def _kept(stats: Dict) -> float:
    return float(sum(stats["tracing"]["sampler"]["kept_by_reason"].values()))


# -- the workload ----------------------------------------------------------
def run(spec: ServeSpec, seed: int, seconds: float, trace: bool, scratch: Path) -> Dict:
    """One run; returns ``{"attempted", "failed", "metrics", "protocol"}``."""
    flags: List[str] = []
    setups: List[float] = []
    program: Optional[ServeProgram] = None
    spans_path = scratch / "serve-spans.json"
    try:
        if trace:
            flags = ["--trace-sample", "1.0"]
            t0 = perf_counter()
            program = ServeProgram(scratch, flags, spans_path=spans_path)
            session = Session(spec, seed, program)
            setups.append(perf_counter() - t0)
        else:
            for k in range(SETUPS):
                t0 = perf_counter()
                program = ServeProgram(scratch, flags)
                session = Session(spec, seed, program)
                setups.append(perf_counter() - t0)
                if k < SETUPS - 1:
                    program.stop()
                    program = None
        result = _phases(spec, session, seconds)
        result["metrics"]["setup_s"] = statistics.median(setups)
        result["metrics"]["peak_rss_mb"] = program.peak_rss_mb()
        stopped, program = program, None
        code = stopped.stop()
        if code not in (0, 130):
            raise RuntimeError(f"repro serve exited with code {code}\n{stopped.error_tail()}")
    finally:
        if program is not None:
            program.kill()
    failed = result["failed"]
    checked = {"hits": 0, "misses": 0, "wrong": 0}
    checker = plans.AnswerChecker()
    for path, body, out in session.checks:
        if not out.ok:
            continue  # already counted as failed
        doc = json.loads(out.body)
        checked["hits" if doc.get("cache_hit") else "misses"] += 1
        problem = checker.check(path, body, doc)
        if problem is not None:
            checked["wrong"] += 1
            print(f"wrong answer to {path} {json.dumps(body)}: {problem}")
    failed += checked["wrong"]
    result["failed"] = failed
    result["protocol"]["answers_checked"] = checked
    result["protocol"]["server_flags"] = flags
    result["protocol"]["setups"] = len(setups)
    if trace:
        result["layers"] = _layers(spec, seed, seconds, scratch, spans_path, result)
    return result


def _piece(spec: ServeSpec) -> int:
    """Requests in one piece of the pipelined closed batch."""
    return max(1, spec.wall_requests // (SEGMENTS * WALL_PIECES))


def _segments(spec: ServeSpec, session: Session, seconds: float, *, only_lo: bool = False) -> Dict:
    """Interleaved wall, lo and hi segments; returns their outcomes.

    Splitting each phase into :data:`SEGMENTS` pieces spread over the run
    makes each metric sample the whole run, not one stretch of it: the
    shared host's speed drifts over seconds.
    """
    program = session.program
    out = {"wall": [], "wall_pieces": [], "cpu_pieces": [], "refs": [], "lo": [], "hi": [], "stages": {}}
    # "lo" and "hi" hold one outcome list per segment.
    n_lo = max(1, int(spec.lo_rps * spec.lo_share * seconds / SEGMENTS))
    n_hi = max(1, int(spec.hi_rps * spec.hi_share * seconds / SEGMENTS))
    for k in range(SEGMENTS):
        ref = reference.cpu_s() if not only_lo else 0.0
        for j in range(0 if only_lo else WALL_PIECES):
            cpu0 = program.cpu_s()
            outs, wall_s = session.run(f"wall{k}.{j}", None, _piece(spec), check=j == 0)
            out["cpu_pieces"].append(program.cpu_s() - cpu0)
            after = reference.cpu_s()
            out["refs"].append((ref + after) / 2)
            ref = after
            out["wall"] += outs
            out["wall_pieces"].append(wall_s)
        before = program.stats()
        outs, _ = session.run(f"lo{k}", spec.lo_rps, n_lo, check=not only_lo)
        after = program.stats()
        out["lo"].append(outs)
        for name, (n, total) in _stage_totals(after, before).items():
            acc = out["stages"].setdefault(name, [0.0, 0.0])
            acc[0] += n
            acc[1] += total
        if not only_lo:
            outs, _ = session.run(f"hi{k}", spec.hi_rps, n_hi, check=True)
            out["hi"].append(outs)
    return out


def _phases(spec: ServeSpec, session: Session, seconds: float) -> Dict:
    program = session.program
    session.run("warm", None, spec.warm_requests)
    before = program.stats()
    t_start = perf_counter()
    seg = _segments(spec, session, seconds)
    rate, ladder_log = max_rate(spec, session, seconds)
    t_end = perf_counter()
    after = program.stats()
    wall_outs = seg["wall"]
    # Per ``wall_requests`` requests, from the median piece.
    scale = spec.wall_requests / _piece(spec)
    wall_s = scale * statistics.median(seg["wall_pieces"])
    cpu_s = scale * statistics.median(seg["cpu_pieces"])
    cpu_ref = scale * statistics.median(c / r for c, r in zip(seg["cpu_pieces"], seg["refs"]))
    lo_outs = [o for part in seg["lo"] for o in part]
    hi_outs = [o for part in seg["hi"] for o in part]

    counted = wall_outs + lo_outs + hi_outs
    failed = sum(not o.ok for o in counted)
    for out in [o for o in counted if not o.ok][:5]:
        print(f"failed request: status {out.status} {out.error or ''}")
    lo_lat = [latencies_ms(part) for part in seg["lo"]]
    hi_lat = [latencies_ms(part) for part in seg["hi"]]
    metrics = {
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "cpu_ref": cpu_ref,
        "ok_frac": (len(counted) - failed) / len(counted),
    }
    lo_ok = [o for o in lo_outs if o.ok]
    stages = {name: (total / n if n else 0.0) for name, (n, total) in seg["stages"].items()}
    timed = lo_outs + hi_outs
    # The cache, batcher and admission counters come from the spans
    # (:func:`spans.layer_metrics`), as on claims-check.
    layers = {
        "serve.admission.depth_limit": float(after["admission"]["depth_limit"]),
        "obs.request.traces_kept": _kept(after) - _kept(before),
        "loadgen.lag_p99_ms": loadgen.percentile([o.lag_s * 1e3 for o in timed], 99),
        "loadgen.conn_wait_p50_ms": loadgen.percentile([o.conn_wait_s * 1e3 for o in timed], 50),
    }
    for name, mean in stages.items():
        layers[f"serve.stage.{name}_s"] = mean
    layers["serve.unattributed_s"] = (
        statistics.fmean(o.service_s for o in lo_ok) - sum(stages.values()) if lo_ok else 0.0
    )
    return {
        "attempted": len(counted),
        "failed": failed,
        "metrics": metrics,
        "layers": layers,
        "window": (t_start, t_end),
        "protocol": {
            "connections": CONNECTIONS,
            "wall_requests": spec.wall_requests,
            "lo_rps": spec.lo_rps,
            "hi_rps": spec.hi_rps,
            "lo_requests": len(lo_outs),
            "hi_requests": len(hi_outs),
            "segments": SEGMENTS,
            "depth": DEPTH,
            "wall_s": wall_s,
            "cpu_s": cpu_s,
            "wall_pieces_s": seg["wall_pieces"],
            "cpu_pieces_s": seg["cpu_pieces"],
            "reference_pieces_s": seg["refs"],
            "latency_ms": {
                phase: {f"p{q}": segment_percentile(lat, q) for q in (50, 90, TAIL_Q, 99)}
                for phase, lat in (("lo", lo_lat), ("hi", hi_lat))
            },
            "max_rate_rps": rate,
            "limit_ms": spec.limit_ms,
            "ladder_rps": list(spec.ladder),
            "probes": ladder_log,
        },
    }


def _layers(spec: ServeSpec, seed: int, seconds: float, scratch: Path, spans_path: Path, traced: Dict) -> Dict:
    """Per-layer numbers of a traced run, plus the tracing overhead."""
    doc = json.loads(spans_path.read_text())
    layers = dict(traced["layers"])
    layers.update(spanlib.layer_metrics(doc, tuple(traced["window"])))

    program = ServeProgram(scratch, [])
    try:
        session = Session(spec, seed, program)
        session.run("warm", None, spec.warm_requests)
        parts = _segments(spec, session, seconds, only_lo=True)["lo"]
        untraced_p50 = segment_percentile([latencies_ms(part) for part in parts], 50)
        program.stop()
    finally:
        if program.proc.poll() is None:
            program.kill()
    traced_p50 = traced["protocol"]["latency_ms"]["lo"]["p50"]
    layers["bench.trace_overhead_frac"] = traced_p50 / untraced_p50 - 1.0
    return layers
