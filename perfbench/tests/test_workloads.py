"""Tiny-scale runs of every workload, and the answer checker on real answers."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import claims_bench
import loadgen
import plans
import programs
import reference
import serve_bench

BENCH = Path(__file__).resolve().parent.parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
CHEAP_MONITORS = ["table6-ppr-winners", "pareto-sublinearity"]


def tiny(name):
    spec = serve_bench.SPECS[name]
    return dataclasses.replace(
        spec,
        lo_rps=spec.lo_rps / 10,
        hi_rps=spec.hi_rps / 10,
        ladder=tuple(rate / 10 for rate in spec.ladder[:4]),
        wall_requests=8,
        warm_requests=8,
    )


@pytest.fixture
def scratch(tmp_path):
    return tmp_path


@pytest.fixture
def one_setup(monkeypatch):
    monkeypatch.setattr(serve_bench, "SETUPS", 1)


@pytest.mark.parametrize("name", ["serve-hot", "serve-cold"])
def test_serve_smoke(name, scratch, one_setup):
    result = serve_bench.run(tiny(name), seed=3, seconds=2.0, trace=False, scratch=scratch)
    assert result["failed"] == 0 and result["attempted"] > 0
    assert END_TO_END <= set(result["metrics"])
    assert all(v > 0 for v in result["metrics"].values())
    checked = result["protocol"]["answers_checked"]
    assert checked["wrong"] == 0 and checked["hits"] > 0


def test_serve_cold_traced_smoke(scratch, one_setup):
    result = serve_bench.run(tiny("serve-cold"), seed=4, seconds=2.0, trace=True, scratch=scratch)
    layers = result["layers"]
    assert layers["import.repro_s"] > 0
    assert layers["serve.cache.misses"] > 0
    assert layers["serve.batch.batches"] > 0 and layers["serve.batch.mean_size"] >= 1
    assert layers["model.evaluate_space_arrays.calls"] > 0
    assert layers["scheduler.select.calls"] == 0
    assert layers["bench.unexplained_s"] >= 0


class CheapClaims(programs.ClaimsProgram):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.ready["monitors"] = CHEAP_MONITORS


@pytest.mark.parametrize("trace", [False, True])
def test_claims_smoke(trace, scratch, monkeypatch):
    monkeypatch.setattr(claims_bench, "ClaimsProgram", CheapClaims)
    result = claims_bench.run(seed=1, seconds=0.1, trace=trace, scratch=scratch)
    assert result["failed"] == 0 and result["attempted"] >= 2 * len(CHEAP_MONITORS)
    assert END_TO_END <= set(result["metrics"])
    if trace:
        layers = result["layers"]
        assert layers["monitors.table6-ppr-winners.wall_s"] > 0
        assert layers["import.repro_s"] > 0


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """Real answers from ``repro serve``: one recommend, one frontier."""
    program = programs.ServeProgram(tmp_path_factory.mktemp("serve"), [])
    try:
        body = plans.space_fields("x264", (8, 4), 240.0)
        requests = [
            ("/recommend", dict(body, deadline_s=60.0)),
            ("/frontier", body),
        ]
        outs, _ = loadgen.run_schedule(
            program.host,
            program.port,
            [loadgen.encode_request("POST", path, doc) for path, doc in requests],
            [0.0, 0.0],
            connections=1,
        )
    finally:
        program.stop()
    assert [o.status for o in outs] == [200, 200]
    return [(path, doc, json.loads(out.body)) for (path, doc), out in zip(requests, outs)]


def test_checker_accepts_real_answers(served):
    checker = plans.AnswerChecker()
    for path, body, doc in served:
        assert checker.check(path, body, doc) is None


@pytest.mark.parametrize(
    "field, value",
    [("energy_j", 1.0), ("mix", "1 A9"), ("feasible", False), ("tp_s", None)],
)
def test_checker_rejects_tampered_recommendation(served, field, value):
    path, body, doc = served[0]
    assert doc["feasible"] is True
    tampered = dict(doc, **{field: value})
    assert plans.AnswerChecker().check(path, body, tampered) is not None


def test_checker_rejects_tampered_frontier(served):
    path, body, doc = served[1]
    points = [dict(p) for p in doc["points"]]
    points[0]["energy_j"] *= 1.0 + 1e-12
    assert plans.AnswerChecker().check(path, body, dict(doc, points=points)) is not None


def test_command_prints_every_metric_and_a_result_line():
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "serve-hot",
         "--seed", "5", "--seconds", "1", "--trace", "0"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == END_TO_END
    for name in END_TO_END:
        assert any(line.split()[0] == name for line in lines[:-1])
    assert lines[-2].startswith("protocol: ")


def test_command_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, no result line is printed."""
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    subprocess.run(["cp", "-r", str(BENCH), str(tmp_path / "perfbench")], check=True)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-hot",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def _probe(latencies_ms):
    return [loadgen.Outcome(status=200, latency_s=ms / 1e3) for ms in latencies_ms]


def test_probe_judge_tells_a_growing_backlog_from_one_stall():
    spec = serve_bench.SPECS["serve-hot"]
    steady = [0.5] * 300
    stall = [0.5] * 200 + [40.0] * 90 + [0.5] * 10
    growing = [0.5 + 0.2 * i for i in range(300)]
    assert serve_bench.judge_probe(spec, _probe(steady))["passed"]
    assert serve_bench.judge_probe(spec, _probe(stall))["passed"]
    assert not serve_bench.judge_probe(spec, _probe(growing))["passed"]
    assert not serve_bench.judge_probe(spec, _probe(steady[:-1]) + [loadgen.Outcome(status=503)])["passed"]


def test_reference_restores_the_driver_affinity():
    before = os.sched_getaffinity(0)
    assert reference.cpu_s() > 0
    assert os.sched_getaffinity(0) == before
