"""Seeded request plans for the serve workloads, and the answer checker.

Plans depend only on the seed and on the frontier ranges the priming
pass reads from the server, so the same seed replays the same traffic.

* ``serve-hot`` asks ``/recommend`` on ONE fixed space for every paper
  workload; the priming pass warms those six digests, so every timed
  request is a cache hit.
* ``serve-cold`` draws ``/recommend`` and ``/frontier`` requests from a
  working set of 144 (workload, space size, power budget) digests,
  4.5x the default cache capacity of 32, with skewed popularity.  A
  steady share of requests misses and forces a build.

:class:`AnswerChecker` re-derives an answer offline from the program's
public search functions and names the first field that differs.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "COLD_SPACES",
    "HOT_SPACE",
    "WORKLOADS",
    "AnswerChecker",
    "cold_digests",
    "cold_plan",
    "hot_plan",
    "poisson_due",
]

#: The paper's six workloads (``repro.PAPER_WORKLOAD_NAMES``).
WORKLOADS = ("EP", "memcached", "x264", "blackscholes", "julius", "rsa2048")

#: (max wimpy A9, max brawny K10) of the serve-hot space.
HOT_SPACE = (6, 3)

#: Space sizes of the serve-cold working set: builds of ~5 to ~25 ms.
COLD_SPACES = ((6, 3), (8, 4), (10, 5), (12, 6))

#: Power budgets of the serve-cold working set, as shares of the space's
#: full nameplate peak (None: no budget).
COLD_BUDGET_SHARES = (None, 0.3, 0.45, 0.6, 0.75, 0.9)

#: Nameplate peaks (W) of one A9, one K10 and one switch per 8 A9s.
_A9_W, _K10_W, _SWITCH_W = 5.0, 60.0, 20.0

#: Deadlines are log-uniform over [0.5 x fastest, 2 x slowest] frontier
#: time of the workload's priming space: some infeasible, some trivial.
_DEADLINE_SPAN = (0.5, 2.0)

#: Share of serve-cold requests that ask for the whole frontier.
_COLD_FRONTIER_SHARE = 0.2

#: Zipf-Mandelbrot popularity of the serve-cold ranks, weight
#: ``(rank + q) ** -s``: the offset keeps any one digest under ~13% of
#: the traffic, and about one request in ten misses the 32-entry LRU
#: cache once it has filled.
_ZIPF_Q, _ZIPF_S = 20.0, 4.0


def space_fields(workload: str, space: Tuple[int, int], budget_w: Optional[float]) -> Dict:
    return {
        "workload": workload,
        "max_wimpy": space[0],
        "max_brawny": space[1],
        "budget_w": budget_w,
    }


def _deadline(rng: random.Random, tp_range: Tuple[float, float]) -> float:
    lo, hi = tp_range[0] * _DEADLINE_SPAN[0], tp_range[1] * _DEADLINE_SPAN[1]
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def poisson_due(rng: random.Random, rate: float, n: int) -> List[float]:
    """``n`` Poisson arrival times at ``rate`` per second, from 0."""
    t, out = 0.0, []
    for _ in range(n):
        t += rng.expovariate(rate)
        out.append(t)
    return out


def hot_plan(
    rng: random.Random, n: int, tp_ranges: Dict[str, Tuple[float, float]]
) -> List[Tuple[str, Dict]]:
    """``n`` ``/recommend`` requests on :data:`HOT_SPACE`, seeded deadlines."""
    plan = []
    for _ in range(n):
        workload = rng.choice(WORKLOADS)
        body = space_fields(workload, HOT_SPACE, None)
        body["deadline_s"] = _deadline(rng, tp_ranges[workload])
        plan.append(("/recommend", body))
    return plan


def cold_digests(rng: random.Random) -> List[Tuple[str, Tuple[int, int], Optional[float]]]:
    """The serve-cold working set, most popular first.

    Ranks cycle through the space sizes and then the workloads, so every
    seed asks for the same mix of small and large builds and of
    workloads; the seed decides which power budget each rank carries.
    """
    budgets = {}
    for space in COLD_SPACES:
        full = space[0] * _A9_W + space[1] * _K10_W + math.ceil(space[0] / 8) * _SWITCH_W
        for workload in WORKLOADS:
            options = [None if share is None else float(round(share * full)) for share in COLD_BUDGET_SHARES]
            rng.shuffle(options)
            budgets[workload, space] = options
    return [
        (workload, space, budgets[workload, space][block])
        for block in range(len(COLD_BUDGET_SHARES))
        for workload in WORKLOADS
        for space in COLD_SPACES
    ]


def cold_plan(
    rng: random.Random,
    n: int,
    digests: Sequence[Tuple[str, Tuple[int, int], Optional[float]]],
    tp_ranges: Dict[str, Tuple[float, float]],
) -> List[Tuple[str, Dict]]:
    """``n`` requests over ``digests``, more popular ranks more often."""
    weights = [(rank + 1 + _ZIPF_Q) ** -_ZIPF_S for rank in range(len(digests))]
    picks = rng.choices(range(len(digests)), weights=weights, k=n)
    plan = []
    for pick in picks:
        workload, space, budget = digests[pick]
        body = space_fields(workload, space, budget)
        if rng.random() < _COLD_FRONTIER_SHARE:
            plan.append(("/frontier", body))
        else:
            body["deadline_s"] = _deadline(rng, tp_ranges[workload])
            plan.append(("/recommend", body))
    return plan


# -- the answer checker ----------------------------------------------------
class AnswerChecker:
    """Compares served answers with offline ones from the program's
    public search functions.  Floats must match exactly: the service
    promises answers bit-identical to an offline search of the space."""

    def __init__(self) -> None:
        import repro

        self._repro = repro

    def spaces(self, body: Dict):
        repro = self._repro
        return [
            repro.TypeSpace(repro.get_node_spec("A9"), n_max=int(body["max_wimpy"])),
            repro.TypeSpace(repro.get_node_spec("K10"), n_max=int(body["max_brawny"])),
        ]

    def budget(self, body: Dict):
        budget_w = body.get("budget_w")
        return None if budget_w is None else self._repro.PowerBudget(float(budget_w))

    def recommend(self, body: Dict):
        from repro.cluster.search import recommend_exhaustive

        return recommend_exhaustive(
            self._repro.workload(body["workload"]),
            self.spaces(body),
            deadline_s=float(body["deadline_s"]),
            budget=self.budget(body),
        )

    def frontier(self, body: Dict) -> List[Dict]:
        import numpy as np
        from repro.cluster.pareto import pareto_indices
        from repro.model.batched import evaluate_space_arrays

        arrays = evaluate_space_arrays(self._repro.workload(body["workload"]), self.spaces(body))
        keep = np.arange(arrays.n_configs)
        budget = self.budget(body)
        if budget is not None:
            wimpy = arrays.counts.get("A9", np.zeros(arrays.n_configs, dtype=np.int64))
            keep = np.flatnonzero(budget.fits_mask(arrays.nameplate_w, wimpy))
        if keep.size:
            keep = keep[pareto_indices(arrays.tp_s[keep], arrays.energy_j[keep])]
        points = []
        for idx in keep:
            config = arrays.config_at(int(idx))
            points.append(
                {
                    "mix": config.label(),
                    "operating_point": str(config),
                    "tp_s": float(arrays.tp_s[idx]),
                    "energy_j": float(arrays.energy_j[idx]),
                    "peak_power_w": float(arrays.peak_power_w[idx]),
                }
            )
        return points

    def check(self, path: str, body: Dict, doc: Dict) -> Optional[str]:
        """None when the served ``doc`` equals the offline answer, else why not."""
        if path == "/frontier":
            expected = self.frontier(body)
            if doc.get("points") != expected:
                return f"frontier of {len(doc.get('points') or ())} points != offline {len(expected)}"
            return None
        rec = self.recommend(body)
        if rec is None:
            return None if doc.get("feasible") is False else "served a config where none is feasible"
        expected = {
            "feasible": True,
            "mix": rec.config.label(),
            "operating_point": str(rec.config),
            "tp_s": rec.evaluation.tp_s,
            "energy_j": rec.evaluation.energy_j,
            "peak_power_w": rec.evaluation.peak_power_w,
        }
        for key, value in expected.items():
            if doc.get(key) != value:
                return f"{key}: served {doc.get(key)!r} != offline {value!r}"
        return None
