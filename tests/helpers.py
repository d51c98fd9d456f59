"""Test-only scaffolding: a scripted and a recording demand oracle for
``wipd_run``, and the manipulability witness searches of the acceptance
criteria.  Nothing in the package calls these, so they live with the tests.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from crowdtier import auction, harness, notifier, quality


class ScriptedOracle:
    """Replays (round, device) -> demanded set; off-script queries get the
    empty set."""

    def __init__(self, script: Mapping[tuple[int, int], Iterable[int]]):
        self.script = {
            (r, d): frozenset(tasks) for (r, d), tasks in script.items()
        }

    def demand(self, device, holdings, levels, epsilon, round_index) -> frozenset[int]:
        return self.script.get((round_index, device), frozenset())

    def max_rounds_hint(self, num_tasks: int, epsilon: Fraction) -> int:
        last = max((r for r, _ in self.script), default=0)
        return last + 2


class RecordingOracle:
    """Wraps a demand oracle and logs every query as ``(round, device,
    levels, answer)``, with a snapshot of the price levels the device saw.
    Other attributes, such as ``max_rounds_hint``, pass through."""

    def __init__(self, oracle):
        self.oracle = oracle
        self.log: list[tuple[int, int, tuple[int, ...], frozenset[int]]] = []

    def demand(self, device, holdings, levels, epsilon, round_index) -> frozenset[int]:
        answer = frozenset(self.oracle.demand(device, holdings, levels, epsilon, round_index))
        self.log.append((round_index, device, tuple(levels), answer))
        return answer

    def __getattr__(self, name):
        return getattr(self.oracle, name)


# --- manipulability witness searches --------------------------------------

def find_ntbfm_witness(
    instances: int = 200, seed: int = 0, n_max: int = 10,
    budget: int = 120, cost_grid: tuple[int, int] = (1, 60),
) -> dict | None:
    """First (instance, device, report) where a device strictly profits
    under NTBFM by misreporting its cost."""
    lo, hi = cost_grid
    for inst in range(instances):
        rng = harness.stream("ntbfm-witness", seed, inst)
        n = rng.randint(3, n_max)
        graph = harness.synthetic_graph(n, 0.4, seed * 100_003 + inst)
        true_costs = harness.uniform_costs(range(n), lo, hi, rng)
        truthful = notifier.ntbfm(graph, true_costs, budget)
        for device in range(n):
            base = notifier.notifier_utility(
                true_costs[device],
                truthful.payments.get(device, 0),
                device in truthful.payments,
            )
            for report in range(lo, hi + 1):
                if report == true_costs[device]:
                    continue
                costs = dict(true_costs)
                costs[device] = report
                outcome = notifier.ntbfm(graph, costs, budget)
                gained = notifier.notifier_utility(
                    true_costs[device],
                    outcome.payments.get(device, 0),
                    device in outcome.payments,
                )
                if gained > base:
                    return {
                        "instance": inst, "device": device,
                        "true_cost": true_costs[device], "report": report,
                        "truthful_utility": str(base), "deviation_utility": str(gained),
                    }
    return None


def find_greedy_witness(
    instances: int = 200, seed: int = 0, num_tasks: int = 6,
    bid_grid: tuple[int, int] = (1, 60),
) -> dict | None:
    """First strictly profitable bid deviation under the GREEDY baseline."""
    lo, hi = bid_grid
    for inst in range(instances):
        rng = harness.stream("greedy-witness", seed, inst)
        bidders = rng.randint(2, 4)
        requests = harness.bundle_requests(rng, bidders, num_tasks, lo, hi)
        for device in range(bidders):
            bundle, true_bid = requests[device]
            for report in range(lo, hi + 1):
                if report == true_bid:
                    continue
                trial = dict(requests)
                trial[device] = (bundle, report)
                outcome = auction.greedy_baseline(trial, num_tasks=num_tasks)
                if device in outcome.allocation:
                    gain = outcome.payments[device] - true_bid
                    if gain > 0:
                        return {
                            "instance": inst, "device": device,
                            "true_value": true_bid, "report": report,
                            "deviation_utility": str(gain),
                        }
    return None


def find_avr_witness(
    profiles: int = 200, seed: int = 0, panel_size: int = 5, step: float = 0.01
) -> dict | None:
    """First reviewer profile where a misreport moves the AVR mean
    strictly closer to the deviator's true peak."""
    grid = [round(k * step, 10) for k in range(int(round(1 / step)) + 1)]
    for inst in range(profiles):
        rng = harness.stream("avr-witness", seed, inst)
        peaks = [rng.random() for _ in range(panel_size)]
        base_mean = quality.mean_of(peaks)
        for i, true_peak in enumerate(peaks):
            base_gap = abs(base_mean - true_peak)
            for report in grid:
                trial = list(peaks)
                trial[i] = report
                gap = abs(quality.mean_of(trial) - true_peak)
                if gap < base_gap - 1e-12:
                    return {
                        "profile": inst, "reviewer": i,
                        "true_peak": true_peak, "report": report,
                        "truthful_gap": base_gap, "deviation_gap": gap,
                    }
    return None
