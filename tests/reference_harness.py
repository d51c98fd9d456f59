"""Test-only reference for a quality experiment round.

It re-derives each round's metrics from the ``harness.stream`` draws and
the documented deviation model in the most literal way: the reference
planner of ``reference_quality``, then, batch by batch, each deviating
reviewer's report rewritten to the position of its favorite panel device
(the one nearest its true peak), the median of the sorted reports (or
their mean, summed left to right), the panel device nearest that
aggregate, and each reviewer's regret ``abs(true peak - aggregate)``,
split by whether the reviewer deviates.  The differential tests compare
``run_experiment`` against it.
"""

from __future__ import annotations

import math

import reference_quality
from crowdtier import NormalPeaks, UniformPeaks, harness


def nearest(panel, value):
    """Panel device nearest ``value``, ties to the lowest id."""
    best = None
    for device, position in panel:
        key = (abs(position - value), device)
        if best is None or key < best:
            best = key
    return best[1]


def median(reports):
    ordered = sorted(reports)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def mean(values):
    total = 0
    for value in values:
        total += value
    return total / len(values)


def quality_round(config: harness.ExperimentConfig, devices: list[int], r: int) -> dict:
    rng = harness.stream("deviators", config.seed, r)
    count = math.ceil(config.deviation_frac * len(devices))
    deviators = sorted(rng.sample(list(devices), count)) if count else []
    if config.dist == "normal":
        source = NormalPeaks(config.mu, config.sigma)
    else:
        source = UniformPeaks()
    scripts, peaks = reference_quality.plan_batches(
        devices, config.f, config.g, source,
        lambda batch: harness.stream("qbatch", config.seed, r, batch))
    aggregate_of = median if config.mechanism == "ectai" else mean

    ordered, regrets, deviator_regrets = [], [], []
    for batch, script in enumerate(scripts):
        panel = [(d, script.positions[d]) for d in script.eta]
        reports = []
        for reviewer in script.reviewers:
            alpha = peaks[(batch, reviewer)]
            if reviewer in deviators:
                alpha = script.positions[nearest(panel, alpha)]
            reports.append(alpha)
        aggregate = aggregate_of(reports)
        ordered.append(nearest(panel, aggregate))
        for reviewer in script.reviewers:
            regret = abs(peaks[(batch, reviewer)] - aggregate)
            if reviewer in deviators:
                deviator_regrets.append(regret)
            else:
                regrets.append(regret)
    return {
        "ordered": ordered,
        "batches": len(scripts),
        "deviators": deviators,
        "mean_regret": mean(regrets) if regrets else 0.0,
        "mean_deviator_regret": mean(deviator_regrets) if deviator_regrets else 0.0,
        "budget_feasible": True,
    }


def quality_rounds(config: harness.ExperimentConfig) -> list[dict]:
    devices = list(range(config.synthetic_n))
    return [{"round": r, "metrics": quality_round(config, devices, r)}
            for r in range(1, config.rounds + 1)]
