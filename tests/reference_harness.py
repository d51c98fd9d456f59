"""Test-only reference for experiment rounds.

It re-derives each round's metrics from the ``harness.stream`` draws and
the documented deviation model in the most literal way, and the
differential tests compare ``run_experiment`` against it.

- Tier 1 (``tenm``, ``ntbfm``, ``psm``): the synthetic graph drawn edge by
  edge, each node's cost on ``[cost_lo, cost_hi]``, deviators that
  under-report by ``deviation_delta`` (never below 1), the mechanism of
  ``reference_notifier``, and each winner's utility ``payment - true
  cost``, summed over all winners and over the deviating ones.
- Quality (``ectai``, ``avr``): the reference planner of
  ``reference_quality``, then, batch by batch, each deviating reviewer's
  report rewritten to the position of its favorite panel device (the one
  nearest its true peak), the median of the sorted reports (or their
  mean, summed left to right), the panel device nearest that aggregate,
  and each reviewer's regret ``abs(true peak - aggregate)``, split by
  whether the reviewer deviates.
- ``wipd``: per-task values on ``[val_lo, val_hi]``, deviators whose every
  value is multiplied by ``deviation_factor``, the auction run on the
  reported values, and each winner scored as a seller, payment minus its
  true value for its bundle (README, "Who pays whom").
- ``greedy``: one bundle and bid per bidder, deviators whose bid is
  multiplied by ``deviation_factor``, and each winner's utility, its
  pay-as-bid payment minus its true bid.
"""

from __future__ import annotations

import math
from fractions import Fraction

import reference_notifier
import reference_quality
from crowdtier import NormalPeaks, UniformPeaks, auction, build_graph, harness


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


def deviators_of(ids, frac, rng):
    count = math.ceil(frac * len(ids))
    return sorted(rng.sample(list(ids), count)) if count else []


def tier1_round(config: harness.ExperimentConfig, graph, r: int) -> dict:
    rng = harness.stream("round", config.seed, r)
    true_costs = {i: rng.randint(config.cost_lo, config.cost_hi) for i in range(graph.n)}
    deviators = deviators_of(range(graph.n), config.deviation_frac, rng)
    reported = {i: max(1, c - config.deviation_delta) if i in deviators else c
                for i, c in true_costs.items()}
    if config.mechanism == "tenm":
        selected, notified = reference_notifier.nam_select(
            graph, reported, config.budget, config.delta)
        payments = reference_notifier.npm_prices(graph, reported, config.budget, selected)
    else:
        if config.mechanism == "ntbfm":
            outcome = reference_notifier.ntbfm(graph, reported, config.budget)
        else:
            outcome = reference_notifier.psm(reported, config.budget, graph)
        selected, notified, payments = outcome.selected, outcome.notified, outcome.payments
    total_payment = sum(payments.values(), Fraction(0))
    utilities = {i: payments[i] - true_costs[i] for i in selected}
    return {
        "winners": len(selected),
        "selected": list(selected),
        "deviators": deviators,
        "notified": len(notified),
        "total_payment": total_payment,
        "total_utility": sum(utilities.values(), Fraction(0)),
        "deviator_utility": sum((u for i, u in utilities.items() if i in deviators),
                                Fraction(0)),
        "budget_feasible": total_payment <= Fraction(config.budget),
    }


def tier1_rounds(config: harness.ExperimentConfig) -> list[dict]:
    rng = harness.stream("graph", config.seed)
    n = config.synthetic_n
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < config.edge_prob]
    graph = build_graph(n, edges)
    return [{"round": r, "metrics": tier1_round(config, graph, r)}
            for r in range(1, config.rounds + 1)]


def wipd_round(config: harness.ExperimentConfig, r: int) -> dict:
    rng = harness.stream("round", config.seed, r)
    truth = {d: {t: rng.randint(config.val_lo, config.val_hi)
                 for t in range(config.num_tasks)}
             for d in range(config.num_bidders)}
    deviators = deviators_of(range(config.num_bidders), config.deviation_frac, rng)
    factor = Fraction(config.deviation_factor)
    reported = {d: auction.AdditiveValuation(
                    {t: v * factor if d in deviators else v for t, v in values.items()})
                for d, values in truth.items()}
    outcome = auction.wipd_run(config.num_tasks, list(reported),
                               auction.BruteForceOracle(reported), config.epsilon)
    utility = Fraction(0)
    for d, bundle in outcome.allocation.items():
        if bundle:
            utility += outcome.payments[d] - sum(truth[d][t] for t in bundle)
    return {
        "allocation": {d: sorted(b) for d, b in outcome.allocation.items()},
        "deviators": deviators,
        "rounds_to_settle": outcome.rounds,
        "total_payment": sum(outcome.payments.values(), Fraction(0)),
        "total_utility": utility,
        "budget_feasible": True,
    }


def greedy_round(config: harness.ExperimentConfig, r: int) -> dict:
    rng = harness.stream("round", config.seed, r)
    requests = {}
    for d in range(config.num_bidders):
        size = rng.randint(1, max(1, config.num_tasks // 2))
        bundle = frozenset(rng.sample(range(config.num_tasks), size))
        requests[d] = (bundle, rng.randint(config.val_lo, config.val_hi))
    deviators = deviators_of(range(config.num_bidders), config.deviation_frac, rng)
    factor = Fraction(config.deviation_factor)
    reported = {d: (bundle, bid * factor if d in deviators else Fraction(bid))
                for d, (bundle, bid) in requests.items()}
    outcome = auction.greedy_baseline(reported, num_tasks=config.num_tasks)
    utilities = {d: outcome.payments[d] - requests[d][1] for d in outcome.allocation}
    return {
        "winners": sorted(outcome.allocation),
        "deviators": deviators,
        "total_payment": sum(outcome.payments.values(), Fraction(0)),
        "total_utility": sum(utilities.values(), Fraction(0)),
        "deviator_utility": sum((u for d, u in utilities.items() if d in deviators),
                                Fraction(0)),
        "budget_feasible": True,
    }


def auction_rounds(config: harness.ExperimentConfig) -> list[dict]:
    play = wipd_round if config.mechanism == "wipd" else greedy_round
    return [{"round": r, "metrics": play(config, r)} for r in range(1, config.rounds + 1)]


def quality_round(config: harness.ExperimentConfig, devices: list[int], r: int) -> dict:
    deviators = deviators_of(devices, config.deviation_frac,
                             harness.stream("deviators", config.seed, r))
    if config.dist == "normal":
        source = NormalPeaks(config.mu, config.sigma)
    else:
        source = UniformPeaks()
    batches = reference_quality.plan_batches(
        devices, config.f, config.g, source,
        lambda batch: harness.stream("qbatch", config.seed, r, batch))
    aggregate_of = median if config.mechanism == "ectai" else mean

    ordered, regrets, deviator_regrets = [], [], []
    for _, reviewers, panel, peaks in batches:
        reports = []
        for reviewer, alpha in zip(reviewers, peaks):
            if reviewer in deviators:
                alpha = dict(panel)[nearest(panel, alpha)]
            reports.append(alpha)
        aggregate = aggregate_of(reports)
        ordered.append(nearest(panel, aggregate))
        for reviewer, alpha in zip(reviewers, peaks):
            regret = abs(alpha - aggregate)
            if reviewer in deviators:
                deviator_regrets.append(regret)
            else:
                regrets.append(regret)
    return {
        "ordered": ordered,
        "batches": len(batches),
        "deviators": deviators,
        "mean_regret": mean(regrets) if regrets else 0.0,
        "mean_deviator_regret": mean(deviator_regrets) if deviator_regrets else 0.0,
        "budget_feasible": True,
    }


def quality_rounds(config: harness.ExperimentConfig) -> list[dict]:
    devices = list(range(config.synthetic_n))
    return [{"round": r, "metrics": quality_round(config, devices, r)}
            for r in range(1, config.rounds + 1)]
