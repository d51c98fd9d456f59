"""Experiment harness: seeded instance generation, deviation injection,
mechanism execution, and report assembly.

The instance generators and mechanism dispatch here are shared with the
CLI.  Each caller passes a generator its own named RNG stream (a round
uses ``stream("round", seed, r)``, the CLI ``stream("costs", seed)`` and
kin), so reports are byte-identical across reruns and independent of
scheduling.  Wall clock is kept out of serialized reports for the same
reason.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Sequence

from . import auction, notifier, quality
from .errors import ConfigError, DomainError
# build_graph is no longer called here, but perfbench's tracer patches
# ``harness.build_graph``, so the name stays importable from this module.
from .graph import SocialGraph, build_graph, load_edge_list  # noqa: F401
from .notifier import Numeric, as_fraction
from .report import MechanismReport, jsonable

TIER1 = ("tenm", "ntbfm", "psm")
TIER2_QUALITY = ("ectai", "avr")
TIER2_AUCTION = ("wipd", "greedy")
MECHANISMS = TIER1 + TIER2_QUALITY + TIER2_AUCTION
DISTRIBUTIONS = ("uniform", "normal")


def stream(*key) -> random.Random:
    """Named deterministic RNG stream (string seeds hash via sha512)."""
    return random.Random(":".join(str(k) for k in key))


@dataclass
class ExperimentConfig:
    mechanism: str
    graph_path: str | None = None
    synthetic_n: int = 50
    edge_prob: float = 0.3
    cost_lo: int = 20
    cost_hi: int = 50
    budget: Numeric = 1000
    delta: Numeric = 2
    epsilon: Numeric = 1
    seed: int = 0
    rounds: int = 5
    deviation_frac: float = 0.0
    deviation_delta: int = 5
    deviation_factor: Numeric = Fraction(6, 5)
    dist: str = "uniform"
    mu: float = 0.6
    sigma: float = 0.3
    f: int = 3
    g: int = 3
    num_tasks: int = 6
    num_bidders: int = 3
    val_lo: int = 30
    val_hi: int = 45

    def validate(self) -> None:
        if self.mechanism not in MECHANISMS:
            raise ConfigError(f"unknown mechanism {self.mechanism!r}")
        if self.cost_lo > self.cost_hi or self.cost_lo < 1:
            raise ConfigError("cost range must satisfy 1 <= lo <= hi")
        if self.val_lo > self.val_hi or self.val_lo < 1:
            raise ConfigError("valuation range must satisfy 1 <= lo <= hi")
        if not 0.0 <= self.deviation_frac <= 1.0:
            raise ConfigError("deviation fraction must lie in [0, 1]")
        _check_edge_prob(self.edge_prob)
        if self.rounds < 1:
            raise ConfigError("rounds must be positive")
        if self.dist not in DISTRIBUTIONS:
            raise ConfigError(f"unknown distribution {self.dist!r}")
        if not (math.isfinite(self.mu) and 0 <= self.sigma < math.inf):
            raise ConfigError("peaks need a finite mu and a finite sigma >= 0")
        for name in ("synthetic_n", "f", "g", "num_tasks", "num_bidders",
                     "deviation_delta"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        notifier.positive_budget(self.budget)
        if as_fraction(self.epsilon) <= 0:
            raise ConfigError("epsilon must be positive")

    def to_dict(self) -> dict:
        out = dict(self.__dict__)
        for name in ("budget", "delta", "epsilon", "deviation_factor"):
            out[name] = jsonable(as_fraction(out[name]))
        return out


def _check_edge_prob(edge_prob: float) -> None:
    if not 0.0 <= edge_prob <= 1.0:
        raise ConfigError("edge probability must lie in [0, 1]")


def synthetic_graph(n: int, edge_prob: float, seed: int) -> SocialGraph:
    """G(n, p) on the ``stream("graph", seed)`` draws: pair (i, j), i < j,
    in row order, is an edge iff its draw is below ``edge_prob``.  Each
    draw sets its bits in the neighbourhood masks directly."""
    _check_edge_prob(edge_prob)
    draw = stream("graph", seed).random
    masks = [0] * n
    for i in range(n):
        row, bit = 0, 1 << i
        for j in [j for j in range(i + 1, n) if draw() < edge_prob]:
            row |= 1 << j
            masks[j] |= bit
        masks[i] |= row
    return SocialGraph(n, tuple(masks), {i: i for i in range(n)})


def load_config_graph(config: ExperimentConfig) -> SocialGraph:
    if config.graph_path is not None:
        return load_edge_list(config.graph_path)
    return synthetic_graph(config.synthetic_n, config.edge_prob, config.seed)


def pick_deviators(ids: Sequence[int], frac: float, rng: random.Random) -> list[int]:
    count = math.ceil(frac * len(ids))
    return sorted(rng.sample(list(ids), count)) if count else []


def uniform_costs(ids: Sequence[int], lo: int, hi: int, rng: random.Random) -> dict[int, int]:
    return {i: rng.randint(lo, hi) for i in ids}


def additive_values(
    rng: random.Random, bidders: int, tasks: int, lo: int, hi: int
) -> dict[int, auction.AdditiveValuation]:
    """Per-task values uniform on [lo, hi], bidder by bidder."""
    return {
        d: auction.AdditiveValuation({t: rng.randint(lo, hi) for t in range(tasks)})
        for d in range(bidders)
    }


def bundle_requests(
    rng: random.Random, bidders: int, tasks: int, lo: int, hi: int
) -> dict[int, tuple[frozenset[int], int]]:
    """One (bundle of up to tasks // 2 tasks, bid on [lo, hi]) per bidder."""
    requests = {}
    for d in range(bidders):
        size = rng.randint(1, max(1, tasks // 2))
        bundle = frozenset(rng.sample(range(tasks), size))
        requests[d] = (bundle, rng.randint(lo, hi))
    return requests


def peak_source(dist: str, mu: float, sigma: float):
    if dist == "normal":
        return quality.NormalPeaks(mu, sigma)
    return quality.UniformPeaks()


# Mechanisms are looked up on their modules at call time, so a wrapper
# installed on the module attribute sees every call.

def run_tier1(mechanism: str, graph: SocialGraph, costs, budget, delta) -> notifier.NotifierOutcome:
    if mechanism == "tenm":
        return notifier.tenm_run(graph, costs, budget, delta)
    if mechanism == "ntbfm":
        return notifier.ntbfm(graph, costs, budget)
    return notifier.psm(costs, budget, graph)


# --- tier-1 rounds --------------------------------------------------------

def _tier1_round(config: ExperimentConfig, graph: SocialGraph, r: int) -> dict:
    rng = stream("round", config.seed, r)
    true_costs = uniform_costs(range(graph.n), config.cost_lo, config.cost_hi, rng)
    deviators = pick_deviators(range(graph.n), config.deviation_frac, rng)
    reported = dict(true_costs)
    for d in deviators:
        reported[d] = max(1, reported[d] - config.deviation_delta)

    outcome = run_tier1(config.mechanism, graph, reported, config.budget, config.delta)
    utilities = {i: notifier.notifier_utility(true_costs[i], outcome.payments[i], True)
                 for i in outcome.selected}
    total_utility = sum(utilities.values(), Fraction(0))
    deviator_utility = sum((utilities[d] for d in deviators if d in utilities), Fraction(0))
    return {
        "winners": len(outcome.selected),
        "selected": list(outcome.selected),
        "deviators": deviators,
        "notified": len(outcome.notified),
        "total_payment": outcome.total_payment,
        "total_utility": total_utility,
        "deviator_utility": deviator_utility,
        "budget_feasible": outcome.total_payment <= outcome.budget,
    }


# --- quality rounds -------------------------------------------------------

def _quality_round(config: ExperimentConfig, devices: list[int], r: int) -> dict:
    """Draw every batch on the round's streams and rank it as it comes.

    Deviating reviewers report the position of their favorite panel
    device (the one nearest their true peak) instead of the peak itself.
    Regrets are measured from the true peaks.
    """
    deviators = set(
        pick_deviators(devices, config.deviation_frac, stream("deviators", config.seed, r))
    )
    aggregate_of = quality.median_of if config.mechanism == "ectai" else quality.mean_of
    ordered = []
    regrets = []
    deviator_regrets = []
    for b, (_, reviewers, panel, peaks) in enumerate(quality.draw_batches(
        devices, config.f, config.g, peak_source(config.dist, config.mu, config.sigma),
        lambda batch: stream("qbatch", config.seed, r, batch),
    )):
        reports = list(peaks)
        for i, rev in enumerate(reviewers):
            if not 0.0 <= peaks[i] <= 1.0:
                raise DomainError(f"batch {b}: report {peaks[i]} from reviewer {rev} "
                                  "outside [0, 1]")
            if rev in deviators:
                reports[i] = dict(panel)[quality.select_quality(panel, peaks[i])]
        aggregate = aggregate_of(reports)
        ordered.append(quality.select_quality(panel, aggregate))
        for rev, alpha in zip(reviewers, peaks):
            regret = quality.reviewer_regret(alpha, aggregate)
            (deviator_regrets if rev in deviators else regrets).append(regret)
    return {
        "ordered": ordered,
        "batches": len(ordered),
        "deviators": sorted(deviators),
        "mean_regret": quality.mean_of(regrets) if regrets else 0.0,
        "mean_deviator_regret": quality.mean_of(deviator_regrets) if deviator_regrets else 0.0,
        "budget_feasible": True,
    }


# --- auction rounds -------------------------------------------------------

def _wipd_round(config: ExperimentConfig, r: int) -> dict:
    rng = stream("round", config.seed, r)
    truth = additive_values(rng, config.num_bidders, config.num_tasks,
                            config.val_lo, config.val_hi)
    deviators = pick_deviators(range(config.num_bidders), config.deviation_frac, rng)
    factor = as_fraction(config.deviation_factor)
    reported = {d: v.scaled(factor if d in deviators else 1) for d, v in truth.items()}
    oracle = auction.BruteForceOracle(reported)
    outcome = auction.wipd_run(
        config.num_tasks, list(reported), oracle, config.epsilon
    )
    total_utility = sum(
        (notifier.notifier_utility(truth[d].value(bundle), outcome.payments[d], True)
         for d, bundle in outcome.allocation.items() if bundle),
        Fraction(0),
    )
    return {
        "allocation": {d: sorted(b) for d, b in outcome.allocation.items()},
        "deviators": deviators,
        "rounds_to_settle": outcome.rounds,
        "total_payment": sum(outcome.payments.values(), Fraction(0)),
        "total_utility": total_utility,
        "budget_feasible": True,
    }


def _greedy_round(config: ExperimentConfig, r: int) -> dict:
    rng = stream("round", config.seed, r)
    requests = bundle_requests(rng, config.num_bidders, config.num_tasks,
                               config.val_lo, config.val_hi)
    deviators = pick_deviators(range(config.num_bidders), config.deviation_frac, rng)
    factor = as_fraction(config.deviation_factor)
    reported = {
        d: (bundle, as_fraction(bid) * (factor if d in deviators else 1))
        for d, (bundle, bid) in requests.items()
    }
    outcome = auction.greedy_baseline(reported, num_tasks=config.num_tasks)
    utilities = {d: notifier.notifier_utility(requests[d][1], outcome.payments[d], True)
                 for d in outcome.allocation}
    total_utility = sum(utilities.values(), Fraction(0))
    deviator_utility = sum((u for d, u in utilities.items() if d in deviators), Fraction(0))
    return {
        "winners": sorted(outcome.allocation),
        "deviators": deviators,
        "total_payment": sum(outcome.payments.values(), Fraction(0)),
        "total_utility": total_utility,
        "deviator_utility": deviator_utility,
        "budget_feasible": True,
    }


# --- entry point ----------------------------------------------------------

def run_experiment(config: ExperimentConfig) -> MechanismReport:
    config.validate()
    report = MechanismReport(config.to_dict())

    if config.mechanism in TIER1:
        graph = load_config_graph(config)
        play = partial(_tier1_round, config, graph)
    elif config.mechanism in TIER2_QUALITY:
        # Quality ranking reads no edges, so no synthetic graph is drawn.
        n = config.synthetic_n
        if config.graph_path is not None:
            n = load_edge_list(config.graph_path).n
        play = partial(_quality_round, config, list(range(n)))
    elif config.mechanism == "wipd":
        play = partial(_wipd_round, config)
    else:
        play = partial(_greedy_round, config)
    for r in range(1, config.rounds + 1):
        report.rounds.append({"round": r, "metrics": play(r)})
    return report
