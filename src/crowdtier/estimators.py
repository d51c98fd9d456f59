"""Closed-form estimators for the one-hop notification process, plus a
Monte Carlo companion.

A notifier with degree |Z| reaches each neighbor independently with
probability p; X is the number of neighbors reached.
"""

from __future__ import annotations

import math
import random
import statistics
from dataclasses import dataclass

from .errors import DomainError
from .graph import SocialGraph


@dataclass(frozen=True)
class NotifyModel:
    degree: int
    p: float

    def __post_init__(self):
        if self.degree < 0:
            raise DomainError(f"degree must be non-negative, got {self.degree}")
        try:
            float(self.degree)
        except OverflowError:
            raise DomainError("degree is too large to convert to a float") from None
        if not 0.0 <= self.p <= 1.0:
            raise DomainError(f"p must lie in [0, 1], got {self.p}")


def expected_notified(model: NotifyModel) -> float:
    """E[X] = |Z| * p."""
    return model.degree * model.p


def at_least_one(model: NotifyModel) -> tuple[float, float]:
    """(exact, bound) for Pr{X >= 1}.

    exact = 1 - (1-p)^|Z|; bound = 1 - e^{-|Z| p}.  Since 1-p <= e^{-p},
    exact >= bound always holds.
    """
    exact = 1.0 - (1.0 - model.p) ** model.degree
    bound = 1.0 - math.exp(-model.degree * model.p)
    return exact, bound


def chernoff_tail(expectation: float, kappa: float) -> float:
    """Upper bound on Pr{X > (1+kappa) E}: exp((1+k)E) / (1+k)^{(1+k)E}."""
    if not 0 < expectation < math.inf:
        raise DomainError("expectation must be positive and finite")
    if not -1 < kappa < math.inf:
        raise DomainError("kappa must be finite and exceed -1")
    t = (1.0 + kappa) * expectation
    return _exp_over_power(t, 1.0 + kappa)


def tail_at(t: float) -> float:
    """The e^t / t^t tail expression shared by the Chernoff-style bounds."""
    if t <= 0:
        raise DomainError("t must be positive")
    return _exp_over_power(t, t)


def _exp_over_power(t: float, base: float) -> float:
    """e^t / base^t.  Where that direct form overflows, the value is
    exp(t * (1 - ln base)), which underflows to a vanishing bound instead;
    DomainError when even that is not a finite float."""
    try:
        value = math.exp(t) / base**t
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not math.isfinite(value):
        try:
            value = math.exp(t * (1.0 - math.log(base)))
        except OverflowError:
            value = math.inf
    if not math.isfinite(value):
        raise DomainError(f"e^t / {base}^t at t = {t} is not a finite float")
    return value


def lemma1_bound(degree: int) -> float:
    """Tail bound Pr{X > t} <= e^t / t^t with t = sqrt(|Z| * ln |Z|).

    Only defined for degree > 2 (t must exceed 1 for the bound to make
    sense).
    """
    if degree <= 2:
        raise DomainError(f"lemma1_bound requires degree > 2, got {degree}")
    try:
        float(degree)
    except OverflowError:
        raise DomainError("degree is too large to convert to a float") from None
    return tail_at(math.sqrt(degree * math.log(degree)))


def monte_carlo_notified(
    graph: SocialGraph, node: int, p: float, trials: int, seed: int
) -> tuple[float, float]:
    """Sample mean and standard error of X over independent trials.

    Each trial flips one Bernoulli(p) coin per neighbor of ``node``.
    Deterministic for a given seed.
    """
    graph._check(node)
    if trials < 1:
        raise DomainError("trials must be at least 1")
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"p must lie in [0, 1], got {p}")
    degree = graph.degree(node)
    rng = random.Random(seed)
    counts = [sum(rng.random() < p for _ in range(degree)) for _ in range(trials)]
    mean = statistics.fmean(counts)
    stderr = statistics.stdev(counts) / math.sqrt(trials) if trials > 1 else 0.0
    return mean, stderr
