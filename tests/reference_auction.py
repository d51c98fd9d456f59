"""Test-only reference for tier-2 demand: exhaustive bundle enumeration.

``brute_force_demand`` scores every bundle of unheld tasks; it is the
search the package ran for non-additive valuations before its oracle kept
only the per-task additive rule.  ``EnumeratingOracle`` drives
``wipd_run`` with it, and the differential tests compare the package's
``BruteForceOracle`` against that oracle.  ``TableValuation`` is a
non-additive valuation for the gross-substitutes tests.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from crowdtier.auction import DEMAND_POLICIES
from crowdtier.errors import ConfigError, DomainError
from crowdtier.notifier import Numeric, as_fraction


class TableValuation:
    """Valuation listed on explicit subsets, extended by monotone closure:
    an unlisted bundle is worth the best listed bundle it contains."""

    def __init__(self, listed: Mapping[frozenset, Numeric]):
        self.listed = {frozenset(s): as_fraction(v) for s, v in listed.items()}
        for s, v in self.listed.items():
            if v < 0:
                raise DomainError(f"negative value for bundle {sorted(s)}")

    def value(self, bundle: Iterable[int]) -> Fraction:
        bundle = frozenset(bundle)
        best = Fraction(0)
        for s, v in self.listed.items():
            if s <= bundle and v > best:
                best = v
        return best


def brute_force_demand(
    valuation,
    holdings: frozenset[int],
    prices: Sequence[Fraction],
    epsilon: Numeric,
    policy: str = "net-gain",
) -> frozenset[int]:
    """Exhaustive demand query over all bundles of unheld tasks.

    The score of a candidate F is the payment the device would collect,
    sum(p[j] for held) + sum(p[j] + eps for j in F), minus its valuation
    of holdings | F.  The net-gain policy maximizes the score (the
    device's utility change); the paper-literal policy minimizes it.
    Ties break to the smallest bundle, then lexicographically, so the
    empty set wins whenever it ties.
    """
    if policy not in DEMAND_POLICIES:
        raise ConfigError(f"unknown demand policy {policy!r}")
    eps = as_fraction(epsilon)
    m = len(prices)
    free = [t for t in range(m) if t not in holdings]
    base = sum((prices[j] for j in holdings), Fraction(0))
    sign = -1 if policy == "net-gain" else 1

    best_key = None
    best: frozenset[int] = frozenset()
    for r in range(len(free) + 1):
        for combo in itertools.combinations(free, r):
            bundle = holdings | frozenset(combo)
            score = base + sum((prices[j] + eps for j in combo), Fraction(0))
            score -= valuation.value(bundle)
            key = (sign * score, r, combo)
            if best_key is None or key < best_key:
                best_key = key
                best = frozenset(combo)
    return best


class EnumeratingOracle:
    """``wipd_run`` oracle answering every query with ``brute_force_demand``
    at prices ``levels[j] * epsilon``."""

    def __init__(self, valuations: Mapping[int, object], policy: str):
        self.valuations = dict(valuations)
        self.policy = policy

    def demand(self, device, holdings, levels, epsilon, round_index) -> frozenset[int]:
        eps = as_fraction(epsilon)
        prices = [k * eps for k in levels]
        return brute_force_demand(self.valuations[device], holdings, prices, eps, self.policy)
