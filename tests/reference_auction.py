"""Test-only reference for tier-2 demand: exhaustive bundle enumeration.

``brute_force_demand`` scores every bundle of unheld tasks; it is the
search the package ran for non-additive valuations before its oracle kept
only the per-task additive rule.  ``EnumeratingOracle`` drives
``wipd_run`` with it, and the differential tests compare the package's
``BruteForceOracle`` against that oracle.  ``gs_check`` tests a valuation
for gross substitutes on a price grid; the package's oracle accepts only
additive valuations, which are gross substitutes by construction, so only
the tests call it.  ``TableValuation`` is a non-additive valuation for the
gross-substitutes tests.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

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
) -> frozenset[int]:
    """Exhaustive demand query over all bundles of unheld tasks.

    The score of a candidate F is what the device would pay,
    sum(p[j] for held) + sum(p[j] + eps for j in F), minus its valuation
    of holdings | F; the demanded bundle minimizes it.  Ties break to the
    smallest bundle, then lexicographically, so the empty set wins
    whenever it ties.
    """
    eps = as_fraction(epsilon)
    m = len(prices)
    free = [t for t in range(m) if t not in holdings]
    base = sum((prices[j] for j in holdings), Fraction(0))

    best_key = None
    best: frozenset[int] = frozenset()
    for r in range(len(free) + 1):
        for combo in itertools.combinations(free, r):
            bundle = holdings | frozenset(combo)
            score = base + sum((prices[j] + eps for j in combo), Fraction(0))
            score -= valuation.value(bundle)
            key = (score, r, combo)
            if best_key is None or key < best_key:
                best_key = key
                best = frozenset(combo)
    return best


class EnumeratingOracle:
    """``wipd_run`` oracle answering every query with ``brute_force_demand``
    at prices ``levels[j] * epsilon``."""

    def __init__(self, valuations: Mapping[int, object]):
        self.valuations = dict(valuations)

    def demand(self, device, holdings, levels, epsilon, round_index) -> frozenset[int]:
        eps = as_fraction(epsilon)
        prices = [k * eps for k in levels]
        return brute_force_demand(self.valuations[device], holdings, prices, eps)


# --- gross substitutes ----------------------------------------------------

def _demand_sets(valuation, price: tuple[int, ...], m: int) -> list[frozenset[int]]:
    """Full demand correspondence at a price vector: all bundles
    minimizing price(S) - v(S)."""
    best = None
    sets: list[frozenset[int]] = []
    for r in range(m + 1):
        for combo in itertools.combinations(range(m), r):
            score = sum(price[j] for j in combo) - valuation.value(combo)
            if best is None or score < best:
                best = score
                sets = [frozenset(combo)]
            elif score == best:
                sets.append(frozenset(combo))
    return sets


def gs_check(valuation, num_tasks: int, grid_max: int = 6):
    """Exhaustive gross-substitutes test on an integer price grid.

    For every grid price vector p, every grid vector r >= p, and every
    bundle S demanded at p, some demanded bundle at r must retain all of
    S's tasks whose prices did not rise.  Returns (True, None) or
    (False, witness) with the first violating (p, r, S).
    """
    if num_tasks > 6:
        raise ConfigError("gs_check enumerates price grids; capped at 6 tasks")
    m = num_tasks
    demand_cache: dict[tuple[int, ...], list[frozenset[int]]] = {}

    def demands(price: tuple[int, ...]) -> list[frozenset[int]]:
        if price not in demand_cache:
            demand_cache[price] = _demand_sets(valuation, price, m)
        return demand_cache[price]

    for p in itertools.product(range(grid_max + 1), repeat=m):
        demand_p = demands(p)
        for r in itertools.product(*(range(pj, grid_max + 1) for pj in p)):
            if r == p:
                continue
            kept_sets = demands(r)
            unchanged = frozenset(j for j in range(m) if r[j] == p[j])
            for s in demand_p:
                keep = s & unchanged
                if not any(keep <= d for d in kept_sets):
                    witness = {"prices": p, "raised": r, "demanded": sorted(s)}
                    return False, witness
    return True, None
