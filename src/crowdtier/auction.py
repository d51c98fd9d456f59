"""Tier-2 task auction: ascending epsilon-increment price dynamics with
pluggable demand oracles, a gross-substitutes validator, and the
pay-as-bid GREEDY baseline.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import ConfigError, DomainError, InvariantError, TerminationError
from .notifier import Numeric, as_fraction

DEMAND_POLICIES = ("paper-literal", "net-gain")


# --- valuations -----------------------------------------------------------

class AdditiveValuation:
    """Sum of per-task values; the canonical gross-substitutes case."""

    def __init__(self, per_task: Mapping[int, Numeric]):
        self.per_task = {t: as_fraction(v) for t, v in per_task.items()}
        for t, v in self.per_task.items():
            if v < 0:
                raise DomainError(f"negative value for task {t}")

    def value(self, bundle: Iterable[int]) -> Fraction:
        return sum((self.per_task.get(t, Fraction(0)) for t in bundle), Fraction(0))

    def max_value(self) -> Fraction:
        """The sum of all values, added as integers over their common
        denominator."""
        values = self.per_task.values()
        scale = math.lcm(*(v.denominator for v in values))
        return Fraction(sum(v.numerator * (scale // v.denominator) for v in values), scale)

    def scaled(self, factor: Numeric) -> "AdditiveValuation":
        f = as_fraction(factor)
        return AdditiveValuation({t: v * f for t, v in self.per_task.items()})


# --- demand ---------------------------------------------------------------

class BruteForceOracle:
    """Demand oracle over additive valuations.

    Like every oracle ``wipd_run`` drives, it answers ``demand(device,
    holdings, levels, epsilon, round_index)``, where task j costs
    ``levels[j] * epsilon``.  The bundle is found task by task:
    paper-literal takes unheld task j iff p_j + epsilon < v_j, net-gain
    iff p_j + epsilon > v_j, and an unlisted task is worth 0.  Under an
    additive valuation that is the bundle an exhaustive search over all
    bundles of unheld tasks picks when ties break to the smallest bundle,
    since a tie only adds size.  Each rule is an integer cut computed
    once per (device, epsilon): paper-literal takes j iff
    levels[j] < ceil(v_j / epsilon) - 1, net-gain iff
    levels[j] >= floor(v_j / epsilon).
    """

    def __init__(self, valuations: Mapping[int, AdditiveValuation], policy: str = "net-gain"):
        if policy not in DEMAND_POLICIES:
            raise ConfigError(f"unknown demand policy {policy!r}")
        for device, valuation in valuations.items():
            if not isinstance(valuation, AdditiveValuation):
                raise ConfigError(
                    f"valuation of device {device} is {type(valuation).__name__}, "
                    "not an AdditiveValuation"
                )
        self.valuations = dict(valuations)
        self.policy = policy
        self._cuts: dict[int, list[int]] = {}
        self._cuts_for = None  # the (epsilon, task count) the cached cuts assume

    def _additive_cuts(self, valuation: AdditiveValuation, eps: Fraction, m: int) -> list[int]:
        # v / eps = num / den, den > 0: floor is num // den, ceil - 1 is (num - 1) // den.
        shift = self.policy == "paper-literal"
        values = map(valuation.per_task.get, range(m), itertools.repeat(Fraction(0)))
        return [(v.numerator * eps.denominator - shift) // (v.denominator * eps.numerator)
                for v in values]

    def demand(self, device, holdings, levels, epsilon, round_index) -> frozenset[int]:
        if self._cuts_for != (epsilon, len(levels)):
            self._cuts_for, self._cuts = (epsilon, len(levels)), {}
        if device not in self._cuts:
            if device not in self.valuations:
                raise DomainError(f"no valuation for device {device}")
            self._cuts[device] = self._additive_cuts(
                self.valuations[device], as_fraction(epsilon), len(levels)
            )
        takes = operator.lt if self.policy == "paper-literal" else operator.ge
        hits = map(takes, levels, self._cuts[device])
        return frozenset(itertools.compress(itertools.count(), hits)) - holdings

    def max_rounds_hint(self, num_tasks: int, epsilon: Fraction) -> int:
        top = max((v.max_value() for v in self.valuations.values()), default=Fraction(0))
        return math.ceil(top * num_tasks / epsilon) + num_tasks


# --- ascending auction ----------------------------------------------------

@dataclass
class AuctionOutcome:
    allocation: dict[int, frozenset[int]]
    payments: dict[int, Fraction]
    prices: tuple[Fraction, ...]
    rounds: int

    def check(self) -> None:
        taken: set[int] = set()
        for i, bundle in self.allocation.items():
            if bundle & taken:
                raise InvariantError(f"allocation of device {i} overlaps another device")
            taken |= bundle
            expected = sum((self.prices[j] for j in bundle), Fraction(0))
            if self.payments.get(i, Fraction(0)) != expected:
                raise InvariantError(
                    f"payment of device {i} is {self.payments.get(i)}, expected {expected}"
                )


def wipd_run(
    num_tasks: int,
    devices: Sequence[int],
    oracle,
    epsilon: Numeric,
    max_rounds: int | None = None,
) -> AuctionOutcome:
    """Ascending-price dynamics.

    Devices are visited in ascending id order; a non-empty demand F is
    granted (stripping F from every other holder) and each task in F
    rises in price by epsilon.  The auction ends on the first full pass
    with no demand; exceeding ``max_rounds`` raises TerminationError.

    Prices are levels[j] * epsilon: the oracle is asked ``demand(device,
    holdings, levels, epsilon, round_index)`` with the live list of
    integer levels, which it must not modify.
    """
    eps = as_fraction(epsilon)
    if eps <= 0:
        raise ConfigError("epsilon must be positive")
    if max_rounds is None:
        if hasattr(oracle, "max_rounds_hint"):
            max_rounds = oracle.max_rounds_hint(num_tasks, eps)
        else:
            max_rounds = 10_000
    if max_rounds < 1:
        raise ConfigError("max_rounds must be at least 1")

    order = sorted(devices)
    tasks = frozenset(range(num_tasks))
    levels = [0] * num_tasks
    owner: list[int | None] = [None] * num_tasks
    holdings = {i: frozenset() for i in order}

    for round_index in range(1, max_rounds + 1):
        settled = True
        for i in order:
            demanded = frozenset(oracle.demand(i, holdings[i], levels, eps, round_index))
            if not demanded:
                continue
            if not (demanded <= tasks and demanded.isdisjoint(holdings[i])):
                raise DomainError(
                    f"oracle demanded {sorted(demanded)} for device {i}, "
                    "outside the unheld task range"
                )
            settled = False
            for l in set(map(owner.__getitem__, demanded)) - {None}:
                holdings[l] -= demanded
            holdings[i] |= demanded
            for j in demanded:
                owner[j] = i
                levels[j] += 1
        if settled:
            outcome = AuctionOutcome(
                allocation=holdings,
                payments={i: sum(levels[j] for j in holdings[i]) * eps for i in order},
                prices=tuple(k * eps for k in levels),
                rounds=round_index,
            )
            outcome.check()
            return outcome

    raise TerminationError(f"auction did not settle within {max_rounds} passes")


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


# --- greedy baseline ------------------------------------------------------

def greedy_baseline(
    requests: Mapping[int, tuple[Iterable[int], Numeric]], num_tasks: int | None = None
) -> AuctionOutcome:
    """Pay-as-bid baseline over single reported bundles.

    Devices are ordered ascending by bid / sqrt(bundle size) (exactly,
    via squared cross-comparison; ties to the lowest id) and accepted
    when their bundle is disjoint from everything accepted so far.
    Winners are paid their bid.
    """
    bids: dict[int, tuple[frozenset[int], Fraction]] = {}
    for i, (bundle, bid) in requests.items():
        bundle = frozenset(bundle)
        if not bundle:
            raise DomainError(f"device {i} requested an empty bundle")
        b = as_fraction(bid)
        if b < 0:
            raise DomainError(f"device {i} bid a negative value")
        bids[i] = (bundle, b)

    if num_tasks is None:
        num_tasks = 1 + max((t for bundle, _ in bids.values() for t in bundle), default=-1)

    def sort_key(i: int):
        bundle, b = bids[i]
        return (b * b / len(bundle), i)

    taken: set[int] = set()
    allocation: dict[int, frozenset[int]] = {}
    payments: dict[int, Fraction] = {}
    for i in sorted(bids, key=sort_key):
        bundle, b = bids[i]
        if not bundle & taken:
            allocation[i] = bundle
            payments[i] = b
            taken |= bundle

    return AuctionOutcome(
        allocation=allocation,
        payments=payments,
        prices=tuple(Fraction(0) for _ in range(num_tasks)),
        rounds=1,
    )
