"""Tier-2 task auction: ascending epsilon-increment price dynamics with
pluggable demand oracles, and the pay-as-bid GREEDY baseline.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import ConfigError, DomainError, InvariantError, TerminationError
from .notifier import Numeric, as_fraction


# --- valuations -----------------------------------------------------------

class AdditiveValuation:
    """Sum of per-task values; the canonical gross-substitutes case.  An
    ``int`` value stays an ``int``, any other goes through :func:`as_fraction`."""

    def __init__(self, per_task: Mapping[int, Numeric]):
        self.per_task = {t: v if type(v) is int else as_fraction(v) for t, v in per_task.items()}
        for t, v in self.per_task.items():
            if t < 0:
                raise DomainError(f"negative task id {t}")
            if v < 0:
                raise DomainError(f"negative value for task {t}")

    def value(self, bundle: Iterable[int]) -> Fraction:
        return sum((self.per_task.get(t, Fraction(0)) for t in bundle), Fraction(0))

    def scaled(self, factor: Numeric) -> "AdditiveValuation":
        f = as_fraction(factor)
        return AdditiveValuation({t: v * f for t, v in self.per_task.items()})


# --- demand ---------------------------------------------------------------

class BruteForceOracle:
    """Demand oracle over additive valuations.

    Like every oracle ``wipd_run`` drives, it answers ``demand(device,
    holdings, levels, epsilon, round_index)``, where task j costs
    ``levels[j] * epsilon``.  The bundle is found task by task: a device
    takes unheld task j iff p_j + epsilon < v_j, and an unlisted task is
    worth 0.  Under an additive valuation that is the bundle an
    exhaustive search over all bundles of unheld tasks picks when ties
    break to the smallest bundle, since a tie only adds size.  The rule
    is an integer cut computed once per (device, epsilon): device i takes
    j iff levels[j] < cut_ij = ceil(v_ij / epsilon) - 1.

    ``policy`` names that rule and accepts only ``"paper-literal"``; the
    keyword stays because the benchmark passes it.

    ``max_rounds_hint(num_tasks, epsilon)`` is the pass limit ``wipd_run``
    uses when given none: 1 + sum_j max(0, max_i cut_ij).  A grant raises
    task j's level only while it is below some device's cut, levels never
    fall, and every pass before the settling one grants a task, so the
    auction settles within that many passes.
    """

    def __init__(self, valuations: Mapping[int, AdditiveValuation], policy: str = "paper-literal"):
        if policy != "paper-literal":
            raise ConfigError(f"unknown demand policy {policy!r}")
        for device, valuation in valuations.items():
            if not isinstance(valuation, AdditiveValuation):
                raise ConfigError(
                    f"valuation of device {device} is {type(valuation).__name__}, "
                    "not an AdditiveValuation"
                )
        self.valuations = dict(valuations)
        self._cuts: dict[int, list[int]] = {}
        self._cuts_for = None  # the (epsilon, task count) the cached cuts assume

    @staticmethod
    def _additive_cuts(valuation: AdditiveValuation, eps: Fraction, m: int) -> list[int]:
        # v / eps = num / den, den > 0: ceil - 1 is (num - 1) // den.
        values = map(valuation.per_task.get, range(m), itertools.repeat(0))
        return [(v.numerator * eps.denominator - 1) // (v.denominator * eps.numerator)
                for v in values]

    def _cuts_at(self, epsilon, m: int) -> dict[int, list[int]]:
        if self._cuts_for != (epsilon, m):
            eps = as_fraction(epsilon)
            self._cuts_for = (epsilon, m)
            self._cuts = {d: self._additive_cuts(v, eps, m) for d, v in self.valuations.items()}
        return self._cuts

    def demand(self, device, holdings, levels, epsilon, round_index) -> frozenset[int]:
        cuts = self._cuts_at(epsilon, len(levels)).get(device)
        if cuts is None:
            raise DomainError(f"no valuation for device {device}")
        hits = map(operator.lt, levels, cuts)
        return frozenset(itertools.compress(itertools.count(), hits)) - holdings

    def max_rounds_hint(self, num_tasks: int, epsilon: Fraction) -> int:
        columns = zip(*self._cuts_at(epsilon, num_tasks).values())
        return 1 + sum(max(0, *column) for column in columns)


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

    Devices, each id listed once, are visited in ascending id order; a
    non-empty demand F is granted (stripping F from every other holder)
    and each task in F rises in price by epsilon.  The auction ends on the
    first full pass with no demand; exceeding ``max_rounds`` raises
    TerminationError.
    When ``max_rounds`` is None the limit is the oracle's
    ``max_rounds_hint(num_tasks, epsilon)``, so an oracle without that
    method must be given ``max_rounds``.

    Prices are levels[j] * epsilon: the oracle is asked ``demand(device,
    holdings, levels, epsilon, round_index)`` with the live list of
    integer levels, which it must not modify.
    """
    eps = as_fraction(epsilon)
    if eps <= 0:
        raise ConfigError("epsilon must be positive")
    if num_tasks < 0:
        raise ConfigError(f"num_tasks must be non-negative, got {num_tasks}")
    order = sorted(devices)
    for a, b in zip(order, order[1:]):
        if a == b:
            raise ConfigError(f"device list repeats a device id: {a!r}")
    if max_rounds is None:
        max_rounds = oracle.max_rounds_hint(num_tasks, eps)
    if max_rounds < 1:
        raise ConfigError("max_rounds must be at least 1")

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


# --- greedy baseline ------------------------------------------------------

def greedy_baseline(
    requests: Mapping[int, tuple[Iterable[int], Numeric]], num_tasks: int | None = None
) -> AuctionOutcome:
    """Pay-as-bid baseline over single reported bundles.

    Devices are ordered ascending by bid / sqrt(bundle size) (exactly,
    via squared cross-comparison; ties to the lowest id) and accepted
    when their bundle is disjoint from everything accepted so far.
    Winners are paid their bid.  Each sold task is priced at its winner's
    bid divided by the winner's bundle size and an unsold task at 0, so
    every payment is the sum of its bundle's prices.
    """
    if num_tasks is not None and num_tasks < 0:
        raise ConfigError(f"num_tasks must be non-negative, got {num_tasks}")
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
    for i, (bundle, _) in bids.items():
        if min(bundle) < 0 or max(bundle) >= num_tasks:
            raise DomainError(f"device {i} requested a task outside 0..{num_tasks - 1}")

    def sort_key(i: int):
        bundle, b = bids[i]
        return (b * b / len(bundle), i)

    taken: set[int] = set()
    allocation: dict[int, frozenset[int]] = {}
    payments: dict[int, Fraction] = {}
    prices = [Fraction(0)] * num_tasks
    for i in sorted(bids, key=sort_key):
        bundle, b = bids[i]
        if not bundle & taken:
            allocation[i] = bundle
            payments[i] = b
            taken |= bundle
            share = b / len(bundle)
            for j in bundle:
                prices[j] = share

    return AuctionOutcome(
        allocation=allocation,
        payments=payments,
        prices=tuple(prices),
        rounds=1,
    )
