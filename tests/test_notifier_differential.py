"""Differential tests: the integer-keyed, prefix-shared tier-1 code must
reproduce the Fraction-keyed reference (``reference_notifier``) exactly:
the selected order, the notified set, every payment and its type."""

import math
import random
from fractions import Fraction

import pytest

import reference_notifier as ref
from crowdtier import build_graph, nam_select, npm_prices


def assert_same(graph, costs, budget, delta=2, subsets=()):
    got = nam_select(graph, costs, budget, delta)
    want = ref.nam_select(graph, costs, budget, delta)
    assert got[0] == want[0]
    assert got[1] == want[1]
    for selected in (got[0], *subsets):
        got_pay = npm_prices(graph, costs, budget, selected)
        want_pay = ref.npm_prices(graph, costs, budget, selected)
        assert list(got_pay.items()) == list(want_pay.items())
        assert all(isinstance(p, Fraction) for p in got_pay.values())
    return got[0]


def random_graph(rng, n, p):
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])


COSTS = {
    # Few distinct small integers, so ratio ties are common.
    "tied": lambda rng: rng.randint(1, 3),
    "fraction": lambda rng: Fraction(rng.randint(1, 40), rng.randint(1, 6)),
    "float": lambda rng: round(rng.uniform(0.1, 20.0), rng.randint(0, 3)) or 0.5,
}
BUDGETS = {
    "int": lambda rng: rng.randint(1, 120),
    "fraction": lambda rng: Fraction(rng.randint(1, 600), rng.randint(1, 9)),
    "float": lambda rng: round(rng.uniform(0.5, 120.0), 2),
}


@pytest.mark.parametrize("budget_kind", sorted(BUDGETS))
@pytest.mark.parametrize("cost_kind", sorted(COSTS))
def test_random_small_graphs(cost_kind, budget_kind):
    rng = random.Random(f"{cost_kind}:{budget_kind}")
    winners = 0
    for t in range(140):
        n = 1 + t % 14
        graph = random_graph(rng, n, rng.choice((0.1, 0.3, 0.6, 0.9)))
        costs = {i: COSTS[cost_kind](rng) for i in range(n)}
        budget = BUDGETS[budget_kind](rng)
        # delta < 1 admits winners beyond the undamped rule's first loser.
        delta = rng.choice((2, 2, 1, Fraction(1, 2), 3))
        selected, _ = nam_select(graph, costs, budget, delta)
        losers = [i for i in range(n) if i not in selected]
        subsets = [
            rng.sample(losers, rng.randint(0, len(losers))),
            rng.sample(range(n), rng.randint(0, n)),
        ]
        winners += len(assert_same(graph, costs, budget, delta, subsets))
    assert winners > 0


def test_n300_graph():
    rng = random.Random(300)
    graph = random_graph(rng, 300, 0.05)
    costs = {i: rng.randint(20, 50) for i in range(300)}
    selected = assert_same(graph, costs, 4000, subsets=[rng.sample(range(300), 20)])
    assert len(selected) >= 10


def test_prime_costs_with_huge_lcm():
    rng = random.Random(11)
    primes = [p for p in range(1000, 6000) if all(p % d for d in range(2, math.isqrt(p) + 1))]
    n = 150
    graph = random_graph(rng, n, 0.08)
    costs = dict(enumerate(rng.sample(primes, n)))
    assert math.lcm(*costs.values()).bit_length() > 1500
    selected = assert_same(graph, costs, 400_000)
    assert len(selected) >= 10
