"""Differential tests: the integer-keyed, prefix-shared tier-1 code must
reproduce the Fraction-keyed reference (``reference_notifier``) exactly:
the selected order, the notified set, every payment and its type.
``tenm_run``, which selects and pays in one forward pass, must match the
reference's separate selection and payment runs."""

import inspect
import math
import random
from fractions import Fraction

import pytest

import reference_notifier as ref
from crowdtier import build_graph, nam_select, notifier, npm_prices, tenm_run
from crowdtier.notifier import as_fraction


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
    if delta >= 1:
        outcome = tenm_run(graph, costs, budget, delta)
        want_pay = ref.npm_prices(graph, costs, budget, want[0])
        assert outcome.selected == want[0]
        assert outcome.notified == want[1]
        assert list(outcome.payments.items()) == list(want_pay.items())
        assert all(type(p) is Fraction for p in outcome.payments.values())
        assert outcome.budget == as_fraction(budget)
        assert type(outcome.budget) is Fraction
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
        delta = rng.choice((2, 2, 1, Fraction(1, 2), 3, Fraction(3, 2)))
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


# The heap packs each entry into one int whose low bits hold the node id.
# At these sizes node n - 1 sets the top bit of that id field (n = 2^k + 1)
# or fills it (n = 2^k).
ID_FIELD_SIZES = (1, 2, 3, 4, 5, 8, 9, 16, 17, 33)


@pytest.mark.parametrize("n", ID_FIELD_SIZES)
def test_highest_node_id_decodes(n):
    rng = random.Random(f"id-field:{n}")
    winners = 0
    for t in range(40):
        graph = random_graph(rng, n, rng.choice((0.2, 0.5, 0.9)))
        if t % 4 == 0:
            # A star around node n - 1 makes it the first argmax.
            hub = [(i, n - 1) for i in range(n - 1)]
            graph = build_graph(n, hub + [(i, i + 1) for i in range(n - 2) if rng.random() < 0.3])
        costs = {i: COSTS["tied" if t % 2 else "fraction"](rng) for i in range(n)}
        budget = BUDGETS["fraction"](rng)
        subsets = [[n - 1], rng.sample(range(n), rng.randint(0, n))]
        winners += len(assert_same(graph, costs, budget, rng.choice((1, 2)), subsets))
    assert winners > 0 or n == 1


@pytest.mark.parametrize("kind", ["integers", "coprime_fractions"])
def test_weights_wider_than_64_bits(kind):
    rng = random.Random(kind)
    n = 60
    denominators = (7, 11, 13, 17, 19, 23, 29, 31)
    for _ in range(6):
        graph = random_graph(rng, n, rng.choice((0.1, 0.3)))
        if kind == "integers":
            costs = {i: 20 + i % 31 for i in range(n)}
        else:
            costs = {i: Fraction(rng.randint(20, 50), denominators[i % 8]) for i in range(n)}
        exact = [Fraction(c) for c in costs.values()]
        scale = math.lcm(*(c.denominator for c in exact))
        assert math.lcm(*(int(c * scale) for c in exact)) > 2**64
        selected = assert_same(graph, costs, rng.randint(200, 900),
                               subsets=[rng.sample(range(n), 10)])
        assert selected


def test_dense_n300_graph():
    rng = random.Random("dense-300")
    graph = random_graph(rng, 300, 0.4)
    costs = {i: rng.randint(20, 50) for i in range(300)}
    selected = assert_same(graph, costs, 15000, subsets=[rng.sample(range(300), 30)])
    assert len(selected) >= 5


def test_tenm_run_walks_one_forward_pass(monkeypatch):
    # tenm_run selects and pays along one greedy pass over all n nodes;
    # every other pass is one winner's rerun, which starts from a heap
    # that winner has left.
    real = notifier._greedy_pass
    heaps = []

    def counting(*args, **kwargs):
        heaps.append(len(inspect.signature(real).bind(*args, **kwargs).arguments["heap"]))
        return real(*args, **kwargs)

    def unused(*args, **kwargs):
        raise AssertionError("tenm_run ran a separate selection or payment pass")

    monkeypatch.setattr(notifier, "_greedy_pass", counting)
    monkeypatch.setattr(notifier, "nam_select", unused)
    monkeypatch.setattr(notifier, "npm_prices", unused)
    rng = random.Random("one-pass")
    graph = random_graph(rng, 200, 0.2)
    costs = {i: rng.randint(20, 50) for i in range(200)}
    outcome = tenm_run(graph, costs, 10000)
    assert len(outcome.selected) >= 5
    assert heaps.count(graph.n) == 1
    assert len(heaps) <= 1 + len(outcome.selected)
