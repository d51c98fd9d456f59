import random
import sys
from fractions import Fraction

import pytest

from crowdtier import (
    ConfigError,
    DomainError,
    InvariantError,
    NotifierOutcome,
    build_graph,
    nam_select,
    notifier_utility,
    npm_prices,
    ntbfm,
    psm,
    tenm_run,
)
from crowdtier import notifier
from crowdtier.graph import SocialGraph
from crowdtier.notifier import as_fraction


def random_instance(rng: random.Random, n_max: int = 10, cost_hi: int = 20):
    n = rng.randint(1, n_max)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
    graph = build_graph(n, edges)
    costs = {i: rng.randint(1, cost_hi) for i in range(n)}
    budget = rng.randint(5, 10 * cost_hi)
    return graph, costs, budget


def naive_alg1(graph: SocialGraph, costs, budget, delta=2):
    """Line-by-line re-execution of the greedy allocation rule, written
    independently of the production lazy-heap implementation."""
    budget = Fraction(budget)
    delta = Fraction(delta)
    adj = {i: set(graph.neighbors(i)) for i in range(graph.n)}
    selected: list[int] = []
    covered: set[int] = set()
    while len(selected) < graph.n:
        best = None
        for i in range(graph.n):
            if i in selected:
                continue
            m = len(adj[i] - covered)
            ratio = Fraction(m, costs[i])
            if best is None or ratio > best[0]:
                best = (ratio, i, m)
        ratio, i, m = best
        if m == 0:
            break
        if Fraction(costs[i]) <= (budget / delta) * Fraction(m, len(covered) + m):
            selected.append(i)
            covered |= adj[i]
        else:
            break
    return selected, covered


class TestNamSelect:
    def test_ex6_selection(self, ex6):
        graph, costs, budget, to_dense, to_label = ex6
        selected, notified = nam_select(graph, costs, budget)
        assert [to_label[i] for i in selected] == [1, 6]
        assert sorted(to_label[i] for i in notified) == [1, 2, 3, 4, 5, 6]

    def test_tiny_budget_selects_nothing(self, ex6):
        graph, costs, _, _, _ = ex6
        selected, notified = nam_select(graph, costs, Fraction(1, 1000))
        assert selected == [] and notified == frozenset()

    def test_empty_graph(self):
        graph = build_graph(0, [])
        assert nam_select(graph, {}, 10) == ([], frozenset())

    def test_matches_naive_alg1(self):
        rng = random.Random(7)
        for _ in range(50):
            graph, costs, budget = random_instance(rng)
            got_sel, got_cov = nam_select(graph, costs, budget)
            want_sel, want_cov = naive_alg1(graph, costs, budget)
            assert got_sel == want_sel
            assert got_cov == frozenset(want_cov)

    def test_rejects_bad_budget_and_delta(self, ex6):
        graph, costs, _, _, _ = ex6
        with pytest.raises(ConfigError):
            nam_select(graph, costs, 0)
        with pytest.raises(ConfigError):
            nam_select(graph, costs, 10, delta=0)

    def test_rejects_nonpositive_cost(self, ex6):
        graph, costs, budget, _, _ = ex6
        bad = dict(costs)
        bad[0] = 0
        with pytest.raises(DomainError):
            nam_select(graph, bad, budget)


class TestNpmPrices:
    def test_ex6_payments(self, ex6):
        graph, costs, budget, to_dense, to_label = ex6
        selected, _ = nam_select(graph, costs, budget)
        payments = npm_prices(graph, costs, budget, selected)
        assert {to_label[i]: p for i, p in payments.items()} == {1: 2, 6: 3}

    def test_unknown_winner_rejected(self, ex6):
        graph, costs, budget, _, _ = ex6
        with pytest.raises(DomainError):
            npm_prices(graph, costs, budget, [42])

    def test_repeated_winner_rejected(self, ex6):
        graph, costs, budget, _, _ = ex6
        with pytest.raises(DomainError):
            npm_prices(graph, costs, budget, [1, 1])

    def test_bool_winner_rejected(self, ex6):
        graph, costs, budget, _, _ = ex6
        with pytest.raises(DomainError):
            npm_prices(graph, costs, budget, [True])

    def test_isolated_economy_pays_full_budget(self):
        # One real candidate (0) covering everything cheap; removing it
        # leaves only zero-marginal candidates, so its payment is B.
        graph = build_graph(3, [(0, 1), (0, 2)])
        costs = {0: 1, 1: 100, 2: 100}
        selected, _ = nam_select(graph, costs, 10)
        assert selected == [0]
        payments = npm_prices(graph, costs, 10, selected)
        assert payments == {0: Fraction(10)}

    def test_random_payments_bounded_and_rational(self):
        rng = random.Random(13)
        for _ in range(50):
            graph, costs, budget = random_instance(rng)
            selected, _ = nam_select(graph, costs, budget)
            payments = npm_prices(graph, costs, budget, selected)
            for j, p in payments.items():
                assert p <= budget
                assert p >= costs[j]


class TestTenmRun:
    def test_ex6_outcome(self, ex6):
        graph, costs, budget, _, to_label = ex6
        outcome = tenm_run(graph, costs, budget)
        assert outcome.mechanism == "tenm"
        assert outcome.total_payment == 5
        assert outcome.total_payment <= budget

    def test_ex6_profitable_underreport_when_cap_binds(self, ex6):
        # Pins today's rule: selection admits under B/delta, payments are
        # thresholds under B, so at delta = 2 label 6 is paid more than its
        # critical value.  With true cost 5/2 it loses by telling the truth
        # and gains 1/2 by reporting 2.
        graph, costs, budget, to_dense, to_label = ex6
        six = to_dense[6]
        true_cost = Fraction(5, 2)
        truthful = tenm_run(graph, {**costs, six: true_cost}, budget, 2)
        assert [to_label[i] for i in truthful.selected] == [1]
        lying = tenm_run(graph, {**costs, six: 2}, budget, 2)
        assert [to_label[i] for i in lying.selected] == [1, 6]
        assert lying.payments[six] == 3
        assert notifier_utility(true_cost, lying.payments[six], True) == Fraction(1, 2)

    def test_deterministic(self, ex6):
        graph, costs, budget, _, _ = ex6
        a = tenm_run(graph, costs, budget)
        b = tenm_run(graph, costs, budget)
        assert a.selected == b.selected and a.payments == b.payments

    def test_empty_graph(self):
        outcome = tenm_run(build_graph(0, []), {}, 10)
        assert outcome.selected == [] and outcome.payments == {}

    def test_budget_feasible_sweep(self):
        rng = random.Random(17)
        for _ in range(60):
            graph, costs, budget = random_instance(rng)
            outcome = tenm_run(graph, costs, budget)
            outcome.check(costs)
            assert outcome.total_payment <= budget

    def test_monotone_allocation(self):
        # A winner reporting any lower cost stays selected.
        rng = random.Random(19)
        checked = 0
        for _ in range(30):
            graph, costs, budget = random_instance(rng, n_max=8)
            selected, _ = nam_select(graph, costs, budget)
            for i in list(selected):
                for lower in range(1, costs[i]):
                    trial = dict(costs)
                    trial[i] = lower
                    again, _ = nam_select(graph, trial, budget)
                    assert i in again
                    checked += 1
        assert checked > 0

    def test_truthfulness_small_grid(self):
        # Budget large enough that the B/delta admission cap never binds
        # (B >= delta * max cost * n); in that regime the allocation is
        # ratio-driven and the threshold payments are critical values.
        rng = random.Random(29)
        for _ in range(15):
            graph, costs, _ = random_instance(rng, n_max=6, cost_hi=12)
            budget = 2 * 12 * graph.n + rng.randint(0, 100)
            truthful = tenm_run(graph, costs, budget)
            for i in range(graph.n):
                base = notifier_utility(
                    costs[i], truthful.payments.get(i, 0), i in truthful.payments
                )
                for report in range(1, 13):
                    trial = dict(costs)
                    trial[i] = report
                    outcome = tenm_run(graph, trial, budget)
                    dev = notifier_utility(
                        costs[i], outcome.payments.get(i, 0), i in outcome.payments
                    )
                    assert dev <= base


class TestNtbfm:
    def test_ex6_trace(self, ex6):
        graph, costs, budget, _, to_label = ex6
        outcome = ntbfm(graph, costs, budget)
        assert [to_label[i] for i in outcome.selected] == [1, 3, 6, 5]
        assert outcome.total_payment == 9
        assert outcome.payments == {i: Fraction(costs[i]) for i in outcome.selected}

    def test_budget_below_min_cost(self, ex6):
        graph, costs, _, _, _ = ex6
        assert ntbfm(graph, costs, 1).selected == []

    def test_budget_feasible_sweep(self):
        rng = random.Random(37)
        for _ in range(200):
            graph, costs, budget = random_instance(rng)
            outcome = ntbfm(graph, costs, budget)
            outcome.check(costs)
            assert outcome.total_payment <= budget

    def test_scan_stops_at_first_refusal(self):
        # Static order by degree/cost: 0 (2/1), 1 (1/1), 2 (1/2); budget 2
        # admits 0, refuses 1 (cost 1 fits? remaining 1 -> selects), stops at 2.
        graph = build_graph(4, [(0, 1), (0, 2), (1, 3)])
        costs = {0: 1, 1: 1, 2: 2, 3: 2}
        outcome = ntbfm(graph, costs, 2)
        assert outcome.selected == [0, 1]


class TestPsm:
    def test_frozen_example(self):
        outcome = psm({0: 1, 1: 2, 2: 3, 3: 10}, 9)
        assert outcome.selected == [0, 1, 2]
        assert set(outcome.payments.values()) == {Fraction(3)}
        assert outcome.total_payment == 9

    def test_single_winner_paid_budget(self):
        outcome = psm({0: 4}, 10)
        assert outcome.payments == {0: Fraction(10)}

    def test_all_costs_above_budget(self):
        assert psm({0: 20, 1: 30}, 10).selected == []

    def test_requires_costs(self):
        with pytest.raises(DomainError):
            psm({}, 10)

    def test_budget_feasible_sweep(self):
        rng = random.Random(41)
        for _ in range(200):
            n = rng.randint(1, 12)
            costs = {i: rng.randint(1, 30) for i in range(n)}
            budget = rng.randint(1, 200)
            outcome = psm(costs, budget)
            outcome.check(costs if outcome.selected else None)
            assert outcome.total_payment <= budget

    def test_truthfulness_small_grid(self):
        rng = random.Random(43)
        for _ in range(20):
            n = rng.randint(2, 6)
            costs = {i: rng.randint(1, 12) for i in range(n)}
            budget = rng.randint(5, 60)
            truthful = psm(costs, budget)
            for i in range(n):
                base = notifier_utility(
                    costs[i], truthful.payments.get(i, 0), i in truthful.payments
                )
                for report in range(1, 13):
                    trial = dict(costs)
                    trial[i] = report
                    outcome = psm(trial, budget)
                    dev = notifier_utility(
                        costs[i], outcome.payments.get(i, 0), i in outcome.payments
                    )
                    assert dev <= base


class TestAsFraction:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), None, "abc", "1/0"])
    def test_non_numbers_raise_domain_error(self, value):
        with pytest.raises(DomainError):
            as_fraction(value)

    def test_float_reads_as_decimal_literal(self):
        assert as_fraction(0.1) == Fraction(1, 10)

    def test_fraction_is_returned_as_is(self):
        f = Fraction(3, 7)
        assert as_fraction(f) is f

    @pytest.mark.parametrize("text", [
        "1e5000", "1e-5000", "-1E+4301", "1e4000000", "1" * 3000 + "." + "1" * 3000,
    ])
    def test_literal_beyond_the_digit_limit_raises_domain_error(self, text):
        with pytest.raises(DomainError, match=r"more than \d+ digits"):
            as_fraction(text)

    @pytest.mark.parametrize("text", ["1/1e5000", "1e5000/3", "1/1e9999"])
    def test_fraction_text_with_exponent_is_not_a_number(self, text):
        # A "/" string takes no exponent, so no digit-limit text is given.
        with pytest.raises(DomainError) as exc:
            as_fraction(text)
        assert str(exc.value) == f"not a finite rational number: {text!r}"

    def test_literal_at_the_digit_limit_is_exact(self):
        limit = sys.get_int_max_str_digits()
        assert as_fraction(f"1e{limit}") == 10**limit
        assert as_fraction(f"-1e-{limit}") == Fraction(-1, 10**limit)
        # Each part of a fraction literal is its own number.
        assert as_fraction("7" * limit + "/" + "3" * limit) == Fraction(7, 3)

    def test_no_digit_limit_no_check(self, monkeypatch):
        monkeypatch.setattr(notifier, "_digit_limit", lambda: 0)
        assert as_fraction("1e5000") == 10**5000


class TestOutcomeInvariants:
    def test_utility_function(self):
        assert notifier_utility(2, 2, True) == 0
        assert notifier_utility(2, 3, True) == 1
        assert notifier_utility(5, 100, False) == 0
        with pytest.raises(DomainError):
            notifier_utility(1, -1, True)

    def test_check_catches_budget_violation(self):
        outcome = NotifierOutcome(
            "x", [0], frozenset(), {0: Fraction(5)}, Fraction(4)
        )
        with pytest.raises(InvariantError):
            outcome.check()

    def test_check_catches_underpayment(self):
        outcome = NotifierOutcome(
            "x", [0], frozenset(), {0: Fraction(1)}, Fraction(10)
        )
        with pytest.raises(InvariantError):
            outcome.check({0: Fraction(2)})

    # Tampered copies of one valid outcome: 0 and 1 paid 1/2 and 2/3 of
    # a budget of 7/6, against reported costs 1/2 and 2/3.
    PAID = {0: Fraction(1, 2), 1: Fraction(2, 3)}
    COSTS = {0: Fraction(1, 2), 1: Fraction(2, 3)}

    def outcome(self, selected=(0, 1), payments=PAID, budget=Fraction(7, 6)):
        return NotifierOutcome("x", list(selected), frozenset(), dict(payments), budget)

    def test_check_accepts_payments_that_spend_the_budget_at_cost(self):
        self.outcome().check(self.COSTS)
        self.outcome(payments={0: Fraction(1), 1: 2}, budget=Fraction(3)).check({0: 1, 1: 2})

    @pytest.mark.parametrize("costs, text", [
        ({0: Fraction(1, 2), 1: Fraction(3, 4)}, "winner 1 paid 2/3 below reported cost 3/4"),
        ({0: 1, 1: Fraction(2, 3)}, "winner 0 paid 1/2 below reported cost 1"),
        ({0: "0.5", 1: 0.7}, "winner 1 paid 2/3 below reported cost 0.7"),
    ])
    def test_check_refuses_a_payment_below_cost(self, costs, text):
        with pytest.raises(InvariantError) as exc:
            self.outcome().check(costs)
        assert str(exc.value) == text

    def test_check_refuses_a_total_one_unit_above_budget(self):
        # 1/2 + 2/3 = 7/6 is one sixth, the payments' common unit, above 1.
        with pytest.raises(InvariantError) as exc:
            self.outcome(budget=Fraction(1)).check(self.COSTS)
        assert str(exc.value) == "total payment 7/6 exceeds budget 1"

    @pytest.mark.parametrize("selected, payments", [
        ((0, 1), {**PAID, 2: Fraction(1)}),
        ((0, 1), {0: Fraction(1, 2)}),
        ((0,), PAID),
    ])
    def test_check_refuses_a_payment_off_the_selected_set(self, selected, payments):
        with pytest.raises(InvariantError) as exc:
            self.outcome(selected, payments).check(self.COSTS)
        assert str(exc.value) == "payments not defined exactly on selected"

    def test_check_refuses_a_repeated_winner(self):
        with pytest.raises(InvariantError) as exc:
            self.outcome(selected=(0, 1, 0)).check(self.COSTS)
        assert str(exc.value) == "selected list contains duplicates"
