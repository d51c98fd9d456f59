import itertools
import random
from fractions import Fraction

import pytest

from crowdtier import (
    AdditiveValuation,
    BruteForceOracle,
    ConfigError,
    DomainError,
    TerminationError,
    greedy_baseline,
    notifier_utility,
    wipd_run,
)
from helpers import RecordingOracle, ScriptedOracle
from reference_auction import EnumeratingOracle, TableValuation, gs_check

# Four-pass script on eight tasks and three devices reaching the
# partition {1: t0-t2, 2: t3,t5,t7, 3: t4,t6}.
SCRIPT_8X3 = {
    (1, 1): {0, 1, 2}, (1, 2): {3, 5, 7}, (1, 3): {4},
    (2, 1): {6}, (2, 2): {2}, (2, 3): {2, 6},
    (3, 1): {2, 6}, (3, 3): {6},
}


def naive_demand(valuation, holdings, prices, eps):
    """Direct enumeration with explicit tie-breaking, written separately
    from the oracle's per-task rule."""
    free = [t for t in range(len(prices)) if t not in holdings]
    best = None
    for r in range(len(free) + 1):
        for combo in itertools.combinations(free, r):
            score = sum(prices[j] for j in holdings)
            score += sum(prices[j] + eps for j in combo)
            score -= valuation.value(holdings | set(combo))
            key = (score, len(combo), combo)
            if best is None or key < best[0]:
                best = (key, frozenset(combo))
    return best[1]


def naive_dynamics(num_tasks, devices, oracle, eps, max_rounds=200):
    """Dict-based replay of the ascending pass structure."""
    prices = {t: Fraction(0) for t in range(num_tasks)}
    holdings = {i: set() for i in devices}
    for rnd in range(1, max_rounds + 1):
        quiet = True
        for i in sorted(devices):
            f = oracle.demand(
                i, frozenset(holdings[i]),
                tuple(prices[t] for t in range(num_tasks)), eps, rnd,
            )
            if f:
                quiet = False
                for other in devices:
                    if other != i:
                        holdings[other] -= f
                holdings[i] |= f
                for t in f:
                    prices[t] += eps
        if quiet:
            return holdings, prices, rnd
    raise AssertionError("naive dynamics did not settle")


class TestValuations:
    def test_additive_sum(self):
        v = AdditiveValuation({0: 3, 1: 4})
        assert v.value([0, 1]) == 7
        assert v.value([]) == 0
        assert v.value([1, 2]) == 4

    def test_additive_rejects_negative(self):
        with pytest.raises(DomainError):
            AdditiveValuation({0: -1})
        with pytest.raises(DomainError):
            AdditiveValuation({0: Fraction(-1, 2)})

    def test_additive_keeps_int_values(self):
        v = AdditiveValuation({0: 3, 1: True, 2: 2.5, 3: Fraction(1, 3)})
        assert [type(x) for x in v.per_task.values()] == [int, Fraction, Fraction, Fraction]
        assert v.per_task == {0: 3, 1: 1, 2: Fraction(5, 2), 3: Fraction(1, 3)}
        assert type(v.value([0])) is Fraction

    def test_table_monotone_closure(self):
        v = TableValuation({frozenset({0, 1}): 5, frozenset({2}): 2})
        assert v.value({0, 1}) == 5
        assert v.value({0, 1, 2}) == 5
        assert v.value({0}) == 0
        assert v.value({2, 3}) == 2


def demand_at(per_task, levels):
    """One query of a single-device oracle at epsilon 1, holding nothing."""
    oracle = BruteForceOracle({0: AdditiveValuation(per_task)})
    return oracle.demand(0, frozenset(), list(levels), Fraction(1), 1)


class TestBruteForceDemand:
    def test_paper_literal_takes_value_over_payment(self):
        assert demand_at({0: 5, 1: 2}, (0, 0)) == frozenset({0, 1})

    def test_paper_literal_skips_overpriced(self):
        assert demand_at({0: 5}, (9,)) == frozenset()

    def test_ties_prefer_smaller_then_lexicographic(self):
        # Task 0's value equals its price plus epsilon, so taking it scores
        # the same as leaving it, and the smaller bundle wins.
        assert demand_at({0: 1, 1: 2}, (0, 0)) == frozenset({1})

    def test_matches_naive_enumeration(self):
        rng = random.Random(13)
        for _ in range(60):
            m = rng.randint(1, 5)
            v = AdditiveValuation({t: rng.randint(0, 6) for t in range(m)})
            levels = [rng.randint(0, 5) for _ in range(m)]
            held = frozenset(t for t in range(m) if rng.random() < 0.3)
            oracle = BruteForceOracle({0: v})
            assert oracle.demand(0, held, levels, Fraction(1), 1) == naive_demand(
                v, held, tuple(map(Fraction, levels)), Fraction(1)
            )

    def test_oracle_rejects_unknown_policy_at_construction(self):
        # Only the keyword's default is accepted; net-gain is gone.
        BruteForceOracle({}, policy="paper-literal")
        for policy in ("x", "net-gain"):
            with pytest.raises(ConfigError, match="policy"):
                BruteForceOracle({}, policy=policy)

    def test_oracle_rejects_non_additive_valuation_at_construction(self):
        with pytest.raises(ConfigError, match="device 0 .* not an AdditiveValuation"):
            BruteForceOracle({0: object()})
        with pytest.raises(ConfigError, match="TableValuation"):
            BruteForceOracle({0: TableValuation({frozenset({0, 1}): 5})})

    def test_device_without_valuation_is_a_domain_error(self):
        oracle = BruteForceOracle({0: AdditiveValuation({0: 5})})
        with pytest.raises(DomainError, match="device 5"):
            wipd_run(1, [0, 5], oracle, 1)


class TestWipdRun:
    def test_script_8x3_partition(self):
        out = wipd_run(8, [1, 2, 3], ScriptedOracle(SCRIPT_8X3), 1)
        assert {d: set(b) for d, b in out.allocation.items()} == {
            1: {0, 1, 2}, 2: {3, 5, 7}, 3: {4, 6},
        }
        assert out.rounds == 4

    def test_script_8x3_payment_identity(self):
        out = wipd_run(8, [1, 2, 3], ScriptedOracle(SCRIPT_8X3), 1)
        for d, bundle in out.allocation.items():
            assert out.payments[d] == sum(
                (out.prices[t] for t in bundle), Fraction(0)
            )

    def test_single_device_takes_all_once(self):
        out = wipd_run(2, [0], ScriptedOracle({(1, 0): {0, 1}}), 1)
        assert out.allocation[0] == frozenset({0, 1})
        assert out.payments[0] == 2
        assert out.rounds == 2

    def test_price_monotone_along_queries(self):
        recorder = RecordingOracle(ScriptedOracle(SCRIPT_8X3))
        out = wipd_run(8, [1, 2, 3], recorder, 1)
        prev = (0,) * 8
        for _, _, levels, _ in recorder.log:
            assert all(a <= b for a, b in zip(prev, levels))
            prev = levels
        assert all(k <= p for k, p in zip(prev, out.prices))  # epsilon 1: price = level

    def test_matches_naive_dynamics(self):
        rng = random.Random(23)
        for _ in range(30):
            m = rng.randint(2, 5)
            devices = list(range(rng.randint(2, 3)))
            vals = {
                d: AdditiveValuation({t: rng.randint(1, 8) for t in range(m)})
                for d in devices
            }
            oracle = BruteForceOracle(vals)
            out = wipd_run(m, devices, oracle, 1)
            holdings, prices, rounds = naive_dynamics(m, devices, oracle, Fraction(1))
            assert {d: set(b) for d, b in out.allocation.items()} == holdings
            assert list(out.prices) == [prices[t] for t in range(m)]
            assert out.rounds == rounds

    def test_allocations_disjoint_random(self):
        rng = random.Random(29)
        for _ in range(20):
            m = rng.randint(2, 6)
            vals = {
                d: AdditiveValuation({t: rng.randint(1, 9) for t in range(m)})
                for d in range(rng.randint(2, 4))
            }
            out = wipd_run(m, list(vals), BruteForceOracle(vals), 1)
            seen = set()
            for bundle in out.allocation.values():
                assert not bundle & seen
                seen |= bundle

    def test_additive_auction_beyond_enumeration_cap(self):
        rng = random.Random(37)
        vals = {
            d: AdditiveValuation({t: rng.randint(30, 45) for t in range(200)})
            for d in range(5)
        }
        out = wipd_run(200, list(vals), BruteForceOracle(vals), 1)
        out.check()
        assert len(out.prices) == 200
        assert set().union(*out.allocation.values()) == set(range(200))

    def test_nonterminating_oracle_raises_after_max_rounds(self):
        class Grabby:
            def demand(self, device, holdings, prices, epsilon, round_index):
                return frozenset() if 0 in holdings else frozenset({0})

        recorder = RecordingOracle(Grabby())
        with pytest.raises(TerminationError, match="15 passes"):
            wipd_run(1, [0, 1], recorder, 1, max_rounds=15)
        grants = [entry for entry in recorder.log if entry[3]]
        assert len(grants) == 30 and recorder.log[-1][0] == 15

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ConfigError):
            wipd_run(1, [0], ScriptedOracle({}), 0)

    def test_zero_tasks_settle_in_one_pass(self):
        # The old hint was 0 passes here, which max_rounds refused.
        oracle = BruteForceOracle({0: AdditiveValuation({0: 5})})
        out = wipd_run(0, [0], oracle, 1)
        assert out.rounds == 1
        assert out.allocation == {0: frozenset()} and out.prices == ()

    def test_rejects_negative_task_count(self):
        oracle = BruteForceOracle({0: AdditiveValuation({0: 5})})
        with pytest.raises(ConfigError, match="num_tasks"):
            wipd_run(-2, [0], oracle, 1, 5)

    def test_rejects_repeated_device(self):
        # Device 0 would be asked for its demand twice per pass.
        oracle = BruteForceOracle({0: AdditiveValuation({0: 5, 1: 3})})
        with pytest.raises(ConfigError, match="repeats a device id: 0$"):
            wipd_run(2, [0, 0], oracle, 1)

    def test_round_hint_sums_the_top_cut_per_task(self):
        # Cuts are ceil(v / eps) - 1: device 0 has (4, 1, -1) at eps 1 and
        # device 1 has (2, -1, -1), so the hint is 1 + 4 + 1 + 0.
        oracle = BruteForceOracle({
            0: AdditiveValuation({0: 5, 1: 2}), 1: AdditiveValuation({0: 3}),
        })
        assert oracle.max_rounds_hint(3, Fraction(1)) == 6
        assert oracle.max_rounds_hint(3, Fraction(1, 2)) == 1 + 9 + 3
        assert oracle.max_rounds_hint(0, Fraction(1)) == 1
        assert BruteForceOracle({}).max_rounds_hint(3, Fraction(1)) == 1

    def test_oracle_without_hint_needs_max_rounds(self):
        oracle = EnumeratingOracle({0: AdditiveValuation({0: 5})})
        with pytest.raises(AttributeError, match="max_rounds_hint"):
            wipd_run(1, [0], oracle, 1)
        assert wipd_run(1, [0], oracle, 1, max_rounds=3).rounds == 2

    def test_rejects_demand_of_held_task(self):
        class Bad:
            def demand(self, device, holdings, prices, epsilon, round_index):
                return frozenset({0})

        with pytest.raises(DomainError):
            wipd_run(1, [0], Bad(), 1, max_rounds=5)

    def test_device_utility(self):
        # A device's auction utility is notifier_utility(value, payment, allocated).
        assert notifier_utility(7, 10, True) == 3
        assert notifier_utility(7, 10, False) == 0
        with pytest.raises(DomainError):
            notifier_utility(0, -1, True)


class TestGrossSubstitutes:
    def test_additive_satisfies_gs(self):
        ok, witness = gs_check(AdditiveValuation({0: 2, 1: 3}), 2, grid_max=4)
        assert ok and witness is None

    def test_zero_valuation_satisfies_gs(self):
        ok, _ = gs_check(AdditiveValuation({}), 2, grid_max=3)
        assert ok

    def test_complements_violate_gs(self):
        ok, witness = gs_check(TableValuation({frozenset({0, 1}): 5}), 2, grid_max=4)
        assert not ok
        assert set(witness) == {"prices", "raised", "demanded"}

    def test_task_cap(self):
        with pytest.raises(ConfigError):
            gs_check(AdditiveValuation({}), 7)


class TestGreedyBaseline:
    def test_hand_ordering(self):
        # v/sqrt(|S|): device 1 -> 4/1, device 0 -> 9/sqrt(4)=4.5,
        # device 2 -> 5/1; ascending order is 1, 0, 2; 0 and 1 overlap.
        requests = {
            0: ({0, 1, 2, 3}, 9),
            1: ({0}, 4),
            2: ({4}, 5),
        }
        out = greedy_baseline(requests)
        assert set(out.allocation) == {1, 2}
        assert out.payments == {1: Fraction(4), 2: Fraction(5)}
        assert out.prices == (4, 0, 0, 0, 5)

    def test_outcome_passes_check(self):
        # Prices used to be all zero, so a winner's bid broke the identity.
        out = greedy_baseline({0: ({0}, 3)}, num_tasks=2)
        out.check()
        assert out.prices == (3, 0)

    def test_price_is_the_bid_share(self):
        out = greedy_baseline({0: ({0, 2}, 3), 1: ({1, 2}, 9)}, num_tasks=4)
        out.check()
        assert out.prices == (Fraction(3, 2), 0, Fraction(3, 2), 0)

    def test_rejects_task_outside_range(self):
        with pytest.raises(DomainError, match="device 0 .* outside 0..1"):
            greedy_baseline({0: ({2}, 3)}, num_tasks=2)
        with pytest.raises(DomainError, match="device 1 .* outside"):
            greedy_baseline({0: ({0}, 3), 1: ({-1}, 3)})

    def test_rejects_negative_task_count(self):
        message = "num_tasks must be non-negative, got -1"
        with pytest.raises(ConfigError, match=message):
            greedy_baseline({}, num_tasks=-1)
        with pytest.raises(ConfigError, match=message):
            greedy_baseline({0: ({0}, 3)}, num_tasks=-1)

    def test_tie_breaks_to_lowest_id(self):
        requests = {5: ({0}, 3), 2: ({0}, 3)}
        out = greedy_baseline(requests)
        assert set(out.allocation) == {2}

    def test_disjoint_winners(self):
        rng = random.Random(31)
        for _ in range(30):
            m = rng.randint(2, 8)
            requests = {}
            for d in range(rng.randint(2, 5)):
                size = rng.randint(1, m)
                requests[d] = (set(rng.sample(range(m), size)), rng.randint(1, 20))
            out = greedy_baseline(requests, num_tasks=m)
            seen = set()
            for bundle in out.allocation.values():
                assert not bundle & seen
                seen |= bundle

    def test_rejects_empty_bundle(self):
        with pytest.raises(DomainError):
            greedy_baseline({0: (set(), 3)})

    def test_rejects_negative_bid(self):
        with pytest.raises(DomainError):
            greedy_baseline({0: ({0}, -1)})
