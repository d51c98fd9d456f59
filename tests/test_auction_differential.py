"""Differential test of per-task additive demand against bundle enumeration.

``reference_auction.brute_force_demand`` scores every bundle of unheld
tasks and is the reference.  ``BruteForceOracle`` answers task by task
instead: paper-literal takes task j iff p_j + epsilon < v_j, net-gain iff
p_j + epsilon > v_j, and a task with no listed value is worth 0.  It must
return the enumerator's bundle on every query, and a whole ``wipd_run``
driven by it must match one driven by ``EnumeratingOracle``: every
recorded query and its answer, then allocation, prices, payments and
rounds, or the same queries up to ``TerminationError`` when the auction
does not settle.

Values are drawn on a grid of sixths, and every epsilon is a multiple of
1/6, so a price plus epsilon often equals a value exactly: the tie that
the smallest-bundle rule must resolve by leaving the task.  The
single-query test also places a quarter of its values on such ties.
``BruteForceOracle`` sees integer price levels (price = level * epsilon),
so its queries are drawn on that grid.
"""

import random
from fractions import Fraction

import pytest

from crowdtier import AdditiveValuation, BruteForceOracle, TerminationError, wipd_run
from helpers import RecordingOracle
from reference_auction import EnumeratingOracle, brute_force_demand

POLICIES = ("paper-literal", "net-gain")
EPSILONS = (Fraction(1), Fraction(1, 2), Fraction(2, 3), Fraction(3, 2))
# A small cap keeps non-settling net-gain auctions cheap to replay.
MAX_ROUNDS = 40


def sixths(rng: random.Random, hi: int) -> Fraction:
    return Fraction(rng.randint(0, 6 * hi), 6)


def random_valuation(rng: random.Random, m: int, hi: int) -> AdditiveValuation:
    """Values on [0, hi] in sixths; about one task in five has no entry."""
    return AdditiveValuation({t: sixths(rng, hi) for t in range(m) if rng.random() < 0.8})


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("eps", EPSILONS, ids=str)
def test_oracle_query_on_price_levels_matches_enumeration(policy, eps):
    # The oracle sees integer levels; task j's price is levels[j] * eps.
    rng = random.Random(f"levels:{policy}:{eps}")
    for _ in range(60):
        m = rng.randint(0, 10)
        levels = [rng.randint(0, 8) for _ in range(m)]
        # A quarter of the values sit exactly at the next level's price.
        valuation = AdditiveValuation({
            t: (levels[t] + 1) * eps if rng.random() < 0.25 else sixths(rng, 14)
            for t in range(m) if rng.random() < 0.8
        })
        holdings = frozenset(t for t in range(m) if rng.random() < 0.3)
        prices = tuple(k * eps for k in levels)
        expected = brute_force_demand(valuation, holdings, prices, eps, policy)
        oracle = BruteForceOracle({0: valuation}, policy)
        assert oracle.demand(0, holdings, levels, eps, 1) == expected


def outcome_of(m, valuations, oracle, eps):
    recorder = RecordingOracle(oracle)
    try:
        out = wipd_run(m, sorted(valuations), recorder, eps, max_rounds=MAX_ROUNDS)
    except TerminationError:
        return "unsettled", recorder.log
    return "settled", recorder.log, out.allocation, out.prices, out.payments, out.rounds


@pytest.mark.parametrize("policy", POLICIES)
def test_whole_auction_matches_enumeration(policy):
    rng = random.Random(f"auction:{policy}")
    kinds = set()
    for _ in range(60):
        m = rng.randint(1, 6)
        eps = rng.choice(EPSILONS)
        valuations = {d: random_valuation(rng, m, 6) for d in range(rng.randint(1, 4))}
        additive = outcome_of(m, valuations, BruteForceOracle(valuations, policy), eps)
        enumerated = outcome_of(m, valuations, EnumeratingOracle(valuations, policy), eps)
        assert additive == enumerated
        kinds.add(additive[0])
    # Net-gain pays devices to take tasks, so some of its auctions never
    # settle; both paths must then make the same queries.
    assert kinds == ({"settled", "unsettled"} if policy == "net-gain" else {"settled"})
