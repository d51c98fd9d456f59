"""Differential test of per-task additive demand against bundle enumeration.

``reference_auction.brute_force_demand`` scores every bundle of unheld
tasks and is the reference.  ``BruteForceOracle`` answers task by task
instead: it takes task j iff p_j + epsilon < v_j, and a task with no
listed value is worth 0.  It must return the enumerator's bundle on every
query, and a whole ``wipd_run`` driven by it must match one driven by
``EnumeratingOracle``: every recorded query and its answer, then
allocation, prices, payments and rounds.  Each auction that takes more
than one pass is replayed once more with a ``max_rounds`` below its
settling pass, and both oracles must then make the same queries up to
``TerminationError``.

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

EPSILONS = (Fraction(1), Fraction(1, 2), Fraction(2, 3), Fraction(3, 2))


def sixths(rng: random.Random, hi: int) -> Fraction:
    return Fraction(rng.randint(0, 6 * hi), 6)


def random_valuation(rng: random.Random, m: int, hi: int) -> AdditiveValuation:
    """Values on [0, hi] in sixths; about one task in five has no entry."""
    return AdditiveValuation({t: sixths(rng, hi) for t in range(m) if rng.random() < 0.8})


@pytest.mark.parametrize("eps", EPSILONS, ids=str)
def test_oracle_query_on_price_levels_matches_enumeration(eps):
    # The oracle sees integer levels; task j's price is levels[j] * eps.
    rng = random.Random(f"levels:{eps}")
    for _ in range(120):
        m = rng.randint(0, 10)
        levels = [rng.randint(0, 8) for _ in range(m)]
        # A quarter of the values sit exactly at the next level's price.
        valuation = AdditiveValuation({
            t: (levels[t] + 1) * eps if rng.random() < 0.25 else sixths(rng, 14)
            for t in range(m) if rng.random() < 0.8
        })
        holdings = frozenset(t for t in range(m) if rng.random() < 0.3)
        prices = tuple(k * eps for k in levels)
        expected = brute_force_demand(valuation, holdings, prices, eps)
        oracle = BruteForceOracle({0: valuation})
        assert oracle.demand(0, holdings, levels, eps, 1) == expected


def outcome_of(m, valuations, oracle, eps, max_rounds=None):
    recorder = RecordingOracle(oracle)
    try:
        out = wipd_run(m, sorted(valuations), recorder, eps, max_rounds=max_rounds)
    except TerminationError:
        return "unsettled", recorder.log
    return "settled", recorder.log, out.allocation, out.prices, out.payments, out.rounds


def random_auctions():
    """120 (task count, valuations, epsilon) instances of up to 6 tasks."""
    rng = random.Random("auction")
    for _ in range(120):
        m = rng.randint(1, 6)
        eps = rng.choice(EPSILONS)
        yield m, {d: random_valuation(rng, m, 6) for d in range(rng.randint(1, 4))}, eps


def test_whole_auction_matches_enumeration():
    for m, valuations, eps in random_auctions():
        # Unbounded, the package oracle runs under its own round hint.
        additive = outcome_of(m, valuations, BruteForceOracle(valuations), eps)
        assert additive[0] == "settled"
        assert additive == outcome_of(m, valuations, EnumeratingOracle(valuations), eps)


def test_auction_cut_short_matches_enumeration():
    # With max_rounds below the settling pass, both oracles must make the
    # same queries up to TerminationError.
    caps = random.Random("cap")
    truncated = 0
    for m, valuations, eps in random_auctions():
        rounds = wipd_run(m, sorted(valuations), BruteForceOracle(valuations), eps).rounds
        if rounds > 1:
            cap = caps.randint(1, rounds - 1)
            additive = outcome_of(m, valuations, BruteForceOracle(valuations), eps, cap)
            assert additive[0] == "unsettled"
            assert additive == outcome_of(m, valuations, EnumeratingOracle(valuations), eps, cap)
            truncated += 1
    assert truncated >= 100
