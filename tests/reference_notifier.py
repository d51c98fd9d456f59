"""Test-only reference for the tier-1 greedy and threshold payments.

This is the straightforward implementation the package shipped before its
integer-keyed, prefix-shared rewrite: ``Fraction`` heap keys, and one full
greedy rerun per winner on a :class:`CoverageOracle` view that excludes
that winner.  The differential tests compare the package against it.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import Mapping

from crowdtier.errors import ConfigError
from crowdtier.graph import CoverageOracle, SocialGraph
from crowdtier.notifier import Numeric, _cost_map, as_fraction


def _lazy_greedy(oracle: CoverageOracle, costs: Mapping[int, Fraction], accept):
    """Marginal-per-cost greedy over the oracle's candidates.

    ``accept(node, marginal, covered_value)`` decides admission of the
    current argmax; the first rejected argmax ends the run and is
    reported as the first loser.  Ties in the ratio break to the lowest
    node id.  Returns (selections, first_loser) where selections is a
    list of (node, marginal_at_selection) and first_loser is
    (node, marginal) or None when candidates ran out.
    """
    session = oracle.session()
    heap = []
    for i in oracle.candidates():
        m = session.gain(i)
        heapq.heappush(heap, (Fraction(-m, costs[i]), i, m))

    selections: list[tuple[int, int]] = []
    while heap:
        key, i, scored = heapq.heappop(heap)
        m = session.gain(i)
        if m != scored:
            heapq.heappush(heap, (Fraction(-m, costs[i]), i, m))
            continue
        if accept(i, m, session.value):
            selections.append((i, m))
            session.add(i)
        else:
            return selections, (i, m)
    return selections, None


def nam_select(
    graph: SocialGraph,
    costs: Mapping[int, Numeric],
    budget: Numeric,
    delta: Numeric = 2,
) -> tuple[list[int], frozenset[int]]:
    """Greedy notifier allocation under the proportional budget threshold.

    Repeatedly picks the unselected node with maximum marginal
    notification per reported cost (ties to the lowest id) and admits it
    while cost_i <= (B / delta) * marginal / (h(S) + marginal); the first
    violation, or an argmax with zero marginal, stops the run.  Returns
    the selected list in greedy order and the notified set.
    """
    budget = as_fraction(budget)
    delta = as_fraction(delta)
    if budget <= 0:
        raise ConfigError("budget must be positive")
    if delta <= 0:
        raise ConfigError("delta must be positive")
    if graph.n == 0:
        return [], frozenset()

    cost = _cost_map(graph.n, costs)
    oracle = CoverageOracle(graph)
    share = budget / delta

    def accept(i: int, marginal: int, covered: int) -> bool:
        if marginal == 0:
            return False
        return cost[i] <= share * Fraction(marginal, covered + marginal)

    selections, _ = _lazy_greedy(oracle, cost, accept)
    selected = [i for i, _ in selections]
    return selected, oracle.covered(selected)


def _payment_rerun(
    oracle: CoverageOracle, cost: Mapping[int, Fraction], budget: Fraction, winner: int
):
    """Greedy rerun with the winner excluded from candidacy (it stays
    notifiable, so competitors keep coverage credit for reaching it).

    Uses the undamped admission threshold cost_i / B <= m / (m + h(S')).
    Returns the position references [(cost_k, marginal_k), ...] covering
    the rerun's selections followed by the first loser (when one exists),
    plus the rerun's selection order.
    """
    restricted = oracle.without_node(winner)

    def accept(i: int, marginal: int, covered: int) -> bool:
        if marginal == 0:
            return False
        return cost[i] / budget <= Fraction(marginal, marginal + covered)

    selections, loser = _lazy_greedy(restricted, cost, accept)
    refs = [(cost[i], m) for i, m in selections]
    if loser is not None:
        refs.append((cost[loser[0]], loser[1]))
    return refs, [i for i, _ in selections]


def npm_prices(
    graph: SocialGraph,
    costs: Mapping[int, Numeric],
    budget: Numeric,
    selected: list[int],
) -> dict[int, Fraction]:
    """Threshold payments for the winners of :func:`nam_select`.

    For each winner j, the market is rerun without j; at every position
    k of the rerun ordering (plus the first-loser position) the payment
    candidate is min(nabla_jk, rho_jk), where nabla_jk is the cost j
    could have revealed to take position k and rho_jk the budget share
    at that position.  The payment is the maximum candidate.
    """
    budget = as_fraction(budget)
    if budget <= 0:
        raise ConfigError("budget must be positive")
    cost = _cost_map(graph.n, costs)
    for j in selected:
        graph._check(j)
    oracle = CoverageOracle(graph)

    payments: dict[int, Fraction] = {}
    for j in selected:
        refs, order = _payment_rerun(oracle, cost, budget, j)

        best = Fraction(0)
        session = oracle.session()  # accumulates T_{k-1} in the full graph
        for k in range(len(order) + 1):
            h_jk = session.gain(j)
            if h_jk > 0:
                rho = budget * Fraction(h_jk, session.value + h_jk)
                if k < len(refs):
                    c_k, ref_marginal = refs[k]
                    # ref_marginal == 0 leaves the positional cost unbounded,
                    # so the budget share alone caps the candidate.
                    if ref_marginal > 0:
                        nabla = h_jk * c_k / ref_marginal
                        candidate = min(nabla, rho)
                    else:
                        candidate = rho
                else:
                    candidate = rho
                best = max(best, candidate)
            if k < len(order):
                session.add(order[k])
        payments[j] = best
    return payments
