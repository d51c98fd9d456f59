"""Test-only reference for the tier-1 greedy and threshold payments.

This is the straightforward implementation the package shipped before its
integer-keyed, prefix-shared rewrite: ``Fraction`` heap keys, and one full
greedy rerun per winner with that winner excluded from candidacy.  The
NTBFM and PSM baselines are the same kind of copy: ``Fraction`` sort keys,
a ``Fraction`` budget remainder, and a ``budget / k`` test per index.  The
differential tests compare the package against it.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import Mapping

from crowdtier.errors import ConfigError, DomainError
from crowdtier.graph import SocialGraph
from crowdtier.notifier import Numeric, NotifierOutcome, as_fraction


def _cost_map(graph_n: int, costs: Mapping[int, Numeric]) -> dict[int, Fraction]:
    """Every node's cost as a positive ``Fraction``, whatever its input type."""
    out = {}
    for i in range(graph_n):
        if i not in costs:
            raise DomainError(f"no cost for node {i}")
        c = as_fraction(costs[i])
        if c <= 0:
            raise DomainError(f"cost of node {i} must be positive, got {costs[i]}")
        out[i] = c
    return out


def _lazy_greedy(
    graph: SocialGraph, excluded: int | None, costs: Mapping[int, Fraction], accept
):
    """Marginal-per-cost greedy over every node but ``excluded``, which
    stays notifiable.

    ``accept(node, marginal, covered_value)`` decides admission of the
    current argmax; the first rejected argmax ends the run and is
    reported as the first loser.  Ties in the ratio break to the lowest
    node id.  Returns (selections, first_loser) where selections is a
    list of (node, marginal_at_selection) and first_loser is
    (node, marginal) or None when candidates ran out.
    """
    masks = graph.masks
    covered = 0
    heap = []
    for i in range(graph.n):
        if i != excluded:
            m = masks[i].bit_count()
            heapq.heappush(heap, (Fraction(-m, costs[i]), i, m))

    selections: list[tuple[int, int]] = []
    while heap:
        key, i, scored = heapq.heappop(heap)
        m = (masks[i] & ~covered).bit_count()
        if m != scored:
            heapq.heappush(heap, (Fraction(-m, costs[i]), i, m))
            continue
        if accept(i, m, covered.bit_count()):
            selections.append((i, m))
            covered |= masks[i]
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
    share = budget / delta

    def accept(i: int, marginal: int, covered: int) -> bool:
        if marginal == 0:
            return False
        return cost[i] <= share * Fraction(marginal, covered + marginal)

    selections, _ = _lazy_greedy(graph, None, cost, accept)
    selected = [i for i, _ in selections]
    return selected, graph.covered(selected)


def _payment_rerun(
    graph: SocialGraph, cost: Mapping[int, Fraction], budget: Fraction, winner: int
):
    """Greedy rerun with the winner excluded from candidacy (it stays
    notifiable, so competitors keep coverage credit for reaching it).

    Uses the undamped admission threshold cost_i / B <= m / (m + h(S')).
    Returns the position references [(cost_k, marginal_k), ...] covering
    the rerun's selections followed by the first loser (when one exists),
    plus the rerun's selection order.
    """
    def accept(i: int, marginal: int, covered: int) -> bool:
        if marginal == 0:
            return False
        return cost[i] / budget <= Fraction(marginal, marginal + covered)

    selections, loser = _lazy_greedy(graph, winner, cost, accept)
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
    masks = graph.masks

    payments: dict[int, Fraction] = {}
    for j in selected:
        refs, order = _payment_rerun(graph, cost, budget, j)

        best = Fraction(0)
        covered = 0  # accumulates T_{k-1} in the full graph
        for k in range(len(order) + 1):
            h_jk = (masks[j] & ~covered).bit_count()
            if h_jk > 0:
                rho = budget * Fraction(h_jk, covered.bit_count() + h_jk)
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
                covered |= masks[order[k]]
        payments[j] = best
    return payments


def ntbfm(
    graph: SocialGraph, costs: Mapping[int, Numeric], budget: Numeric
) -> NotifierOutcome:
    """Pay-as-bid baseline: one static sort by initial marginal per cost,
    then a scan that selects while the reported cost fits the remaining
    budget and terminates at the first that does not."""
    budget = as_fraction(budget)
    if budget <= 0:
        raise ConfigError("budget must be positive")
    cost = _cost_map(graph.n, costs)

    order = sorted(range(graph.n), key=lambda i: (Fraction(-graph.degree(i), cost[i]), i))
    selected: list[int] = []
    remaining = budget
    for i in order:
        if cost[i] <= remaining:
            selected.append(i)
            remaining -= cost[i]
        else:
            break
    return NotifierOutcome(
        mechanism="ntbfm",
        selected=selected,
        notified=graph.covered(selected),
        payments={i: Fraction(cost[i]) for i in selected},
        budget=budget,
    )


def psm(
    costs: Mapping[int, Numeric], budget: Numeric, graph: SocialGraph | None = None
) -> NotifierOutcome:
    """Proportional share baseline: the largest k with c_k <= B/k over the
    ascending costs (ties to the lowest id), each of the k cheapest paid
    min(B/k, c_{k+1}), or B/k with no loser."""
    budget = as_fraction(budget)
    if budget <= 0:
        raise ConfigError("budget must be positive")
    if not costs:
        raise DomainError("psm requires at least one cost")
    cost = {i: as_fraction(c) for i, c in costs.items()}
    for i, c in cost.items():
        if c <= 0:
            raise DomainError(f"cost of node {i} must be positive")

    order = sorted(cost, key=lambda i: (cost[i], i))
    k = 0
    for idx, i in enumerate(order, start=1):
        if cost[i] <= budget / idx:
            k = idx
    winners = order[:k]
    if k == 0:
        payments: dict[int, Fraction] = {}
    else:
        share = budget / k
        pay = min(share, cost[order[k]]) if k < len(order) else share
        payments = {i: pay for i in winners}
    return NotifierOutcome(
        mechanism="psm",
        selected=winners,
        notified=graph.covered(winners) if graph is not None else frozenset(),
        payments=payments,
        budget=budget,
    )
