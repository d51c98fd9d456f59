"""Tier-1 notifier mechanisms: budget-feasible greedy selection with
threshold payments, plus the NTBFM and PSM baselines.

The greedy and its payments run on exact integers.  Each call scales the
reported costs once: with D the lcm of their denominators, C_i = c_i * D
is an integer, and with L = lcm(C_i) and w_i = L // C_i, the ratio
m / c_i = m * w_i * D / L orders exactly as the integer m * w_i.  Each
lazy-heap entry is the single int i - m * (w_i << s), with s bits for a
node id, which orders as (-m * w_i, i); every admission test and payment
comparison is an integer cross-multiplication, so threshold conditions
that hold with equality are never lost to rounding, however large L
grows.

The greedy argmax uses lazy re-evaluation (CELF): a candidate's cached
marginal only shrinks as the covered set grows, so a heap top whose
marginal is unchanged is the true argmax, and a stale top is re-keyed in
place.  Every key is unique, so the resulting order is the argmax
sequence with ties to the lowest id, whatever the heap's layout;
:func:`npm_prices` relies on that to share one forward pass among all
of its payment reruns.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .errors import ConfigError, DomainError, InvariantError
from .graph import SocialGraph

Numeric = int | float | Fraction


def as_fraction(x: Numeric) -> Fraction:
    """Exact rational from int/Fraction; decimal-literal reading for floats.

    Raises DomainError on anything that is not a finite rational number
    (NaN, infinities, None, malformed strings).
    """
    try:
        if isinstance(x, float):
            return Fraction(str(x))
        return Fraction(x)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise DomainError(f"not a finite rational number: {x!r}") from None


def positive_budget(budget: Numeric) -> Fraction:
    """The budget as an exact rational; ConfigError unless it is positive."""
    budget = as_fraction(budget)
    if budget <= 0:
        raise ConfigError("budget must be positive")
    return budget


@dataclass
class NotifierOutcome:
    """Result of a tier-1 mechanism run.

    ``selected`` preserves greedy order; ``payments`` is defined exactly
    on the selected set.
    """

    mechanism: str
    selected: list[int]
    notified: frozenset[int]
    payments: dict[int, Fraction]
    budget: Fraction

    @property
    def total_payment(self) -> Fraction:
        return sum(self.payments.values(), Fraction(0))

    def check(self, costs: Mapping[int, Fraction] | None = None) -> None:
        """Raise InvariantError on budget or rationality violations."""
        if len(set(self.selected)) != len(self.selected):
            raise InvariantError("selected list contains duplicates")
        if set(self.payments) != set(self.selected):
            raise InvariantError("payments not defined exactly on selected")
        if self.total_payment > self.budget:
            raise InvariantError(
                f"total payment {self.total_payment} exceeds budget {self.budget}"
            )
        if costs is not None:
            for i in self.selected:
                if self.payments[i] < as_fraction(costs[i]):
                    raise InvariantError(
                        f"winner {i} paid {self.payments[i]} below reported cost {costs[i]}"
                    )


def notifier_utility(true_cost: Numeric, payment: Numeric, selected: bool) -> Fraction:
    """Quasilinear notifier utility: payment minus true cost when selected."""
    if as_fraction(payment) < 0:
        raise DomainError("payment must be non-negative")
    if not selected:
        return Fraction(0)
    return as_fraction(payment) - as_fraction(true_cost)


def _cost_map(graph_n: int, costs: Mapping[int, Numeric]) -> dict[int, Fraction]:
    out = {}
    for i in range(graph_n):
        if i not in costs:
            raise DomainError(f"no cost for node {i}")
        c = as_fraction(costs[i])
        if c <= 0:
            raise DomainError(f"cost of node {i} must be positive, got {costs[i]}")
        out[i] = c
    return out


def _scaled_costs(n: int, costs: Mapping[int, Numeric]) -> tuple[list[int], int]:
    """Validated costs as integers ``C_i = c_i * D``, with ``D`` the lcm of
    the cost denominators, and ``D`` itself."""
    cost = _cost_map(n, costs)
    scale = math.lcm(*{c.denominator for c in cost.values()})
    return [c.numerator * (scale // c.denominator) for c in cost.values()], scale


def _greedy_heap(masks: tuple[int, ...], scaled: list[int]):
    """Shifted heap weights, the id mask, and the initial lazy heap.

    With ``L = lcm(C)``, ``w_i = L // C_i`` and ``s`` bits for a node id,
    node i with marginal m is the single int ``i - m * (w_i << s)``.
    ``m * w_i = m * L / C_i`` orders exactly as the ratio m / c_i, and
    two distinct values of ``m * (w_i << s)`` differ by a multiple of
    ``2**s``, which exceeds every id, so the smallest key takes the
    largest ratio with ties to the lowest id; ``key & ids`` decodes the
    node.
    """
    top = math.lcm(*set(scaled))
    shift = max(len(masks) - 1, 1).bit_length()
    weights = [(top // c) << shift for c in scaled]
    heap = [i - mask.bit_count() * w for i, (mask, w) in enumerate(zip(masks, weights))]
    heapq.heapify(heap)
    return weights, (1 << shift) - 1, heap


def _argmax_order(masks, weights, ids, heap, covered: int = 0, value: int = 0):
    """Lazy (CELF) marginal-per-cost greedy order over the nodes in ``heap``.

    Yields one position ``(node, marginal, covered, value)`` per node, where
    ``covered`` is the mask notified by the nodes before it and ``value``
    its size; each yielded node is then added to the covered set.  Once the
    heap is empty a terminal position ``(None, 0, covered, value)`` follows.
    ``heap`` is consumed in place: between two positions it holds every
    node not yet yielded, keyed (see :func:`_greedy_heap`) by an upper
    bound of its ratio.  A stale top is re-keyed in place with one
    ``heapreplace``; only a top whose key is current is popped.
    """
    free = ~covered
    while heap:
        i = heap[0] & ids
        m = (masks[i] & free).bit_count()
        if (key := i - m * weights[i]) != heap[0]:
            heapq.heapreplace(heap, key)
            continue
        heapq.heappop(heap)
        yield i, m, covered, value
        covered |= masks[i]
        free = ~covered
        value += m
    yield None, 0, covered, value


def _until_rejected(order, scaled: list[int], share: Fraction, scale: int):
    """The positions of ``order`` up to and including the first one the
    admission rule ``c_i <= share * m / (h + m)`` rejects: the first loser,
    or the terminal position.  A zero marginal is never admitted.  With
    ``c_i = C_i / D`` the test is ``C_i * (h + m) * den <= num * D * m``."""
    num, den = share.numerator * scale, share.denominator
    for position in order:
        yield position
        i, m, _, h = position
        if not (m and scaled[i] * (h + m) * den <= num * m):
            return


def _threshold(
    masks, reach: int, positions, scaled: list[int], scale: int, budget: Fraction
) -> Fraction:
    """Critical value of the winner whose neighbourhood mask is ``reach``,
    from the positions of its rerun (each admitted one, then the first
    rejected one): the largest candidate min(nabla_k, rho_k) over the
    positions where the winner would still notify someone.

    rho_k = B * h_jk / (h(T_k) + h_jk) never grows along the rerun, since
    the covered set T_k only grows, so the scan stops once rho_k cannot
    beat the running maximum; it also stops once h_jk is 0.  After an
    admitted position, T_k and h(T_k) of the next one are known before
    its argmax, so both tests run before the rerun computes it.
    Candidates are compared as integer (numerator, denominator) pairs.
    """
    best_num, best_den = 0, 1
    gain = reach.bit_count()
    if gain == 0:
        return Fraction(0)
    num, den = budget.numerator, budget.denominator  # rho_0 = B
    for i, m, covered, h in positions:
        # (num, den) is rho_k.  A zero marginal at the loser leaves the
        # positional cost unbounded, so rho_k alone caps the candidate.
        if m:
            nabla_num, nabla_den = gain * scaled[i], scale * m
            if nabla_num * den < num * nabla_den:
                num, den = nabla_num, nabla_den
        if num * best_den > best_num * den:
            best_num, best_den = num, den
        # The next position's T_k and h(T_k) follow from this one; a zero
        # marginal is never admitted, so its position is the last.
        gain = (reach & ~(covered | masks[i])).bit_count() if m else 0
        num, den = budget.numerator * gain, budget.denominator * (h + m + gain)
        if gain == 0 or num * best_den <= best_num * den:
            break
    return Fraction(best_num, best_den)


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
    budget = positive_budget(budget)
    delta = as_fraction(delta)
    if delta <= 0:
        raise ConfigError("delta must be positive")
    if graph.n == 0:
        return [], frozenset()

    scaled, scale = _scaled_costs(graph.n, costs)
    weights, ids, heap = _greedy_heap(graph.masks, scaled)
    positions = _until_rejected(
        _argmax_order(graph.masks, weights, ids, heap), scaled, budget / delta, scale
    )
    selected = [i for i, _, _, _ in positions][:-1]
    return selected, graph.covered(selected)


def npm_prices(
    graph: SocialGraph,
    costs: Mapping[int, Numeric],
    budget: Numeric,
    selected: list[int],
) -> dict[int, Fraction]:
    """Threshold payments for the winners of :func:`nam_select`.

    For each winner j, the market is rerun without j as a candidate (j
    stays notifiable, so competitors keep coverage credit for reaching
    it) under the undamped rule cost_i <= B * m / (h(S) + m).  At every
    position k of the rerun ordering (plus the first-loser position) the
    payment candidate is min(nabla_jk, rho_jk), where nabla_jk is the
    cost j could have revealed to take position k and rho_jk the budget
    share at that position.  The payment is the maximum candidate.

    The reruns share one forward pass.  The greedy order is the argmax
    sequence with ties to the lowest id, so it does not depend on how the
    lazy heap got there.  Removing j only removes j from the candidates;
    every coverage value is unchanged, so the rerun for j takes the same
    argmax as the full graph at every position before j's own position
    p_j.  Hence the rerun is the full-graph order up to p_j, cut at the
    first position R < p_j that the undamped rule rejects when there is
    one; otherwise it resumes from a copy of the forward pass's lazy heap
    and covered mask taken just after j is popped.  Costs are scaled to
    integers once per call (see :func:`_greedy_heap`), and every
    comparison is an integer cross-multiplication; each payment becomes
    a ``Fraction`` only at the end.

    Raises DomainError on an unknown, non-integer or repeated node id.
    """
    budget = positive_budget(budget)
    scaled, scale = _scaled_costs(graph.n, costs)
    for j in selected:
        graph._check(j)
    pending = set(selected)
    if len(pending) != len(selected):
        raise DomainError(f"selected list repeats a node id: {selected!r}")

    masks = graph.masks
    weights, ids, heap = _greedy_heap(masks, scaled)
    payments: dict[int, Fraction] = {}
    # Positions of the forward pass: the undamped rule's admitted prefix,
    # then its first rejected position.
    positions: list[tuple] = []
    forward = _argmax_order(masks, weights, ids, heap)
    for position in _until_rejected(forward, scaled, budget, scale):
        if not pending:
            break
        j, _, covered, value = position
        if j in pending:
            pending.remove(j)
            resumed = _argmax_order(masks, weights, ids, heap[:], covered, value)
            rerun = itertools.chain(positions, _until_rejected(resumed, scaled, budget, scale))
            payments[j] = _threshold(masks, masks[j], rerun, scaled, scale, budget)
        positions.append(position)
    # Winners after the forward pass's first rejection share its reruns.
    for j in pending:
        payments[j] = _threshold(masks, masks[j], positions, scaled, scale, budget)
    return {j: payments[j] for j in selected}


def tenm_run(
    graph: SocialGraph,
    costs: Mapping[int, Numeric],
    budget: Numeric,
    delta: Numeric = 2,
) -> NotifierOutcome:
    """Full tier-1 mechanism: greedy allocation followed by threshold payments.

    Requires delta >= 1: a winner is paid at least its cost only when the
    damped selection share B / delta is at most the payment rule's B.
    """
    if as_fraction(delta) < 1:
        raise ConfigError(f"delta must be at least 1 for tenm, got {as_fraction(delta)}")
    selected, notified = nam_select(graph, costs, budget, delta)
    payments = npm_prices(graph, costs, budget, selected)
    outcome = NotifierOutcome(
        mechanism="tenm",
        selected=selected,
        notified=notified,
        payments=payments,
        budget=as_fraction(budget),
    )
    outcome.check(costs={i: as_fraction(costs[i]) for i in selected})
    return outcome


def ntbfm(
    graph: SocialGraph, costs: Mapping[int, Numeric], budget: Numeric
) -> NotifierOutcome:
    """Pay-as-bid baseline: one static sort by initial marginal per cost,
    then a scan that selects while the reported cost fits the remaining
    budget and terminates at the first that does not."""
    budget = positive_budget(budget)
    if graph.n == 0:
        return NotifierOutcome("ntbfm", [], frozenset(), {}, budget)
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
    payments = {i: cost[i] for i in selected}
    outcome = NotifierOutcome(
        mechanism="ntbfm",
        selected=selected,
        notified=graph.covered(selected),
        payments=payments,
        budget=budget,
    )
    outcome.check()
    return outcome


def psm(
    costs: Mapping[int, Numeric], budget: Numeric, graph: SocialGraph | None = None
) -> NotifierOutcome:
    """Proportional share baseline.

    Sorts reported costs ascending (c_1 <= c_2 <= ...), finds the
    largest k with c_k <= B/k, and pays each of the k cheapest agents
    min(B/k, c_{k+1}); with no loser the payment is B/k.  The graph is
    ignored by the rule and only used to report the notified set.
    """
    budget = positive_budget(budget)
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

    if graph is not None:
        notified = graph.covered(winners)
    else:
        notified = frozenset()
    outcome = NotifierOutcome(
        mechanism="psm",
        selected=winners,
        notified=notified,
        payments=payments,
        budget=budget,
    )
    outcome.check()
    return outcome
