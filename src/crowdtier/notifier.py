"""Tier-1 notifier mechanisms: budget-feasible greedy selection with
threshold payments, plus the NTBFM and PSM baselines.

The greedy and its payments run on exact integers.  Each call validates
and scales the reported costs once.  An ``int`` cost stays an ``int``,
so for all-int costs this set-up is integer-only; any other cost takes
one :func:`as_fraction`.  With D the lcm of the cost denominators (1 for
ints), C_i = c_i * D is an integer, and with L = lcm(C_i) and
w_i = L // C_i, the ratio m / c_i = m * w_i * D / L orders exactly as
the integer m * w_i.  Each lazy-heap entry is the single int
i - m * (w_i << s), with s bits for a node id, which orders as
(-m * w_i, i); every admission test and payment comparison is an integer
cross-multiplication, so threshold conditions that hold with equality
are never lost to rounding, however large L grows.

The greedy argmax uses lazy re-evaluation (CELF): a candidate's cached
marginal only shrinks as the covered set grows, so a heap top whose
marginal is unchanged is the true argmax, and a stale top is re-keyed in
place.  Every key is unique, so the resulting order is the argmax
sequence with ties to the lowest id, whatever the heap's layout;
:func:`npm_prices` and :func:`tenm_run` rely on that to share one
forward pass among all of their payment reruns.  :func:`_celf_step` is
that step; the forward pass is a generator over it, each rerun a loop.

The baselines share that scale and its validator.  NTBFM's static order
is the sorted initial heap keys, and its budget scan keeps one integer
remainder; PSM sorts by (C_i, id) and tests its rule c_k <= B / k as
C_k * k * den <= num * D.  Each builds a ``Fraction`` only for its
payments.

Decimal literals whose digits or exponent exceed the interpreter's
int-to-str limit (``sys.get_int_max_str_digits()``) are rejected before
they are built: such a number could not be printed in a report.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heapreplace
from typing import Iterable, Mapping

from .errors import ConfigError, DomainError, InvariantError
from .graph import SocialGraph, _bits

Numeric = int | float | Fraction

# The interpreter's int-to-str digit limit, read at call time; Pythons
# before 3.10.7 have none, which reads as 0.
_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)
_NO_COST = object()  # what ``costs.get`` returns for a node without a cost


def as_fraction(x: Numeric) -> Fraction:
    """Exact rational from int/Fraction; decimal-literal reading for floats.

    Raises DomainError on anything that is not a finite rational number
    (NaN, infinities, None, malformed strings), and, before building it,
    on a decimal literal whose digit count or exponent exceeds the
    interpreter's int-to-str limit (``sys.get_int_max_str_digits()``,
    unless that is 0): such a number could not be printed, and
    ``1e999999999`` would build a billion-digit power of ten.
    """
    if type(x) is Fraction:  # immutable, so it needs no copy
        return x
    try:
        if isinstance(x, float):
            return Fraction(str(x))
        if isinstance(x, str) and (limit := _digit_limit()):
            mantissa, _, exponent = x.lower().partition("e")
            digits = max(sum(map(str.isdecimal, part)) for part in mantissa.split("/"))
            # Fraction reads an exponent only in a string without "/".
            if digits > limit or exponent and "/" not in x and abs(int(exponent)) > limit:
                raise DomainError(f"number has more than {limit} digits: {x!r}")
        return Fraction(x)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise DomainError(f"not a finite rational number: {x!r}") from None


def positive_budget(budget: Numeric) -> Fraction:
    """The budget as an exact rational; ConfigError unless it is positive."""
    budget = as_fraction(budget)
    if budget.numerator <= 0:
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

    def check(self, costs: Mapping[int, Numeric] | None = None) -> None:
        """Raise InvariantError on budget or rationality violations.  The
        checks run on integers; only an error text builds a ``Fraction``."""
        chosen = set(self.selected)
        if len(chosen) != len(self.selected):
            raise InvariantError("selected list contains duplicates")
        if self.payments.keys() != chosen:
            raise InvariantError("payments not defined exactly on selected")
        pays = self.payments.values()
        den = math.lcm(*[p.denominator for p in pays])
        total = sum(p.numerator * (den // p.denominator) for p in pays)
        if total * self.budget.denominator > self.budget.numerator * den:
            raise InvariantError(f"total payment {self.total_payment} exceeds budget {self.budget}")
        if costs is not None:
            for i in self.selected:
                pay, cost = self.payments[i], costs[i]
                if (pay.numerator < cost * pay.denominator if type(cost) is int
                        else pay < as_fraction(cost)):
                    raise InvariantError(f"winner {i} paid {pay} below reported cost {cost}")


def notifier_utility(true_cost: Numeric, payment: Numeric, selected: bool) -> Fraction:
    """Quasilinear notifier utility: payment minus true cost when selected."""
    payment = as_fraction(payment)
    if payment.numerator < 0:
        raise DomainError("payment must be non-negative")
    if not selected:
        return Fraction(0)
    return payment - as_fraction(true_cost)


def _cost_map(ids: Iterable, costs: Mapping[int, Numeric]) -> list[int | Fraction]:
    """The validated cost of each id in ``ids``, in that order: an ``int``
    cost stays an ``int``, any other goes through :func:`as_fraction`.
    Each cost is read once, with ``get``, which adds no key to a mapping
    with defaults, as indexing a ``defaultdict`` would."""
    out = []
    for i in ids:
        if (c := costs.get(i, _NO_COST)) is _NO_COST:
            raise DomainError(f"no cost for node {i}")
        if type(c) is not int:
            c = as_fraction(c)
        if c <= 0:
            raise DomainError(f"cost of node {i} must be positive, got {costs[i]}")
        out.append(c)
    return out


def _scaled_costs(ids: Iterable, costs: Mapping[int, Numeric]) -> tuple[list[int], int]:
    """Validated costs of ``ids`` as integers ``C_i = c_i * D``, with ``D``
    the lcm of the cost denominators, and ``D`` itself.  All-``int`` costs
    are returned as validated, with ``D = 1``."""
    cost = _cost_map(ids, costs)
    if set(map(type, cost)) <= {int}:
        return cost, 1
    scale = math.lcm(*{c.denominator for c in cost})
    return [c.numerator * (scale // c.denominator) for c in cost], scale


def _graph_costs(graph: SocialGraph, costs: Mapping[int, Numeric]) -> tuple[list[int], int]:
    """:func:`_scaled_costs` of the graph's nodes.  Once each node has a
    cost, any further key is a node outside the graph: DomainError."""
    scaled = _scaled_costs(range(graph.n), costs)
    if len(costs) != graph.n:
        for i in costs:
            graph._check(i)
    return scaled


def _greedy_heap(masks: tuple[int, ...], scaled: list[int]):
    """Shifted heap weights, the id mask ``ids``, and the initial lazy heap.

    Node i with marginal m is keyed ``i - m * (w_i << s)`` (module
    docstring): two distinct values of ``m * (w_i << s)`` differ by a
    multiple of ``2**s``, which exceeds every id, so ``key & ids`` is i.
    """
    top = math.lcm(*set(scaled))
    shift = max(len(masks) - 1, 1).bit_length()
    weights = [(top // c) << shift for c in scaled]
    heap = [i - mask.bit_count() * w for i, (mask, w) in enumerate(zip(masks, weights))]
    heapify(heap)
    return weights, (1 << shift) - 1, heap


def _admission(budget: Fraction, delta: Numeric, scaled: list[int], scale: int):
    """The test ``c_i <= (B / delta) * m / (h + m)`` of ``(i, m, h)``, as
    ``C_i * (h + m) * den <= num * D * m`` for the integer pair
    (num, den) = (B.num * delta.den, B.den * delta.num); a zero m fails."""
    num = budget.numerator * delta.denominator * scale
    den = budget.denominator * delta.numerator
    return lambda i, m, h: m and scaled[i] * (h + m) * den <= num * m


def _celf_step(masks, weights, ids, heap: list[int], free: int) -> tuple[int, int]:
    """Pop the argmax from the non-empty lazy ``heap`` (see
    :func:`_greedy_heap`) and return it with its marginal, ``free`` being
    the uncovered mask: a stale top is re-keyed in place, and the first
    top whose key is current is popped."""
    while True:
        top = heap[0]
        i = top & ids
        m = (masks[i] & free).bit_count()
        if (key := i - m * weights[i]) == top:
            heappop(heap)
            return i, m
        heapreplace(heap, key)


def _greedy_pass(masks, weights, ids, admits, heap: list[int], positions: list):
    """Lazy (CELF) marginal-per-cost greedy over the nodes in ``heap``, up
    to the first position that ``admits`` (see :func:`_admission`) rejects.
    Yields each admitted node, whose neighbourhood is then covered; each
    position ``(node, marginal)`` joins ``positions`` after its node is
    yielded, the rejected one as the pass ends.  ``heap`` is consumed."""
    free, value = (1 << len(masks)) - 1, 0
    while heap:
        i, m = _celf_step(masks, weights, ids, heap, free)
        if not admits(i, m, value):
            positions.append((i, m))
            return
        yield i
        positions.append((i, m))
        free &= ~masks[i]
        value += m


def _forward_pass(masks, scaled: list[int], scale: int, budget: Fraction, admits):
    """The greedy pass under ``admits``, which must admit nothing that the
    undamped rule c_i <= B * m / (h + m) rejects, and ``pay``.  Removing
    winner j leaves every coverage value unchanged, so j's rerun is this
    pass up to j, then the greedy from a copy of the heap just after j is
    popped: ``pay(j)`` runs it (see :func:`_threshold`) while the pass
    yields j, or replays the whole pass once it has ended before j."""
    weights, ids, heap = _greedy_heap(masks, scaled)
    positions = []

    def pay(j: int) -> Fraction:
        return _threshold(masks, weights, ids, scaled, scale, budget, masks[j], positions, heap[:])
    return _greedy_pass(masks, weights, ids, admits, heap, positions), pay


def _threshold(masks, weights, ids, scaled, scale, budget, reach, positions, heap) -> Fraction:
    """Critical value of the winner whose neighbourhood mask is ``reach``:
    the largest candidate min(nabla_k, rho_k) over the positions of its
    rerun where the winner would still notify someone.

    The rerun is one loop: it replays ``positions``, then steps on from
    ``heap`` (the nodes left, less the winner), up to the first position
    the undamped rule rejects or, once the heap is empty, a terminal one.
    rho_k = B * h_jk / (h(T_k) + h_jk) never grows, as T_k only grows, so
    the loop stops, before the next argmax, once rho_k cannot beat the
    best (numerator, denominator) pair so far, or once h_jk is 0.
    """
    if not (gain := reach.bit_count()):
        return Fraction(0)
    best_num, best_den = 0, 1
    num, den = budget_num, budget_den = budget.numerator, budget.denominator  # rho_0 = B
    share, free, h, k = budget_num * scale, (1 << len(masks)) - 1, 0, 0
    while True:
        if k < len(positions):
            i, m = positions[k]
            k += 1
        else:  # once the heap is empty, the terminal position (None, 0)
            i, m = _celf_step(masks, weights, ids, heap, free) if heap else (None, 0)
        # (num, den) is rho_k.  A zero marginal at the loser leaves the
        # positional cost unbounded, so rho_k alone caps the candidate.
        if m:
            nabla_num, nabla_den = gain * scaled[i], scale * m
            if nabla_num * den < num * nabla_den:
                num, den = nabla_num, nabla_den
        if num * best_den > best_num * den:
            best_num, best_den = num, den
        # The undamped rule; it never admits a zero marginal.
        if not (m and scaled[i] * (h + m) * budget_den <= share * m):
            break
        free &= ~masks[i]
        h += m
        gain = (reach & free).bit_count()
        num, den = budget_num * gain, budget_den * (h + gain)
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
    if delta.numerator <= 0:
        raise ConfigError("delta must be positive")

    scaled, scale = _graph_costs(graph, costs)
    masks = graph.masks
    weights, ids, heap = _greedy_heap(masks, scaled)
    admits = _admission(budget, delta, scaled, scale)
    selected, covered = [], 0
    for i in _greedy_pass(masks, weights, ids, admits, heap, []):
        selected.append(i)
        covered |= masks[i]
    return selected, frozenset(_bits(covered))


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

    The reruns share one forward pass (see :func:`_forward_pass`), which
    stops at the last winner.  Every comparison is an integer
    cross-multiplication (see :func:`_greedy_heap`); each payment becomes
    a ``Fraction`` only at the end.

    Raises DomainError on an unknown, non-integer or repeated node id.
    """
    budget = positive_budget(budget)
    scaled, scale = _graph_costs(graph, costs)
    for j in selected:
        graph._check(j)
    pending = set(selected)
    if len(pending) != len(selected):
        raise DomainError(f"selected list repeats a node id: {selected!r}")
    if not pending:
        return {}

    admits = _admission(budget, 1, scaled, scale)
    forward, pay = _forward_pass(graph.masks, scaled, scale, budget, admits)
    payments: dict[int, Fraction] = {}
    for j in forward:
        if j in pending:
            pending.remove(j)
            payments[j] = pay(j)
            if not pending:
                break
    # Winners after the forward pass's first rejection share its reruns.
    return {j: payments[j] if j in payments else pay(j) for j in selected}


def tenm_run(
    graph: SocialGraph,
    costs: Mapping[int, Numeric],
    budget: Numeric,
    delta: Numeric = 2,
) -> NotifierOutcome:
    """Full tier-1 mechanism: greedy allocation followed by threshold payments.

    Requires delta >= 1: a winner is paid at least its cost only when the
    damped selection share B / delta is at most the payment rule's B.

    Both passes take one argmax sequence and the damped rule is the
    stricter, so one forward pass under the damped rule selects and pays.
    """
    delta = as_fraction(delta)
    if delta.numerator < delta.denominator:
        raise ConfigError(f"delta must be at least 1 for tenm, got {delta}")
    budget = positive_budget(budget)
    scaled, scale = _graph_costs(graph, costs)
    admits = _admission(budget, delta, scaled, scale)
    forward, pay = _forward_pass(graph.masks, scaled, scale, budget, admits)
    payments = {i: pay(i) for i in forward}
    outcome = NotifierOutcome("tenm", list(payments), graph.covered(payments), payments, budget)
    outcome.check(costs)
    return outcome


def ntbfm(
    graph: SocialGraph, costs: Mapping[int, Numeric], budget: Numeric
) -> NotifierOutcome:
    """Pay-as-bid baseline: one static sort by initial marginal per cost,
    then a scan that selects while the reported cost fits the remaining
    budget and terminates at the first that does not.

    The order is the sorted initial keys of :func:`_greedy_heap`, which
    order as (-degree / cost, id).  With ``c_i = C_i / D`` and
    ``B = num / den``, the remaining budget is the integer room
    ``num * D - den * sum(C_j)``, and node i fits iff ``C_i * den <= room``.
    """
    budget = positive_budget(budget)
    scaled, scale = _graph_costs(graph, costs)
    _, ids, keys = _greedy_heap(graph.masks, scaled)
    room, den = budget.numerator * scale, budget.denominator
    selected: list[int] = []
    for key in sorted(keys):
        i = key & ids
        if scaled[i] * den <= room:
            selected.append(i)
            room -= scaled[i] * den
        else:
            break
    outcome = NotifierOutcome(
        mechanism="ntbfm",
        selected=selected,
        notified=graph.covered(selected),
        payments={i: Fraction(scaled[i], scale) for i in selected},
        budget=budget,
    )
    outcome.check()
    return outcome


def psm(
    costs: Mapping[int, Numeric], budget: Numeric, graph: SocialGraph | None = None
) -> NotifierOutcome:
    """Proportional share baseline.

    Sorts reported costs ascending (c_1 <= c_2 <= ...), ties to the lowest
    id, finds the largest k with c_k <= B/k, and pays each of the k
    cheapest agents min(B/k, c_{k+1}); with no loser the payment is B/k.
    The ids are the keys of ``costs`` and need not be dense.  With
    ``c_i = C_i / D`` and ``B = num / den``, the rule is
    ``C_k * k * den <= num * D``; since c_k * k grows with k, its k form a
    prefix.  The graph is ignored by the rule and only used to report the
    notified set.
    """
    budget = positive_budget(budget)
    if not costs:
        raise DomainError("psm requires at least one cost")
    scaled, scale = _scaled_costs(costs, costs)
    order = sorted(zip(scaled, costs))
    total, den = budget.numerator * scale, budget.denominator
    k = 0
    while k < len(order) and order[k][0] * (k + 1) * den <= total:
        k += 1
    winners = [i for _, i in order[:k]]
    payments: dict[int, Fraction] = {}
    if k:
        share = budget / k
        pay = min(share, Fraction(order[k][0], scale)) if k < len(order) else share
        payments = dict.fromkeys(winners, pay)

    outcome = NotifierOutcome(
        mechanism="psm",
        selected=winners,
        notified=graph.covered(winners) if graph is not None else frozenset(),
        payments=payments,
        budget=budget,
    )
    outcome.check()
    return outcome
