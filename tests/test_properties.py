"""Property tests of the tier-1 mechanism invariants on random instances.

``tenm_run`` is budget feasible, individually rational, and monotone in a
winner's own cost: a winner lowering its reported cost stays selected
(Myerson 1981), which is what makes its threshold payment truthful.  PSM
pays each of its k winners at least its cost and at most B / k
(Singer 2010).
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from crowdtier import build_graph, nam_select, psm, tenm_run

PROPERTIES = settings(derandomize=True, deadline=None, max_examples=300)


@st.composite
def tier1_instances(draw):
    """(graph, integer costs, budget, delta) with up to 9 nodes."""
    n = draw(st.integers(1, 9))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    graph = build_graph(n, [pair for pair, kept in zip(pairs, keep) if kept])
    costs = dict(enumerate(draw(st.lists(st.integers(1, 20), min_size=n, max_size=n))))
    budget = draw(st.integers(1, 200))
    delta = draw(st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3)]))
    return graph, costs, budget, delta


@PROPERTIES
@given(tier1_instances())
def test_tenm_budget_feasible(instance):
    graph, costs, budget, delta = instance
    outcome = tenm_run(graph, costs, budget, delta)
    assert outcome.total_payment <= budget


@PROPERTIES
@given(tier1_instances())
def test_tenm_individually_rational(instance):
    graph, costs, budget, delta = instance
    outcome = tenm_run(graph, costs, budget, delta)
    for i, paid in outcome.payments.items():
        assert paid >= costs[i]


@PROPERTIES
@given(tier1_instances())
def test_tenm_winner_stays_selected_at_lower_cost(instance):
    graph, costs, budget, delta = instance
    outcome = tenm_run(graph, costs, budget, delta)
    for i in outcome.selected:
        for lower in range(1, costs[i]):
            selected, _ = nam_select(graph, {**costs, i: lower}, budget, delta)
            assert i in selected, (i, lower)


@PROPERTIES
@given(
    st.lists(st.integers(1, 50), min_size=1, max_size=12),
    st.integers(1, 300),
)
def test_psm_pays_between_cost_and_share(costs, budget):
    outcome = psm(dict(enumerate(costs)), budget)
    k = len(outcome.selected)
    for i, paid in outcome.payments.items():
        assert costs[i] <= paid <= Fraction(budget, k)
