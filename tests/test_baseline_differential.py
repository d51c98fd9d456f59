"""Differential properties: the integer-scaled NTBFM and PSM baselines must
reproduce their ``Fraction``-keyed references (``reference_notifier``)
exactly: the selected order, the notified set, every payment and its
type, and the budget.

Costs arrive as ints, ``Fraction``s, floats (read as decimal literals) or
a mix of the three.  The draws force the cases an off-by-one comparison
would get wrong: NTBFM ratio ties (costs proportional to degree) and
budgets equal to a prefix sum of its static order, and PSM budgets equal
to k * c_k for some k, over ids that are neither dense nor non-negative.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_notifier as ref
from crowdtier import build_graph, ntbfm, psm
from crowdtier.notifier import as_fraction

PROPERTIES = settings(derandomize=True, deadline=None, max_examples=400)

COST_FORMS = {
    "int": st.integers(1, 20),
    "fraction": st.builds(Fraction, st.integers(1, 60), st.integers(1, 6)),
    "float": st.integers(1, 200).map(lambda tenths: tenths / 10),
}
RANDOM_BUDGETS = st.one_of(
    st.integers(1, 120),
    st.builds(Fraction, st.integers(1, 600), st.integers(1, 9)),
    st.integers(1, 1200).map(lambda tenths: tenths / 10),
)


def _cost_strategy(draw):
    kind = draw(st.sampled_from([*COST_FORMS, "mixed"]))
    return st.one_of(*COST_FORMS.values()) if kind == "mixed" else COST_FORMS[kind]


def assert_same(got, want):
    assert got.selected == want.selected
    assert got.notified == want.notified
    assert list(got.payments.items()) == list(want.payments.items())
    assert got.budget == want.budget
    assert all(type(p) is Fraction for p in got.payments.values())
    assert type(got.budget) is Fraction


@st.composite
def ntbfm_instances(draw):
    """(graph, costs, budget): up to 12 nodes; costs either drawn freely or
    proportional to degree (every ratio tied); the budget either drawn
    freely or the exact cost of a prefix of the reference's order."""
    n = draw(st.integers(0, 12))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    graph = build_graph(n, [pair for pair, kept in zip(pairs, keep) if kept])
    if draw(st.booleans()):
        unit = draw(_cost_strategy(draw))
        costs = {i: max(graph.degree(i), 1) * unit for i in range(n)}
    else:
        costs = dict(enumerate(draw(st.lists(_cost_strategy(draw), min_size=n, max_size=n))))
    budget = draw(RANDOM_BUDGETS)
    if n and draw(st.booleans()):
        order = ref.ntbfm(graph, costs, sum(map(as_fraction, costs.values()))).selected
        prefix = order[: draw(st.integers(1, n))]
        budget = sum((as_fraction(costs[i]) for i in prefix), Fraction(0))
    return graph, costs, budget


@PROPERTIES
@given(ntbfm_instances())
def test_ntbfm_matches_reference(instance):
    graph, costs, budget = instance
    assert_same(ntbfm(graph, costs, budget), ref.ntbfm(graph, costs, budget))


@st.composite
def psm_instances(draw):
    """(costs, budget): 1 to 12 distinct ids in [-30, 30]; the budget either
    drawn freely or exactly k * c_k for the k-th cheapest cost."""
    ids = draw(st.lists(st.integers(-30, 30), min_size=1, max_size=12, unique=True))
    values = draw(st.lists(_cost_strategy(draw), min_size=len(ids), max_size=len(ids)))
    costs = dict(zip(ids, values))
    budget = draw(RANDOM_BUDGETS)
    if draw(st.booleans()):
        ascending = sorted(as_fraction(c) for c in values)
        k = draw(st.integers(1, len(ascending)))
        budget = k * ascending[k - 1]
    return costs, budget


@PROPERTIES
@given(psm_instances())
def test_psm_matches_reference(instance):
    costs, budget = instance
    assert_same(psm(costs, budget), ref.psm(costs, budget))
