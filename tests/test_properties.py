"""Property tests of the mechanism invariants on random instances.

``tenm_run`` is budget feasible, individually rational, and monotone in a
winner's own cost: a winner lowering its reported cost stays selected
(Myerson 1981).  At delta = 1 each winner is paid its critical value, the
highest report at which it still wins, which makes the mechanism truthful
(Archer and Tardos 2001); at delta = 2 a payment is at least that value,
and can exceed it.  PSM
pays each of its k winners at least its cost and at most B / k
(Singer 2010).  The paper-literal ascending auction on additive values
allocates disjointly, charges each device the final prices of its
bundle, settles within its round hint (in one pass when there are no
tasks), and is epsilon-efficient (Demange, Gale and Sotomayor 1986).
Each winner pays strictly less than its value for its bundle, and the
outcome is the same whether values arrive as ints, Fractions or
integral floats.  The pay-as-bid greedy baseline
allocates disjointly, pays each winner its bid, prices each sold task at
its share of that bid, and rejects a request only for overlapping one
accepted before it in ascending bid / sqrt(size) order.  The quality
rankers, given hand-written batches with at most one fault, either rank
every device once by its batch's median or mean, or refuse the faulty
batch by its index.

Tier-1 outputs do not depend on whether a cost arrives as an int, a
Fraction or an integral float, and a bad cost raises the same error
whatever its form and whichever tier-1 mechanism reads it.
"""

import functools
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdtier import (
    AdditiveValuation,
    BruteForceOracle,
    CrowdtierError,
    DomainError,
    avr_run,
    build_graph,
    ectai_run,
    greedy_baseline,
    mean_of,
    median_of,
    nam_select,
    npm_prices,
    ntbfm,
    psm,
    tenm_run,
    wipd_run,
)

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


# A report this far from a payment sits off the lowest-id tie at it.
STEP = Fraction(1, 10**6)


def _wins_at(graph, costs, budget, delta, i, report) -> bool:
    selected, _ = nam_select(graph, {**costs, i: report}, budget, delta)
    return i in selected


@PROPERTIES
@given(tier1_instances())
def test_tenm_pays_the_critical_value_at_delta_1(instance):
    graph, costs, budget, _ = instance
    outcome = tenm_run(graph, costs, budget, 1)
    for i, paid in outcome.payments.items():
        assert _wins_at(graph, costs, budget, 1, i, paid - STEP), (i, paid)
        assert not _wins_at(graph, costs, budget, 1, i, paid + STEP), (i, paid)


@PROPERTIES
@given(tier1_instances())
def test_tenm_pays_at_least_the_critical_value_at_delta_2(instance):
    graph, costs, budget, _ = instance
    outcome = tenm_run(graph, costs, budget, 2)
    for i, paid in outcome.payments.items():
        assert not _wins_at(graph, costs, budget, 2, i, paid + STEP), (i, paid)


def _tier1_outputs(graph, costs, budget, delta):
    selected, notified = nam_select(graph, costs, budget, delta)
    payments = npm_prices(graph, costs, budget, selected)
    tenm, base = tenm_run(graph, costs, budget, delta), ntbfm(graph, costs, budget)
    for paid in (payments, tenm.payments, base.payments):
        assert all(type(p) is Fraction for p in paid.values())
    assert type(tenm.budget) is Fraction and type(base.budget) is Fraction
    return selected, notified, payments, tenm, base


COST_FORMS = [int, Fraction, float]


@PROPERTIES
@given(tier1_instances(), st.data())
def test_tier1_outputs_do_not_depend_on_cost_type(instance, data):
    graph, costs, budget, delta = instance
    forms = data.draw(st.lists(st.sampled_from(COST_FORMS), min_size=graph.n, max_size=graph.n))
    variants = [{i: form(c) for i, c in costs.items()} for form in COST_FORMS]
    variants.append({i: form(costs[i]) for i, form in enumerate(forms)})
    expected = _tier1_outputs(graph, variants.pop(), budget, delta)
    for variant in variants:
        assert _tier1_outputs(graph, variant, budget, delta) == expected


def _tier1_error(graph, costs, budget):
    """The one error text every tier-1 entry point raises for ``costs``.
    ``psm`` reads only the ids it is given, so it joins when none is missing."""
    texts = set()
    calls = [lambda: nam_select(graph, costs, budget),
             lambda: npm_prices(graph, costs, budget, []),
             lambda: tenm_run(graph, costs, budget),
             lambda: ntbfm(graph, costs, budget)]
    if len(costs) == graph.n:
        calls.append(lambda: psm(costs, budget, graph))
    for call in calls:
        with pytest.raises(DomainError) as caught:
            call()
        texts.add(str(caught.value))
    assert len(texts) == 1, texts
    return texts.pop()


@PROPERTIES
@given(tier1_instances(), st.data())
def test_tier1_bad_cost_errors_do_not_depend_on_cost_type(instance, data):
    graph, costs, budget, _ = instance
    k = data.draw(st.integers(0, graph.n - 1))
    missing = {i: c for i, c in costs.items() if i != k}
    assert _tier1_error(graph, missing, budget) == f"no cost for node {k}"
    for bad in (0, -3, Fraction(0), Fraction(-3), 0.0, -3.0):
        text = _tier1_error(graph, {**costs, k: bad}, budget)
        assert text == f"cost of node {k} must be positive, got {bad}"
    for bad in (float("nan"), float("inf"), None):
        text = _tier1_error(graph, {**costs, k: bad}, budget)
        assert text == f"not a finite rational number: {bad!r}"
    assert _tier1_outputs(graph, {**costs, k: True}, budget, 1) == _tier1_outputs(
        graph, {**costs, k: 1}, budget, 1)


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


@st.composite
def additive_auctions(draw):
    """(task count, device -> per-task values, epsilon) with 0 to 30 tasks."""
    m = draw(st.integers(0, 30))
    bidders = draw(st.integers(1, 4))
    # One byte string per instance is far cheaper to draw than nested
    # integer lists; each byte becomes a value in 0..12.
    raw = draw(st.binary(min_size=m * bidders, max_size=m * bidders))
    rows = {d: [b % 13 for b in raw[d * m:(d + 1) * m]] for d in range(bidders)}
    eps = draw(st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(2, 3), Fraction(3, 2)]))
    return m, rows, eps


@PROPERTIES
@given(additive_auctions())
def test_wipd_paper_literal_invariants(instance):
    m, rows, eps = instance
    vals = {d: AdditiveValuation(dict(enumerate(row))) for d, row in rows.items()}
    oracle = BruteForceOracle(vals, policy="paper-literal")
    outcome = wipd_run(m, list(vals), oracle, eps)
    assert outcome.rounds <= oracle.max_rounds_hint(m, eps)
    taken = set()
    for d, bundle in outcome.allocation.items():
        assert not bundle & taken
        taken |= bundle
        assert outcome.payments[d] == sum((outcome.prices[j] for j in bundle), Fraction(0))
    # Each holder values its task above the task's final price, and every
    # other device values it at most one increment above that price.
    welfare = sum(vals[d].value(bundle) for d, bundle in outcome.allocation.items())
    best = sum(max(row[j] for row in rows.values()) for j in range(m))
    assert welfare >= best - m * eps


@PROPERTIES
@given(additive_auctions())
def test_wipd_winner_pays_below_its_value(instance):
    # Buyer-side individual rationality: a device holds a task only while
    # its price stays below the device's value for it.
    m, rows, eps = instance
    vals = {d: AdditiveValuation(dict(enumerate(row))) for d, row in rows.items()}
    outcome = wipd_run(m, list(vals), BruteForceOracle(vals), eps)
    for d, bundle in outcome.allocation.items():
        if bundle:
            assert outcome.payments[d] < vals[d].value(bundle)


@PROPERTIES
@given(additive_auctions())
def test_wipd_outcome_does_not_depend_on_value_type(instance):
    m, rows, eps = instance
    outcomes = []
    for kind in (int, Fraction, float):
        vals = {d: AdditiveValuation({j: kind(v) for j, v in enumerate(row)})
                for d, row in rows.items()}
        outcomes.append(wipd_run(m, list(vals), BruteForceOracle(vals), eps))
    assert outcomes[0] == outcomes[1] == outcomes[2]
    for outcome in outcomes:
        assert all(type(p) is Fraction for p in outcome.prices)
        assert all(type(p) is Fraction for p in outcome.payments.values())


@st.composite
def bundle_requests(draw):
    """device -> (bundle, bid) over up to 8 tasks, inserted in random id order."""
    m = draw(st.integers(1, 8))
    devices = draw(st.permutations(range(draw(st.integers(0, 10)))))
    # Three bytes per request: a non-empty task mask, then a bid's
    # numerator (0..12) and denominator (1..3), so ratio ties are common.
    raw = draw(st.binary(min_size=3 * len(devices), max_size=3 * len(devices)))
    requests = {}
    for d, (mask, num, den) in zip(devices, zip(*[iter(raw)] * 3)):
        mask = 1 + mask % (2**m - 1)
        bundle = frozenset(t for t in range(m) if mask >> t & 1)
        requests[d] = (bundle, Fraction(num % 13, 1 + den % 3))
    return requests


def _bid_per_root_size(requests, a, b):
    """Compare bid / sqrt(size) of requests a and b exactly, ties to the lower id."""
    (bundle_a, bid_a), (bundle_b, bid_b) = requests[a], requests[b]
    left, right = bid_a * bid_a * len(bundle_b), bid_b * bid_b * len(bundle_a)
    return (left > right) - (left < right) or (a > b) - (a < b)


@PROPERTIES
@given(bundle_requests())
def test_greedy_baseline_invariants(requests):
    outcome = greedy_baseline(requests)
    outcome.check()
    assert set(outcome.payments) == set(outcome.allocation)
    order = sorted(requests, key=functools.cmp_to_key(
        functools.partial(_bid_per_root_size, requests)))
    taken = set()
    for d in order:
        bundle, bid = requests[d]
        if d in outcome.allocation:
            assert outcome.allocation[d] == bundle and not bundle & taken
            assert outcome.payments[d] == bid
            taken |= bundle
        else:
            assert bundle & taken, d


UNIT = st.floats(0.0, 1.0)
OUTSIDE = st.floats(allow_nan=True).filter(lambda a: not 0.0 <= a <= 1.0)
PERTURBATIONS = (None, "unknown id", "re-ranked device", "reviewer on panel", "repeated id",
                 "missing report", "report outside [0, 1]", "position outside [0, 1]",
                 "dropped last batch")


@st.composite
def quality_batches(draw):
    """(devices, batches, perturbation, faulty batch): a valid hand-written
    batch list over 2 to 12 devices with at most one perturbation applied,
    and the index of the batch it made faulty (None when there is none)."""
    devices = draw(st.lists(st.integers(0, 40), min_size=2, max_size=12, unique=True))
    order = draw(st.permutations(devices))
    f = draw(st.integers(1, len(devices) - 1))
    batches = []
    for start in range(0, len(order), f):
        eta = order[start:start + f]
        others = [d for d in devices if d not in eta]
        reviewers = draw(st.lists(st.sampled_from(others), min_size=1, max_size=5, unique=True))
        batches.append((eta, reviewers, [(d, draw(UNIT)) for d in eta],
                        [draw(UNIT) for _ in reviewers]))
    kind = draw(st.sampled_from(PERTURBATIONS))
    if kind is None:
        return devices, batches, kind, None
    b = draw(st.integers(0, len(batches) - 1))
    eta, reviewers, panel, reports = (list(part) for part in batches[b])
    if kind == "unknown id":
        stranger = max(devices) + 1
        if draw(st.booleans()):
            eta.append(stranger)
            panel.append((stranger, draw(UNIT)))
        else:
            reviewers.append(stranger)
            reports.append(draw(UNIT))
    elif kind == "re-ranked device":
        # A batch appended after the one that ranked the device.
        d = draw(st.sampled_from(eta))
        batches.append(([d], reviewers, [(d, draw(UNIT))], reports))
        return devices, batches, kind, len(batches) - 1
    elif kind == "reviewer on panel":
        reviewers.append(draw(st.sampled_from(eta)))
        reports.append(draw(UNIT))
    elif kind == "repeated id":
        if draw(st.booleans()):
            i = draw(st.integers(0, len(eta) - 1))
            eta.append(eta[i])
            panel.append(panel[i])
        else:
            i = draw(st.integers(0, len(reviewers) - 1))
            reviewers.append(reviewers[i])
            reports.append(reports[i])
    elif kind == "missing report":
        del reports[draw(st.integers(0, len(reports) - 1))]
    elif kind == "report outside [0, 1]":
        reports[draw(st.integers(0, len(reports) - 1))] = draw(OUTSIDE)
    elif kind == "position outside [0, 1]":
        i = draw(st.integers(0, len(panel) - 1))
        panel[i] = (panel[i][0], draw(OUTSIDE))
    else:
        return devices, batches[:-1], kind, len(batches) - 1
    batches[b] = (eta, reviewers, panel, reports)
    return devices, batches, kind, b


@PROPERTIES
@given(quality_batches(), st.sampled_from([(ectai_run, median_of), (avr_run, mean_of)]))
def test_quality_rankers_rank_valid_batches_and_name_a_faulty_one(instance, ranker):
    devices, batches, kind, faulty = instance
    run, aggregate_of = ranker
    try:
        ranking = run(devices, batches)
    except CrowdtierError as exc:
        assert kind is not None, exc
        assert re.search(rf"\bbatch {faulty}\b", str(exc)), (kind, exc)
        return
    assert kind is None
    ranked = [d for record in ranking.batches for d, _ in record.panel]
    assert sorted(ranked) == sorted(devices)
    for record, (_, reviewers, panel, reports) in zip(ranking.batches, batches, strict=True):
        assert record.panel == panel
        assert record.winner in {d for d, _ in panel}
        assert record.aggregate == aggregate_of(reports)
        assert record.reports == dict(zip(reviewers, reports))
