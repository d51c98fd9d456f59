"""Library entry points refuse well-typed values outside their domain
with a typed ``CrowdtierError`` that names the value."""

from collections import defaultdict
from fractions import Fraction
from functools import partial

import pytest

from crowdtier import (
    AuctionOutcome,
    BruteForceOracle,
    ConfigError,
    DomainError,
    ExperimentConfig,
    InvariantError,
    SocialGraph,
    UniformPeaks,
    avr_run,
    build_graph,
    canonical_json,
    ectai_run,
    mean_of,
    median_of,
    monte_carlo_notified,
    nam_select,
    npm_prices,
    ntbfm,
    psm,
    tail_at,
    tenm_run,
    wipd_run,
)
from crowdtier import harness
from crowdtier.auction import AdditiveValuation
from crowdtier.harness import stream
from crowdtier.quality import draw_batches


def test_build_graph_refuses_out_of_range_self_loop():
    with pytest.raises(DomainError) as exc:
        build_graph(2, [(5, 5)])
    assert str(exc.value) == "edge (5, 5) outside node range 0..1"


@pytest.mark.parametrize("edge_prob", [2.0, float("nan")])
def test_synthetic_graph_refuses_edge_prob_outside_unit_interval(edge_prob, monkeypatch):
    with pytest.raises(ConfigError) as want:
        ExperimentConfig("tenm", edge_prob=edge_prob).validate()

    def no_draw(*key):
        raise AssertionError("synthetic_graph drew from a stream")

    monkeypatch.setattr(harness, "stream", no_draw)
    with pytest.raises(ConfigError) as exc:
        harness.synthetic_graph(3, edge_prob, 1)
    assert str(exc.value) == str(want.value)


@pytest.mark.parametrize("run", [
    lambda g, c: tenm_run(g, c, 10),
    lambda g, c: nam_select(g, c, 10),
    lambda g, c: npm_prices(g, c, 10, []),
    lambda g, c: ntbfm(g, c, 10),
], ids=["tenm_run", "nam_select", "npm_prices", "ntbfm"])
def test_tier1_refuses_cost_for_node_outside_graph(run):
    graph = build_graph(3, [(0, 1), (1, 2)])
    costs = {0: 1, 1: 2, 2: 3, 7: 1}
    with pytest.raises(DomainError) as want:
        psm(costs, 10, graph)
    with pytest.raises(DomainError) as exc:
        run(graph, costs)
    assert str(exc.value) == str(want.value) == "unknown node id 7 (graph has 3 nodes)"


def test_tier1_missing_cost_is_named_before_an_extra_one():
    graph = build_graph(3, [(0, 1)])
    with pytest.raises(DomainError) as exc:
        tenm_run(graph, {0: 1, 1: 2, 7: 1}, 10)
    assert str(exc.value) == "no cost for node 2"


@pytest.mark.parametrize("run", [nam_select, tenm_run])
def test_tier1_missing_cost_in_a_defaultdict_is_named_and_not_added(run):
    # Indexing would call the mapping's default factory: cost 0, a wrong
    # error text, and a key added to the caller's mapping.
    graph = build_graph(2, [(0, 1)])
    costs = defaultdict(int, {0: 3})
    with pytest.raises(DomainError) as exc:
        run(graph, costs, 10)
    assert str(exc.value) == "no cost for node 1"
    assert dict(costs) == {0: 3}


def test_additive_valuation_refuses_negative_task_id():
    with pytest.raises(DomainError) as exc:
        AdditiveValuation({-1: 5})
    assert str(exc.value) == "negative task id -1"


NAN = float("nan")


@pytest.mark.parametrize("reports, index", [
    ([NAN, 0.5, 0.7], 0),
    ([0.5, NAN, 0.7], 1),
    ([0.2, 0.9, 0.4, NAN], 3),
    ([NAN], 0),
])
def test_median_of_refuses_a_nan_report(reports, index):
    # Sorting leaves a NaN wherever it started, so the median used to be a
    # report or NaN depending on where the NaN sat.
    with pytest.raises(DomainError) as exc:
        median_of(reports)
    assert str(exc.value) == f"median of reports with a NaN report at index {index}"


@pytest.mark.parametrize("reports, index", [([NAN, 0.5], 0), ([0.5, 0.2, NAN], 2)])
def test_mean_of_refuses_a_nan_report(reports, index):
    with pytest.raises(DomainError) as exc:
        mean_of(reports)
    assert str(exc.value) == f"mean of reports with a NaN report at index {index}"


INF = float("inf")


@pytest.mark.parametrize("reports, index", [
    ([INF, -INF], 0),
    ([0.5, INF], 1),
    ([0.2, -INF, 0.4], 1),
    ([INF], 0),
])
def test_median_of_refuses_an_infinite_report(reports, index):
    # The median of [inf, -inf] used to be NaN, and of [0.5, inf] inf.
    with pytest.raises(DomainError) as exc:
        median_of(reports)
    assert str(exc.value) == f"median of reports with an infinite report at index {index}"


@pytest.mark.parametrize("reports, index", [([INF, -INF], 0), ([0.5, -INF, 0.2], 1)])
def test_mean_of_refuses_an_infinite_report(reports, index):
    with pytest.raises(DomainError) as exc:
        mean_of(reports)
    assert str(exc.value) == f"mean of reports with an infinite report at index {index}"


@pytest.mark.parametrize("aggregate_of, what", [(median_of, "median"), (mean_of, "mean")])
def test_first_non_finite_report_is_named_whatever_its_kind(aggregate_of, what):
    with pytest.raises(DomainError) as exc:
        aggregate_of([0.1, NAN, INF])
    assert str(exc.value) == f"{what} of reports with a NaN report at index 1"
    with pytest.raises(DomainError) as exc:
        aggregate_of([0.1, -INF, NAN])
    assert str(exc.value) == f"{what} of reports with an infinite report at index 1"


def test_finite_reports_whose_sum_overflows_are_not_refused():
    assert median_of([1e308, 1e308, 1e308]) == 1e308


@pytest.mark.parametrize("run", [ectai_run, avr_run])
@pytest.mark.parametrize("position", [NAN, 7.0, -3.0])
@pytest.mark.parametrize("first", [True, False])
def test_quality_rankers_refuse_panel_position_outside_unit_interval(run, position, first):
    # A NaN position used to make the winner depend on panel order, and
    # positions off the [0, 1] scale were ranked.
    panel = [(0, position), (1, 0.5)] if first else [(1, 0.5), (0, position)]
    batches = [((0, 1), (2,), panel, (0.5,)), ((2,), (0,), [(2, 0.5)], (0.5,))]
    with pytest.raises(DomainError) as exc:
        run([0, 1, 2], batches)
    assert str(exc.value) == f"batch 0: position {position} of device 0 outside [0, 1]"


def test_social_graph_refuses_asymmetric_masks():
    # SocialGraph(2, (2, 0)) used to be accepted: num_edges read 0, yet
    # tenm_run on it notified node 1.
    with pytest.raises(DomainError) as exc:
        SocialGraph(2, (2, 0))
    assert str(exc.value) == "node 0 lists node 1, but 1 does not list 0"
    with pytest.raises(DomainError) as exc:
        SocialGraph(3, (0, 0, 2))
    assert str(exc.value) == "node 2 lists node 1, but 1 does not list 2"


def test_social_graph_refuses_mask_beyond_n_and_self_loop():
    with pytest.raises(DomainError) as exc:
        SocialGraph(2, (0, 4))
    assert str(exc.value) == "mask of node 1 references nodes >= n"
    with pytest.raises(DomainError) as exc:
        SocialGraph(2, (0, 2))
    assert str(exc.value) == "self-loop at node 1"


def test_builders_match_the_checked_constructor():
    for graph in (build_graph(4, [(0, 1), (2, 1), (3, 3)]),
                  harness.synthetic_graph(30, 0.3, 2)):
        assert SocialGraph(graph.n, graph.masks, graph.id_map) == graph


def test_auction_outcome_check_refuses_overlapping_bundles():
    outcome = AuctionOutcome(
        allocation={0: frozenset({0, 1}), 1: frozenset({1})},
        payments={0: Fraction(5), 1: Fraction(3)},
        prices=(Fraction(2), Fraction(3)), rounds=1,
    )
    with pytest.raises(InvariantError) as exc:
        outcome.check()
    assert str(exc.value) == "allocation of device 1 overlaps another device"


def test_auction_outcome_check_refuses_payment_off_its_price_sum():
    outcome = AuctionOutcome(
        allocation={0: frozenset({0}), 1: frozenset({1})},
        payments={0: Fraction(2), 1: Fraction(7, 2)},
        prices=(Fraction(2), Fraction(3)), rounds=1,
    )
    with pytest.raises(InvariantError) as exc:
        outcome.check()
    assert str(exc.value) == "payment of device 1 is 7/2, expected 3"


def test_wipd_run_refuses_max_rounds_below_one():
    oracle = BruteForceOracle({0: AdditiveValuation({0: 5})})
    with pytest.raises(ConfigError) as exc:
        wipd_run(1, [0], oracle, 1, max_rounds=0)
    assert str(exc.value) == "max_rounds must be at least 1"


@pytest.mark.parametrize("f, g", [(0, 2), (2, 0)])
def test_draw_batches_refuses_f_or_g_below_one(f, g):
    # The refusal comes with the first batch; without it f = 0 would draw
    # empty batches forever, so the test takes only that one.
    batches = draw_batches(range(6), f, g, UniformPeaks(), partial(stream, "qbatch", 1, 1))
    with pytest.raises(ConfigError) as exc:
        next(batches)
    assert str(exc.value) == "f and g must be at least 1"


def test_tail_at_refuses_non_positive_t():
    with pytest.raises(DomainError) as exc:
        tail_at(0)
    assert str(exc.value) == "t must be positive"


def test_monte_carlo_notified_refuses_p_above_one():
    with pytest.raises(DomainError) as exc:
        monte_carlo_notified(build_graph(2, [(0, 1)]), 0, 1.5, 10, 1)
    assert str(exc.value) == "p must lie in [0, 1], got 1.5"


@pytest.mark.parametrize("field, message", [
    (dict(cost_lo=9, cost_hi=2), "cost range must satisfy 1 <= lo <= hi"),
    (dict(cost_lo=0), "cost range must satisfy 1 <= lo <= hi"),
    (dict(val_lo=50, val_hi=40), "valuation range must satisfy 1 <= lo <= hi"),
    (dict(dist="cauchy"), "unknown distribution 'cauchy'"),
    (dict(num_tasks=0), "num_tasks must be positive"),
    (dict(deviation_delta=-1), "deviation_delta must be positive"),
])
def test_experiment_config_validate_refuses_as_a_library(field, message):
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig("tenm", **field).validate()
    assert str(exc.value) == message


def test_canonical_json_writes_a_set_sorted():
    assert canonical_json({"s": {3, 1, 2}, "f": frozenset()}) == '{"f":[],"s":[1,2,3]}\n'
