"""Library entry points refuse well-typed values outside their domain
with a typed ``CrowdtierError`` that names the value."""

import pytest

from crowdtier import (
    ConfigError,
    DomainError,
    ExperimentConfig,
    build_graph,
    mean_of,
    median_of,
    nam_select,
    npm_prices,
    ntbfm,
    psm,
    tenm_run,
)
from crowdtier import harness
from crowdtier.auction import AdditiveValuation


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
