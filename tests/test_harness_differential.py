"""Differential tests: every mechanism's experiment rounds, as
``run_experiment`` reports them, must equal the literal re-derivation in
``reference_harness``, and named cases pin the quality deviation model's
behaviour at its ends."""

import math
import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest

import reference_harness as ref
from crowdtier import DomainError, ExperimentConfig, harness, run_experiment


@pytest.mark.parametrize("mechanism", ["ectai", "avr"])
@pytest.mark.parametrize("dist", ["uniform", "normal"])
@pytest.mark.parametrize("frac", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("n,f,g", [(23, 3, 5), (40, 4, 6), (130, 5, 7)])
def test_quality_rounds_match_reference(mechanism, dist, frac, n, f, g):
    for seed in (0, 7):
        config = ExperimentConfig(mechanism, synthetic_n=n, f=f, g=g, seed=seed, rounds=2,
                                  deviation_frac=frac, dist=dist, mu=0.4, sigma=0.25)
        assert run_experiment(config).rounds == ref.quality_rounds(config)


@pytest.mark.parametrize("mechanism", harness.TIER1)
@pytest.mark.parametrize("frac", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("n,edge_prob,budget", [(12, 0.3, 200), (25, 0.15, 300)])
def test_tier1_rounds_match_reference(mechanism, frac, n, edge_prob, budget):
    for seed in (0, 7):
        config = ExperimentConfig(mechanism, synthetic_n=n, edge_prob=edge_prob,
                                  budget=budget, seed=seed, rounds=2, deviation_frac=frac)
        assert run_experiment(config).rounds == ref.tier1_rounds(config)


@pytest.mark.parametrize("mechanism", harness.TIER2_AUCTION)
@pytest.mark.parametrize("frac", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("tasks,bidders", [(4, 3), (6, 5)])
def test_auction_rounds_match_reference(mechanism, frac, tasks, bidders):
    for seed in (0, 7):
        config = ExperimentConfig(mechanism, num_tasks=tasks, num_bidders=bidders,
                                  seed=seed, rounds=2, deviation_frac=frac)
        assert run_experiment(config).rounds == ref.auction_rounds(config)


@pytest.mark.parametrize("mechanism", ["ectai", "avr"])
def test_every_reviewer_deviating_leaves_no_truthful_regret(mechanism):
    config = ExperimentConfig(mechanism, synthetic_n=60, f=4, g=5, seed=3, rounds=2,
                              deviation_frac=1.0)
    for round_ in run_experiment(config).rounds:
        metrics = round_["metrics"]
        assert metrics["deviators"] == list(range(60))
        assert metrics["mean_regret"] == 0.0
        assert metrics["mean_deviator_regret"] > 0


@pytest.mark.parametrize("mechanism", ["ectai", "avr"])
def test_no_deviation_fraction_picks_no_deviators(mechanism):
    config = ExperimentConfig(mechanism, synthetic_n=60, f=4, g=5, seed=3, rounds=2,
                              deviation_frac=0.0)
    for round_ in run_experiment(config).rounds:
        assert round_["metrics"]["deviators"] == []
        assert round_["metrics"]["mean_deviator_regret"] == 0.0


@pytest.mark.parametrize("mechanism", ["ectai", "avr"])
@pytest.mark.parametrize("frac", [0.0, 1.0])
def test_round_refuses_peak_outside_unit_interval(mechanism, frac, monkeypatch):
    # A deviator's peak is checked too, with the text ectai_run gives.
    class Above:
        def peaks(self, rng, k):
            return [1.5] * k

    monkeypatch.setattr(harness, "peak_source", lambda dist, mu, sigma: Above())
    config = ExperimentConfig(mechanism, synthetic_n=20, rounds=1, deviation_frac=frac)
    with pytest.raises(DomainError) as exc:
        run_experiment(config)
    assert re.fullmatch(r"batch 0: report 1\.5 from reviewer \d+ outside \[0, 1\]",
                        str(exc.value))


@pytest.mark.parametrize("n", [0, 1, 2, 50])
@pytest.mark.parametrize("edge_prob", [0, 0.3, 1])
def test_synthetic_graph_masks_match_edge_list_draw(n, edge_prob):
    for seed in (0, 1, 7, 12345):
        graph = harness.synthetic_graph(n, edge_prob, seed)
        want = ref.synthetic_graph(n, edge_prob, seed)
        assert (graph.n, graph.masks, graph.id_map) == (want.n, want.masks, want.id_map)


def test_synthetic_graph_matches_edge_list_draw_up_to_90_nodes():
    # A draw whose top byte equals that of cut = ceil(p * 2**53) is a tie
    # the top byte cannot decide; some ties must come out each way.
    floats = random.Random(5).random
    probs = [0, 1, Fraction(1, 3), Decimal("0.3"), 1 / 256, 100 / 256, 255 / 256,
             *(floats() for _ in range(4))]
    tie_outcomes = set()
    for n in range(91):
        for k, p in enumerate(probs):
            seed = (n + k) % 4
            graph = harness.synthetic_graph(n, p, seed)
            want = ref.synthetic_graph(n, p, seed)
            assert (graph.n, graph.masks, graph.id_map) == (want.n, want.masks, want.id_map)
            top = math.ceil(Fraction(p) * 2**53) >> 45
            draw = harness.stream("graph", seed).random
            draws = [draw() for _ in range(n * (n - 1) // 2)]
            tie_outcomes.update(x < p for x in draws if int(x * 256) == top)
    assert tie_outcomes == {False, True}
