"""Differential tests: a quality experiment's rounds, as ``run_experiment``
reports them, must equal the literal re-derivation in
``reference_harness``, and two named cases pin the deviation model's
behaviour at its ends."""

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
def test_round_refuses_peak_outside_unit_interval(mechanism, monkeypatch):
    class Above:
        def sample(self, rng):
            return 1.5

    monkeypatch.setattr(harness, "peak_source", lambda dist, mu, sigma: Above())
    config = ExperimentConfig(mechanism, synthetic_n=20, rounds=1)
    with pytest.raises(DomainError) as exc:
        run_experiment(config)
    assert str(exc.value).startswith("report 1.5 from reviewer ")
