import random

import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from crowdtier import (
    BatchScript,
    ConfigError,
    DomainError,
    NormalPeaks,
    UniformPeaks,
    avr_run,
    ectai_run,
    mean_of,
    median_of,
    select_quality,
)
from crowdtier import quality
from crowdtier.quality import _batch_rng, reviewer_regret
from reference_quality import plan_batches

# Scripted replay of the worked four-batch example: twelve devices,
# panels of three, five reviewers per batch.
EXAMPLE_SCRIPTS = [
    BatchScript((2, 4, 9), (1, 3, 7, 8, 11), {2: 0.34, 4: 0.52, 9: 0.65}),
    BatchScript((1, 3, 7), (2, 4, 6, 8, 11), {1: 0.10, 3: 0.47, 7: 0.80}),
    BatchScript((6, 10, 12), (2, 7, 9, 5, 11), {6: 0.05, 10: 0.44, 12: 0.90}),
    BatchScript((5, 8, 11), (1, 2, 7, 9, 10), {8: 0.33, 5: 0.70, 11: 0.95}),
]
EXAMPLE_REPORTS = {}
for _b, _revs, _vals in [
    (0, (1, 3, 7, 8, 11), (0.37, 0.34, 0.50, 0.58, 0.65)),
    (1, (2, 4, 6, 8, 11), (0.2, 0.45, 0.50, 0.55, 0.9)),
    (2, (2, 7, 9, 5, 11), (0.1, 0.3, 0.45, 0.6, 0.7)),
    (3, (1, 2, 7, 9, 10), (0.2, 0.3, 0.35, 0.5, 0.6)),
]:
    for _r, _v in zip(_revs, _vals):
        EXAMPLE_REPORTS[(_b, _r)] = _v


class TestAggregates:
    def test_median_odd(self):
        assert median_of([0.9, 0.1, 0.5]) == 0.5

    def test_median_even_averages_middle_two(self):
        assert median_of([0.1, 0.2, 0.6, 0.9]) == pytest.approx(0.4)

    def test_median_single(self):
        assert median_of([0.3]) == 0.3

    def test_median_empty_rejected(self):
        with pytest.raises(DomainError):
            median_of([])

    def test_mean(self):
        assert mean_of([0.2, 0.4]) == pytest.approx(0.3)
        with pytest.raises(DomainError):
            mean_of([])

    def test_mean_sums_left_to_right(self):
        # Compensated summation (the builtin sum since Python 3.12) gives 1/3.
        assert mean_of([1e16, 1.0, -1e16]) == 0.0

    def test_median_within_bounds_random(self):
        rng = random.Random(3)
        for _ in range(100):
            reports = [rng.random() for _ in range(rng.randint(1, 9))]
            m = median_of(reports)
            assert min(reports) <= m <= max(reports)

    def test_avr_matches_one_liner(self):
        rng = random.Random(5)
        for _ in range(100):
            reports = [rng.random() for _ in range(rng.randint(1, 9))]
            assert mean_of(reports) == pytest.approx(sum(reports) / len(reports))


class TestSelectQuality:
    def test_nearest_position_wins(self):
        assert select_quality([(7, 0.2), (9, 0.8)], 0.7) == 9

    def test_tie_breaks_to_lowest_id(self):
        assert select_quality([(3, 0.4), (2, 0.6)], 0.5) == 2

    def test_empty_panel_rejected(self):
        with pytest.raises(DomainError):
            select_quality([], 0.5)

    def test_regret_bounds(self):
        assert reviewer_regret(0.3, 0.5) == pytest.approx(0.2)
        with pytest.raises(DomainError):
            reviewer_regret(1.5, 0.5)


class TestScriptedReplay:
    def test_example_batch_winners(self):
        ranking = ectai_run(
            range(1, 13), 3, 5, EXAMPLE_REPORTS,
            seed=0, script=EXAMPLE_SCRIPTS,
        )
        assert ranking.ordered == [4, 3, 10, 8]
        assert [b.aggregate for b in ranking.batches] == pytest.approx(
            [0.50, 0.50, 0.45, 0.35]
        )

    def test_replay_partition(self):
        ranking = ectai_run(
            range(1, 13), 3, 5, EXAMPLE_REPORTS,
            seed=0, script=EXAMPLE_SCRIPTS,
        )
        ranked = [d for b in ranking.batches for d, _ in b.panel]
        assert sorted(ranked) == list(range(1, 13))

    def test_scripted_replay_seeds_no_stream(self, monkeypatch):
        def refuse(seed, batch):
            raise AssertionError("a scripted replay seeded a batch stream")

        monkeypatch.setattr(quality, "_batch_rng", refuse)
        ranking = ectai_run(
            range(1, 13), 3, 5, EXAMPLE_REPORTS,
            seed=0, script=EXAMPLE_SCRIPTS,
        )
        assert ranking.ordered == [4, 3, 10, 8]

    def test_script_reranking_rejected(self):
        bad = [EXAMPLE_SCRIPTS[0], EXAMPLE_SCRIPTS[0]]
        with pytest.raises(ConfigError):
            ectai_run(range(1, 13), 3, 5, EXAMPLE_REPORTS,
                      script=bad)

    def test_reviewer_in_panel_rejected(self):
        bad = [BatchScript((1, 2), (2, 3), {1: 0.1, 2: 0.2})]
        with pytest.raises(ConfigError):
            ectai_run(range(1, 3), 2, 2, {}, script=bad)

    def test_missing_scripted_report_rejected(self):
        with pytest.raises(DomainError):
            ectai_run(range(1, 13), 3, 5, {},
                      script=EXAMPLE_SCRIPTS)

    def test_missing_scripted_report_names_batch_and_reviewer(self):
        scripts = [BatchScript((0,), (1,), {0: 0.5})]
        with pytest.raises(DomainError) as exc:
            ectai_run(range(2), 1, 1, {(0, 0): 0.5}, script=scripts)
        assert str(exc.value) == "no scripted report for batch 0, reviewer 1"

    @pytest.mark.parametrize("script, message", [
        ([BatchScript((0,), (1,), {})], "scripted batch 0 gives no position to devices [0]"),
        ([BatchScript((9,), (1,), {9: 0.5})], "scripted batch 0 ranks unknown devices [9]"),
        ([BatchScript((0,), (9,), {0: 0.5})], "scripted batch 0 has unknown reviewers [9]"),
        ([BatchScript((0,), (1,), {0: 0.5})] * 2, "scripted batch 1 re-ranks devices [0]"),
        ([BatchScript((0,), (0,), {0: 0.5})],
         "scripted batch 0 has reviewers inside the ranked panel [0]"),
        ([BatchScript((0,), (1, 1), {0: 0.5})], "scripted batch 0 repeats devices [1]"),
        ([BatchScript((0, 0), (1,), {0: 0.5})], "scripted batch 0 repeats devices [0]"),
    ])
    def test_malformed_script_is_config_error(self, script, message):
        with pytest.raises(ConfigError) as exc:
            ectai_run(range(2), 1, 1, {(0, 1): 0.5, (0, 9): 0.5}, script=script)
        assert str(exc.value) == message


class TestPlanBatches:
    @pytest.mark.parametrize("n,f,g", [(12, 3, 3), (20, 3, 4), (7, 5, 2), (30, 4, 9)])
    def test_every_device_ranked_once_and_reviewers_outside_panel(self, n, f, g):
        devices = range(100, 100 + n)
        scripts, peaks = plan_batches(devices, f, g, UniformPeaks(),
                                      lambda b: random.Random(f"plan:{b}"))
        ranked = [d for entry in scripts for d in entry.eta]
        assert sorted(ranked) == list(devices)
        for b, entry in enumerate(scripts):
            assert len(entry.reviewers) == g
            assert not set(entry.reviewers) & set(entry.eta)
            assert set(entry.positions) == set(entry.eta)
            assert {r for bb, r in peaks if bb == b} == set(entry.reviewers)

    def test_replay_of_plan_matches_unscripted_run(self):
        scripts, peaks = plan_batches(range(20), 3, 4, NormalPeaks(),
                                      lambda b: _batch_rng(5, b))
        replayed = ectai_run(range(20), 3, 4, peaks, script=scripts)
        direct = ectai_run(range(20), 3, 4, NormalPeaks(), seed=5)
        assert replayed == direct

    def test_avr_replay_of_plan_matches_unscripted_run(self):
        scripts, reports = plan_batches(range(20), 3, 4, UniformPeaks(),
                                        lambda b: _batch_rng(3, b))
        replayed = avr_run(range(20), 3, 4, reports, script=scripts)
        assert replayed == avr_run(range(20), 3, 4, UniformPeaks(), seed=3)

    def test_peak_source_needs_only_sample_rng(self):
        class Fixed:
            def sample(self, rng):
                return 0.25

        scripts, reports = plan_batches(range(10), 2, 3, Fixed(), random.Random)
        assert set(reports.values()) == {0.25}
        ranking = ectai_run(range(10), 2, 3, Fixed(), seed=1)
        assert [b.aggregate for b in ranking.batches] == [0.25] * 5

    def test_f_plus_g_beyond_population_rejected(self):
        with pytest.raises(ConfigError) as exc:
            plan_batches(range(5), 3, 3, UniformPeaks(), random.Random)
        assert str(exc.value) == "f + g = 6 exceeds the 5 available devices"


class TestGeneratedRuns:
    def test_partition_and_batch_sizes(self):
        ranking = ectai_run(range(20), 3, 4, UniformPeaks(), seed=9)
        ranked = [d for b in ranking.batches for d, _ in b.panel]
        assert sorted(ranked) == list(range(20))
        sizes = [len(b.panel) for b in ranking.batches]
        assert all(s == 3 for s in sizes[:-1]) and sizes[-1] <= 3

    def test_each_batch_one_winner_from_panel(self):
        ranking = ectai_run(range(15), 4, 3, UniformPeaks(), seed=2)
        for b in ranking.batches:
            assert b.winner in {d for d, _ in b.panel}
            assert 0.0 <= b.aggregate <= 1.0

    def test_deterministic_given_seed(self):
        a = ectai_run(range(18), 3, 4, NormalPeaks(), seed=11)
        b = ectai_run(range(18), 3, 4, NormalPeaks(), seed=11)
        assert a == b
        c = ectai_run(range(18), 3, 4, NormalPeaks(), seed=12)
        assert a.ordered != c.ordered or a != c

    def test_avr_differs_only_in_aggregate(self):
        med = ectai_run(range(12), 3, 3, UniformPeaks(), seed=4)
        avg = avr_run(range(12), 3, 3, UniformPeaks(), seed=4)
        for mb, ab in zip(med.batches, avg.batches):
            assert mb.panel == ab.panel
            assert mb.reports == ab.reports
            assert ab.aggregate == pytest.approx(
                sum(ab.reports.values()) / len(ab.reports)
            )

    def test_f_plus_g_too_large(self):
        with pytest.raises(ConfigError):
            ectai_run(range(5), 3, 3, UniformPeaks())

    def test_normal_peaks_clamped(self):
        src = NormalPeaks(mu=0.5, sigma=5.0)
        rng = random.Random(0)
        for _ in range(200):
            assert 0.0 <= src.sample(rng) <= 1.0

    @pytest.mark.parametrize("mu, sigma", [
        (float("nan"), 0.3), (float("inf"), 0.3), (0.5, float("nan")), (0.5, float("inf")),
        (0.5, -0.1),
    ])
    def test_normal_peaks_reject_non_finite_or_negative_sigma(self, mu, sigma):
        with pytest.raises(DomainError):
            NormalPeaks(mu, sigma)

    def test_report_outside_unit_interval_rejected(self):
        scripts = [BatchScript((0,), (1,), {0: 0.5})]
        with pytest.raises(DomainError):
            ectai_run(range(2), 1, 1, {(0, 1): 1.5},
                      script=scripts)


PROPERTIES = settings(derandomize=True, deadline=None, max_examples=300)
UNIT = st.floats(0.0, 1.0)


def panels(counts):
    return counts.flatmap(lambda n: st.lists(UNIT, min_size=n, max_size=n))


def closer_misreport(panel, reports):
    """A (reviewer, report) pair that moves ``median_of`` strictly closer to
    that reviewer's own peak, trying ``reports``, both ends of the scale and
    every peak in the panel, or None if there is none."""
    base = median_of(panel)
    for i, peak in enumerate(panel):
        for report in (*reports, 0.0, 1.0, *panel):
            trial = [*panel[:i], report, *panel[i + 1:]]
            if abs(median_of(trial) - peak) < abs(base - peak):
                return i, report
    return None


class TestMedianStrategyproofness:
    @PROPERTIES
    @given(panels(st.integers(0, 7).map(lambda k: 2 * k + 1)), st.lists(UNIT, max_size=8))
    def test_no_deviation_moves_median_closer(self, panel, reports):
        # Single-peaked reviewers cannot pull the median of an odd count
        # toward their own peak by misreporting (Moulin 1980).
        assert closer_misreport(panel, reports) is None

    def test_even_count_admits_a_closer_misreport(self):
        # The average of the two middle reports can be pulled toward a
        # reviewer's peak, which is why ectai wants an odd g.  ``find``
        # raises NoSuchExample if no even panel admits such a misreport.
        find(
            panels(st.integers(1, 7).map(lambda k: 2 * k)),
            lambda panel: closer_misreport(panel, ()) is not None,
            settings=settings(derandomize=True, database=None),
        )

    def test_mean_is_manipulable(self):
        # Contrast case: the AVR mean moves toward an exaggerating reviewer.
        panel = [0.2, 0.5, 0.8]
        truthful_gap = abs(mean_of(panel) - 0.2)
        assert abs(mean_of([0.0, 0.5, 0.8]) - 0.2) < truthful_gap


class ScriptedSample(random.Random):
    """A batch stream whose ``sample`` returns a fixed panel or fixed
    reviewer indices; every other draw is the seeded stream's."""

    def __init__(self, batch, panel=None, picks=None):
        super().__init__(f"scripted-sample:{batch}")
        self.panel, self.picks = panel, picks

    def sample(self, population, k):
        fixed = self.picks if isinstance(population, range) else self.panel
        return list(fixed) if fixed is not None else super().sample(population, k)


class TestDrawBatches:
    def run(self, **fixed):
        return list(quality.draw_batches(range(10), 2, 3, UniformPeaks(),
                                         lambda b: ScriptedSample(b, **fixed)))

    def test_yields_plain_lists_in_plan_batches_order(self):
        def batch_rng(b):
            return random.Random(f"draw:{b}")

        scripts, peaks = plan_batches(range(11), 3, 4, NormalPeaks(), batch_rng)
        drawn = list(quality.draw_batches(range(11), 3, 4, NormalPeaks(), batch_rng))
        assert [len(eta) for eta, _, _, _ in drawn] == [3, 3, 3, 2]
        for b, (eta, reviewers, panel, alphas) in enumerate(drawn):
            assert (tuple(eta), tuple(reviewers), dict(panel)) == (
                scripts[b].eta, scripts[b].reviewers, scripts[b].positions)
            assert alphas == [peaks[(b, r)] for r in reviewers]

    def test_already_ranked_device_names_the_batch(self):
        with pytest.raises(ConfigError) as exc:
            self.run(panel=[4, 7])
        assert str(exc.value) == "batch 1 ranks device 4, which is not unranked"

    def test_device_ranked_twice_in_one_batch_names_the_batch(self):
        with pytest.raises(ConfigError) as exc:
            self.run(panel=[5, 5])
        assert str(exc.value) == "batch 0 ranks device 5, which is not unranked"

    def test_repeated_reviewer_index_names_the_batch(self):
        with pytest.raises(ConfigError) as exc:
            self.run(picks=[6, 2, 2])
        assert str(exc.value) == "batch 0 draws reviewer index 2 twice or outside the pool 0..7"

    @pytest.mark.parametrize("picks", [[-1, 0, 3], [0, 3, 8]])
    def test_reviewer_index_outside_the_pool_names_the_batch(self, picks):
        # Index -1 or 8 would map to a panel device or past the population.
        with pytest.raises(ConfigError) as exc:
            self.run(picks=picks)
        assert str(exc.value).startswith("batch 0 draws reviewer index ")

    def test_empty_panel_draw_names_the_batch(self):
        with pytest.raises(ConfigError) as exc:
            self.run(panel=[])
        assert str(exc.value) == "batch 0 ranks no device"

    def test_drawn_peak_outside_unit_interval_rejected(self):
        class Above:
            def sample(self, rng):
                return 1.5

        with pytest.raises(DomainError) as exc:
            avr_run(range(10), 2, 3, Above(), seed=1)
        assert str(exc.value).endswith("outside [0, 1]")
