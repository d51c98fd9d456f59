import math
import os
import pathlib
import subprocess
import sys

import pytest

import crowdtier
from crowdtier import (
    DomainError,
    NotifyModel,
    at_least_one,
    chernoff_tail,
    expected_notified,
    lemma1_bound,
    monte_carlo_notified,
    tail_at,
)


class TestNotifyModel:
    def test_invalid_degree(self):
        with pytest.raises(DomainError):
            NotifyModel(-1, 0.5)

    def test_invalid_probability(self):
        with pytest.raises(DomainError):
            NotifyModel(3, 1.5)

    def test_degree_beyond_float_range(self):
        assert NotifyModel(2**1023, 0.5).degree == 2**1023
        with pytest.raises(DomainError, match="float"):
            NotifyModel(2**1024, 0.5)


class TestExpectedNotified:
    def test_half_probability_notifies_half(self):
        assert expected_notified(NotifyModel(8, 0.5)) == 4.0

    def test_zero_probability(self):
        assert expected_notified(NotifyModel(7, 0.0)) == 0.0

    def test_matches_monte_carlo(self, ex6_graph):
        # EX6 node of degree 4 at p=0.5: Thm.-1 prediction is 2.
        mean, stderr = monte_carlo_notified(ex6_graph, 0, 0.5, 10_000, 7)
        assert abs(mean - 2.0) <= 3 * stderr


class TestAtLeastOne:
    def test_certain(self):
        exact, bound = at_least_one(NotifyModel(3, 1.0))
        assert exact == 1.0

    def test_impossible(self):
        exact, bound = at_least_one(NotifyModel(3, 0.0))
        assert exact == 0.0 and bound == 0.0

    def test_frozen_values(self):
        exact, bound = at_least_one(NotifyModel(5, 0.2))
        assert exact == pytest.approx(1 - 0.8**5)
        assert bound == pytest.approx(1 - math.exp(-1))

    def test_exact_dominates_bound_on_grid(self):
        for z in range(1, 11):
            for k in range(1, 10):
                p = k / 10
                exact, bound = at_least_one(NotifyModel(z, p))
                assert exact >= bound


class TestChernoff:
    def test_observation_value(self):
        # (1+kappa) E = 3 with 1+kappa = 3: e^3 / 27.
        assert chernoff_tail(1.0, 2.0) == pytest.approx(math.e**3 / 27)

    def test_vacuous_at_kappa_zero(self):
        assert chernoff_tail(1.0, 0.0) == pytest.approx(math.e)

    def test_preconditions(self):
        with pytest.raises(DomainError):
            chernoff_tail(0.0, 1.0)
        with pytest.raises(DomainError):
            chernoff_tail(1.0, -1.0)

    @pytest.mark.parametrize("expectation, kappa", [
        (1.0, float("nan")), (1.0, float("inf")), (float("nan"), 1.0), (float("inf"), 1.0),
    ])
    def test_non_finite_input_rejected(self, expectation, kappa):
        with pytest.raises(DomainError):
            chernoff_tail(expectation, kappa)

    def test_direct_form_kept_where_finite(self):
        for expectation, kappa in [(1.8, 1.0), (0.5, 0.25), (300.0, 1.0), (50.0, 3.0)]:
            t = (1 + kappa) * expectation
            assert chernoff_tail(expectation, kappa) == math.exp(t) / (1 + kappa) ** t

    def test_overflowing_direct_form_evaluated_in_log_space(self):
        # Degree 1000 at p = 1: e^2000 overflows a float, e^2000 / 2^2000 does not.
        assert chernoff_tail(1000.0, 1.0) == pytest.approx(math.exp(2000 * (1 - math.log(2))))
        assert chernoff_tail(1e300, 2.0) == 0.0
        assert chernoff_tail(10.0, 1e308) == 0.0

    def test_bound_beyond_float_range_is_domain_error(self):
        # e^500 / 0.5^500 = e^846.6 exceeds the largest float.
        with pytest.raises(DomainError):
            chernoff_tail(1000.0, -0.5)

    def test_dominates_binomial_tail(self):
        for n, p in [(20, 0.3), (50, 0.1), (10, 0.5)]:
            e = n * p
            for kappa in (0.5, 1.0, 2.0):
                exact = sum(
                    math.comb(n, k) * p**k * (1 - p) ** (n - k)
                    for k in range(n + 1)
                    if k > (1 + kappa) * e
                )
                assert chernoff_tail(e, kappa) >= exact


class TestLemma1:
    def test_tail_at_three(self):
        # True value e^3/27 = 0.743909; commonly quoted rounded as 0.7438.
        assert tail_at(3.0) == pytest.approx(math.e**3 / 27)
        assert abs(tail_at(3.0) - 0.7438) < 2e-4

    def test_degree_guard(self):
        for degree in (0, 1, 2):
            with pytest.raises(DomainError):
                lemma1_bound(degree)

    def test_matches_direct_formula(self):
        for degree in (3, 5, 10, 50):
            t = math.sqrt(degree * math.log(degree))
            assert lemma1_bound(degree) == pytest.approx(math.exp(t) / t**t)

    def test_large_degree_underflows_to_zero(self):
        # t = sqrt(1e5 ln 1e5) = 1073: e^t overflows, e^t / t^t is below 1e-2700.
        assert lemma1_bound(100_000) == 0.0
        assert tail_at(2000.0) == 0.0
        assert tail_at(1e308) == 0.0

    def test_degree_beyond_float_range(self):
        assert lemma1_bound(2**1023) == 0.0
        with pytest.raises(DomainError, match="float"):
            lemma1_bound(2**1024)

    def test_tail_monotone_decreasing_beyond_e(self):
        values = [tail_at(t) for t in (3.0, 4.0, 6.0, 10.0)]
        assert values == sorted(values, reverse=True)


class TestMonteCarlo:
    def test_extreme_probabilities(self, ex6_graph):
        mean, _ = monte_carlo_notified(ex6_graph, 0, 0.0, 100, 1)
        assert mean == 0.0
        mean, _ = monte_carlo_notified(ex6_graph, 0, 1.0, 100, 1)
        assert mean == ex6_graph.degree(0)

    def test_deterministic_given_seed(self, ex6_graph):
        a = monte_carlo_notified(ex6_graph, 1, 0.4, 1000, 9)
        assert a == monte_carlo_notified(ex6_graph, 1, 0.4, 1000, 9)

    def test_unknown_node(self, ex6_graph):
        with pytest.raises(DomainError):
            monte_carlo_notified(ex6_graph, 99, 0.5, 10, 0)

    def test_bad_trials(self, ex6_graph):
        with pytest.raises(DomainError):
            monte_carlo_notified(ex6_graph, 0, 0.5, 0, 0)


def test_import_without_numpy():
    src = pathlib.Path(crowdtier.__file__).parents[1]
    code = "import sys; sys.modules['numpy'] = None; import crowdtier"
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.returncode == 0, result.stderr
