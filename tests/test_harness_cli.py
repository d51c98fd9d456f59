import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction
from functools import partial

import pytest

import crowdtier

from crowdtier import ConfigError, ExperimentConfig, MechanismReport, run_experiment
from crowdtier import harness
from crowdtier.cli import _load_costs_csv, main
from crowdtier.harness import stream, synthetic_graph
from helpers import find_avr_witness, find_greedy_witness, find_ntbfm_witness
from crowdtier import nam_select, ntbfm, psm


class TestRunExperiment:
    def test_tier1_budget_feasible_every_round(self):
        config = ExperimentConfig(mechanism="tenm", synthetic_n=25, seed=3, rounds=5)
        report = run_experiment(config)
        assert report.budget_feasible
        assert len(report.rounds) == 5
        for r in report.rounds:
            assert r["metrics"]["budget_feasible"]

    def test_deterministic_bytes(self):
        config = ExperimentConfig(mechanism="psm", synthetic_n=20, seed=7, rounds=5)
        a = run_experiment(config).to_json()
        b = run_experiment(config).to_json()
        assert a == b

    def test_zero_deviation_matches_plain_run(self):
        base = ExperimentConfig(mechanism="ntbfm", synthetic_n=20, seed=5, rounds=3)
        zero = ExperimentConfig(
            mechanism="ntbfm", synthetic_n=20, seed=5, rounds=3, deviation_frac=0.0
        )
        assert run_experiment(base).to_json() == run_experiment(zero).to_json()

    def test_deviation_fraction_marks_deviators(self):
        config = ExperimentConfig(
            mechanism="tenm", synthetic_n=20, seed=5, rounds=2, deviation_frac=0.3
        )
        report = run_experiment(config)
        for r in report.rounds:
            assert len(r["metrics"]["deviators"]) == 6

    def test_quality_mechanisms_partition(self):
        config = ExperimentConfig(
            mechanism="ectai", synthetic_n=12, seed=2, rounds=2, f=3, g=3
        )
        report = run_experiment(config)
        for r in report.rounds:
            assert r["metrics"]["batches"] == 4

    def test_wipd_rounds_settle(self):
        config = ExperimentConfig(
            mechanism="wipd", seed=4, rounds=2, num_tasks=4, num_bidders=2,
            val_lo=3, val_hi=9,
        )
        report = run_experiment(config)
        for r in report.rounds:
            assert r["metrics"]["rounds_to_settle"] >= 1

    def test_wipd_seller_scoring_gives_winners_negative_utility(self):
        # The harness scores a wipd winner as payment - value, a seller's
        # utility, while the auction charges buyers below their values; so
        # every truthful round with a winner reports a negative total.
        winning_rounds = 0
        for seed in range(5):
            config = ExperimentConfig(mechanism="wipd", seed=seed, rounds=3)
            for r in run_experiment(config).rounds:
                if any(r["metrics"]["allocation"].values()):
                    assert r["metrics"]["total_utility"] < 0
                    winning_rounds += 1
        assert winning_rounds == 15

    def test_greedy_reports_winners(self):
        config = ExperimentConfig(mechanism="greedy", seed=4, rounds=3)
        report = run_experiment(config)
        assert all("winners" in r["metrics"] for r in report.rounds)

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            run_experiment(ExperimentConfig(mechanism="nope"))
        with pytest.raises(ConfigError):
            run_experiment(ExperimentConfig(mechanism="tenm", rounds=0))
        with pytest.raises(ConfigError):
            run_experiment(ExperimentConfig(mechanism="tenm", deviation_frac=1.5))

    @pytest.mark.parametrize("edge_prob", [-0.1, 1.5, float("nan")])
    def test_edge_prob_outside_unit_interval_rejected(self, edge_prob):
        with pytest.raises(ConfigError, match="edge probability"):
            run_experiment(ExperimentConfig(mechanism="tenm", synthetic_n=5, edge_prob=edge_prob))

    @pytest.mark.parametrize("mu, sigma", [(float("nan"), 0.3), (0.6, float("inf")), (0.6, -1.0)])
    def test_non_finite_peak_parameters_rejected(self, mu, sigma):
        # Not even a mechanism that draws no peaks may carry NaN into its report.
        with pytest.raises(ConfigError, match="peaks"):
            run_experiment(ExperimentConfig(mechanism="tenm", synthetic_n=5, mu=mu, sigma=sigma))

    def test_report_derives_mechanism_seed_and_feasibility(self):
        config = ExperimentConfig(mechanism="psm", seed=9, rounds=2).to_dict()
        rounds = [
            {"round": 1, "metrics": {"budget_feasible": True}},
            {"round": 2, "metrics": {"budget_feasible": False}},
        ]
        report = MechanismReport(config, rounds)
        text = report.to_json()
        assert text.startswith('{"budget_feasible":false,')
        payload = json.loads(text)
        assert payload["mechanism"] == "psm" and payload["seed"] == 9
        assert payload["deviation_witnesses"] == []
        assert payload["rounds"] == rounds
        assert MechanismReport(config, rounds[:1]).budget_feasible

    def test_budget_sweep_winner_count_monotone(self):
        graph = synthetic_graph(20, 0.3, 11)
        costs = {i: 20 + (i * 7) % 31 for i in range(20)}
        for mechanism in ("tenm", "ntbfm", "psm"):
            previous = -1
            for budget in range(100, 1100, 100):
                if mechanism == "tenm":
                    count = len(nam_select(graph, costs, budget)[0])
                elif mechanism == "ntbfm":
                    count = len(ntbfm(graph, costs, budget).selected)
                else:
                    count = len(psm(costs, budget, graph).selected)
                assert count >= previous
                previous = count


class TestWitnessSearches:
    def test_ntbfm_witness_found(self):
        witness = find_ntbfm_witness(instances=50, seed=0)
        assert witness is not None
        assert witness["deviation_utility"] > witness["truthful_utility"]

    def test_greedy_witness_found(self):
        witness = find_greedy_witness(instances=50, seed=0)
        assert witness is not None

    def test_avr_witness_found(self):
        witness = find_avr_witness(profiles=20, seed=0)
        assert witness is not None
        assert witness["deviation_gap"] < witness["truthful_gap"]


class TestCli:
    def test_tenm_example(self, capsys, ex6_paths):
        graph, costs = ex6_paths
        code = main(["tenm", "--graph", graph, "--budget", "12", "--costs", costs])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["selected"] == [1, 6]
        assert payload["payments"] == {"1": "2", "6": "3"}
        assert payload["total_payment"] == "5"

    def test_graph_info(self, capsys, ex6_paths):
        code = main(["graph-info", "--graph", ex6_paths[0]])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "nodes": 6, "edges": 10, "max_degree": 4, "min_degree": 3,
            "isolated": 0,
        }

    def test_estimate_prints_plain_value(self, capsys):
        assert main(["estimate", "--degree", "4", "--p", "0.5"]) == 0
        assert capsys.readouterr().out == "2.0\n"

    def test_unknown_subcommand_exits_1(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_unknown_flag_exits_1(self, capsys):
        assert main(["estimate", "--degree", "4", "--bogus"]) == 1

    def test_missing_graph_file_exits_1(self, capsys):
        assert main(["graph-info", "--graph", "/no/such/file"]) == 1

    def test_graph_flag_is_never_edge_text(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["graph-info", "--graph", "3 4"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    def test_bad_cost_range_exits_1(self, capsys, ex6_paths):
        code = main([
            "tenm", "--graph", ex6_paths[0], "--budget", "10",
            "--cost-range", "50:20",
        ])
        assert code == 1

    def test_experiment_deterministic_across_worker_counts(self, tmp_path):
        out1 = tmp_path / "a.json"
        out8 = tmp_path / "b.json"
        base = ["experiment", "--mechanism", "psm", "--rounds", "5",
                "--seed", "7", "--n", "20"]
        assert main(base + ["--out", str(out1)]) == 0
        assert main(base + ["--out", str(out8)]) == 0
        assert out1.read_bytes() == out8.read_bytes()

    def test_experiment_csv_format(self, capsys):
        code = main([
            "experiment", "--mechanism", "psm", "--rounds", "2",
            "--seed", "1", "--n", "10", "--format", "csv",
        ])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "round,mechanism,metric,value"
        assert all(line.split(",")[1] == "psm" for line in lines[1:])

    @pytest.mark.parametrize("mechanism", harness.MECHANISMS)
    def test_experiment_defaults_are_the_config_defaults(self, capsys, mechanism):
        assert main(["experiment", "--mechanism", mechanism, "--rounds", "1"]) == 0
        config = json.loads(capsys.readouterr().out)["config"]
        assert config == ExperimentConfig(mechanism, rounds=1).to_dict()

    def test_quality_cli(self, capsys):
        code = main(["ectai", "--devices", "12", "--f", "3", "--g", "3",
                     "--seed", "2"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["ordered"]) == 4

    @pytest.mark.parametrize("command", ["ectai", "avr"])
    def test_quality_cli_calls_the_module_attribute(self, capsys, monkeypatch, command):
        # Span wrappers patch ``quality.ectai_run``/``quality.avr_run``, so
        # the CLI must look the runner up on the module at call time.
        argv = [command, "--devices", "14", "--f", "3", "--g", "4", "--seed", "5"]
        assert main(argv) == 0
        want = capsys.readouterr().out
        run = getattr(crowdtier.quality, f"{command}_run")
        calls = []

        def recorder(devices, batches):
            calls.append((devices, list(batches)))
            return run(*calls[-1])

        monkeypatch.setattr(crowdtier.quality, f"{command}_run", recorder)
        assert main(argv) == 0
        assert capsys.readouterr().out == want
        [(devices, batches)] = calls
        assert devices == range(14)
        assert batches == list(crowdtier.quality.draw_batches(
            range(14), 3, 4, crowdtier.UniformPeaks(), partial(stream, "qbatch", 5, 1)))

    def test_wipd_cli(self, capsys):
        code = main(["wipd", "--num-tasks", "3", "--bidders", "2",
                     "--val-range", "3:6", "--seed", "1"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rounds"] >= 1

    @pytest.mark.parametrize("argv", [
        ["greedy", "--num-tasks", "0"],
        ["wipd", "--num-tasks", "-1"],
        ["greedy", "--bidders", "-2"],
        ["wipd", "--max-rounds", "0"],
        ["ectai", "--devices", "-2"],
        ["avr", "--f", "0"],
        ["ectai", "--g", "-1"],
        ["experiment", "--n", "0"],
        ["experiment", "--rounds", "0"],
        ["experiment", "--deviation-delta", "0"],
    ])
    def test_non_positive_count_names_its_flag(self, capsys, argv):
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == f"error: argument {argv[1]}: expected a positive integer, got {argv[2]!r}"

    @pytest.mark.parametrize("argv", [
        ["estimate", "--p", "2", "--degree", "4"],
        ["experiment", "--edge-prob", "-0.5", "--mechanism", "tenm"],
        ["experiment", "--deviation-frac", "nan", "--mechanism", "tenm"],
    ])
    def test_probability_out_of_range_names_its_flag(self, capsys, argv):
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        want = f"expected a probability in [0, 1], got {argv[2]!r}"
        assert err[-1] == f"error: argument {argv[1]}: {want}"

    def test_python_m_crowdtier(self):
        src = pathlib.Path(crowdtier.__file__).parents[1]
        result = subprocess.run(
            [sys.executable, "-m", "crowdtier", "--help"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith("usage: crowdtier")

    def test_wipd_cli_beyond_enumeration_cap(self, capsys):
        # 30 tasks mean 2^30 bundles; additive demand answers task by task.
        code = main(["wipd", "--num-tasks", "30", "--seed", "1"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["prices"]) == 30
        taken = [t for bundle in payload["allocation"].values() for t in bundle]
        assert len(taken) == len(set(taken))

    def test_out_file_written(self, tmp_path, ex6_paths):
        out = tmp_path / "r.json"
        graph, costs = ex6_paths
        code = main(["tenm", "--graph", graph, "--budget", "12",
                     "--costs", costs, "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["selected"] == [1, 6]

    @pytest.mark.parametrize("argv", [
        ["graph-info", "--graph", "GRAPH"],
        ["tenm", "--graph", "GRAPH", "--budget", "12", "--costs", "COSTS", "--format", "csv"],
        ["wipd", "--seed", "1"],
        ["greedy", "--seed", "1"],
        ["ectai", "--seed", "2"],
        ["experiment", "--mechanism", "tenm", "--n", "20", "--rounds", "2"],
        ["experiment", "--mechanism", "wipd", "--rounds", "2", "--format", "csv"],
    ])
    def test_out_writes_the_bytes_stdout_shows(self, capsys, tmp_path, ex6_paths, argv):
        argv = [dict(zip(("GRAPH", "COSTS"), ex6_paths)).get(a, a) for a in argv]
        assert main(argv) == 0
        shown = capsys.readouterr().out
        out = tmp_path / "report"
        assert main(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == shown.encode("utf-8")

    def test_estimate_prints_the_value_and_writes_the_payload(self, capsys, tmp_path):
        argv = ["estimate", "--degree", "4", "--p", "0.5"]
        assert main(argv) == 0
        assert capsys.readouterr().out == "2.0\n"
        out = tmp_path / "estimate.json"
        assert main(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text(encoding="utf-8") == '{"estimator":"expected","value":2.0}\n'

    @pytest.mark.parametrize("row", ["2", "1,x", "1,nan", "x,1", "1,100"])
    def test_bad_costs_row_is_line_numbered_config_error(self, tmp_path, row):
        path = tmp_path / "costs.csv"
        path.write_text(f"node_id,cost\n1,2\n{row}\n")
        with pytest.raises(ConfigError, match="line 3"):
            _load_costs_csv(str(path))

    def test_repeated_costs_row_names_the_node(self, tmp_path):
        # Ids compare as integers, so "01" repeats node 1.
        path = tmp_path / "costs.csv"
        path.write_text("node_id,cost\n1,2\n01,100\n")
        with pytest.raises(ConfigError, match="line 3: node 1 is listed twice: '01,100'"):
            _load_costs_csv(str(path))

    def test_nan_costs_row_prints_one_error_line(self, capsys, tmp_path, ex6_paths):
        path = tmp_path / "costs.csv"
        path.write_text("node_id,cost\n1,2\n2,nan\n")
        code = main(["tenm", "--graph", ex6_paths[0], "--budget", "12",
                     "--costs", str(path)])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "line 3" in err[0]

    @pytest.mark.parametrize("budget, message", [
        ("abc", "--budget must be a finite number, got 'abc'"),
        ("nan", "--budget must be a finite number, got 'nan'"),
        ("1/1e5000", "--budget must be a finite number, got '1/1e5000'"),
        ("1e5000", f"--budget: number has more than {sys.get_int_max_str_digits()} digits: "
                   "'1e5000'"),
    ])
    def test_bad_budget_prints_one_error_line(self, capsys, ex6_paths, budget, message):
        graph, costs = ex6_paths
        code = main(["tenm", "--graph", graph, "--budget", budget, "--costs", costs])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {message}"]

    @pytest.mark.parametrize("epsilon, message", [
        ("1/1e9999", "--epsilon must be a finite number, got '1/1e9999'"),
        ("1e-5000", f"--epsilon: number has more than {sys.get_int_max_str_digits()} digits: "
                    "'1e-5000'"),
    ])
    def test_bad_epsilon_prints_one_error_line(self, capsys, epsilon, message):
        code = main(["wipd", "--num-tasks", "3", "--bidders", "2", "--epsilon", epsilon])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {message}"]

    @pytest.mark.parametrize("text", [
        "{bad", '{"0": {"x": 1}}', "[1,2]", '{"0": {"7": 3}}', '{"0": {"1": null}}',
    ])
    def test_bad_valuations_file_prints_one_error_line(self, capsys, tmp_path, text):
        path = tmp_path / "vals.json"
        path.write_text(text)
        code = main(["wipd", "--num-tasks", "6", "--valuations", str(path)])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and str(path) in err[0]

    def test_valuations_file_runs(self, capsys, tmp_path):
        path = tmp_path / "vals.json"
        path.write_text('{"0": {"0": 5, "1": 3}, "1": {"1": 4}}')
        code = main(["wipd", "--num-tasks", "2", "--valuations", str(path)])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["mechanism"] == "wipd"

    @pytest.mark.parametrize("argv", [
        ["experiment", "--mechanism", "psm", "--workers", "2"],
        ["ntbfm", "--graph", "tests/data/ex6.txt", "--budget", "12", "--delta", "abc"],
        ["psm", "--graph", "tests/data/ex6.txt", "--budget", "12", "--delta", "2"],
    ])
    def test_removed_flags_are_usage_errors(self, capsys, argv):
        assert main(argv) == 1
        assert "unrecognized arguments" in capsys.readouterr().err


class TestQualityExperimentDevices:
    @pytest.fixture
    def no_graph_draw(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("quality experiments rank devices without a graph")

        monkeypatch.setattr(harness, "synthetic_graph", refuse)

    @pytest.mark.parametrize("mechanism", ["ectai", "avr"])
    def test_synthetic_devices_draw_no_graph(self, no_graph_draw, mechanism):
        report = run_experiment(ExperimentConfig(
            mechanism=mechanism, synthetic_n=40, seed=3, rounds=2, deviation_frac=0.3,
        ))
        for r in report.rounds:
            assert sorted(r["metrics"]["ordered"]) == sorted(set(r["metrics"]["ordered"]))
            assert r["metrics"]["batches"] == 14

    def test_graph_file_sets_device_count(self, no_graph_draw, ex6_paths):
        report = run_experiment(ExperimentConfig(
            mechanism="ectai", graph_path=ex6_paths[0], seed=3, rounds=1, f=2, g=2,
        ))
        assert report.rounds[0]["metrics"]["batches"] == 3

    def test_missing_graph_file_exits_1(self, capsys):
        code = main(["experiment", "--mechanism", "ectai", "--graph", "/no/such/file"])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")


class TestSeedNamesOneInstance:
    """A single-shot subcommand draws, for seed s, the instance that
    ``crowdtier experiment --seed s`` draws for round 1."""

    SHARED = {
        **dict.fromkeys(harness.TIER1, ["--graph", "tests/data/ex6.txt", "--budget", "40",
                                        "--cost-range", "2:9"]),
        **dict.fromkeys(harness.TIER2_QUALITY, ["--f", "3", "--g", "3"]),
        "wipd": ["--num-tasks", "4", "--bidders", "2", "--val-range", "3:9", "--epsilon", "1"],
        "greedy": ["--num-tasks", "4", "--bidders", "3", "--val-range", "3:9"],
    }

    def run(self, argv, capsys) -> dict:
        assert main(argv) == 0
        return json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize("seed", ["1", "2", "3", "4", "5"])
    @pytest.mark.parametrize("mechanism", harness.MECHANISMS)
    def test_single_shot_output_is_round_one(self, capsys, monkeypatch, mechanism, seed):
        monkeypatch.chdir(pathlib.Path(__file__).resolve().parent.parent)
        flags = [*self.SHARED[mechanism], "--seed", seed]
        quality = mechanism in harness.TIER2_QUALITY
        shot = self.run([mechanism, *flags, *(["--devices", "12"] if quality else [])], capsys)
        report = self.run(["experiment", "--mechanism", mechanism, *flags, "--rounds", "1",
                           "--deviation-frac", "0", *(["--n", "12"] if quality else [])],
                          capsys)
        round_one = report["rounds"][0]["metrics"]
        if mechanism in harness.TIER1:
            id_map = crowdtier.load_edge_list("tests/data/ex6.txt").id_map
            assert [id_map[label] for label in shot["selected"]] == round_one["selected"]
            assert shot["total_payment"] == round_one["total_payment"]
        elif quality:
            assert shot["ordered"] == round_one["ordered"]
        elif mechanism == "wipd":
            assert shot["allocation"] == round_one["allocation"]
        else:
            assert sorted(int(d) for d in shot["allocation"]) == round_one["winners"]
        if mechanism in harness.TIER2_AUCTION:
            paid = sum(map(Fraction, shot["payments"].values()), Fraction(0))
            assert str(paid) == round_one["total_payment"]


def test_invariant_violation_exits_2_with_one_line(capsys, monkeypatch, ex6_paths):
    def broken(*args, **kwargs):
        raise crowdtier.InvariantError("payments exceed the budget")

    monkeypatch.setattr(crowdtier.notifier, "tenm_run", broken)
    assert main(["tenm", "--graph", ex6_paths[0], "--budget", "12"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "invariant violation: payments exceed the budget\n"
