"""Malformed CLI input.

Every case must exit 1 and write exactly one stderr line starting
``error:`` (argparse may add its usage lines), with nothing on stdout.
``main`` runs in process, so an exception that would print a traceback
escapes it and fails the case.  ``{graph}`` and ``{costs}`` stand for the
six-device example files; other file names are written into the case's
working directory from ``FILES``.
"""

import argparse
import math
import pathlib

import pytest

from crowdtier.cli import build_parser, main
from crowdtier.errors import CrowdtierError

DATA = pathlib.Path(__file__).resolve().parent / "data"

FILES = {
    # Starts like a UTF-16 byte-order mark; not valid UTF-8.
    "not_utf8": b"\xff\xfe\x00\x01 2\n",
    "graph_three_fields.txt": b"0 1\n1 2 3\n",
    "graph_label.txt": b"a b\n",
    "graph_negative.txt": b"-1 0\n",
    "costs_one_field.csv": b"node_id,cost\n1,2\n2\n",
    "costs_text.csv": b"node_id,cost\n1,x\n",
    "costs_nan.csv": b"node_id,cost\n1,nan\n",
    "costs_zero.csv": b"1,0\n2,4\n3,2\n4,5\n5,3\n6,2\n",
    "costs_missing_node.csv": b"node_id,cost\n1,2\n",
    # ex6's costs with node 1 listed again at the end.
    "costs_repeat.csv": b"node_id,cost\n1,3\n2,4\n3,2\n4,5\n5,3\n6,2\n1,100\n",
    "vals_json.json": b"{bad",
    "vals_list.json": b"[1, 2]",
    "vals_task_range.json": b'{"0": {"7": 3}}',
    "vals_null.json": b'{"0": {"1": null}}',
    # Nested deeper than json.loads recurses.
    "vals_nested.json": b"[" * 100_000,
    "vals_ok.json": b'{"0": {"0": 5, "1": 7}, "1": {"0": 6}}',
}

TIER1 = "tenm --graph {graph} --budget 12"

CASES = [
    # Input files that are not UTF-8.
    "graph-info --graph not_utf8",
    "tenm --graph {graph} --budget 12 --costs not_utf8",
    "wipd --valuations not_utf8",
    "experiment --mechanism tenm --graph not_utf8",
    # tenm needs delta >= 1.
    "tenm --graph {graph} --budget 12 --costs {costs} --delta 1/2",
    "tenm --graph {graph} --budget 9 --cost-range 1:5 --delta 1/2 --seed 17",
    "experiment --mechanism tenm --delta 1/2 --n 30 --rounds 3 --seed 7",
    # Malformed graph, cost and valuation files.
    "graph-info --graph graph_three_fields.txt",
    "graph-info --graph graph_label.txt",
    "ntbfm --graph graph_negative.txt --budget 12",
    TIER1 + " --costs costs_one_field.csv",
    TIER1 + " --costs costs_text.csv",
    TIER1 + " --costs costs_nan.csv",
    TIER1 + " --costs costs_zero.csv",
    TIER1 + " --costs costs_repeat.csv",
    "psm --graph {graph} --budget 12 --costs costs_missing_node.csv",
    "wipd --valuations vals_json.json",
    "wipd --valuations vals_list.json",
    "wipd --valuations vals_task_range.json",
    "wipd --valuations vals_null.json",
    "wipd --valuations vals_nested.json",
    # Missing --graph: the flag, or the file it names.
    "tenm --budget 12",
    "graph-info --graph no_such_file",
    "experiment --mechanism psm --graph no_such_file",
    # Bad numbers and ranges.
    "tenm --graph {graph} --budget abc",
    "tenm --graph {graph} --budget nan",
    "tenm --graph {graph} --budget 0",
    "psm --graph {graph} --budget -3",
    TIER1 + " --delta abc",
    TIER1 + " --delta 0",
    TIER1 + " --delta inf",
    "experiment --mechanism tenm --delta -1",
    "wipd --epsilon abc",
    "wipd --epsilon 0",
    "experiment --mechanism wipd --epsilon -1",
    TIER1 + " --cost-range 50:20",
    # A malformed value is rejected even where the command ignores it.
    TIER1 + " --costs {costs} --cost-range 50:20",
    "wipd --valuations vals_ok.json --val-range 9:1",
    TIER1 + " --cost-range a:b",
    TIER1 + " --cost-range 0:5",
    "experiment --mechanism ntbfm --cost-range 5",
    "wipd --val-range 9:1",
    "greedy --val-range x",
    "experiment --mechanism greedy --val-range 0:3",
    # Counts must be positive integers; edge probabilities lie in [0, 1].
    "greedy --num-tasks 0",
    "wipd --num-tasks -1",
    "greedy --bidders -2",
    "wipd --bidders x",
    "wipd --max-rounds 0",
    "experiment --mechanism wipd --num-tasks 0",
    "experiment --mechanism greedy --bidders 1.5",
    "experiment --mechanism tenm --n 10 --edge-prob 2 --rounds 1",
    "experiment --mechanism tenm --n 10 --edge-prob nan --rounds 1",
    "ectai --devices -2",
    "avr --f 0",
    "ectai --g -1",
    "experiment --mechanism tenm --n 0",
    "experiment --mechanism tenm --n 10 --rounds 0",
    "experiment --mechanism tenm --n 10 --rounds 1 --deviation-delta 0",
    "experiment --mechanism ectai --f 0",
    "estimate --degree -1",
    "estimate --degree x",
    # Real parameters must be finite; sigma must also be >= 0.
    "experiment --mechanism tenm --n 10 --rounds 1 --mu nan",
    "experiment --mechanism ectai --n 10 --rounds 1 --dist normal --sigma inf",
    "ectai --dist normal --sigma -0.1",
    "avr --dist normal --mu inf",
    "estimate --degree 4 --estimator chernoff --kappa nan",
    "estimate --degree 4 --estimator chernoff --kappa -1",
    # e^500 / 0.5^500 is beyond the largest float.
    "estimate --degree 1000 --p 1 --estimator chernoff --kappa -0.5",
    # 2^1024 is a valid integer degree that no float can hold.
    *(f"estimate --degree {2**1024} --estimator {estimator}"
      for estimator in ("expected", "at-least-one", "chernoff", "lemma1")),
    # Probabilities lie in [0, 1].
    "estimate --degree 4 --p -1",
    "estimate --degree 4 --p 2",
    "estimate --degree 4 --p nan",
    "estimate --degree 4 --p x",
    "experiment --mechanism tenm --n 10 --edge-prob -1 --rounds 1",
    "experiment --mechanism tenm --n 10 --edge-prob x --rounds 1",
    "experiment --mechanism tenm --n 10 --rounds 1 --deviation-frac -1",
    "experiment --mechanism tenm --n 10 --rounds 1 --deviation-frac 2",
    "experiment --mechanism tenm --n 10 --rounds 1 --deviation-frac nan",
    "experiment --mechanism tenm --n 10 --rounds 1 --deviation-frac x",
    # Numbers with more digits than the interpreter converts to text
    # (sys.get_int_max_str_digits(), 4300 by default): given, or derived.
    # 1e4000000 took seconds to build before literals were checked first.
    "tenm --graph {graph} --costs {costs} --budget 1e5000",
    "tenm --graph {graph} --costs {costs} --budget 1e-5000",
    "tenm --graph {graph} --costs {costs} --budget 1e4000000",
    "tenm --graph {graph} --costs {costs} --budget 1e4300",
    "tenm --graph {graph} --costs {costs} --budget 1e-4300",
    "experiment --mechanism tenm --budget 1e5000",
    "experiment --mechanism tenm --n 10 --rounds 1 --budget 1e4300",
    # Instances the mechanisms cannot run.
    "ectai --devices 5 --f 3 --g 3",
    # Flags these subcommands do not have, or no longer have.
    "graph-info --graph {graph} --seed 3",
    "estimate --degree 4 --seed 1",
    "wipd --num-tasks 5 --bidders 3 --val-range 3:9 --policy net-gain --seed 3",
    "wipd --num-tasks 5 --bidders 3 --val-range 3:9 --policy net-gain --seed 3 --format csv",
]


@pytest.mark.parametrize("line", CASES)
def test_malformed_input_is_one_error_line(line, tmp_path, capsys, monkeypatch):
    for name, data in FILES.items():
        (tmp_path / name).write_bytes(data)
    monkeypatch.chdir(tmp_path)
    argv = [
        arg.format(graph=DATA / "ex6.txt", costs=DATA / "ex6_costs.csv")
        for arg in line.split()
    ]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "Traceback" not in captured.err
    errors = [row for row in captured.err.splitlines() if row.startswith("error:")]
    assert len(errors) == 1, captured.err


# Out-of-kind values for every typed flag of every subcommand; the last two
# exceed the interpreter's int-to-str digit limit.
TYPED_VALUES = [
    "-1", "0", "1.5", "2", "x", "nan", "inf", "-inf", "1e999", "-0.1", "1e5000", "1e-5000",
]


def test_every_rejected_typed_flag_value_is_one_error_line(capsys):
    subparsers = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    checked = 0
    for sub, parser in subparsers.choices.items():
        for action in parser._actions:
            if action.type is None or not action.option_strings:
                continue
            flag = action.option_strings[0]
            for value in TYPED_VALUES:
                try:
                    action.type(value)
                    continue
                except (argparse.ArgumentTypeError, ValueError, CrowdtierError):
                    pass
                code = main([sub, flag, value])
                captured = capsys.readouterr()
                context = f"{sub} {flag} {value}: {captured.err}"
                assert code == 1, context
                assert captured.out == "", context
                errors = [row for row in captured.err.splitlines() if row.startswith("error:")]
                assert len(errors) == 1, context
                checked += 1
    # A floor, so the walk cannot silently test nothing.
    assert checked >= 475


# Valid input whose direct evaluation overflows a float: each prints one
# finite value and exits 0.
EXTREME = [
    "estimate --degree 1000 --p 1 --estimator chernoff",
    "estimate --degree 100000 --estimator lemma1",
]


@pytest.mark.parametrize("line", EXTREME)
def test_extreme_input_is_one_finite_value(line, capsys):
    code = main(line.split())
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.err == ""
    assert math.isfinite(float(captured.out))
