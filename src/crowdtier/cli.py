"""Command-line interface over all mechanisms and the experiment harness.

Every subcommand's output goes to stdout, or to the file named by --out.
Exit codes: 0 success; 1 usage or configuration error; 2 invariant
violation (a mechanism produced an outcome breaking its own contract).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields
from fractions import Fraction
from functools import cache, partial

from . import auction, estimators, harness, quality
from .errors import (
    ConfigError,
    CrowdtierError,
    DomainError,
    InvariantError,
)
from .graph import SocialGraph, load_edge_list
from .harness import ExperimentConfig, stream
from .notifier import Numeric, as_fraction
from .report import canonical_json, csv_cell, jsonable

_ROUND = 1  # --seed s draws the instance of ``crowdtier experiment --seed s``, round 1.


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 (not 2) on usage errors, per the CLI contract."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


# _parse_range and _number are argparse ``type=`` callables too.  They raise
# ConfigError, which argparse does not wrap, so main prints their message
# alone as the one ``error:`` line.

def _parse_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise ConfigError(f"range must look like LO:HI, got {text!r}") from None
    if lo > hi or lo < 1:
        raise ConfigError(f"range must satisfy 1 <= lo <= hi, got {text!r}")
    return lo, hi


def _typed(convert, noun: str, lo=-math.inf, hi=math.inf):
    """argparse ``type=``: ``convert(text)``, finite and in [lo, hi]."""
    def parse(text: str):
        try:
            value = convert(text)
            if -math.inf < value < math.inf and lo <= value <= hi:
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {noun}, got {text!r}")
    return parse


_positive_int = _typed(int, "a positive integer", 1)
_non_negative_int = _typed(int, "a non-negative integer", 0)
_finite_float = _typed(float, "a finite number")
_non_negative_float = _typed(float, "a finite number >= 0", 0)
_probability = _typed(float, "a probability in [0, 1]", 0, 1)


def _number(text: str, flag: str) -> Fraction:
    """``as_fraction(text)``; a text that is no number gets the flag's own
    message, any other reason (a literal past the digit limit) is kept."""
    try:
        return as_fraction(text)
    except DomainError as exc:
        if str(exc) == f"not a finite rational number: {text!r}":
            raise ConfigError(f"{flag} must be a finite number, got {text!r}") from None
        raise ConfigError(f"{flag}: {exc}") from None


def _load_costs_csv(path: str) -> dict[int, Fraction]:
    costs: dict[int, Fraction] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.lower().startswith("node"):
                continue
            try:
                node, cost = line.split(",")
                node, cost = int(node), as_fraction(cost)
            except (ValueError, DomainError):
                raise ConfigError(
                    f"{path} line {lineno}: expected node_id,cost with an integer id "
                    f"and a finite cost: {line!r}"
                ) from None
            if node in costs:
                raise ConfigError(f"{path} line {lineno}: node {node} is listed twice: {line!r}")
            costs[node] = cost
    return costs


def _load_valuations(path: str, num_tasks: int) -> dict[int, auction.AdditiveValuation]:
    """Device -> {task: value} JSON, every task id in [0, num_tasks)."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        vals = {
            int(d): auction.AdditiveValuation({int(t): v for t, v in per.items()})
            for d, per in json.loads(text).items()
        }
    except (ValueError, AttributeError, DomainError, RecursionError) as exc:
        raise ConfigError(f"{path}: expected {{device: {{task: value}}}} JSON: {exc}") from None
    for d, val in vals.items():
        if any(not 0 <= t < num_tasks for t in val.per_task):
            raise ConfigError(f"{path}: device {d} values a task outside 0..{num_tasks - 1}")
    return vals


def _render(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return canonical_json(payload)
    lines = ["key,value"]
    lines += [f"{key},{csv_cell(value)}" for key, value in sorted(jsonable(payload).items())]
    return "\n".join(lines) + "\n"


def _dense_costs(graph: SocialGraph, args) -> dict[int, Numeric]:
    """Costs on dense node ids, from a CSV keyed by original labels or a
    seeded uniform draw."""
    if args.costs:
        by_label = _load_costs_csv(args.costs)
        missing = [label for label in graph.id_map if label not in by_label]
        if missing:
            raise ConfigError(f"cost file lacks nodes {sorted(missing)[:5]}")
        return {dense: by_label[label] for label, dense in graph.id_map.items()}
    rng = stream("round", args.seed, _ROUND)
    return harness.uniform_costs(range(graph.n), *args.cost_range, rng)


def _cmd_graph_info(args) -> str:
    graph = load_edge_list(args.graph_path)
    degrees = [graph.degree(i) for i in range(graph.n)] or [0]
    return _render({
        "nodes": graph.n,
        "edges": graph.num_edges,
        "max_degree": max(degrees),
        "min_degree": min(degrees),
        "isolated": sum(1 for d in degrees if d == 0),
    }, args.format)


def _cmd_tier1(args) -> str:
    graph = load_edge_list(args.graph_path)
    costs = _dense_costs(graph, args)
    outcome = harness.run_tier1(args.command, graph, costs, args.budget,
                                getattr(args, "delta", None))

    label = {dense: orig for orig, dense in graph.id_map.items()}
    return _render({
        "mechanism": outcome.mechanism,
        "budget": args.budget,
        "selected": [label[i] for i in outcome.selected],
        "payments": {label[i]: p for i, p in outcome.payments.items()},
        "total_payment": outcome.total_payment,
        "notified": sorted(label[i] for i in outcome.notified),
        "budget_feasible": outcome.total_payment <= args.budget,
    }, args.format)


def _cmd_quality(args) -> str:
    # Looked up at call time, so a wrapper on the module attribute sees the call.
    run = quality.ectai_run if args.command == "ectai" else quality.avr_run
    devices = range(args.devices)
    source = harness.peak_source(args.dist, args.mu, args.sigma)
    batch_rng = harness.batch_streams("qbatch", args.seed, _ROUND)
    ranking = run(devices, quality.draw_batches(devices, args.f, args.g, source, batch_rng))
    return _render({
        "mechanism": args.command,
        "ordered": ranking.ordered,
        "batches": [
            {"index": b.index, "aggregate": b.aggregate, "winner": b.winner}
            for b in ranking.batches
        ],
    }, args.format)


def _cmd_wipd(args) -> str:
    if args.valuations:
        vals = _load_valuations(args.valuations, args.num_tasks)
    else:
        vals = harness.additive_values(stream("round", args.seed, _ROUND), args.num_bidders,
                                       args.num_tasks, *args.val_range)
    oracle = auction.BruteForceOracle(vals)
    outcome = auction.wipd_run(
        args.num_tasks, list(vals), oracle, args.epsilon, max_rounds=args.max_rounds,
    )
    return _render({
        "mechanism": "wipd",
        "allocation": {d: sorted(b) for d, b in outcome.allocation.items()},
        "payments": outcome.payments,
        "prices": list(outcome.prices),
        "rounds": outcome.rounds,
    }, args.format)


def _cmd_greedy(args) -> str:
    requests = harness.bundle_requests(stream("round", args.seed, _ROUND), args.num_bidders,
                                       args.num_tasks, *args.val_range)
    outcome = auction.greedy_baseline(requests, num_tasks=args.num_tasks)
    return _render({
        "mechanism": "greedy",
        "requests": {d: [sorted(b), v] for d, (b, v) in requests.items()},
        "allocation": {d: sorted(b) for d, b in outcome.allocation.items()},
        "payments": outcome.payments,
    }, args.format)


def _cmd_estimate(args) -> str:
    model = estimators.NotifyModel(args.degree, args.p)
    if args.estimator == "expected":
        value = estimators.expected_notified(model)
        payload = {"estimator": "expected", "value": value}
    elif args.estimator == "at-least-one":
        exact, bound = estimators.at_least_one(model)
        value = exact
        payload = {"estimator": "at-least-one", "exact": exact, "bound": bound}
    elif args.estimator == "chernoff":
        value = estimators.chernoff_tail(
            estimators.expected_notified(model), args.kappa
        )
        payload = {"estimator": "chernoff", "kappa": args.kappa, "value": value}
    else:
        value = estimators.lemma1_bound(args.degree)
        payload = {"estimator": "lemma1", "value": value}
    if args.out or args.format == "csv":
        return _render(payload, args.format)
    return f"{value}\n"


def _cmd_experiment(args) -> str:
    given = {f.name: getattr(args, f.name) for f in fields(ExperimentConfig)
             if hasattr(args, f.name)}
    given["cost_lo"], given["cost_hi"] = args.cost_range
    given["val_lo"], given["val_hi"] = args.val_range
    report = harness.run_experiment(ExperimentConfig(**given))
    return report.to_json() if args.format == "json" else report.to_csv()


# Every flag, stated once.  A flag whose dest is an ExperimentConfig field
# defaults to that field's default.
_FLAGS = {
    "--mechanism": dict(required=True, choices=harness.MECHANISMS),
    "--graph": dict(dest="graph_path", metavar="GRAPH"),
    "--n": dict(type=_positive_int, dest="synthetic_n", metavar="N"),
    "--edge-prob": dict(type=_probability),
    "--budget": dict(type=partial(_number, flag="--budget")),
    "--delta": dict(type=partial(_number, flag="--delta")),
    "--epsilon": dict(type=partial(_number, flag="--epsilon")),
    "--costs": dict(help="CSV of node_id,cost"),
    "--cost-range": dict(type=_parse_range,
                         default=(ExperimentConfig.cost_lo, ExperimentConfig.cost_hi)),
    "--val-range": dict(type=_parse_range,
                        default=(ExperimentConfig.val_lo, ExperimentConfig.val_hi)),
    "--rounds": dict(type=_positive_int),
    "--deviation-frac": dict(type=_probability),
    "--deviation-delta": dict(type=_positive_int),
    "--devices": dict(type=_positive_int, default=12),
    "--dist": dict(choices=harness.DISTRIBUTIONS),
    "--mu": dict(type=_finite_float),
    "--sigma": dict(type=_non_negative_float),
    "--f": dict(type=_positive_int),
    "--g": dict(type=_positive_int),
    "--num-tasks": dict(type=_positive_int),
    "--bidders": dict(type=_positive_int, dest="num_bidders", metavar="BIDDERS"),
    "--valuations": dict(help="JSON of device -> {task: value}"),
    "--max-rounds": dict(type=_positive_int),
    "--degree": dict(type=_non_negative_int, required=True),
    "--p": dict(type=_probability, default=0.5),
    "--kappa": dict(type=_finite_float, default=1.0),
    "--estimator": dict(choices=("expected", "at-least-one", "chernoff", "lemma1"),
                        default="expected"),
    "--out": dict(help="write the report here instead of stdout"),
    "--format": dict(choices=("json", "csv"), default="json"),
    "--seed": dict(type=int),
}


def _add_flags(p: _Parser, flags: str, **override) -> None:
    """Add the named ``_FLAGS`` entries to ``p``, each updated by ``override``."""
    for flag in flags.split():
        spec = {**_FLAGS[flag], **override}
        dest = spec.setdefault("dest", flag[2:].replace("-", "_"))
        spec.setdefault("default", getattr(ExperimentConfig, dest, None))
        p.add_argument(flag, **spec)


@cache
def build_parser() -> _Parser:
    """The ``crowdtier`` parser, built once per process: building it is
    mostly argparse's help-string lookups, and parsing leaves it unchanged."""
    parser = _Parser(prog="crowdtier", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("graph-info", help="summarize an edge-list graph")
    _add_flags(p, "--graph", required=True)
    _add_flags(p, "--out --format")
    p.set_defaults(func=_cmd_graph_info)

    for name, desc in (
        ("tenm", "greedy allocation with threshold payments"),
        ("ntbfm", "pay-as-bid static-sort baseline"),
        ("psm", "proportional share baseline"),
    ):
        p = sub.add_parser(name, help=desc)
        _add_flags(p, "--graph --budget", required=True)
        _add_flags(p, "--delta --costs" if name == "tenm" else "--costs")
        _add_flags(p, "--cost-range", help="LO:HI for generated costs")
        _add_flags(p, "--out --format --seed")
        p.set_defaults(func=_cmd_tier1)

    for name, desc in (
        ("ectai", "median-aggregated quality ranking"),
        ("avr", "mean-aggregated quality baseline"),
    ):
        p = sub.add_parser(name, help=desc)
        _add_flags(p, "--devices --f --g --dist --mu --sigma --out --format --seed")
        p.set_defaults(func=_cmd_quality)

    p = sub.add_parser("wipd", help="ascending epsilon-increment task auction")
    _add_flags(p, "--num-tasks --bidders --val-range --valuations --epsilon --max-rounds"
                  " --out --format --seed")
    p.set_defaults(func=_cmd_wipd)

    p = sub.add_parser("greedy", help="pay-as-bid greedy task baseline")
    _add_flags(p, "--num-tasks --bidders --val-range --out --format --seed")
    p.set_defaults(func=_cmd_greedy)

    p = sub.add_parser("estimate", help="closed-form notification estimators")
    _add_flags(p, "--degree --p --kappa --estimator --out --format")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("experiment", help="multi-round experiment harness")
    _add_flags(p, "--mechanism --graph --n --edge-prob --budget --delta --epsilon --cost-range"
                  " --val-range --rounds --deviation-frac --deviation-delta --dist --mu --sigma"
                  " --f --g --num-tasks --bidders --out --format --seed")
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        text = args.func(args)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0
    except SystemExit as exc:
        return int(exc.code or 0)
    except InvariantError as exc:
        sys.stderr.write(f"invariant violation: {exc}\n")
        return 2
    except (CrowdtierError, OSError, UnicodeDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
