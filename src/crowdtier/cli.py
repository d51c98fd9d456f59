"""Command-line interface over all mechanisms and the experiment harness.

Exit codes: 0 success; 1 usage or configuration error; 2 invariant
violation (a mechanism produced an outcome breaking its own contract).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import auction, estimators, harness, notifier, quality
from .errors import (
    ConfigError,
    CrowdtierError,
    DomainError,
    InvariantError,
)
from .graph import SocialGraph, load_edge_list
from .harness import ExperimentConfig, stream
from .notifier import as_fraction
from .report import canonical_json, jsonable


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 (not 2) on usage errors, per the CLI contract."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _parse_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise ConfigError(f"range must look like LO:HI, got {text!r}") from None
    if lo > hi or lo < 1:
        raise ConfigError(f"range must satisfy 1 <= lo <= hi, got {text!r}")
    return lo, hi


def _number(text: str, flag: str) -> Fraction:
    try:
        return as_fraction(text)
    except DomainError:
        raise ConfigError(f"{flag} must be a finite number, got {text!r}") from None


def _load_costs_csv(path: str) -> dict[int, Fraction]:
    costs: dict[int, Fraction] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.lower().startswith("node"):
                continue
            try:
                node, cost = line.split(",")
                costs[int(node)] = as_fraction(cost)
            except (ValueError, DomainError):
                raise ConfigError(
                    f"{path} line {lineno}: expected node_id,cost with an integer id "
                    f"and a finite cost: {line!r}"
                ) from None
    return costs


def _emit(payload: dict, args) -> None:
    if args.format == "json":
        text = canonical_json(payload)
    else:
        lines = ["key,value"]
        for key, value in sorted(jsonable(payload).items()):
            if isinstance(value, (list, dict)):
                value = json.dumps(value, sort_keys=True, separators=(",", ":")).replace(",", ";")
            lines.append(f"{key},{value}")
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dense_costs(graph: SocialGraph, args) -> dict[int, Fraction]:
    """Costs on dense node ids, from a CSV keyed by original labels or a
    seeded uniform draw."""
    if args.costs:
        by_label = _load_costs_csv(args.costs)
        missing = [label for label in graph.id_map if label not in by_label]
        if missing:
            raise ConfigError(f"cost file lacks nodes {sorted(missing)[:5]}")
        return {dense: by_label[label] for label, dense in graph.id_map.items()}
    lo, hi = _parse_range(args.cost_range)
    rng = stream("costs", args.seed)
    return {i: Fraction(rng.randint(lo, hi)) for i in range(graph.n)}


def _cmd_graph_info(args) -> int:
    graph = load_edge_list(args.graph)
    degrees = [graph.degree(i) for i in range(graph.n)] or [0]
    _emit(
        {
            "nodes": graph.n,
            "edges": graph.num_edges,
            "max_degree": max(degrees),
            "min_degree": min(degrees),
            "isolated": sum(1 for d in degrees if d == 0),
        },
        args,
    )
    return 0


def _cmd_tier1(args) -> int:
    graph = load_edge_list(args.graph)
    costs = _dense_costs(graph, args)
    budget = _number(args.budget, "--budget")
    if args.command == "tenm":
        outcome = notifier.tenm_run(graph, costs, budget, _number(args.delta, "--delta"))
    elif args.command == "ntbfm":
        outcome = notifier.ntbfm(graph, costs, budget)
    else:
        outcome = notifier.psm(costs, budget, graph)

    label = {dense: orig for orig, dense in graph.id_map.items()}
    _emit(
        {
            "mechanism": outcome.mechanism,
            "budget": budget,
            "selected": [label[i] for i in outcome.selected],
            "payments": {label[i]: p for i, p in outcome.payments.items()},
            "total_payment": outcome.total_payment,
            "notified": sorted(label[i] for i in outcome.notified),
            "budget_feasible": outcome.total_payment <= budget,
        },
        args,
    )
    return 0


def _cmd_quality(args) -> int:
    devices = list(range(args.devices))
    if args.dist == "normal":
        source = quality.NormalPeaks(args.mu, args.sigma)
    else:
        source = quality.UniformPeaks()
    runner = quality.ectai_run if args.command == "ectai" else quality.avr_run
    ranking = runner(devices, args.f, args.g, source, seed=args.seed)
    _emit(
        {
            "mechanism": args.command,
            "ordered": ranking.ordered,
            "batches": [
                {"index": b.index, "aggregate": b.aggregate, "winner": b.winner}
                for b in ranking.batches
            ],
        },
        args,
    )
    return 0


def _generated_valuations(args) -> dict[int, auction.AdditiveValuation]:
    lo, hi = _parse_range(args.val_range)
    rng = stream("valuations", args.seed)
    return {
        d: auction.AdditiveValuation(
            {t: rng.randint(lo, hi) for t in range(args.num_tasks)}
        )
        for d in range(args.bidders)
    }


def _cmd_wipd(args) -> int:
    if args.valuations:
        with open(args.valuations, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        vals = {
            int(d): auction.AdditiveValuation({int(t): v for t, v in per.items()})
            for d, per in raw.items()
        }
    else:
        vals = _generated_valuations(args)
    oracle = auction.BruteForceOracle(vals, policy=args.policy)
    outcome = auction.wipd_run(
        args.num_tasks, list(vals), oracle, _number(args.epsilon, "--epsilon"),
        max_rounds=args.max_rounds,
    )
    _emit(
        {
            "mechanism": "wipd",
            "allocation": {d: sorted(b) for d, b in outcome.allocation.items()},
            "payments": outcome.payments,
            "prices": list(outcome.prices),
            "rounds": outcome.rounds,
        },
        args,
    )
    return 0


def _cmd_greedy(args) -> int:
    lo, hi = _parse_range(args.val_range)
    rng = stream("requests", args.seed)
    requests = {}
    for d in range(args.bidders):
        size = rng.randint(1, max(1, args.num_tasks // 2))
        bundle = frozenset(rng.sample(range(args.num_tasks), size))
        requests[d] = (bundle, rng.randint(lo, hi))
    outcome = auction.greedy_baseline(requests, num_tasks=args.num_tasks)
    _emit(
        {
            "mechanism": "greedy",
            "requests": {d: [sorted(b), v] for d, (b, v) in requests.items()},
            "allocation": {d: sorted(b) for d, b in outcome.allocation.items()},
            "payments": outcome.payments,
        },
        args,
    )
    return 0


def _cmd_estimate(args) -> int:
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
        _emit(payload, args)
    else:
        sys.stdout.write(f"{value}\n")
    return 0


def _cmd_experiment(args) -> int:
    config = ExperimentConfig(
        mechanism=args.mechanism,
        graph_path=args.graph,
        synthetic_n=args.n,
        edge_prob=args.edge_prob,
        cost_lo=_parse_range(args.cost_range)[0],
        cost_hi=_parse_range(args.cost_range)[1],
        budget=_number(args.budget, "--budget"),
        delta=_number(args.delta, "--delta"),
        epsilon=_number(args.epsilon, "--epsilon"),
        seed=args.seed,
        rounds=args.rounds,
        deviation_frac=args.deviation_frac,
        deviation_delta=args.deviation_delta,
        dist=args.dist,
        mu=args.mu,
        sigma=args.sigma,
        f=args.f,
        g=args.g,
        num_tasks=args.num_tasks,
        num_bidders=args.bidders,
        val_lo=_parse_range(args.val_range)[0],
        val_hi=_parse_range(args.val_range)[1],
    )
    report = harness.run_experiment(config)
    text = report.to_json() if args.format == "json" else report.to_csv()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _add_output_flags(p: _Parser) -> None:
    p.add_argument("--out", default=None, help="write the report here instead of stdout")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> _Parser:
    parser = _Parser(prog="crowdtier", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("graph-info", help="summarize an edge-list graph")
    p.add_argument("--graph", required=True)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_graph_info)

    for name, desc in (
        ("tenm", "greedy allocation with threshold payments"),
        ("ntbfm", "pay-as-bid static-sort baseline"),
        ("psm", "proportional share baseline"),
    ):
        p = sub.add_parser(name, help=desc)
        p.add_argument("--graph", required=True)
        p.add_argument("--budget", required=True)
        p.add_argument("--delta", default="2")
        p.add_argument("--costs", default=None, help="CSV of node_id,cost")
        p.add_argument("--cost-range", default="20:50", help="LO:HI for generated costs")
        _add_output_flags(p)
        p.set_defaults(func=_cmd_tier1)

    for name, desc in (
        ("ectai", "median-aggregated quality ranking"),
        ("avr", "mean-aggregated quality baseline"),
    ):
        p = sub.add_parser(name, help=desc)
        p.add_argument("--devices", type=int, default=12)
        p.add_argument("--f", type=int, default=3)
        p.add_argument("--g", type=int, default=3)
        p.add_argument("--dist", choices=("uniform", "normal"), default="uniform")
        p.add_argument("--mu", type=float, default=0.6)
        p.add_argument("--sigma", type=float, default=0.3)
        _add_output_flags(p)
        p.set_defaults(func=_cmd_quality)

    p = sub.add_parser("wipd", help="ascending epsilon-increment task auction")
    p.add_argument("--num-tasks", type=int, default=6)
    p.add_argument("--bidders", type=int, default=3)
    p.add_argument("--val-range", default="30:45")
    p.add_argument("--valuations", default=None, help="JSON of device -> {task: value}")
    p.add_argument("--epsilon", default="1")
    p.add_argument("--policy", choices=("paper-literal", "net-gain"), default="paper-literal")
    p.add_argument("--max-rounds", type=int, default=None)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_wipd)

    p = sub.add_parser("greedy", help="pay-as-bid greedy task baseline")
    p.add_argument("--num-tasks", type=int, default=6)
    p.add_argument("--bidders", type=int, default=3)
    p.add_argument("--val-range", default="30:45")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_greedy)

    p = sub.add_parser("estimate", help="closed-form notification estimators")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--kappa", type=float, default=1.0)
    p.add_argument(
        "--estimator",
        choices=("expected", "at-least-one", "chernoff", "lemma1"),
        default="expected",
    )
    _add_output_flags(p)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("experiment", help="multi-round experiment harness")
    p.add_argument("--mechanism", required=True, choices=harness.MECHANISMS)
    p.add_argument("--graph", default=None)
    p.add_argument("--n", type=int, default=50)
    p.add_argument("--edge-prob", type=float, default=0.3)
    p.add_argument("--budget", default="1000")
    p.add_argument("--delta", default="2")
    p.add_argument("--epsilon", default="1")
    p.add_argument("--cost-range", default="20:50")
    p.add_argument("--val-range", default="30:45")
    p.add_argument("--rounds", type=int, default=5)
    p.add_argument("--deviation-frac", type=float, default=0.0)
    p.add_argument("--deviation-delta", type=int, default=5)
    p.add_argument("--dist", choices=("uniform", "normal"), default="uniform")
    p.add_argument("--mu", type=float, default=0.6)
    p.add_argument("--sigma", type=float, default=0.3)
    p.add_argument("--f", type=int, default=3)
    p.add_argument("--g", type=int, default=3)
    p.add_argument("--num-tasks", type=int, default=6)
    p.add_argument("--bidders", type=int, default=3)
    p.add_argument(
        "--workers", type=int, default=1,
        help="worker hint; execution is deterministic regardless of value",
    )
    _add_output_flags(p)
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except InvariantError as exc:
        sys.stderr.write(f"invariant violation: {exc}\n")
        return 2
    except CrowdtierError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
