"""The four benchmark workloads.

Each workload makes its inputs from the run seed in ``setup``, runs one
unit of work through the package's public functions in ``unit``, and
checks that unit's output in ``check``.  ``check`` raises on a wrong
output and otherwise returns the unit's canonical output text, which the
digest gate hashes for the first ``digest_units`` units of a run.

Every call into the package goes through a module attribute at call
time (``ct.tenm_run``, ``ct.cli.main``), so the traced run's wrappers
see it.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction

import crowdtier as ct
import crowdtier.cli  # noqa: F401  (makes ct.cli available)


class UnitFailure(Exception):
    """A unit produced an output that breaks a property the benchmark checks."""


def _rng(*key) -> random.Random:
    return random.Random(":".join(str(k) for k in key))


def _tier1_text(selected, payments) -> str:
    pays = ",".join(f"{i}={payments[i]}" for i in selected)
    return f"selected={selected} payments={pays}"


class TenmDense:
    """``tenm_run`` on random graphs at facebook density (the acceptance 09
    stand-in generator at n=1000), cycling over a few graph seeds."""

    name = "tenm-dense"
    digest_units = 2
    N, EDGES, BUDGET, COSTS, GRAPHS = 1000, 21850, 15000, (20, 50), 4

    def setup(self, seed: int) -> None:
        self.instances = []
        for k in range(self.GRAPHS):
            rng = _rng(self.name, seed, k)
            edges = set()
            while len(edges) < self.EDGES:
                u, v = rng.randrange(self.N), rng.randrange(self.N)
                if u != v:
                    edges.add((min(u, v), max(u, v)))
            graph = ct.build_graph(self.N, sorted(edges))
            costs = {i: rng.randint(*self.COSTS) for i in range(self.N)}
            self.instances.append((graph, costs))

    def unit(self, i: int):
        graph, costs = self.instances[i % self.GRAPHS]
        return ct.tenm_run(graph, costs, self.BUDGET)

    def check(self, i: int, outcome) -> str:
        _, costs = self.instances[i % self.GRAPHS]
        outcome.check(costs=costs)
        return _tier1_text(outcome.selected, outcome.payments)


class TenmSweep:
    """The acceptance 03 truthfulness sweep on sixty instances: every cost
    deviation in [1, 60] of every node is one ``nam_select`` plus
    ``npm_prices`` evaluation, and a unit is a batch of ``BATCH`` of them.

    Sizes are stratified (six instances of each n in 3..12) so every seed
    carries the same mix of graph sizes, and the evaluations are shuffled
    so any prefix of a run samples all instances alike.  Single
    evaluations cost 0.05-3 ms depending on n, so their median sat in a
    gap between sizes and jumped with the seed's mix; a batch of mixed
    sizes has a single-peaked cost.
    """

    name = "tenm-sweep"
    digest_units = 25
    INSTANCES, EDGE_PROB, COSTS, BATCH = 60, 0.3, (1, 60), 20

    def setup(self, seed: int) -> None:
        rng = _rng(self.name, seed)
        lo, hi = self.COSTS
        self.instances = []
        for k in range(self.INSTANCES):
            n = 3 + k % 10
            edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < self.EDGE_PROB]
            graph = ct.build_graph(n, edges)
            true_costs = {i: rng.randint(lo, hi) for i in range(n)}
            budget = 2 * hi * n + rng.randint(0, 500)
            selected, _ = ct.nam_select(graph, true_costs, budget)
            payments = ct.npm_prices(graph, true_costs, budget, selected)
            truthful = [ct.notifier_utility(true_costs[i], payments.get(i, 0), i in payments)
                        for i in range(n)]
            self.instances.append((graph, true_costs, budget, truthful))
        self.deviations = [
            (k, i, report)
            for k, (graph, true_costs, _, _) in enumerate(self.instances)
            for i in range(graph.n)
            for report in range(lo, hi + 1)
            if report != true_costs[i]
        ]
        rng.shuffle(self.deviations)

    def _batch(self, i: int):
        start = i * self.BATCH
        return [self.deviations[(start + j) % len(self.deviations)] for j in range(self.BATCH)]

    def unit(self, i: int):
        results = []
        for k, node, report in self._batch(i):
            graph, true_costs, budget, _ = self.instances[k]
            trial = dict(true_costs)
            trial[node] = report
            selected, notified = ct.nam_select(graph, trial, budget)
            payments = ct.npm_prices(graph, trial, budget, selected)
            utility = ct.notifier_utility(true_costs[node], payments.get(node, 0), node in payments)
            results.append((trial, selected, notified, payments, utility))
        return results

    def check(self, i: int, results) -> str:
        texts = []
        for (k, node, report), result in zip(self._batch(i), results):
            _, _, budget, truthful = self.instances[k]
            trial, selected, notified, payments, utility = result
            ct.NotifierOutcome("tenm", selected, notified, payments,
                               Fraction(budget)).check(costs=trial)
            if utility > truthful[node]:
                raise UnitFailure(
                    f"instance {k} node {node}: reporting {report} pays {utility} "
                    f"> truthful {truthful[node]}"
                )
            texts.append(f"{k},{node},{report} " + _tier1_text(selected, payments))
        return "\n".join(texts)


class WipdAuction:
    """``wipd_run`` with ``BruteForceOracle`` under the paper-literal policy,
    then ``greedy_baseline`` on an instance of the same size; one auction
    of each is one unit.  Bidder counts cycle 3, 4, 5.

    One auction takes 1.9-3.7 s depending on its valuations, so a run
    measures about ten units.  There are more instances than that, so
    each unit of a run is a distinct instance and the run's median
    rests on as many draws as it has units.
    """

    name = "wipd-auction"
    digest_units = 3
    TASKS, VALUES, EPSILON, INSTANCES = 10, (30, 45), 1, 12

    def setup(self, seed: int) -> None:
        self.instances = []
        for k in range(self.INSTANCES):
            rng = _rng(self.name, seed, k)
            bidders = 3 + k % 3
            valuations = {
                d: ct.AdditiveValuation({t: rng.randint(*self.VALUES) for t in range(self.TASKS)})
                for d in range(bidders)
            }
            requests = {}
            for d in range(bidders):
                size = rng.randint(1, self.TASKS // 2)
                requests[d] = (frozenset(rng.sample(range(self.TASKS), size)),
                               rng.randint(*self.VALUES))
            self.instances.append((valuations, requests))

    def unit(self, i: int):
        valuations, requests = self.instances[i % self.INSTANCES]
        oracle = ct.BruteForceOracle(valuations, policy="paper-literal")
        auction = ct.wipd_run(self.TASKS, sorted(valuations), oracle, self.EPSILON)
        greedy = ct.greedy_baseline(requests, num_tasks=self.TASKS)
        return auction, greedy

    def check(self, i: int, result) -> str:
        _, requests = self.instances[i % self.INSTANCES]
        auction, greedy = result
        auction.check()
        taken: set[int] = set()
        for d, bundle in greedy.allocation.items():
            if bundle & taken or bundle != requests[d][0]:
                raise UnitFailure(f"greedy allocation of device {d} is not its disjoint request")
            if greedy.payments[d] != requests[d][1]:
                raise UnitFailure(f"greedy winner {d} not paid its bid")
            taken |= bundle
        return json.dumps({
            "allocation": {d: sorted(b) for d, b in auction.allocation.items()},
            "prices": [str(p) for p in auction.prices],
            "payments": {d: str(p) for d, p in auction.payments.items()},
            "rounds": auction.rounds,
            "greedy_allocation": {d: sorted(b) for d, b in greedy.allocation.items()},
            "greedy_payments": {d: str(p) for d, p in greedy.payments.items()},
        }, sort_keys=True)


class ExperimentMix:
    """One ``crowdtier experiment`` per mechanism, in process through
    ``cli.main``, one round each, written as canonical JSON.  One cycle
    through all seven mechanisms is one unit."""

    name = "experiment-mix"
    digest_units = 1
    COMMON = ("--rounds", "1", "--deviation-frac", "0.2")
    RUNS = (
        ("tenm", ("--n", "200")),
        ("ntbfm", ("--n", "200")),
        ("psm", ("--n", "200")),
        ("wipd", ()),
        ("greedy", ()),
        ("ectai", ("--n", "2500", "--f", "5", "--g", "7")),
        ("avr", ("--n", "2500", "--f", "5", "--g", "7")),
    )

    def setup(self, seed: int) -> None:
        self.seed = seed

    def argv(self, i: int, mechanism: str, extra) -> list[str]:
        # Each cycle gets its own experiment seed, derived from the run seed.
        return ["experiment", "--mechanism", mechanism,
                "--seed", str(self.seed * 100_000 + i), *self.COMMON, *extra]

    def unit(self, i: int):
        reports = []
        for mechanism, extra in self.RUNS:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = ct.cli.main(self.argv(i, mechanism, extra))
            reports.append((mechanism, code, out.getvalue()))
        return reports

    def check(self, i: int, reports) -> str:
        for mechanism, code, text in reports:
            if code != 0:
                raise UnitFailure(f"experiment {mechanism} exited {code}")
            report = json.loads(text)
            feasible = [r["metrics"]["budget_feasible"] for r in report["rounds"]]
            if not (report["budget_feasible"] and all(feasible)):
                raise UnitFailure(f"experiment {mechanism} is not budget feasible")
        return "".join(text for _, _, text in reports)


WORKLOADS = {w.name: w for w in (TenmDense, TenmSweep, WipdAuction, ExperimentMix)}
