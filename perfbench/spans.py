"""Span recorder for the traced benchmark run.

Wrappers are installed from here around the package's public functions,
at every module attribute through which the package or the benchmark
looks them up, and removed again when the traced run ends.  Nothing
under ``src/`` is edited: tracing is a property of the run, not of the
program.  Spans are kept in memory and written once as a JSON sidecar.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import Counter, defaultdict

# span name -> modules whose attribute of that name is replaced.  The
# package re-exports every function at top level, and some modules call
# others through a module attribute (``notifier.tenm_run`` looks up
# ``nam_select`` in its own globals, ``harness`` calls ``quality.ectai_run``
# and its own imported ``build_graph``), so each lookup site is patched.
TARGETS = {
    "graph.build_graph": ("crowdtier.graph", "crowdtier.harness", "crowdtier"),
    "notifier.nam_select": ("crowdtier.notifier", "crowdtier"),
    "notifier.npm_prices": ("crowdtier.notifier", "crowdtier"),
    "notifier.tenm_run": ("crowdtier.notifier", "crowdtier"),
    "notifier.ntbfm": ("crowdtier.notifier", "crowdtier"),
    "notifier.psm": ("crowdtier.notifier", "crowdtier"),
    "auction.wipd_run": ("crowdtier.auction", "crowdtier"),
    "auction.greedy_baseline": ("crowdtier.auction", "crowdtier"),
    "quality.ectai_run": ("crowdtier.quality", "crowdtier"),
    "quality.avr_run": ("crowdtier.quality", "crowdtier"),
    "harness.run_experiment": ("crowdtier.harness", "crowdtier"),
    "cli.main": ("crowdtier.cli",),
}


class Tracer:
    """Collects spans ``(id, name, start, end, parent_id, unit_id)`` and
    counters.  ``unit`` is set by the measuring loop before each unit;
    spans recorded during set-up carry ``None``."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.unit = None
        self._stack: list[int] = []
        self._next_id = 0
        self._restore: list[tuple] = []

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, name, start, end, parent, self.unit))

    def _wrap(self, name, fn, before=None, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # --- counter hooks -----------------------------------------------------

    def _after_build(self, args, kwargs, graph):
        self.counts["graph.builds"] += 1
        self.counts["graph.nodes"] += graph.n
        self.counts["graph.edges"] += graph.num_edges

    def _after_prices(self, args, kwargs, payments):
        self.counts["notifier.winners"] += len(payments)

    def _after_ranking(self, args, kwargs, ranking):
        self.counts["quality.batches"] += len(ranking.batches)

    def _after_to_json(self, args, kwargs, text):
        self.counts["report.bytes"] += len(text.encode("utf-8"))

    def _before_wipd(self, args, kwargs):
        if "oracle" in kwargs:
            kwargs = dict(kwargs, oracle=DemandProxy(kwargs["oracle"], self))
        else:
            args = args[:2] + (DemandProxy(args[2], self),) + args[3:]
        return args, kwargs

    # --- installation ------------------------------------------------------

    def install(self) -> None:
        hooks = {
            "graph.build_graph": (None, self._after_build),
            "notifier.npm_prices": (None, self._after_prices),
            "quality.ectai_run": (None, self._after_ranking),
            "quality.avr_run": (None, self._after_ranking),
            "auction.wipd_run": (self._before_wipd, None),
        }
        for name, module_names in TARGETS.items():
            attr = name.split(".", 1)[1]
            home = importlib.import_module(module_names[0])
            traced = self._wrap(name, getattr(home, attr), *hooks.get(name, (None, None)))
            for module_name in module_names:
                self._patch(importlib.import_module(module_name), attr, traced)
        report_cls = importlib.import_module("crowdtier.report").MechanismReport
        self._patch(report_cls, "to_json",
                    self._wrap("report.to_json", report_cls.to_json, after=self._after_to_json))

    def _patch(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # --- summaries ---------------------------------------------------------

    def totals(self) -> tuple[dict, dict]:
        """Per span name: total duration and total self time.

        Self time is a span's duration minus the time covered by its
        direct children; spans of one thread never overlap their siblings.
        """
        child_time: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        for sid, name, start, end, _, _ in self.spans:
            total[name] += end - start
            self_time[name] += end - start - child_time[sid]
        return total, self_time


class DemandProxy:
    """Times and counts ``demand()`` on the oracle handed to ``wipd_run``.

    Bundles enumerated are computed, not observed: a brute-force query
    scores all 2^(m - |holdings|) bundles of unheld tasks.
    """

    def __init__(self, oracle, tracer: Tracer):
        self._oracle = oracle
        self._tracer = tracer
        self._round = None

    def demand(self, device, holdings, prices, epsilon, round_index):
        counts = self._tracer.counts
        if round_index != self._round:
            self._round = round_index
            counts["auction.passes"] += 1
        counts["auction.demand_queries"] += 1
        counts["auction.bundles_enumerated"] += 2 ** (len(prices) - len(holdings))
        with self._tracer.span("auction.demand"):
            demanded = self._oracle.demand(device, holdings, prices, epsilon, round_index)
        if demanded:
            counts["auction.grants"] += 1
        return demanded

    def __getattr__(self, name):
        return getattr(self._oracle, name)
