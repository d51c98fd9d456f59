"""crowdtier benchmark: one closed-loop caller, four workloads.

    python3 perfbench/run.py --workload tenm-dense --seed 1 --seconds 25 --trace 0

Run from a checkout of the repository; the package is imported from its
``src/`` directory.  One caller starts the next unit of work only when
the previous one has returned.  Units repeat until ``--seconds`` have
passed, and at least ``digest_units`` of them always run, so the digest
gate has a fixed set of outputs to hash.

``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` sets up with span wrappers installed, then runs every unit
twice back to back, once untraced and once with the wrappers installed,
alternating which goes first.  It prints the per-layer metrics and the
tracing overhead (the median over the pairs of traced over untraced
latency, minus one), and writes every span to
``perfbench/out/trace-<workload>-seed<seed>.json``.

The last line of standard output is the result object; the lines before
it are a readable report and a ``# meta`` line.  The exit code is 1 when
any unit failed its checks or the digest gate.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1
SETUP_REPEATS = 5
# Percentiles tried for the tail, highest first; the tail is the highest
# one with at least ten samples beyond it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)


def _cpu_s() -> float:
    """CPU seconds of this process (exact) plus its waited-for children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    """Peak resident memory of this process, the one that runs the
    program.  Children are left out: the only child is the set-up's
    import check, and the kernel keeps only the largest child's peak,
    so it could not give the total of a pool of workers anyway."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def tail(values):
    """(percentile, value) of the highest ladder percentile with at least
    ten samples beyond it, or None when there are too few samples."""
    for p in TAIL_LADDER:
        if len(values) * (1 - p / 100.0) >= 10:
            return p, percentile(values, p)
    return None


class Pass:
    """Latencies, CPU times, outputs and failures of one measuring pass."""

    def __init__(self):
        self.latency: list[float] = []
        self.cpu: list[float] = []
        self.texts: list[str] = []
        self.failures: list[str] = []

    @property
    def units(self) -> int:
        return len(self.latency)

    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.texts).encode("utf-8")).hexdigest()


def run_unit(workload, i: int, run: Pass, tracer=None) -> None:
    """Run, time and check unit ``i``, and record it in ``run``.  Only the
    program call is timed; checking the output is not.  With a tracer,
    its wrappers are installed for the call only."""
    error = None
    if tracer is not None:
        tracer.install()
        tracer.unit = i
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = workload.unit(i)
        else:
            with tracer.span("bench.unit"):
                result = workload.unit(i)
    except Exception as exc:  # a failing unit is counted, and the loop goes on
        error = exc
    finally:
        run.latency.append(time.perf_counter() - t0)
        run.cpu.append(_cpu_s() - cpu0)
        if tracer is not None:
            tracer.unit = None
            tracer.uninstall()
    if error is None:
        try:
            text = workload.check(i, result)
        except Exception as exc:  # same: a wrong output is a failed unit
            error = exc
    if error is not None:
        run.failures.append(f"unit {i}: {type(error).__name__}: {error}")
        text = f"FAILED {type(error).__name__}"
    if i < workload.digest_units:
        run.texts.append(text)


def measure(workload, seconds: float, tracer=None) -> tuple[Pass, Pass]:
    """Run units closed-loop until ``seconds`` pass and at least
    ``digest_units`` ran.  Without a tracer every unit runs once, in the
    first pass.  With one, every unit runs untraced (first pass) and
    traced (second pass) back to back, the traced run first on odd
    units, so both passes see the same inputs and the same stretch of
    machine time."""
    untraced, traced = Pass(), Pass()
    deadline = time.perf_counter() + seconds
    i = 0
    while i < workload.digest_units or time.perf_counter() < deadline:
        if tracer is None:
            run_unit(workload, i, untraced)
        else:
            pair = [(untraced, None), (traced, tracer)]
            for run, t in (pair if i % 2 == 0 else pair[::-1]):
                run_unit(workload, i, run, t)
        i += 1
    return untraced, traced


def measure_setup(workload, seed: int) -> list[float]:
    """Set up ``SETUP_REPEATS`` times: a fresh interpreter importing the
    package, then input generation in this process.  The last set-up's
    inputs are the ones measured."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import crowdtier"], env=env,
                       check=True, timeout=120)
        workload.setup(seed)
        samples.append(time.perf_counter() - t0)
    return samples


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def metadata(args, samples: dict) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "samples": samples,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
    }


def end_to_end(setup: list[float], run: Pass) -> dict:
    """End-to-end metrics for the result line.  CPU time is per unit: a
    run of fixed length has a fixed total."""
    return {
        "setup_s": (statistics.median(setup), "s"),
        "throughput_per_s": (run.units / sum(run.latency), "1/s"),
        "latency_p50_ms": (statistics.median(run.latency) * 1000.0, "ms"),
        "cpu_s": (sum(run.cpu) / run.units, "s/unit"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }


def per_layer(tracer, setup_counts, untraced: Pass, traced: Pass, wall_s: float):
    """Per-layer metrics for the result line, and the absolute times they
    derive from, for the sidecar and the readable report.

    The result line carries counts per traced unit and times as shares of
    the traced wall time (set-up plus traced units), so no metric there is a
    time that reads zero on a workload that never calls that layer.
    """
    total, self_time = tracer.totals()
    counts = tracer.counts
    per_unit = tracer.counts - setup_counts
    calls = Counter(name for _, name, _, _, _, unit in tracer.spans if unit is not None)
    builds = counts["graph.builds"]
    seconds = {
        "graph.build_s": total["graph.build_graph"],
        "notifier.nam_select_s": total["notifier.nam_select"],
        "notifier.npm_prices_s": total["notifier.npm_prices"],
        "auction.wipd_s": total["auction.wipd_run"],
        "auction.demand_s": total["auction.demand"],
        "auction.self_s": total["auction.wipd_run"] - total["auction.demand"],
        "auction.greedy_s": total["auction.greedy_baseline"],
        "quality.ectai_s": total["quality.ectai_run"],
        "quality.avr_s": total["quality.avr_run"],
        # run_experiment minus every span under it: instance generation,
        # the synthetic-graph draw, fixtures and round bookkeeping.
        "harness.self_s": self_time["harness.run_experiment"],
        "report.to_json_s": total["report.to_json"],
        "cli.self_s": self_time["cli.main"],
    }

    def share(part: float, base: float) -> float:
        return part / base if base else 0.0

    tier1 = seconds["notifier.nam_select_s"] + seconds["notifier.npm_prices_s"]
    untraced_p50 = statistics.median(untraced.latency)
    traced_p50 = statistics.median(traced.latency)
    # Both passes ran the same units in pairs, so each ratio compares one
    # input at one moment; their median is the tracer's own cost.
    overhead = statistics.median(t / u for t, u in zip(traced.latency, untraced.latency)) - 1
    rerun_s = share(seconds["notifier.npm_prices_s"], counts["notifier.winners"])
    absolute = {
        "trace.untraced_p50_ms": (untraced_p50 * 1000.0, "ms"),
        "trace.traced_p50_ms": (traced_p50 * 1000.0, "ms"),
        **{name: (value, "s") for name, value in seconds.items()},
        "notifier.tier1_s": (tier1, "s"),
        "notifier.rerun_ms": (rerun_s * 1000.0, "ms"),
    }
    metrics = {
        "trace.wall_s": (wall_s, "s"),
        "trace.units": (traced.units, "count"),
        "trace.overhead": (overhead, "ratio"),
        "graph.nodes": (share(counts["graph.nodes"], builds), "count/build"),
        "graph.edges": (share(counts["graph.edges"], builds), "count/build"),
    }
    for name, span in (("notifier.nam_select_calls", "notifier.nam_select"),
                       ("notifier.npm_prices_calls", "notifier.npm_prices")):
        metrics[name] = (calls[span] / traced.units, "count/unit")
    for name in ("notifier.winners", "auction.demand_queries", "auction.bundles_enumerated",
                 "auction.passes", "auction.grants", "quality.batches", "report.bytes"):
        metrics[name] = (per_unit[name] / traced.units, "count/unit")
    metrics.update({
        "notifier.payment_share": (share(seconds["notifier.npm_prices_s"], tier1), "ratio"),
        "auction.grant_ratio": (share(counts["auction.grants"], counts["auction.demand_queries"]),
                                "ratio"),
        "auction.demand_wipd_share": (share(seconds["auction.demand_s"], seconds["auction.wipd_s"]),
                                      "ratio"),
    })
    for name, value in seconds.items():
        metrics[name[: -len("_s")] + "_share"] = (share(value, wall_s), "ratio")
    return metrics, absolute


def _format(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "crowdtier" / "__init__.py").is_file():
        sys.stderr.write(f"error: no crowdtier package under {SRC}; run from a full checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import workloads  # noqa: E402  (needs the package on sys.path)

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]()
    pinned = json.loads((BENCH / "digests.json").read_text())[workload.name]

    if not args.trace:
        setup = measure_setup(workload, args.seed)
        passes = measure(workload, args.seconds)[:1]
        metrics, absolute = end_to_end(setup, passes[0]), {}
        samples = {"setup_s": len(setup), "units": passes[0].units}
    else:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            start = time.perf_counter()
            with tracer.span("bench.setup"):
                workload.setup(args.seed)
            setup_s = time.perf_counter() - start
        finally:
            tracer.uninstall()
        setup_counts = Counter(tracer.counts)
        untraced, traced = measure(workload, args.seconds, tracer)
        passes = [untraced, traced]
        wall_s = setup_s + sum(traced.latency)
        metrics, absolute = per_layer(tracer, setup_counts, untraced, traced, wall_s)
        samples = {"units_untraced": untraced.units, "units_traced": traced.units,
                   "spans": len(tracer.spans)}

    attempted = sum(p.units for p in passes)
    failures = [f for p in passes for f in p.failures]
    failed = len(failures)
    digests = [p.digest() for p in passes]
    gate = args.seed == DEFAULT_SEED
    if gate and any(d != pinned for d in digests):
        failures.append(f"digest {digests} != pinned {pinned} over the first "
                        f"{workload.digest_units} units")
        failed += workload.digest_units
    for line in failures[:10]:
        sys.stderr.write(f"failure: {line}\n")

    meta = metadata(args, samples)
    meta.update(digest=digests[0], digest_checked=gate, error_rate=failed / attempted,
                absolute=_format(absolute))
    first = passes[0]
    tail_at = tail(first.latency)
    meta["latency_tail_ms"] = (
        {"percentile": tail_at[0], "value": tail_at[1] * 1000.0} if tail_at else None
    )
    if args.trace:
        out = BENCH / "out" / f"trace-{workload.name}-seed{args.seed}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps({
            "meta": meta,
            "counts": dict(tracer.counts),
            "span_fields": ["id", "name", "start", "end", "parent", "unit"],
            "spans": sorted(tracer.spans),
        }))
        meta["sidecar"] = str(out.relative_to(ROOT))

    print(f"# crowdtier benchmark: workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for name, (value, unit) in {**metrics, **absolute}.items():
        print(f"#   {name:34s} {value:>16.6g} {unit}")
    tail_text = (f"p{tail_at[0]:g} = {tail_at[1] * 1000.0:.3f} ms"
                 if tail_at else f"omitted ({first.units} samples)")
    print(f"#   latency tail: {tail_text}; error_rate = {failed}/{attempted}")
    print("# meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": _format(metrics),
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
