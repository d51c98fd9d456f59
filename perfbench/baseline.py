"""Repeat the benchmark over seeds 1..N on every workload of
BENCHMARK.json, at its ``run_seconds``, and summarise each end-to-end
metric per workload: median, quartiles and spread (quartile distance as
a share of the median, the figure each metric's bound is compared with).

    python3 perfbench/baseline.py --seeds 10 --sets 2 --out perfbench/BASELINE.json

Runs are interleaved seed by seed across workloads, so slow drift of the
machine touches every workload alike.  With ``--sets 2`` the whole
schedule runs twice and the second set's medians are compared with the
first's against each metric's bound.  Exits 1 when a spread or a drift
exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import run

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    values["run_wall_s"] = time.perf_counter() - start
    return values


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    seeds = range(1, args.seeds + 1)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    sets = []
    for s in range(args.sets):
        values: dict = {w: {} for w in names}
        for seed in seeds:
            for w in names:
                for name, value in run_once(w, seed, spec["run_seconds"]).items():
                    values[w].setdefault(name, []).append(value)
                print(f"set {s + 1} seed {seed} {w} done", file=sys.stderr, flush=True)
        sets.append({w: {n: summarise(v) for n, v in per.items()} for w, per in values.items()})

    ok = True
    for w in names:
        for name, first in sets[0][w].items():
            bound = bounds.get(name)
            spreads = " ".join(f"{later[w][name]['spread']:.4f}" for later in sets)
            line = f"{w:15s} {name:18s} median {first['median']:12.5g} spread {spreads}"
            if bound is None:
                print(line + "  (unbounded)")
                continue
            if any(later[w][name]["spread"] > bound for later in sets):
                ok = False
                line += f"  SPREAD > bound {bound}"
            for later in sets[1:]:
                drift = later[w][name]["median"] / first["median"] - 1
                if better[name] == "higher":
                    drift = -drift
                line += f"  drift {drift:+.4f}"
                if drift > bound:
                    ok = False
                    line += f" > bound {bound}"
            print(line)

    if args.out:
        Path(args.out).write_text(json.dumps({
            "seconds": spec["run_seconds"],
            "seeds": list(seeds),
            "machine": {"nproc": os.cpu_count(), "cpu_model": run.cpu_model(),
                        "python": platform.python_version(), "git_commit": run.git_commit()},
            "sets": sets,
        }, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
