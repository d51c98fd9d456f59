"""Fast self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

Runs every workload once untraced and once traced, at the default seed
and the shortest run length (so only the digest units run), and checks:

- the result line has exactly the keys ``correct``, ``attempted``,
  ``failed`` and ``metrics``;
- the metric names and units printed are exactly those BENCHMARK.json
  lists (``end_to_end`` untraced, ``per_layer`` traced);
- every unit passed its checks and the digest gate, and the traced run
  wrote its span sidecar;
- every name in predictions.json is a metric, workload or sidecar time;
- in a directory holding only BENCHMARK.json and the benchmark's own
  files, the benchmark exits non-zero without printing a result.

Exits 1 and lists the problems when any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from run import DEFAULT_SEED

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(root: Path, workload: str, trace: int) -> tuple[subprocess.CompletedProcess, dict | None]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(DEFAULT_SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc, result


def check_runs(spec: dict, problems: list[str]) -> dict:
    summaries = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc, result = run(ROOT, workload, trace)
            where = f"{workload} --trace {trace}"
            if result is None or set(result) != RESULT_KEYS:
                problems.append(f"{where}: no result line with keys {sorted(RESULT_KEYS)}\n{proc.stderr}")
                continue
            expected = {m["name"]: m["unit"] for m in spec[kind]}
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            if printed != expected:
                problems.append(f"{where}: metrics {printed} differ from BENCHMARK.json {expected}")
            if proc.returncode != 0 or not result["correct"] or result["failed"]:
                problems.append(f"{where}: exit {proc.returncode}, {result['failed']} of "
                                f"{result['attempted']} units failed\n{proc.stderr}")
            if trace:
                sidecar = BENCH / "out" / f"trace-{workload}-seed{DEFAULT_SEED}.json"
                if not sidecar.is_file():
                    problems.append(f"{where}: no sidecar at {sidecar}")
                else:
                    summaries[workload] = json.loads(sidecar.read_text())["meta"]["absolute"]
            print(f"{where}: exit {proc.returncode}, {result['attempted']} units", flush=True)
    return summaries


def check_predictions(spec: dict, summaries: dict, problems: list[str]) -> None:
    known = {
        "result": {m["name"] for m in spec["per_layer"]},
        "moves": {m["name"] for m in spec["end_to_end"]},
        "on": {w["name"] for w in spec["workloads"]},
        "unchanged": {w["name"] for w in spec["workloads"]},
        "sidecar": set().union(*summaries.values()) if summaries else set(),
    }
    table = json.loads((BENCH / "predictions.json").read_text())["predictions"]
    for entry in table:
        for field, names in known.items():
            unknown = set(entry[field]) - names
            if unknown:
                problems.append(f"predictions.json {entry['layer']}: unknown {field} {sorted(unknown)}")


def check_bare(spec: dict, problems: list[str]) -> None:
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    workload = spec["workloads"][0]["name"]
    proc, result = run(bare, workload, 0)
    if proc.returncode == 0 or result is not None:
        problems.append(f"bare directory: exit {proc.returncode}, result {result}")
    shutil.rmtree(bare)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    summaries = check_runs(spec, problems)
    check_predictions(spec, summaries, problems)
    check_bare(spec, problems)
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
