"""Mutation check: each entry of ``MUTANTS`` plants one small fault in
``src/``, and the test modules it names must catch it.

    python tests/mutants.py          # every mutant
    python tests/mutants.py 2 7      # the mutants at these indices

For each mutant the runner copies the whole checkout to a temporary
directory, replaces the entry's old text (which must occur exactly once
in its file) and runs ``pytest -x -q`` on the entry's modules inside the
copy.  The whole checkout is copied because ``pyproject.toml`` puts the
checkout's own ``src/`` first on pytest's path: a mutated copy of
``src/`` alone would leave the tests running the unmutated package.  A
mutant is killed when pytest reports a failing test (exit code 1).

Before any mutant, an unmutated copy must pass every named module, so a
failure already present cannot pass for a kill.  The runner exits 1 when
an old text is not found exactly once, when a mutant survives, or when
pytest ends a run in any other way (a collection error, say).  Standard
library only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis")


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    modules: tuple[str, ...]


HARNESS = "src/crowdtier/harness.py"
HARNESS_TESTS = ("tests/test_harness_differential.py",)

MUTANTS = [
    # Tier-1 deviators over-report their cost instead of under-reporting it.
    Mutant(HARNESS,
           "reported[d] = max(1, reported[d] - config.deviation_delta)",
           "reported[d] = reported[d] + config.deviation_delta",
           HARNESS_TESTS),
    # Tier-1 deviator_utility sums every winner, not only the deviators.
    Mutant(HARNESS,
           "deviator_utility = sum((utilities[d] for d in deviators if d in utilities),"
           " Fraction(0))",
           "deviator_utility = total_utility",
           HARNESS_TESTS),
    # Deviating quality reviewers report their true peak.
    Mutant(HARNESS,
           "reports[i] = dict(panel)[quality.select_quality(panel, peaks[i])]",
           "reports[i] = peaks[i]",
           HARNESS_TESTS),
    # Quality regrets are not split by deviator.
    Mutant(HARNESS,
           "(deviator_regrets if rev in deviators else regrets).append(regret)",
           "regrets.append(regret)",
           HARNESS_TESTS),
    # Wipd deviators report their true values.
    Mutant(HARNESS,
           "v.scaled(factor if d in deviators else 1)",
           "v.scaled(1)",
           HARNESS_TESTS),
    # Greedy deviators bid their true values.
    Mutant(HARNESS,
           "as_fraction(bid) * (factor if d in deviators else 1)",
           "as_fraction(bid)",
           HARNESS_TESTS),
    # ntbfm skips a node that does not fit instead of stopping there.
    Mutant("src/crowdtier/notifier.py",
           "            room -= scaled[i] * den\n        else:\n            break\n",
           "            room -= scaled[i] * den\n        else:\n            continue\n",
           ("tests/test_baseline_differential.py",)),
    # Quality ties go to the highest device id.
    Mutant("src/crowdtier/quality.py",
           "distance == best and device < winner",
           "distance == best and device > winner",
           ("tests/test_quality.py",)),
    # The quality ranker accepts a batch that re-ranks a device.
    Mutant("src/crowdtier/quality.py",
           "ranked <= unranked and",
           "ranked <= population and",
           ("tests/test_quality.py", "tests/test_properties.py")),
    # A payment rerun starts with its winner's neighbourhood covered.
    Mutant("src/crowdtier/notifier.py",
           "share, free, h, k = budget_num * scale, (1 << len(masks)) - 1, 0, 0",
           "share, free, h, k = budget_num * scale, ((1 << len(masks)) - 1) & ~reach, 0, 0",
           ("tests/test_notifier_differential.py",)),
    # A payment rerun admits under the damped rule B / 2, not B.
    Mutant("src/crowdtier/notifier.py",
           "if not (m and scaled[i] * (h + m) * budget_den <= share * m):",
           "if not (m and scaled[i] * (h + m) * budget_den * 2 <= share * m):",
           ("tests/test_notifier_differential.py",)),
    # NotifierOutcome.check accepts a total one unit above the budget.
    Mutant("src/crowdtier/notifier.py",
           "if total * self.budget.denominator > self.budget.numerator * den:",
           "if (total - 1) * self.budget.denominator > self.budget.numerator * den:",
           ("tests/test_notifier.py",)),
]


def pytest_in_copy(modules, mutant: Mutant | None = None) -> subprocess.CompletedProcess:
    """``pytest -x -q`` on ``modules`` in a fresh copy of the checkout,
    with ``mutant`` applied to the copy."""
    with tempfile.TemporaryDirectory(prefix="crowdtier-mutant-") as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=SKIP)
        if mutant is not None:
            target = copy / mutant.file
            target.write_text(target.read_text().replace(mutant.old, mutant.new))
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *modules],
            cwd=copy, env=dict(os.environ, PYTHONPATH=str(copy / "src")),
            capture_output=True, text=True,
        )


def tail(run: subprocess.CompletedProcess, lines: int = 15) -> str:
    return "\n".join((run.stdout + run.stderr).splitlines()[-lines:])


def main(argv: list[str]) -> int:
    chosen = [int(a) for a in argv] or list(range(len(MUTANTS)))
    problems = []
    for i in chosen:
        found = (ROOT / MUTANTS[i].file).read_text().count(MUTANTS[i].old)
        if found != 1:
            problems.append(f"mutant {i}: old text found {found} times in {MUTANTS[i].file}")
    if problems:
        print("\n".join(problems))
        return 1

    modules = sorted({m for i in chosen for m in MUTANTS[i].modules})
    baseline = pytest_in_copy(modules)
    if baseline.returncode != 0:
        print(f"the unmutated checkout fails {' '.join(modules)}:\n{tail(baseline)}")
        return 1

    for i in chosen:
        mutant = MUTANTS[i]
        start = time.perf_counter()
        run = pytest_in_copy(mutant.modules, mutant)
        took = time.perf_counter() - start
        old_lines = mutant.old.splitlines()
        first = next(line for line in mutant.new.splitlines() if line not in old_lines).strip()
        if run.returncode == 1:
            print(f"killed   {i}: {mutant.file}: {first!r} ({took:.1f} s)")
        elif run.returncode == 0:
            problems.append(f"mutant {i} survived {' '.join(mutant.modules)}")
            print(f"SURVIVED {i}: {mutant.file}: {first!r} ({took:.1f} s)")
        else:
            problems.append(f"mutant {i}: pytest exited {run.returncode}\n{tail(run)}")
            print(f"ERROR    {i}: {mutant.file}: pytest exited {run.returncode}")
    print("\n".join(problems) or f"all {len(chosen)} mutants killed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
