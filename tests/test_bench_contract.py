"""The benchmark's contract with the package.

``perfbench/workloads.py`` calls the package by name and keyword
(``BruteForceOracle(..., policy=)``, ``wipd_run``'s positional oracle,
``greedy_baseline(..., num_tasks=)``), and ``perfbench/spans.py`` patches
module attributes and wraps the oracle handed to ``wipd_run``.  Each
workload's first ``digest_units`` units at the gated seed must hash to
the digest pinned in ``perfbench/digests.json``, both untraced and under
the span tracer, as ``perfbench/run.py`` checks them.
"""

import hashlib
import importlib.util
import json
import pathlib

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
PINNED = json.loads((BENCH / "digests.json").read_text())
SEED = 1


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = load("workloads")
spans = load("spans")


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def workload(request):
    w = workloads.WORKLOADS[request.param]()
    w.setup(SEED)
    return w


def digest(workload, tracer=None) -> str:
    texts = []
    for i in range(workload.digest_units):
        if tracer is None:
            result = workload.unit(i)
        else:
            tracer.install()
            try:
                result = workload.unit(i)
            finally:
                tracer.uninstall()
        texts.append(workload.check(i, result))
    return hashlib.sha256("\n".join(texts).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_first_units_match_pinned_digest(workload, traced):
    tracer = spans.Tracer() if traced else None
    assert digest(workload, tracer) == PINNED[workload.name]
    if traced:
        assert tracer.spans
