"""Differential tests: ``plan_batches``, which draws reviewers by pool index
and shrinks one sorted ``unranked`` list in place, must return exactly the
scripts and peaks of the list-rebuilding reference (``reference_quality``)."""

import math
import random
from collections.abc import Sequence

import pytest

import reference_quality as ref
from crowdtier import NormalPeaks, UniformPeaks
from crowdtier.quality import plan_batches

SOURCES = {"uniform": UniformPeaks(), "normal": NormalPeaks(0.4, 0.25)}


def sample_setsize(k):
    """Largest population ``random.sample`` copies into a list for k draws
    (21 for k <= 5, 85 for 6 <= k <= 21); above it the draws go through a
    set of indices instead."""
    setsize = 21
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    return setsize


def assert_same(devices, f, g, source, tag):
    def batch_rng(batch):
        return random.Random(f"{tag}:{batch}")

    got = plan_batches(devices, f, g, source, batch_rng)
    want = ref.plan_batches(devices, f, g, source, batch_rng)
    assert got == want
    return got[0]


class Population(Sequence):
    """A range that records whether ``random.sample`` copied it whole."""

    def __init__(self, n):
        self.n, self.copied = n, False

    def __len__(self):
        return self.n

    def __getitem__(self, i):
        return range(self.n)[i]

    def __iter__(self):
        self.copied = True
        return iter(range(self.n))


@pytest.mark.parametrize("k", [1, 5, 7, 12, 20, 22])
def test_sample_setsize_is_where_sample_stops_copying(k):
    for n, copied in ((sample_setsize(k), True), (sample_setsize(k) + 1, False)):
        population = Population(n)
        random.Random(k).sample(population, k)
        assert population.copied is copied


@pytest.mark.parametrize("source", sorted(SOURCES))
@pytest.mark.parametrize("f,g", [(1, 1), (3, 3), (5, 7), (2, 9), (6, 12), (1, 20), (4, 22)])
def test_contiguous_ids_across_sample_branches(source, f, g):
    # The smallest populations, every n whose full-batch pool sits within a
    # few devices of the reviewer threshold, and a few large populations:
    # reviewer pools fall on both sides of the threshold, and the shrinking
    # unranked list crosses the panel draw's own threshold.
    edge = sample_setsize(g) + f
    sizes = sorted({*range(f + g, f + g + 12), *range(edge - 4, edge + 5), 150, 300, 1001})
    branches = set()
    for n in sizes:
        scripts = assert_same(range(n), f, g, SOURCES[source], f"c:{n}:{f}:{g}")
        branches.update(n - len(s.eta) <= sample_setsize(g) for s in scripts)
    assert branches == {True, False}


@pytest.mark.parametrize("source", sorted(SOURCES))
def test_sparse_and_duplicate_ids(source):
    rng = random.Random(f"sparse:{source}")
    for t in range(120):
        f, g = rng.randint(1, 8), rng.randint(1, 14)
        n = rng.randint(f + g, 260)
        devices = rng.sample(range(-50, 20 * n), n)
        devices += rng.choices(devices, k=rng.randint(0, 6))
        rng.shuffle(devices)
        scripts = assert_same(devices, f, g, SOURCES[source], f"s:{t}")
        if n % f:
            assert len(scripts[-1].eta) == n % f


def test_large_population():
    scripts = assert_same(range(7, 7 + 3 * 2997, 3), 5, 7, UniformPeaks(), "large")
    assert len(scripts) == 600
