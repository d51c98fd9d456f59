"""Differential tests: ``quality._sample_indices`` must draw what
``random.Random.sample`` draws; ``draw_batches``, which draws with it by
pool index and shrinks one sorted ``unranked`` list in place, must yield
batch for batch exactly the batches of the list-rebuilding reference
planner (``reference_quality.plan_batches``), which calls
``random.Random.sample``; and ``select_quality`` must pick what the
reference's ``min`` picks.  The sampler copies CPython's algorithm, so
these tests run on every interpreter the package supports."""

import math
import random
from collections.abc import Sequence

import pytest

import reference_quality as ref
from crowdtier import NormalPeaks, UniformPeaks
from crowdtier.quality import _sample_indices, draw_batches, select_quality

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
    """``draw_batches`` yields, batch for batch, the eta, reviewers, panel
    and peaks that the reference plans; returns the batches."""
    def batch_rng(batch):
        return random.Random(f"{tag}:{batch}")

    planned = ref.plan_batches(devices, f, g, source, batch_rng)
    drawn = list(draw_batches(devices, f, g, source, batch_rng))
    assert len(drawn) == len(planned)
    for b, (batch, want) in enumerate(zip(drawn, planned)):
        assert batch == want, f"batch {b}"
    return drawn


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


@pytest.mark.parametrize("k", range(1, 26))
def test_sample_indices_draws_what_sample_draws(k):
    # Populations of exactly k, on both sides of the set-size threshold,
    # and at the benchmark size; after the draw, both streams must be in
    # the same state, so the later draws of a batch match too.
    edge = sample_setsize(k)
    for n in sorted({k, max(k, edge - 1), edge, edge + 1, 2500}):
        for seed in (0, 1, 7, f"qbatch:{n}:{k}"):
            want, got = random.Random(seed), random.Random(seed)
            assert _sample_indices(got.getrandbits, n, k) == want.sample(range(n), k), (n, seed)
            assert got.getstate() == want.getstate()


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
        batches = assert_same(range(n), f, g, SOURCES[source], f"c:{n}:{f}:{g}")
        branches.update(n - len(eta) <= sample_setsize(g) for eta, _, _, _ in batches)
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
        batches = assert_same(devices, f, g, SOURCES[source], f"s:{t}")
        if n % f:
            assert len(batches[-1][0]) == n % f


def test_large_population():
    batches = assert_same(range(7, 7 + 3 * 2997, 3), 5, 7, UniformPeaks(), "large")
    assert len(batches) == 600


# --- draw_batches, batch for batch ------------------------------------------

@pytest.mark.parametrize("source", sorted(SOURCES))
@pytest.mark.parametrize("f,g", [(1, 1), (3, 3), (5, 7), (2, 9), (6, 12), (4, 22)])
def test_draw_batches_matches_reference_across_sample_branches(source, f, g):
    edge = sample_setsize(g) + f
    sizes = sorted({*range(f + g, f + g + 6), *range(edge - 3, edge + 4), 150, 400})
    branches = set()
    for n in sizes:
        drawn = assert_same(range(n), f, g, SOURCES[source], f"d:{n}:{f}:{g}")
        branches.update(n - len(eta) <= sample_setsize(g) for eta, _, _, _ in drawn)
    assert branches == {True, False}


@pytest.mark.parametrize("source", sorted(SOURCES))
def test_draw_batches_sparse_and_duplicate_ids(source):
    rng = random.Random(f"draw-sparse:{source}")
    for t in range(60):
        f, g = rng.randint(1, 8), rng.randint(1, 14)
        n = rng.randint(f + g, 260)
        devices = rng.sample(range(-50, 20 * n), n)
        devices += rng.choices(devices, k=rng.randint(0, 6))
        rng.shuffle(devices)
        drawn = assert_same(devices, f, g, SOURCES[source], f"ds:{t}")
        assert sorted(d for eta, _, _, _ in drawn for d in eta) == sorted(set(devices))


def test_draw_batches_at_benchmark_size():
    drawn = assert_same(range(2500), 5, 7, UniformPeaks(), "bench")
    assert len(drawn) == 500


# --- select_quality against the min over (distance, id) keys ----------------

def test_select_quality_matches_min_reference():
    rng = random.Random("select")
    nan = float("nan")
    grid = [k / 8 for k in range(9)]
    for _ in range(3000):
        size = rng.randint(1, 7)
        ids = rng.sample(range(-5, 40), size)
        # Positions on a coarse grid make distance ties common.
        positions = [rng.choice(grid) for _ in ids]
        if rng.random() < 0.15:
            positions[rng.randrange(size)] = nan
        panel = list(zip(ids, positions))
        aggregate = rng.choice([*grid, rng.random(), nan])
        assert select_quality(panel, aggregate) == ref.select_quality(panel, aggregate)


@pytest.mark.parametrize("panel, aggregate, winner", [
    ([(4, 0.5), (2, 0.5), (3, 0.5)], 0.25, 2),
    ([(9, 0.75), (5, 0.25)], 0.5, 5),
    ([(3, 0.2), (1, 0.9)], float("nan"), 3),
    ([(3, float("nan")), (1, 0.9)], 0.5, 3),
    ([(3, 0.2), (1, float("nan"))], 0.5, 3),
])
def test_select_quality_ties_and_nan(panel, aggregate, winner):
    assert select_quality(panel, aggregate) == ref.select_quality(panel, aggregate) == winner
