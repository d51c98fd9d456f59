"""Tier-2 quality identification: batch devices onto the [0,1] scale,
collect reviewer peak reports, and pick each batch's winner by the report
median (or the mean, for the AVR baseline).

``draw_batches`` draws each batch on a per-batch stream chosen by the
caller.  A run either walks those draws once, as the harness does,
rewriting deviators' reports on the way, or replays a fixed script, such
as the one ``plan_batches`` collects from the same draws.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

from .errors import ConfigError, DomainError


def median_of(reports: Sequence[float]) -> float:
    """Median with the mechanism's indexing: odd count takes the middle
    order statistic, even count averages the two middle ones."""
    if not reports:
        raise DomainError("median of empty report list")
    ordered = sorted(reports)
    n = len(ordered)
    if n % 2 == 1:
        return ordered[(n + 1) // 2 - 1]
    return (ordered[n // 2 - 1] + ordered[n // 2]) / 2.0


def mean_of(reports: Sequence[float]) -> float:
    """Mean of the reports, summed left to right.  The builtin ``sum`` has
    compensated float rounding since Python 3.12, so it would make
    reports differ between interpreter versions."""
    if not reports:
        raise DomainError("mean of empty report list")
    total = 0
    for report in reports:
        total += report
    return total / len(reports)


def select_quality(panel: Sequence[tuple[int, float]], aggregate: float) -> int:
    """Panel device whose position is nearest the aggregate peak value.

    Ties break to the lowest device id.  Comparisons are those of ``min``
    over ``(distance, id)`` keys, so a NaN aggregate picks the first panel
    device.
    """
    if not panel:
        raise DomainError("empty panel")
    entries = iter(panel)
    winner, position = next(entries)
    best = abs(position - aggregate)
    for device, position in entries:
        distance = abs(position - aggregate)
        if distance < best or distance == best and device < winner:
            winner, best = device, distance
    return winner


def reviewer_regret(true_alpha: float, aggregate: float) -> float:
    """Distance between a reviewer's true peak and the batch aggregate."""
    if not (0.0 <= true_alpha <= 1.0 and 0.0 <= aggregate <= 1.0):
        raise DomainError("peak values live on [0, 1]")
    return abs(true_alpha - aggregate)


# --- reviewer report providers -------------------------------------------

class UniformPeaks:
    """Reviewer peaks drawn uniformly from [0, 1]."""

    def sample(self, rng: random.Random) -> float:
        return rng.random()


class NormalPeaks:
    """Reviewer peaks from a clamped normal distribution.

    Samples outside [0, 1] are clamped rather than resampled so that the
    draw count per batch stays fixed and runs remain seed-reproducible.
    """

    def __init__(self, mu: float = 0.6, sigma: float = 0.3):
        if not (math.isfinite(mu) and 0 <= sigma < math.inf):
            raise DomainError(f"normal peaks need a finite mu and sigma >= 0, got {mu}, {sigma}")
        self.mu = mu
        self.sigma = sigma

    def sample(self, rng: random.Random) -> float:
        return min(1.0, max(0.0, rng.gauss(self.mu, self.sigma)))


@dataclass(frozen=True)
class BatchScript:
    """Fixed batch composition for replay fixtures: who is ranked, who
    reviews, and where the ranked devices sit on the scale."""

    eta: tuple[int, ...]
    reviewers: tuple[int, ...]
    positions: dict[int, float]


@dataclass
class BatchRecord:
    index: int
    panel: list[tuple[int, float]]
    reports: dict[int, float]
    aggregate: float
    winner: int


@dataclass
class QualityRanking:
    """Per-batch audit trail plus the winners in batch order."""

    ordered: list[int] = field(default_factory=list)
    batches: list[BatchRecord] = field(default_factory=list)


def _batch_rng(seed: int, batch: int) -> random.Random:
    # Separate stream per batch so batch composition cannot perturb
    # later batches' draws.
    return random.Random((seed + 1) * 1_000_003 + batch)


def draw_batches(
    devices: Iterable[int],
    f: int,
    g: int,
    peak_source,
    batch_rng: Callable[[int], random.Random],
) -> Iterator[tuple[list[int], list[int], list[tuple[int, float]], list[float]]]:
    """Draw batches until each device is ranked once, yielding each batch's
    ``(eta, reviewers, panel, peaks)``: its ranked devices and its
    reviewers, both sorted, the ``(device, position)`` panel in ``eta``
    order, and each reviewer's peak in ``reviewers`` order.  Batch b draws
    from ``batch_rng(b)`` its f ranked devices, g reviewers from outside
    the panel (ranked devices stay eligible), the panel's positions, then
    the peaks.

    Reviewers are sampled as indices into the pool of sorted devices less
    the panel, and the pool itself is never built.  ``random.sample``
    reads its population only through its length and by position (by
    indexing, or by ``list()`` when it is small), and its random draws
    depend on ``(len(population), k)`` alone, so sampling
    ``range(len(pool))`` takes the same draws from the stream as sampling
    the pool.  Pool index j maps back to ``devices`` index j + c, where c
    counts the panel devices at sorted place k and ``devices`` index p with
    p - k <= j (one ``bisect_right`` over those p - k); the map is
    increasing, so sorted indices give sorted reviewers.  ``unranked`` is
    one sorted list that drops the panel in place, so each panel draw sees
    the same devices in the same order, and no batch copies the population.

    A stream whose ``sample`` ranks a device twice, or draws a reviewer
    index twice or outside the pool, is a ``ConfigError`` naming the batch.
    """
    devices = sorted(set(devices))
    if f < 1 or g < 1:
        raise ConfigError("f and g must be at least 1")
    if f + g > len(devices):
        raise ConfigError(f"f + g = {f + g} exceeds the {len(devices)} available devices")
    unranked = list(devices)
    batch = 0
    while unranked:
        rng = batch_rng(batch)
        eta = sorted(rng.sample(unranked, min(f, len(unranked))))
        if not eta:
            raise ConfigError(f"batch {batch} ranks no device")
        below = []
        for k, d in enumerate(eta):
            at = bisect_left(unranked, d)
            if at == len(unranked) or unranked[at] != d:
                raise ConfigError(f"batch {batch} ranks device {d}, which is not unranked")
            del unranked[at]
            below.append(bisect_left(devices, d) - k)
        pool = len(devices) - len(eta)
        reviewers = []
        last = -1
        for j in sorted(rng.sample(range(pool), g)):
            if not last < j < pool:
                raise ConfigError(f"batch {batch} draws reviewer index {j} twice or "
                                  f"outside the pool 0..{pool - 1}")
            last = j
            reviewers.append(devices[j + bisect_right(below, j)])
        panel = [(d, rng.random()) for d in eta]
        yield eta, reviewers, panel, [peak_source.sample(rng) for _ in reviewers]
        batch += 1


def plan_batches(
    devices: Iterable[int],
    f: int,
    g: int,
    peak_source,
    batch_rng: Callable[[int], random.Random],
) -> tuple[list[BatchScript], dict[tuple[int, int], float]]:
    """The batches of :func:`draw_batches` as replayable scripts, and the
    reviewers' peaks keyed by (batch, reviewer)."""
    scripts: list[BatchScript] = []
    peaks: dict[tuple[int, int], float] = {}
    for batch, (eta, reviewers, panel, drawn) in enumerate(
            draw_batches(devices, f, g, peak_source, batch_rng)):
        scripts.append(BatchScript(tuple(eta), tuple(reviewers), dict(panel)))
        for r, alpha in zip(reviewers, drawn):
            peaks[(batch, r)] = alpha
    return scripts, peaks


def _check_entry(batch: int, entry: BatchScript, population: set[int],
                 unranked: set[int]) -> None:
    """ConfigError naming the first fault of script batch ``batch``, if any."""
    eta, reviewers = set(entry.eta), set(entry.reviewers)
    listed = entry.eta + entry.reviewers
    repeats = len(listed) > len(eta) + len(reviewers) and {d for d in listed if listed.count(d) > 1}
    for bad, fault in ((eta - population, "ranks unknown devices"),
                       (eta - unranked, "re-ranks devices"),
                       (eta - entry.positions.keys(), "gives no position to devices"),
                       (eta & reviewers, "has reviewers inside the ranked panel"),
                       (repeats, "repeats devices"),
                       (reviewers - population, "has unknown reviewers")):
        if bad:
            raise ConfigError(f"scripted batch {batch} {fault} {sorted(bad)}")


def _scripted(devices: Iterable[int], f: int, g: int, peaks,
              script: Sequence[BatchScript]) -> Iterator[tuple[list, dict]]:
    """Each checked script batch's panel and its reports, until every
    device is ranked."""
    if f < 1 or g < 1:
        raise ConfigError("f and g must be at least 1")
    population = set(devices)
    unranked = set(population)
    for batch, entry in enumerate(script):
        if not unranked:
            return
        _check_entry(batch, entry, population, unranked)
        yield ([(d, entry.positions[d]) for d in entry.eta],
               {r: peaks.get((batch, r)) for r in entry.reviewers})
        unranked.difference_update(entry.eta)
    if unranked:
        raise ConfigError(f"script ends before batch {len(script)}")


def _drawn(devices: Iterable[int], f: int, g: int, peak_source,
           seed: int) -> Iterator[tuple[list, dict]]:
    """Each batch :func:`draw_batches` draws on ``seed``'s streams, as its
    panel and its reports."""
    for _, reviewers, panel, peaks in draw_batches(
            devices, f, g, peak_source, lambda batch: _batch_rng(seed, batch)):
        yield panel, dict(zip(reviewers, peaks))


def _rank(batches: Iterable[tuple[list, dict]],
          aggregator: Callable[[Sequence[float]], float]) -> QualityRanking:
    result = QualityRanking()
    for batch, (panel, reports) in enumerate(batches):
        for r, a in reports.items():
            if a is None:
                raise DomainError(f"no scripted report for batch {batch}, reviewer {r}")
            if not 0.0 <= a <= 1.0:
                raise DomainError(f"report {a} from reviewer {r} outside [0, 1]")
        aggregate = aggregator(list(reports.values()))
        winner = select_quality(panel, aggregate)
        result.ordered.append(winner)
        result.batches.append(BatchRecord(batch, panel, reports, aggregate, winner))
    return result


def _run_batches(devices: Iterable[int], f: int, g: int, peaks, seed: int,
                 aggregator: Callable[[Sequence[float]], float],
                 script: Sequence[BatchScript] | None) -> QualityRanking:
    if script is None:
        batches = _drawn(devices, f, g, peaks, seed)
    else:
        batches = _scripted(devices, f, g, peaks, script)
    return _rank(batches, aggregator)


def ectai_run(
    devices: Iterable[int],
    f: int,
    g: int,
    peaks,
    seed: int = 0,
    script: Sequence[BatchScript] | None = None,
) -> QualityRanking:
    """Median-aggregated quality ranking.

    Batches of f unranked devices are placed on [0,1]; g reviewers drawn
    from the rest of the population (ranked devices stay eligible) each
    report a peak, and the device nearest the report median wins the
    batch.  The final batch may be shorter than f.

    Without ``script``, ``peaks`` is a peak source and the batches are
    those :func:`draw_batches` draws on ``seed``'s streams; with it,
    ``peaks`` holds the reports keyed by (batch, reviewer), as
    ``plan_batches`` returns them.
    """
    return _run_batches(devices, f, g, peaks, seed, median_of, script)


def avr_run(
    devices: Iterable[int],
    f: int,
    g: int,
    peaks,
    seed: int = 0,
    script: Sequence[BatchScript] | None = None,
) -> QualityRanking:
    """Mean-aggregated baseline; otherwise identical to :func:`ectai_run`."""
    return _run_batches(devices, f, g, peaks, seed, mean_of, script)
