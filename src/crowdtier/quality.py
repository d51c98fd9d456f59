"""Tier-2 quality identification: batch devices onto the [0,1] scale,
collect reviewer peak reports, and pick each batch's winner by the report
median (or the mean, for the AVR baseline).

``draw_batches`` draws each batch on a per-batch stream chosen by the
caller, as ``(eta, reviewers, panel, peaks)``.  ``ectai_run`` and
``avr_run`` rank batches of that shape, drawn or written by hand; an
experiment round walks the draws itself, rewriting deviators' reports.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

from .errors import ConfigError, DomainError


def _refuse_non_finite(what: str, reports: Sequence[float], total: float) -> None:
    """DomainError naming the first NaN or infinite report, looked for only
    when the reports' ``total`` is not finite, as any such report makes it."""
    if not math.isfinite(total):
        for i, report in enumerate(reports):
            if not math.isfinite(report):
                kind = "a NaN" if report != report else "an infinite"
                raise DomainError(f"{what} of reports with {kind} report at index {i}")


def median_of(reports: Sequence[float]) -> float:
    """Median with the mechanism's indexing: odd count takes the middle
    order statistic, even count averages the two middle ones; a NaN or
    infinite report, which has no place on the [0, 1] scale, is refused."""
    if not reports:
        raise DomainError("median of empty report list")
    _refuse_non_finite("median", reports, sum(reports))
    ordered = sorted(reports)
    n = len(ordered)
    if n % 2 == 1:
        return ordered[(n + 1) // 2 - 1]
    return (ordered[n // 2 - 1] + ordered[n // 2]) / 2.0


def mean_of(reports: Sequence[float]) -> float:
    """Mean of the reports, summed left to right, refusing a NaN or infinite
    report.  The builtin ``sum`` has compensated float rounding since Python
    3.12, so it would make reports differ between interpreter versions."""
    if not reports:
        raise DomainError("mean of empty report list")
    total = 0
    for report in reports:
        total += report
    _refuse_non_finite("mean", reports, total)
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


@dataclass
class BatchRecord:
    index: int
    panel: list[tuple[int, float]]
    reports: dict[int, float]
    aggregate: float
    winner: int


@dataclass
class QualityRanking:
    """Per-batch audit trail; ``ordered`` lists the winners in batch order."""

    batches: list[BatchRecord] = field(default_factory=list)

    @property
    def ordered(self) -> list[int]:
        return [b.winner for b in self.batches]


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


def _fault(batch: int, eta, reviewers, panel, population: set, unranked: set) -> ConfigError:
    """ConfigError naming the fault that :func:`_rank` found in batch ``batch``."""
    ranked, reviewing = set(eta), set(reviewers)
    listed = [*eta, *reviewers]
    for bad, fault in ((ranked - population, "ranks unknown devices"),
                       (ranked - unranked, "re-ranks devices"),
                       (ranked & reviewing, "has reviewers inside the ranked panel"),
                       ({d for d in listed if listed.count(d) > 1}, "repeats devices"),
                       (reviewing - population, "has unknown reviewers")):
        if bad:
            return ConfigError(f"batch {batch} {fault} {sorted(bad)}")
    if not (eta and reviewers):
        return ConfigError(f"batch {batch} needs a ranked device and a reviewer")
    return ConfigError(f"batch {batch} places devices {[d for d, _ in panel]} on its panel, "
                       f"not its ranked devices {list(eta)}")


def _rank(devices: Iterable[int], batches: Iterable[tuple],
          aggregator: Callable[[Sequence[float]], float]) -> QualityRanking:
    population = set(devices)
    unranked = set(population)
    result = QualityRanking()
    for batch, (eta, reviewers, panel, reports) in enumerate(batches):
        ranked = set(eta)
        if not (ranked and reviewers and ranked <= unranked and population.issuperset(reviewers)
                and len(ranked.union(reviewers)) == len(eta) + len(reviewers)
                and len(panel) == len(eta) and {d for d, _ in panel} == ranked):
            raise _fault(batch, eta, reviewers, panel, population, unranked)
        for d, position in panel:
            if not 0.0 <= position <= 1.0:
                raise DomainError(f"batch {batch}: position {position} of device {d} "
                                  "outside [0, 1]")
        if len(reports) != len(reviewers):
            raise DomainError(f"batch {batch} has {len(reports)} reports for "
                              f"{len(reviewers)} reviewers")
        for r, a in zip(reviewers, reports):
            if not 0.0 <= a <= 1.0:
                raise DomainError(f"batch {batch}: report {a} from reviewer {r} outside [0, 1]")
        unranked -= ranked
        aggregate = aggregator(reports)
        result.batches.append(BatchRecord(batch, panel, dict(zip(reviewers, reports)),
                                          aggregate, select_quality(panel, aggregate)))
    if unranked:
        raise ConfigError(f"batches end before batch {len(result.batches)}, "
                          f"with {len(unranked)} devices unranked")
    return result


def ectai_run(devices: Iterable[int], batches: Iterable[tuple]) -> QualityRanking:
    """Median-aggregated quality ranking of ``devices``.

    Each batch is an ``(eta, reviewers, panel, reports)`` tuple, as
    :func:`draw_batches` yields one: the devices it ranks, its reviewers,
    the ``(device, position)`` panel of the ranked devices, and the
    reviewers' reports in order.  The panel device nearest the report
    median wins.  Each device must be ranked by exactly one batch; a batch
    breaking this, or with a missing report or a report or panel position
    outside [0, 1], is refused with an error naming it.
    """
    return _rank(devices, batches, median_of)


def avr_run(devices: Iterable[int], batches: Iterable[tuple]) -> QualityRanking:
    """Mean-aggregated baseline; otherwise identical to :func:`ectai_run`."""
    return _rank(devices, batches, mean_of)
