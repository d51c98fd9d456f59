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
from bisect import bisect_right
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


# --- reviewer report providers -------------------------------------------
#
# ``draw_batches`` asks a peak source for a batch's k peaks in one
# ``peaks(rng, k)`` call.

class UniformPeaks:
    """Reviewer peaks drawn uniformly from [0, 1]."""

    def peaks(self, rng: random.Random, k: int) -> list[float]:
        draw = rng.random
        return [draw() for _ in range(k)]


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

    def peaks(self, rng: random.Random, k: int) -> list[float]:
        gauss, mu, sigma = rng.gauss, self.mu, self.sigma
        return [min(1.0, max(0.0, gauss(mu, sigma))) for _ in range(k)]

    def sample(self, rng: random.Random) -> float:
        """One peak, as ``peaks(rng, 1)`` draws it."""
        return self.peaks(rng, 1)[0]


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


def _sample_indices(getrandbits: Callable[[int], int], n: int, k: int) -> list[int]:
    """k distinct indices into ``range(n)``, 0 <= k <= n, drawn from
    ``getrandbits`` as CPython 3.10-3.13's ``random.Random.sample`` draws
    ``sample(range(n), k)``, in its order.  Up to its set-size threshold
    (21, or 21 + 4^ceil(log4 3k) for k > 5) it swaps in a pool list;
    above it, it collects indices into a set, drawing again on a repeat.
    Each index below a bound m is ``getrandbits(m.bit_length())``, drawn
    again until it is below m, as ``_randbelow_with_getrandbits`` does."""
    setsize = 21
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    drawn = []
    if n <= setsize:
        pool = list(range(n))
        for m in range(n, n - k, -1):
            bits = m.bit_length()
            j = getrandbits(bits)
            while j >= m:
                j = getrandbits(bits)
            drawn.append(pool[j])
            pool[j] = pool[m - 1]
        return drawn
    bits = n.bit_length()
    selected = set()
    for _ in range(k):
        j = getrandbits(bits)
        while j >= n or j in selected:
            j = getrandbits(bits)
        selected.add(j)
        drawn.append(j)
    return drawn


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

    Devices and reviewers are drawn by :func:`_sample_indices` from the
    stream's ``getrandbits``, the positions from its ``random`` and the
    peaks by one ``peak_source.peaks(rng, g)`` call; the stream's own
    ``sample`` is never called.  All of batch b's draws are taken before
    ``batch_rng(b + 1)`` is called, so ``batch_rng`` may reseed and return
    one generator for every batch.

    ``unranked`` holds the places in the sorted ``devices`` of
    the devices not yet ranked; the ranked devices are drawn as indices
    into it and deleted from it in place.  The reviewers are indices into
    the pool of sorted devices less the panel, which is never built: pool
    index j maps back to ``devices`` index j + c, where c counts the panel
    devices at sorted place k and ``devices`` index p with p - k <= j (one
    ``bisect_right`` over those p - k).  The map is increasing, so sorted
    indices give sorted reviewers, and no batch copies the population.
    """
    devices = sorted(set(devices))
    if f < 1 or g < 1:
        raise ConfigError("f and g must be at least 1")
    if f + g > len(devices):
        raise ConfigError(f"f + g = {f + g} exceeds the {len(devices)} available devices")
    draw_peaks = peak_source.peaks
    unranked = list(range(len(devices)))
    batch = 0
    while unranked:
        rng = batch_rng(batch)
        getrandbits = rng.getrandbits
        taken = sorted(_sample_indices(getrandbits, len(unranked), min(f, len(unranked))))
        places = [unranked[t] for t in taken]
        for t in reversed(taken):
            del unranked[t]
        below = [p - k for k, p in enumerate(places)]
        eta = [devices[p] for p in places]
        reviewers = [devices[j + bisect_right(below, j)]
                     for j in sorted(_sample_indices(getrandbits, len(devices) - len(eta), g))]
        panel = [(d, rng.random()) for d in eta]
        yield eta, reviewers, panel, draw_peaks(rng, g)
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
