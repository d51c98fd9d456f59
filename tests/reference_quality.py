"""Test-only references for tier-2 batch planning and winner selection.

``plan_batches`` is the straightforward planner the package shipped
before it drew reviewers by index: every batch copies the population into
a fresh ``pool`` list for ``rng.sample`` and rebuilds ``unranked``
without the panel, O(n) per batch.  It returns each batch as the
``(eta, reviewers, panel, peaks)`` tuple of lists that ``draw_batches``
yields.  ``select_quality`` is the one-line
``min`` the package used before its plain loop.  The differential tests
compare the package against both.
"""

from __future__ import annotations

from crowdtier.errors import ConfigError


def plan_batches(devices, f, g, peak_source, batch_rng):
    devices = sorted(set(devices))
    if f < 1 or g < 1:
        raise ConfigError("f and g must be at least 1")
    if f + g > len(devices):
        raise ConfigError(f"f + g = {f + g} exceeds the {len(devices)} available devices")
    batches = []
    unranked = devices
    while unranked:
        rng = batch_rng(len(batches))
        eta = sorted(rng.sample(unranked, min(f, len(unranked))))
        chosen = set(eta)
        pool = [d for d in devices if d not in chosen]
        reviewers = sorted(rng.sample(pool, g))
        panel = [(d, rng.random()) for d in eta]
        batches.append((eta, reviewers, panel, [peak_source.peaks(rng, 1)[0] for _ in reviewers]))
        unranked = [d for d in unranked if d not in chosen]
    return batches


def select_quality(panel, aggregate):
    return min(panel, key=lambda e: (abs(e[1] - aggregate), e[0]))[0]
