"""Report assembly and canonical serialization.

Reports must be byte-identical across reruns with the same config and
seed, so JSON is emitted with sorted keys, fixed separators, and all
exact rationals rendered as strings.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DomainError

SCHEMA_VERSION = 1


def jsonable(value):
    """Recursively convert report values to canonical JSON-safe forms.

    Raises DomainError for a rational whose numerator or denominator has
    more digits than the interpreter converts to text
    (``sys.get_int_max_str_digits()``).
    """
    if isinstance(value, Fraction):
        try:
            return str(value) if value.denominator != 1 else str(value.numerator)
        except ValueError:
            raise DomainError(
                f"a reported number has more than {sys.get_int_max_str_digits()} digits"
            ) from None
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (set, frozenset)):
        return [jsonable(v) for v in sorted(value)]
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, float):
        # round-trippable, locale-independent rendering
        return value
    return value


def csv_cell(value) -> str:
    """One CSV cell: lists and dicts as compact canonical JSON with the
    commas turned into semicolons, anything else as its text."""
    value = jsonable(value)
    if isinstance(value, (list, dict)):
        return json.dumps(value, sort_keys=True, separators=(",", ":")).replace(",", ";")
    return str(value)


def canonical_json(payload: dict) -> str:
    return json.dumps(jsonable(payload), sort_keys=True, separators=(",", ":")) + "\n"


def config_digest(config: dict) -> str:
    return hashlib.sha256(canonical_json(config).encode("utf-8")).hexdigest()[:16]


@dataclass
class RoundMetrics:
    round: int
    metrics: dict[str, object] = field(default_factory=dict)


@dataclass
class MechanismReport:
    mechanism: str
    config: dict
    seed: int
    rounds: list[RoundMetrics] = field(default_factory=list)
    budget_feasible: bool = True
    deviation_witnesses: list[dict] = field(default_factory=list)

    def add_round(self, round_index: int, **metrics) -> None:
        self.rounds.append(RoundMetrics(round_index, dict(metrics)))

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "mechanism": self.mechanism,
            "config": self.config,
            "config_digest": config_digest(self.config),
            "seed": self.seed,
            "budget_feasible": self.budget_feasible,
            "rounds": [
                {"round": r.round, "metrics": r.metrics} for r in self.rounds
            ],
            "deviation_witnesses": self.deviation_witnesses,
        }

    def to_json(self) -> str:
        return canonical_json(self.to_dict())

    def to_csv(self) -> str:
        """One row per (round, mechanism, metric) for plot tooling."""
        lines = ["round,mechanism,metric,value"]
        for r in self.rounds:
            for metric in sorted(r.metrics):
                lines.append(f"{r.round},{self.mechanism},{metric},{csv_cell(r.metrics[metric])}")
        return "\n".join(lines) + "\n"
