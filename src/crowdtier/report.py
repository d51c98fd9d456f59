"""Report assembly and canonical serialization.

Reports must be byte-identical across reruns with the same config and
seed, so JSON is emitted with sorted keys, fixed separators, and all
exact rationals rendered as strings.  A report stores only its config and
rounds; its mechanism, seed and budget feasibility are read from them.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DomainError

SCHEMA_VERSION = 1


_PLAIN = frozenset({int, float, str, bool, type(None)})


def jsonable(value):
    """Recursively convert report values to canonical JSON-safe forms.

    Values whose exact type is a plain scalar come back as they are,
    before any ``isinstance`` test: they are most of a report's values.
    Raises DomainError for a rational whose numerator or denominator has
    more digits than the interpreter converts to text
    (``sys.get_int_max_str_digits()``).
    """
    if type(value) in _PLAIN:
        return value
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
class MechanismReport:
    """An experiment's config and its ``{"round": r, "metrics": {...}}`` rounds."""

    config: dict
    rounds: list[dict] = field(default_factory=list)

    @property
    def mechanism(self) -> str:
        return self.config["mechanism"]

    @property
    def budget_feasible(self) -> bool:
        return all(bool(r["metrics"].get("budget_feasible", True)) for r in self.rounds)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "mechanism": self.mechanism,
            "config": self.config,
            "config_digest": config_digest(self.config),
            "seed": self.config["seed"],
            "budget_feasible": self.budget_feasible,
            "rounds": self.rounds,
            "deviation_witnesses": [],
        }

    def to_json(self) -> str:
        return canonical_json(self.to_dict())

    def to_csv(self) -> str:
        """One row per (round, mechanism, metric) for plot tooling."""
        lines = ["round,mechanism,metric,value"]
        for r in self.rounds:
            metrics = r["metrics"]
            for metric in sorted(metrics):
                lines.append(f"{r['round']},{self.mechanism},{metric},{csv_cell(metrics[metric])}")
        return "\n".join(lines) + "\n"
