"""Exception hierarchy shared across the package."""


class CrowdtierError(Exception):
    """Base class for all package errors."""


class GraphParseError(CrowdtierError):
    """Malformed edge-list input. Carries the 1-based line number."""

    def __init__(self, line_number: int, line: str, reason: str):
        self.line_number = line_number
        self.line = line
        super().__init__(f"line {line_number}: {reason}: {line!r}")


class DomainError(CrowdtierError):
    """A query referenced an unknown node or violated a precondition."""


class ConfigError(CrowdtierError):
    """Invalid mechanism or experiment configuration."""


class TerminationError(CrowdtierError):
    """Auction dynamics failed to settle within the round guard."""


class InvariantError(CrowdtierError):
    """A mechanism produced an outcome violating one of its invariants."""
