"""Undirected social graphs and the coverage ("notify") oracle.

A node's neighborhood is the set of devices it can notify.  The coverage
value of a set S is the size of the union of the neighborhoods of S; a
selected node counts as covered only when some selected node is its
neighbor.  Neighborhoods are stored as integer bitmasks so that union and
marginal-gain queries are single big-int operations.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .errors import DomainError, GraphParseError


def _popcount(x: int) -> int:
    return x.bit_count()


@dataclass(frozen=True)
class SocialGraph:
    """Immutable undirected graph over densely indexed nodes 0..n-1.

    ``masks[i]`` is the neighborhood of node i as a bitmask.  ``id_map``
    preserves the original labels of the input file (original -> dense).
    """

    n: int
    masks: tuple[int, ...]
    id_map: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        for i, m in enumerate(self.masks):
            if m >> self.n:
                raise DomainError(f"mask of node {i} references nodes >= n")
            if (m >> i) & 1:
                raise DomainError(f"self-loop at node {i}")

    @property
    def num_edges(self) -> int:
        return sum(_popcount(m) for m in self.masks) // 2

    def neighbors(self, i: int) -> frozenset[int]:
        self._check(i)
        return frozenset(_bits(self.masks[i]))

    def degree(self, i: int) -> int:
        self._check(i)
        return _popcount(self.masks[i])

    def _check(self, i) -> None:
        if not isinstance(i, int) or isinstance(i, bool) or not 0 <= i < self.n:
            raise DomainError(f"unknown node id {i!r} (graph has {self.n} nodes)")

    def id_map_csv(self) -> str:
        """Export the original->dense id map as CSV text."""
        lines = ["original_id,dense_id"]
        for orig, dense in sorted(self.id_map.items(), key=lambda kv: kv[1]):
            lines.append(f"{orig},{dense}")
        return "\n".join(lines) + "\n"


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> SocialGraph:
    """Build a graph from 0-based edge pairs (self-loops dropped, deduped)."""
    masks = [0] * n
    for u, v in edges:
        if u == v:
            continue
        if not (0 <= u < n and 0 <= v < n):
            raise DomainError(f"edge ({u}, {v}) outside node range 0..{n - 1}")
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return SocialGraph(n=n, masks=tuple(masks), id_map={i: i for i in range(n)})


def load_edge_list(source) -> SocialGraph:
    """Parse a whitespace-delimited "u v" edge list into a SocialGraph.

    Accepts a path, a text/byte stream, or a string.  Lines starting with
    '#' are comments.  Node labels are arbitrary integers and are
    re-indexed densely in order of first appearance; self-loops are
    dropped and duplicate edges collapse.  Empty input yields the empty
    graph.
    """
    if isinstance(source, (str,)) and "\n" not in source and source.strip() and _looks_like_path(source):
        with open(source, "r", encoding="utf-8") as fh:
            return load_edge_list(fh)
    if isinstance(source, str):
        source = io.StringIO(source)
    elif isinstance(source, bytes):
        source = io.StringIO(source.decode("utf-8"))
    elif isinstance(source, io.BufferedIOBase) or (hasattr(source, "read") and "b" in getattr(source, "mode", "")):
        source = io.TextIOWrapper(source, encoding="utf-8")

    id_map: dict[int, int] = {}
    edges: list[tuple[int, int]] = []

    def dense(label: int) -> int:
        if label not in id_map:
            id_map[label] = len(id_map)
        return id_map[label]

    for lineno, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphParseError(lineno, line, "expected two whitespace-separated node ids")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError(lineno, line, "node ids must be integers") from None
        if u < 0 or v < 0:
            raise GraphParseError(lineno, line, "node ids must be non-negative")
        edges.append((dense(u), dense(v)))

    n = len(id_map)
    graph = build_graph(n, edges)
    return SocialGraph(n=n, masks=graph.masks, id_map=dict(id_map))


def _looks_like_path(s: str) -> bool:
    import os

    return os.path.exists(s)


class CoverageOracle:
    """Coverage queries over a SocialGraph, optionally with a node
    excluded from candidacy.

    ``without_node(j)`` returns a view in which j can no longer be
    selected but remains notifiable: the payment rerun drags the winner
    out of the market as a bidder while the remaining candidates still
    get coverage credit for notifying it.  Instances are immutable and
    safe to share; incremental covered-set state lives in
    :class:`CoverageSession` objects created per query session.
    """

    def __init__(self, graph: SocialGraph, excluded: int | None = None):
        self.graph = graph
        self.excluded = excluded
        if excluded is not None:
            graph._check(excluded)
        self._masks = graph.masks

    @property
    def n(self) -> int:
        return self.graph.n

    def without_node(self, j: int) -> "CoverageOracle":
        if self.excluded is not None:
            raise DomainError("oracle already has an excluded node")
        return CoverageOracle(self.graph, excluded=j)

    def candidates(self) -> list[int]:
        """Node ids eligible for selection under this oracle."""
        return [i for i in range(self.n) if i != self.excluded]

    def union_mask(self, nodes: Iterable[int]) -> int:
        mask = 0
        for i in nodes:
            self.graph._check(i)
            if i == self.excluded:
                raise DomainError(f"node {i} is excluded from this oracle")
            mask |= self._masks[i]
        return mask

    def coverage(self, nodes: Iterable[int]) -> int:
        """h(S) = size of the union of the neighborhoods of S."""
        return _popcount(self.union_mask(nodes))

    def covered(self, nodes: Iterable[int]) -> frozenset[int]:
        return frozenset(_bits(self.union_mask(nodes)))

    def marginal(self, j: int, nodes: Iterable[int]) -> int:
        """h(S + j) - h(S).  Requires j not in S."""
        nodes = list(nodes)
        if j in nodes:
            raise DomainError(f"marginal query with {j} already in the set")
        base = self.union_mask(nodes)
        self.graph._check(j)
        if j == self.excluded:
            raise DomainError(f"node {j} is excluded from this oracle")
        return _popcount(self._masks[j] & ~base)

    def session(self) -> "CoverageSession":
        return CoverageSession(self)


class CoverageSession:
    """Mutable covered-set accumulator for one greedy run.

    Never shared between independent mechanism runs.
    """

    def __init__(self, oracle: CoverageOracle):
        self._masks = oracle._masks
        self.mask = 0

    @property
    def value(self) -> int:
        return _popcount(self.mask)

    def gain(self, j: int) -> int:
        return _popcount(self._masks[j] & ~self.mask)

    def add(self, j: int) -> None:
        self.mask |= self._masks[j]
