"""Undirected social graphs and their coverage function h(S).

A node's neighborhood is the set of devices it can notify.  The coverage
value of a set S is the size of the union of the neighborhoods of S; a
selected node counts as covered only when some selected node is its
neighbor.  Neighborhoods are stored as integer bitmasks so that union and
marginal-gain queries are single big-int operations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .errors import DomainError, GraphParseError


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
        if len(self.masks) != self.n:
            raise DomainError(f"n is {self.n}, but {len(self.masks)} node masks were given")
        for i, m in enumerate(self.masks):
            if m >> self.n:
                raise DomainError(f"mask of node {i} references nodes >= n")
            if (m >> i) & 1:
                raise DomainError(f"self-loop at node {i}")
            for j in _bits(m):
                if not (self.masks[j] >> i) & 1:
                    raise DomainError(f"node {i} lists node {j}, but {j} does not list {i}")

    @classmethod
    def _symmetric(cls, masks: list[int], id_map: dict) -> SocialGraph:
        """A graph from masks that are valid by construction: in range,
        loop-free and symmetric.  Skips the O(edges) check of ``__init__``."""
        graph = object.__new__(cls)
        object.__setattr__(graph, "n", len(masks))
        object.__setattr__(graph, "masks", tuple(masks))
        object.__setattr__(graph, "id_map", id_map)
        return graph

    @property
    def num_edges(self) -> int:
        return sum(m.bit_count() for m in self.masks) // 2

    def neighbors(self, i: int) -> frozenset[int]:
        self._check(i)
        return frozenset(_bits(self.masks[i]))

    def degree(self, i: int) -> int:
        self._check(i)
        return self.masks[i].bit_count()

    def _check(self, i) -> None:
        if not isinstance(i, int) or isinstance(i, bool) or not 0 <= i < self.n:
            raise DomainError(f"unknown node id {i!r} (graph has {self.n} nodes)")

    def _union(self, nodes: Iterable[int]) -> int:
        mask = 0
        for i in nodes:
            self._check(i)
            mask |= self.masks[i]
        return mask

    def coverage(self, nodes: Iterable[int]) -> int:
        """h(S) = size of the union of the neighborhoods of S."""
        return self._union(nodes).bit_count()

    def covered(self, nodes: Iterable[int]) -> frozenset[int]:
        """The nodes notified by S: the union of their neighborhoods."""
        return frozenset(_bits(self._union(nodes)))

    def marginal(self, j: int, nodes: Iterable[int]) -> int:
        """h(S + j) - h(S).  Requires j not in S."""
        nodes = list(nodes)
        if j in nodes:
            raise DomainError(f"marginal query with {j} already in the set")
        base = self._union(nodes)
        self._check(j)
        return (self.masks[j] & ~base).bit_count()


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> SocialGraph:
    """Build a graph from 0-based edge pairs (self-loops dropped, deduped)."""
    return SocialGraph._symmetric(_edge_masks(n, edges), {i: i for i in range(n)})


def _edge_masks(n: int, edges: Iterable[tuple[int, int]]) -> list[int]:
    if n < 0:
        raise DomainError(f"n is {n}, expected n >= 0")
    masks = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise DomainError(f"edge ({u}, {v}) outside node range 0..{n - 1}")
        if u == v:
            continue
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def load_edge_list(path) -> SocialGraph:
    """Read the edge-list file at ``path`` (see :func:`parse_edge_list`)."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def parse_edge_list(text: str) -> SocialGraph:
    """Parse whitespace-delimited "u v" edge-list text into a SocialGraph.

    Lines starting with '#' are comments.  Node labels are arbitrary
    integers and are re-indexed densely in order of first appearance;
    self-loops are dropped and duplicate edges collapse.  Empty input
    yields the empty graph.
    """
    id_map: dict[int, int] = {}
    edges: list[tuple[int, int]] = []

    def dense(label: int) -> int:
        if label not in id_map:
            id_map[label] = len(id_map)
        return id_map[label]

    for lineno, raw in enumerate(text.split("\n"), start=1):
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

    return SocialGraph._symmetric(_edge_masks(len(id_map), edges), id_map)
