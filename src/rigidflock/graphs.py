"""Directed observation topology and its connectivity metrics.

An edge (i, j) means agent i observes agent j. Connectivity questions are
asked of the undirected underlying graph (unit weights), which is also what
the Laplacian and its Fiedler value are built on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class ObservationGraph:
    """Directed observation graph over ``n`` agents."""

    n: int
    edges: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        edges = frozenset((int(i), int(j)) for i, j in self.edges)
        for i, j in edges:
            if i == j:
                raise ValueError(f"self-loop ({i}, {j}) is not allowed")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"edge ({i}, {j}) out of range for n={self.n}")
        object.__setattr__(self, "edges", edges)

    @classmethod
    def complete(cls, n: int) -> "ObservationGraph":
        """Fully connected graph with mutual observations."""
        return cls(n, frozenset((i, j) for i in range(n) for j in range(n)
                                if i != j))

    @classmethod
    def from_pairs(cls, n: int, pairs) -> "ObservationGraph":
        return cls(n, frozenset((int(i), int(j)) for i, j in pairs))

    def sorted_edges(self) -> list:
        """Edges in lexicographic order; the canonical stacking order."""
        return sorted(self.edges)

    def undirected_edges(self) -> set:
        return {(min(i, j), max(i, j)) for i, j in self.edges}

    def out_degree(self, i: int) -> int:
        return sum(1 for a, _ in self.edges if a == i)

    def in_degree(self, j: int) -> int:
        return sum(1 for _, b in self.edges if b == j)


def is_connected(g: ObservationGraph) -> bool:
    """True iff the undirected underlying graph is connected."""
    if g.n == 1:
        return True
    adj = [[] for _ in range(g.n)]
    for i, j in g.edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = [False] * g.n
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if not seen[w]:
                seen[w] = True
                count += 1
                stack.append(w)
    return count == g.n


def count_passive_sinks(g: ObservationGraph) -> int:
    """Number of observed agents that observe nobody themselves.

    Such an agent is passive (it computes no control input). At most one is
    admissible in a distributable scenario; callers treat >1 as invalid.
    """
    count = 0
    for v in range(g.n):
        if g.in_degree(v) >= 1 and g.out_degree(v) == 0:
            count += 1
    return count


def laplacian(g: ObservationGraph) -> np.ndarray:
    """Unit-weight Laplacian of the undirected underlying graph."""
    lap = np.zeros((g.n, g.n))
    for i, j in g.undirected_edges():
        lap[i, i] += 1.0
        lap[j, j] += 1.0
        lap[i, j] -= 1.0
        lap[j, i] -= 1.0
    return lap


def fiedler_value(g: ObservationGraph) -> float:
    """Second-smallest Laplacian eigenvalue; zero iff disconnected."""
    if g.n < 2:
        raise ValueError("Fiedler value needs at least two vertices")
    return max(float(np.linalg.eigvalsh(laplacian(g))[1]), 0.0)


def remove_random_edges_keep_connected(g: ObservationGraph, fraction: float,
                                       rng: np.random.Generator
                                       ) -> ObservationGraph:
    """Remove ~``fraction`` of the undirected edge pairs, keeping connectivity.

    Removal operates on bidirectional observation pairs (both directions go
    at once) so no new passive sinks appear. A shuffled single pass is
    maximal: once an edge is a bridge it stays one, so skipped edges can
    never become removable later. Deterministic for a given generator state.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must lie in [0, 1]")
    if not is_connected(g):
        raise ValueError("graph must be connected")
    und = sorted(g.undirected_edges())
    target = int(fraction * len(und))
    if target == 0:
        return g
    order = rng.permutation(len(und))
    edges = set(g.edges)
    removed = 0
    for idx in order:
        if removed == target:
            break
        a, b = und[idx]
        trial = edges - {(a, b), (b, a)}
        candidate = ObservationGraph(g.n, frozenset(trial))
        if is_connected(candidate):
            edges = trial
            removed += 1
    return ObservationGraph(g.n, frozenset(edges))
