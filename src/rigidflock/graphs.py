"""Directed observation topology and its connectivity metrics.

An edge (i, j) means agent i observes agent j. The sorted edge index, built
once, answers the structural queries; connectivity, the Laplacian and its
Fiedler value are those of the undirected underlying graph (unit weights).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np


def _edge(pair) -> tuple:
    """(i, j) of a pair of Python or numpy integers; a bool is no integer."""
    try:
        i, j = pair
        if not isinstance(i, bool) and not isinstance(j, bool):
            return operator.index(i), operator.index(j)
    except (TypeError, ValueError):
        pass
    raise TypeError(f"edge {pair!r} is not a pair of integers")


@dataclass(frozen=True)
class ObservationGraph:
    """Directed graph over ``n`` agents from any iterable of edge pairs."""

    n: int
    edges: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        edges = frozenset(map(_edge, self.edges))
        for i, j in edges:
            if i == j:
                raise ValueError(f"self-loop ({i}, {j}) is not allowed")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"edge ({i}, {j}) out of range for n={self.n}")
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_index", np.array(
            sorted(edges), dtype=int).reshape(-1, 2).T)
        self._index.flags.writeable = False

    @classmethod
    def complete(cls, n: int) -> "ObservationGraph":
        """Fully connected graph with mutual observations."""
        return cls(n, [(i, j) for i in range(n) for j in range(n) if i != j])

    def sorted_edges(self) -> list:
        """Edges in lexicographic order; the canonical stacking order."""
        return sorted(self.edges)

    def edge_index(self):
        """Read-only (2, E) (observer, observed) index of sorted_edges()."""
        return self._index


def is_connected(g: ObservationGraph) -> bool:
    """True iff the undirected underlying graph is connected."""
    adj = [[] for _ in range(g.n)]
    for i, j in g.edges:
        adj[i].append(j)
        adj[j].append(i)
    seen, stack = {0}, [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n


def count_passive_sinks(g: ObservationGraph) -> int:
    """Number of observed agents that observe nobody themselves.

    Such an agent is passive (it computes no control input). At most one is
    admissible in a distributable scenario; callers treat >1 as invalid.
    """
    out_deg, in_deg = (np.bincount(r, minlength=g.n) for r in g.edge_index())
    return int(np.count_nonzero((in_deg > 0) & (out_deg == 0)))


def laplacian(g: ObservationGraph) -> np.ndarray:
    """Unit-weight Laplacian of the undirected underlying graph."""
    adj = np.zeros((g.n, g.n))
    obs_i, obs_j = g.edge_index()
    adj[obs_i, obs_j] = adj[obs_j, obs_i] = 1.0
    return np.diag(adj.sum(axis=1)) - adj


def fiedler_value(g: ObservationGraph) -> float:
    """Second-smallest Laplacian eigenvalue; zero iff disconnected."""
    if g.n < 2:
        raise ValueError("Fiedler value needs at least two vertices")
    return max(float(np.linalg.eigvalsh(laplacian(g))[1]), 0.0)
