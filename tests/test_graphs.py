"""Observation graph topology and connectivity."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rigidflock.graphs import (ObservationGraph, count_passive_sinks,
                               fiedler_value, is_connected, laplacian)
import graph_loops


def g(n, *pairs):
    return ObservationGraph(n, pairs)


def test_validation():
    with pytest.raises(ValueError):
        g(3, (0, 0))
    with pytest.raises(ValueError):
        g(2, (0, 5))
    with pytest.raises(ValueError):
        ObservationGraph(0)
    # edges are pairs of integers: no bool, float, string or other length
    for pair in ((0, True), (0, 1.0), ("0", "1"), (0, 1, 2), (np.True_, 1)):
        with pytest.raises(TypeError, match="not a pair of integers"):
            g(2, pair)
    # numpy integers count, and any iterable is read once
    want = g(3, (0, 1), (2, 1))
    assert ObservationGraph(3, np.array([[0, 1], [2, 1]])) == want
    assert ObservationGraph(3, (e for e in [(2, 1), (0, 1)])) == want


def test_is_connected():
    assert is_connected(ObservationGraph(1))
    assert is_connected(g(3, (0, 1), (1, 2)))
    assert not is_connected(g(4, (0, 1), (2, 3)))
    # direction does not matter for connectivity
    assert is_connected(g(3, (1, 0), (1, 2)))


def test_count_passive_sinks():
    assert count_passive_sinks(g(2, (0, 1), (1, 0))) == 0
    assert count_passive_sinks(g(2, (0, 1))) == 1
    assert count_passive_sinks(g(3, (0, 1), (0, 2))) == 2
    assert count_passive_sinks(ObservationGraph(3)) == 0


def test_fiedler_examples():
    # complete K3: Laplacian 3I - J has eigenvalues {0, 3, 3}
    assert fiedler_value(ObservationGraph.complete(3)) == pytest.approx(3.0)
    # path on 3 vertices: eigenvalues {0, 1, 3}
    assert fiedler_value(g(3, (0, 1), (1, 2))) == pytest.approx(1.0)
    assert fiedler_value(g(4, (0, 1), (2, 3))) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        fiedler_value(ObservationGraph(1))


def test_fiedler_positive_iff_connected():
    rng = np.random.default_rng(10)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        pairs = [(i, j) for i in range(n) for j in range(n)
                 if i != j and rng.random() < 0.3]
        graph = ObservationGraph(n, pairs)
        fied = fiedler_value(graph)
        if is_connected(graph):
            assert fied > 1e-9
        else:
            assert fied < 1e-9


@st.composite
def digraph(draw):
    """A random digraph on 1..9 vertices, possibly empty, with agent 0
    forced to be a passive sink on request."""
    n = draw(st.integers(1, 9))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    edges = set(draw(st.lists(st.sampled_from(pairs), unique=True))
                if pairs else [])
    if n > 1 and draw(st.booleans()):
        edges = {(i, j) for i, j in edges if i != 0} | {(1, 0)}
    return ObservationGraph(n, edges)


@given(digraph())
def test_edge_index_answers_structural_queries(graph):
    index = graph.edge_index()
    want = np.array(sorted(graph.edges), dtype=int).reshape(-1, 2).T
    assert index.dtype == want.dtype and np.array_equal(index, want)
    assert graph.edge_index() is index and not index.flags.writeable
    assert (count_passive_sinks(graph)
            == graph_loops.count_passive_sinks(graph))
    assert laplacian(graph).tobytes() == graph_loops.laplacian(graph).tobytes()
    # init_state's per-agent noise block sizes
    assert np.bincount(index[0], minlength=graph.n).tolist() == [
        graph_loops.observations_by(graph, a) for a in range(graph.n)]
