"""Rigidity matrices, gradient consistency, positive-definiteness audits."""

import math
import warnings

import numpy as np
import pytest

from rigidflock.control import ControllerConfig, agent_commands, edge_terms
from rigidflock.core import (SKEW_Z, AgentPose, planes, pose_arrays,
                             relative_poses, turn, vectors, wrap_angle)
from rigidflock.graphs import ObservationGraph, is_connected
from rigidflock.rigidity import (assemble_m_blockwise, fec_raw_commands,
                                 formation_error_stack,
                                 gradient_consistency_residual,
                                 is_positive_definite_minors, kappa_stack,
                                 lyapunov_rate, m_matrix, rigidity_local,
                                 rigidity_world, single_edge_m,
                                 stacked_local_action)
from scalar_law import plane_index


def random_poses(rng, n, box=8.0):
    return tuple(AgentPose(rng.uniform(-box, box, 3),
                           rng.uniform(-math.pi, math.pi))
                 for _ in range(n))


def random_connected_graph(rng, n):
    while True:
        pairs = {(i, j) for i in range(n) for j in range(n)
                 if i != j and rng.random() < 0.45}
        pairs |= {(i, i + 1) for i in range(n - 1)}  # spine keeps it connected
        g = ObservationGraph(n, pairs)
        if is_connected(g):
            return g


# --- world-frame Jacobian ---------------------------------------------------


def test_rigidity_world_single_edge_structure():
    poses = (AgentPose([0, 0, 0], 0.0), AgentPose([2, 1, 0.5], 0.0))
    g = ObservationGraph(2, [(0, 1)])
    h = rigidity_world(poses, g)
    assert h.shape == (4, 8)
    assert np.allclose(h[:3, 0:3], -np.eye(3))
    assert np.allclose(h[:3, 4:7], np.eye(3))
    # heading column: generator transpose applied to the world offset
    assert np.allclose(h[:3, 3], [1.0, -2.0, 0.0])
    assert h[3, 3] == -1.0 and h[3, 7] == 1.0
    assert h[3, 3] + h[3, 7] == 0.0


def test_rigidity_world_finite_difference():
    rng = np.random.default_rng(0)
    eps = 1e-6
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 6))
        g = random_connected_graph(rng, n)
        poses = random_poses(rng, n)
        h = rigidity_world(poses, g)
        kappa0 = kappa_stack(poses, g)
        dq = rng.uniform(-1.0, 1.0, 4 * n)
        plus = tuple(AgentPose(p.p + eps * dq[4 * a:4 * a + 3],
                               p.psi + eps * dq[4 * a + 3])
                     for a, p in enumerate(poses))
        minus = tuple(AgentPose(p.p - eps * dq[4 * a:4 * a + 3],
                                p.psi - eps * dq[4 * a + 3])
                      for a, p in enumerate(poses))
        fd = (kappa_stack(plus, g) - kappa_stack(minus, g)) / (2 * eps)
        # wrapped heading rows may jump by 2 pi; rewrap the difference
        for band in range(len(g.edges)):
            fd[4 * band + 3] = wrap_angle(fd[4 * band + 3] * (2 * eps)) \
                / (2 * eps)
        lin = h @ dq
        rel = np.abs(lin - fd).max() / max(np.abs(fd).max(), 1.0)
        worst = max(worst, rel)
    assert worst < 1e-5


# --- local-frame Jacobian and gradient consistency ---------------------------


def test_rigidity_local_band_structure():
    poses = (AgentPose([0, 0, 0], 0.0), AgentPose([3, 0, 0], 0.0))
    g = ObservationGraph(2, [(0, 1)])
    h = rigidity_local(poses, g)
    assert np.allclose(h[:3, 0:3], -np.eye(3))
    # zero relative heading: the observed agent's block is the identity
    assert np.allclose(h[:3, 4:7], np.eye(3))
    assert np.allclose(h[:3, 3], [0.0, -3.0, 0.0])  # S^T p_rel
    assert h[3, 3] == -1.0 and h[3, 7] == 1.0


def test_stacked_action_matches_per_agent_closed_form():
    rng = np.random.default_rng(1)
    for _ in range(60):
        n = 3
        g = random_connected_graph(rng, n)
        poses = random_poses(rng, n)
        desired = random_poses(rng, n, box=4.0)
        assert gradient_consistency_residual(poses, desired, g, 0.5) < 1e-10


def test_stacked_action_zero_at_desired():
    rng = np.random.default_rng(2)
    g = random_connected_graph(rng, 4)
    desired = random_poses(rng, 4)
    action = stacked_local_action(desired, desired, g, 0.5)
    assert np.abs(action).max() < 1e-12


def test_closed_form_matches_controller_on_mutual_graph():
    # with mutual observations the per-agent controller over local
    # measurements reproduces the two-sided closed form
    rng = np.random.default_rng(3)
    cfg = ControllerConfig(k_e=0.5, ell=0.5, omega_cap=1e9)
    for _ in range(30):
        n = int(rng.integers(2, 5))
        g = ObservationGraph.complete(n)
        poses = random_poses(rng, n)
        desired = random_poses(rng, n, box=4.0)
        raw = fec_raw_commands(poses, desired, g, cfg.k_e)
        obs_i, obs_j = g.edge_index()
        p_m, psi_m = relative_poses(*pose_arrays(poses), obs_i, obs_j)
        p_d, psi_d = relative_poses(*pose_arrays(desired), obs_i, obs_j)
        u, omega = agent_commands(plane_index(obs_i, n),
                                  *edge_terms(p_m, psi_m, p_d, psi_d),
                                  n, cfg, dt=1.0)
        assert np.allclose(u, raw[:, :3], atol=1e-10)
        assert np.allclose(omega, raw[:, 3], rtol=0.0, atol=1e-10)


def test_closed_form_sums_each_agent_in_edge_order():
    # the reference: two np.add.at passes over the edges, the observers' rows
    # first, then the observed agents'; the one bincount keeps their bits
    rng = np.random.default_rng(12)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        g = random_connected_graph(rng, n)
        poses, desired = random_poses(rng, n), random_poses(rng, n, box=4.0)
        obs_i, obs_j = g.edge_index()
        p_ij, psi_ij = relative_poses(*pose_arrays(poses), obs_i, obs_j)
        p_d, psi_d = relative_poses(*pose_arrays(desired), obs_i, obs_j)
        dp, dpsi = p_ij - p_d, wrap_angle(psi_ij - psi_d)
        want = np.zeros((n, 4))
        np.add.at(want, obs_i, np.column_stack([
            dp, -np.einsum("ei,ij,ej->e", p_ij, SKEW_Z, dp) + dpsi]))
        np.add.at(want, obs_j, -np.column_stack([
            vectors(turn(planes(dp), -psi_ij)), dpsi]))
        got = fec_raw_commands(poses, desired, g, 0.5)
        assert got.tobytes() == (0.5 * want).tobytes()


# --- M, minors, blocks --------------------------------------------------------


def test_single_edge_m_matches_product():
    rng = np.random.default_rng(4)
    for _ in range(50):
        p2 = rng.uniform(-6, 6, 3)
        poses = (AgentPose([0, 0, 0], 0.0), AgentPose(p2, 0.0))
        g = ObservationGraph(2, [(0, 1)])
        assert np.allclose(m_matrix(poses, g), single_edge_m(p2), atol=1e-12)


def test_single_edge_minors_polynomials():
    rng = np.random.default_rng(5)
    for _ in range(50):
        p = rng.uniform(-6, 6, 3)
        x, y = p[0], p[1]
        _, minors = is_positive_definite_minors(single_edge_m(p))
        assert minors[0] == pytest.approx(2 + y * y, rel=1e-12)
        assert minors[1] == pytest.approx(4 + 2 * y * y + 2 * x * x,
                                          rel=1e-12)
        assert minors[2] == pytest.approx(2 * minors[1], rel=1e-12)
        assert minors[3] == pytest.approx(16 + 4 * y * y + 4 * x * x,
                                          rel=1e-9)
        assert all(m > 0 for m in minors)


def test_minors_identity_and_rejections():
    ok, minors = is_positive_definite_minors(np.eye(5))
    assert ok and np.allclose(minors, 1.0)
    with pytest.raises(ValueError, match="symmetric"):
        is_positive_definite_minors(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="square"):
        is_positive_definite_minors(np.ones((2, 3)))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_minors_reject_non_finite_entries(bad):
    with pytest.raises(ValueError, match="non-finite"):
        is_positive_definite_minors(np.array([[bad, 0.0], [0.0, 1.0]]))


def test_minors_check_finiteness_before_symmetry():
    # non-finite and non-symmetric: a - a^T would be inf - inf, a warning,
    # so the abs-max pass must refuse the matrix first, and silently
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite"):
            is_positive_definite_minors([[math.inf, 1.0], [0.0, 1.0]])


def test_minors_reject_empty_matrix():
    with pytest.raises(ValueError, match="empty"):
        is_positive_definite_minors(np.zeros((0, 0)))


def test_minors_stop_at_first_non_positive_pivot():
    # the third pivot is -1; the fourth leading minor is never formed
    a = np.diag([2.0, 3.0, -1.0, 5.0])
    assert is_positive_definite_minors(a) == (False, [2.0, 6.0, -6.0])
    # a zero leading entry stops the pass at once, whatever follows
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert is_positive_definite_minors(swap) == (False, [0.0])


def test_minor_verdict_agrees_with_eigen_verdict():
    rng = np.random.default_rng(6)
    agree = 0
    for _ in range(300):
        n = int(rng.integers(2, 7))
        a = rng.uniform(-2, 2, (n, n))
        a = 0.5 * (a + a.T) + np.diag(rng.uniform(-1, 3, n))
        verdict, _ = is_positive_definite_minors(a)
        evals = np.linalg.eigvalsh(a)
        eig_verdict = bool(evals[0] > 0)
        if abs(evals[0]) < 1e-8:
            continue  # too close to singular to compare verdicts
        assert verdict == eig_verdict
        agree += 1
    assert agree > 250


def pair_block(edge_a, edge_b, poses):
    """Block (a, b) of blockwise M on the graph of the two edges."""
    g = ObservationGraph(len(poses), [edge_a, edge_b])
    a, b = (g.sorted_edges().index(e) for e in (edge_a, edge_b))
    return assemble_m_blockwise(g, poses)[4 * a:4 * a + 4, 4 * b:4 * b + 4]


def test_e_ab_disjoint_is_zero():
    rng = np.random.default_rng(7)
    poses = random_poses(rng, 4)
    block = pair_block((0, 1), (2, 3), poses)
    assert np.all(block == 0.0)


def test_e_ab_into_shared_vertex_identity_with_equal_headings():
    poses = (AgentPose([1, 0, 0], 0.4), AgentPose([0, 2, 0], 0.4),
             AgentPose([0, 0, 3], 0.4))
    block = pair_block((0, 2), (1, 2), poses)
    assert np.allclose(block, np.eye(4), atol=1e-12)


def test_e_ab_repeated_edge_is_diagonal_block_of_m():
    rng = np.random.default_rng(8)
    poses = random_poses(rng, 2)
    g = ObservationGraph(2, [(0, 1)])
    m = m_matrix(poses, g)
    assert np.allclose(pair_block((0, 1), (0, 1), poses), m, atol=1e-12)


def test_blockwise_assembly_equals_product():
    rng = np.random.default_rng(9)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        g = random_connected_graph(rng, n)
        poses = random_poses(rng, n)
        direct = m_matrix(poses, g)
        assembled = assemble_m_blockwise(g, poses)
        assert np.abs(direct - assembled).max() < 1e-10


# --- Lyapunov ------------------------------------------------------------------


def test_lyapunov_rate_zero_error():
    rng = np.random.default_rng(10)
    g = random_connected_graph(rng, 3)
    poses = random_poses(rng, 3)
    assert lyapunov_rate(poses, g, np.zeros(4 * len(g.edges)), 0.5) == 0.0


def test_lyapunov_rate_negative_for_single_edge():
    rng = np.random.default_rng(11)
    g = ObservationGraph(2, [(0, 1)])
    for _ in range(100):
        poses = (AgentPose([0, 0, 0], 0.0),
                 AgentPose(rng.uniform(-5, 5, 3), 0.0))
        e = rng.uniform(-2, 2, 4)
        if np.linalg.norm(e) < 1e-9:
            continue
        assert lyapunov_rate(poses, g, e, 0.5) < 0.0


def test_formation_error_stack_wraps_headings():
    poses = (AgentPose([0, 0, 0], 3.0), AgentPose([1, 0, 0], -3.0))
    desired = (AgentPose([0, 0, 0], 0.0), AgentPose([1, 0, 0], 0.0))
    g = ObservationGraph(2, [(0, 1)])
    err = formation_error_stack(poses, desired, g)
    # psi_rel of poses is wrap(-6) ~ 0.283, not -6
    assert abs(err[3]) < math.pi
