import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qhistories import selection, spin
from qhistories.histories import (DecoherenceMatrix, HistoryTree,
                                  ProjectiveDecomposition, apply_leading,
                                  coarse_grain, decoherence_matrix, extend_all,
                                  extend_branch, real_embed)
from qhistories.linalg import (HamiltonianFlow, RandomStream, hermitian_eig,
                               sample_gue, sample_unit_vector)
from qhistories.tolerances import ORACLE_RTOL


def _random_decomposition(dim, t, rng, blocks=None):
    H = sample_gue(dim, 1.0, rng)
    _, V = hermitian_eig(H)
    if blocks is None:
        blocks = [[i] for i in range(dim)]
    projs = []
    for block in blocks:
        P = sum(np.outer(V[:, i], V[:, i].conj()) for i in block)
        projs.append(P)
    return ProjectiveDecomposition(t, projs)


def test_decomposition_validation():
    P = np.diag([1.0, 0.0]).astype(complex)
    ProjectiveDecomposition(0.0, [P, np.eye(2) - P])
    with pytest.raises(ValueError, match="identity"):
        ProjectiveDecomposition(0.0, [P])
    with pytest.raises(ValueError, match="orthogonal"):
        ProjectiveDecomposition(0.0, [np.diag([1.0, 1.0, 0.0]),
                                      np.diag([0.0, 1.0, 1.0])])
    with pytest.raises(ValueError, match="idempotent"):
        ProjectiveDecomposition(0.0, [0.5 * np.eye(2), 0.5 * np.eye(2)])
    with pytest.raises(ValueError, match="Hermitian"):
        ProjectiveDecomposition(0.0, [np.array([[1, 1], [0, 0]]),
                                      np.array([[0, -1], [0, 1]])])
    with pytest.raises(ValueError, match="Hermitian"):
        ProjectiveDecomposition(0.0, [np.diag([1.0, np.nan]),
                                      np.diag([0.0, 1.0])])


@settings(deadline=None, max_examples=15)
@given(seed=st.integers(0, 10**6), dim=st.integers(2, 5),
       depth=st.integers(1, 3))
def test_tree_probabilities_sum_to_one(seed, dim, depth):
    rng = RandomStream(seed, "tree")
    psi = sample_unit_vector(dim, "complex", rng.stream("psi"))
    H = sample_gue(dim, 1.0, rng.stream("H"))
    flow = HamiltonianFlow(H)
    tree = HistoryTree(initial_state=psi, evolution=flow.unitary)
    for level in range(depth):
        dec = _random_decomposition(dim, float(level + 1),
                                    rng.stream(f"dec{level}"))
        tree = extend_all(tree, dec)
    probs = [np.linalg.norm(tree.path_state(p)) ** 2 for p in tree.leaves()]
    assert len(probs) == dim ** depth
    assert abs(sum(probs) - 1.0) < 1e-10


def test_heisenberg_projection():
    dim = 3
    rng = RandomStream(9, "heis")
    psi = sample_unit_vector(dim, "complex", rng.stream("psi"))
    H = sample_gue(dim, 1.0, rng.stream("H"))
    flow = HamiltonianFlow(H)
    dec = _random_decomposition(dim, 0.7, rng.stream("dec"))
    tree = extend_all(HistoryTree(initial_state=psi, evolution=flow.unitary),
                      dec)
    U = flow.unitary(0.7)
    for i, leaf in enumerate(tree.leaves()):
        want = U.conj().T @ dec.projectors[i] @ U @ psi
        assert np.linalg.norm(tree.path_state(leaf) - want) < 1e-12


def test_decoherence_matrix_definition():
    dim = 4
    rng = RandomStream(11, "dm")
    psi = sample_unit_vector(dim, "complex", rng.stream("psi"))
    tree = extend_all(HistoryTree(initial_state=psi, evolution=None),
                      _random_decomposition(dim, 1.0, rng.stream("dec")))
    D = decoherence_matrix(tree)
    states = [tree.path_state(p) for p in tree.leaves()]
    for a in range(dim):
        for b in range(dim):
            assert abs(D.entries[a, b] - np.vdot(states[b], states[a])) < 1e-12
    assert abs(D.entries.sum() - 1.0) < 1e-10
    assert np.max(np.abs(D.entries - D.entries.conj().T)) < 1e-12


def test_coarse_grain_sums_blocks():
    D = DecoherenceMatrix(np.arange(16).reshape(4, 4).astype(complex),
                          list(range(4)))
    C = coarse_grain(D, [[0, 1], [2, 3]])
    assert C.entries[0, 0] == 0 + 1 + 4 + 5
    assert C.entries[1, 0] == 8 + 9 + 12 + 13
    assert abs(C.entries.sum() - D.entries.sum()) < 1e-12
    with pytest.raises(ValueError):
        coarse_grain(D, [[0, 1], [2]])
    with pytest.raises(ValueError):
        coarse_grain(D, [[0, 1], [1, 2, 3]])


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 10**6), dim=st.integers(1, 8))
def test_real_embed_preserves_real_parts(seed, dim):
    rng = RandomStream(seed, "embed")
    u = sample_unit_vector(dim, "complex", rng.stream("u"))
    w = sample_unit_vector(dim, "complex", rng.stream("w"))
    assert abs(np.linalg.norm(real_embed(u)) - 1.0) < 1e-12
    assert abs(real_embed(u) @ real_embed(w) - np.real(np.vdot(w, u))) < 1e-12


def test_extend_branch_time_ordering():
    psi = np.array([1.0, 0.0], dtype=complex)
    P = np.diag([1.0, 0.0]).astype(complex)
    dec1 = ProjectiveDecomposition(1.0, [P, np.eye(2) - P])
    tree = extend_all(HistoryTree(initial_state=psi, evolution=None), dec1)
    with pytest.raises(ValueError, match="time"):
        extend_branch(tree, tree.leaves()[0],
                      ProjectiveDecomposition(0.5, [P, np.eye(2) - P]))


def test_extend_branch_refuses_a_path_past_or_short_of_a_leaf():
    psi = np.array([1.0, 0.0], dtype=complex)
    P = np.diag([1.0, 0.0]).astype(complex)
    dec1 = ProjectiveDecomposition(1.0, [P, np.eye(2) - P])
    dec2 = ProjectiveDecomposition(2.0, [P, np.eye(2) - P])
    tree = extend_all(HistoryTree(initial_state=psi, evolution=None), dec1)
    for path in ((0, 1), (1, 0, 0), ()):
        with pytest.raises(ValueError, match="leaf"):
            extend_branch(tree, path, dec2)


def test_extend_branch_shares_untouched_subtrees():
    psi = np.array([1.0, 0.0], dtype=complex)
    P = np.diag([1.0, 0.0]).astype(complex)
    dec1 = ProjectiveDecomposition(1.0, [P, np.eye(2) - P])
    dec2 = ProjectiveDecomposition(2.0, [P, np.eye(2) - P])
    tree = extend_all(HistoryTree(initial_state=psi, evolution=None), dec1)
    new = extend_branch(tree, (0,), dec2)
    assert new.root.children[1] is tree.root.children[1]
    assert new.root.children[0] is not tree.root.children[0]
    assert len(new.leaves()) == 3


def test_extend_branch_rejects_projector_not_dividing_state():
    tree = HistoryTree(initial_state=np.full(4, 0.5, dtype=complex),
                       evolution=None)
    P = np.diag([1.0, 0.0, 0.0]).astype(complex)
    dec = ProjectiveDecomposition(1.0, [P, np.eye(3) - P])
    with pytest.raises(ValueError,
                       match="projector dimension 3 .* state dimension 4"):
        extend_branch(tree, (), dec)


def test_mixed_initial_state_purification():
    # the decoherence matrix of a mixed state equals the probability mix of
    # the pure-state matrices of its eigenvectors
    dim = 3
    rng = RandomStream(13, "mix")
    H = sample_gue(dim, 1.0, rng.stream("H"))
    flow = HamiltonianFlow(H)
    vals = np.array([0.5, 0.3, 0.2])
    _, V = hermitian_eig(sample_gue(dim, 1.0, rng.stream("basis")))
    rho = (V * vals[None, :]) @ V.conj().T
    dec = _random_decomposition(dim, 1.0, rng.stream("dec"))

    mixed = extend_all(HistoryTree(initial_density=rho, evolution=flow.unitary),
                       dec)
    D_mixed = decoherence_matrix(mixed).entries

    D_sum = np.zeros((dim, dim), dtype=complex)
    for p, i in zip(vals, range(dim)):
        pure = extend_all(HistoryTree(initial_state=V[:, i],
                                      evolution=flow.unitary), dec)
        D_sum += p * decoherence_matrix(pure).entries
    assert np.max(np.abs(D_mixed - D_sum)) < 1e-10


@pytest.mark.parametrize("state", [
    {"initial_state": [3.0, 4.0]},                  # probabilities 9 and 16
    {"initial_density": np.diag([1.3, -0.3])},      # 1.3 and 0
    {"initial_density": np.eye(2)},                 # summing to 2
    {"initial_state": [np.nan, 1.0]},
], ids=["pure", "negative-eigenvalue", "trace-2", "nan"])
def test_an_unnormalised_initial_state_is_refused(state):
    with pytest.raises(ValueError, match="not normalized"):
        HistoryTree(**state)


# Path states against dense Heisenberg chains, one tolerance relative to the
# largest entry of the reference.
REL_TOL = ORACLE_RTOL


def _dense_leaf_states(tree, psi, unitary):
    """Reference: C_alpha psi with C_alpha the product of the dense
    Heisenberg projectors U(t)^dag P U(t) along each leaf's path; each
    stored projector is lifted to the full space here as P (x) 1."""
    columns = []
    for leaf in tree.leaves():
        C = np.eye(psi.size, dtype=complex)
        for j, i in enumerate(leaf):
            dec = tree.node_at(leaf[:j]).decomposition
            U = np.eye(psi.size) if unitary is None else unitary(dec.time)
            P = dec.projectors[i]
            P = np.kron(P, np.eye(psi.size // P.shape[0]))
            C = U.conj().T @ P @ U @ C
        columns.append(C @ psi)
    return np.column_stack(columns)


def _assert_matches_dense(tree, psi, unitary):
    want = _dense_leaf_states(tree, psi, unitary)
    got = tree.leaf_states()
    tol = REL_TOL * np.max(np.abs(want))
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= tol
    for leaf, column in zip(tree.leaves(), want.T):
        assert np.max(np.abs(tree.path_state(leaf) - column)) <= tol
    D_want = (want.conj().T @ want).T
    D = decoherence_matrix(tree)
    assert D.labels == tree.leaves()
    assert np.max(np.abs(D.entries - D_want)) <= REL_TOL * np.max(np.abs(D_want))
    return got


def test_leaf_states_branch_dependent_tree():
    dim = 4
    rng = RandomStream(17, "branchdep")
    psi = sample_unit_vector(dim, "complex", rng.stream("psi"))
    flow = HamiltonianFlow(sample_gue(dim, 1.0, rng.stream("H")))
    tree = extend_all(HistoryTree(initial_state=psi, evolution=flow.unitary),
                      _random_decomposition(dim, 1.0, rng.stream("d1"),
                                            blocks=[[0, 1], [2, 3]]))
    tree = extend_branch(tree, (0,),
                         _random_decomposition(dim, 2.0, rng.stream("d2")))
    tree = extend_branch(tree, (1,),
                         _random_decomposition(dim, 1.5, rng.stream("d3"),
                                               blocks=[[0], [1, 2, 3]]))
    tree = extend_branch(tree, (0, 1),
                         _random_decomposition(dim, 3.0, rng.stream("d4"),
                                               blocks=[[0, 3], [1, 2]]))
    assert len(tree.leaves()) == 7
    _assert_matches_dense(tree, psi, flow.unitary)


def test_leaf_states_purified_mixed_state():
    dim, rank = 3, 2
    rng = RandomStream(19, "purified")
    flow = HamiltonianFlow(sample_gue(dim, 1.0, rng.stream("H")))
    _, V = hermitian_eig(sample_gue(dim, 1.0, rng.stream("basis")))
    rho = (V * np.array([0.0, 0.35, 0.65])[None, :]) @ V.conj().T
    tree = HistoryTree(initial_density=rho, evolution=flow.unitary)
    for level in range(2):
        tree = extend_all(tree, _random_decomposition(
            dim, float(level + 1), rng.stream(f"dec{level}")))
    assert tree.dim == dim * rank
    states = _assert_matches_dense(
        tree, tree.initial_state,
        lambda t: np.kron(flow.unitary(t), np.eye(rank)))
    assert abs(np.sum(np.abs(states) ** 2) - 1.0) < 1e-10


def test_leaf_states_without_evolution():
    dim = 4
    rng = RandomStream(23, "noevol")
    psi = sample_unit_vector(dim, "complex", rng.stream("psi"))
    tree = HistoryTree(initial_state=psi, evolution=None)
    for level in range(2):
        tree = extend_all(tree, _random_decomposition(
            dim, float(level + 1), rng.stream(f"dec{level}"),
            blocks=[[0], [1, 2], [3]]))
    _assert_matches_dense(tree, psi, None)


def test_leaf_states_exactly_null_branch():
    # a diagonal evolution keeps psi inside the range of P: the complement
    # branch and all its descendants are exactly zero
    energies = np.array([0.3, -1.1, 0.8, 2.0])
    unitary = lambda t: np.diag(np.exp(-1j * energies * t))
    psi = np.array([1.0, 1.0, 0.0, 0.0], dtype=complex) / np.sqrt(2)
    P = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
    tree = extend_all(HistoryTree(initial_state=psi, evolution=unitary),
                      ProjectiveDecomposition(1.0, [P, np.eye(4) - P]))
    tree = extend_all(tree, _random_decomposition(
        4, 2.0, RandomStream(29, "null").stream("dec"), blocks=[[0, 1], [2, 3]]))
    states = _assert_matches_dense(tree, psi, unitary)
    assert tree.leaves()[2:] == [(1, 0), (1, 1)]
    assert np.all(states[:, 2:] == 0)
    assert np.linalg.norm(states[:, :2]) > 0.5


def test_decoherence_matrix_builds_one_unitary_per_time():
    dim = 4
    rng = RandomStream(31, "count")
    psi = sample_unit_vector(dim, "complex", rng.stream("psi"))
    flow = HamiltonianFlow(sample_gue(dim, 1.0, rng.stream("H")))
    calls = []

    def evolution(t):
        calls.append(t)
        return flow.unitary(t)

    tree = HistoryTree(initial_state=psi, evolution=evolution)
    for t in (1.0, 2.0, 3.0):
        tree = extend_all(tree, _random_decomposition(
            dim, t, rng.stream(f"dec{t}"), blocks=[[0, 1], [2, 3]]))
    assert len(tree.leaves()) == 8
    decoherence_matrix(tree)
    assert sorted(calls) == [1.0, 2.0, 3.0]


# Trees whose projectors (and, for a purified state, evolution) act on the
# leading factor, against the dense reference above, which lifts each
# stored projector as P (x) 1 itself.

def _spin_tree():
    rng = RandomStream(37, "spin-lift")
    vecs = [sample_unit_vector(3, "real", rng.stream(f"a{i}")) for i in range(4)]
    cfg = spin.SpinModelConfig(v=vecs[0], axes=np.array(vecs[1:]))
    tree = spin.build_tree(cfg, spin.schmidt_events(cfg, [0.6, 1.0, 2.3, 3.0]))
    return tree, lambda t: spin.full_unitary(cfg, t), 2


def _schmidt_tree():
    d1, d2 = 3, 4
    rng = RandomStream(41, "schmidt-lift")
    flow = HamiltonianFlow(sample_gue(d1 * d2, 1.0, rng.stream("H")))
    psi = sample_unit_vector(d1 * d2, "complex", rng.stream("psi"))
    model = selection.BipartiteModel(d1, d2, psi, flow.unitary)
    tree = HistoryTree(initial_state=psi, evolution=model.evolution)
    for t in (0.4, 1.1):
        tree = extend_all(tree, selection.schmidt_candidate(model, t))
    assert len(tree.leaves()) == d1 ** 2
    return tree, flow.unitary, d1


def _purified_tree():
    dim, rank = 4, 2
    rng = RandomStream(43, "purified-lift")
    flow = HamiltonianFlow(sample_gue(dim, 1.0, rng.stream("H")))
    _, V = hermitian_eig(sample_gue(dim, 1.0, rng.stream("basis")))
    rho = (V * np.array([0.4, 0.0, 0.6, 0.0])[None, :]) @ V.conj().T
    tree = HistoryTree(initial_density=rho, evolution=flow.unitary)
    for level in range(2):
        tree = extend_all(tree, _random_decomposition(
            dim, float(level + 1), rng.stream(f"dec{level}"),
            blocks=[[0, 1], [2], [3]]))
    assert tree.dim == dim * rank
    return tree, lambda t: np.kron(flow.unitary(t), np.eye(rank)), dim


@pytest.mark.parametrize("build", [_spin_tree, _schmidt_tree, _purified_tree])
def test_system_factor_tree_matches_dense_lift(build):
    tree, full_unitary, d = build()
    assert all(P.shape == (d, d)
               for P in tree.root.decomposition.projectors)
    _assert_matches_dense(tree, tree.initial_state, full_unitary)


class _CountingEvolution:
    """The apply protocol over a HamiltonianFlow, recording every call."""

    def __init__(self, flow):
        self.flow = flow
        self.calls = []

    def apply(self, states, t, adjoint=False):
        self.calls.append((t, adjoint))
        return self.flow.apply(states, t, adjoint)


def test_leaf_states_evolve_each_time_forward_and_back_once():
    dim = 4
    rng = RandomStream(47, "apply-count")
    psi = sample_unit_vector(dim, "complex", rng.stream("psi"))
    flow = HamiltonianFlow(sample_gue(dim, 1.0, rng.stream("H")))
    evolution = _CountingEvolution(flow)
    tree = HistoryTree(initial_state=psi, evolution=evolution)
    times = (0.5, 1.0, 1.7, 2.4)
    for t in times:
        tree = extend_all(tree, _random_decomposition(
            dim, t, rng.stream(f"dec{t}"), blocks=[[0, 1], [2, 3]]))
    assert len(tree.leaves()) == 16
    states = tree.leaf_states()
    assert sorted(evolution.calls) == [(t, adjoint) for t in times
                                       for adjoint in (False, True)]
    evolution.calls.clear()
    assert np.array_equal(decoherence_matrix(tree).entries,
                          (states.conj().T @ states).T)
    assert len(evolution.calls) == 2 * len(times)
    _assert_matches_dense(tree, psi, flow.unitary)


def test_leaf_states_purified_state_with_flow_apply():
    # the flow itself as the evolution: its apply acts on the leading factor
    dim, rank = 3, 2
    rng = RandomStream(53, "purified-apply")
    flow = HamiltonianFlow(sample_gue(dim, 1.0, rng.stream("H")))
    _, V = hermitian_eig(sample_gue(dim, 1.0, rng.stream("basis")))
    rho = (V * np.array([0.0, 0.25, 0.75])[None, :]) @ V.conj().T
    tree = HistoryTree(initial_density=rho, evolution=flow)
    for level in range(2):
        tree = extend_all(tree, _random_decomposition(
            dim, float(level + 1), rng.stream(f"dec{level}")))
    _assert_matches_dense(tree, tree.initial_state,
                          lambda t: np.kron(flow.unitary(t), np.eye(rank)))


def test_apply_leading_names_both_sizes():
    with pytest.raises(ValueError,
                       match="operator size 3 does not divide state size 4"):
        apply_leading(np.eye(3), np.ones(4, dtype=complex))
    with pytest.raises(ValueError,
                       match="operator size 3 does not divide state size 8"):
        apply_leading(np.eye(3), np.ones((8, 2), dtype=complex))
