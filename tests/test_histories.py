import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qhistories import histories, randmodel, selection, spin
from qhistories.consistency import env_orthogonality, linear_positivity
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


def test_decomposition_takes_a_complex_stack_as_it_is():
    # the rows of a complex stack are kept as views of it (np.asarray does
    # not copy them); a list and a real array give the same projectors
    P = np.diag([1.0, 0.0])
    real = np.stack([P, np.eye(2) - P])
    stack = real.astype(complex)
    decs = [ProjectiveDecomposition(0.0, projs)
            for projs in (stack, list(stack), real)]
    for dec in decs:
        assert len(dec) == 2
        assert all(p.dtype == complex and np.array_equal(p, q)
                   for p, q in zip(dec.projectors, stack))
    assert all(p.base is stack for p in decs[0].projectors)
    with pytest.raises(ValueError, match="identity"):
        ProjectiveDecomposition(0.0, stack[:1])
    with pytest.raises(ValueError, match="idempotent"):
        ProjectiveDecomposition(0.0, 0.5 * np.stack([np.eye(2)] * 2
                                                    ).astype(complex))


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


# Path states against dense Heisenberg chains and the level walk, one
# tolerance relative to the largest entry of the reference.
REL_TOL = ORACLE_RTOL


def _walk_leaf_states(tree):
    """Reference: the path states of all leaves, in leaves() order, from one
    level-by-level walk of the tree (the body leaf_states had before trees
    carried their states).

    At each level the states of the nodes that decompose at one time t are
    evolved forward together, split by the projectors of their
    decompositions (projector outer), and evolved back together: two
    evolution calls per distinct time of the level."""
    frontier = [((), tree.root)]
    states = tree.initial_state[:, None]
    paths, columns = [], []
    while frontier:
        groups = {}
        for j, (path, node) in enumerate(frontier):
            if node.is_leaf:
                paths.append(path)
                columns.append(states[:, j])
            else:
                groups.setdefault(node.decomposition.time, []).append(j)
        next_frontier, blocks = [], []
        for t, group in groups.items():
            evolved = tree._evolve(states[:, group], t)
            by_dec = {}
            for col, j in enumerate(group):
                dec = frontier[j][1].decomposition
                by_dec.setdefault(id(dec), (dec, []))[1].append(col)
            projected = []
            for dec, cols in by_dec.values():
                block = evolved if len(by_dec) == 1 else evolved[:, cols]
                for i, P in enumerate(dec.projectors):
                    projected.append(apply_leading(P, block))
                    for col in cols:
                        path, node = frontier[group[col]]
                        next_frontier.append((path + (i,),
                                              node.children[i]))
            blocks.append(tree._evolve(np.hstack(projected), t,
                                       adjoint=True))
        frontier = next_frontier
        if blocks:
            states = np.hstack(blocks)
    # no leaf path is a prefix of another, so sorted paths are in
    # leaves() order
    order = sorted(range(len(paths)), key=paths.__getitem__)
    return np.column_stack([columns[i] for i in order])


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
    # the walk evolves a level's columns projector outer, and splits a
    # branch-dependent level's columns together, so BLAS may round them
    # otherwise than extension does
    walk = _walk_leaf_states(tree)
    assert np.max(np.abs(got - walk)) <= REL_TOL * np.max(np.abs(walk))
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


def test_leaf_states_evolve_each_time_forward_once_and_back_on_first_read():
    # each extend_all steps the frame from the time before by one
    # evolution call and evolves nothing back; a leaf split alone steps
    # from the frame time to its own and back.  D, the probabilities and
    # the frame are read with no call, and the time-0 leaf states with one
    # adjoint apply from the frame time, on their first read only
    dim = 4
    rng = RandomStream(47, "apply-count")
    psi = sample_unit_vector(dim, "complex", rng.stream("psi"))
    flow = HamiltonianFlow(sample_gue(dim, 1.0, rng.stream("H")))
    evolution = _StepCountingEvolution(flow)
    tree = HistoryTree(initial_state=psi, evolution=evolution)
    since = None
    for t in (0.5, 1.0, 1.7, 2.4):
        tree = extend_all(tree, _random_decomposition(
            dim, t, rng.stream(f"dec{t}"), blocks=[[0, 1], [2, 3]]))
        assert evolution.calls == ([(t, False)] if since is None
                                   else [([t], since)])
        assert tree.frame_time == t
        since = t
        evolution.calls.clear()
    tree = extend_branch(tree, (0, 1, 1, 0), _random_decomposition(
        dim, 3.0, rng.stream("branch"), blocks=[[0], [1, 2, 3]]))
    assert evolution.calls == [([3.0], 2.4), ([2.4], 3.0)]
    assert tree.frame_time == 2.4
    evolution.calls.clear()
    assert len(tree.leaves()) == 17
    D = decoherence_matrix(tree)
    probabilities = tree.probabilities()
    assert evolution.calls == []
    assert np.array_equal(D.entries, (tree.frame.conj().T @ tree.frame).T)
    assert np.max(np.abs(probabilities - D.diag)) <= ORACLE_RTOL
    states = tree.leaf_states()
    linear_positivity(tree)
    env_orthogonality(tree, 2, 2)
    assert tree.leaf_states() is states
    assert evolution.calls == [(2.4, True)]
    _assert_matches_dense(tree, psi, flow.unitary)


def _evolutions():
    """name -> (evolution, dense unitary t -> U(t), dimension): a flow, the
    spin chain's matrix-free evolution at n = 2 and a callable t -> U(t)."""
    rng = RandomStream(71, "frame-oracle")
    flow = HamiltonianFlow(sample_gue(8, 1.0, rng.stream("H")))
    vecs = [sample_unit_vector(3, "real", rng.stream(f"a{i}"))
            for i in range(3)]
    cfg = spin.SpinModelConfig(v=vecs[0], axes=np.array(vecs[1:]))
    return {"flow": (flow, flow.unitary),
            "chain": (spin.chain_evolution(cfg),
                      lambda t: spin.full_unitary(cfg, t)),
            "callable": (flow.unitary, flow.unitary)}


def _frame_steps(name):
    """(tree, psi, U, frame time) after each step of a branch-dependent
    tree under the evolution name (_evolutions): extend_all makes a frame
    at 0.6; two branches split alone, at 2.1 and then at 1.4, a time before
    the other branch's last, each stepping from 0.6 and back; extend_all
    at 2.5 makes a new frame, and a branch splits alone after it."""
    evolution, unitary = _evolutions()[name]
    rng = RandomStream(73, f"frame-steps-{name}")
    psi = sample_unit_vector(8, "complex", rng.stream("psi"))
    tree = HistoryTree(initial_state=psi, evolution=evolution)
    halves = [[0, 1, 2, 3], [4, 5, 6, 7]]
    thirds = [[0, 1], [2, 3, 4], [5, 6, 7]]
    steps = [(0.6, None, halves, 0.6), (2.1, (0,), thirds, 0.6),
             (1.4, (1,), halves, 0.6), (2.5, None, halves, 2.5),
             (3.2, (0, 2, 1), thirds, 2.5)]
    for t, path, blocks, frame_time in steps:
        dec = _random_decomposition(8, t, rng.stream(f"dec{t}"), blocks)
        tree = (extend_all(tree, dec) if path is None
                else extend_branch(tree, path, dec))
        yield tree, psi, unitary, frame_time


@pytest.mark.parametrize("name", ["flow", "chain", "callable"])
def test_the_frames_decoherence_matrix_is_the_dense_time_0_matrix(name):
    # D_ab = u_b^dag u_a is read from the frame, U(t_f) u_a: the same
    # matrix as the dense time-0 path states give, within ORACLE_RTOL, on
    # a branch-dependent tree at every step, and the probabilities are its
    # diagonal
    for tree, psi, unitary, frame_time in _frame_steps(name):
        assert tree.frame_time == frame_time
        dense = _dense_leaf_states(tree, psi, unitary)
        want = (dense.conj().T @ dense).T
        D = decoherence_matrix(tree)
        scale = np.max(np.abs(want))
        assert D.labels == tree.leaves()
        assert np.max(np.abs(D.entries - want)) <= ORACLE_RTOL * scale
        assert np.max(np.abs(tree.probabilities() - np.diag(want).real)) \
            <= ORACLE_RTOL * scale
    assert len(tree.leaves()) == 12


@pytest.mark.parametrize("name", ["flow", "chain", "callable"])
def test_leaf_states_are_the_dense_path_states_and_read_only(name):
    # leaf_states() evolves the frame back to time 0 on its first read:
    # the dense Heisenberg products' path states within ORACLE_RTOL, the
    # same array on every read, and, as the frame, read-only
    for tree, psi, unitary, _ in _frame_steps(name):
        states = tree.leaf_states()
        want = _dense_leaf_states(tree, psi, unitary)
        assert states.shape == want.shape
        assert np.max(np.abs(states - want)) \
            <= ORACLE_RTOL * np.max(np.abs(want))
        assert tree.leaf_states() is states
        for array in (states, tree.frame, tree.probabilities()):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0


def test_an_extended_tree_never_returns_its_parents_leaf_states():
    # a tree keeps its time-0 leaf states once read; a tree extended from
    # it, a shallow copy, must compute its own, whether it splits every
    # leaf, one leaf, or is given its frame
    rng = RandomStream(79, "leaf-state-cache")
    psi = sample_unit_vector(4, "complex", rng.stream("psi"))
    flow = HamiltonianFlow(sample_gue(4, 1.0, rng.stream("H")))
    tree = extend_all(HistoryTree(initial_state=psi, evolution=flow),
                      _random_decomposition(4, 0.8, rng.stream("d1")))
    parent = tree.leaf_states()
    dec = _random_decomposition(4, 1.5, rng.stream("d2"),
                                blocks=[[0, 1], [2, 3]])
    given = selection.Extension(tree, dec, 1.0)
    for child in (extend_all(tree, dec), extend_branch(tree, (2,), dec),
                  given.extend()):
        states = child.leaf_states()
        assert states is not parent and states.shape[1] > parent.shape[1]
        want = _dense_leaf_states(child, psi, flow.unitary)
        assert np.max(np.abs(states - want)) \
            <= ORACLE_RTOL * np.max(np.abs(want))
    assert tree.leaf_states() is parent


def test_leaf_states_are_read_only():
    # trees that extend one another share their states' values, so the
    # matrix a tree hands out must not be writable
    rng = RandomStream(59, "read-only")
    psi = sample_unit_vector(4, "complex", rng.stream("psi"))
    flow = HamiltonianFlow(sample_gue(4, 1.0, rng.stream("H")))
    root = HistoryTree(initial_state=psi, evolution=flow)
    tree = extend_all(root, _random_decomposition(4, 1.0, rng.stream("d")))
    for t in (root, tree, extend_branch(tree, (2,), _random_decomposition(
            4, 2.0, rng.stream("b")))):
        with pytest.raises(ValueError, match="read-only"):
            t.leaf_states()[0, 0] = 0.0


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_spin_probs_leaf_states_are_the_walk_to_the_bit(n, seed):
    # the trees of `qhist spin probs`: their frames step from one event
    # time to the next, and leaf_states() evolves the last back once,
    # where the walk evolves
    # forward and back at every time, so the two, and the dense Heisenberg
    # products of the kron-built unitaries, agree within ORACLE_RTOL
    rng = RandomStream(seed, "spin-probs")
    vecs = [sample_unit_vector(3, "real", rng.stream(f"axis{i}"))
            for i in range(n + 1)]
    cfg = spin.SpinModelConfig(v=vecs[0], axes=np.array(vecs[1:]))
    tree = spin.build_tree(cfg, spin.measurement_events(
        cfg, range(1, n + 1)))
    got = tree.leaf_states()
    unitaries = {t: spin.full_unitary(cfg, t) for t in range(1, n + 1)}
    for want in (_walk_leaf_states(tree), _dense_leaf_states(
            tree, tree.initial_state, unitaries.__getitem__)):
        assert got.shape == want.shape == (2 ** (n + 1), 2 ** n)
        assert np.max(np.abs(got - want)) <= REL_TOL * np.max(np.abs(want))


@pytest.mark.parametrize("dim,seed", [(2, 1), (4, 2), (6, 3), (8, 4)])
def test_two_leaf_flow_leaf_states_are_the_walk_to_the_bit(dim, seed):
    rng = RandomStream(seed, "two-leaf")
    psi = sample_unit_vector(dim, "complex", rng.stream("psi"))
    flow = HamiltonianFlow(sample_gue(dim, 1.0, rng.stream("H")))
    half = list(range(dim // 2))
    tree = extend_all(HistoryTree(initial_state=psi, evolution=flow),
                      _random_decomposition(
                          dim, 0.7, rng.stream("dec"),
                          blocks=[half, list(range(dim // 2, dim))]))
    assert np.array_equal(tree.leaf_states(), _walk_leaf_states(tree))


def test_forward_search_tree_is_the_walk_within_tolerance():
    # the 3 x 9 run of the golden `random analyse` (27 leaves): the scan's
    # states round otherwise than the walk's in the last bits
    record = randmodel.run_forward_search(randmodel.RunConfig(
        d1=3, d2=9, sigma=1.0, seed=1, epsilon=0.9, delta=0.02, t_max=2.0,
        max_histories=64))
    got = record.tree.leaf_states()
    walk = _walk_leaf_states(record.tree)
    assert got.shape == walk.shape == (27, 27)
    assert np.max(np.abs(got - walk)) <= REL_TOL * np.max(np.abs(walk))


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


def test_an_extension_past_the_leaf_state_cap_is_refused_before_it_allocates(
        monkeypatch):
    # _extend checks the new tree's leaf-state entries against
    # LEAF_STATE_CAP before it copies, projects or evolves anything: with
    # the cap set at a two-leaf tree of dimension 2^14, splitting every
    # leaf again (4 x 2^14 entries, 1 MiB) or one leaf into three is
    # refused, and nothing near the new tree's size is allocated
    dim = 2 ** 14
    rng = np.random.default_rng(5)
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    tree = extend_all(HistoryTree(initial_state=psi / np.linalg.norm(psi)),
                      ProjectiveDecomposition(0.5, [np.diag([1.0, 0.0]),
                                                    np.diag([0.0, 1.0])]))
    monkeypatch.setattr(histories, "LEAF_STATE_CAP", 2 * dim)
    halves = ProjectiveDecomposition(1.0, [np.diag([1.0, 0.0]),
                                           np.diag([0.0, 1.0])])
    thirds = ProjectiveDecomposition(1.0, [np.diag([1.0, 0, 0, 0]),
                                           np.diag([0, 1.0, 0, 0]),
                                           np.diag([0, 0, 1.0, 1.0])])
    for split in (lambda: extend_all(tree, halves),
                  lambda: extend_branch(tree, (0,), halves),
                  lambda: extend_branch(tree, (1,), thirds)):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=(
                    r"leaf states of dimension 16384 are \d+ entries, past "
                    r"the leaf-state cap 32768")):
                split()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * dim // 4
    # at the cap itself the tree is extended
    monkeypatch.setattr(histories, "LEAF_STATE_CAP", 3 * dim)
    assert len(extend_branch(tree, (0,), halves).leaves()) == 3


def _same_bits(got, want):
    return got.shape == want.shape and (
        np.ascontiguousarray(got).tobytes()
        == np.ascontiguousarray(want).tobytes())


def _reference_split(projectors, V):
    """The projection kernel's reference loops: each projector applied
    alone (apply_leading), each block's Gram matrix taken alone, and the
    blocks' columns laid out in leaves() order one block at a time."""
    blocks = [apply_leading(P, V) for P in projectors]
    k, (d, n) = len(blocks), V.shape
    W = np.empty((d, n * k), dtype=complex)
    for i, B in enumerate(blocks):
        W[:, i::k] = B
    return blocks, [B.T @ B.conj() for B in blocks], W


@pytest.mark.parametrize("k", range(2, 9))
def test_projection_kernel_is_its_reference_loops_bit_for_bit(k):
    # k projectors at system size 8, of ranks that sum to 8, on leaf
    # states of the system alone and of the system and a factor of 3, at
    # 1, 4 and 9 leaves; as Extension takes them, contiguous, and as a
    # scan chunk's row of evolved leaves, a strided view beside psi(t)
    rng = RandomStream(300 + k, "kernel")
    cuts = [list(c) for c in np.array_split(np.arange(8), k)]
    dec = _random_decomposition(8, 1.0, rng.stream("dec"), blocks=cuts)
    g = rng.stream("states").generator
    for m, n in [(1, 1), (1, 4), (3, 1), (3, 4), (3, 9)]:
        X = g.normal(size=(2, 8 * m, 1 + n)) \
            + 1j * g.normal(size=(2, 8 * m, 1 + n))
        for V in (np.ascontiguousarray(X[0, :, 1:]), X[1, :, 1:]):
            blocks, grams, W = _reference_split(dec.projectors, V)
            split = histories._project(dec.projectors, V)
            assert _same_bits(split, np.array(blocks))
            assert _same_bits(histories._gram(split), np.array(grams))
            assert _same_bits(histories._interleave(split), W)
        # a chunk's coefficients Y (T, k, m, n): one Gram block per row
        # and projector
        Y = g.normal(size=(5, k, m, n)) + 1j * g.normal(size=(5, k, m, n))
        assert _same_bits(histories._gram(Y), np.array(
            [[B.T @ B.conj() for B in row] for row in Y]))


@pytest.mark.parametrize("d1", [2, 3, 4])
def test_rank_one_kernel_is_its_reference_loops_bit_for_bit(d1):
    # the rank-1 form, for d1 orthonormal vectors u_i on the system factor
    # of leaf states of the system and a factor of 3, at 1, 4 and 9 leaves,
    # contiguous and as a chunk's strided row: Y_i = u_i^dag V, a (m, n)
    # block, is its vector-by-vector product within ORACLE_RTOL, and a
    # stack of rows, each by its own vectors, gives each row's Y to the
    # bit, as a scan chunk and the Extension of one of its rows take it;
    # P_i V = u_i (x) Y_i is its outer products to the bit; the Gram blocks
    # of Y are those of _project's blocks by the projectors u_i u_i^dag,
    # and the interleaved lift their columns, within ORACLE_RTOL
    g = RandomStream(400 + d1, "rank-one").generator
    for m, n in [(1, 1), (1, 4), (3, 1), (3, 9)]:
        X = g.normal(size=(2, d1 * m, 1 + n)) \
            + 1j * g.normal(size=(2, d1 * m, 1 + n))
        U = np.linalg.qr(g.normal(size=(2, d1, d1))
                         + 1j * g.normal(size=(2, d1, d1)))[0]
        vectors = np.swapaxes(U, 1, 2)          # (2, k, d1), rows u_i
        stack = histories._coefficients(vectors, X[:, :, 1:])
        for r, V in enumerate((np.ascontiguousarray(X[0, :, 1:]),
                               X[1, :, 1:])):
            u = vectors[r]
            Y = histories._coefficients(u, V)
            want = np.array([(u[i].conj() @ V.reshape(d1, -1)).reshape(m, n)
                             for i in range(d1)])
            assert np.max(np.abs(Y - want)) \
                <= ORACLE_RTOL * np.max(np.abs(want))
            assert _same_bits(stack[r], Y)
            lift = histories._lift(u, Y)
            assert _same_bits(lift, np.array([
                np.outer(u[i], Y[i].ravel()).reshape(d1 * m, n)
                for i in range(d1)]))
            projected = histories._project(
                u[:, :, None] * u[:, None, :].conj(), V)
            want = histories._gram(projected)
            assert np.max(np.abs(histories._gram(Y) - want)) \
                <= ORACLE_RTOL * np.max(np.abs(want))
            cols = histories._interleave(projected)
            assert np.max(np.abs(histories._interleave(lift) - cols)) \
                <= ORACLE_RTOL * np.max(np.abs(cols))
        assert _same_bits(histories._interleave(histories._lift(
            vectors, stack)), np.array([histories._interleave(
                histories._lift(vectors[r], stack[r])) for r in range(2)]))


def test_projection_kernel_stacks_classify_children_bit_for_bit():
    # classify scores the C children of a prefix as one stack: each
    # child's (2, d, n) blocks, Gram blocks and frame columns are its own
    # reference loops' to the bit, and its violation the largest
    # off-diagonal |G| over its two Gram blocks
    for n, leaves in [(2, 1), (3, 2), (4, 8)]:
        rng = RandomStream(n, "children")
        v, *axes = [sample_unit_vector(3, "real", rng.stream(f"u{j}"))
                    for j in range(n + 1)]
        cfg = spin.SpinModelConfig(v, np.array(axes))
        times = np.sort(rng.generator.uniform(0.2, n, size=5)).tolist()
        pairs = np.array([spin._axis_pair(sample_unit_vector(
            3, "real", rng.stream(f"w{t}"))) for t in times])
        g = rng.stream("W").generator
        d = 2 ** (n + 1)
        W = g.normal(size=(d, leaves)) + 1j * g.normal(size=(d, leaves))
        V = spin.chain_evolution(cfg).apply_times(W, times)
        split = histories._project(pairs, V)
        G = histories._gram(split)
        for c in range(len(times)):
            blocks, grams, cols = _reference_split(pairs[c], V[c])
            assert _same_bits(split[c], np.array(blocks))
            assert _same_bits(G[c], np.array(grams))
            assert _same_bits(histories._interleave(split[c]), cols)
            off = np.abs(np.array(grams))
            off[:, range(leaves), range(leaves)] = 0.0
            assert histories._max_off_diagonal(G)[c] == off.max()


@pytest.mark.parametrize("block", [1, 40, 1 << 14])
def test_max_off_diagonal_in_slabs_is_the_whole_stacks(monkeypatch, block):
    # the moduli are taken in slabs of about SCAN_BLOCK entries (18 a leaf
    # row here), one leaf row, two, or all three: the largest off-diagonal
    # |G| of each row is the whole stack's to the bit, a NaN in the last
    # leaf row, so in the last slab, included
    monkeypatch.setattr(histories, "SCAN_BLOCK", block)
    g = np.random.default_rng(5)
    G = g.normal(size=(3, 2, 1, 3, 3)) + 1j * g.normal(size=(3, 2, 1, 3, 3))
    step = max(1, block // (G.size // 3))
    assert len(range(0, 3, step)) == {1: 3, 40: 2}.get(block, 1)
    G[1, 1, 0, 2, 0] = np.nan
    whole = np.abs(G)
    whole[..., range(3), range(3)] = 0.0
    got = histories._max_off_diagonal(G)
    assert _same_bits(got, whole.max(axis=(1, 2, 3, 4)))
    assert np.isnan(got[1]) and not np.isnan(got[[0, 2]]).any()


class _StepCountingEvolution(_CountingEvolution):
    """_CountingEvolution with apply_times, recorded as (ts, since)."""

    def apply_times(self, states, ts, since=None):
        self.calls.append((list(ts), since))
        return self.flow.apply_times(states, ts, since)


def test_extension_by_several_decompositions_steps_from_time_to_time():
    # one _extend by m decompositions evolves to the first time and steps
    # on by one apply_times since the time before, with no evolution back:
    # m calls, as m extend_all calls take, and the same tree, within
    # ORACLE_RTOL
    dim = 4
    rng = RandomStream(61, "steps")
    psi = sample_unit_vector(dim, "complex", rng.stream("psi"))
    evolution = _StepCountingEvolution(
        HamiltonianFlow(sample_gue(dim, 1.0, rng.stream("H"))))
    decs = [_random_decomposition(dim, t, rng.stream(f"dec{t}"),
                                  blocks=[[0, 1], [2, 3]])
            for t in (0.5, 1.1, 1.7)]
    root = HistoryTree(initial_state=psi, evolution=evolution)
    tree = histories._extend(root, decs, None)
    assert evolution.calls == [(0.5, False), ([1.1], 0.5), ([1.7], 1.1)]
    assert tree.frame_time == 1.7
    chained = root
    for dec in decs:
        chained = extend_all(chained, dec)
    assert tree.leaves() == chained.leaves()
    assert np.max(np.abs(tree.leaf_states() - chained.leaf_states())) \
        <= ORACLE_RTOL
    assert histories._extend(root, [], None) is root
    with pytest.raises(ValueError, match="1.1 does not exceed branch time"):
        histories._extend(root, [decs[0], decs[2], decs[1]], None)
