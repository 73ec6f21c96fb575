"""Branch-dependent history trees, path-projected states and decoherence
matrices.

A history tree applies timed projective decompositions along its branches;
each leaf is a history alpha with path-projected state u_alpha = C_alpha psi
and probability |u_alpha|^2.  Projectors stay in the Schroedinger picture:
a node maps the state u it receives to U(t)^dag P_i U(t) u.  One walk of
the tree (leaf_states) gives every path state level by level: the states
of one level that meet a decomposition at the same time t are stacked as
the columns of one matrix, evolved forward once, projected, and evolved
back once.  Trees are immutable; extension returns a new tree sharing
untouched subtrees.

Evolution is matrix-free.  An evolution is an object with
apply(states, t, adjoint=False) returning U(t) states or U(t)^dag states,
and apply_times(states, ts) stacking U(t) states over many t
(HamiltonianFlow, the spin chains); a callable t -> U(t) is wrapped once
by CallableEvolution.  Operators act on the leading tensor factor
(apply_leading): an operator of size d applied to a state of size d*m acts
as op (x) 1_m by reshape, so system projectors and a purified state's base
evolution stay at their own size.
"""

import copy
from dataclasses import dataclass

import numpy as np

from .linalg import hermitian_eig, leading_view
from .tolerances import NORM_TOL, PROJECTOR_TOL, SCHMIDT_WEIGHT_TOL


def apply_leading(op, states):
    """(op (x) 1) states, for a state vector or a matrix of column states
    whose size is a multiple of op's; op of the states' own size is a plain
    matrix product.  Raises ValueError when op's size does not divide the
    state size."""
    d = op.shape[1]
    if d == states.shape[0]:
        return op @ states
    return (op @ leading_view(states, d)).reshape(states.shape)


class CallableEvolution:
    """The apply protocol over a callable t -> U(t).  The latest U is kept,
    so evolving forward and back at one time builds it once."""

    def __init__(self, unitary):
        self.unitary = unitary
        self._latest = (None, None)

    def apply(self, states, t, adjoint=False):
        if self._latest[0] != t:
            self._latest = (t, np.asarray(self.unitary(t), dtype=complex))
        U = self._latest[1]
        return apply_leading(U.conj().T if adjoint else U, states)

    def apply_times(self, states, ts):
        """U(t) states for every t of ts, stacked on a leading time axis:
        one apply per time."""
        return np.stack([self.apply(states, t) for t in ts])


def as_evolution(evolution):
    """None, an object with apply(states, t, adjoint=False) and
    apply_times(states, ts), or a callable t -> U(t) wrapped in
    CallableEvolution."""
    if evolution is None or hasattr(evolution, "apply"):
        return evolution
    return CallableEvolution(evolution)


class ProjectiveDecomposition:
    """A complete set of orthogonal projectors applied at a fixed time.

    Projectors of size d act on the leading factor of a state of size d*m
    (see apply_leading), so system projectors are given at system size."""

    def __init__(self, time, projectors, check=True):
        self.time = float(time)
        self.projectors = [np.asarray(P, dtype=complex) for P in projectors]
        if check:
            self._validate()

    def _validate(self):
        dim = self.projectors[0].shape[0]
        total = np.zeros((dim, dim), dtype=complex)
        for i, P in enumerate(self.projectors):
            if P.shape != (dim, dim):
                raise ValueError("projector shapes differ")
            if not np.max(np.abs(P - P.conj().T)) <= PROJECTOR_TOL:
                raise ValueError(f"projector {i} is not Hermitian")
            if not np.max(np.abs(P @ P - P)) <= PROJECTOR_TOL:
                raise ValueError(f"projector {i} is not idempotent")
            total += P
        for i in range(len(self.projectors)):
            for j in range(i + 1, len(self.projectors)):
                overlap = self.projectors[i] @ self.projectors[j]
                if not np.max(np.abs(overlap)) <= PROJECTOR_TOL:
                    raise ValueError(f"projectors {i},{j} are not orthogonal")
        if not np.max(np.abs(total - np.eye(dim))) <= PROJECTOR_TOL:
            raise ValueError("projectors do not sum to the identity")

    def __len__(self):
        return len(self.projectors)


class _Node:
    __slots__ = ("decomposition", "children")

    def __init__(self, decomposition=None, children=None):
        self.decomposition = decomposition
        self.children = children or []

    @property
    def is_leaf(self):
        return self.decomposition is None


class HistoryTree:
    """Tree of timed projective decompositions over an initial state.

    evolution, if given, is an object with apply(states, t, adjoint=False)
    or a callable t -> U(t) (see as_evolution); projections at time t act
    as U(t)^dag P U(t) on the initial state.  A mixed initial
    state (density matrix) of size d is purified into C^d (x) C^r, r its
    rank read from the eigenvalues; evolution and projectors stay at size
    d and act on the leading factor.  A pure or purified state whose norm
    is off 1 by more than NORM_TOL (a density of trace other than 1, or
    with a negative eigenvalue) or is NaN raises ValueError.
    """

    def __init__(self, initial_state=None, evolution=None,
                 initial_density=None):
        if (initial_state is None) == (initial_density is None):
            raise ValueError("give exactly one of initial_state, initial_density")
        if initial_density is not None:
            rho = np.asarray(initial_density, dtype=complex)
            vals, vecs = hermitian_eig(rho)
            keep = vals > SCHMIDT_WEIGHT_TOL
            vals, vecs = vals[keep], vecs[:, keep]
            # sum_i sqrt(p_i) v_i (x) e_i: the base space is the leading factor
            psi = (vecs * np.sqrt(vals)[None, :]).reshape(-1)
        else:
            psi = np.asarray(initial_state, dtype=complex).reshape(-1)
        norm = np.linalg.norm(psi)
        if not abs(norm - 1.0) <= NORM_TOL:
            raise ValueError(
                f"initial state is not normalized: |psi| = {norm}")
        self.initial_state = psi
        self.evolution = as_evolution(evolution)
        self.root = _Node()

    @property
    def dim(self):
        return self.initial_state.size

    def leaves(self):
        """Leaf paths in depth-first order, children in projector order."""
        out = []

        def walk(node, path):
            if node.is_leaf:
                out.append(path)
                return
            for i, child in enumerate(node.children):
                walk(child, path + (i,))

        walk(self.root, ())
        return out

    def node_at(self, path):
        node = self.root
        for i in path:
            node = node.children[i]
        return node

    def _evolve(self, states, t, adjoint=False):
        if self.evolution is None:
            return states
        return self.evolution.apply(states, t, adjoint)

    def path_state(self, path):
        """u_alpha = C_alpha psi, the (sub-normalized) path-projected state."""
        u = self.initial_state
        node = self.root
        for i in path:
            dec = node.decomposition
            u = self._evolve(apply_leading(dec.projectors[i],
                                           self._evolve(u, dec.time)),
                             dec.time, adjoint=True)
            node = node.children[i]
        return u

    def leaf_states(self):
        """Path states of all leaves as the columns of one matrix, in
        leaves() order, from one level-by-level walk of the tree.

        At each level the states of the nodes that decompose at one time t
        are evolved forward together, split by the projectors of their
        decompositions, and evolved back together: two evolution calls per
        distinct time of the level."""
        frontier = [((), self.root)]
        states = self.initial_state[:, None]
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
                evolved = self._evolve(states[:, group], t)
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
                blocks.append(self._evolve(np.hstack(projected), t,
                                           adjoint=True))
            frontier = next_frontier
            if blocks:
                states = np.hstack(blocks)
        # no leaf path is a prefix of another, so sorted paths are in
        # leaves() order
        order = sorted(range(len(paths)), key=paths.__getitem__)
        return np.column_stack([columns[i] for i in order])


@dataclass
class DecoherenceMatrix:
    """Hermitian matrix D_ab = u_b^dag u_a over the histories of a set."""

    entries: np.ndarray
    labels: list

    @property
    def diag(self):
        return np.real(np.diag(self.entries))

    @property
    def n(self):
        return self.entries.shape[0]

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=complex)


def decoherence_matrix(tree):
    """Decoherence matrix of a tree's leaves, D_ab = u_b^dag u_a."""
    states = tree.leaf_states()
    D = (states.conj().T @ states).T
    return DecoherenceMatrix(D, tree.leaves())


def coarse_grain(D, partition):
    """Merge histories: D*_{IJ} = sum_{a in I, b in J} D_ab."""
    n = D.n
    seen = sorted(i for block in partition for i in block)
    if seen != list(range(n)):
        raise ValueError("partition must cover every history exactly once")
    m = len(partition)
    out = np.zeros((m, m), dtype=complex)
    for I, bi in enumerate(partition):
        for J, bj in enumerate(partition):
            out[I, J] = D.entries[np.ix_(list(bi), list(bj))].sum()
    labels = [tuple(sorted(block)) for block in partition]
    return DecoherenceMatrix(out, labels)


def real_embed(u):
    """Re(u) (+) Im(u): doubles the dimension, preserves the norm, and turns
    Re(u^dag w) into an ordinary real dot product exactly."""
    u = np.asarray(u, dtype=complex).reshape(-1)
    return np.concatenate([u.real, u.imag])


def _extend(tree, dec, path):
    """New tree with dec splitting the leaf at the end of path, or every
    leaf when path is None, in one rebuild; untouched subtrees are shared.
    Raises ValueError when dec's projectors do not divide the state, when
    dec is not later than the last decomposition on a branch it splits, or
    when path does not end at a leaf."""
    d = dec.projectors[0].shape[0]
    if tree.dim % d:
        raise ValueError(
            f"projector dimension {d} does not divide state dimension {tree.dim}")

    def rebuild(node, path, t_last):
        if node.is_leaf:
            if path:
                raise ValueError("path does not end at a leaf")
            if t_last is not None and dec.time <= t_last:
                raise ValueError(f"decomposition time {dec.time} does not "
                                 f"exceed branch time {t_last}")
            return _Node(dec, [_Node() for _ in dec.projectors])
        if path == ():
            raise ValueError("path does not end at a leaf")
        children = list(node.children)
        for i in range(len(children)) if path is None else path[:1]:
            children[i] = rebuild(children[i], path and path[1:],
                                  node.decomposition.time)
        return _Node(node.decomposition, children)

    new_tree = copy.copy(tree)
    new_tree.root = rebuild(tree.root, path, None)
    return new_tree


def extend_branch(tree, leaf, dec):
    """New tree with the given leaf split by a projective decomposition.

    Unmodified subtrees are shared with the original."""
    return _extend(tree, dec, tuple(leaf))


def extend_all(tree, dec):
    """Extend every leaf by the same decomposition (branch-independent)."""
    return _extend(tree, dec, None)
