"""Branch-dependent history trees, path-projected states and decoherence
matrices.

A history tree applies timed projective decompositions along its branches;
each leaf is a history alpha with path-projected state u_alpha = C_alpha psi
and probability |u_alpha|^2.  Projectors stay in the Schroedinger picture:
a node maps the state u it receives to U(t)^dag P_i U(t) u.  D_ab =
u_b^dag u_a is unchanged when one unitary acts on every u_a, so a tree
carries its leaves' states in one frame only: a time t_f (frame_time, None
for a fresh tree) and the read-only matrix F = U(t_f) [u_alpha] (frame),
columns in leaves() order, from which the probabilities and the
decoherence matrix are read.  Extension (_extend) steps the columns it
splits from t_f to each decomposition time in turn (apply_times with
since, or one apply from time 0 on a fresh tree) and splits them there;
when it splits every leaf the last split is the new frame, so extending by
m decompositions takes m evolution calls, and a leaf split alone
(extend_branch) steps back to t_f.  leaf_states, the time-0 path states,
are U(t_f)^dag F, one adjoint apply on their first read.
The one projection kernel, which selection and spin score candidates
with too, is three functions: _project splits stacked states by stacked
projectors into blocks P_i U(t) V, _interleave lays a split's blocks out
as columns in leaves() order, and _gram takes the Gram blocks of a split,
the only blocks of the extended set's decoherence matrix that are not
zero, for projectors at one time are orthogonal.  Its rank-1 form, for
projectors u_i u_i^dag given by their vectors, is two more:
_coefficients gives the blocks Y_i = u_i^dag U(t) V, whose Gram blocks
(_gram) are the split's, and _lift the blocks P_i U(t) V = u_i (x) Y_i.
Trees are immutable; extension returns a new tree sharing untouched
subtrees.

Evolution is matrix-free.  An evolution is an object with
apply(states, t, adjoint=False) returning U(t) states or U(t)^dag states,
apply_times(states, ts, since=None) stacking U(t) states over the times
ts, or U(t) U(since)^dag states when since is given, a (0, ...) stack for
no times, and apply_rows(states, ts, adjoint=False) evolving row r of a
stack (T, ...) of states by U(ts[r]), or its adjoint.  spin.ChainEvolution
computes all three in one kernel over a sequence of times, undoing at
since only the interactions that do not cancel; HamiltonianFlow computes
apply and apply_times in one, phased by t - since, and apply_rows by
batched products; a callable t -> U(t) is wrapped once by
CallableEvolution, whose apply_times and apply_rows take one apply per
time, and one adjoint apply at since.  Operators act on the leading tensor
factor (apply_leading): an operator of size d applied to a state of size
d*m acts as op (x) 1_m by reshape, so system projectors and a purified
state's base evolution stay at their own size.
"""

import copy
import math
from dataclasses import dataclass

import numpy as np

from .linalg import hermitian_eig, leading_view
from .tolerances import NORM_TOL, PROJECTOR_TOL, SCHMIDT_WEIGHT_TOL

# complex entries of a tree's frame, and so of its leaf states, 512 MiB: the
# spin chain's measurement tree at n = 12, 2^13 x 2^12, is the largest
# within it; also the complex entries of the largest array of a one-time
# scan chunk (selection._prepare_chunk), whose Gram stacks grow as the
# leaves squared.
# It bounds that one array, not the chunk: a one-time chunk at the cap
# peaks at about that array, 512 MiB, under tracemalloc, for it judges its
# Gram stack in slabs of about SCAN_BLOCK entries, and at about 1.5 times,
# 768 MiB, with the persistence probe, which holds the moduli of its Gram
# stack beside it
LEAF_STATE_CAP = 1 << 25


def _check_entries(entries, what):
    """Refuse an array of `entries` complex entries before it is
    allocated: ValueError, what followed by its entries and the cap, when
    they exceed LEAF_STATE_CAP."""
    if entries > LEAF_STATE_CAP:
        raise ValueError(
            f"{what} {entries} entries, past the leaf-state cap "
            f"{LEAF_STATE_CAP}")


def _check_leaf_states(dim, leaves):
    """Refuse a tree of `leaves` leaf states of dimension dim, before any
    of it is allocated: ValueError naming its entries and the cap when
    they exceed LEAF_STATE_CAP."""
    _check_entries(dim * leaves,
                   f"{leaves} leaf states of dimension {dim} are")


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

    def apply_times(self, states, ts, since=None):
        """U(t) states for every t of ts, stacked on a leading time axis, or
        U(t) U(since)^dag states when since is given: one apply per time,
        after one adjoint apply at since."""
        if since is not None:
            states = self.apply(states, since, adjoint=True)
        return np.array([self.apply(states, t) for t in ts],
                        dtype=complex).reshape((len(ts),) + np.shape(states))

    def apply_rows(self, states, ts, adjoint=False):
        """U(ts[r]) states[r], or its adjoint, for every row r of a stack
        (T, ...) of states: one apply per row."""
        return np.array([self.apply(x, t, adjoint)
                         for x, t in zip(states, ts)],
                        dtype=complex).reshape(np.shape(states))


def as_evolution(evolution):
    """None, an object with apply(states, t, adjoint=False),
    apply_times(states, ts, since=None) and apply_rows(states, ts,
    adjoint=False) (HamiltonianFlow, spin.ChainEvolution: one kernel each,
    which all three enter), or a callable t -> U(t) wrapped in
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
    """Tree of timed projective decompositions over an initial state, with
    its leaves' states in one frame, the read-only matrix frame = U(t_f)
    [u_alpha] at frame_time t_f (None for a fresh tree, whose frame is
    psi), and their probabilities, set once per tree where the frame is
    computed.

    evolution, if given, is an object of the apply protocol or a callable
    t -> U(t) (see as_evolution); projections at time t act
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
        self._set_frame(psi[:, None], None)

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

    def _evolve(self, states, t, adjoint=False, since=None):
        """U(t) states, U(t)^dag states (adjoint) or, with since,
        U(t) U(since)^dag states; states themselves without an
        evolution."""
        if self.evolution is None:
            return states
        if since is None:
            return self.evolution.apply(states, t, adjoint)
        return self.evolution.apply_times(states, [t], since)[0]

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
        leaves() order: the frame evolved back to time 0, U(t_f)^dag F, by
        one adjoint apply on the first read (a fresh tree's is its frame),
        and kept, read-only, for every later read of this tree."""
        if self._leaf_states is None:
            self._leaf_states = self.frame if self.frame_time is None \
                else self._evolve(self.frame, self.frame_time, adjoint=True)
            self._leaf_states.flags.writeable = False
        return self._leaf_states

    def probabilities(self):
        """The leaf probabilities |u_alpha|^2, in leaves() order: the
        diagonal of the decoherence matrix, the squared column norms of the
        frame, read from the array the tree carries (read-only, as the
        frame is), so reading it computes nothing."""
        return self._probabilities

    def _set_frame(self, states, time):
        states.flags.writeable = False
        self.frame, self.frame_time, self._leaf_states = states, time, None
        self._probabilities = (states.conj() * states).real.sum(axis=0)
        self._probabilities.flags.writeable = False


def _project(projectors, V):
    """The blocks P_i V of states V split by projectors: stacked
    (..., k, d1, d1) projectors act on the leading factor C^d1 of the
    (..., d, n) column states V (apply_leading), giving (..., k, d, n)
    blocks, block i = P_i V.  The leading axes broadcast, so one product
    splits a stack of states, each by its own projectors.  Raises
    ValueError when d1 does not divide d."""
    P = np.asarray(projectors)
    *lead, d, n = V.shape
    d1 = P.shape[-1]
    if d % d1:
        raise ValueError(
            f"operator size {d1} does not divide state size {d}")
    blocks = P @ V.reshape(tuple(lead) + (1, d1, -1))
    return blocks.reshape(blocks.shape[:-2] + (d, n))


def _coefficients(vectors, V):
    """The rank-1 form of _project: the blocks Y_i = u_i^dag V of stacked
    (..., d, n) column states V split by the projectors u_i u_i^dag on
    their leading factor C^d1, from the stacked (..., k, d1) unit vectors
    u_i: (..., k, d / d1, n) blocks, P_i V = u_i (x) Y_i (_lift).  The
    Gram blocks of the split are _gram(Y), without the P_i V."""
    *lead, _, n = V.shape
    Y = vectors.conj() @ V.reshape(tuple(lead) + (vectors.shape[-1], -1))
    return Y.reshape(Y.shape[:-1] + (-1, n))


def _lift(vectors, Y):
    """The blocks P_i V = u_i (x) Y_i, (..., k, d, n), of a rank-1 split
    from its (..., k, d1) vectors and (..., k, m, n) blocks Y
    (_coefficients), d = d1 m."""
    blocks = vectors[..., :, None, None] * Y[..., None, :, :]
    return blocks.reshape(blocks.shape[:-3] + (-1, Y.shape[-1]))


def _interleave(blocks):
    """The (..., d, n k) columns of a split's (..., k, d, n) blocks in
    leaves() order, leaf outer and projector inner: column a k + i is
    block i's column a.  A C-ordered array of its own, so that no view
    keeps the blocks alive."""
    *lead, k, d, n = blocks.shape
    return np.moveaxis(blocks, -3, -1).copy().reshape(tuple(lead)
                                                      + (d, n * k))


def _gram(blocks):
    """The Gram matrices G_ab = u_b^dag u_a of stacked blocks (..., d, n)
    of column states u_a: (..., n, n).  Of a split's blocks (_project)
    these are the diagonal blocks of the extended set's decoherence
    matrix, G[i] = D[i::k, i::k], and it is zero off them."""
    return np.swapaxes(blocks, -1, -2) @ blocks.conj()


def _max_off_diagonal(G):
    """The largest off-diagonal |G_ab| of each row of a stack (R, ..., n, n)
    of Gram blocks, over all the blocks of the row: an (R,) array."""
    G = np.abs(G)
    n = G.shape[-1]
    G[..., range(n), range(n)] = 0.0
    return G.max(axis=tuple(range(1, G.ndim)))


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
    """Decoherence matrix of a tree's leaves, D_ab = u_b^dag u_a, read from
    the tree's frame: one unitary acts on every column, so D is the same
    in any frame, up to rounding."""
    states = tree.frame
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


def _split_nodes(root, dec, path, dim):
    """The nodes of a tree rooted at root, with dec splitting the leaf at
    the end of path, or every leaf when path is None, in one rebuild;
    untouched subtrees are shared.  Only the nodes: no state is computed.
    Raises ValueError when dec's projectors do not divide the state
    dimension dim, when dec is not later than the last decomposition on a
    branch it splits, or when path does not end at a leaf."""
    d = dec.projectors[0].shape[0]
    if dim % d:
        raise ValueError(
            f"projector dimension {d} does not divide state dimension {dim}")

    # nodes are never changed, so every split leaf shares one new node
    grown = _Node(dec, [_Node() for _ in dec.projectors])

    def rebuild(node, path, t_last):
        if node.is_leaf:
            if path:
                raise ValueError("path does not end at a leaf")
            if t_last is not None and dec.time <= t_last:
                raise ValueError(f"decomposition time {dec.time} does not "
                                 f"exceed branch time {t_last}")
            return grown
        if path == ():
            raise ValueError("path does not end at a leaf")
        children = list(node.children)
        for i in range(len(children)) if path is None else path[:1]:
            children[i] = rebuild(children[i], path and path[1:],
                                  node.decomposition.time)
        return _Node(node.decomposition, children)

    return rebuild(root, path, None)


def _extend(tree, decs, path, states=None):
    """New tree with each decomposition of decs in turn splitting the leaf
    at the end of path, or every leaf when path is None (_split_nodes, one
    rebuild each, so a path takes one decomposition); tree itself when
    decs is empty.  The frame's columns that split step from the frame
    time to each decomposition time in turn (apply_times since the time
    before, or one apply from time 0 on a fresh tree) and split there
    (_project) into their children's columns (_interleave).  When they are
    every column, the last split is the new frame, at the last
    decomposition time, so m decompositions take m evolution calls; one
    leaf of several (extend_branch) steps back to the frame time, one call
    more, and the frame keeps its time.  states, when given, are the new
    tree's frame at the last decomposition time, already computed
    (selection.Extension, spin.classify_catalogue).  Raises ValueError as
    _split_nodes does, or, before anything is allocated, when the new
    tree's leaf states would exceed LEAF_STATE_CAP entries."""
    if not decs:
        return tree
    dim, leaves = tree.frame.shape
    k = math.prod(len(dec) for dec in decs)
    _check_leaf_states(dim, leaves * k if path is None else leaves + k - 1)
    root = tree.root
    for dec in decs:
        root = _split_nodes(root, dec, path, tree.dim)
    time = decs[-1].time
    if states is None:
        a = 0 if path is None else tree.leaves().index(path)
        b = leaves if path is None else a + 1
        states, since = tree.frame[:, a:b], tree.frame_time
        for dec in decs:
            states = _interleave(_project(
                dec.projectors, tree._evolve(states, dec.time, since=since)))
            since = dec.time
        if b - a < leaves:
            time = tree.frame_time
            states = np.hstack([tree.frame[:, :a], tree._evolve(
                states, time, since=since), tree.frame[:, b:]])
    tree = copy.copy(tree)
    tree.root = root
    tree._set_frame(states, time)
    return tree


def extend_branch(tree, leaf, dec):
    """New tree with the given leaf split by a projective decomposition.

    Unmodified subtrees are shared with the original."""
    return _extend(tree, [dec], tuple(leaf))


def extend_all(tree, dec):
    """Extend every leaf by the same decomposition (branch-independent)."""
    return _extend(tree, [dec], None)
