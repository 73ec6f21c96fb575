"""Exactly solvable spin-measurement chain.

A spin-half system particle interacts in sequence with n environment
spins; interaction k rotates environment spin k conditionally on the
system component along axis u_k.  Everything is computable twice over:
closed forms (reduced density matrix, two-time off-diagonals, history
probabilities, information content) and brute force on the full
2^{n+1}-dimensional state vector.  The brute force is matrix-free:
ChainEvolution applies U(t) = V_n(t) ... V_1(t) to state vectors and
column-state matrices one interaction at a time, each V_k on the (system,
environment spin k) axes only, so no 2^{n+1}-square matrix is built.
Trees and the classification walk step their frames from one projection
time to the next, U(t_k) U(t_{k-1})^dag (ChainEvolution.apply_times with
since), which at integer times is the one interaction V_k, and split them
by the projection kernel of histories (_project, _interleave, _gram):
build_tree extends a tree by all of its events at once (histories._extend),
so it turns one interaction per integer event and evolves nothing back,
and classify_catalogue scores a prefix's children from the prefix tree's
frame at its last time.  The closed-form probabilities of every history of
a chain of integer times are one product over all of them
(history_probabilities), each history_probability's to the bit.  The
dense products (interaction_unitary, full_unitary, recoherence_unitary)
remain as small-n oracles.  Variants: a decohere/recohere cycle on a
single environment spin, and branch-dependent (delayed-choice) axes, each
branch stepped by its own one-interaction ChainEvolution.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .histories import (HistoryTree, ProjectiveDecomposition,
                        _check_leaf_states, _extend, _gram, _interleave,
                        _max_off_diagonal, _project, apply_leading)
from .linalg import entropy, leading_rows, leading_view
from .tolerances import (BLOCH_NORM_TOL, GENERICITY_TOL, PROJECTOR_TOL,
                         TIME_TOL, UNIT_VECTOR_TOL)

SIGMA = [
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
]
I2 = np.eye(2, dtype=complex)


def proj2(y):
    """(1 + sigma.y)/2; y may be complex (extended projector)."""
    y = np.asarray(y)
    return (I2 + y[0] * SIGMA[0] + y[1] * SIGMA[1] + y[2] * SIGMA[2]) / 2.0


def spinor(u):
    """+1 eigenvector of sigma.u for a real unit 3-vector."""
    u = np.asarray(u, dtype=float)
    th = math.acos(max(-1.0, min(1.0, u[2])))
    ph = math.atan2(u[1], u[0])
    return np.array([math.cos(th / 2), math.sin(th / 2) * np.exp(1j * ph)],
                    dtype=complex)


@dataclass
class SpinModelConfig:
    """Initial system axis v (= u_0) and measurement axes u_1..u_n.

    The canonical schedule runs interaction k over (k-1, k], linearly in
    the rotation angle; reparameterization invariance of the histories
    makes the profile immaterial.  v has shape (3,) and axes (n, 3) with
    n >= 1; a single 3-vector is one axis.  Genericity (no orthogonal or
    parallel adjacent axes) is reported, not enforced."""

    v: np.ndarray
    axes: np.ndarray

    def __post_init__(self):
        self.v = np.asarray(self.v, dtype=float)
        axes = np.asarray(self.axes, dtype=float)
        self.axes = axes[None] if axes.shape == (3,) else axes
        if self.v.shape != (3,):
            raise ValueError(f"v must have shape (3,), got {self.v.shape}")
        if self.axes.shape[1:] != (3,) or len(self.axes) < 1:
            raise ValueError(
                f"axes must have shape (n, 3) with n >= 1, got {axes.shape}")
        for name, vec in [("v", self.v)] + [
                (f"u{i+1}", u) for i, u in enumerate(self.axes)]:
            if not abs(np.linalg.norm(vec) - 1.0) <= UNIT_VECTOR_TOL:
                raise ValueError(f"{name} is not a unit vector")

    @property
    def generic(self):
        """False when two adjacent axes (u_0 = v) are orthogonal or
        parallel within GENERICITY_TOL."""
        chain = [self.v] + list(self.axes)
        return not any(abs(np.dot(a, b)) < GENERICITY_TOL
                       or np.linalg.norm(np.cross(a, b)) < GENERICITY_TOL
                       for a, b in zip(chain, chain[1:]))

    @property
    def n(self):
        return self.axes.shape[0]

    def axis(self, k):
        """u_k with u_0 = v."""
        return self.v if k == 0 else self.axes[k - 1]


def theta_schedule(k, t):
    """Rotation angle of interaction k at time t: 0 before k-1, pi/2 after k."""
    return float(min(max(math.pi / 2 * (t - k + 1), 0.0), math.pi / 2))


def lam(cfg, i, j):
    """Signed product of consecutive axis dots from i to j (u_0 = v)."""
    out = 1.0
    for k in range(i, j):
        out *= float(np.dot(cfg.axis(k), cfg.axis(k + 1)))
    return out


def lam_abs(cfg, i, j):
    return abs(lam(cfg, i, j))


def N_k(cfg, k, omega):
    """|A_k u_{k-1}| at rotation angle omega: sqrt(c^2 + cos^2(omega)(1-c^2))."""
    c = lam(cfg, k - 1, k)
    return math.sqrt(c * c + math.cos(omega) ** 2 * (1.0 - c * c))


# -- reduced dynamics (closed form) --------------------------------------

def _axis_op(u, theta):
    """A = P(u) + cos(theta) (1 - P(u)) acting on real 3-vectors."""
    u = np.asarray(u, dtype=float)
    P = np.outer(u, u)
    return P + math.cos(theta) * (np.eye(3) - P)


def bloch_vector(cfg, t):
    """A(t) v: the (unnormalized) Bloch vector of the reduced state."""
    a = cfg.v.copy()
    for k in range(1, cfg.n + 1):
        a = _axis_op(cfg.axis(k), theta_schedule(k, t)) @ a
    return a


def reduced_density(cfg, t):
    """Reduced system density matrix, Schmidt axis and weight split.

    Returns (rho, w, N): rho = (1 + sigma.(Nw))/2 has eigenvalues
    (1 +- N)/2 with eigenvectors |+-w>.  Flags N below tolerance."""
    a = bloch_vector(cfg, t)
    N = float(np.linalg.norm(a))
    if not N >= BLOCH_NORM_TOL:
        raise ValueError("degenerate Schmidt direction: |A(t)v| ~ 0")
    return proj2(a), a / N, N


def schmidt_axis(cfg, t):
    """reduced_density's Schmidt axis w; ValueError where it is degenerate."""
    return reduced_density(cfg, t)[1]


# -- full-state machinery ------------------------------------------------

def _rot_minus_one(theta, adjoint):
    """The entries of R(theta) - 1, or of R(theta)^T - 1 = R(-theta) - 1,
    in row order."""
    s = -math.sin(theta) if adjoint else math.sin(theta)
    c1 = -2.0 * math.sin(theta / 2) ** 2               # cos(theta) - 1
    return c1, -s, s, c1


class ChainEvolution:
    """U(t) = V_n(t) ... V_1(t) on C^2 (x) (C^2)^n, applied without a
    matrix.  V_k(t) = P(u_k) (x) 1 + P(-u_k) (x) R(theta_k(t)), with R the
    real rotation [[cos, -sin], [sin, cos]] on environment spin k, is
    applied as 1 + P(-u_k) (x) (R - 1): R - 1 on the environment-spin-k
    axis of a (2^k, 2, rest) view of the states, then P(-u_k) on the
    system axis.  theta(k, t) gives the angles.

    apply(states, t, adjoint=False) takes a state vector or a matrix of
    column states whose size is a multiple of dim (leading factor);
    apply_times(states, ts, since=None) stacks U(t) states over ts on a
    leading time axis, or U(t) U(since)^dag states, and apply_rows(states,
    ts, adjoint=False) evolves row r of a stack (T, ...) of them by
    U(ts[r]).  All three enter one loop over the
    interactions (_evolve), reversed for the adjoint, which calls theta
    interaction by interaction, at every time in order.  An interaction
    with the same angle at every time is applied once, as one R - 1, to
    the states not yet split by time, and skipped at angle 0.  The states
    split into one row per time at the first interaction whose angles
    differ, or, in apply_rows, from the start; from there each interaction
    applies a (T, 2, 2) stack of R - 1, whose rows at angle 0 add an exact
    0, filled into a preallocated array from two float lists, the sines
    and the cos - 1 of _rot_minus_one's own scalar expressions (math.sin,
    so the stack is the scalar path's to the bit).  So apply, at one time,
    takes one scalar step per turned interaction; the (T, 2, 2) stack
    alone, at T = 1, was 1.2-1.45x slower (n = 2-6, on a shared 2-vCPU
    VM), and spin-chain trees step by apply_times at one time.  And
    apply_times applies the interactions that a chunk of chain-schedule
    times has finished at all of its times once, not once per time.

    With since, V_k(t) V_k(since)^dag = 1 for every k below the first
    interaction whose angle at some t of ts is not its angle at since, so
    that cancelled prefix is skipped: V_n(since) .. V_first(since) are
    undone as one scalar step each (skipped at angle 0), and the forward
    loop starts at first.  Between integer times m - 1 and m of the chain
    schedule only interaction m turns, so that step is one interaction.
    While the states are not split by time, each step adds into the
    kernel's own copy in place, so apply holds the states, that copy and
    two temporaries of their size."""

    def __init__(self, axes, theta):
        self.n = len(axes)
        self.dim = 2 ** (self.n + 1)
        self.theta = theta
        self._minus = [proj2(-np.asarray(u, dtype=float)) for u in axes]

    def apply(self, states, t, adjoint=False):
        return self._evolve(states, (t,), adjoint)[0]

    def apply_times(self, states, ts, since=None):
        return self._evolve(states, ts, False, since=since)

    def apply_rows(self, states, ts, adjoint=False):
        return self._evolve(states, ts, adjoint, rows=True)

    def _evolve(self, states, ts, adjoint, rows=False, since=None):
        shape, T = np.shape(states), len(ts)
        # a copy, so the result never aliases states, even when U(t) = 1
        x = np.array(states, dtype=complex)
        x = leading_rows(x, self.dim) if rows else leading_view(x, self.dim)
        split = (T,) if rows else ()    # (T,) once x has one row per time
        ks = range(self.n, 0, -1) if adjoint else range(1, self.n + 1)
        if since is not None:
            # U(t) U(since)^dag: V_k(t) V_k(since)^dag = 1 up to the first
            # k whose angle at some t is not its angle at since, so only
            # V_n(since) .. V_first(since) are undone, as one time
            back = [self.theta(k, since) for k in ks]
            first = next((k for k in ks if any(
                self.theta(k, t) != back[k - 1] for t in ts)), self.n + 1)
            for k in range(self.n, first - 1, -1):
                if back[k - 1]:
                    x = self._turn(x, k, back[k - 1:k], True, ())
            ks = range(first, self.n + 1)
        for k in ks:
            ths = [self.theta(k, t) for t in ts]
            if not split and ths[1:] != ths[:-1]:   # the angles differ
                split = (T,)
                x = np.broadcast_to(x, split + x.shape)
            if any(ths):            # not angle 0 at every time, or no times
                x = self._turn(x, k, ths, adjoint, split)
        if not split and T != 1:
            x = np.repeat(x[None], T, axis=0)
        return x.reshape(shape if rows else (T,) + shape)

    def _turn(self, x, k, ths, adjoint, split):
        """x with interaction k applied at the angles ths (adjoint: its
        inverse): one scalar step at ths[0] while x is not split by time
        (split == ()), else the (T, 2, 2) stack of R - 1, one row per
        time."""
        if split:           # _rot_minus_one's entries, a column at a time
            s = [-math.sin(th) if adjoint else math.sin(th) for th in ths]
            rot_minus_one = np.empty((len(ths), 1, 2, 2), dtype=complex)
            rot_minus_one[:, 0, 0, 0] = rot_minus_one[:, 0, 1, 1] = [
                -2.0 * math.sin(th / 2) ** 2 for th in ths]
            rot_minus_one[:, 0, 0, 1] = [-v for v in s]
            rot_minus_one[:, 0, 1, 0] = s
        else:
            rot_minus_one = np.array(_rot_minus_one(ths[0], adjoint),
                                     dtype=complex).reshape(2, 2)
        w = np.matmul(rot_minus_one, x.reshape(split + (2 ** k, 2, -1)))
        w = (self._minus[k - 1] @ w.reshape(split + (2, -1))).reshape(x.shape)
        if split:       # x may be a read-only broadcast of unsplit states
            return x + w
        x += w          # unsplit, x is _evolve's own copy
        return x


def chain_evolution(cfg):
    """The spin chain's U(t) under the canonical schedule, matrix-free."""
    return ChainEvolution(cfg.axes, theta_schedule)


def _kron_chain(ops):
    out = ops[0]
    for op in ops[1:]:
        out = np.kron(out, op)
    return out


def _env_op(n, k, op):
    """op on environment spin k (1-based), identity elsewhere (no system)."""
    return _kron_chain([op if j == k else I2 for j in range(1, n + 1)])


def _controlled_rotation(u, theta, n, k):
    """P(u) (x) 1 + P(-u) (x) R(theta) on C^2 (x) (C^2)^n, with R the real
    rotation [[cos, -sin], [sin, cos]] = exp(-i theta F) on environment
    spin k, as a dense matrix."""
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]], dtype=complex)
    u = np.asarray(u, dtype=float)
    return np.kron(proj2(u), _env_op(n, k, I2)) \
        + np.kron(proj2(-u), _env_op(n, k, rot))


def interaction_unitary(cfg, k, t):
    """V_k(t) = P(u_k) (x) 1 + P(-u_k) (x) exp(-i theta_k(t) F_k), as a dense
    matrix: an oracle for ChainEvolution at small n."""
    return _controlled_rotation(cfg.axis(k), theta_schedule(k, t), cfg.n, k)


def full_unitary(cfg, t):
    """U(t) = V_n(t) ... V_1(t) on C^2 (x) (C^2)^n, as a dense matrix built
    from kron products: an oracle for chain_evolution at small n."""
    U = interaction_unitary(cfg, 1, t)
    for k in range(2, cfg.n + 1):
        U = interaction_unitary(cfg, k, t) @ U
    return U


def _environment_up(system, n):
    """system (x) |up...up> on C^2 (x) (C^2)^n."""
    return np.kron(system, np.eye(1, 2 ** n, dtype=complex)[0])


def initial_state(cfg):
    """|v> (x) |up...up>."""
    return _environment_up(spinor(cfg.v), cfg.n)


def reduced_density_full(cfg, t):
    """Partial trace over the environment of the evolved full state."""
    psi = chain_evolution(cfg).apply(initial_state(cfg), t)
    M = psi.reshape(2, 2 ** cfg.n)
    return M @ M.conj().T


def _real_unit_axis(w):
    """w with its zero imaginary part dropped; ValueError unless w has
    shape (3,), is real and |w|^2 is within PROJECTOR_TOL of 1."""
    w = np.asarray(w)
    if (w.shape != (3,) or np.any(np.imag(w) != 0)
            or not abs(w @ w - 1.0) <= PROJECTOR_TOL):
        raise ValueError(f"axis {w} is not a real unit 3-vector")
    return np.real(w)


def _axis_pair(w):
    """The system projectors [P(w), P(-w)] of an event's axis w; ValueError
    unless w is a real unit 3-vector (_real_unit_axis)."""
    w = _real_unit_axis(w)
    return [proj2(w), proj2(-w)]


def build_tree(cfg, events):
    """History tree from (time, axis) projection events; each event splits
    every branch with the 2 x 2 system projectors {P(axis), P(-axis)}.
    Axes must be real unit 3-vectors, |axis|^2 within PROJECTOR_TOL of 1
    (ValueError otherwise); the pair's own, looser check is skipped.
    The events extend the tree in time order in one histories._extend:
    the frame steps from one event time to the next, so at integer times
    each event turns one interaction, and the last event's split is the
    tree's frame, with no evolution back; its time-0 leaf states take one
    apply back when they are first read.  Each event doubles the leaves,
    so a tree whose leaf states would exceed LEAF_STATE_CAP is refused
    (ValueError) before anything is evolved."""
    decs = [ProjectiveDecomposition(t, _axis_pair(w), check=False)
            for t, w in sorted(events, key=lambda e: e[0])]
    return _extend(HistoryTree(initial_state=initial_state(cfg),
                               evolution=chain_evolution(cfg)), decs, None)


def schmidt_events(cfg, times):
    """(time, Schmidt axis) events for the given projection times."""
    return [(float(t), schmidt_axis(cfg, t)) for t in times]


def measurement_axis(cfg, t):
    """Schmidt axis oriented to match the closed-form sign conventions:
    u_m at integer times m >= 1, and A_k(omega) u_{k-1} / N_k(omega)
    inside interaction k (continuous in u_{k-1})."""
    m = round(t)
    if abs(t - m) < TIME_TOL and m >= 1:
        return cfg.axis(int(m))
    if abs(t) < TIME_TOL:
        return cfg.v
    k = math.ceil(t)
    a = _axis_op(cfg.axis(k), theta_schedule(k, t)) @ cfg.axis(k - 1)
    return a / np.linalg.norm(a)


def measurement_events(cfg, times):
    return [(float(t), measurement_axis(cfg, t)) for t in times]


# -- closed-form decoherence elements ------------------------------------

def offdiag_closed_form(cfg, j, omega, k, phi, sign=1):
    """Two-time off-diagonal decoherence element between histories that
    share the first projection (system sign `sign` at angle omega during
    interaction j) and differ at the second (angle phi during interaction
    k >= j).  Uses unsigned axis-dot products throughout."""
    if k < j:
        raise ValueError("need k >= j")
    l0 = lam_abs(cfg, 0, j - 1)
    uj0, uj = cfg.axis(j - 1), cfg.axis(j)
    if k == j:
        cross = np.linalg.norm(np.cross(uj0, uj)) ** 2
        return complex(l0 * math.sin(omega) * math.sin(phi - omega)
                       * math.cos(phi) * cross / (4.0 * N_k(cfg, j, phi)))
    uj1 = cfg.axis(j + 1)
    pbar = float(uj0 @ (np.eye(3) - np.outer(uj, uj)) @ uj1)
    triple = float(np.dot(uj0, np.cross(uj, uj1)))
    bracket = N_k(cfg, j, omega) * pbar \
        + sign * 1j * lam_abs(cfg, j - 1, j) * triple
    if k == j + 1:
        return complex(l0 * lam_abs(cfg, j, j + 1) * math.sin(omega)
                       * math.cos(omega) * math.sin(phi) ** 2 * bracket
                       / (4.0 * N_k(cfg, j, omega) * N_k(cfg, j + 1, phi)))
    ljk = lam_abs(cfg, j + 1, k - 1)
    return complex(l0 * ljk * N_k(cfg, k, phi) * math.sin(omega)
                   * math.cos(omega) * bracket / (4.0 * N_k(cfg, j, omega)))


# -- history probabilities (closed form) ---------------------------------

@dataclass
class SpinHistorySpec:
    """Projection times of one history: integer times, optionally followed
    by one interior time t in (k-1, k) and the integer k; signs are listed
    in time order relative to the Schmidt axis at each event."""

    integer_times: tuple
    signs: tuple
    interior_time: float | None = None

    def __post_init__(self):
        ts = tuple(self.integer_times)
        if list(ts) != sorted(set(ts)):
            raise ValueError("integer times must be strictly increasing")
        expected = len(ts) + (1 if self.interior_time is not None else 0)
        if len(self.signs) != expected:
            raise ValueError("one sign per projection required")
        if self.interior_time is not None:
            k = math.ceil(self.interior_time)
            if not (k - 1 < self.interior_time < k):
                raise ValueError("interior time must be strictly inside an interaction")
            if not ts or ts[-1] != k:
                raise ValueError("interior time must be followed by the end "
                                 "of its interaction")

    def times(self):
        if self.interior_time is None:
            return self.integer_times
        return self.integer_times[:-1] + (self.interior_time,
                                          self.integer_times[-1])


def history_probability(cfg, spec):
    """Closed-form probability of the history.

    Without an interior time: 2^{-l} prod [1 + a_i a_{i+1} lam(m_i, m_{i+1})].
    With one: the two factors carrying N_k(t) and (u_{k-1}.u_k)/N_k(t),
    then the same chain up to m_l."""
    chain = spec.integer_times
    if spec.interior_time is not None:
        chain = chain[:-1]
    ms = (0,) + tuple(chain)
    signs = (1,) + tuple(spec.signs[:len(chain)])
    p = 2.0 ** (-len(spec.signs))
    if spec.interior_time is not None:
        k = spec.integer_times[-1]
        a_t, a_k = spec.signs[-2:]
        Nk = N_k(cfg, k, theta_schedule(k, spec.interior_time))
        p *= 1.0 + signs[-1] * a_t * lam(cfg, ms[-1], k - 1) * Nk
        p *= 1.0 + a_t * a_k * lam(cfg, k - 1, k) / Nk
    for i in range(len(ms) - 1):
        p *= 1.0 + signs[i] * signs[i + 1] * lam(cfg, ms[i], ms[i + 1])
    return float(p)


def history_probabilities(cfg, integer_times):
    """history_probability of every sign string over the integer times,
    as one array in leaves() order (the sign at the first time outermost,
    + before -): one product over all 2^m histories of the m times, with
    history_probability's factors in its order, so each entry is its
    value to the bit."""
    ms = (0,) + tuple(integer_times)
    m = len(integer_times)
    bits = (np.arange(2 ** m)[:, None] >> np.arange(m - 1, -1, -1)) & 1
    signs = np.hstack([np.ones((2 ** m, 1), dtype=int), 1 - 2 * bits])
    p = np.full(2 ** m, 2.0 ** (-m))
    for i in range(m):
        p *= 1.0 + signs[:, i] * signs[:, i + 1] * lam(cfg, ms[i], ms[i + 1])
    return p


# -- classification-allowed sets -----------------------------------------

def enumerate_consistent_sets(cfg, interior_points=(0.3, 0.7)):
    """Yield (form, times) for every classification-allowed branch of the
    set catalogue: (i) subsets of the between-interaction times {1..n};
    (ii) form (i) plus one interior time in the interaction ending at the
    last chosen time; (iii) form (i) plus one interior time after every
    chosen time.  Interior times are sampled at the given schedule offsets."""
    n = cfg.n
    for r in range(n + 1):
        for T in itertools.combinations(range(1, n + 1), r):
            yield ("i", tuple(float(t) for t in T))
            if T:
                k = T[-1]
                for frac in interior_points:
                    yield ("ii", tuple(float(t) for t in T[:-1])
                           + (k - 1 + frac, float(k)))
            last = T[-1] if T else 0
            for k0 in range(last + 1, n + 1):
                for frac in interior_points:
                    yield ("iii", tuple(float(t) for t in T) + (k0 - 1 + frac,))


def _score_children(tree, decs, extend=()):
    """Score the children of tree, its every leaf split by each of decs,
    decompositions by the two 2 x 2 system projectors of an axis
    (_axis_pair) at times later than the tree's frame time: (violations,
    trees).  violations[c] is the largest off-diagonal |D_ab| of child c's
    decoherence matrix, and trees the tree of each child whose index is in
    extend, in its order.

    One evolution.apply_times over the children's times since the frame
    time and one stacked _project give the (C, 2, d, n) blocks
    P_i U(t_c) U(t_f)^dag F of every child.  The two projectors are
    orthogonal, so a child's D is zero off its two diagonal Gram blocks,
    and its violation is their largest off-diagonal |G|: the (C, 2, n, n)
    Gram stack of the blocks is one product (_gram), and every child's
    violation one reduction of it.  A child's tree has its interleaved
    blocks as its frame at its time (histories._extend with the states
    given), an array of its own, so that each is freed once its child is
    entered.  Raises ValueError, before anything is evolved, when the
    blocks, the C children's leaf states, would exceed LEAF_STATE_CAP
    entries."""
    ts = [dec.time for dec in decs]
    (d, n), C = tree.frame.shape, len(ts)
    _check_leaf_states(d, 2 * n * C)
    blocks = _project([dec.projectors for dec in decs],
                      tree.evolution.apply_times(tree.frame, ts,
                                                 since=tree.frame_time))
    return _max_off_diagonal(_gram(blocks)), [
        _extend(tree, [decs[r]], None, _interleave(blocks[r]))
        for r in extend]


def classify_catalogue(cfg):
    """(form, times, violation) for every non-empty set of the catalogue
    (enumerate_consistent_sets, in its order): violation is the largest
    off-diagonal |D_ab| of the set's decoherence matrix, a roundoff residue
    for a consistent set.

    Every prefix of a catalogue set is a catalogue set, or empty, so the
    catalogue is walked one prefix at a time, depth first, from a fresh
    tree of the initial state.  A prefix is its HistoryTree, whose frame
    holds its leaves' states at its last time.  The children of a prefix,
    the sets that extend it by one time, are scored together from its
    frame by one apply_times since the prefix's time and one Gram stack
    (_score_children); a child that is a prefix itself is entered as the
    tree whose frame is its projected blocks, with no evolution back.  So
    a catalogue takes one apply_times per group of children (below; one
    per prefix unless a prefix's children are cut, at n = 3, 18 for 35
    sets) and no apply, and builds no decoherence matrix.

    A prefix's children are taken in groups whose stacked blocks
    (C, 2, d, n) stay within selection.SCAN_BLOCK complex entries, at
    least one child per group, so a group's arrays exceed that bound only
    when one child's do, and those are its own set's projected states.
    The walk holds the trees of one branch of prefixes, and for each the
    trees of the children of its group not yet entered.
    Each time's axis is found, checked and made a decomposition once
    (_axis_pair), for every set that ends at that time.
    Raises ValueError when a child's time does not exceed its prefix's
    last time, on an axis that is not a real unit 3-vector, and when a
    group's blocks would exceed LEAF_STATE_CAP entries, each before the
    group is evolved."""
    from .selection import SCAN_BLOCK    # selection imports this module
    sets = [(form, times) for form, times
            in enumerate_consistent_sets(cfg) if times]
    children, violation = {}, {}
    for _, times in sets:
        children.setdefault(times[:-1], []).append(times)
    decs = {t: ProjectiveDecomposition(t, _axis_pair(w), check=False)
            for t, w in measurement_events(
                cfg, sorted({times[-1] for _, times in sets}))}

    def visit(tree, prefix):
        kids = children.get(prefix, [])
        for child in kids:
            if prefix and not child[-1] > prefix[-1]:
                raise ValueError(f"decomposition time {child[-1]} does not "
                                 f"exceed branch time {prefix[-1]}")
        d, n = tree.frame.shape
        size = max(SCAN_BLOCK // (2 * n * max(d, n)), 1)
        for s in range(0, len(kids), size):
            group = kids[s:s + size]
            extend = [i for i, child in enumerate(group) if child in children]
            worst, trees = _score_children(
                tree, [decs[child[-1]] for child in group], extend)
            violation.update(zip(group, worst.tolist()))
            for i in extend:
                visit(trees.pop(0), group[i])

    visit(HistoryTree(initial_state(cfg), chain_evolution(cfg)), ())
    return [(form, times, violation[times]) for form, times in sets]


# -- information ---------------------------------------------------------

def binary_entropy_of_dot(x):
    """f(x): Shannon information of the pair (1+x)/2, (1-x)/2, in nats;
    elementwise over an array x, a float for a scalar.  f(+-1) = +0.0."""
    x = np.asarray(x, dtype=float)
    f = entropy(np.stack([(1.0 + x) / 2.0, (1.0 - x) / 2.0], axis=-1))
    return float(f) if f.ndim == 0 else f


def adjacent_dots(cfg):
    """The adjacent-axis dots c_k = u_{k-1}.u_k for k = 1..n (u_0 = v)."""
    return np.array([lam(cfg, k - 1, k) for k in range(1, cfg.n + 1)])


def interior_set_information(dots):
    """(E, chain) along the last axis of the adjacent dots c_1..c_n.

    chain[k] = sum_{j<=k} f(c_j), k = 0..n, is the information of the
    between-interaction set {1..k}; E[k-1] = E_k = 2 f(sqrt|c_k|) +
    chain[k-1], k = 1..n, the maximal information of the interior-time set
    S_k, reached where N_k = sqrt|c_k|."""
    f = binary_entropy_of_dot(dots)
    chain = np.concatenate([np.zeros_like(f[..., :1]), np.cumsum(f, axis=-1)],
                           axis=-1)
    return 2.0 * binary_entropy_of_dot(np.sqrt(np.abs(dots))) \
        + chain[..., :-1], chain


def Sk_information_at(cfg, k, t):
    """Information of the set projecting at 1..k-1, t in (k-1,k) and k."""
    Nk = N_k(cfg, k, theta_schedule(k, t))
    before = interior_set_information(adjacent_dots(cfg))[1][k - 1]
    return float(binary_entropy_of_dot(Nk)
                 + binary_entropy_of_dot(lam(cfg, k - 1, k) / Nk) + before)


def information_of_Sk(cfg, k):
    """(E_k, t*): the maximal information of the k-th interior-time set
    (interior_set_information) and the maximizing time, where
    N_k = sqrt(|u_k.u_{k-1}|)."""
    dots = adjacent_dots(cfg)
    E = float(interior_set_information(dots)[0][k - 1])
    c = dots[k - 1]
    ac = abs(c)
    if ac >= 1.0:
        omega = 0.0
    else:
        cos2 = (ac - c * c) / (1.0 - c * c)
        omega = math.acos(math.sqrt(max(0.0, min(1.0, cos2))))
    t_star = k - 1 + omega / (math.pi / 2)
    return E, t_star


def sn_selection_fraction(n, samples, rng):
    """Monte Carlo fraction of uniformly random axis draws for which the
    last-interaction set S_n carries the most information among the
    maximal interior-time sets S_2 .. S_n."""
    if n < 2:
        raise ValueError("need n >= 2")
    if not samples >= 1:
        raise ValueError(f"need samples >= 1, got {samples}")
    g = rng.generator
    vecs = g.normal(size=(samples, n + 1, 3))
    vecs /= np.linalg.norm(vecs, axis=2, keepdims=True)
    dots = np.einsum("sij,sij->si", vecs[:, :-1, :], vecs[:, 1:, :])
    E = interior_set_information(dots)[0]            # E_k for k = 1..n
    return float(np.mean(np.argmax(E[:, 1:], axis=1) == n - 2))


# -- recoherence variant -------------------------------------------------

def recoherence_theta(t):
    """Up, hold, and back down: t on [0, pi/2], pi/2 on [pi/2, pi],
    3 pi/2 - t on [pi, 3 pi/2]."""
    if not (0.0 <= t <= 3 * math.pi / 2 + TIME_TOL):
        raise ValueError("t must lie in [0, 3 pi/2]")
    if t <= math.pi / 2:
        return t
    if t <= math.pi:
        return math.pi / 2
    return 3 * math.pi / 2 - t


def recoherence_evolution(u):
    """The decohere/recohere cycle as a one-spin chain, matrix-free."""
    return ChainEvolution([u], lambda k, t: recoherence_theta(t))


def recoherence_unitary(u, t):
    """P(u) (x) 1 + P(-u) (x) exp(-i theta(t) F) on C^2 (x) C^2, as a dense
    matrix: an oracle for recoherence_evolution."""
    return _controlled_rotation(u, recoherence_theta(t), 1, 1)


def recoherence_initial_state(a1, a2, u):
    u = np.asarray(u, dtype=float)
    return _environment_up(a1 * spinor(u) + a2 * spinor(-u), 1)


def recoherence_evolve(a1, a2, u, t):
    """State of the decohere/recohere cycle at time t; returns to the
    initial product state at t = 3 pi/2."""
    return recoherence_evolution(u).apply(
        recoherence_initial_state(a1, a2, u), t)


# -- delayed-choice variant ----------------------------------------------

def delayed_choice_branches(v, axis_map, n):
    """Branch states and probabilities at t = n of the delayed-choice
    model, one per outcome string, via branch-dependent projections.

    axis_map(outcomes) gives the axis of measurement m for the outcome
    tuple of the previous m-1 measurements (outcomes in {+1,-1}); v and
    every axis must be real unit 3-vectors (ValueError otherwise).

    Each branch steps from time m-1 to m by a ChainEvolution that turns
    interaction m only, along the branch's own axis.  The step is exact:
    between m-1 and m every earlier angle is already pi/2 and every later
    one 0, and a branch at m-1 has been projected onto +-u at every earlier
    measurement, so its records on environment spins 1..m-1 are definite
    and equal its outcomes.  The evolution of the whole model, a sum over
    outcome strings o of (record selector of o) (x) V_m(axis_map(o)), thus
    acts on the branch as V_m(axis_map(branch)) alone."""
    branches = {(): _environment_up(spinor(_real_unit_axis(v)), n)}
    for m in range(1, n + 1):
        new = {}
        for outcomes, state in branches.items():
            u = _real_unit_axis(axis_map(outcomes))
            step = ChainEvolution(
                [u] * m, lambda k, t: theta_schedule(m, t) if k == m else 0.0)
            state_m = step.apply(state, m)
            for a in (1, -1):
                new[outcomes + (a,)] = apply_leading(proj2(a * u), state_m)
        branches = new
    probs = {k: float(np.linalg.norm(s) ** 2) for k, s in branches.items()}
    return branches, probs
