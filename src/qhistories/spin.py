"""Exactly solvable spin-measurement chain.

A spin-half system particle interacts in sequence with n environment
spins; interaction k rotates environment spin k conditionally on the
system component along axis u_k.  Everything is computable twice over:
closed forms (reduced density matrix, two-time off-diagonals, history
probabilities, information content) and brute force on the full
2^{n+1}-dimensional state vector.  The brute force is matrix-free:
ChainEvolution applies U(t) = V_n(t) ... V_1(t) to state vectors and
column-state matrices one interaction at a time, each V_k on the (system,
environment spin k) axes only, so no 2^{n+1}-square matrix is built.  The
dense products (interaction_unitary, full_unitary, recoherence_unitary)
remain as small-n oracles.  Variants: a decohere/recohere cycle on a
single environment spin, and branch-dependent (delayed-choice) axes, each
branch stepped by its own one-interaction ChainEvolution.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .histories import (HistoryTree, ProjectiveDecomposition, apply_leading,
                        extend_all)
from .linalg import entropy, leading_view
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

class ChainEvolution:
    """U(t) = V_n(t) ... V_1(t) on C^2 (x) (C^2)^n, applied without a
    matrix.  V_k(t) = P(u_k) (x) 1 + P(-u_k) (x) R(theta_k(t)), with R the
    real rotation [[cos, -sin], [sin, cos]] on environment spin k, is
    applied as 1 + P(-u_k) (x) (R - 1): R - 1 on the environment-spin-k
    axis of a (2^k, 2, rest) view of the states, then P(-u_k) on the
    system axis.  theta(k, t) gives the angles; an interaction at angle 0
    is the identity and is skipped.

    apply(states, t, adjoint=False) takes a state vector or a matrix of
    column states whose size is a multiple of dim (leading factor)."""

    def __init__(self, axes, theta):
        self.n = len(axes)
        self.dim = 2 ** (self.n + 1)
        self.theta = theta
        self._minus = [proj2(-np.asarray(u, dtype=float)) for u in axes]

    def apply(self, states, t, adjoint=False):
        shape = np.shape(states)
        # a copy, so the result never aliases states, even when U(t) = 1
        x = leading_view(np.array(states, dtype=complex), self.dim)
        ks = range(self.n, 0, -1) if adjoint else range(1, self.n + 1)
        for k in ks:
            th = self.theta(k, t)
            if th == 0.0:
                continue
            s = -math.sin(th) if adjoint else math.sin(th)   # R^T = R(-theta)
            c1 = -2.0 * math.sin(th / 2) ** 2                # cos(theta) - 1
            rot_minus_one = np.array([[c1, -s], [s, c1]], dtype=complex)
            w = np.matmul(rot_minus_one, x.reshape(2 ** k, 2, -1))
            x = x + (self._minus[k - 1] @ w.reshape(2, -1)).reshape(x.shape)
        return x.reshape(shape)


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


def build_tree(cfg, events):
    """History tree from (time, axis) projection events; each event splits
    every branch with the 2 x 2 system projectors {P(axis), P(-axis)}.
    Axes must be real unit 3-vectors, |axis|^2 within PROJECTOR_TOL of 1
    (ValueError otherwise); the pair's own, looser check is skipped."""
    tree = HistoryTree(initial_state=initial_state(cfg),
                       evolution=chain_evolution(cfg))
    for t, w in sorted(events, key=lambda e: e[0]):
        w = _real_unit_axis(w)
        dec = ProjectiveDecomposition(t, [proj2(w), proj2(-w)], check=False)
        tree = extend_all(tree, dec)
    return tree


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
