"""Consistency criteria for sets of histories.

Covers the weak (Re D = 0) and medium (D = 0) criteria, the largest
overlap ratio of a set and its per-pair threshold test, exhaustive and
greedy maximum probability violation, the epsilon(delta) choices that keep
all probability sum rules within delta, coincident-time (limit) overlap
diagnostics, non-triviality tests, linear positivity and environment
orthogonality.
"""

import math
from dataclasses import dataclass, field

import numpy as np

EXACT_TOL = 1e-10
MPV_EXHAUSTIVE_CAP = 22


def _entries(D):
    return D.entries if hasattr(D, "entries") else np.asarray(D, dtype=complex)


@dataclass
class ConsistencyReport:
    max_weak_violation: float
    max_medium_violation: float
    dhp: float
    prob_sum: float
    epsilon: float | None = None
    criterion_flags: dict = field(default_factory=dict)

    @property
    def weak_pass(self):
        return self.criterion_flags.get("weak", None)

    @property
    def medium_pass(self):
        return self.criterion_flags.get("medium", None)


def consistency_report(D, epsilon=None):
    """Violation maxima, overlap-ratio parameter, and per-pair threshold
    flags at the given epsilon.  Zero-probability pairs are skipped in the
    ratio, matching its definition."""
    M = _entries(D)
    n = M.shape[0]
    diag = np.real(np.diag(M))
    off = ~np.eye(n, dtype=bool)
    max_weak = float(np.max(np.abs(M.real[off]))) if n > 1 else 0.0
    max_medium = float(np.max(np.abs(M[off]))) if n > 1 else 0.0
    dhp = 0.0
    flags = {}
    if n > 1:
        root = np.sqrt(np.abs(np.outer(diag, diag)))
        ok = off & (root > 0)
        if np.any(ok):
            dhp = float(np.max(np.abs(M[ok]) / root[ok]))
        if epsilon is not None:
            flags["weak"] = bool(np.all(np.abs(M.real[ok]) <= epsilon * root[ok]))
            flags["medium"] = bool(np.all(np.abs(M[ok]) <= epsilon * root[ok]))
    elif epsilon is not None:
        flags["weak"] = flags["medium"] = True
    return ConsistencyReport(max_weak, max_medium, dhp,
                             float(np.sum(M).real), epsilon, flags)


def is_exactly_consistent(D, criterion="weak", tol=None):
    M = _entries(D)
    if tol is None:
        tol = EXACT_TOL * max(1.0, float(np.max(np.abs(np.diag(M).real)))
                              if M.size else 1.0)
    r = consistency_report(D)
    v = r.max_weak_violation if criterion == "weak" else r.max_medium_violation
    return v <= tol


def _subset_values(R, diag, bits_lo, bits_hi, n):
    counts = np.arange(bits_lo, bits_hi, dtype=np.uint64)
    X = ((counts[:, None] >> np.arange(n, dtype=np.uint64)[None, :]) & 1
         ).astype(float)
    vals = np.einsum("si,ij,sj->s", X, R, X) - X @ diag
    return vals


def mpv_exact(D):
    """Maximum probability violation by exhaustive subset scan.

    Returns (value, witness subset as a sorted index tuple).  Refuses above
    22 histories; use mpv_greedy there."""
    M = _entries(D)
    n = M.shape[0]
    if n > MPV_EXHAUSTIVE_CAP:
        raise ValueError(
            f"{n} histories exceeds the exhaustive cap {MPV_EXHAUSTIVE_CAP}")
    R = M.real
    diag = np.diag(R).copy()
    best_val, best_idx = 0.0, 0
    chunk = 1 << 14
    for lo in range(0, 1 << n, chunk):
        hi = min(lo + chunk, 1 << n)
        vals = np.abs(_subset_values(R, diag, lo, hi, n))
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best_val, best_idx = float(vals[i]), lo + i
    witness = tuple(i for i in range(n) if (best_idx >> i) & 1)
    return best_val, witness


def mpv_greedy(D):
    """Deterministic greedy lower bound on the maximum probability
    violation: grow subsets from every seed pair, keep the best."""
    M = _entries(D)
    n = M.shape[0]
    R = M.real
    best = 0.0
    for sign in (1.0, -1.0):
        for a in range(n):
            for b in range(a + 1, n):
                members = np.zeros(n, dtype=bool)
                members[[a, b]] = True
                value = sign * 2.0 * R[a, b]
                improved = True
                while improved:
                    improved = False
                    gains = sign * 2.0 * (R[:, members].sum(axis=1))
                    gains[members] = -np.inf
                    j = int(np.argmax(gains))
                    if gains[j] > 1e-15:
                        members[j] = True
                        value += gains[j]
                        improved = True
                best = max(best, abs(value))
    return best


def mpv_upper_bound(D):
    """sum of |Re D_ab| over distinct pairs: a cheap certified bound."""
    M = _entries(D)
    off = ~np.eye(M.shape[0], dtype=bool)
    return float(np.abs(M.real[off]).sum())


def epsilon_for_delta(delta, d, mode="general"):
    """Per-pair overlap threshold guaranteeing every probability sum rule
    holds within delta, for histories in complex dimension d.

    Modes: 'general' delta/(2d); 'medium-or-homogeneous' delta/d;
    'medium-and-homogeneous' 2 delta/d; 'exact-homogeneous' and
    'exact-general' the closed-form roots of the respective sum laws."""
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    if d < 1:
        raise ValueError("d must be positive")
    q = 2 * d - 1
    if mode == "general":
        return delta / (2.0 * d)
    if mode == "medium-or-homogeneous":
        return delta / d
    if mode == "medium-and-homogeneous":
        return 2.0 * delta / d
    if mode == "exact-homogeneous":
        return (-q + math.sqrt(q * q + 8.0 * d * delta * delta)) \
            / (4.0 * d * delta)
    if mode == "exact-general":
        return (-q * (1.0 + delta)
                + math.sqrt(q * q * (1.0 + delta) ** 2 + 8.0 * d * delta * delta)) \
            / (4.0 * d * delta)
    raise ValueError(f"unknown mode {mode!r}")


class UnresolvedLimitError(ValueError):
    """All derivative orders up to the supported depth annihilate the state."""


def _limit_state(state, op, op_dot, op_ddot=None, tol=1e-9):
    """Normalized limit of op(t) state as t -> 0+.

    op(t) = op + t op_dot + t^2 op_ddot / 2; the limit direction is the
    first non-vanishing term.  Supported to second order."""
    scale = np.linalg.norm(state)
    v = op @ state
    if np.linalg.norm(v) > tol * scale:
        return v / np.linalg.norm(v)
    v = op_dot @ state
    if np.linalg.norm(v) > tol * scale:
        return v / np.linalg.norm(v)
    if op_ddot is not None:
        v = 0.5 * (op_ddot @ state)
        if np.linalg.norm(v) > tol * scale:
            return v / np.linalg.norm(v)
    raise UnresolvedLimitError(
        "limit history unresolved to second derivative order")


def limit_dhc(phi, P, P_dot, P_ddot=None, mode="double"):
    """Pairwise overlaps of the normalized limit histories produced by
    re-applying the decomposition {P(t), 1-P(t)} at coalescing times on a
    branch state phi.

    mode 'double': the first branch is re-projected once, giving limit
    histories {P phi, -dP P phi, (1-P) phi} (each normalized).
    mode 'triple': the null branch of the double set is projected again,
    giving {P phi, (1-P) phi, -dP^2 P phi, -dP P phi}.

    Returns the Hermitian matrix of inner products between the normalized
    limit histories, in the listed order."""
    phi = np.asarray(phi, dtype=complex).reshape(-1)
    P = np.asarray(P, dtype=complex)
    P_dot = np.asarray(P_dot, dtype=complex)
    Pbar = np.eye(P.shape[0]) - P
    Pbar_dot = -P_dot
    Pbar_ddot = None if P_ddot is None else -np.asarray(P_ddot, dtype=complex)

    first = _limit_state(phi, P, P_dot, P_ddot)
    second = _limit_state(phi, Pbar, Pbar_dot, Pbar_ddot)
    # _limit_state already carries the expansion sign: the null branch of
    # re-projecting the first history comes out as -dP P phi / |dP P phi|.
    if mode == "double":
        null = _limit_state(first, Pbar, Pbar_dot, Pbar_ddot)
        states = [first, null, second]
    elif mode == "triple":
        null = _limit_state(first, Pbar, Pbar_dot, Pbar_ddot)
        renull = _limit_state(null, P, P_dot, P_ddot)
        states = [first, second, renull, null]
    else:
        raise ValueError(f"unknown mode {mode!r}")
    S = np.column_stack(states)
    return S.conj().T @ S


def nontrivial(parent_probability, child_probabilities, delta, mode="relative"):
    """Non-triviality gate for an extension: every child above delta
    (absolute) or above delta times the parent (relative)."""
    if not (0.0 <= delta < 1.0):
        raise ValueError("delta must lie in [0, 1)")
    children = np.asarray(child_probabilities, dtype=float)
    if mode == "absolute":
        return bool(np.all(children > delta))
    if mode == "relative":
        return bool(np.all(children >= delta * parent_probability))
    raise ValueError(f"unknown mode {mode!r}")


def linear_positivity(tree, tol=1e-12):
    """Linear-positivity probabilities p_a = Re <psi| C_a |psi>.

    Returns (ok, probabilities, first bad index or None); ok is False when
    some value is negative beyond tolerance."""
    probs = np.real(tree.initial_state.conj() @ tree.leaf_states())
    bad = np.nonzero(probs < -tol)[0]
    if bad.size:
        return False, probs, int(bad[0])
    return True, probs, None


def env_orthogonality(tree, d1, d2):
    """Largest normalized Hilbert-Schmidt overlap between the environment
    reduced matrices of any two history states.  Null histories skipped."""
    rhos = []
    for u in tree.leaf_states().T:
        if np.linalg.norm(u) < 1e-12:
            continue
        M = u.reshape(d1, d2 * (u.size // (d1 * d2)))
        rho = M.conj().T @ M
        rhos.append(rho)
    worst = 0.0
    for i in range(len(rhos)):
        ni = np.linalg.norm(rhos[i])
        for j in range(i + 1, len(rhos)):
            nj = np.linalg.norm(rhos[j])
            if ni > 0 and nj > 0:
                ov = abs(np.trace(rhos[i] @ rhos[j])) / (ni * nj)
                worst = max(worst, float(ov))
    return worst
