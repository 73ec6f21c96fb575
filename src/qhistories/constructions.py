"""Explicit extremal constructions.

Two families of history sets with vanishing pairwise overlaps but large
probability violations: a pair of near-orthogonal frames whose merged
coarse-graining breaches the sum rules by (n-1) eps / 2, and the rotating
two-level (Zeno) chain whose violations grow like e^{2 theta} while every
matrix element shrinks like theta^2/n^2.
"""

import math

import numpy as np

from .histories import (DecoherenceMatrix, HistoryTree, ProjectiveDecomposition,
                        extend_all)


# -- near-orthogonal frame pair ------------------------------------------

def frame_pair_vectors(n, eps):
    """Two frames in R^n: (u_i)_j = (a d_ij - 1)/sqrt(a^2 - 2a + n) with
    pairwise dots d_ij(1+eps) - eps, and (v_i)_j = (b d_ij + 1)/... with
    dots d_ij(1-eps) + eps.  Requires eps <= 1/(n-1)."""
    if n < 2:
        raise ValueError("need n >= 2")
    if not (0.0 < eps <= 1.0 / (n - 1)):
        raise ValueError("need 0 < eps <= 1/(n-1)")
    # 1 + eps - n eps is 0 at eps = 1/(n-1), and may round below it there
    a = (1.0 + eps + math.sqrt((1.0 + eps) * max(0.0, 1.0 + eps - n * eps))
         ) / eps
    b = (1.0 - eps + math.sqrt((1.0 - eps) * (1.0 - eps + n * eps))) / eps
    U = (a * np.eye(n) - 1.0) / math.sqrt(a * a - 2.0 * a + n)
    V = (b * np.eye(n) + 1.0) / math.sqrt(b * b + 2.0 * b + n)
    return U, V


def frame_pair_history_states(n, eps):
    """2n history states in R^{2n}: u_i/sqrt(2n) in the first factor and
    v_i/sqrt(2n) in the second.  Their Gram matrix is the decoherence
    matrix of a complete set."""
    U, V = frame_pair_vectors(n, eps)
    states = np.zeros((2 * n, 2 * n))
    states[:n, :n] = U / math.sqrt(2 * n)
    states[n:, n:] = V / math.sqrt(2 * n)
    return states    # columns are history states

def frame_pair_matrix(n, eps):
    """Decoherence matrix of the frame-pair set, built from its states."""
    S = frame_pair_history_states(n, eps)
    D = (S.T @ S).astype(complex)
    labels = [("u", i) for i in range(n)] + [("v", i) for i in range(n)]
    return DecoherenceMatrix(D, labels)


def frame_pair_mpv(n, eps):
    """(n-1) eps / 2: attained by merging all u-histories (or all v)."""
    return (n - 1) * eps / 2.0


# -- rotating two-level chain (Zeno) -------------------------------------

def _log_binom(n, m):
    from scipy.special import gammaln
    return gammaln(n + 1) - gammaln(m + 1) - gammaln(n - m + 1)


def zeno_sign(m):
    """(-1)^{floor((m+1)/2)} for m sign changes."""
    return -1.0 if ((m + 1) // 2) % 2 else 1.0


def zeno_class_amplitudes(n, theta):
    """Per-class data for the n-step chain rotated by eps = theta/n per
    step, projections onto the rotating basis at every step.

    A history is a sign string (s_1..s_n); its amplitude depends only on
    m, the number of sign changes in (+, s_1, .., s_n):
    g_m = sign(m) cos^{n-m}(eps) sin^m(eps), and the final sign is +
    exactly when m is even.  Returns (g, counts) with counts_m = C(n, m).
    Raises ValueError for n < 1."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    eps = theta / n
    m = np.arange(n + 1)
    log_mag = (n - m) * math.log(math.cos(eps)) \
        + np.where(m > 0, m * math.log(math.sin(eps)) if eps > 0 else 0.0, 0.0)
    signs = np.array([zeno_sign(int(k)) for k in m])
    g = signs * np.exp(log_mag)
    if eps == 0.0:
        g = np.where(m == 0, signs, 0.0)
    counts = np.exp(_log_binom(n, m))
    return g, counts


def zeno_class_matrix(n, theta):
    """Class-level coarse-grained decoherence matrix: entry (m, m') is
    c_m c_m' g_m g_m' when m = m' mod 2, else 0."""
    g, c = zeno_class_amplitudes(n, theta)
    w = c * g
    D = np.outer(w, w)
    m = np.arange(n + 1)
    D[(m[:, None] - m[None, :]) % 2 != 0] = 0.0
    return DecoherenceMatrix(D.astype(complex), [int(k) for k in m])


def zeno_class_probabilities(n, theta):
    """True summed probabilities per class: c_m g_m^2."""
    g, c = zeno_class_amplitudes(n, theta)
    return c * g * g


def zeno_violation(n, theta, subset="X"):
    """Exact probability violation of the two distinguished coarse
    grainings: X merges all classes with m = 0,3 mod 4 and Y those with
    m = 1,2 mod 4."""
    g, c = zeno_class_amplitudes(n, theta)
    m = np.arange(n + 1)
    if subset == "X":
        sel = (m % 4 == 0) | (m % 4 == 3)
    elif subset == "Y":
        sel = (m % 4 == 1) | (m % 4 == 2)
    else:
        raise ValueError(f"unknown subset {subset!r}")
    w = c[sel] * g[sel]
    even = m[sel] % 2 == 0
    merged = w[even].sum() ** 2 + w[~even].sum() ** 2
    return float(abs(merged - (c[sel] * g[sel] ** 2).sum()))


def zeno_violation_limit(theta, subset="X"):
    """Large-n limits of the X and Y violations."""
    ch, c = math.cosh(theta), math.cos(theta)
    sh, s = math.sinh(theta), math.sin(theta)
    if subset == "X":
        return 0.5 * ch * ch + 0.5 * c * ch - 0.5 * s * sh - 1.0
    if subset == "Y":
        return 0.5 * ch * ch - 0.5 * c * ch + 0.5 * s * sh
    raise ValueError(f"unknown subset {subset!r}")


def zeno_max_offdiag(n, theta):
    """max |D_ab| over distinct histories a != b (fine-grained set).

    Nonzero elements need matching final signs, i.e. matching parity of
    the class indices; within a class the element is g_m^2 (needs at least
    two histories in the class)."""
    g, c = zeno_class_amplitudes(n, theta)
    best = 0.0
    for m in range(n + 1):
        for mp in range(m, n + 1):
            if (mp - m) % 2 != 0:
                continue
            if mp == m and c[m] < 2:
                continue
            best = max(best, abs(g[m] * g[mp]))
    return best


def zeno_tree(n, theta):
    """Fine-grained history tree of the chain in R^2: projections at steps
    1..n onto the frame rotated by k eps."""
    eps = theta / n
    psi = np.array([1.0, 0.0], dtype=complex)
    tree = HistoryTree(initial_state=psi, evolution=None)
    for k in range(1, n + 1):
        cs, sn = math.cos(k * eps), math.sin(k * eps)
        plus = np.array([cs, sn])
        minus = np.array([-sn, cs])
        dec = ProjectiveDecomposition(
            float(k), [np.outer(plus, plus).astype(complex),
                       np.outer(minus, minus).astype(complex)])
        tree = extend_all(tree, dec)
    return tree


def zeno_history_class(alphas):
    """Number of sign changes in (+, a_1, ..., a_n); the class index m."""
    m = 0
    prev = 1
    for a in alphas:
        if a != prev:
            m += 1
        prev = a
    return m
