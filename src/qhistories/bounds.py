"""Sphere-packing bounds on the size of approximately consistent sets.

Weak consistency lives on the real sphere S^{2d-1} (history states embed in
R^{2d}); medium consistency on the complex sphere.  The upper bounds are
the proved closed forms of the linear-programming method at first degree;
the lower bounds are Shannon's volume bounds.  The Jacobi polynomial
machinery backing the proofs is exposed for verification.
"""

import math

import numpy as np


def packing_upper_bound(d, eps, criterion="weak"):
    """Largest possible number of pairwise-eps-consistent history vectors.

    weak:   floor(2d (1-eps^2) / (1 - 2d eps^2)),  valid eps^2 <= 1/(2d+2)
    medium: floor( d (1-eps^2) / (1 -  d eps^2)),  valid eps^2 <= 1/(d+1)
    eps outside [0, 1), NaN included, raises ValueError.
    """
    if criterion == "weak":
        if d < 1:
            raise ValueError("weak bound needs d >= 1")
        if not eps * eps <= 1.0 / (2 * d + 2):
            raise ValueError(
                f"weak bound valid only for eps^2 <= 1/(2d+2) = {1.0/(2*d+2):.6g}")
        val = 2 * d * (1.0 - eps * eps) / (1.0 - 2 * d * eps * eps)
    elif criterion == "medium":
        if d < 2:
            raise ValueError("medium bound needs d >= 2")
        if not eps * eps <= 1.0 / (d + 1):
            raise ValueError(
                f"medium bound valid only for eps^2 <= 1/(d+1) = {1.0/(d+1):.6g}")
        val = d * (1.0 - eps * eps) / (1.0 - d * eps * eps)
    else:
        raise ValueError(f"unknown criterion {criterion!r}")
    if not 0.0 <= eps < 1.0:      # a negative eps passes the validity test
        raise ValueError("need 0 <= eps < 1")
    # guard against 2d+1-1ulp style float dust at exactly attained values
    return int(math.floor(val + 1e-9))


def shannon_lower_bound(d, eps, criterion="weak", log=False):
    """Shannon's existence bound: a packing of at least (1-eps^2)^{1/2-d}
    (weak) or (1-eps^2)^{1-d} (medium) vectors exists.  Evaluated in the
    log domain above d=30 or on request."""
    if not (0.0 <= eps < 1.0):
        raise ValueError("need 0 <= eps < 1")
    if d < 1:
        raise ValueError("d must be positive")
    exponent = (0.5 - d) if criterion == "weak" else (1.0 - d)
    if criterion not in ("weak", "medium"):
        raise ValueError(f"unknown criterion {criterion!r}")
    logval = exponent * math.log1p(-eps * eps)
    if log or d > 30:
        return logval if log else math.exp(min(logval, 700.0))
    return math.exp(logval)


def jacobi(n, alpha, beta, x):
    """Jacobi polynomial P_n^{(alpha,beta)}(x) by the three-term recurrence."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    x = np.asarray(x, dtype=float)
    p_prev = np.ones_like(x)
    if n == 0:
        return p_prev if p_prev.ndim else float(p_prev)
    p = 0.5 * (alpha - beta) + 0.5 * (alpha + beta + 2.0) * x
    for m in range(2, n + 1):
        c = 2.0 * m + alpha + beta
        a1 = 2.0 * m * (m + alpha + beta) * (c - 2.0)
        a2 = (c - 1.0) * (alpha * alpha - beta * beta)
        a3 = (c - 1.0) * c * (c - 2.0)
        a4 = 2.0 * (m + alpha - 1.0) * (m + beta - 1.0) * c
        p, p_prev = ((a2 + a3 * x) * p - a4 * p_prev) / a1, p
    return p if np.ndim(p) else float(p)


def jacobi_normalized(n, alpha, beta, x):
    """P_n^{(alpha,beta)}(x) / P_n^{(alpha,beta)}(1); value 1 at x = 1."""
    from scipy import special
    return jacobi(n, alpha, beta, x) / special.binom(n + alpha, n)


def verify_jacobi_inequality(alpha, family, n_max=10, grid=200):
    """Check the strict dominance P~_n(x) > P~_1(x), 2 <= n <= n_max, on
    the interior of the proven x-range.

    family 'beta=-1/2' needs alpha >= 1 and uses (-1, -(2a+3)/(2a+5));
    family 'beta=0' needs alpha >= 2 and uses (-1, -(a+1)/(a+3)).
    Returns (ok, worst margin)."""
    if family == "beta=-1/2":
        if alpha < 1:
            raise ValueError("family beta=-1/2 needs alpha >= 1")
        beta = -0.5
        hi = -(2 * alpha + 3) / (2 * alpha + 5)
    elif family == "beta=0":
        if alpha < 2:
            raise ValueError("family beta=0 needs alpha >= 2")
        beta = 0.0
        hi = -(alpha + 1) / (alpha + 3)
    else:
        raise ValueError(f"unknown family {family!r}")
    xs = np.linspace(-1.0, hi, grid + 2)[1:-1]
    base = jacobi_normalized(1, alpha, beta, xs)
    worst = np.inf
    for n in range(2, n_max + 1):
        margin = np.min(jacobi_normalized(n, alpha, beta, xs) - base)
        worst = min(worst, float(margin))
    return worst > 0.0, worst


def simplex_packing(d):
    """2d+1 real unit vectors in R^{2d} with pairwise dot products exactly
    -1/(2d): the vertices of a regular 2d-simplex.  Attains the weak upper
    bound at eps = 1/(2d)."""
    if d < 1:
        raise ValueError("d must be positive")
    m = 2 * d + 1
    G = (1.0 + 1.0 / (2 * d)) * np.eye(m) - (1.0 / (2 * d)) * np.ones((m, m))
    vals, vecs = np.linalg.eigh(G)
    keep = vals > 1e-10
    B = vecs[:, keep] * np.sqrt(vals[keep])[None, :]
    # rows of B realize the Gram matrix; renormalize away float dust
    B /= np.linalg.norm(B, axis=1)[:, None]
    return B
