"""Closed-form probability laws for components of random unit vectors.

These serve as statistical oracles for the samplers: the beta law for a sum
of squared components, exact and asymptotic maximum-of-k laws, the joint
density of two orthonormal vectors, and the law of the maximum overlap
statistic used by the approximate-consistency diagnostics.
"""

import math

import numpy as np


def _check_kd(k, d):
    if not (1 <= k <= d):
        raise ValueError(f"need 1 <= k <= d, got k={k}, d={d}")


def component_sum_cdf(lam, k, d, field="real"):
    """P(sum of the first k squared components <= lam) for a uniform unit
    vector: the regularized incomplete beta B(lam; k/2, (d-k)/2) in the real
    case and B(lam; k, d-k) in the complex case."""
    from scipy import special
    _check_kd(k, d)
    if lam <= 0.0:
        return 0.0
    if lam >= 1.0:
        return 1.0
    if k == d:
        return 0.0  # the sum is exactly 1; the step sits at lam = 1
    if field == "real":
        return float(special.betainc(k / 2.0, (d - k) / 2.0, lam))
    if field == "complex":
        return float(special.betainc(k, d - k, lam))
    raise ValueError(f"unknown field {field!r}")


def max_component_cdf_complex(lam, k, d):
    """P(max of k squared moduli <= lam) for a uniform complex unit vector:
    sum_m (-1)^m C(k,m) (1 - m lam)_+^{d-1}."""
    _check_kd(k, d)
    if lam <= 0.0:
        return 0.0
    if lam >= 1.0:
        return 1.0
    total = 0.0
    for m in range(k + 1):
        base = 1.0 - m * lam
        if base <= 0.0:
            break
        total += (-1) ** m * math.comb(k, m) * base ** (d - 1)
    return float(min(max(total, 0.0), 1.0))


def max_component_cdf_real_approx(lam, k, d):
    """Asymptotic CDF of the max of k squared components of a uniform real
    unit vector: erf^k(sqrt(d lam / 2)) with the first two correction terms.
    Valid for d lam = O(1) and k^2 << d; approximate by construction."""
    _check_kd(k, d)
    if lam <= 0.0:
        return 0.0
    x = math.sqrt(d * lam / 2.0)
    e = math.erf(x)
    if e <= 0.0:
        return 0.0
    c1 = k * math.sqrt(lam) * (d * lam - 3.0) * math.exp(-d * lam / 2.0) \
        / (2.0 * math.sqrt(2.0 * math.pi * d) * e)
    c2 = -k * (k - 1) * lam * math.exp(-d * lam) / (2.0 * math.pi * e * e)
    return float(min(max(e ** k * (1.0 + c1 + c2), 0.0), 1.0))


def _sq_component_tail(lam, j, m):
    """P(x_1^2 > lam, ..., x_j^2 > lam) for x uniform on S^{m-1}.

    The squared components are jointly Dirichlet(1/2, ..., 1/2); the joint
    tail follows by conditioning on the first component and recursing."""
    from scipy import integrate, special

    def tail(lam, j, m):
        if j == 0:
            return 1.0
        if lam <= 0.0:
            return 1.0
        if j * lam >= 1.0:
            return 0.0
        a, b = 0.5, (m - 1) / 2.0
        if j == 1:
            return float(1.0 - special.betainc(a, b, min(lam, 1.0)))
        norm = special.beta(a, b)

        def integrand(x):
            dens = x ** (a - 1.0) * (1.0 - x) ** (b - 1.0) / norm
            return dens * tail(lam / (1.0 - x), j - 1, m - 1)

        val, _ = integrate.quad(integrand, lam, 1.0, epsabs=1e-11,
                                epsrel=1e-10, limit=200)
        return float(val)

    return tail(lam, j, m)


def max_dhc_cdf(lam, k, d):
    """CDF of the maximum of k squared components of a uniform real vector
    on S^{d-2}, the law of the largest overlap ratio in a k-history set in
    complex dimension d.  Exact, by inclusion-exclusion over joint tails."""
    if not (1 <= k <= d - 1):
        raise ValueError(f"need 1 <= k <= d-1, got k={k}, d={d}")
    if lam <= 0.0:
        return 0.0
    if lam >= 1.0:
        return 1.0
    m = d - 1   # ambient real dimension of the sphere
    total = 0.0
    for j in range(k + 1):
        total += (-1) ** j * math.comb(k, j) * _sq_component_tail(lam, j, m)
    return float(min(max(total, 0.0), 1.0))


def two_orthonormal_density(x, y, k, d):
    """Unnormalized joint density of the first k components of each vector
    of a uniform orthonormal pair in R^d:

        [(1-|x|^2)(1-|y|^2) - (x.y)^2]^{(d-k-3)/2}

    on the region where the bracket is nonnegative, else 0."""
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    if x.size != k or y.size != k:
        raise ValueError("x and y must have k components")
    if k > d - 2:
        raise ValueError("need k <= d - 2")
    bracket = (1.0 - x @ x) * (1.0 - y @ y) - (x @ y) ** 2
    if bracket <= 0.0:
        return 0.0
    return float(bracket ** ((d - k - 3) / 2.0))
