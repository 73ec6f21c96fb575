import math

import numpy as np
import pytest
from scipy import special

from qhistories.bounds import (jacobi, jacobi_normalized, packing_upper_bound,
                               shannon_lower_bound, simplex_packing,
                               verify_jacobi_inequality)


def test_weak_bound_attained_value():
    for d in range(1, 11):
        assert packing_upper_bound(d, 1.0 / (2 * d), "weak") == 2 * d + 1


def test_medium_bound_values():
    assert packing_upper_bound(4, 0.1, "medium") \
        == math.floor(4 * (1 - 0.01) / (1 - 4 * 0.01))
    assert packing_upper_bound(2, 0.0, "medium") == 2
    assert packing_upper_bound(3, 0.0, "weak") == 6


def test_bound_validity_ranges():
    with pytest.raises(ValueError, match="valid"):
        packing_upper_bound(4, 0.5, "weak")
    with pytest.raises(ValueError, match="valid"):
        packing_upper_bound(4, 0.6, "medium")
    with pytest.raises(ValueError, match="d >= 2"):
        packing_upper_bound(1, 0.1, "medium")
    # NaN fails the validity test instead of reaching math.floor
    for criterion in ("weak", "medium"):
        with pytest.raises(ValueError, match="valid only"):
            packing_upper_bound(4, math.nan, criterion)


@pytest.mark.parametrize("criterion", ["weak", "medium"])
@pytest.mark.parametrize("eps,message", [(-0.1, "0 <= eps < 1"),
                                         (math.nan, "valid only"),
                                         (1.0, "valid only")])
def test_upper_bound_refuses_eps_outside_the_unit_interval(eps, message,
                                                           criterion):
    # -0.1 was answered with the bound at 0.1, as if eps were |eps|; NaN
    # and 1.0 fail the validity test first
    with pytest.raises(ValueError, match=message):
        packing_upper_bound(4, eps, criterion)


def test_shannon_lower_bound():
    assert shannon_lower_bound(3, 0.3, "weak") \
        == pytest.approx((1 - 0.09) ** (0.5 - 3))
    assert shannon_lower_bound(3, 0.3, "medium") \
        == pytest.approx((1 - 0.09) ** (1 - 3))
    # log domain stays finite for large d
    lv = shannon_lower_bound(2000, 0.3, "weak", log=True)
    assert lv == pytest.approx((0.5 - 2000) * math.log1p(-0.09))
    assert shannon_lower_bound(2, 0.0, "weak") == 1.0
    # existence never exceeds the upper bound where both apply
    for d in range(2, 12):
        eps = 1.0 / (2 * d)
        assert shannon_lower_bound(d, eps, "weak") \
            <= packing_upper_bound(d, eps, "weak")


@pytest.mark.parametrize("n", range(0, 8))
@pytest.mark.parametrize("alpha,beta", [(1.0, -0.5), (2.5, 0.0), (3.0, 1.5)])
def test_jacobi_matches_scipy(n, alpha, beta):
    xs = np.linspace(-1.0, 1.0, 20)
    want = special.eval_jacobi(n, alpha, beta, xs)
    got = jacobi(n, alpha, beta, xs)
    assert np.max(np.abs(got - want)) < 1e-10


def test_jacobi_explicit_low_degrees():
    a, b, x = 2.0, -0.5, 0.37
    assert jacobi(0, a, b, x) == pytest.approx(1.0)
    assert jacobi(1, a, b, x) == pytest.approx((a - b) / 2 + (a + b + 2) * x / 2)


def test_jacobi_normalized_at_one():
    for n in range(1, 7):
        assert jacobi_normalized(n, 2.0, 0.0, 1.0) == pytest.approx(1.0)
        assert jacobi_normalized(n, 1.5, -0.5, 1.0) == pytest.approx(1.0)


@pytest.mark.parametrize("alpha,family", [(1.0, "beta=-1/2"), (2.0, "beta=-1/2"),
                                          (3.5, "beta=-1/2"), (2.0, "beta=0"),
                                          (4.0, "beta=0")])
def test_jacobi_inequality_holds(alpha, family):
    ok, worst = verify_jacobi_inequality(alpha, family)
    assert ok
    assert worst > 0.0


def test_jacobi_inequality_domain_errors():
    with pytest.raises(ValueError):
        verify_jacobi_inequality(0.5, "beta=-1/2")
    with pytest.raises(ValueError):
        verify_jacobi_inequality(1.5, "beta=0")


def test_jacobi_inequality_fails_outside_range():
    # past the proven x-interval the dominance breaks down: check that the
    # margin at x near +1 goes negative for some low degree
    alpha, beta = 2.0, 0.0
    xs = np.linspace(0.5, 0.99, 50)
    margins = jacobi_normalized(2, alpha, beta, xs) \
        - jacobi_normalized(1, alpha, beta, xs)
    assert np.min(margins) < 0.0


@pytest.mark.parametrize("d", range(1, 11))
def test_simplex_packing_gram(d):
    B = simplex_packing(d)
    assert B.shape == (2 * d + 1, 2 * d)
    G = B @ B.T
    assert np.max(np.abs(np.diag(G) - 1.0)) < 1e-14
    off = G[~np.eye(2 * d + 1, dtype=bool)]
    assert np.max(np.abs(off + 1.0 / (2 * d))) < 1e-13
