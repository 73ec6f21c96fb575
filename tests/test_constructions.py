import math

import numpy as np
import pytest

from qhistories.constructions import (frame_pair_history_states,
                                      frame_pair_matrix, frame_pair_mpv,
                                      frame_pair_vectors, zeno_class_amplitudes,
                                      zeno_class_matrix,
                                      zeno_class_probabilities,
                                      zeno_history_class, zeno_max_offdiag,
                                      zeno_sign, zeno_tree, zeno_violation,
                                      zeno_violation_limit)
from qhistories.consistency import consistency_report, mpv_exact
from qhistories.histories import coarse_grain, decoherence_matrix
from qhistories.tolerances import ORACLE_RTOL


# at eps = 1/(n-1), 1 + eps - n eps rounds below 0 for n = 6, 14 and 38
@pytest.mark.parametrize("n,eps", [(2, 0.1), (3, 0.05), (5, 0.2), (4, 1 / 3),
                                   (6, 1 / 5), (14, 1 / 13), (38, 1 / 37)])
def test_frame_pair_dot_products(n, eps):
    U, V = frame_pair_vectors(n, eps)
    GU = U @ U.T
    GV = V @ V.T
    for i in range(n):
        assert GU[i, i] == pytest.approx(1.0, abs=1e-12)
        assert GV[i, i] == pytest.approx(1.0, abs=1e-12)
        for j in range(n):
            if i != j:
                assert GU[i, j] == pytest.approx(-eps, abs=1e-12)
                assert GV[i, j] == pytest.approx(eps, abs=1e-12)


def test_frame_pair_parameter_range():
    with pytest.raises(ValueError):
        frame_pair_vectors(5, 0.3)
    with pytest.raises(ValueError):
        frame_pair_vectors(3, 0.0)


def test_frame_pair_states_block_structure():
    n, eps = 3, 0.1
    S = frame_pair_history_states(n, eps)
    assert np.max(np.abs(S[n:, :n])) == 0.0
    assert np.max(np.abs(S[:n, n:])) == 0.0
    D = frame_pair_matrix(n, eps)
    assert abs(D.entries.sum() - 1.0) < 1e-12
    assert np.allclose(D.diag, 1.0 / (2 * n))
    # cross-block entries vanish: u and v histories never interfere
    assert np.max(np.abs(D.entries[:n, n:])) == 0.0


@pytest.mark.parametrize("n,eps", [(2, 0.05), (3, 0.1), (4, 0.05), (5, 0.1)])
def test_frame_pair_mpv_closed_form(n, eps):
    D = frame_pair_matrix(n, eps)
    val, witness = mpv_exact(D)
    assert val == pytest.approx(frame_pair_mpv(n, eps), abs=1e-12)
    # merging one whole frame attains the violation
    merged = coarse_grain(D, [list(range(n)), list(range(n, 2 * n))])
    viol = abs(merged.entries[0, 0].real - D.diag[:n].sum())
    assert viol == pytest.approx(frame_pair_mpv(n, eps), abs=1e-12)


def test_zeno_sign_pattern():
    assert [zeno_sign(m) for m in range(6)] == [1.0, -1.0, -1.0, 1.0, 1.0, -1.0]


@pytest.mark.parametrize("n,theta", [(2, 0.9), (3, 0.7), (4, 1.2)])
def test_zeno_tree_matches_class_amplitudes(n, theta):
    tree = zeno_tree(n, theta)
    D = decoherence_matrix(tree)
    g, counts = zeno_class_amplitudes(n, theta)
    seen = np.zeros(n + 1)
    psi = tree.initial_state
    for leaf in tree.leaves():
        alphas = [1 if i == 0 else -1 for i in leaf]
        m = zeno_history_class(alphas)
        u = tree.path_state(leaf)
        p = float(np.linalg.norm(u) ** 2)
        assert p == pytest.approx(g[m] ** 2, abs=1e-14)
        # the amplitude along the final branch direction carries the sign
        amp = float(np.real(np.vdot(psi, u) / np.linalg.norm(u))) \
            if p > 0 else 0.0
        seen[m] += 1
    assert np.allclose(seen, counts, rtol=1e-12)
    probs = zeno_class_probabilities(n, theta)
    assert abs(probs.sum() - 1.0) < 1e-12
    assert abs(D.entries.sum().real - 1.0) < 1e-12


@pytest.mark.parametrize("n,theta", [(6, 0.9), (6, -0.9), (2, 3.5),
                                     (3, -5.0)])
def test_zeno_class_probabilities_at_any_angle_are_the_trees(n, theta):
    # a negative step angle, or one past pi/2 where cos eps < 0: each class
    # probability is the sum of zeno_tree's decoherence-matrix diagonal
    # over the class's histories, and the reflection diag(1, -1), which
    # maps the chain at theta onto the chain at -theta, leaves both
    # violations as they are
    tree = zeno_tree(n, theta)
    diag = decoherence_matrix(tree).diag
    want = np.zeros(n + 1)
    for leaf, p in zip(tree.leaves(), diag):
        want[zeno_history_class([1 if i == 0 else -1 for i in leaf])] += p
    got = zeno_class_probabilities(n, theta)
    assert np.max(np.abs(got - want)) <= ORACLE_RTOL * np.max(want)
    for subset in ("X", "Y"):
        v, w = zeno_violation(n, -theta, subset), zeno_violation(n, theta,
                                                                 subset)
        assert abs(v - w) <= ORACLE_RTOL * max(abs(w), 1.0), subset


def test_zeno_class_matrix_parity_structure():
    n, theta = 5, 0.8
    D = zeno_class_matrix(n, theta)
    g, c = zeno_class_amplitudes(n, theta)
    for m in range(n + 1):
        for mp in range(n + 1):
            if (m - mp) % 2 == 1:
                assert D.entries[m, mp] == 0.0
            else:
                assert D.entries[m, mp] == pytest.approx(
                    c[m] * c[mp] * g[m] * g[mp], rel=1e-12)


def test_zeno_violation_against_direct_sum():
    n, theta = 8, 0.9
    g, c = zeno_class_amplitudes(n, theta)
    m = np.arange(n + 1)
    sel = (m % 4 == 0) | (m % 4 == 3)
    w = c[sel] * g[sel]
    even = m[sel] % 2 == 0
    direct = abs(w[even].sum() ** 2 + w[~even].sum() ** 2
                 - (c[sel] * g[sel] ** 2).sum())
    assert zeno_violation(n, theta, "X") == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("subset", ["X", "Y"])
def test_zeno_violation_converges_to_limit(subset):
    theta = 1.0
    lim = zeno_violation_limit(theta, subset)
    err_small = abs(zeno_violation(50, theta, subset) - lim)
    err_large = abs(zeno_violation(800, theta, subset) - lim)
    assert err_large < err_small
    assert err_large < 5.0 / 800


def test_zeno_offdiag_bound():
    for n, theta in [(50, 1.0), (200, 1.0), (100, 2.0)]:
        assert zeno_max_offdiag(n, theta) <= theta ** 2 / n ** 2 * (1 + 1e-9)


def test_zeno_violation_grows_despite_vanishing_entries():
    theta = 2.0
    n = 400
    assert zeno_max_offdiag(n, theta) < 1e-4
    assert zeno_violation(n, theta, "X") > 1.0


def test_zeno_history_class_prepended_plus():
    assert zeno_history_class([1, 1, 1]) == 0
    assert zeno_history_class([-1, 1, 1]) == 2
    assert zeno_history_class([1, -1, 1]) == 2
    assert zeno_history_class([-1, -1, -1]) == 1
