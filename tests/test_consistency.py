import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import block_diag
from scipy.sparse.csgraph import connected_components

from qhistories import consistency, randmodel
from qhistories.consistency import (MPV_BLOCK, MPV_EXHAUSTIVE_CAP,
                                    MPV_GAIN_TOL, UnresolvedLimitError,
                                    _subset_bits, _subset_values,
                                    consistency_report, env_orthogonality,
                                    epsilon_for_delta, is_exactly_consistent,
                                    limit_dhc, linear_positivity,
                                    medium_pass, mpv_exact, mpv_greedy,
                                    mpv_upper_bound, nontrivial)
from qhistories.constructions import frame_pair_matrix, frame_pair_mpv
from qhistories.histories import (DecoherenceMatrix, HistoryTree,
                                  ProjectiveDecomposition, extend_all)
from qhistories.linalg import RandomStream, sample_unit_vector
from qhistories.tolerances import EXACT_TOL, ORACLE_RTOL

# MPV comparisons against the reference scans below hold to MPV_RTOL of
# the largest |Re D| entry.
MPV_RTOL = ORACLE_RTOL


def _random_matrix(seed, n, scale=0.1):
    g = RandomStream(seed, "cons").generator
    S = g.normal(size=(n, n)) + 1j * g.normal(size=(n, n))
    S /= np.linalg.norm(S, axis=0)[None, :]
    D = (S.conj().T @ S).T * scale
    return DecoherenceMatrix(D, list(range(n)))


def test_report_on_diagonal_matrix():
    D = DecoherenceMatrix(np.diag([0.5, 0.3, 0.2]).astype(complex), [0, 1, 2])
    r = consistency_report(D, epsilon=1e-8)
    assert r.max_weak_violation == 0.0
    assert r.max_medium_violation == 0.0
    assert r.dhp == 0.0
    assert r.weak_pass and r.medium_pass
    assert is_exactly_consistent(D, "medium")


def test_report_flags_and_ratio():
    D = np.array([[0.5, 0.1j], [-0.1j, 0.5]], dtype=complex)
    r = consistency_report(DecoherenceMatrix(D, [0, 1]), epsilon=0.1)
    assert r.max_weak_violation == 0.0
    assert r.max_medium_violation == pytest.approx(0.1)
    assert r.dhp == pytest.approx(0.2)
    assert r.weak_pass
    assert not r.medium_pass
    assert is_exactly_consistent(DecoherenceMatrix(D, [0, 1]), "weak")
    assert not is_exactly_consistent(DecoherenceMatrix(D, [0, 1]), "medium")


def test_dhp_skips_zero_probability_pairs():
    D = np.array([[0.5, 0.0, 0.1], [0.0, 0.0, 0.0], [0.1, 0.0, 0.5]],
                 dtype=complex)
    r = consistency_report(DecoherenceMatrix(D, [0, 1, 2]))
    assert r.dhp == pytest.approx(0.2)


@settings(deadline=None, max_examples=20)
@given(seed=st.integers(0, 10**6), n=st.integers(2, 8))
def test_mpv_exact_matches_brute_force(seed, n):
    D = _random_matrix(seed, n)
    val, witness = mpv_exact(D)
    R = D.entries.real
    best = 0.0
    for r in range(2, n + 1):
        for sub in itertools.combinations(range(n), r):
            idx = list(sub)
            v = abs(R[np.ix_(idx, idx)].sum() - R[idx, idx].sum())
            best = max(best, v)
    assert val == pytest.approx(best, abs=1e-12)
    w = list(witness)
    attained = abs(R[np.ix_(w, w)].sum() - R[w, w].sum()) if len(w) > 1 else 0.0
    assert attained == pytest.approx(val, abs=1e-12)


@settings(deadline=None, max_examples=20)
@given(seed=st.integers(0, 10**6), n=st.integers(2, 10))
def test_mpv_bounds_sandwich(seed, n):
    D = _random_matrix(seed, n)
    exact, _ = mpv_exact(D)
    assert mpv_greedy(D) <= exact + 1e-12
    assert exact <= mpv_upper_bound(D) + 1e-12


def test_mpv_exhaustive_cap():
    # the cap bounds the largest block: a dense matrix past it and a
    # two-block one whose larger block is past it are refused, while the
    # identity of as many histories is that many one-history blocks
    n = MPV_EXHAUSTIVE_CAP + 1
    with pytest.raises(ValueError, match="exhaustive cap"):
        mpv_exact(_random_matrix(6, n))
    D = np.zeros((n + 3, n + 3), dtype=complex)
    D[:n, :n] = _random_matrix(7, n).entries
    D[n:, n:] = _random_matrix(8, 3).entries
    with pytest.raises(ValueError, match="exhaustive cap"):
        mpv_exact(D)
    assert mpv_exact(np.eye(n, dtype=complex)) == (0.0, ())


def _mpv_exact_full_scan(D):
    """Reference: |f(S)| of every subset index in chunks of 2^14, first
    index of the largest value wins."""
    R = np.asarray(D, dtype=complex).real
    n = R.shape[0]
    diag = np.diag(R).copy()
    best_val, best_idx = 0.0, 0
    chunk = 1 << 14
    for lo in range(0, 1 << n, chunk):
        counts = np.arange(lo, min(lo + chunk, 1 << n), dtype=np.uint64)
        X = ((counts[:, None] >> np.arange(n, dtype=np.uint64)[None, :]) & 1
             ).astype(float)
        vals = np.abs(np.einsum("si,ij,sj->s", X, R, X) - X @ diag)
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best_val, best_idx = float(vals[i]), lo + i
    return best_val, tuple(i for i in range(n) if (best_idx >> i) & 1)


def _mpv_greedy_loop(D):
    """Reference: grow each seed pair (sign, a < b) by one recomputed
    column sum per step."""
    R = np.asarray(D, dtype=complex).real
    n = R.shape[0]
    best = 0.0
    for sign in (1.0, -1.0):
        for a in range(n):
            for b in range(a + 1, n):
                members = np.zeros(n, dtype=bool)
                members[[a, b]] = True
                value = sign * 2.0 * R[a, b]
                while True:
                    gains = sign * 2.0 * (R[:, members].sum(axis=1))
                    gains[members] = -np.inf
                    j = int(np.argmax(gains))
                    if not gains[j] > 1e-15:
                        break
                    members[j] = True
                    value += gains[j]
                best = max(best, abs(value))
    return best


def _subset_violation(R, witness):
    w = list(witness)
    return abs(R[np.ix_(w, w)].sum() - R[w, w].sum())


@pytest.mark.parametrize("n", range(9, 21))
def test_mpv_split_scan_matches_full_scan(n):
    D = _random_matrix(1000 + n, n).entries
    tol = MPV_RTOL * np.abs(D.real).max()
    val, witness = mpv_exact(D)
    ref, _ = _mpv_exact_full_scan(D)
    assert abs(val - ref) <= tol
    assert abs(_subset_violation(D.real, witness) - val) <= tol


@pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 20])
def test_mpv_greedy_matches_loop_on_random(n):
    for seed in range(3):
        D = _random_matrix(2000 * n + seed, n).entries
        tol = MPV_RTOL * np.abs(D.real).max()
        assert abs(mpv_greedy(D) - _mpv_greedy_loop(D)) <= tol


@pytest.mark.parametrize("n_histories", [16, 32, 64])
def test_mpv_greedy_matches_loop_on_frame_pairs(n_histories):
    D = frame_pair_matrix(n_histories // 2, 0.02).entries
    tol = MPV_RTOL * np.abs(D.real).max()
    assert abs(mpv_greedy(D) - _mpv_greedy_loop(D)) <= tol


def _mpv_exact_fresh_blocks(D):
    """Reference: mpv_exact's split scan with a fresh |A[blk] B| temporary
    per block, A = [X_hi | f_hi | 1] and B = [W^T ; 1 ; f_lo]."""
    R = np.asarray(D, dtype=complex).real
    n = R.shape[0]
    h = n // 2
    X_lo, X_hi = _subset_bits(h), _subset_bits(n - h)
    f_lo = _subset_values(R[:h, :h], X_lo)
    f_hi = _subset_values(R[h:, h:], X_hi)
    A = np.ascontiguousarray(
        np.column_stack((X_hi, f_hi, np.ones(1 << (n - h)))))
    B = np.ascontiguousarray(np.vstack(
        ((X_lo @ (R[:h, h:] + R[h:, :h].T)).T, np.ones(1 << h), f_lo)))
    rows = max(1, MPV_BLOCK >> h)
    best_val, best_idx = 0.0, 0
    for start in range(0, 1 << (n - h), rows):
        F = np.abs(A[start:start + rows] @ B)
        i = int(np.argmax(F))
        if F.flat[i] > best_val:
            hi, lo = divmod(i, F.shape[1])
            best_val, best_idx = float(F.flat[i]), (start + hi) << h | lo
    return best_val, tuple(i for i in range(n) if (best_idx >> i) & 1)


def _mpv_exact_fill_then_add(D):
    """Reference: the split scan with the half values added outside the
    product, |(f_hi + f_lo) + X_hi W^T| per block, and each half value
    the three-operand einsum x^T R x - x . diag R."""
    R = np.asarray(D, dtype=complex).real
    n = R.shape[0]
    h = n // 2
    X_lo, X_hi = _subset_bits(h), _subset_bits(n - h)
    f_lo = (np.einsum("si,ij,sj->s", X_lo, R[:h, :h], X_lo)
            - X_lo @ np.diag(R[:h, :h]))
    f_hi = (np.einsum("si,ij,sj->s", X_hi, R[h:, h:], X_hi)
            - X_hi @ np.diag(R[h:, h:]))
    W = X_lo @ (R[:h, h:] + R[h:, :h].T)
    rows = max(1, MPV_BLOCK >> h)
    best_val, best_idx = 0.0, 0
    for start in range(0, 1 << (n - h), rows):
        stop = start + rows
        F = np.abs(f_hi[start:stop, None] + f_lo[None, :]
                   + X_hi[start:stop] @ W.T)
        i = int(np.argmax(F))
        if F.flat[i] > best_val:
            hi, lo = divmod(i, F.shape[1])
            best_val, best_idx = float(F.flat[i]), (start + hi) << h | lo
    return best_val, tuple(i for i in range(n) if (best_idx >> i) & 1)


@pytest.mark.parametrize("k", range(2, 14))
def test_mpv_exact_matches_the_fill_then_add_scan_on_frame_pairs(k):
    # 2k histories; the half values inside the product move the value at
    # roundoff only, and the witness of a frame-pair tie keeps its size
    for eps in (0.001, 0.01, 0.02, 0.05, 0.08, 0.1):
        if eps > 1.0 / (k - 1):
            continue
        D = frame_pair_matrix(k, eps).entries
        val, witness = mpv_exact(D)
        ref, ref_witness = _mpv_exact_fill_then_add(D)
        assert abs(val - ref) <= MPV_RTOL * np.abs(D.real).max()
        assert len(witness) == len(ref_witness)


def _mpv_greedy_signed_rows(D):
    """Reference: mpv_greedy with the + and - seeds as rows of one gain
    matrix, a sign column scaling each step's strided column gather, and
    the block compressed at every step."""
    R = np.asarray(D, dtype=complex).real
    n = R.shape[0]
    a, b = np.triu_indices(n, 1)
    sign = np.repeat([2.0, -2.0], a.size)
    a, b = np.tile(a, 2), np.tile(b, 2)
    rows = max(1, MPV_BLOCK // max(n, 1))
    best = 0.0
    for start in range(0, sign.size, rows):
        sa, sb = a[start:start + rows], b[start:start + rows]
        s = sign[start:start + rows, None]
        value = s[:, 0] * R[sa, sb]
        gains = s * (R[:, sa] + R[:, sb]).T
        seeds = np.arange(s.size)
        gains[seeds, sa] = gains[seeds, sb] = -np.inf
        while value.size:
            j = np.argmax(gains, axis=1)
            gain = gains[np.arange(j.size), j]
            grow = gain > MPV_GAIN_TOL
            best = max(best, float(np.abs(value[~grow]).max(initial=0.0)))
            gains, s, j = gains[grow], s[grow], j[grow]
            value = value[grow] + gain[grow]
            gains += s * R[:, j].T
            gains[np.arange(j.size), j] = -np.inf
    return best


def _block_count(D):
    """Oracle: the number of connected components of the off-diagonal
    support of Re D + Re D^T, by scipy's graph search."""
    R = np.asarray(D, dtype=complex).real
    return connected_components(R + R.T != 0, directed=False)[0] \
        if len(R) else 1


# (label, D, exact too, blocks): seeded Gram matrices, frame pairs and the
# matrices of `qhist dheg --n 8..10`.
_BIT_CASES = (
    [(f"gram-n{n}-s{seed}", _random_matrix(3000 + 10 * n + seed, n).entries,
      True, 1) for n in (0, 1, 2, 5, 9, 16, 20, 22) for seed in range(2)]
    + [(f"gram-n{n}", _random_matrix(3000 + 10 * n, n).entries, False, 1)
       for n in (33, 48, 64)]
    + [(f"pairs-{2 * k}", frame_pair_matrix(k, 0.01).entries, k <= 8, 2)
       for k in (8, 16, 32, 64)]
    + [(f"dheg-n{k}", frame_pair_matrix(k, 0.05).entries, True, 2)
       for k in (8, 9, 10)])


@pytest.mark.parametrize("D,exact,blocks", [case[1:] for case in _BIT_CASES],
                         ids=[case[0] for case in _BIT_CASES])
def test_mpv_scans_are_bit_identical_to_the_references(D, exact, blocks):
    # one block is scanned whole, by the kernels the references copy, so
    # bit for bit; a frame pair's two blocks are scanned each alone, so
    # its values agree with the whole-matrix scans to roundoff only
    assert _block_count(D) == blocks
    if blocks == 1:
        assert mpv_greedy(D) == _mpv_greedy_signed_rows(D)
        if exact:
            assert mpv_exact(D) == _mpv_exact_fresh_blocks(D)
        return
    tol = MPV_RTOL * np.abs(D.real).max()
    assert abs(mpv_greedy(D) - _mpv_greedy_signed_rows(D)) <= tol
    if exact:
        val, witness = mpv_exact(D)
        assert abs(val - _mpv_exact_full_scan(D)[0]) <= tol
        assert abs(_subset_violation(D.real, witness) - val) <= tol


def _block_diagonal(seed, sizes, signs):
    """A Hermitian D of random blocks of the given sizes, under a random
    permutation.  Block i's off-diagonal real parts all have the sign
    signs[i] (either sign where it is 0); its imaginary parts are
    random."""
    g = RandomStream(seed, "blocks").generator
    n = sum(sizes)
    D = np.zeros((n, n), dtype=complex)
    at = 0
    for m, sign in zip(sizes, signs):
        A = g.normal(size=(m, m)) + 1j * g.normal(size=(m, m))
        B = 0.05 * (A + A.conj().T)
        if sign:
            B = sign * np.abs(B.real) + 1j * B.imag
        B[np.diag_indices(m)] = g.uniform(0.1, 1.0, size=m)
        D[at:at + m, at:at + m] = B
        at += m
    p = g.permutation(n)
    return D[np.ix_(p, p)]


# (sizes, signs): a one-history block, an all-positive and an all-negative
# block, and two blocks of one sign, whose best greedy seed lies across them
_BLOCK_CASES = [((1, 5, 7), (0, 1, -1)), ((1, 4, 6, 5), (0, 1, 1, -1)),
                ((3, 3, 4, 2, 1), (-1, 0, 0, 1, 0)), ((6, 6, 6), (-1, -1, 0)),
                ((1, 1, 1, 9), (0, 0, 0, 0)), ((2, 2), (1, -1)),
                ((4, 14), (0, 0))]


@pytest.mark.parametrize("sizes,signs", _BLOCK_CASES,
                         ids=["-".join(map(str, c[0])) for c in _BLOCK_CASES])
def test_mpv_separates_over_blocks(sizes, signs):
    for seed in range(3):
        D = _block_diagonal(100 * seed + sum(sizes), sizes, signs)
        R = D.real
        blocks = consistency._blocks(R)
        assert len(blocks) == _block_count(D) == len(sizes)
        assert sorted(np.concatenate([block for block, _ in blocks])
                      .tolist()) == list(range(len(R)))
        for block, B in blocks:
            assert np.array_equal(B, R[np.ix_(block, block)])
        tol = MPV_RTOL * np.abs(R).max()
        val, witness = mpv_exact(D)
        assert abs(val - _mpv_exact_full_scan(D)[0]) <= tol
        assert abs(_subset_violation(R, witness) - val) <= tol
        assert abs(mpv_greedy(D) - _mpv_greedy_loop(D)) <= tol


@pytest.mark.parametrize("one_sided", [(0, 7), (7, 0)], ids=["upper", "lower"])
def test_mpv_blocks_read_both_triangles(one_sided):
    # f(S) sums R_ab + R_ba, so an entry on one side of the diagonal links
    # two blocks: a real, non-symmetric D of blocks {0..3} and {4..8} with
    # one cross entry, above or below the diagonal
    R = block_diag(_block_diagonal(9, (4,), (1,)).real,
                   _block_diagonal(10, (5,), (1,)).real)
    R[one_sided] = 0.3
    assert len(consistency._blocks(R)) == _block_count(R) == 1
    tol = MPV_RTOL * np.abs(R).max()
    val, witness = mpv_exact(R)
    assert abs(val - _mpv_exact_full_scan(R)[0]) <= tol
    assert abs(_subset_violation(R, witness) - val) <= tol
    assert abs(mpv_greedy(R) - _mpv_greedy_loop(R)) <= tol


def _mpv_peak_bound(n, exact):
    """Bytes an MPV scan of n histories may allocate at once, with
    h = n//2 and m = n - h.  Exact: the tables A = [X_hi | f_hi | 1] and
    B = [W^T ; 1 ; f_lo], and the scan buffer (MPV_BLOCK entries); A and
    B are filled a block of subsets at a time, whose bits and transient
    products (numpy multiplies the X R product of _subset_values by X in
    place) stay within MPV_BLOCK / 4 entries each, and are freed before
    the scan buffer is allocated.  Greedy: 2 Re D^T, the
    2 C(n, 2) seed-pair indices and two blocks of MPV_BLOCK entries (the
    gain block and its gathered rows or compressed copy).  Both: a quarter
    block for the per-row vectors and small arrays, all float64."""
    if exact:
        h = n // 2
        m = n - h
        held = ((1 << h) + (1 << m)) * (m + 2) + MPV_BLOCK
    else:
        held = n * n + n * (n - 1) + 2 * MPV_BLOCK
    return 8 * (held + MPV_BLOCK // 4)


@pytest.mark.parametrize("mpv,n", [(mpv_greedy, 64), (mpv_greedy, 128),
                                   (mpv_exact, 20), (mpv_exact, 24),
                                   (mpv_exact, 26)],
                         ids=["greedy-64", "greedy-128", "exact-20",
                              "exact-24", "exact-26"])
def test_mpv_scans_stay_within_their_memory_bound(mpv, n):
    D = (frame_pair_matrix(n // 2, 0.01) if mpv is mpv_greedy
         else _random_matrix(4000 + n, n)).entries
    mpv(D)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        mpv(D)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= _mpv_peak_bound(n, mpv is mpv_exact)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.1, np.nan)],
                         ids=["nan", "inf", "-inf", "nan-imaginary"])
@pytest.mark.parametrize("mpv", [mpv_exact, mpv_greedy, mpv_upper_bound])
def test_mpv_refuses_a_non_finite_matrix(mpv, bad):
    D = _random_matrix(5, 6).entries
    D[1, 4] = D[4, 1] = bad
    with pytest.raises(ValueError, match="NaN or infinite"):
        mpv(D)
    with pytest.raises(ValueError, match="NaN or infinite"):
        mpv(DecoherenceMatrix(D, list(range(6))))


@pytest.mark.parametrize("D", [np.zeros((0, 0)), np.full((1, 1), 0.7),
                               np.diag([0.4, 0.6]), np.diag(np.arange(6.0))],
                         ids=["n0", "n1", "n2-diagonal", "n6-diagonal"])
def test_mpv_trivial_inputs(D):
    D = D.astype(complex)
    assert mpv_exact(D) == (0.0, ())
    assert mpv_greedy(D) == 0.0


def test_mpv_two_histories():
    D = np.array([[0.5, -0.1 + 0.3j], [-0.1 - 0.3j, 0.5]])
    assert mpv_exact(D) == (pytest.approx(0.2), (0, 1))
    assert mpv_greedy(D) == pytest.approx(0.2)


@pytest.mark.parametrize("n", [12, 13, 14, 20, 26])
def test_frame_pair_mpv_past_old_cap(n):
    # 2n = 24 to 52 histories: each frame is a block, scanned alone, so
    # the exhaustive range ends at frames of 26.
    val, witness = mpv_exact(frame_pair_matrix(n, 0.03))
    assert abs(val - frame_pair_mpv(n, 0.03)) <= 1e-12
    assert len(witness) >= n


def test_analyse_run_reports_interval_above_cap():
    config = randmodel.RunConfig(d1=3, d2=9, sigma=1.0, seed=1, epsilon=0.9,
                                 delta=1e-4, t_max=8.0, max_histories=32)
    an = randmodel.analyse_run(randmodel.run_forward_search(config))
    assert an.n_histories > MPV_EXHAUSTIVE_CAP
    assert not an.mpv_exact
    assert 0.0 < an.mpv <= an.mpv_upper


def test_epsilon_for_delta_simple_modes():
    assert epsilon_for_delta(0.1, 5, "general") == pytest.approx(0.01)
    assert epsilon_for_delta(0.1, 5, "medium-or-homogeneous") == pytest.approx(0.02)
    assert epsilon_for_delta(0.1, 5, "medium-and-homogeneous") == pytest.approx(0.04)


@pytest.mark.parametrize("delta,d", [(0.1, 2), (0.2, 5), (0.05, 17)])
def test_epsilon_for_delta_exact_roots(delta, d):
    # homogeneous sum law: eps (2d-1) / (1 - 2 d eps^2) = delta
    eps = epsilon_for_delta(delta, d, "exact-homogeneous")
    assert eps * (2 * d - 1) / (1.0 - 2 * d * eps * eps) == pytest.approx(delta)
    # general sum law: eps (2d-1) / (1 + eps - 2 d eps (1 + eps)) = delta
    eps = epsilon_for_delta(delta, d, "exact-general")
    denom = 1.0 + eps - 2 * d * eps * (1.0 + eps)
    assert eps * (2 * d - 1) / denom == pytest.approx(delta)


def _gram_stack(seed, k, n, dim=5, dead=None):
    """k Gram blocks of n projected columns each; leaf `dead` has
    probability zero (zero in every block), and leaf 0 has a zero child."""
    g = RandomStream(seed, "stack").generator
    W = (g.normal(size=(k, dim, n)) + 1j * g.normal(size=(k, dim, n))) \
        * g.uniform(0.1, 1.0, size=(k, 1, n))
    if dead is not None:
        W[:, :, dead] = 0.0
        W[0, :, 0] = 0.0
    return np.einsum("kda,kdb->kab", W, W.conj()) \
        / max(np.sum(np.abs(W) ** 2), 1.0)


def _assembled(G):
    k, n, _ = G.shape
    D = np.zeros((n * k, n * k), dtype=complex)
    for i in range(k):
        D[i::k, i::k] = G[i]
    return D


def test_report_of_a_block_stack_is_the_report_of_its_matrix():
    fields = ("max_weak_violation", "max_medium_violation", "dhp", "epsilon",
              "weak_pass", "medium_pass")
    flagged = set()
    for seed, k, n, dead in itertools.product(range(3), (2, 3), (1, 2, 4),
                                              (None, -1)):
        G = _gram_stack(seed, k, n, dead=dead)
        D = _assembled(G)
        dhp = consistency_report(D).dhp
        for eps in (None, 0.0, 0.2, 0.5, 0.9, dhp):
            got, want = consistency_report(G, eps), consistency_report(D, eps)
            for name in fields:
                assert getattr(got, name) == getattr(want, name), name
            assert abs(got.prob_sum - want.prob_sum) \
                <= 1e-15 * np.abs(D).sum()
            flagged.add((got.weak_pass, got.medium_pass))
        for criterion in ("weak", "medium"):
            assert is_exactly_consistent(G, criterion) \
                == is_exactly_consistent(D, criterion)
    assert {(True, True), (True, False), (False, False)} <= flagged


def _report_verdict(D, criterion, tol=None):
    """The reference verdict: the full report's violation maximum
    against tol."""
    M = np.asarray(D, dtype=complex)
    if tol is None:
        tol = EXACT_TOL * np.abs(M.diagonal(0, -2, -1).real).max(initial=1.0)
    r = consistency_report(M)
    return (r.max_weak_violation if criterion == "weak"
            else r.max_medium_violation) <= tol


def test_exact_consistency_reads_the_report_maximum():
    # matrices and (k, n, n) block stacks, each as drawn, nearly diagonal,
    # and with imaginary off-diagonal entries only, at the default tol and
    # at explicit ones on both sides of the violation
    inputs = [np.zeros((0, 0)), np.full((1, 1), 0.7 + 0.2j)]
    for seed in range(3):
        g = np.random.default_rng(seed)
        for n in (2, 3, 5):
            A = g.normal(size=(n, n)) + 1j * g.normal(size=(n, n))
            inputs.append(A @ A.conj().T)
        for k, n in ((2, 1), (2, 3), (3, 4)):
            inputs.append(_gram_stack(seed, k, n))
    for D in list(inputs):
        if D.shape[-1] > 1:
            diag = D * np.eye(D.shape[-1])
            inputs += [diag + 1e-14 * (D - diag),
                       diag + 1j * np.abs(D - diag).astype(complex)]
    verdicts = set()
    for D in inputs:
        G = D if D.ndim == 3 else D[None]
        offdiag = np.abs(G[:, ~np.eye(G.shape[-1], dtype=bool)])
        worst = float(offdiag.max(initial=0.0))
        for criterion in ("weak", "medium"):
            for tol in (None, 0.0, worst, np.nextafter(worst, 0.0), 1e-13):
                got = is_exactly_consistent(D, criterion, tol=tol)
                assert got == _report_verdict(D, criterion, tol), \
                    (D.shape, criterion, tol)
                verdicts.add((criterion, got))
    assert verdicts == {(c, v) for c in ("weak", "medium")
                        for v in (True, False)}


def test_report_of_small_dense_matrices():
    for n in (0, 1):
        M = np.full((n, n), 0.7 + 0.2j)
        for eps in (None, 0.1):
            r = consistency_report(M, eps)
            assert (r.max_weak_violation, r.max_medium_violation, r.dhp,
                    r.prob_sum) == (0.0, 0.0, 0.0, 0.7 * n)
            assert (r.weak_pass, r.medium_pass) == \
                ((None, None) if eps is None else (True, True))
    M = np.array([[0.6, 0.1 + 0.2j], [0.1 - 0.2j, 0.4]])
    r = consistency_report(M, 0.3)
    assert r.max_weak_violation == 0.1
    assert r.max_medium_violation == abs(0.1 + 0.2j)
    assert r.dhp == abs(0.1 + 0.2j) / math.sqrt(0.6 * 0.4)
    assert r.prob_sum == pytest.approx(1.2, abs=1e-15)
    assert (r.weak_pass, r.medium_pass) == (True, False)
    assert consistency_report(M, 0.5).medium_pass
    assert consistency_report(M).medium_pass is None
    # a negative epsilon would fail the zero entries between the blocks of
    # a matrix but not of its stack, so it is refused
    for eps in (-0.1, float("nan")):
        with pytest.raises(ValueError, match="epsilon"):
            consistency_report(M, eps)
    # a zero-probability history drops every pair from the ratio and flags
    r = consistency_report(np.array([[0.5, 0.3], [0.3, 0.0]]), 0.0)
    assert (r.max_weak_violation, r.dhp) == (0.3, 0.0)
    assert r.weak_pass and r.medium_pass


@pytest.mark.parametrize("shape", ["matrix", "blocks"])
def test_a_nan_probability_fails_the_criteria(shape):
    # a pair with a NaN probability has no ratio that passes: it must be
    # counted and fail, not be skipped as a zero-probability pair is
    D = np.array([[np.nan, 0.5], [0.5, 0.5]])
    D = D if shape == "matrix" else np.stack([D, np.diag([0.2, 0.3])])
    r = consistency_report(D, 0.1)
    assert (r.weak_pass, r.medium_pass) == (False, False)
    assert math.isnan(r.dhp)
    assert medium_pass(D, 0.1) is False


def test_epsilon_for_delta_ordering():
    d, delta = 6, 0.15
    general = epsilon_for_delta(delta, d, "general")
    either = epsilon_for_delta(delta, d, "medium-or-homogeneous")
    both = epsilon_for_delta(delta, d, "medium-and-homogeneous")
    assert general < either < both


def test_nontrivial_modes():
    assert nontrivial(0.5, [0.3, 0.2], 0.1, mode="absolute")
    assert not nontrivial(0.5, [0.05, 0.45], 0.1, mode="absolute")
    assert nontrivial(0.5, [0.06, 0.44], 0.1, mode="relative")
    assert not nontrivial(0.5, [0.04, 0.46], 0.1, mode="relative")


def test_nontrivial_judges_a_column_of_parents_like_a_loop():
    g = RandomStream(4, "nontrivial").generator
    parents = g.uniform(0.2, 1.0, size=6)
    children = parents[:, None] * g.dirichlet([1.0, 1.0, 1.0], size=6)
    children[2, 0] = 0.1 * parents[2]        # exactly at delta = 0.1
    verdicts = set()
    for mode, delta, rows in itertools.product(
            ("relative", "absolute"), (0.0, 0.05, 0.1, 0.3),
            [[0], [0, 1], [2, 3], list(range(6))]):
        loop = all(nontrivial(parents[a], children[a], delta, mode=mode)
                   for a in rows)
        assert nontrivial(parents[rows, None], children[rows], delta,
                          mode=mode) == loop
        verdicts.add(loop)
    assert verdicts == {True, False}


def _block_example(seed, q=0.3, null_double=False):
    g = RandomStream(seed, "limit").generator
    d1, d2 = 3, 4
    A = g.normal(size=(d2, d1)) + 1j * g.normal(size=(d2, d1))
    x = sample_unit_vector(d1, "complex", RandomStream(seed, "limit-x"))
    if null_double:
        y = g.normal(size=d2) + 1j * g.normal(size=d2)
        ax = A @ x
        y -= (np.vdot(ax, y) / np.vdot(ax, ax)) * ax
        y /= np.linalg.norm(y)
    else:
        y = sample_unit_vector(d2, "complex", RandomStream(seed, "limit-y"))
    phi = np.concatenate([math.sqrt(q) * x, math.sqrt(1 - q) * y])
    d = d1 + d2
    P = np.zeros((d, d), complex)
    P[:d1, :d1] = np.eye(d1)
    P_dot = np.zeros((d, d), complex)
    P_dot[d1:, :d1] = A
    P_dot[:d1, d1:] = A.conj().T
    return phi, P, P_dot, A, x, y


def test_limit_dhc_double_closed_form():
    phi, P, P_dot, A, x, y = _block_example(1)
    G = limit_dhc(phi, P, P_dot, mode="double")
    want = -np.vdot(y, A @ x) / np.linalg.norm(A @ x)
    assert abs(G[2, 1] - want) < 1e-12
    assert abs(G[1, 2] - np.conj(want)) < 1e-12
    assert abs(G[1, 0]) < 1e-12     # null branch orthogonal to its parent
    assert abs(G[2, 0]) < 1e-12


def test_limit_dhc_double_engineered_null():
    phi, P, P_dot, A, x, y = _block_example(2, null_double=True)
    G = limit_dhc(phi, P, P_dot, mode="double")
    assert abs(G[2, 1]) < 1e-12


def test_limit_dhc_triple_closed_form():
    phi, P, P_dot, A, x, y = _block_example(3)
    G = limit_dhc(phi, P, P_dot, mode="triple")
    ax = A @ x
    want = -np.linalg.norm(ax) ** 2 / np.linalg.norm(A.conj().T @ ax)
    assert abs(G[2, 0] - want) < 1e-12
    assert abs(G[0, 2] - want) < 1e-12
    # the (second, null) entry is the double term again
    dbl = -np.vdot(y, ax) / np.linalg.norm(ax)
    assert abs(G[1, 3] - dbl) < 1e-12
    assert abs(G[1, 0]) < 1e-12
    assert abs(G[3, 0]) < 1e-12
    assert abs(G[2, 1]) < 1e-12
    assert abs(G[3, 2]) < 1e-12


def test_limit_dhc_unresolved_raises():
    P = np.diag([1.0, 0.0]).astype(complex)
    phi = np.array([1.0, 0.0], dtype=complex)
    with pytest.raises(UnresolvedLimitError):
        limit_dhc(phi, P, np.zeros((2, 2)), mode="double")


def test_linear_positivity_on_tree():
    psi = np.array([1.0, 0.0], dtype=complex)
    c, s = math.cos(0.4), math.sin(0.4)
    plus = np.array([c, s])
    minus = np.array([-s, c])
    dec = ProjectiveDecomposition(1.0, [np.outer(plus, plus).astype(complex),
                                        np.outer(minus, minus).astype(complex)])
    tree = extend_all(HistoryTree(initial_state=psi, evolution=None), dec)
    ok, probs, bad = linear_positivity(tree)
    assert ok
    assert bad is None
    assert probs.sum() == pytest.approx(1.0)


def test_env_orthogonality_product_records():
    # two branches with orthogonal environment records
    d1, d2 = 2, 2
    psi = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2)
    P0 = np.kron(np.diag([1.0, 0.0]), np.eye(2)).astype(complex)
    dec = ProjectiveDecomposition(1.0, [P0, np.eye(4) - P0])
    tree = extend_all(HistoryTree(initial_state=psi, evolution=None), dec)
    assert env_orthogonality(tree, d1, d2) < 1e-12
