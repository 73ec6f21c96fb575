"""Consistency criteria for sets of histories.

Covers the weak (Re D = 0) and medium (D = 0) criteria, the largest
overlap ratio of a set and its per-pair threshold test, exhaustive and
greedy maximum probability violation, the epsilon(delta) choices that keep
all probability sum rules within delta, coincident-time (limit) overlap
diagnostics, non-triviality tests, linear positivity and environment
orthogonality.
"""

import math
from dataclasses import dataclass

import numpy as np

from .tolerances import (EXACT_TOL, LIMIT_TOL, MPV_GAIN_TOL,
                         NEGATIVE_PROBABILITY_TOL, NULL_STATE_TOL)

# mpv_exact scans each block of D (the connected components of its exactly
# non-zero entries) alone, 2^(n_i) subsets for a block of n_i histories, and
# refuses a D whose largest block has more than this many histories; its
# witness is the union of the winning sign's block witnesses
MPV_EXHAUSTIVE_CAP = 26
MPV_BLOCK = 1 << 16      # entries of one temporary block in the MPV scans


def _entries(D):
    return D.entries if hasattr(D, "entries") else np.asarray(D, dtype=complex)


@dataclass
class ConsistencyReport:
    max_weak_violation: float
    max_medium_violation: float
    dhp: float
    prob_sum: float
    epsilon: float | None = None
    weak_pass: bool | None = None
    medium_pass: bool | None = None


def _pairs(D, epsilon):
    """D as a (k, n, n) stack G, its off-diagonal mask, the mask ok of the
    off-diagonal pairs of non-zero probability, and sqrt|D_aa D_bb| over
    them.  A pair with a NaN probability is counted, with a NaN root, so
    that every threshold fails it.  Refuses a negative or NaN epsilon
    (None passes)."""
    if epsilon is not None and not epsilon >= 0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")
    M = _entries(D)
    G = M if M.ndim == 3 else M[None]
    diag = G.diagonal(0, 1, 2).real
    off = ~np.eye(G.shape[-1], dtype=bool)
    root = np.sqrt(np.abs(diag[:, :, None] * diag[:, None, :]))
    ok = off & ~(root <= 0)
    return G, off, ok, root[ok]


def medium_pass(D, epsilon):
    """consistency_report(D, epsilon).medium_pass, computed alone: every
    pair of non-zero probability has |D_ab| <= epsilon sqrt|D_aa D_bb|."""
    G, _, ok, root = _pairs(D, epsilon)
    return bool((np.abs(G[ok]) <= epsilon * root).all())


def consistency_report(D, epsilon=None):
    """Violation maxima, overlap-ratio parameter, and per-pair threshold
    flags at the given epsilon >= 0 (None without one).  Zero-probability
    pairs are skipped in the ratio; a NaN probability fails both flags and
    makes dhp NaN.  D is a matrix, or the (k, n, n) diagonal blocks of one
    that is zero off them, reported as that matrix but for the summation
    order of prob_sum."""
    G, off, ok, root = _pairs(D, epsilon)
    medium = np.abs(G[ok])
    flags = (None, None) if epsilon is None else (
        bool((np.abs(G.real[ok]) <= epsilon * root).all()),
        bool((medium <= epsilon * root).all()))
    return ConsistencyReport(float(np.abs(G.real[:, off]).max(initial=0.0)),
                             float(np.abs(G[:, off]).max(initial=0.0)),
                             float((medium / root).max(initial=0.0)),
                             float(np.sum(_entries(D)).real), epsilon, *flags)


def is_exactly_consistent(D, criterion="weak", tol=None):
    """Whether the largest off-diagonal |Re D_ab| ('weak') or |D_ab| (any
    other criterion) is at most tol, by default EXACT_TOL times the largest
    |D_aa| (at least 1): the report's violation maximum, computed alone."""
    M = _entries(D)
    if tol is None:
        tol = EXACT_TOL * np.abs(M.diagonal(0, -2, -1).real).max(initial=1.0)
    G = M if M.ndim == 3 else M[None]
    off = G[:, ~np.eye(G.shape[-1], dtype=bool)]
    return bool(np.abs(off.real if criterion == "weak" else off).max(
        initial=0.0) <= tol)


def _subset_bits(n, start=0, stop=None):
    """Indicator rows of the subsets start..stop-1 (all 2^n by default) of
    n items, row s = binary of s."""
    counts = np.arange(start, 1 << n if stop is None else stop,
                       dtype=np.uint64)
    return ((counts[:, None] >> np.arange(n, dtype=np.uint64)[None, :]) & 1
            ).astype(float)


def _subset_blocks(n):
    """(start, X) for the indicator rows X of all 2^n subsets of n items,
    row start + s = binary of start + s, in blocks of about MPV_BLOCK / 4
    entries: a power of two rows, at least 8, or the whole table when it
    is smaller.  Such a block's products, and their row sums, round as
    the whole table's; blocks of other row counts were seen to take BLAS
    paths that round otherwise."""
    rows = min(1 << n, max(8, 1 << ((MPV_BLOCK // 4) // max(n, 1)
                                    ).bit_length() - 1))
    for start in range(0, 1 << n, rows):
        yield start, _subset_bits(n, start, start + rows)


def _subset_values(R, X):
    """Off-diagonal sum x^T R x - x . diag R of every indicator row x, as
    the row sums of (X R) * X: one BLAS product and an elementwise pass."""
    return ((X @ R) * X).sum(axis=1) - X @ np.diag(R)


def _finite_real(D):
    """Re D for the MPV functions, refusing a D with a NaN or infinite
    entry: either would be scored as some finite MPV or as NaN."""
    M = _entries(D)
    if not np.isfinite(M).all():
        raise ValueError("D has a NaN or infinite entry")
    return M.real


def _blocks(R):
    """The blocks of the histories of R, each as (its indices, R
    restricted to them): the connected components of the off-diagonal
    support of R + R^T (exact zeros only count as absent), in order of
    their first history.  f(S) of the MPV scans sums R_ab + R_ba over the
    pairs of S, so it is the sum of the values of S's parts in each
    block.  One block is R itself; a matrix with no zero entry is one
    block, decided by one count."""
    n = len(R)
    if np.count_nonzero(R) == n * n:
        return [(np.arange(n), R)]
    linked = (R + R.T) != 0
    left = np.ones(n, dtype=bool)
    blocks = []
    while left.any():
        block = np.zeros(n, dtype=bool)
        block[np.argmax(left)] = True
        reached = block
        while reached.any():
            reached = linked[reached].any(axis=0) & ~block
            block |= reached
        left &= ~block
        blocks.append(np.flatnonzero(block))
    if len(blocks) == 1:
        return [(blocks[0], R)]
    return [(block, R[np.ix_(block, block)]) for block in blocks]


def _signed_extremes(R):
    """(max f, its subset index, min f, its subset index) over all 2^n
    subsets S of the histories of R, f(S) = sum of R_ab over distinct a,
    b in S, subset index s meaning bit i = history i; the first index
    wins a tie, and the empty set (index 0, f = 0) bounds both.

    The histories are split into the first h = n//2 and the rest,
    f(S) = f(S_lo) + f(S_hi) + cross(S_lo, S_hi), so each half is
    tabulated once.  The half values ride in the product as two more
    terms of its inner sum: with A = [X_hi | f_hi | 1] and
    B = [W^T ; 1 ; f_lo], both C-contiguous and built once per call, the
    2^n values are the entries of A B, scanned as chunks A[blk] B of at
    most MPV_BLOCK entries.  Each chunk is one matmul into one reused
    buffer, so the scan holds that buffer, MPV_BLOCK entries, besides the
    tables A and B of 2^(n-h) and 2^h rows.  The subset bits and half
    values are filled straight into A's columns and B's rows, a block of
    subsets at a time (_subset_blocks), so no whole half table is held
    beside them.  So memory stays flat in n, apart from A and B."""
    n = R.shape[0]
    h = n // 2
    # filled into C-ordered buffers, a block of subsets at a time: np.vstack
    # of W^T gives an F-ordered B, whose block products run about 1.8x
    # slower at 26 histories
    B = np.empty((n - h + 2, 1 << h))
    B[-2] = 1.0
    cross = R[:h, h:] + R[h:, :h].T
    for start, X in _subset_blocks(h):
        stop = start + len(X)
        B[:-2, start:stop] = (X @ cross).T
        B[-1, start:stop] = _subset_values(R[:h, :h], X)
    A = np.empty((1 << (n - h), n - h + 2))
    A[:, -1] = 1.0
    for start, X in _subset_blocks(n - h):
        stop = start + len(X)
        A[start:stop, :-2] = X
        A[start:stop, -2] = _subset_values(R[h:, h:], X)
    del X       # the last block, freed before the scan's buffer is made
    rows = min(max(1, MPV_BLOCK >> h), len(A))      # divides len(A)
    F = np.empty((rows, 1 << h))
    top, top_idx, low, low_idx = 0.0, 0, 0.0, 0
    for start in range(0, len(A), rows):
        np.matmul(A[start:start + rows], B, out=F)
        i, k = int(np.argmax(F)), int(np.argmin(F))
        if F.flat[i] > top:
            hi, lo = divmod(i, F.shape[1])
            top, top_idx = float(F.flat[i]), (start + hi) << h | lo
        if F.flat[k] < low:
            hi, lo = divmod(k, F.shape[1])
            low, low_idx = float(F.flat[k]), (start + hi) << h | lo
    return top, top_idx, low, low_idx


def mpv_exact(D):
    """Maximum probability violation by exhaustive subset scan.

    Returns (value, witness subset as a sorted index tuple).  The value
    is the largest |f(S)| over subsets S, f(S) = sum of Re D_ab over
    distinct a, b in S.  D separates over its blocks (_blocks: the
    connected components of the exactly non-zero entries of
    Re D + Re D^T), f(S) = sum_i f_i(S & block i), so the value is
    max(sum_i max f_i, -sum_i min f_i), and each block is scanned alone
    by _signed_extremes, a split scan of its 2^(n_i) subsets; a dense D
    is one block, scanned whole.

    Subset index s means bit i = history i.  Each block's extremes are
    the subsets of smallest index among its largest and its smallest f,
    and the witness is the union of the winning side's; on a tie between
    the sides, the union of smaller index.  On one block this is the
    subset of smallest index whose |f| is the largest.  Ties between
    subsets of equal value are decided by roundoff.  Refuses a D with a
    NaN or infinite entry, and a block of more than MPV_EXHAUSTIVE_CAP = 26
    histories; use mpv_greedy there."""
    R = _finite_real(D)
    n = R.shape[0]
    blocks = _blocks(R)
    largest = max(len(block) for block, _ in blocks)
    if largest > MPV_EXHAUSTIVE_CAP:
        raise ValueError(f"a block of {largest} histories exceeds the "
                         f"exhaustive cap {MPV_EXHAUSTIVE_CAP}")
    top, top_idx, low, low_idx = 0.0, 0, 0.0, 0
    for block, B in blocks:
        t, t_idx, m, m_idx = _signed_extremes(B)
        top, low = top + t, low + m
        for i, history in enumerate(block.tolist()):
            top_idx |= (t_idx >> i & 1) << history
            low_idx |= (m_idx >> i & 1) << history
    if -low > top or (-low == top and low_idx < top_idx):
        top, top_idx = -low, low_idx
    return top, tuple(i for i in range(n) if (top_idx >> i) & 1)


def _greedy_values(RT2, a, b, sign):
    """Final value of the greedy growth from each seed (sign, a_s, b_s)
    on the table RT2 = 2 Re D^T: start from {a_s, b_s} with value
    sign RT2[b_s, a_s], and add the history of largest gain
    sign sum_{j in S} RT2[j, i] (first index on ties) while that gain
    exceeds MPV_GAIN_TOL.  The seeds advance together as rows of a gain
    matrix, in chunks of at most MPV_BLOCK entries: adding history j to a
    row adds (sign +) or subtracts (sign -) row j of RT2 to its gains in
    place, and a member's gain is held at -inf.  The chunk is compressed
    only at steps where some row stops.  So the scan holds at most two
    chunks at once (the gains and either the gathered rows or the
    compressed copy) besides RT2, the seeds and their values."""
    update = np.add if sign > 0 else np.subtract
    out = np.empty(a.size)
    rows = max(1, MPV_BLOCK // max(len(RT2), 1))
    for start in range(0, a.size, rows):
        sa, sb = a[start:start + rows], b[start:start + rows]
        value = sign * RT2[sb, sa]
        gains = RT2[sa]
        gains += RT2[sb]
        gains *= sign
        seeds = np.arange(sa.size)
        gains[seeds, sa] = gains[seeds, sb] = -np.inf
        live = seeds + start
        while value.size:
            j = np.argmax(gains, axis=1)
            gain = gains[seeds[:j.size], j]
            grow = gain > MPV_GAIN_TOL
            if not grow.all():
                stop = ~grow
                out[live[stop]] = value[stop]
                gains, value, live = gains[grow], value[grow], live[grow]
                gain, j = gain[grow], j[grow]
            value += gain
            update(gains, RT2[j], out=gains)
            gains[seeds[:j.size], j] = -np.inf
    return out


def mpv_greedy(D):
    """Deterministic greedy lower bound on the maximum probability
    violation: grow subsets from every seed pair, keep the best |value|.

    Seed (sign, a < b) starts from {a, b} with value 2 sign Re D_ab and
    repeatedly adds the history of largest gain 2 sign sum_{j in S} Re D_ij
    while that gain exceeds MPV_GAIN_TOL (_greedy_values, + seeds then
    - seeds).  D is read as Hermitian.  A dense D is one block, grown
    whole on 2 Re D^T.  Otherwise each block (_blocks) is grown alone, on
    its own 2 Re D^T with a zero history appended: the gains across
    blocks are exactly 0, never above MPV_GAIN_TOL, so a seed within a
    block grows as it would in D, and a seed (a, b) across blocks grows
    {a} and {b} each in its own block, to the value g(a) + g(b).  So each
    block's pair seeds and its singleton seeds (a, zero history) share
    one gain matrix, and the best seed across blocks, for each sign, is
    worth the sum of the two largest singleton values of different
    blocks.  The grown sets are D's, and only a cross seed's value is
    summed in another order.  Refuses a D with a NaN or infinite entry."""
    R = _finite_real(D)
    blocks = _blocks(R)
    across = len(blocks) > 1        # whether any seed lies across blocks
    best, singles = 0.0, {1.0: [], -1.0: []}
    for block, B in blocks:
        m = len(block)
        RT2 = np.zeros((m + across, m + across))
        RT2[:m, :m] = B.T
        RT2 *= 2.0
        a, b = np.triu_indices(m, 1)
        pairs = a.size
        if across:
            a = np.concatenate((a, np.arange(m)))
            b = np.concatenate((b, np.full(m, m)))
        for sign, grown in singles.items():
            value = _greedy_values(RT2, a, b, sign)
            best = max(best, float(np.abs(value[:pairs]).max(initial=0.0)))
            grown.append(float(value[pairs:].max(initial=0.0)))
    if across:
        for grown in singles.values():
            second, first = sorted(grown)[-2:]
            best = max(best, first + second)
    return best


def mpv_upper_bound(D):
    """sum of |Re D_ab| over distinct pairs: a cheap certified bound.
    Refuses a D with a NaN or infinite entry."""
    R = _finite_real(D)
    off = ~np.eye(R.shape[0], dtype=bool)
    return float(np.abs(R[off]).sum())


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


def _limit_state(state, op, op_dot, op_ddot=None):
    """Normalized limit of op(t) state as t -> 0+.

    op(t) = op + t op_dot + t^2 op_ddot / 2; the limit direction is the
    first non-vanishing term.  Supported to second order."""
    scale = np.linalg.norm(state)
    v = op @ state
    if np.linalg.norm(v) > LIMIT_TOL * scale:
        return v / np.linalg.norm(v)
    v = op_dot @ state
    if np.linalg.norm(v) > LIMIT_TOL * scale:
        return v / np.linalg.norm(v)
    if op_ddot is not None:
        v = 0.5 * (op_ddot @ state)
        if np.linalg.norm(v) > LIMIT_TOL * scale:
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
    (absolute) or above delta times the parent (relative).

    The parent may be an array that broadcasts against the children, such
    as a column of parents against their rows of children: the verdict
    then covers every row at once."""
    if not (0.0 <= delta < 1.0):
        raise ValueError("delta must lie in [0, 1)")
    children = np.asarray(child_probabilities, dtype=float)
    if mode == "absolute":
        return bool(np.all(children > delta))
    if mode == "relative":
        return bool(np.all(children >= delta * parent_probability))
    raise ValueError(f"unknown mode {mode!r}")


def linear_positivity(tree, tol=NEGATIVE_PROBABILITY_TOL):
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
        if np.linalg.norm(u) < NULL_STATE_TOL:
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
