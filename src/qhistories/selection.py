"""Set-selection algorithms over bipartite models.

A model exposes an initial state, an evolution and a system/environment
split.  The evolution is matrix-free, apply(states, t, adjoint=False),
apply_times(states, ts) and apply_rows(states, ts, adjoint=False)
(histories.as_evolution): the spin models pass a spin.ChainEvolution, the
random models a HamiltonianFlow (each computes apply and apply_times in
one kernel over a sequence of times), and a callable t -> U(t) is wrapped
once.
Candidate projective decompositions are the Schmidt (reduced-density
eigenbasis) projections of the evolved state, given at system size d1 and
applied to the leading (system) factor of the states
(histories.apply_leading).
Selection strategies: earliest admissible time, quasi-dynamical
(persistence under immediate re-projection), retrodictive (backward
acceptance from the final time), and maximal information for the
spin-measurement chain.

Every selection builds its set as one HistoryTree, which carries its leaf
states in one frame (histories), from a fresh tree by one Extension per
event, which scores a candidate without building it.  The projectors
applied at one time are mutually orthogonal, so extending every leaf a of
the current set by {P_i(t)} gives the decoherence matrix D[(a,i),(b,j)] =
delta_ij <U(t) u_b| P_i |U(t) u_a>, zero off k blocks: a candidate is held
as the (k, n, n) stack of those Gram blocks of the leaf states u_a,
stepped together from the tree's frame time by one evolution call and
split by the one projection kernel (histories._project and
histories._gram), with no padded matrix.  Block i is D[i::k, i::k] in the
(leaf outer, projector inner) order of extend_all; the tree is extended
only once a candidate is accepted, its frame the split the Extension
already holds, and a candidate's full consistency report is built only
when it is read: a rejected one is judged by its medium verdict
alone.  The forward strategies (earliest-time, quasi-dynamical and the
random-run search in randmodel) share one scan-and-bisect loop,
_scan_select, and differ only in scan times, stop rule and budget.

Every Schmidt candidate is cut from a stacked split (_Split) of a stack
of psi(t), which reads the norm guard and the Schmidt rank, the weights
above SCHMIDT_WEIGHT_TOL, for every row at once.  A candidate is the
rank-1 projectors u_i u_i^dag of its rank's vectors and, when the rank r
is below d1, one complement, sum_{j >= r} u_j u_j^dag.  At d1 = 2 a row
whose weights are normed and well apart is gapped (_eigenbasis), and its
vectors are read from rho(t)'s eigenvectors, diagonalised for the whole
stack in closed form; every other row, and every row at d1 >= 3, is cut
from one SVD of those rows.  A scan judges every time against one
criterion (epsilon, delta, delta_mode), refused before the scan starts
when it is out of range, and, in quasi-dynamical selection, with the
persistence probe at probe_dt.  It works in chunks of upcoming scan times
(_prepare_chunk), one _Chunk at a time on the current tree, a local of
_scan_select dropped with that tree at each event: the evolution's
apply_times steps the tree's frame alone, the one array the scan carries,
from the frame time t_f to every time of a chunk in one product.  Every
tree the scan builds is extended by complete decompositions, so the
frame's columns sum to psi(t_f), and a row's psi(t) is the sum of its
evolved leaf states, U(t) U(t_f)^dag F summed over its columns.  The
chunk takes one split of all its times when it is built, so at most one
SVD.  The chunk is the only judge of a scan row: it scores every row at
once in the rank-1 form of the projection kernel (histories._coefficients,
_gram, and _group for a complement) and judges it once, when the chunk is
built: the row's one verdict, both ways, a boolean (_Chunk.admissible).
It is the criterion's (_admissible_rows) and, with a probe, the
persistence probe's too: the probe of every row the criterion admits is
stacked (_probe_worst), and the row stays admissible only when it
persists, so a NaN probe fails.
A chunk holds the scan's next SCAN_CHUNK times or, in a bisection, the
midpoints of its next BISECT_LEVELS levels (_bisection_times), fewer
where its largest array, the evolved leaf states with their sums psi(t)
(T d (1 + n) entries for T times, d = d1 d2 and n leaves), the Gram stack
(T d1 n^2) or the probe's states (T d n d1) or Gram stack (T d1^3 n^2),
would exceed SCAN_BLOCK complex entries, and at least one; a chunk of
one time is prepared whatever its size, up to histories.LEAF_STATE_CAP
entries, past which the scan is refused (ValueError).  So at most
SCAN_CHUNK - 1 prepared scan times go unevaluated per tree, and a
bisection chunk's midpoints off the bisection's path are prepared and
never evaluated.
The scan takes each scan time from advance once, and reads
full(tree, events) once per tree; one rule prepares every chunk, of scan
times or of midpoints: a chunk is prepared when the time to evaluate is
not one of the current chunk's.  Each time on the scan's path,
bisection midpoints included, is still evaluated alone and in order, and
each evaluation is the scan loop's one schmidt_candidate call on its
chunk, which reads the row's one verdict: at a row the chunk refused that
call returns None, which ends the evaluation there; any other row is
accepted, its Extension built from its row alone, in the same
arithmetic, and not judged again.  So each evaluation is one candidate
and one verdict on it at one time.
Only retrodictive selection evaluates a time outside any chunk: it is
split alone, as a stack of one."""

import bisect
import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .consistency import consistency_report
from .histories import (SCAN_BLOCK, HistoryTree, ProjectiveDecomposition,
                        _check_entries, _coefficients, _extend, _gram,
                        _group, _interleave, _lift, _max_off_diagonal,
                        _project, as_evolution)
from .linalg import _fix_column_phases, entropy
from .tolerances import (COMPANION_TOL, DISTRIBUTION_SUM_TOL,
                         LIVE_PROBABILITY_TOL, NEGATIVE_PROBABILITY_TOL,
                         NORM_TOL, PERSISTENCE_TOL, SCHMIDT_WEIGHT_TOL,
                         SCREEN_GAP_FLOOR, SCREEN_WEIGHT_FLOOR)
from . import spin as spin_mod

SCAN_CHUNK = 64          # times of a scan chunk, before the SCAN_BLOCK cap
BISECT_LEVELS = 5        # bisection levels of a chunk of midpoints: 31 times


@dataclass
class BipartiteModel:
    """System (x) environment model: |psi0> on C^{d1} (x) C^{d2} evolved by
    unitary, an object with apply(states, t, adjoint=False) and
    apply_times(states, ts), or a callable t -> U(t).  evolution is its
    apply-protocol form (as_evolution)."""

    d1: int
    d2: int
    psi0: np.ndarray
    unitary: object

    def __post_init__(self):
        self.psi0 = np.asarray(self.psi0, dtype=complex).reshape(-1)
        if self.psi0.size != self.d1 * self.d2:
            raise ValueError("state dimension does not match d1*d2")
        if not self.d1 <= self.d2:
            raise ValueError(f"require d1 <= d2, got {self.d1} > {self.d2}")
        self.evolution = as_evolution(self.unitary)

    def state(self, t):
        return self.evolution.apply(self.psi0, t)


def spin_model(cfg):
    return BipartiteModel(2, 2 ** cfg.n, spin_mod.initial_state(cfg),
                          spin_mod.chain_evolution(cfg))


def recoherence_model(a1, a2, u):
    return BipartiteModel(2, 2, spin_mod.recoherence_initial_state(a1, a2, u),
                          spin_mod.recoherence_evolution(u))


@dataclass
class SelectionEvent:
    time: float
    decomposition: ProjectiveDecomposition
    probabilities: np.ndarray
    report: object


@dataclass
class SelectedSet:
    tree: HistoryTree
    events: list = field(default_factory=list)

    @property
    def times(self):
        return [e.time for e in self.events]


class _Split:
    """The Schmidt candidates of a stack of states psi (T, d1*d2), for
    every row at once: the one place a candidate is cut (read by
    schmidt_candidate).

    A gapped row (_eigenbasis: d1 = 2, normed, and weights clear of 0 and
    of each other) takes its vectors from rho(t), diagonalised in closed
    form; every other row, a degenerate, rank-deficient, off-norm or NaN
    psi(t) say, or any row at d1 >= 3, is cut from one stacked SVD of those
    rows as d1 x d2 matrices.  Both work on each row alone, so a row's
    split is the same to the bit in any stack, a chunk's or a stack of one.

    Per row: normed, whether ||psi| - 1| <= NORM_TOL (NaN fails), with the
    norms kept for the error (a gapped row is normed, its trace checked,
    and its norm is read as 1); a row that fails is zeroed before the SVD
    so that it cannot spoil the stack.  failed is the set of rows whose
    SVD raised LinAlgError: only when the stacked SVD raises is each of
    its rows split alone.  cols holds the d1 vectors u_i = cols[t, i] in
    descending weight order, the phase-fixed left singular vectors at a
    row that is not gapped, and rank the number of weights above
    SCHMIDT_WEIGHT_TOL: d1 at a gapped row, 0 at a zeroed or failed one.
    The row's candidate is its first rank vectors' rank-1 projectors
    u_i u_i^dag and, when rank < d1, one complement
    sum_{j >= rank} u_j u_j^dag: candidate_size = min(rank + 1, d1)
    projectors.  No projector is built here, so a chunk scores every row
    from cols alone, in the rank-1 form of the projection kernel, and
    gives it its one verdict (see _Chunk).

    Why rho is enough (Davis-Kahan).  The closed form and an SVD of psi
    each return the exact eigenvectors of some rho + E, to roundoff; with
    the rounding of rho itself, each |E| stays below SCREEN_RHO_ERROR =
    1e-14, about 90 units of roundoff (the largest |P_rho - P_svd| times
    the gap was 18 units over 32,000 gapped random rows at d2 = 2..256,
    and 32 units with rho's eigenvectors from eigh over thousands of rows
    at d1 = 2..16).  By the Davis-Kahan sin theta theorem a rank-1
    projector then moves by at most |E| / gap, so at a gapped row the
    candidate's P_i and an SVD's differ by at most
    eta = 2 SCREEN_RHO_ERROR / SCREEN_GAP_FLOOR = 2e-13, and a child
    probability by at most 2 eta + eta^2."""

    def __init__(self, psi, d1, d2):
        T = len(psi)
        self.gapped, self.cols = _eigenbasis(psi, d1, d2)
        self.normed = self.gapped.copy()
        self.norms = np.ones(T)
        self.rank = np.full(T, d1)
        self.failed = set()
        rows = np.flatnonzero(~self.gapped)
        if rows.size:
            norms = self.norms[rows] = np.linalg.norm(psi[rows], axis=1)
            normed = self.normed[rows] = np.abs(norms - 1.0) <= NORM_TOL
            M = np.where(normed[:, None], psi[rows], 0.0).reshape(-1, d1, d2)
            try:
                U, s, _ = np.linalg.svd(M, full_matrices=False)
            except np.linalg.LinAlgError:
                U = np.zeros((len(rows), d1, d1), dtype=complex)
                s = np.zeros((len(rows), d1))
                for j, i in enumerate(rows.tolist()):
                    try:
                        U[j], s[j], _ = np.linalg.svd(M[j],
                                                      full_matrices=False)
                    except np.linalg.LinAlgError:
                        self.failed.add(i)
            self.cols[rows] = np.swapaxes(_fix_column_phases(U)[0], 1, 2)
            self.rank[rows] = (s ** 2 > SCHMIDT_WEIGHT_TOL).sum(axis=1)
        # the candidate's projectors: rank of them, and a complement below d1
        self.candidate_size = np.minimum(self.rank + 1, d1)


def _eigenbasis(psi, d1, d2):
    """(gapped, cols) of a stack of states psi (T, d1*d2): the rows _Split
    reads from rho(t) = M M^dag, M the d1 x d2 matrix of psi(t), and a
    (T, d1, d1) array whose gapped rows hold rho's eigenvectors
    u_i = cols[t, i] in descending weight order (the other rows are
    _Split's to fill from its SVD).

    Only d1 = 2 has gapped rows.  There rho = [[a, b], [b*, c]] is
    diagonalised for the whole stack in closed form: with h = (a - c)/2
    and r = |(h, b)|, the weights are (a + c)/2 -+ r, the larger one's
    vector is (h + r, b*) for h >= 0, else (b, r - h), neither of which
    cancels, of squared norm 2 r (r + |h|), and the other vector is its
    orthogonal (-conj y, conj x).  A row is gapped when |tr rho - 1| <=
    NORM_TOL (a stricter guard than _Split's, which NaN fails), its
    smallest weight exceeds SCREEN_WEIGHT_FLOOR (far above
    SCHMIDT_WEIGHT_TOL, so an SVD would find it of full rank) and its
    weight gap 2 r exceeds SCREEN_GAP_FLOOR.  At d1 >= 3 a stacked eigh
    costs about what the SVD it would spare costs, so every row takes the
    SVD."""
    T = len(psi)
    if d1 != 2:
        return np.zeros(T, dtype=bool), np.empty((T, d1, d1), dtype=complex)
    M = psi.reshape(T, 2, d2)
    rho = M @ np.swapaxes(M, 1, 2).conj()
    a, c, b = rho[:, 0, 0].real, rho[:, 1, 1].real, rho[:, 0, 1]
    h = 0.5 * (a - c)
    r = np.sqrt(h * h + np.abs(b) ** 2)
    gapped = ((np.abs(a + c - 1.0) <= NORM_TOL)
              & (0.5 * (a + c) - r > SCREEN_WEIGHT_FLOOR)
              & (2.0 * r > SCREEN_GAP_FLOOR))           # NaN fails each
    up = h >= 0
    norm = np.sqrt(2.0 * r * (r + np.abs(h)))
    norm[~gapped] = 1.0
    x = np.where(up, h + r, b) / norm
    y = np.where(up, b.conj(), r - h) / norm
    cols = np.empty((T, 2, 2), dtype=complex)
    cols[:, 0, 0], cols[:, 0, 1] = x, y
    cols[:, 1, 0], cols[:, 1, 1] = -y.conj(), x.conj()
    return gapped, cols


class _Chunk:
    """The times, scan times or bisection midpoints, that _scan_select
    prepared together for one tree (_prepare_chunk), judged once under
    the scan's criterion (epsilon, delta, delta_mode) and, when probe_dt is
    given, its persistence probe: the split of all of them and the verdict
    on every row, both fixed when the chunk is built.

    index maps each time to its row of the stacked arrays: leaves, the
    (T, d, n) leaf states evolved to t (_prepare_chunk), and psi, the
    (T, d) psi(t), each row the sum of its leaf states, added one column
    at a time in leaves() order.

    Candidates.  split is one _Split of every row: rho's closed-form
    eigenvectors at the gapped rows, and one stacked SVD of the others,
    so a chunk takes at most one SVD, when it is built, and none when every
    row is gapped.  A row that is not admissible has no candidate: the
    chunk's verdict is final, and schmidt_candidate returns None there.  An
    admissible row's candidate is built from its row of split when it is
    read, so every candidate is the lone path's to the bit.

    The verdict, one boolean per row (admissible), which includes
    persistence.  A row's candidate is k = split.candidate_size[t]
    projectors: rank-1 ones u_i u_i^dag, u_i = split.cols[t, i], and the
    complement of the trailing vectors when the rank is below d1.  The
    Gram blocks of the leaves it splits are taken for the whole chunk at
    once in the rank-1 form of the projection kernel, G = _gram(Y),
    Y = _coefficients(cols, leaves), the complement's being the sum of its
    vectors' blocks (_group), and judged by _admissible_rows, with no
    margin, one call per candidate size: admissible is the rows of at
    least two projectors that pass, so never an off-norm or failed row,
    whose rank is 0.  Nearly always every row has one size, d1, where
    _group returns G itself.  numpy takes a stack's products one row at a
    time, so a row's Y and G are the same to the bit in any stack (the
    tests check it on every chunked scan), and the Extension the scan
    builds from an admissible row alone (Extension with vectors) has the
    blocks its verdict read; it is not judged again.

    The stacked probe.  With probe_dt, every row the criterion admits has
    the persistence probe's Gram blocks taken at once (_probe_worst), after
    G is freed: the states U(t + probe_dt) U(t)^dag P_i V_t, evolved by two
    evolution.apply_rows calls, projected again by each P_j.  Such a row
    stays admissible only when their largest off-diagonal |G| is at most
    PERSISTENCE_TOL, so the probe decides it both ways and a NaN probe
    fails it.  An evolution that refuses some t + probe_dt raises its
    ValueError here."""

    def __init__(self, model, times, leaves, parents, criterion,
                 probe_dt=None):
        self.index = {t: i for i, t in enumerate(times)}
        self.leaves, self.psi = leaves, leaves[:, :, 0].copy()
        for a in range(1, leaves.shape[2]):
            self.psi += leaves[:, :, a]
        self.split = _Split(self.psi, model.d1, model.d2)
        Y = _coefficients(self.split.cols, self.leaves)     # (T, d1, m, n)
        size = self.split.candidate_size
        sizes = np.unique(size[size >= 2]).tolist()
        G = _gram(Y)
        self.admissible = np.zeros(len(times), dtype=bool)
        for k in sizes:
            self.admissible |= (size == k) & _admissible_rows(
                _group(G, k), parents, criterion)
        del G
        if probe_dt is None:
            return
        for k in sizes:
            rows = np.flatnonzero(self.admissible & (size == k))
            if rows.size:
                self.admissible[rows] = _probe_worst(
                    model.evolution, [times[r] for r in rows],
                    self.split.cols[rows], Y[rows], k,
                    probe_dt) <= PERSISTENCE_TOL     # a NaN fails


def _admissible_rows(G, parents, criterion):
    """The verdict under criterion (epsilon, delta, delta_mode) on each row
    of a stack (R, k, n, n) of Gram blocks, the k blocks of a candidate
    splitting n leaves of probabilities parents: an (R,) array, True where
    every off-diagonal pair of non-zero root passes the medium test
    |G_ab| <= epsilon sqrt|G_aa G_bb| and every child of a live parent is
    non-trivial at delta, in the arithmetic of consistency.medium_pass and
    nontrivial, so a NaN fails.  _Chunk calls it on its rows.  The pairs
    are taken in slabs of leaf rows of about SCAN_BLOCK entries, so its
    temporaries stay small beside G."""
    epsilon, delta, delta_mode = criterion
    R, k, n, _ = G.shape
    children = G.diagonal(0, 2, 3).real      # (R, k, n)
    live = ~(parents < LIVE_PROBABILITY_TOL)
    kept = children[:, :, live]
    ok = (kept > delta if delta_mode == "absolute"
          else kept >= delta * parents[live]).all(axis=(1, 2))
    step = max(1, SCAN_BLOCK // (R * k * n))
    for a in range(0, n, step):
        b = min(a + step, n)
        root = np.sqrt(np.abs(children[:, :, a:b, None]
                              * children[:, :, None, :]))
        counted = ~(root <= 0)
        counted[:, :, range(b - a), range(a, b)] = False
        ok &= (~counted | (np.abs(G[:, :, a:b]) <= epsilon * root)).all(
            axis=(1, 2, 3))
    return ok


def _probe_worst(evolution, ts, cols, Y, k, probe_dt):
    """The largest off-diagonal |G| of the persistence probe's Gram blocks
    at each of R rows the criterion admits, at times ts, from their Schmidt
    vectors cols (R, d1, d1) and blocks Y (R, d1, m, n) of the leaf states
    V_t (_coefficients, as _Chunk takes them), for candidates of k
    projectors (_Split.candidate_size).

    The probe state of leaf a and projector i is
    U(t + probe_dt) U(t)^dag P_i V_t u_a, P_i V_t = u_i (x) Y[r, i] (_lift)
    or, for a complement, the sum of those over its vectors (_group), in
    the (leaf outer, projector inner) order of extend_all; the probe's
    blocks are the Gram matrices of those nk states projected by each P_j
    (the candidate's own projectors) at t + probe_dt.  Two
    evolution.apply_rows calls evolve every row at once; a ValueError of
    the evolution, which refuses some t + probe_dt, is raised.  A NaN
    block gives a NaN, which _Chunk reads as a failed probe."""
    X = _interleave(_group(_lift(cols, Y), k))         # (R, d, n k)
    X = evolution.apply_rows(X, ts, adjoint=True)
    X = evolution.apply_rows(X, [t + probe_dt for t in ts])
    return _max_off_diagonal(_group(_gram(_coefficients(cols, X)), k))


def schmidt_candidate(model, t, chunk=None):
    """Schmidt projective decomposition of the state of model at time t:
    d1 x d1 system projectors onto the retained Schmidt vectors, plus the
    complement of their span when rank-deficient (see _Split).

    At a time of chunk (a _Chunk) that the chunk did not find admissible,
    under its criterion and, with a probe, its persistence probe, returns
    None: the time has no candidate.  Every candidate is read from a
    _Split: the chunk's (_Chunk.split), or, at a time outside chunk, a
    split of psi(t) alone, a stack of one.  At a gapped d1 = 2 row the
    vectors are rho(t)'s closed-form eigenvectors, and elsewhere the
    SVD's, in either place, so a time's candidate does not depend on the
    stack it was split in; its projectors are built here, for the one row
    read.  Every time a scan evaluates, a bisection midpoint included, is
    a time of its chunk; only retrodictive_select evaluates a time alone.
    Raises ValueError when psi(t) is not normalized, first, and
    LinAlgError when its SVD failed, only outside a chunk (caught by
    retrodictive_select): a failed row has rank 0, so its chunk refuses
    it.  The scan loop (_scan_select) makes exactly one call
    of this per evaluation, a refused row's included, through this
    module's global name: the benchmark's traced check needs
    schmidt_candidate calls to equal the evaluations (RunRecord.steps)."""
    i = None if chunk is None else chunk.index.get(t)
    if i is None:
        split, i = _Split(model.state(t)[None], model.d1, model.d2), 0
        refused = False
    else:
        split, refused = chunk.split, not chunk.admissible[i]
    if not split.normed[i]:
        raise ValueError(f"state is not normalized: |psi| = {split.norms[i]}")
    if refused:
        return None
    if i in split.failed:
        raise np.linalg.LinAlgError("SVD did not converge")
    u = split.cols[i]
    return ProjectiveDecomposition(t, list(_group(
        u[:, :, None] * u[:, None, :].conj(), split.candidate_size[i])),
        check=False)


class Extension:
    """A scored candidate: every leaf of a tree split by one decomposition.

    Holds the split of the leaf states at the decomposition's time and,
    each computed on first read, the k Gram blocks of the extended set
    (histories._gram), its probabilities, the consistency report at
    epsilon and the extended states (the split's columns in leaves()
    order, histories._interleave, at the decomposition's time); the tree
    itself is built by extend(), with those states as its frame, only once
    the candidate is accepted.  evolved, when given, is the leaf states at
    dec.time (a scan chunk's row); else the tree's frame is stepped there.
    The split is _project's blocks P_i V, or, when vectors (d1, d1) are
    given, the Schmidt vectors u_i of dec (schmidt_candidate), the rank-1
    form's blocks u_i^dag V (histories._coefficients), as a scan chunk
    scores a row, whose Gram blocks, and whose lift to P_i V for the
    extended states (histories._lift), are grouped into dec's k projectors
    (histories._group; a projected split has k blocks already)."""

    def __init__(self, tree, dec, epsilon, evolved=None, vectors=None):
        self.tree = tree
        self.decomposition = dec
        self.epsilon = epsilon
        if evolved is None:
            evolved = tree._evolve(tree.frame, dec.time,
                                   since=tree.frame_time)
        self._vectors = vectors
        self._split = (_project(dec.projectors, evolved) if vectors is None
                       else _coefficients(vectors, evolved))

    @functools.cached_property
    def blocks(self):
        return _group(_gram(self._split), len(self.decomposition))

    @functools.cached_property
    def probabilities(self):
        return self.blocks.diagonal(0, 1, 2).real.T.ravel()

    @functools.cached_property
    def report(self):
        return consistency_report(self.blocks, self.epsilon)

    @functools.cached_property
    def states(self):
        """The extended leaves' states P_i U(t) u_a at the decomposition's
        time t, the extended tree's frame."""
        return _interleave(self._split if self._vectors is None
                           else _group(_lift(self._vectors, self._split),
                                       len(self.decomposition)))

    def extend(self):
        return _extend(self.tree, [self.decomposition], None, self.states)

    def event(self):
        return SelectionEvent(self.decomposition.time, self.decomposition,
                              self.probabilities, self.report)


def _chain(model, decompositions, epsilon):
    """Extend a fresh tree of the model by each decomposition in turn, one
    Extension scored at epsilon per step: (final tree, events)."""
    tree = HistoryTree(initial_state=model.psi0, evolution=model.evolution)
    events = []
    for dec in decompositions:
        ext = Extension(tree, dec, epsilon)
        events.append(ext.event())
        tree = ext.extend()
    return tree, events


def _prepare_chunk(model, tree, times, criterion, probe_dt=None):
    """The _Chunk of the leading times of the list times, in its order,
    under criterion (epsilon, delta, delta_mode) and, when probe_dt is
    given, with the stacked persistence probe: SCAN_CHUNK of them, but no
    more than keep the chunk's largest array within SCAN_BLOCK complex
    entries, and at least the first, so only a chunk of one time can
    exceed SCAN_BLOCK.  For T times, d = d1 d2 and n leaves that array is
    the evolved leaf states with their sums psi(t), T d (1 + n) entries,
    or the Gram stack, T d1 n^2, or with the probe its states, T d n d1, or
    its Gram stack, T d1^3 n^2.  When it would exceed LEAF_STATE_CAP even
    at T = 1, the chunk is refused before anything is evolved (ValueError
    naming its entries and the cap): each event can double the leaves, and
    the Gram stacks grow as their square.

    The tree's frame alone is stepped from its frame time t_f to every time
    of the chunk by one evolution.apply_times call (from time 0 on a fresh
    tree, whose frame is psi0), and psi(t) of every time, the sum of its
    evolved leaf states (_Chunk), is split at once (_Split): rho's closed
    form at the gapped d1 = 2 rows and at most one stacked SVD, of the
    others.  That sum is psi(t) only because the frame's columns sum to
    the model's state at t_f, which holds for every tree the scan builds,
    each extended by complete decompositions from a fresh tree: a
    precondition, not checked here.  An evolution that raises ValueError,
    at a time of the chunk or at the probe time t + probe_dt of an
    admissible row, has the chunk halved until it is built, so the chunk
    ends before the times it refuses; when it refuses the first time alone,
    the error is raised here, at that time."""
    (d, n), d1 = tree.frame.shape, model.d1
    largest = max(d * (1 + n), d1 * n * n)
    if probe_dt is not None:
        largest = max(largest, d * n * d1, d1 ** 3 * n * n)
    _check_entries(largest, f"a scan chunk of one time over {n} leaves "
                   f"needs an array of")
    times = times[:max(min(SCAN_CHUNK, SCAN_BLOCK // largest), 1)]
    while True:
        try:
            return _Chunk(model, times, model.evolution.apply_times(
                tree.frame, times, tree.frame_time), tree._probabilities,
                criterion, probe_dt)
        except ValueError:
            if len(times) == 1:
                raise
            del times[(len(times) + 1) // 2:]


def _scan_times(t, advance):
    """The scan times after t, advance(t), advance(advance(t)), ..., to
    the first None, each computed when it is taken."""
    t = advance(t)
    while t is not None:
        yield t
        t = advance(t)


def _bisection_times(lo, hi, refine_tol):
    """The midpoints of the first BISECT_LEVELS levels of the bisection of
    (lo, hi], level by level and in time order within a level: a bracket
    (a, b) wider than refine_tol has the midpoint 0.5 * (a + b) when that
    lies strictly inside, and below it the brackets (a, mid) and (mid, b).
    These are _scan_select's own rules, so each midpoint its bisection
    visits in these levels is one of these floats, whatever the verdicts;
    and they are distinct."""
    times, level = [], [(lo, hi)]
    for _ in range(BISECT_LEVELS):
        below = []
        for a, b in level:
            mid = 0.5 * (a + b)
            if b - a > refine_tol and a < mid < b:
                times.append(mid)
                below += [(a, mid), (mid, b)]
        level = below
    return times


def _scan_select(model, epsilon, delta, delta_mode, advance, refine_tol,
                 full, budget=float("inf"), probe_dt=None):
    """The scan-and-bisect loop of every forward selection and search.

    A time t is accepted when its Schmidt candidate is admissible on the
    current tree at (epsilon, delta, delta_mode) (_admissible_rows) and,
    when probe_dt is given, its Extension persists at t + probe_dt
    (_probe_worst): one verdict, its chunk's.  Evaluates t = 0, then
    advance(t) after each rejected or event time until that is None.  An
    accepted t after the first evaluation is bisected back to the last
    rejected or event time, to refine_tol or adjacent floats, and
    recorded as an event.  Stops when full(tree, events), at the end of
    the scan, or after budget evaluations; returns (SelectedSet,
    termination, evaluations) with termination 'full', 'end' or 'budget',
    in that precedence.  full must be a function of (tree, events) alone:
    it is read once per tree, at the start and after each event.  Raises
    ValueError for a negative or NaN epsilon, a delta outside [0, 1) or an
    unknown delta_mode, before any evaluation.

    Every time is evaluated from a chunk prepared on the current tree
    under the criterion (_prepare_chunk), one chunk at a time, and within
    the memory bound SCAN_BLOCK for any chunk of more than one time.  One
    rule prepares every chunk: when the time to evaluate is not in the
    current chunk.  At a scan time that is the next SCAN_CHUNK scan times,
    taken from advance (_scan_times) one at a time and kept in ahead until
    they are evaluated: advance is called once per scan time on a tree,
    and from the event time after each event.  At a bisection midpoint it
    is the midpoints of the next BISECT_LEVELS levels of the bisection of
    the current bracket (_bisection_times), so the bisection walks its
    path on the chunk's rows and prepares again only when the path leaves
    those levels.  Each time on the scan's or the bisection's path counts
    as one evaluation, which is one schmidt_candidate call on its chunk:
    None, the chunk's one verdict on the row, rejects the time there.
    Any other row is admissible and persists, and is accepted there: the
    scan keeps the Extension built from its row alone, not the chunk, and
    judges it no more; the new tree's frame is all it carries on.
    A midpoint off the path is speculative and is neither evaluated nor
    counted.  Accepting an event drops the chunk with the old tree, so at
    most SCAN_CHUNK - 1 prepared scan times go unevaluated per tree, and a
    bisection chunk, of at most 2^BISECT_LEVELS - 1 midpoints, has one
    evaluated per level the path reaches."""
    if not epsilon >= 0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")
    if not 0 <= delta < 1:
        raise ValueError(f"delta must lie in [0, 1), got {delta}")
    if delta_mode not in ("relative", "absolute"):
        raise ValueError(f"unknown delta_mode {delta_mode!r}")
    criterion = (epsilon, delta, delta_mode)

    def evaluate(tree, t, chunk):
        # None, or for an accepted time its Extension, which holds no view
        # of the chunk.  A row with a candidate is admissible and persists,
        # the chunk's verdict: its Extension is built from the row alone,
        # and not judged again
        dec, i = schmidt_candidate(model, t, chunk), chunk.index[t]
        return None if dec is None else Extension(
            tree, dec, epsilon, chunk.leaves[i], chunk.split.cols[i].copy())

    # ahead holds the scan times after t taken from scan but not yet
    # evaluated
    tree = HistoryTree(model.psi0, model.evolution)
    events = []
    done = full(tree, events)
    t, scan, ahead = 0.0, _scan_times(0.0, advance), []
    chunk, calls, lo = None, 0, None
    while not done and t is not None and calls < budget:
        if chunk is None or t not in chunk.index:
            ahead += itertools.islice(scan, SCAN_CHUNK - 1 - len(ahead))
            chunk = None        # two chunks at once would raise peak memory
            chunk = _prepare_chunk(model, tree, [t, *ahead], criterion,
                                   probe_dt)
        calls += 1
        accepted = evaluate(tree, t, chunk)
        if accepted is None:
            lo = t              # the next bracket starts at a rejected time
            t = ahead.pop(0) if ahead else next(scan, None)
            continue
        if lo is not None:
            while t - lo > refine_tol and calls < budget:
                mid = 0.5 * (lo + t)
                if not lo < mid < t:
                    break
                if mid not in chunk.index:
                    chunk = None
                    chunk = _prepare_chunk(
                        model, tree, _bisection_times(lo, t, refine_tol),
                        criterion, probe_dt)
                calls += 1
                trial = evaluate(tree, mid, chunk)
                if trial is None:
                    lo = mid
                else:
                    t, accepted = mid, trial
        events.append(accepted.event())
        tree, chunk = accepted.extend(), None
        done = full(tree, events)
        scan, ahead = _scan_times(t, advance), []
        lo, t = t, next(scan, None)     # or at an event time
    termination = ("full" if done else "end" if t is None else "budget")
    return SelectedSet(tree, events), termination, calls


def _grid_select(model, epsilon, delta, delta_mode, t_max, grid, refine_tol,
                 max_events, probe_dt=None):
    """_scan_select on linspace(0, t_max, grid + 1), to max_events events.
    Raises ValueError unless t_max is positive and finite, grid positive,
    and refine_tol and max_events non-negative (NaN fails each test), and
    for the criterion _scan_select refuses."""
    if not 0 < t_max < np.inf:
        raise ValueError(f"t_max must be positive and finite, got {t_max}")
    if not grid >= 1:
        raise ValueError(f"grid must be positive, got {grid}")
    if not refine_tol >= 0:
        raise ValueError(
            f"refine_tol must be non-negative, got {refine_tol}")
    if not max_events >= 0:
        raise ValueError(
            f"max_events must be non-negative, got {max_events}")
    ts = np.linspace(0.0, t_max, grid + 1).tolist()

    def advance(t):
        i = bisect.bisect_right(ts, t)
        return ts[i] if i <= grid else None

    return _scan_select(model, epsilon, delta, delta_mode, advance, refine_tol,
                        lambda tree, events: len(events) >= max_events,
                        probe_dt=probe_dt)[0]


def earliest_time_select(model, epsilon, delta, t_max, *, grid=400,
                         refine_tol=1e-6, max_events=16,
                         delta_mode="relative"):
    """Repeatedly project at the earliest admissible time.

    Scans [0, t_max] on a uniform grid; each inadmissible-to-admissible
    flip is refined by bisection to refine_tol and recorded as an event,
    after which the scan continues on the extended tree."""
    return _grid_select(model, epsilon, delta, delta_mode, t_max, grid,
                        refine_tol, max_events)


def quasi_dynamical_select(model, epsilon, delta, t_max, *, grid=400,
                           refine_tol=1e-6, max_events=16,
                           delta_mode="relative", probe_dt=1e-3):
    """Earliest-time selection with a persistence gate: an admissible time
    is accepted only if re-applying the same decomposition at t + probe_dt
    leaves the set exactly consistent, so projections must hold still
    under the dynamics at the moment they are made.  probe_dt must be
    positive and finite."""
    if not 0 < probe_dt < np.inf:
        raise ValueError(
            f"probe_dt must be positive and finite, got {probe_dt}")
    return _grid_select(model, epsilon, delta, delta_mode, t_max, grid,
                        refine_tol, max_events, probe_dt)


def retrodictive_select(model, candidate_times, epsilon=1e-10, *,
                        include_companions=True):
    """Build a set by accepting projection times from the final time
    backwards: a time joins the set when the Schmidt decompositions at all
    accepted times remain medium-consistent at epsilon.

    Returns (selected, companions): companions are the zero-probability
    limit histories obtained by repeating the final projection, one per
    leaf, each a normalized state with the system component flipped on the
    leaf's (product) history state.  Requires d1 = 2 for companions."""
    tree, events = _chain(model, (), epsilon)
    for t in sorted(set(float(t) for t in candidate_times), reverse=True):
        try:
            dec = schmidt_candidate(model, t)
        except np.linalg.LinAlgError:
            continue
        trial = _chain(model, [dec] + [e.decomposition for e in events],
                       epsilon)
        if trial[1][-1].report.medium_pass:
            tree, events = trial
    selected = SelectedSet(tree, events)
    if not include_companions:
        return selected, []
    if model.d1 != 2:
        raise ValueError("companion construction implemented for d1 = 2")
    companions = []
    # the frame holds the leaves' states at the last event time
    for leaf, v in zip(tree.leaves(), tree.frame.T):
        if np.linalg.norm(v) < COMPANION_TOL:
            continue
        M = v.reshape(model.d1, model.d2)
        U, svals, Vh = np.linalg.svd(M, full_matrices=False)
        if svals.size > 1 and not svals[1] <= COMPANION_TOL * svals[0]:
            raise ValueError("history state is not a product at the final time")
        sys_vec, env_vec = U[:, 0], Vh[0, :]
        flipped = np.array([-np.conj(sys_vec[1]), np.conj(sys_vec[0])])
        companions.append((leaf, np.kron(flipped, env_vec), 0.0))
    return selected, companions


# -- information measures ------------------------------------------------

def information(probs, measure="shannon", *, dims=None, total_dim=None,
                n_times=None):
    """Information content of a set from its history probabilities.

    'shannon': -sum p log p (0 log 0 = 0).
    'il': -sum p log(p / dim(a)^2) with dim(a) the product of the ranks of
    the projections along history a (pass `dims`).
    'il_revised': same with dimensions normalized per time step,
    dim^(a) = dim(a) / total_dim^{n_times}; for equal-rank decompositions
    this adds the natural -2 n log(rank/total_dim) offset."""
    p = np.asarray(probs, dtype=float)
    if (not np.all(p >= -NEGATIVE_PROBABILITY_TOL)
            or not abs(p.sum() - 1.0) <= DISTRIBUTION_SUM_TOL):
        raise ValueError("probabilities must be a distribution")
    p = np.clip(p, 0.0, None)
    nz = p > 0
    shannon = float(entropy(p))
    if measure == "shannon":
        return shannon
    if dims is None:
        raise ValueError("dims required for the IL measures")
    dims = np.asarray(dims, dtype=float)
    if measure == "il":
        return float(shannon + 2.0 * (p[nz] * np.log(dims[nz])).sum())
    if measure == "il_revised":
        if total_dim is None or n_times is None:
            raise ValueError("total_dim and n_times required for il_revised")
        dimhat = dims / float(total_dim) ** n_times
        return float(shannon + 2.0 * (p[nz] * np.log(dimhat[nz])).sum())
    raise ValueError(f"unknown measure {measure!r}")


def extension_information_delta(parent_probs, conditional_probs):
    """Information gained by refining each history a into branches with
    conditional distribution q^(a): sum_a p_a H(q^(a))."""
    return sum((p * float(entropy(q))
                for p, q in zip(parent_probs, conditional_probs)), 0.0)


def max_information_select(cfg):
    """Most informative classification-allowed set of the spin chain.

    Candidates: the interior-time sets S_k (projections at 1..k-1, an
    optimized interior time, and k) and the full between-interaction set
    {1..n}.  Returns a dict with per-k values, the chain value, and the
    best candidate; S_n always dominates the chain."""
    per_k = {k: spin_mod.information_of_Sk(cfg, k)
             for k in range(1, cfg.n + 1)}
    chain = float(spin_mod.interior_set_information(
        spin_mod.adjacent_dots(cfg))[1][-1])
    best_k = max(per_k, key=lambda k: per_k[k][0])
    E_k, t_star = per_k[best_k]
    if E_k >= chain:
        best = ("S_k", best_k, E_k,
                tuple(range(1, best_k)) + (t_star, float(best_k)))
    else:
        best = ("chain", None, chain, tuple(float(j) for j in range(1, cfg.n + 1)))
    return {"per_k": per_k, "chain": chain, "best": best}
