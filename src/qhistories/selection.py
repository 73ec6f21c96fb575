"""Set-selection algorithms over bipartite models.

A model exposes an initial state, an evolution and a system/environment
split.  The evolution is matrix-free, apply(states, t, adjoint=False) and
apply_times(states, ts) (histories.as_evolution): the spin models pass a spin.ChainEvolution, the
random models a HamiltonianFlow, and a callable t -> U(t) is wrapped once.
Candidate projective decompositions are the Schmidt (reduced-density
eigenbasis) projections of the evolved state, given at system size d1 and
applied to the leading (system) factor of the states
(histories.apply_leading).
Selection strategies: earliest admissible time, quasi-dynamical
(persistence under immediate re-projection), retrodictive (backward
acceptance from the final time), and maximal information for the
spin-measurement chain.

Every selection builds its set from a fresh tree's leaf states (LeafStates)
by one Extension per event, which scores a candidate without building it.
The projectors applied at one time are mutually orthogonal, so extending
every leaf a of the current set by {P_i(t)} gives the decoherence matrix
D[(a,i),(b,j)] = delta_ij <U(t) u_b| P_i |U(t) u_a>, zero off k blocks: a
candidate is held as the (k, n, n) stack of those Gram blocks of the leaf
states u_a, evolved together by one apply and projected, with no padded
matrix.  Block i is D[i::k, i::k] in the (leaf outer, projector inner)
order of extend_all; the tree is extended only once a candidate is
accepted, and a candidate's full consistency report is built only when it
is read: a rejected one is judged by its medium verdict alone.  The forward
strategies (earliest-time, quasi-dynamical and the random-run search in
randmodel) share one scan-and-bisect loop, _scan_select, and differ only
in scan times, stop rule and budget.

The scan works in chunks of upcoming scan times (_prepare_chunk), held as
one _Chunk on the current leaves: the evolution's apply_times evolves
psi0 and the leaf states to every time of a chunk in one product, and
one stacked SVD gives the Schmidt factors of all the psi(t).  From these
the chunk forms the Schmidt projectors and the k Gram blocks of every time
at once, and its screen rejects the times whose candidate is inadmissible
by more than SCREEN_MARGIN (_Chunk.rejects).  Each time is still evaluated
alone and in order, by one schmidt_candidate call that reads the chunk's
arrays at that time; a time the screen rejects stops there, and every
other one is judged by the per-time path, so verdicts and evaluation
counts are those of that path.  Bisection midpoints, retrodictive
selection and the persistence probe take the per-time path.
"""

import bisect
import functools
from dataclasses import dataclass, field

import numpy as np

from .consistency import (consistency_report, is_exactly_consistent,
                          medium_pass, nontrivial)
from .histories import (HistoryTree, ProjectiveDecomposition, apply_leading,
                        as_evolution, extend_all)
from .linalg import _fix_column_phases, entropy, schmidt_decompose
from .tolerances import (COMPANION_TOL, COMPLEMENT_TOL, DISTRIBUTION_SUM_TOL,
                         LIVE_PROBABILITY_TOL, NEGATIVE_PROBABILITY_TOL,
                         NORM_TOL, PERSISTENCE_TOL, SCHMIDT_WEIGHT_TOL,
                         SCREEN_MARGIN, SCREEN_ROOT_FLOOR)
from . import spin as spin_mod

SCAN_BLOCK = 1 << 12     # complex entries of the states one scan chunk evolves


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


class _Chunk:
    """The scan times that _scan_select prepared together for one set of
    leaves (_prepare_chunk), and what it computed for all of them at once.

    index maps each time to its row of the stacked arrays: psi, the (T, d)
    psi(t); leaves, the (T, d, n) leaf states evolved to t; svd, the
    stacked thin SVD (U, s, Vh) of the psi(t) as d1 x d2 matrices, or None
    when it raised LinAlgError; and parents, the leaves' probabilities.

    A time is screened when there is an SVD, 2 <= d1 <= d2, and psi(t)
    passes schmidt_decompose's norm guard and splits at full Schmidt rank
    with no complement.  Its candidate is then projectors[i], the d1
    rank-1 projectors of the phase-fixed U formed by the products np.outer
    forms, so they are the per-time path's to the bit.  The k Gram blocks
    of the leaves extended by them are taken for the whole chunk at once,
    G_i = Y_i^T conj(Y_i) with Y_i = u_i^dag V, giving the children
    (T, k, n) and the worst counted overlap ratio of each time.  These
    round otherwise than _projected_gram's, so rejects() trusts them only
    beyond SCREEN_MARGIN, and only for pairs with sqrt(G_aa G_bb) of at
    least SCREEN_ROOT_FLOOR.  (The norm guard is taken over the stack; it
    rounds apart from a single norm by far less than NORM_TOL from the 1
    of an evolved state.)"""

    def __init__(self, model, times, evolved, parents):
        T, d1 = len(times), model.d1
        self.index = {t: i for i, t in enumerate(times)}
        self.psi, self.leaves = evolved[:, :, 0], evolved[:, :, 1:]
        self.parents = parents
        self.screened = np.zeros(T, dtype=bool)
        self._rejects = {}
        try:
            self.svd = np.linalg.svd(self.psi.reshape(T, d1, model.d2),
                                     full_matrices=False)
        except np.linalg.LinAlgError:
            self.svd = None
        if self.svd is None or not 2 <= d1 <= model.d2:
            return
        U, s, _ = self.svd
        n = self.leaves.shape[-1]
        cols = np.swapaxes(_fix_column_phases(U)[0], 1, 2)   # u_i = cols[t, i]
        self.projectors = cols[:, :, :, None] * cols[:, :, None, :].conj()
        total = np.zeros((T, d1, d1), dtype=complex)
        for i in range(d1):
            total = total + self.projectors[:, i]
        self.screened = ((np.abs(np.linalg.norm(self.psi, axis=1) - 1.0)
                          <= NORM_TOL)
                         & (s ** 2 > SCHMIDT_WEIGHT_TOL).all(axis=1)
                         & ~(np.abs(np.eye(d1) - total).max(axis=(1, 2))
                             > COMPLEMENT_TOL))
        Y = (cols.conj() @ self.leaves.reshape(T, d1, -1)).reshape(
            T, d1, -1, n)
        G = np.swapaxes(Y, 2, 3) @ Y.conj()         # (T, k, n, n)
        self.children = G.diagonal(0, 2, 3).real    # (T, k, n)
        product = self.children[..., :, None] * self.children[..., None, :]
        ratio = np.abs(G) / np.sqrt(np.where(
            product >= SCREEN_ROOT_FLOOR ** 2, product, np.inf))
        ratio[..., range(n), range(n)] = 0.0
        self.worst = ratio.max(axis=(1, 2, 3))     # largest counted ratio

    def rejects(self, t, epsilon, delta, delta_mode):
        """Whether the chunk's time t is screened and its candidate
        inadmissible beyond doubt at (epsilon, delta, delta_mode): a
        counted pair's overlap ratio exceeds epsilon, or a live child's
        probability falls below delta (times its parent, when relative),
        each by more than SCREEN_MARGIN.  Inputs that the per-time path
        refuses are left to it."""
        i = self.index[t]
        if not self.screened[i]:
            return False
        key = (epsilon, delta, delta_mode)
        if key not in self._rejects:
            out = np.zeros_like(self.screened)
            if epsilon >= 0:
                out = self.worst > epsilon + SCREEN_MARGIN
                if delta_mode in ("relative", "absolute") \
                        and 0.0 <= delta < 1.0:
                    live = ~(self.parents < LIVE_PROBABILITY_TOL)
                    bar = (delta * self.parents[live]
                           if delta_mode == "relative" else delta)
                    out |= (self.children[:, :, live]
                            < bar - SCREEN_MARGIN).any(axis=(1, 2))
            self._rejects[key] = out
        return bool(self._rejects[key][i])


def schmidt_candidate(model, t, chunk=None):
    """Schmidt projective decomposition of the state of model at time t:
    d1 x d1 system projectors onto the retained Schmidt vectors, plus the
    complement of their span when rank-deficient.

    When t is a time of chunk (a _Chunk), psi(t) and its SVD factors are
    read from the chunk as they stand (still checked for norm and
    phase-fixed by schmidt_decompose), and a screened time's projectors
    are returned without either.  _admissible calls this exactly once per
    admissibility evaluation: the benchmark's traced check needs
    schmidt_candidate calls to equal the evaluations (RunRecord.steps)."""
    i = None if chunk is None else chunk.index.get(t)
    if i is None:
        psi, svd = model.state(t), None
    elif chunk.screened[i]:
        return ProjectiveDecomposition(t, chunk.projectors[i], check=False)
    else:
        psi = chunk.psi[i]
        svd = None if chunk.svd is None else [f[i] for f in chunk.svd]
    sd = schmidt_decompose(psi, model.d1, model.d2, svd=svd)
    projs = [sd.system_projector(j) for j, w in enumerate(sd.weights)
             if w > SCHMIDT_WEIGHT_TOL]
    rest = np.eye(model.d1) - sum(projs, np.zeros((model.d1, model.d1),
                                                  dtype=complex))
    if np.max(np.abs(rest)) > COMPLEMENT_TOL:
        projs.append(rest)
    return ProjectiveDecomposition(t, projs, check=False)


class LeafStates:
    """A history tree with the path-projected states u_a of its leaves as
    the columns of one matrix, in leaves() order.  chunk is the _Chunk of
    scan times that _scan_select prepared for these leaves; a new
    LeafStates starts with None."""

    def __init__(self, tree, states=None):
        self.tree = tree
        if states is None:
            states = tree.leaf_states()
        self.states = states
        self.probabilities = np.linalg.norm(states, axis=0) ** 2
        self.chunk = None


def _projected_gram(evolution, states, dec, evolved=None):
    """Gram blocks of the leaves extended by dec, without the tree.

    Projectors at one time are orthogonal, so D[(a,i),(b,j)] is
    delta_ij <U u_b| P_i |U u_a>, zero off its k diagonal blocks.  Returns
    (W, G) with W[:, a*k + i] = P_i U u_a and the (k, n, n) stack G of the
    blocks G[i] = D[i::k, i::k], the Gram matrices of the P_i U u_a.
    evolved, when given, is U states at dec.time, already computed."""
    V = evolution.apply(states, dec.time) if evolved is None else evolved
    n, k = V.shape[1], len(dec)
    W = np.empty((V.shape[0], n * k), dtype=complex)
    G = np.empty((k, n, n), dtype=complex)
    for i, P in enumerate(dec.projectors):
        Wi = apply_leading(P, V)
        W[:, i::k] = Wi
        G[i] = Wi.T @ Wi.conj()     # G_ab = u_b^dag u_a
    return W, G


class Extension:
    """A scored candidate: every leaf of a set split by one decomposition.

    Holds the k Gram blocks of the extended set (see _projected_gram) and
    its probabilities.  The medium verdict at epsilon, the consistency
    report and the extended states are each computed on first read, so a
    rejected candidate pays for its verdict only; the tree itself is built
    by extend() only once the candidate is accepted.  evolved, when given,
    is the leaf states at dec.time (a scan chunk's)."""

    def __init__(self, leaves, dec, epsilon, evolved=None):
        self.leaves = leaves
        self.decomposition = dec
        self.epsilon = epsilon
        self._projected, self.blocks = _projected_gram(
            leaves.tree.evolution, leaves.states, dec, evolved)
        self.probabilities = self.blocks.diagonal(0, 1, 2).real.T.ravel()

    @functools.cached_property
    def medium_pass(self):
        """report.medium_pass, without the rest of the report."""
        return medium_pass(self.blocks, self.epsilon)

    @functools.cached_property
    def report(self):
        return consistency_report(self.blocks, self.epsilon)

    @functools.cached_property
    def states(self):
        """Path-projected states of the extended leaves, U^dag P_i U u_a."""
        return self.leaves.tree.evolution.apply(
            self._projected, self.decomposition.time, adjoint=True)

    def extend(self):
        tree = extend_all(self.leaves.tree, self.decomposition)
        return LeafStates(tree, self.states)

    def event(self):
        return SelectionEvent(self.decomposition.time, self.decomposition,
                              self.probabilities, self.report)


def _admissible(model, leaves, t, epsilon, delta, delta_mode):
    """Try the Schmidt decomposition at t on every leaf of the set; it is
    admissible when the extended set stays medium-consistent at epsilon
    and every leaf of non-negligible probability splits non-trivially at
    delta.

    The extension is scored from the leaf-state matrix alone, as k
    projected Gram blocks (see _projected_gram); the parent probabilities
    are its squared column norms, judged in one nontrivial call as a
    column against the rows of children.  No tree is built here: the
    caller extends the tree with Extension.extend() once per accepted
    event.  A time of leaves.chunk reads psi(t), its SVD factors and the
    evolved leaf states from the chunk, and is rejected at once when the
    chunk's screen rejects it (_Chunk.rejects).
    Returns the Extension, or None when inadmissible."""
    chunk = leaves.chunk
    i = None if chunk is None else chunk.index.get(t)
    try:
        dec = schmidt_candidate(model, t, chunk)
    except np.linalg.LinAlgError:
        return None
    if len(dec) < 2 or (i is not None
                        and chunk.rejects(t, epsilon, delta, delta_mode)):
        return None
    ext = Extension(leaves, dec, epsilon,
                    None if i is None else chunk.leaves[i])
    if not ext.medium_pass:
        return None
    live = ~(leaves.probabilities < LIVE_PROBABILITY_TOL)
    children = ext.probabilities.reshape(-1, len(dec))[live]
    return ext if nontrivial(leaves.probabilities[live, None], children,
                             delta, mode=delta_mode) else None


def _chain(model, decompositions, epsilon):
    """Extend a fresh tree of the model by each decomposition in turn, one
    Extension scored at epsilon per step: (final LeafStates, events)."""
    leaves = LeafStates(HistoryTree(initial_state=model.psi0,
                                    evolution=model.evolution))
    events = []
    for dec in decompositions:
        ext = Extension(leaves, dec, epsilon)
        events.append(ext.event())
        leaves = ext.extend()
    return leaves, events


def _prepare_chunk(model, leaves, t, advance):
    """The _Chunk of the scan times t, advance(t), ...: as many as fit in
    SCAN_BLOCK complex entries of evolved states, and at least t.

    [psi0 | leaf states] is evolved to every time of the chunk by one
    evolution.apply_times call.  An evolution that raises ValueError has
    the chunk halved until it evolves, so the chunk ends before the times
    it refuses; when it refuses t alone, the error is raised here, at t."""
    X = np.column_stack([model.psi0, leaves.states])
    times = [t]
    while len(times) < SCAN_BLOCK // X.size:
        t = advance(t)
        if t is None:
            break
        times.append(t)
    while True:
        try:
            evolved = model.evolution.apply_times(X, times)
        except ValueError:
            if len(times) == 1:
                raise
            del times[(len(times) + 1) // 2:]
        else:
            return _Chunk(model, times, evolved, leaves.probabilities)


def _scan_select(model, accept, start, advance, refine_tol, full,
                 budget=float("inf")):
    """The scan-and-bisect loop of every forward selection and search.

    Evaluates accept(leaves, t) (an Extension or None) at start, then at
    advance(t) after each rejected or event time until that is None.  An
    admissible t after the first evaluation is bisected back to the last
    rejected or event time, to refine_tol or adjacent floats, and recorded
    as an event.  Stops when full(leaves, events), at the end of the scan,
    or after budget accept calls; returns (SelectedSet, termination, calls)
    with termination 'full', 'end' or 'budget', in that precedence.

    Scan times are evaluated in chunks: at a time the current leaves have
    not prepared, the next times are taken from advance (which must be a
    pure function of t) and prepared together (_prepare_chunk).  Each time
    is still evaluated alone and in order, by one accept call; bisection
    midpoints take the per-time path, and accepting an event drops the
    chunk with the old leaves."""
    leaves, events = _chain(model, (), None)
    calls, t, lo = 0, start, None
    while not full(leaves, events) and t is not None and calls < budget:
        calls += 1
        if leaves.chunk is None or t not in leaves.chunk.index:
            leaves.chunk = _prepare_chunk(model, leaves, t, advance)
        ext = accept(leaves, t)
        if ext is not None and lo is not None:
            while t - lo > refine_tol and calls < budget:
                mid = 0.5 * (lo + t)
                if not lo < mid < t:
                    break
                calls += 1
                trial = accept(leaves, mid)
                if trial is None:
                    lo = mid
                else:
                    t, ext = mid, trial
        if ext is not None:
            events.append(ext.event())
            leaves = ext.extend()
        lo = t          # the next bracket starts at a rejected or event time
        t = advance(t)
    termination = ("full" if full(leaves, events)
                   else "end" if t is None else "budget")
    return SelectedSet(leaves.tree, events), termination, calls


def _grid_select(model, accept, t_max, grid, refine_tol, max_events):
    """_scan_select on linspace(0, t_max, grid + 1), to max_events events.
    Raises ValueError unless t_max is positive and finite, grid positive,
    and refine_tol and max_events non-negative (NaN fails each test)."""
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

    return _scan_select(model, accept, 0.0, advance, refine_tol,
                        lambda leaves, events: len(events) >= max_events)[0]


def earliest_time_select(model, epsilon, delta, t_max, *, grid=400,
                         refine_tol=1e-6, max_events=16,
                         delta_mode="relative"):
    """Repeatedly project at the earliest admissible time.

    Scans [0, t_max] on a uniform grid; each inadmissible-to-admissible
    flip is refined by bisection to refine_tol and recorded as an event,
    after which the scan continues on the extended tree."""
    accept = functools.partial(_admissible, model, epsilon=epsilon,
                               delta=delta, delta_mode=delta_mode)
    return _grid_select(model, accept, t_max, grid, refine_tol, max_events)


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

    def accept(leaves, t):
        ext = _admissible(model, leaves, t, epsilon, delta, delta_mode)
        if ext is None:
            return None
        repeat = ProjectiveDecomposition(t + probe_dt,
                                         ext.decomposition.projectors,
                                         check=False)
        _, G = _projected_gram(leaves.tree.evolution, ext.states, repeat)
        if not is_exactly_consistent(G, "medium", tol=PERSISTENCE_TOL):
            return None
        return ext

    return _grid_select(model, accept, t_max, grid, refine_tol, max_events)


def retrodictive_select(model, candidate_times, epsilon=1e-10, *,
                        include_companions=True):
    """Build a set by accepting projection times from the final time
    backwards: a time joins the set when the Schmidt decompositions at all
    accepted times remain medium-consistent at epsilon.

    Returns (selected, companions): companions are the zero-probability
    limit histories obtained by repeating the final projection, one per
    leaf, each a normalized state with the system component flipped on the
    leaf's (product) history state.  Requires d1 = 2 for companions."""
    leaves, events = _chain(model, (), epsilon)
    for t in sorted(set(float(t) for t in candidate_times), reverse=True):
        try:
            dec = schmidt_candidate(model, t)
        except np.linalg.LinAlgError:
            continue
        trial = _chain(model, [dec] + [e.decomposition for e in events],
                       epsilon)
        if trial[1][-1].report.medium_pass:
            leaves, events = trial
    selected = SelectedSet(leaves.tree, events)
    if not include_companions:
        return selected, []
    if model.d1 != 2:
        raise ValueError("companion construction implemented for d1 = 2")
    companions = []
    final = model.evolution.apply(leaves.states, events[-1].time) \
        if events else leaves.states
    for leaf, u, v in zip(leaves.tree.leaves(), leaves.states.T, final.T):
        nrm = np.linalg.norm(u)
        if nrm < COMPANION_TOL:
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
