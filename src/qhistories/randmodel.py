"""Random bipartite models and forward searches for consistent extensions.

A run draws a GUE Hamiltonian and a random initial product-free state on
C^{d1} (x) C^{d2}, then marches forward in time looking for moments where
the Schmidt projections of the evolved state extend the current history
tree consistently (within epsilon) and non-trivially (within delta).
The march is the grid selections' scan-and-bisect loop, _scan_select.
Everything is deterministic given the master seed.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .consistency import consistency_report
from .histories import HistoryTree, decoherence_matrix
from .linalg import (HamiltonianFlow, RandomStream, entropy, sample_gue,
                     sample_unit_vector)
from .selection import BipartiteModel, _admissible, _scan_select
from .tolerances import INTEGRITY_TOL, TIME_TOL
from . import consistency as consistency_mod


@dataclass
class RunConfig:
    d1: int
    d2: int
    sigma: float
    seed: int
    epsilon: float
    delta: float
    t_max: float
    max_histories: int = 64
    max_steps: int = 20000
    delta_mode: str = "relative"
    refine_tol: float = 1e-8

    def __post_init__(self):
        if self.d1 < 2 or self.d2 < self.d1:
            raise ValueError("need 2 <= d1 <= d2")
        if not 0 < self.t_max < np.inf:
            raise ValueError(
                f"t_max must be positive and finite, got {self.t_max}")
        if not self.sigma >= 0:
            raise ValueError(f"sigma must be non-negative, got {self.sigma}")
        if not self.epsilon >= 0:
            raise ValueError(
                f"epsilon must be non-negative, got {self.epsilon}")
        if not 0 <= self.delta < 1:
            raise ValueError(f"delta must lie in [0, 1), got {self.delta}")
        if self.delta_mode not in ("relative", "absolute"):
            raise ValueError(f"unknown delta_mode {self.delta_mode!r}")
        if not self.refine_tol >= 0:
            raise ValueError(
                f"refine_tol must be non-negative, got {self.refine_tol}")
        if self.max_steps < 0:
            raise ValueError(
                f"max_steps must be non-negative, got {self.max_steps}")


@dataclass
class RunRecord:
    config: RunConfig
    events: list
    termination: str          # 'max_histories' | 'max_steps' | 't_max'
    steps: int
    tree: HistoryTree = None

    @property
    def times(self):
        return [e.time for e in self.events]


def build_run(config):
    """Model for a run: H from the 'hamiltonian' substream, initial state
    from the 'state' substream of the master seed."""
    stream = RandomStream(config.seed)
    dim = config.d1 * config.d2
    if config.sigma > 0:
        H = sample_gue(dim, config.sigma, stream.stream("hamiltonian"))
    else:
        stream.stream("hamiltonian")   # keep the stream layout fixed
        H = np.zeros((dim, dim), dtype=complex)
    psi = sample_unit_vector(dim, "complex", stream.stream("state"))
    flow = HamiltonianFlow(H)
    return BipartiteModel(config.d1, config.d2, psi, flow), H


def run_forward_search(config, model=None):
    """March forward from t=0 in steps of t_max/1000; on an inadmissible to
    admissible flip, bisect back to refine_tol, record the event and resume
    one step after it.  Stops when an event brings the tree to
    max_histories leaves, past t_max, or at max_steps admissibility
    evaluations, bisection included (steps counts them)."""
    if model is None:
        model, _ = build_run(config)
    dt = config.t_max / 1000.0
    accept = functools.partial(_admissible, model, epsilon=config.epsilon,
                               delta=config.delta,
                               delta_mode=config.delta_mode)

    def advance(t):
        t += dt
        return t if t <= config.t_max + TIME_TOL else None

    def full(leaves, events):
        return bool(events) and leaves.states.shape[1] >= config.max_histories

    selected, termination, steps = _scan_select(
        model, accept, 0.0, advance, config.refine_tol, full,
        config.max_steps)
    termination = {"full": "max_histories", "end": "t_max",
                   "budget": "max_steps"}[termination]
    return RunRecord(config, selected.events, termination, steps,
                     selected.tree)


@dataclass
class RunAnalysis:
    n_events: int
    n_histories: int
    report: object            # recomputed consistency report of the final set
    entropy: float
    event_gaps: np.ndarray
    mpv: float
    mpv_exact: bool
    mpv_upper: float          # mpv_upper_bound above the exhaustive cap, else mpv
    integrity: bool           # the recomputed set matches the last event


def analyse_run(record, epsilon=None):
    """Recompute the final set's consistency from scratch and summarize.

    integrity is False unless the last recorded event's medium violation
    and probabilities (sorted) agree within INTEGRITY_TOL with those of the
    recomputed decoherence matrix of the final tree; a NaN disagrees."""
    tree = record.tree
    D = decoherence_matrix(tree)
    eps = epsilon if epsilon is not None else record.config.epsilon
    report = consistency_report(D, eps)
    probs = np.clip(D.diag, 0.0, None)
    total = probs.sum()
    shannon = float(entropy(probs / total)) if total > 0 else 0.0
    times = np.asarray(record.times, dtype=float)
    gaps = np.diff(times) if times.size > 1 else np.zeros(0)
    if D.n <= consistency_mod.MPV_EXHAUSTIVE_CAP:
        mpv, _ = consistency_mod.mpv_exact(D)
        exact = True
        upper = mpv
    else:
        mpv = consistency_mod.mpv_greedy(D)
        exact = False
        upper = consistency_mod.mpv_upper_bound(D)
    integrity = True
    if record.events:
        last = record.events[-1]
        integrity = bool(
            abs(last.report.max_medium_violation
                - report.max_medium_violation) <= INTEGRITY_TOL
            and np.max(np.abs(np.sort(last.probabilities)
                              - np.sort(probs))) <= INTEGRITY_TOL)
    return RunAnalysis(len(record.events), D.n, report, shannon, gaps,
                       float(mpv), exact, float(upper), integrity)


def perturbation_sweep(config, gammas, direction_seed=0):
    """Event times of the same run under initial-state perturbations
    psi -> (psi + gamma xi)/norm for each gamma, with a fixed random
    direction xi; returns a list of (gamma, times, termination)."""
    model, H = build_run(config)
    xi = sample_unit_vector(config.d1 * config.d2, "complex",
                            RandomStream(config.seed).stream(
                                f"perturbation{direction_seed}"))
    out = []
    for gamma in gammas:
        psi = model.psi0 + gamma * xi
        psi = psi / np.linalg.norm(psi)
        pert = BipartiteModel(config.d1, config.d2, psi, model.unitary)
        rec = run_forward_search(config, model=pert)
        out.append((float(gamma), rec.times, rec.termination))
    return out
