import itertools
import math

import numpy as np
import pytest

from qhistories import histories, selection, spin
from qhistories.consistency import (consistency_report, is_exactly_consistent,
                                    medium_pass, nontrivial)
from qhistories.histories import (HistoryTree, ProjectiveDecomposition,
                                  apply_leading, decoherence_matrix,
                                  extend_all, extend_branch)
from qhistories.linalg import (HamiltonianFlow, RandomStream, sample_gue,
                               sample_unit_vector)
from qhistories.tolerances import LIVE_PROBABILITY_TOL, ORACLE_RTOL

# The leaf-state engine and the tree path sum the same products in another
# order; on these sizes (at most 81 histories of dimension 24) their
# difference is a few 1e-16 of the largest entry, so 1e-12 of it separates
# rounding from a misplaced or missing term.
GRAM_RTOL = ORACLE_RTOL

# the library's own, as imported: the per-time oracle below calls these, so
# a test that wraps selection.schmidt_candidate or selection.Extension to
# record a scan's evaluations does not record the oracle's
_SCHMIDT_CANDIDATE, _EXTENSION = selection.schmidt_candidate, \
    selection.Extension


def _admissible(model, tree, t, epsilon, delta, delta_mode):
    """The per-time path at t, independent of the scan's chunks: the lone
    Schmidt candidate of psi(t) (schmidt_candidate outside any chunk)
    projected onto the tree's leaves (Extension without vectors, the
    projection kernel's _project blocks) and judged by
    consistency.medium_pass and consistency.nontrivial, on the parents of
    probability at least LIVE_PROBABILITY_TOL.  None when it has fewer
    than two projectors, when either test refuses it, or when its SVD
    failed (LinAlgError); else the Extension."""
    try:
        dec = _SCHMIDT_CANDIDATE(model, t)
    except np.linalg.LinAlgError:
        return None
    ext = _EXTENSION(tree, dec, epsilon)
    parents = tree.probabilities()
    live = parents >= LIVE_PROBABILITY_TOL
    children = ext.blocks.diagonal(0, 1, 2).real.T      # (n, k)
    if (len(dec) < 2 or not medium_pass(ext.blocks, epsilon)
            or not nontrivial(parents[live, None], children[live], delta,
                              delta_mode)):
        return None
    return ext


def _check_scan_select(monkeypatch, module, scans, evaluations=None):
    """Wrap module._scan_select (selection's, or the name randmodel
    imported) so that each scan is checked, and its (selected,
    termination, evaluations) appended to scans.  As the scan runs: full
    is read once per tree, at the start and after each event, on the tree
    the scan then holds, and advance is called at most once per time on
    one tree.  When it returns: the last full read the returned tree, and,
    when evaluations is a list that gets one entry per evaluation, the
    scan counted exactly the entries it added.  Returns the advance
    arguments of each tree, per scan."""
    scan, advanced_by_scan = module._scan_select, []

    def checked(model, epsilon, delta, delta_mode, advance, refine_tol,
                full, *args, **kwargs):
        trees, advanced = [], []
        advanced_by_scan.append(advanced)
        before = None if evaluations is None else len(evaluations)

        def read_full(tree, events):
            assert len(events) == len(trees), "full read twice on a tree"
            assert len(tree.leaves()) == (events[-1].probabilities.size
                                          if events else 1), "a stale tree"
            trees.append(tree)
            advanced.append([])
            return full(tree, events)

        def advance_once(t):
            assert t not in advanced[-1], "advance called twice at a time"
            advanced[-1].append(t)
            return advance(t)

        result = scan(model, epsilon, delta, delta_mode, advance_once,
                      refine_tol, read_full, *args, **kwargs)
        selected, _, calls = result
        assert len(trees) == len(selected.events) + 1
        assert trees[-1] is selected.tree
        if evaluations is not None:
            assert calls == len(evaluations) - before
        scans.append(result)
        return result

    monkeypatch.setattr(module, "_scan_select", checked)
    return advanced_by_scan


def _config(seed, n):
    rng = RandomStream(seed, "sel-test")
    vecs = [sample_unit_vector(3, "real", rng.stream(f"a{i}"))
            for i in range(n + 1)]
    return spin.SpinModelConfig(v=vecs[0], axes=np.array(vecs[1:]))


def _recoherence():
    u = np.array([0.0, 0.0, 1.0])
    return math.sqrt(0.7), math.sqrt(0.3), u


def test_schmidt_candidate_resolves_identity():
    a1, a2, u = _recoherence()
    model = selection.recoherence_model(a1, a2, u)
    dec = selection.schmidt_candidate(model, 0.8)
    total = sum(dec.projectors)
    assert np.max(np.abs(total - np.eye(model.d1))) < 1e-10


def test_earliest_time_recoherence_events_before_revival():
    a1, a2, u = _recoherence()
    model = selection.recoherence_model(a1, a2, u)
    sel = selection.earliest_time_select(model, 1e-6, 0.05, 3 * math.pi / 2)
    assert sel.times                       # something is selected
    assert all(t <= math.pi + 1e-6 for t in sel.times)
    # the first event happens once the smaller Schmidt weight clears delta:
    # weight (1 - N)/2 with N^2 = 1 - 4 a1^2 a2^2 sin^2(theta)
    t0 = sel.times[0]
    N = math.sqrt(1 - 4 * a1 ** 2 * a2 ** 2 * math.sin(t0) ** 2)
    assert (1 - N) / 2 == pytest.approx(0.05, abs=1e-3)


def test_earliest_time_no_event_when_delta_unreachable():
    a1, a2, u = _recoherence()
    model = selection.recoherence_model(a1, a2, u)
    # the smaller Schmidt weight never exceeds a2^2 = 0.3
    sel = selection.earliest_time_select(model, 1e-6, 0.45, 3 * math.pi / 2)
    assert sel.times == []


def test_quasi_dynamical_waits_for_interaction_end():
    cfg = _config(4, 2)
    model = selection.spin_model(cfg)
    quasi = selection.quasi_dynamical_select(model, 1e-6, 0.01, 2.0, grid=100)
    earliest = selection.earliest_time_select(model, 1e-6, 0.01, 2.0, grid=100)
    assert quasi.times
    assert earliest.times
    # the persistence gate postpones the event to the end of the interaction
    assert earliest.times[0] < 0.9
    assert abs(quasi.times[0] - 1.0) < 2e-3


def test_retrodictive_select_spin_chain():
    n = 3
    cfg = _config(5, n)
    model = selection.spin_model(cfg)
    sel, comps = selection.retrodictive_select(model, range(1, n + 1))
    assert sel.times == [1.0, 2.0, 3.0]
    probs = sorted(np.linalg.norm(sel.tree.path_state(l)) ** 2
                   for l in sel.tree.leaves())
    closed = []
    for signs in itertools.product((1, -1), repeat=n):
        chain = (1,) + signs
        p = 2.0 ** -n
        for i in range(n):
            p *= 1 + chain[i] * chain[i + 1] * np.dot(cfg.axis(i),
                                                      cfg.axis(i + 1))
        closed.append(p)
    assert np.allclose(probs, sorted(closed), atol=1e-12)
    # companions: one per history, probability zero, unit norm, orthogonal
    # system factor
    assert len(comps) == 2 ** n
    for leaf, state, p in comps:
        assert p == 0.0
        assert abs(np.linalg.norm(state) - 1.0) < 1e-10


def test_retrodictive_select_rejects_inconsistent_times():
    n = 2
    cfg = _config(6, n)
    model = selection.spin_model(cfg)
    # interior times away from interaction ends cannot all be retained
    sel, _ = selection.retrodictive_select(model, [0.5, 1.5, 2.0],
                                           include_companions=False)
    assert 2.0 in sel.times
    assert 0.5 not in sel.times or 1.5 not in sel.times
    D = decoherence_matrix(sel.tree)
    assert np.max(np.abs(D.entries - np.diag(np.diag(D.entries)))) < 1e-8


def test_information_measures():
    p = [0.5, 0.5]
    assert selection.information(p) == pytest.approx(math.log(2))
    # IL measure rewards dimension: -sum p log(p/dim^2)
    val = selection.information(p, "il", dims=[2, 2])
    assert val == pytest.approx(math.log(2) + 2 * math.log(2))
    # revised measure with per-step normalization
    val = selection.information(p, "il_revised", dims=[2, 2], total_dim=4,
                                n_times=1)
    assert val == pytest.approx(math.log(2) + 2 * math.log(0.5))
    with pytest.raises(ValueError):
        selection.information([0.7, 0.7])
    with pytest.raises(ValueError):
        selection.information(p, "il")
    for nan_probs in ([np.nan, 1.0], [0.0, np.nan]):
        with pytest.raises(ValueError, match="distribution"):
            selection.information(nan_probs)


def test_il_revised_prefers_more_times():
    # m equiprobable half-dimension projections in total dimension d: the
    # unrevised measure grows with m (so minimizing it stops at the trivial
    # set), while the normalized one shrinks as -m log 2 (so minimizing it
    # refines as far as possible)
    d = 16.0

    def measures(m):
        p = [2.0 ** -m] * 2 ** m
        dims = [(d / 2) ** m] * 2 ** m
        il = selection.information(p, "il", dims=dims)
        rev = selection.information(p, "il_revised", dims=dims,
                                    total_dim=d, n_times=m)
        return il, rev

    ils, revs = zip(*(measures(m) for m in range(4)))
    assert all(b > a for a, b in zip(ils, ils[1:]))
    assert all(b < a for a, b in zip(revs, revs[1:]))
    for m in range(4):
        assert revs[m] == pytest.approx(-m * math.log(2), abs=1e-12)


def test_extension_information_delta():
    parent = [0.6, 0.4]
    q = [[0.5, 0.5], [1.0, 0.0]]
    want = 0.6 * math.log(2)
    assert selection.extension_information_delta(parent, q) \
        == pytest.approx(want)
    # additivity: refining a set adds exactly this much entropy
    joint = [0.3, 0.3, 0.4, 0.0]
    base = selection.information([0.6, 0.4])
    assert selection.information(joint) \
        == pytest.approx(base + want)


def test_max_information_select():
    cfg = _config(9, 3)
    res = selection.max_information_select(cfg)
    assert set(res["per_k"]) == {1, 2, 3}
    label, k, E, times = res["best"]
    per_E = {kk: v[0] for kk, v in res["per_k"].items()}
    assert E == pytest.approx(max(max(per_E.values()), res["chain"]))
    # the last-interaction set dominates the full chain
    assert per_E[3] >= res["chain"] - 1e-12
    if label == "S_k":
        assert times[-1] == float(k)


def test_max_information_exhaustive_small():
    # n = 2: compare against a brute scan over classification-allowed sets
    cfg = _config(12, 2)
    res = selection.max_information_select(cfg)
    best_closed = res["best"][2]
    best_scan = 0.0
    for form, times in spin.enumerate_consistent_sets(
            cfg, interior_points=np.linspace(0.05, 0.95, 19)):
        if not times:
            continue
        D = decoherence_matrix(
            spin.build_tree(cfg, spin.measurement_events(cfg, times)))
        p = np.clip(D.diag, 0.0, None)
        nz = p[p > 1e-300]
        best_scan = max(best_scan, float(-(nz * np.log(nz)).sum()))
    assert best_closed >= best_scan - 1e-6
    # the scan grid is coarse; the closed form can only beat it slightly
    assert best_closed == pytest.approx(best_scan, abs=5e-3)


# -- leaf-state engine against the tree path -----------------------------

def _gue_model(d1, d2, seed, psi=None):
    rng = RandomStream(seed, "engine-oracle")
    flow = HamiltonianFlow(sample_gue(d1 * d2, 1.0, rng.stream("H")))
    if psi is None:
        psi = sample_unit_vector(d1 * d2, "complex", rng.stream("psi"))
    return selection.BipartiteModel(d1, d2, psi, flow.unitary)


def _tree_path_admissible(model, tree, t, epsilon, delta):
    """The admissibility test by rebuilding: extend every leaf of the tree,
    form the decoherence matrix from path states, gate on medium
    consistency and relative non-triviality of every non-null leaf."""
    dec = selection.schmidt_candidate(model, t)
    if len(dec) < 2:
        return False
    D = decoherence_matrix(extend_all(tree, dec))
    if not consistency_report(D, epsilon).medium_pass:
        return False
    k = len(dec)
    for b, leaf in enumerate(tree.leaves()):
        parent = float(np.linalg.norm(tree.path_state(leaf)) ** 2)
        if parent >= 1e-14 and not nontrivial(parent,
                                              D.diag[b * k:(b + 1) * k],
                                              delta):
            return False
    return True


def _check_engine(model, tree, times, epsilons=(0.05, 0.5), delta=0.02):
    """Engine blocks equal the strided blocks D[i::k, i::k] of the rebuilt
    tree's matrix, which is zero off them up to rounding, at every time;
    the verdicts agree for every epsilon.  Returns the verdicts."""
    verdicts = []
    for t in times:
        dec = selection.schmidt_candidate(model, t)
        want = decoherence_matrix(extend_all(tree, dec)).entries
        got = selection.Extension(tree, dec, epsilons[0]).blocks
        k, n, _ = got.shape
        assert want.shape == (n * k, n * k)
        scale = np.max(np.abs(want))
        outside = np.ones(want.shape, dtype=bool)
        for i in range(k):
            assert np.max(np.abs(got[i] - want[i::k, i::k])) \
                <= GRAM_RTOL * scale
            outside[i::k, i::k] = False
        assert np.max(np.abs(want[outside]), initial=0.0) <= GRAM_RTOL * scale
        for eps in epsilons:
            ok = _admissible(model, tree, t, eps, delta,
                             "relative") is not None
            assert ok == _tree_path_admissible(model, tree, t, eps, delta)
            verdicts.append(ok)
    return verdicts


def test_engine_matches_tree_path_on_gue_models():
    verdicts = []
    for d1, d2 in itertools.product((2, 3), (3, 8)):
        model = _gue_model(d1, d2, 10 * d1 + d2)
        tree = HistoryTree(initial_state=model.psi0, evolution=model.unitary)
        for depth in range(4):
            if depth:
                tree = extend_all(tree, selection.schmidt_candidate(
                    model, 0.3 * depth))
            verdicts += _check_engine(model, tree, [1.05, 1.4, 2.0])
    assert set(verdicts) == {True, False}


def test_engine_matches_tree_path_on_branch_dependent_tree():
    model = _gue_model(2, 8, 5)
    tree = HistoryTree(initial_state=model.psi0, evolution=model.unitary)
    tree = extend_all(tree, selection.schmidt_candidate(model, 0.2))
    tree = extend_branch(tree, (0,), selection.schmidt_candidate(model, 0.5))
    tree = extend_branch(tree, (0, 1), selection.schmidt_candidate(model, 0.7))
    assert tree.leaves() == [(0, 0), (0, 1, 0), (0, 1, 1), (1,)]
    _check_engine(model, tree, [0.9, 1.3, 1.8])


@pytest.mark.parametrize("d2", [3, 8])
def test_engine_matches_tree_path_with_complement_projector(d2):
    # the state at t_star has Schmidt rank 2 of d1 = 3, so the candidate
    # there carries the complement of the Schmidt span as a third projector
    d1, t_star = 3, 1.2
    rng = np.random.default_rng(d2)
    a, _ = np.linalg.qr(rng.normal(size=(d1, 2))
                        + 1j * rng.normal(size=(d1, 2)))
    b, _ = np.linalg.qr(rng.normal(size=(d2, 2))
                        + 1j * rng.normal(size=(d2, 2)))
    psi_t = (np.sqrt(0.6) * np.kron(a[:, 0], b[:, 0])
             + np.sqrt(0.4) * np.kron(a[:, 1], b[:, 1]))
    U_star = _gue_model(d1, d2, 7).unitary(t_star)
    model = _gue_model(d1, d2, 7, psi=U_star.conj().T @ psi_t)
    assert len(selection.schmidt_candidate(model, t_star)) == 3
    tree = HistoryTree(initial_state=model.psi0, evolution=model.unitary)
    for t_prior in (None, 0.4, 0.8):
        if t_prior is not None:
            tree = extend_all(tree, selection.schmidt_candidate(model,
                                                                t_prior))
        _check_engine(model, tree, [t_star])


def test_engine_matches_tree_path_with_null_branch():
    # U(0) is exactly the identity, so projecting the product state
    # e_0 (x) f onto e_1 at t = 0 leaves a branch of exactly zero
    d1, d2 = 2, 3
    flow = HamiltonianFlow(sample_gue(d1 * d2, 1.0,
                                      RandomStream(3, "engine-null")))
    f = np.array([0.6, 0.8j, 0.0])
    model = selection.BipartiteModel(
        d1, d2, np.kron([1.0, 0.0], f),
        lambda t: np.eye(d1 * d2, dtype=complex) if t == 0
        else flow.unitary(t))
    lift = [np.kron(np.diag(p), np.eye(d2))
            for p in ([1.0, 0.0], [0.0, 1.0])]
    tree = extend_all(
        HistoryTree(initial_state=model.psi0, evolution=model.unitary),
        ProjectiveDecomposition(0.0, lift))
    assert not np.any(tree.leaf_states()[:, 1])
    _check_engine(model, tree, [0.3, 0.9, 1.6])


def test_admissible_judges_the_live_leaves_like_a_loop():
    # a leaf of probability zero and one below the 1e-14 floor are skipped
    # by the one non-triviality verdict, as by a per-leaf loop; judging
    # them too would refuse some of these candidates
    model = _gue_model(2, 3, 11)
    tree = extend_all(HistoryTree(initial_state=model.psi0,
                                  evolution=model.evolution),
                      selection.schmidt_candidate(model, 0.4))
    second = selection.schmidt_candidate(model, 0.9)
    states = extend_all(tree, second).leaf_states().copy()
    states[:, 1] = 0.0
    states[:, 2] *= 1e-8
    # a tree that carries these states, by the path Extension.extend takes
    tree = histories._extend(tree, [second], None, states)
    verdicts, skipped = set(), set()
    for t, eps, delta, mode in itertools.product(
            np.linspace(1.0, 3.0, 9), (0.7, 1.0), (0.001, 0.02, 0.2),
            ("relative", "absolute")):
        got = _admissible(model, tree, t, eps, delta, mode)
        dec = selection.schmidt_candidate(model, t)
        ext = selection.Extension(tree, dec, eps)
        k = len(dec)
        parents = np.linalg.norm(tree.leaf_states(), axis=0) ** 2
        judged = [nontrivial(p, ext.probabilities[a * k:(a + 1) * k], delta,
                             mode=mode)
                  for a, p in enumerate(parents) if p >= 1e-14]
        want = k >= 2 and ext.report.medium_pass and all(judged)
        assert (got is not None) == want
        verdicts.add(want)
        skipped.add(want and not nontrivial(
            parents[:, None],
            ext.probabilities.reshape(-1, k), delta, mode=mode))
    assert verdicts == {True, False} and True in skipped


# -- pinned seeds ----------------------------------------------------------
# Event times recorded with the tree-rebuilding scorer; the leaf-state
# engine must reproduce them bit for bit.

def test_pinned_recoherence_events():
    # the call `qhist spin recoherence` makes, with its default eps and delta
    a1, a2, u = _recoherence()
    model = selection.recoherence_model(a1, a2, u)
    sel = selection.earliest_time_select(model, 1e-6, 0.05, 3 * math.pi / 2)
    assert sel.times == [0.49564069742175976, 1.5707960871103983]


@pytest.mark.parametrize("seed,times", [(3, [1.999881591796875]),
                                        (4, [0.999970703125])])
def test_pinned_quasi_dynamical_events(seed, times):
    model = selection.spin_model(_config(seed, 2))
    sel = selection.quasi_dynamical_select(model, 0.05, 0.02, 2.0, grid=100)
    assert sel.times == times


def test_model_with_a_wrong_size_unitary_names_both_sizes():
    d1, d2 = 2, 2
    psi = sample_unit_vector(d1 * d2, "complex", RandomStream(9, "wrong-U"))
    model = selection.BipartiteModel(d1, d2, psi,
                                     lambda t: np.eye(3, dtype=complex))
    with pytest.raises(ValueError,
                       match="operator size 3 does not divide state size 4"):
        selection.schmidt_candidate(model, 0.5)


def test_spin_models_score_as_their_dense_unitaries():
    # the matrix-free chain models against the same models given as
    # callables t -> U(t) built from kron products
    cfg = _config(6, 3)
    a1, a2, u = _recoherence()
    pairs = [(selection.spin_model(cfg),
              lambda t: spin.full_unitary(cfg, t), (0.4, 1.0, 2.3)),
             (selection.recoherence_model(a1, a2, u),
              lambda t: spin.recoherence_unitary(u, t), (0.3, 1.2, 2.0))]
    for model, unitary, times in pairs:
        dense = selection.BipartiteModel(model.d1, model.d2, model.psi0,
                                         unitary)
        tree = HistoryTree(initial_state=model.psi0,
                           evolution=model.evolution)
        dense_tree = HistoryTree(initial_state=model.psi0,
                                 evolution=dense.evolution)
        for t in times:
            dec = selection.schmidt_candidate(model, t)
            ext = selection.Extension(tree, dec, 0.05)
            want = selection.Extension(dense_tree, dec, 0.05)
            scale = np.max(np.abs(want.blocks))
            assert np.max(np.abs(ext.blocks - want.blocks)) <= GRAM_RTOL * scale
            assert np.max(np.abs(ext.states - want.states)) \
                <= GRAM_RTOL * np.max(np.abs(want.states))
            tree, dense_tree = ext.extend(), want.extend()


# -- the shared scan loop against the loops it replaced ---------------------

def _grid_scan_loop(model, accept, t_max, grid, refine_tol, max_events):
    """Reference: the grid selections' own scan-and-bisect loop."""
    tree = HistoryTree(initial_state=model.psi0, evolution=model.evolution)
    events = []
    ts = np.linspace(0.0, t_max, grid + 1)
    i = 0
    while i <= grid and len(events) < max_events:
        t = float(ts[i])
        ext = accept(tree, t)
        if ext is None:
            i += 1
            continue
        lo = float(ts[i - 1]) if i > 0 else 0.0
        lo = max(lo, events[-1].time if events else lo)
        hi = t
        while hi - lo > refine_tol:
            mid = 0.5 * (lo + hi)
            trial = accept(tree, mid)
            if trial is None:
                lo = mid
            else:
                hi, ext = mid, trial
        events.append(ext.event())
        tree = ext.extend()
        while i <= grid and ts[i] <= hi:
            i += 1
    return [e.time for e in events], len(tree.leaves())


def _earliest_accept(model, epsilon, delta):
    return lambda tree, t: _admissible(model, tree, t, epsilon, delta,
                                       "relative")


def _persisting(tree, ext, probe_dt, tol=1e-9):
    """The per-time persistence probe: ext's projectors re-applied at its
    time + probe_dt to its extended leaves, stepped on from its time,
    leave the set exactly medium-consistent within tol: each projector
    applied alone and each Gram block taken alone, independent of the
    projection kernel."""
    dec = ext.decomposition
    V = tree._evolve(ext.states, dec.time + probe_dt, since=dec.time)
    D = np.array([B.T @ B.conj() for B in
                  (apply_leading(P, V) for P in dec.projectors)])
    return is_exactly_consistent(D, "medium", tol=tol)


def _quasi_accept(model, epsilon, delta, probe_dt=1e-3, tol=1e-9):
    def accept(tree, t):
        ext = _admissible(model, tree, t, epsilon, delta, "relative")
        if ext is None or not _persisting(tree, ext, probe_dt, tol):
            return None
        return ext
    return accept


def _grid_models():
    a1, a2, u = _recoherence()
    yield selection.recoherence_model(a1, a2, u), 3 * math.pi / 2, 400
    for seed, n in ((3, 1), (4, 2), (5, 2)):
        yield selection.spin_model(_config(seed, n)), 2.0 * n, 100


def test_grid_selections_match_their_own_loop():
    sizes = set()
    for model, t_max, grid in _grid_models():
        for select, make_accept, eps, delta in (
                (selection.earliest_time_select, _earliest_accept, 1e-6, 0.01),
                (selection.quasi_dynamical_select, _quasi_accept, 0.05, 0.02)):
            for max_events in (16, 1, 0):
                sel = select(model, eps, delta, t_max, grid=grid,
                             max_events=max_events)
                want = _grid_scan_loop(model, make_accept(model, eps, delta),
                                       t_max, grid, 1e-6, max_events)
                assert (sel.times, len(sel.tree.leaves())) == want
                sizes.add(len(sel.times))
    assert {0, 1} < sizes and max(sizes) > 1


def _one_level_model():
    """A 1 x 8 model: every Schmidt candidate is one projector."""
    rng = RandomStream(9, "one-level")
    return selection.BipartiteModel(
        1, 8, sample_unit_vector(8, "complex", rng.stream("psi")),
        HamiltonianFlow(sample_gue(8, 1.0, rng.stream("H"))))


@pytest.mark.parametrize("select,argument,value", [
    (select, argument, value)
    for select in (selection.earliest_time_select,
                   selection.quasi_dynamical_select)
    for argument, value in (("t_max", -1.0), ("t_max", 0.0),
                            ("t_max", math.inf), ("t_max", math.nan),
                            ("grid", 0), ("grid", -1),
                            ("refine_tol", -1e-6), ("refine_tol", math.nan),
                            ("max_events", -1), ("max_events", math.nan),
                            ("epsilon", -1.0), ("epsilon", math.nan),
                            ("delta", 5.0), ("delta", -0.1),
                            ("delta", 1.0), ("delta", math.nan),
                            ("delta_mode", "bogus"))
] + [(selection.quasi_dynamical_select, "probe_dt", value)
     for value in (0.0, -1e-3, math.inf, math.nan)])
def test_grid_selections_refuse_invalid_arguments(select, argument, value):
    # each was silently accepted: an empty set for t_max = -1, grid = 0 or
    # -1, or max_events = -1, unrefined grid times for refine_tol = nan, no
    # persistence gate for probe_dt = 0, a probe of the past for a negative
    # probe_dt, and no events for probe_dt = nan.  At d1 = 1 every
    # candidate is one projector, so neither the consistency nor the
    # non-triviality check ever ran, and an out-of-range criterion gave no
    # events without an error
    for model in (selection.spin_model(_config(4, 2)), _one_level_model()):
        kwargs = {"epsilon": 0.05, "delta": 0.02, "t_max": 2.0,
                  argument: value}
        with pytest.raises(ValueError, match=argument):
            select(model, **kwargs)


def test_zero_refine_tol_returns(monkeypatch):
    # at refine_tol = 0 (or below the float spacing) the bracket never gets
    # narrow enough; bisection must stop at adjacent floats, well within a
    # bounded number of candidates
    calls = []
    candidate = selection.schmidt_candidate

    def bounded(model, t, chunk=None):
        calls.append(t)
        if len(calls) > 5000:
            raise RuntimeError("bisection does not terminate")
        return candidate(model, t, chunk)

    monkeypatch.setattr(selection, "schmidt_candidate", bounded)
    a1, a2, u = _recoherence()
    model = selection.recoherence_model(a1, a2, u)
    for tol in (0.0, 1e-17):
        calls.clear()
        sel = selection.earliest_time_select(model, 1e-6, 0.05,
                                             3 * math.pi / 2, refine_tol=tol)
        assert len(sel.times) == 2
        for t, pinned in zip(sel.times, [0.49564069742175976,
                                         1.5707960871103983]):
            assert abs(t - pinned) < 1e-6


def _retrodictive_by_rebuild(model, candidate_times, epsilon):
    """Reference: score every trial by rebuilding its tree and decoherence
    matrix; returns the accepted times and each event's probabilities."""
    times = sorted(set(float(t) for t in candidate_times))
    candidates, accepted = {}, []
    for t in reversed(times):
        candidates[t] = selection.schmidt_candidate(model, t)
        trial = sorted(accepted + [t])
        tree = HistoryTree(initial_state=model.psi0, evolution=model.evolution)
        for s in trial:
            tree = extend_all(tree, candidates[s])
        if consistency_report(decoherence_matrix(tree), epsilon).medium_pass:
            accepted = trial
    tree = HistoryTree(initial_state=model.psi0, evolution=model.evolution)
    probabilities = []
    for s in accepted:
        tree = extend_all(tree, candidates[s])
        probabilities.append(decoherence_matrix(tree).diag)
    return accepted, probabilities


def test_retrodictive_select_matches_tree_rebuild():
    accepted_sizes = set()
    for seed, n in ((5, 3), (6, 2), (7, 2)):
        model = selection.spin_model(_config(seed, n))
        for times, eps in ((range(1, n + 1), 1e-10),
                           ([0.5, 1.5, 2.0], 1e-10),
                           (np.linspace(0.1, n, 7), 1e-6)):
            sel, _ = selection.retrodictive_select(model, times, eps,
                                                   include_companions=False)
            want_times, want_probs = _retrodictive_by_rebuild(model, times,
                                                              eps)
            assert sel.times == want_times
            for event, want in zip(sel.events, want_probs):
                assert np.max(np.abs(event.probabilities - want)) \
                    <= GRAM_RTOL * np.max(np.abs(want))
            accepted_sizes.add(len(want_times))
    assert len(accepted_sizes) > 1


def test_a_model_whose_evolution_turns_nan_fails_loudly():
    # a NaN state is bad input, not a rejected candidate time
    flow = HamiltonianFlow(sample_gue(4, 1.0, RandomStream(2, "nan-model")))
    nan = np.full((4, 4), np.nan, dtype=complex)
    model = selection.BipartiteModel(
        2, 2, sample_unit_vector(4, "complex", RandomStream(2, "nan-psi")),
        lambda t: flow.unitary(t) if t <= 0.5 else nan)
    with pytest.raises(ValueError, match="not normalized"):
        selection.earliest_time_select(model, 0.05, 0.02, 1.0, grid=40)
