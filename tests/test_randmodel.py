import numpy as np
import pytest

from qhistories import histories, randmodel, selection
from qhistories.histories import HistoryTree, decoherence_matrix, extend_all
from test_selection import _admissible, _check_scan_select


def _config(**kw):
    base = dict(d1=2, d2=4, sigma=1.0, seed=1, epsilon=0.05, delta=0.02,
                t_max=2.0, max_histories=8)
    base.update(kw)
    return randmodel.RunConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        _config(d1=1)
    with pytest.raises(ValueError):
        _config(d2=1)
    with pytest.raises(ValueError):
        _config(t_max=0.0)


def test_config_refuses_bad_search_parameters():
    for bad in (dict(t_max=float("nan")), dict(t_max=float("inf")),
                dict(sigma=-1.0), dict(sigma=float("nan")),
                dict(sigma=float("inf")),
                dict(epsilon=-0.1), dict(epsilon=float("nan")),
                dict(delta=-0.01), dict(delta=1.0), dict(delta=1.5),
                dict(delta_mode="bogus"), dict(refine_tol=-1e-8),
                dict(max_steps=-1), dict(max_steps=float("nan")),
                dict(max_histories=-1), dict(max_histories=float("nan"))):
        key = next(iter(bad))
        with pytest.raises(ValueError, match=key):
            _config(**bad)
    _config(sigma=0.0, epsilon=0.0, delta=0.0, delta_mode="absolute",
            refine_tol=0.0, max_steps=0, max_histories=0)


def test_build_run_deterministic():
    m1, H1 = randmodel.build_run(_config())
    m2, H2 = randmodel.build_run(_config())
    assert np.array_equal(H1, H2)
    assert np.array_equal(m1.psi0, m2.psi0)
    m3, H3 = randmodel.build_run(_config(seed=2))
    assert not np.allclose(H1, H3)


def test_forward_search_deterministic_and_consistent():
    rec1 = randmodel.run_forward_search(_config())
    rec2 = randmodel.run_forward_search(_config())
    assert rec1.times == rec2.times
    assert rec1.termination == rec2.termination
    assert rec1.termination in ("t_max", "max_steps", "max_histories")
    for ev in rec1.events:
        assert ev.report.medium_pass
    # recorded events really are events of the final tree
    D = decoherence_matrix(rec1.tree)
    assert abs(D.diag.sum() - 1.0) < 1e-8


def test_sigma_zero_with_high_delta_gives_no_events():
    # frozen dynamics: the only candidate split is the initial Schmidt
    # decomposition; a delta above its smaller weight blocks it forever
    rec = randmodel.run_forward_search(_config(sigma=0.0, delta=0.9))
    assert rec.times == []
    assert rec.termination == "t_max"


def test_unreachable_epsilon_blocks_later_events():
    # after one event, extensions of a generic run are never consistent at
    # an epsilon this small, so at most the initial split is recorded
    rec = randmodel.run_forward_search(_config(epsilon=1e-14, delta=1e-6))
    assert len(rec.events) <= 1


def test_max_histories_termination():
    rec = randmodel.run_forward_search(
        _config(delta=1e-4, epsilon=0.5, max_histories=4))
    if rec.termination == "max_histories":
        assert len(rec.tree.leaves()) >= 4


def test_analysis_integrity():
    rec = randmodel.run_forward_search(_config())
    an = randmodel.analyse_run(rec)
    assert an.integrity
    assert an.n_events == len(rec.events)
    assert an.n_histories == len(rec.tree.leaves())
    assert an.entropy >= 0.0
    assert an.mpv >= 0.0
    assert np.all(an.event_gaps >= 0.0)


def test_analysis_detects_tampering():
    rec = randmodel.run_forward_search(_config())
    if not rec.events:
        pytest.skip("run produced no events")
    rec.events[-1].probabilities = rec.events[-1].probabilities + 0.5
    an = randmodel.analyse_run(rec)
    assert not an.integrity


def test_analysis_integrity_rebuilds_the_set_it_checks():
    # a record whose tree carries corrupted states, with its last event
    # scored on them, agrees with itself: integrity must rebuild the final
    # set from the events, not read the states the record carries
    config = _config()
    rec = randmodel.run_forward_search(config)
    assert len(rec.events) >= 2 and randmodel.analyse_run(rec).integrity
    model, _ = randmodel.build_run(config)
    *head, last = rec.events
    parent, _ = selection._chain(
        model, [e.decomposition for e in head[:-1]], config.epsilon)
    states = extend_all(parent, head[-1].decomposition).leaf_states()
    corrupted = states * (1.0 + 1e-3 * np.arange(states.shape[1]))
    tree = histories._extend(parent, [head[-1].decomposition], None,
                              corrupted)
    ext = selection.Extension(tree, last.decomposition, config.epsilon)
    bad = randmodel.RunRecord(config, head + [ext.event()], rec.termination,
                              rec.steps, ext.extend())
    D = decoherence_matrix(bad.tree)
    assert np.max(np.abs(np.sort(D.diag)
                         - np.sort(bad.events[-1].probabilities))) <= 1e-12
    assert randmodel.analyse_run(bad).integrity is False


def test_perturbation_sweep_continuity():
    cfg = _config(t_max=1.0)
    out = randmodel.perturbation_sweep(cfg, [0.0, 1e-8])
    assert len(out) == 2
    (g0, t0, _), (g1, t1, _) = out
    assert g0 == 0.0
    assert len(t0) == len(t1)
    if t0:
        assert max(abs(a - b) for a, b in zip(t0, t1)) < 1e-3


# Searches recorded with the tree-rebuilding scorer, as (d2, seed, steps,
# bisected events, termination, event times).  That scorer evaluated the
# refined time once more after each bisection, so the leaf-state engine
# takes one step less per bisected event and must find the same times.
PINNED_SEARCHES = [
    (16, 12, 1020, 1, "t_max", [0.0, 0.3177888565063479]),
    (16, 16, 1020, 1, "t_max", [0.0, 0.09034523773193365]),
    (4, 5, 1020, 1, "t_max", [0.0, 1.2188367462158212]),
]


@pytest.mark.parametrize("d2,seed,steps,bisected,termination,times",
                         PINNED_SEARCHES)
def test_pinned_forward_searches(d2, seed, steps, bisected, termination,
                                 times):
    rec = randmodel.run_forward_search(_config(d2=d2, seed=seed,
                                               max_histories=64))
    assert rec.times == times
    assert rec.termination == termination
    assert rec.steps == steps - bisected


def test_step_cap_holds_mid_bisection():
    # seed 12 starts bisecting its second event at step 160; the cap stops
    # the refinement and the event is recorded at the bracket reached
    rec = randmodel.run_forward_search(_config(d2=16, seed=12,
                                               max_histories=64,
                                               max_steps=170))
    assert rec.steps == 170
    assert rec.termination == "max_steps"
    assert len(rec.events) == 2
    assert abs(rec.times[1] - 0.3177888565063479) < 2e-6


def test_zero_refine_tol_stops_at_adjacent_floats():
    # at refine_tol = 0 the bracket can never become narrow enough, so the
    # bisection must stop once the midpoint is no longer strictly inside
    rec = randmodel.run_forward_search(_config(d2=16, seed=12,
                                               max_histories=64,
                                               refine_tol=0.0))
    assert rec.termination == "t_max"
    assert len(rec.times) == 2
    assert abs(rec.times[1] - 0.3177888565063479) < 1e-8


# -- the shared scan loop against the search loop it replaced -------------

def _forward_search_loop(config):
    """Reference: the forward search as its own scan-and-bisect loop, on
    the per-time path; returns (event times, steps, termination, the
    times evaluated in order)."""
    model, _ = randmodel.build_run(config)
    tree = HistoryTree(initial_state=model.psi0, evolution=model.evolution)
    events, visited = [], []
    dt = config.t_max / 1000.0
    t = 0.0
    steps = 0
    termination = "t_max"

    def admissible(s):
        nonlocal steps
        steps += 1
        visited.append(s)
        return _admissible(model, tree, s, None, config.epsilon,
                           config.delta, config.delta_mode)

    prev_t = None
    while t <= config.t_max + 1e-12:
        if steps >= config.max_steps:
            termination = "max_steps"
            break
        ext = admissible(t)
        if ext is not None and prev_t is not None:
            lo, hi = prev_t, t
            while hi - lo > config.refine_tol and steps < config.max_steps:
                mid = 0.5 * (lo + hi)
                trial = admissible(mid)
                if trial is None:
                    lo = mid
                else:
                    hi, ext = mid, trial
            t = hi
        prev_t = t
        if ext is not None:
            events.append(ext.event())
            tree = ext.extend()
            if len(tree.leaves()) >= config.max_histories:
                termination = "max_histories"
                break
        t += dt
    return [e.time for e in events], steps, termination, visited


# (d1, d2, seed, config overrides).  Seed 1 at 2x3 starts bisecting its
# second event at step 228 and needs 18 steps to refine it, so a cap of
# 235 stops it mid-bisection; the delta = 1e-4, epsilon = 0.5 runs fill
# four histories with their second event.  Seed 12 at 2x16 bisects its
# second event on four chunks of midpoints from step 161, and a cap of
# 168 stops it in the second; seed 10 at 3x9 and epsilon 0.9 bisects its
# fourth event on 27 leaves, where SCAN_BLOCK cuts each chunk of
# midpoints to 7.
SCAN_CASES = [
    (2, 3, 1, {}),
    (3, 3, 1, {}),
    (2, 3, 1, {"max_steps": 150}),
    (2, 3, 1, {"max_steps": 228}),
    (2, 3, 1, {"max_steps": 235}),
    (2, 3, 1, {"max_steps": 400}),
    (3, 3, 4, {"max_steps": 300}),
    (2, 3, 1, {"delta": 1e-4, "epsilon": 0.5, "max_histories": 4}),
    (2, 3, 2, {"delta": 1e-4, "epsilon": 0.5, "max_histories": 4}),
    (2, 3, 3, {"delta": 1e-4, "epsilon": 0.5, "max_histories": 4}),
    (2, 16, 12, {}),
    (2, 16, 12, {"max_steps": 168}),
    (3, 9, 10, {"epsilon": 0.9, "max_histories": 81}),
]


def test_forward_search_matches_its_own_loop(monkeypatch):
    # the scan evaluates the times the loop evaluates, bisection midpoints
    # included, in the same order, and counts only those: each evaluation
    # is the scan's one schmidt_candidate call, recorded here, whatever its
    # verdict, and the loop runs the per-time path at each of its times.
    # The scan reads full once per tree and calls advance at most once per
    # time on a tree (_check_scan_select)
    visited, scans = [], []
    candidate = selection.schmidt_candidate

    def recorded(model, t, chunk=None):
        visited.append(t)
        return candidate(model, t, chunk)

    monkeypatch.setattr(selection, "schmidt_candidate", recorded)
    _check_scan_select(monkeypatch, randmodel, scans, visited)
    results = {}
    for d1, d2, seed, kw in SCAN_CASES:
        config = _config(**{"d1": d1, "d2": d2, "seed": seed,
                            "max_histories": 64, **kw})
        visited.clear()
        rec = randmodel.run_forward_search(config)
        want = _forward_search_loop(config)
        assert (rec.times, rec.steps, rec.termination, visited) == want, \
            (d1, d2, seed, kw)
        results[d1, d2, seed, kw.get("max_steps")] = want
    assert len(scans) == len(SCAN_CASES)
    assert {termination for _, _, termination, _ in results.values()} \
        == {"t_max", "max_steps", "max_histories"}
    # the cap of 235 cut the second bisection short
    cut, done = results[2, 3, 1, 235][0], results[2, 3, 1, 400][0]
    assert len(cut) == len(done) == 2 and cut[1] != done[1]


def test_analysis_integrity_fails_closed_on_nan():
    import dataclasses
    rec = randmodel.run_forward_search(_config())
    assert rec.events and randmodel.analyse_run(rec).integrity
    last = rec.events[-1]
    nan_report = dataclasses.replace(last.report,
                                     max_medium_violation=np.nan)
    nan_probs = np.full_like(last.probabilities, np.nan)
    for changes in ({"report": nan_report}, {"probabilities": nan_probs},
                    {"report": nan_report, "probabilities": nan_probs}):
        rec.events[-1] = dataclasses.replace(last, **changes)
        assert randmodel.analyse_run(rec).integrity is False, changes
