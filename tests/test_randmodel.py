import numpy as np
import pytest

from qhistories import randmodel
from qhistories.histories import decoherence_matrix


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
