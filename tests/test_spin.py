import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from qhistories import histories, spin
from qhistories.consistency import consistency_report
from qhistories.histories import (HistoryTree, ProjectiveDecomposition,
                                  decoherence_matrix, extend_all)
from qhistories.linalg import (HamiltonianFlow, RandomStream, sample_gue,
                               sample_unit_vector)
from qhistories.spin import I2, _kron_chain, proj2, theta_schedule
from qhistories.tolerances import ORACLE_RTOL

# The matrix-free chain and the dense kron products sum the same terms in
# another order; their difference is a few 1e-16 of the largest entry, so
# 1e-12 of it separates rounding from a wrong or missing factor.
REL_TOL = ORACLE_RTOL


def _config(seed, n):
    rng = RandomStream(seed, "spin-test")
    vecs = [sample_unit_vector(3, "real", rng.stream(f"a{i}"))
            for i in range(n + 1)]
    return spin.SpinModelConfig(v=vecs[0], axes=np.array(vecs[1:]))


def test_config_validation_and_genericity():
    with pytest.raises(ValueError, match="unit"):
        spin.SpinModelConfig(v=[0, 0, 2.0], axes=[[1.0, 0, 0]])
    with pytest.raises(ValueError, match="v is not a unit vector"):
        spin.SpinModelConfig(v=[np.nan, 0, 0], axes=[[1.0, 0, 0]])
    with pytest.raises(ValueError, match="u2 is not a unit vector"):
        spin.SpinModelConfig(v=[0, 0, 1.0], axes=[[1.0, 0, 0], [np.nan] * 3])
    cfg = spin.SpinModelConfig(v=[0, 0, 1.0], axes=[[1.0, 0, 0]])
    assert not cfg.generic           # orthogonal adjacent axes
    cfg2 = spin.SpinModelConfig(v=[0, 0, 1.0],
                                axes=[np.array([1.0, 0, 1.0]) / math.sqrt(2)])
    assert cfg2.generic


def test_config_refuses_misshapen_axes_and_names_the_shape():
    z = [0.0, 0.0, 1.0]
    for v, axes, shape in ((z, [], r"\(0,\)"), (z, [[1.0, 0.0]], r"\(1, 2\)"),
                           (z, [[[1.0, 0, 0]]], r"\(1, 1, 3\)"),
                           ([0.0, 1.0], [z], r"\(2,\)")):
        with pytest.raises(ValueError, match="shape.*" + shape):
            spin.SpinModelConfig(v=v, axes=axes)
    cfg = spin.SpinModelConfig(v=z, axes=[1.0, 0.0, 0.0])
    assert cfg.n == 1 and cfg.axes.shape == (1, 3)


def test_build_tree_refuses_axes_that_are_not_real_unit_vectors():
    cfg = _config(2, 2)
    z = np.array([0.0, 0.0, 1.0])
    for w in (1.01 * z, 0.5 * z, np.array([0.0, 0.6j, 0.8]),
              z + 1e-6j, np.array([0.0, np.nan, 1.0]), np.ones(4) / 2):
        with pytest.raises(ValueError, match="axis"):
            spin.build_tree(cfg, [(1.0, w)])
    # exactly real complex-typed axes and lists are accepted
    spin.build_tree(cfg, [(1.0, z.astype(complex)), (2.0, [1.0, 0.0, 0.0])])


def test_build_tree_axis_check_is_at_least_as_strict_as_the_projectors():
    # every axis whose pair {P(w), P(-w)} fails the decomposition check
    # fails build_tree's own check, near the norm tolerance too
    cfg = _config(2, 1)
    u = sample_unit_vector(3, "real", RandomStream(3, "axis-check"))
    refused = 0
    for dev in (1e-12, 1e-11, 1e-10, 3e-10, 1e-9, 1e-6):
        for w in ((1 + dev) * u, (1 - dev) * u, u + 1j * dev * u[::-1]):
            try:
                ProjectiveDecomposition(1.0, [spin.proj2(w), spin.proj2(-w)])
            except ValueError:
                refused += 1
                with pytest.raises(ValueError):
                    spin.build_tree(cfg, [(1.0, w)])
    assert refused >= 6


def test_theta_schedule():
    assert spin.theta_schedule(2, 0.5) == 0.0
    assert spin.theta_schedule(2, 1.5) == pytest.approx(math.pi / 4)
    assert spin.theta_schedule(2, 2.0) == pytest.approx(math.pi / 2)
    assert spin.theta_schedule(2, 3.7) == pytest.approx(math.pi / 2)


def test_full_unitary_is_unitary():
    cfg = _config(0, 3)
    for t in (0.0, 0.5, 1.3, 2.7, 3.0):
        U = spin.full_unitary(cfg, t)
        assert np.max(np.abs(U.conj().T @ U - np.eye(16))) < 1e-12


def test_reduced_density_matches_partial_trace():
    cfg = _config(1, 3)
    for t in (0.3, 1.0, 1.6, 2.4, 3.0):
        rho, w, N = spin.reduced_density(cfg, t)
        rho_full = spin.reduced_density_full(cfg, t)
        assert np.max(np.abs(rho - rho_full)) < 1e-12
        vals = np.linalg.eigvalsh(rho)
        assert vals[1] - vals[0] == pytest.approx(N, abs=1e-12)


def test_norm_closed_form():
    cfg = _config(2, 2)
    c = float(np.dot(cfg.axis(0), cfg.axis(1)))
    for om in (0.0, 0.4, 1.0, math.pi / 2):
        want = math.sqrt(c * c + math.cos(om) ** 2 * (1 - c * c))
        assert spin.N_k(cfg, 1, om) == pytest.approx(want)
    # at the end of interaction k the Bloch norm contracts by |u_{k-1}.u_k|
    a = spin.bloch_vector(cfg, 1.0)
    assert np.linalg.norm(a) == pytest.approx(abs(c), abs=1e-12)


def test_lam_signed_products():
    cfg = _config(3, 3)
    want = 1.0
    for k in range(3):
        want *= float(np.dot(cfg.axis(k), cfg.axis(k + 1)))
    assert spin.lam(cfg, 0, 3) == pytest.approx(want)
    assert spin.lam(cfg, 1, 1) == 1.0
    assert spin.lam_abs(cfg, 0, 3) == pytest.approx(abs(want))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_history_probabilities_integer_times(seed):
    cfg = _config(seed, 3)
    times = (1, 2, 3)
    D = decoherence_matrix(
        spin.build_tree(cfg, spin.measurement_events(cfg, times)))
    for label, p in zip(D.labels, D.diag):
        signs = tuple(1 if i == 0 else -1 for i in label)
        cf = spin.history_probability(cfg, spin.SpinHistorySpec(times, signs))
        assert cf == pytest.approx(p, abs=1e-12)


@pytest.mark.parametrize("seed,interior", [(0, 1.3), (1, 2.6), (2, 2.2)])
def test_history_probabilities_interior_time(seed, interior):
    cfg = _config(seed, 3)
    k = math.ceil(interior)
    chain = tuple(t for t in range(1, k))   # all earlier integer times
    times = chain + (k,)
    D = decoherence_matrix(spin.build_tree(
        cfg, spin.measurement_events(cfg, chain + (interior, float(k)))))
    for label, p in zip(D.labels, D.diag):
        signs = tuple(1 if i == 0 else -1 for i in label)
        spec = spin.SpinHistorySpec(times, signs, interior_time=interior)
        assert spin.history_probability(cfg, spec) == pytest.approx(p, abs=1e-12)


@pytest.mark.parametrize("n", range(1, 9))
def test_history_probabilities_are_history_probability_to_the_bit(n):
    # the closed form of every sign string at once, in leaves() order,
    # over all integer times 1..n and over every other one of them
    cfg = _config(300 + n, n)
    for times in (tuple(range(1, n + 1)), tuple(range(n % 2 + 1, n + 1, 2))):
        got = spin.history_probabilities(cfg, times)
        want = [spin.history_probability(cfg, spin.SpinHistorySpec(times, s))
                for s in itertools.product((1, -1), repeat=len(times))]
        assert got.shape == (2 ** len(times),)
        assert got.tolist() == want


@pytest.mark.parametrize("n", [1, 3, 6])
def test_build_tree_turns_one_interaction_per_integer_event(monkeypatch, n):
    # the measurement tree of `qhist spin probs`: the first event evolves
    # to t = 1 by one apply, each later event steps from the last event
    # time by one apply_times, which at t = m turns interaction m alone,
    # and the last event's split is the tree's frame, with no apply back
    turns, calls = [], []
    turn = spin.ChainEvolution._turn
    monkeypatch.setattr(spin.ChainEvolution, "_turn",
                        lambda self, x, k, ths, adjoint, split: (
                            turns.append((k, adjoint)),
                            turn(self, x, k, ths, adjoint, split))[1])
    for name in ("apply", "apply_times", "apply_rows"):
        method = getattr(spin.ChainEvolution, name)

        def counted(self, *args, _method=method, _name=name, **kwargs):
            calls.append(_name)
            return _method(self, *args, **kwargs)
        monkeypatch.setattr(spin.ChainEvolution, name, counted)
    cfg = _config(400 + n, n)
    tree = spin.build_tree(cfg, spin.measurement_events(cfg, range(1, n + 1)))
    assert calls == ["apply"] + ["apply_times"] * (n - 1)
    assert turns == [(m, False) for m in range(1, n + 1)]
    assert len(tree.leaves()) == 2 ** n and tree.frame_time == n


def test_build_tree_peaks_below_two_and_three_quarter_leaf_state_matrices():
    # build_tree at n = 9 under tracemalloc: the last event's blocks and
    # their interleaved columns beside the stepped half-size states peak
    # at 2.52 times the final frame (2.54 at n = 8, 2.51 at n = 10), where
    # evolving the leaf states back to time 0 took 4.0; bound 2.75, with
    # 9% headroom
    n = 9
    cfg = _config(409, n)
    events = spin.measurement_events(cfg, range(1, n + 1))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tree = spin.build_tree(cfg, events)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    final = tree.frame.nbytes
    assert final == 16 * 2 ** (n + 1) * 2 ** n
    assert 2.0 * final < peak < 2.75 * final


def test_history_spec_validation():
    with pytest.raises(ValueError, match="increasing"):
        spin.SpinHistorySpec((2, 1), (1, 1))
    with pytest.raises(ValueError, match="sign"):
        spin.SpinHistorySpec((1, 2), (1,))
    with pytest.raises(ValueError, match="interaction"):
        spin.SpinHistorySpec((1, 3), (1, 1, 1), interior_time=1.5)
    spin.SpinHistorySpec((1, 3), (1, 1, 1), interior_time=2.5)


def test_offdiag_closed_form_moduli():
    cfg = _config(11, 4)
    cases = [(1, 0.4, 1, 1.1), (1, 0.5, 2, 0.9), (2, 0.3, 3, 1.2),
             (1, 0.8, 4, 0.5)]
    for j, om, k, ph in cases:
        s = j - 1 + 2 * om / math.pi
        t = k - 1 + 2 * ph / math.pi
        D = decoherence_matrix(
            spin.build_tree(cfg, spin.measurement_events(cfg, (s, t))))
        idx = {lab: i for i, lab in enumerate(D.labels)}
        for sign, a, b in [(1, (0, 0), (1, 0)), (-1, (0, 1), (1, 1))]:
            elem = D.entries[idx[a], idx[b]]
            cf = spin.offdiag_closed_form(cfg, j, om, k, ph, sign=sign)
            assert abs(abs(elem) - abs(cf)) < 1e-12


def test_classification_allowed_sets_consistent():
    cfg = _config(5, 3)
    n_sets = 0
    for form, times in spin.enumerate_consistent_sets(cfg):
        if not times:
            continue
        D = decoherence_matrix(
            spin.build_tree(cfg, spin.measurement_events(cfg, times)))
        rep = consistency_report(D.entries)
        assert rep.max_medium_violation < 1e-10, (form, times)
        n_sets += 1
    assert n_sets > 10


def _random_events(rng, times):
    return [(t, sample_unit_vector(3, "real", rng.stream(f"w{t}")))
            for t in times]


def _decompositions(events):
    return [ProjectiveDecomposition(t, spin._axis_pair(w), check=False)
            for t, w in events]


def _path_matrix(tree, events):
    """D of tree extended by each (time, axis) event in turn by extend_all,
    read from the path states of its leaves (HistoryTree.path_state, which
    evolves each leaf's state forward and back at every event on its
    path): an oracle for the frames that step from one event time to the
    next."""
    for t, w in events:
        tree = extend_all(tree, ProjectiveDecomposition(t, spin._axis_pair(w)))
    states = np.column_stack([tree.path_state(leaf) for leaf in tree.leaves()])
    return (states.conj().T @ states).T


def _check_scored_children(tree, prefix, children):
    """_score_children's violation of each (time, axis) child of the set
    that extends tree by the prefix events, scored from that set's tree,
    whose frame is at its last time (the tree of the one child of each
    prefix event in turn, as classify_catalogue enters it: one apply_times
    since the previous event time per event), against the D of the path
    states of the tree extended by prefix and child: D is zero off the two
    Gram blocks, and the violation is its largest off-diagonal |D_ab|,
    within ORACLE_RTOL of max |D|.  Returns each child's two block maxima."""
    walked = tree
    for dec in _decompositions(prefix):
        walked = spin._score_children(walked, [dec], [0])[1][0]
    assert walked.frame_time == prefix[-1][0]
    violations, _ = spin._score_children(walked, _decompositions(children))
    assert violations.shape == (len(children),)
    maxima = []
    for child, got in zip(children, violations):
        D = _path_matrix(tree, prefix + [child])
        scale = np.abs(D).max()
        off = np.abs(D - np.diag(np.diag(D)))
        within = off.copy()
        within[0::2, 1::2] = within[1::2, 0::2] = 0.0
        assert (off - within).max() <= ORACLE_RTOL * scale
        assert abs(got - within.max()) <= ORACLE_RTOL * scale
        assert within.max() > 1e-3 * scale      # far from consistent
        maxima.append((within[0::2].max(), within[1::2].max()))
    return maxima


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_scored_children_match_the_dense_matrix_of_inconsistent_sets(n, seed):
    # spin-chain sets of random axes at random times, far from consistent
    cfg = _config(100 + seed, n)
    rng = RandomStream(seed, "score-children")
    g = rng.stream("times").generator
    cuts = np.sort(g.uniform(0.1, n + 0.5, size=n + 1))
    prefix = _random_events(rng, cuts[:-1].tolist()[:seed % n + 1])
    children = _random_events(rng, np.sort(
        g.uniform(prefix[-1][0] + 0.05, n + 1.0, size=4)).tolist())
    _check_scored_children(spin.build_tree(cfg, []), prefix, children)


def test_scored_children_match_the_dense_matrix_under_a_random_flow():
    # on the spin chain the two blocks' maxima coincide, so these sets, of
    # a random Hamiltonian on C^2 (x) C^4, are where each block's maximum
    # is sometimes the larger: the violation must read both blocks; the
    # frames step by the flow's apply_times since the last event time
    larger = [0, 0]
    for seed in range(4):
        rng = RandomStream(seed, "score-flow")
        psi = sample_unit_vector(8, "complex", rng.stream("psi"))
        flow = HamiltonianFlow(sample_gue(8, 1.0, rng.stream("H")))
        for b0, b1 in _check_scored_children(
                HistoryTree(initial_state=psi, evolution=flow),
                _random_events(rng, [0.3, 0.9]),
                _random_events(rng, [1.2, 1.7, 2.5])):
            larger[0] += b0 > 1.01 * b1
            larger[1] += b1 > 1.01 * b0
    assert min(larger) > 0, larger


def test_classify_catalogue_groups_give_the_ungrouped_rows(monkeypatch):
    # a prefix's children are scored in groups of at most SCAN_BLOCK
    # stacked entries; with the block cut small (groups of 4, 2 and 1
    # children at 1, 2 and 4 leaves of dimension 32), the rows are the
    # ungrouped walk's to the bit, from more scoring calls
    calls = []
    score = spin._score_children
    monkeypatch.setattr(spin, "_score_children",
                        lambda tree, children, extend: (
                            calls.append(len(children)),
                            score(tree, children, extend))[1])
    for seed in range(3):
        cfg = _config(200 + seed, 4)
        monkeypatch.setattr(spin, "SCAN_BLOCK", 1 << 40)
        whole = spin.classify_catalogue(cfg)
        ungrouped, calls[:] = list(calls), []
        monkeypatch.setattr(spin, "SCAN_BLOCK", 256)
        assert spin.classify_catalogue(cfg) == whole
        assert max(calls) == 4 < max(ungrouped)
        assert len(calls) > len(ungrouped) and sum(calls) == sum(ungrouped)
        calls[:] = []


def test_classify_catalogue_takes_two_evolution_calls_per_prefix(
        monkeypatch):
    # at n = 3 the 35 sets have 18 prefixes, the empty one included, and
    # no prefix's children are cut into groups: one apply_times per
    # prefix, from the prefix's last time, and no apply back, 18 evolution
    # calls where one extension per set took 70
    counts = {"apply": 0, "apply_times": 0, "apply_rows": 0}
    for name in counts:
        method = getattr(spin.ChainEvolution, name)

        def counted(self, *args, _method=method, _name=name, **kwargs):
            counts[_name] += 1
            return _method(self, *args, **kwargs)
        monkeypatch.setattr(spin.ChainEvolution, name, counted)
    cfg = _config(7, 3)
    rows = spin.classify_catalogue(cfg)
    prefixes = {times[:-1] for _, times, _ in rows}
    assert len(rows) == 35 and len(prefixes) == 18
    assert counts == {"apply": 0, "apply_times": 18, "apply_rows": 0}
    assert max(v for _, _, v in rows) < 1e-10


def test_classify_catalogue_keeps_the_per_set_checks(monkeypatch):
    cfg = _config(5, 3)
    # a child no later than its prefix's last time: an interior point at
    # the end of its interaction, or at its start, just after the prefix
    catalogue = spin.enumerate_consistent_sets
    for points in ((0.3, 1.0), (0.0,)):
        monkeypatch.setattr(spin, "enumerate_consistent_sets",
                            lambda cfg, points=points: catalogue(cfg, points))
        with pytest.raises(ValueError, match="does not exceed branch time"):
            spin.classify_catalogue(cfg)
    monkeypatch.undo()
    # an axis that is not a real unit 3-vector
    axis = spin.measurement_axis
    monkeypatch.setattr(spin, "measurement_axis",
                        lambda cfg, t: 1.01 * axis(cfg, t) if t == 2.0
                        else axis(cfg, t))
    with pytest.raises(ValueError, match="axis"):
        spin.classify_catalogue(cfg)
    monkeypatch.undo()
    # the leaf-state cap, counting the stacked blocks of a group: the
    # deepest sets of n = 3 have 16 leaves of dimension 16
    monkeypatch.setattr(histories, "LEAF_STATE_CAP", 16 * 16 - 1)
    with pytest.raises(ValueError, match="past the leaf-state cap 255"):
        spin.classify_catalogue(cfg)


def test_disallowed_pairs_inconsistent():
    cfg = _config(5, 3)
    # interior time followed by anything but the end of its interaction
    for times in [(0.5, 0.8), (0.5, 1.5), (0.5, 2.0), (1.5, 2.5), (1.3, 3.0)]:
        D = decoherence_matrix(
            spin.build_tree(cfg, spin.measurement_events(cfg, times)))
        rep = consistency_report(D.entries)
        assert rep.max_medium_violation > 1e-6, times


def test_information_closed_form_vs_numeric_optimum():
    cfg = _config(9, 3)
    for k in (1, 2, 3):
        E, t_star = spin.information_of_Sk(cfg, k)
        res = minimize_scalar(lambda t: -spin.Sk_information_at(cfg, k, t),
                              bounds=(k - 1 + 1e-9, k - 1e-9), method="bounded")
        assert E == pytest.approx(-res.fun, abs=1e-9)
        assert t_star == pytest.approx(res.x, abs=1e-5)


def test_Sk_information_matches_tree_entropy():
    cfg = _config(9, 3)
    k = 2
    E, t_star = spin.information_of_Sk(cfg, k)
    times = tuple(range(1, k)) + (t_star, float(k))
    D = decoherence_matrix(
        spin.build_tree(cfg, spin.measurement_events(cfg, times)))
    p = np.clip(D.diag, 1e-300, None)
    assert E == pytest.approx(float(-(p * np.log(p)).sum()), abs=1e-10)


def test_sn_selection_fraction_values():
    rng = RandomStream(0, "mc-test")
    f3 = spin.sn_selection_fraction(3, 40000, rng.stream("n3"))
    f5 = spin.sn_selection_fraction(5, 40000, rng.stream("n5"))
    assert abs(f3 - 0.857) < 0.01
    assert abs(f5 - 0.842) < 0.01
    with pytest.raises(ValueError):
        spin.sn_selection_fraction(1, 10, rng)
    with pytest.raises(ValueError, match="samples >= 1"):
        spin.sn_selection_fraction(3, 0, rng)


def test_recoherence_cycle():
    u = np.array([0.0, 0.0, 1.0])
    a1, a2 = math.sqrt(0.6), -math.sqrt(0.4)
    psi0 = spin.recoherence_initial_state(a1, a2, u)
    # decohered at the plateau: reduced state diagonal with weights a1^2, a2^2
    psi_mid = spin.recoherence_evolve(a1, a2, u, math.pi / 2)
    M = psi_mid.reshape(2, 2)
    rho = M @ M.conj().T
    assert abs(rho[0, 1]) < 1e-12
    # exact return at the end of the cycle
    psi_end = spin.recoherence_evolve(a1, a2, u, 3 * math.pi / 2)
    assert np.linalg.norm(psi_end - psi0) < 1e-12
    with pytest.raises(ValueError):
        spin.recoherence_theta(5.0)


# -- delayed choice against the dense evolution --------------------------

def delayed_choice_unitary(v, axis_map, n, t):
    """Full evolution with measurement axes depending on earlier outcomes.

    axis_map(outcomes) gives the axis of measurement m for the outcome
    tuple of the previous m-1 measurements (outcomes in {+1,-1})."""
    dim = 2 ** (n + 1)
    U = np.eye(dim, dtype=complex)
    for m in range(1, n + 1):
        th = theta_schedule(m, t)
        rot = np.array([[math.cos(th), -math.sin(th)],
                        [math.sin(th), math.cos(th)]], dtype=complex)
        Vm = np.zeros((dim, dim), dtype=complex)
        for outcomes in itertools.product((1, -1), repeat=m - 1):
            u = np.asarray(axis_map(outcomes), dtype=float)
            env_sel = [np.array([[1, 0], [0, 0]], dtype=complex) if a == 1
                       else np.array([[0, 0], [0, 1]], dtype=complex)
                       for a in outcomes]
            sel_plus = _kron_chain(env_sel + [I2] * (n - m + 1))
            sel_rot = _kron_chain(env_sel + [rot] + [I2] * (n - m))
            Vm += np.kron(proj2(u), sel_plus)
            Vm += np.kron(proj2(-u), sel_rot)
        U = Vm @ U
    return U


def _dense_delayed_choice_branches(v, axis_map, n):
    """Branch states stepped by U(m) U(m-1)^dag of the dense oracle and
    projected on the system: delayed choice without ChainEvolution."""
    env0 = np.zeros(2 ** n, dtype=complex)
    env0[0] = 1.0
    branches = {(): np.kron(spin.spinor(v), env0)}
    U_prev = delayed_choice_unitary(v, axis_map, n, 0)
    for m in range(1, n + 1):
        U = delayed_choice_unitary(v, axis_map, n, m)
        step = U @ U_prev.conj().T
        U_prev = U
        branches = {
            outcomes + (a,): np.kron(proj2(a * np.asarray(axis_map(outcomes))),
                                     np.eye(2 ** n)) @ step @ state
            for outcomes, state in branches.items() for a in (1, -1)}
    return branches


def _random_axis_map(n, seed):
    """A seeded axis for every outcome string of length 0..n-1."""
    rng = RandomStream(seed, f"delayed-choice-{n}")
    axes = {o: sample_unit_vector(3, "real", rng.stream(str(o)))
            for r in range(n) for o in itertools.product((1, -1), repeat=r)}
    return axes.__getitem__


def test_delayed_choice_branches():
    v = np.array([0.0, 0.0, 1.0])
    base = np.array([1.0, 1.0, 0.0]) / math.sqrt(2)
    alt = np.array([1.0, -1.0, 0.0]) / math.sqrt(2)

    def axis_map(outcomes):
        if not outcomes:
            return base
        return base if outcomes[-1] == 1 else alt

    branches, probs = spin.delayed_choice_branches(v, axis_map, 2)
    assert len(probs) == 4
    assert sum(probs.values()) == pytest.approx(1.0, abs=1e-10)
    # branch states reassemble the evolved state
    total = sum(branches.values())
    U = delayed_choice_unitary(v, axis_map, 2, 2.0)
    env0 = np.zeros(4, dtype=complex)
    env0[0] = 1.0
    psi = U @ np.kron(spin.spinor(v), env0)
    assert np.linalg.norm(total - psi) < 1e-10


def test_delayed_choice_reduces_to_fixed_axes():
    v = np.array([0.0, 0.0, 1.0])
    u1 = np.array([1.0, 0.0, 1.0]) / math.sqrt(2)
    u2 = np.array([0.0, 1.0, 1.0]) / math.sqrt(2)
    cfg = spin.SpinModelConfig(v=v, axes=np.array([u1, u2]))
    axes = [u1, u2]

    def axis_map(outcomes):
        return axes[len(outcomes)]

    U_dc = delayed_choice_unitary(v, axis_map, 2, 1.7)
    U_std = spin.full_unitary(cfg, 1.7)
    assert np.max(np.abs(U_dc - U_std)) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_delayed_choice_branches_match_the_dense_oracle(n):
    v = sample_unit_vector(3, "real", RandomStream(n, "delayed-choice-v"))
    axis_map = _random_axis_map(n, seed=n)
    branches, probs = spin.delayed_choice_branches(v, axis_map, n)
    dense = _dense_delayed_choice_branches(v, axis_map, n)
    assert set(branches) == set(dense) and len(dense) == 2 ** n
    scale = max(np.max(np.abs(s)) for s in dense.values())
    for outcomes, state in dense.items():
        assert np.max(np.abs(branches[outcomes] - state)) \
            <= ORACLE_RTOL * scale, outcomes
    assert sum(probs.values()) == pytest.approx(1.0, abs=ORACLE_RTOL)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_delayed_choice_with_fixed_axes_has_the_closed_form_probabilities(n):
    cfg = _config(n + 10, n)
    _, probs = spin.delayed_choice_branches(
        cfg.v, lambda outcomes: cfg.axes[len(outcomes)], n)
    times = tuple(range(1, n + 1))
    for outcomes, p in probs.items():
        cf = spin.history_probability(cfg, spin.SpinHistorySpec(times,
                                                                outcomes))
        assert p == pytest.approx(cf, rel=0, abs=ORACLE_RTOL)


_Z = [0.0, 0.0, 1.0]


@pytest.mark.parametrize("v,axis", [
    ([0.0, 0.0, 2.0], [1.0, 1.0, 1.0]),  # probabilities would sum to 64
    ([1.0, 1.0, 1.0], _Z),  # spinor would prepare spin-up along z
    (_Z, [1.0, 1.0, 1.0]),
    (_Z, [0.0, 1j, 0.0]),
    (_Z, [0.0, np.nan, 1.0]),
    (_Z, [1.0, 0.0]),
])
def test_delayed_choice_refuses_axes_that_are_not_real_unit_vectors(v, axis):
    with pytest.raises(ValueError, match="not a real unit 3-vector"):
        spin.delayed_choice_branches(v, lambda outcomes: axis, 2)


# -- matrix-free evolution against the dense oracles ----------------------

def _random_states(dim, r, seed):
    """A state vector, a 4-column state matrix and a vector of size dim*r."""
    g = np.random.default_rng(seed)

    def draw(*shape):
        return g.normal(size=shape) + 1j * g.normal(size=shape)

    return draw(dim), draw(dim, 4), draw(dim * r)


def _assert_apply_matches(evolution, unitary, dim, times, seed, r=3):
    vec, cols, trailing = _random_states(dim, r, seed)
    for t in times:
        U = unitary(t)
        for adjoint in (False, True):
            op = U.conj().T if adjoint else U
            cases = [(vec, op @ vec), (cols, op @ cols),
                     (trailing, np.kron(op, np.eye(r)) @ trailing)]
            for states, want in cases:
                got = evolution.apply(states, t, adjoint)
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) \
                    <= REL_TOL * np.max(np.abs(want)), (t, adjoint)


@pytest.mark.parametrize("n", [1, 2, 4, 7])
def test_chain_apply_matches_full_unitary(n):
    cfg = _config(30 + n, n)
    times = (0.0, 0.4, 1.0, n / 2 + 0.3, n - 0.25, float(n), n + 0.6)
    _assert_apply_matches(spin.chain_evolution(cfg),
                          lambda t: spin.full_unitary(cfg, t),
                          2 ** (n + 1), times, seed=n)


def test_recoherence_apply_matches_dense_unitary():
    u = sample_unit_vector(3, "real", RandomStream(3, "recoh-apply"))
    times = (0.0, 0.3, math.pi / 2, 2.0, math.pi, 4.0, 3 * math.pi / 2)
    _assert_apply_matches(spin.recoherence_evolution(u),
                          lambda t: spin.recoherence_unitary(u, t), 4,
                          times, seed=11)


def test_chain_apply_rejects_a_state_of_the_wrong_size():
    chain = spin.chain_evolution(_config(4, 2))
    with pytest.raises(ValueError,
                       match="operator size 8 does not divide state size 12"):
        chain.apply(np.ones(12, dtype=complex), 1.5)


def test_chain_apply_returns_a_new_array_at_the_identity():
    chain = spin.chain_evolution(_config(4, 2))
    psi = spin.initial_state(_config(4, 2))
    out = chain.apply(psi, 0.0)
    assert np.array_equal(out, psi) and out is not psi
    out[0] = 7.0
    assert psi[0] != 7.0


# -- closed forms at sizes the dense oracle cannot build ------------------

def _signs(label):
    return tuple(1 if i == 0 else -1 for i in label)


@pytest.mark.parametrize("n", [10, 12])
def test_three_event_history_probabilities_at_large_n(n):
    cfg = _config(n, n)
    times = (2, 5, n)
    D = decoherence_matrix(
        spin.build_tree(cfg, spin.measurement_events(cfg, times)))
    want = np.array([spin.history_probability(
        cfg, spin.SpinHistorySpec(times, _signs(lab))) for lab in D.labels])
    assert len(want) == 8
    assert np.max(np.abs(D.diag - want)) <= REL_TOL * np.max(want)
    # projections at 3, inside interaction n-1, and at its end
    k, interior = n - 1, n - 2 + 0.35
    D = decoherence_matrix(spin.build_tree(
        cfg, spin.measurement_events(cfg, (3.0, interior, float(k)))))
    want = np.array([spin.history_probability(
        cfg, spin.SpinHistorySpec((3, k), _signs(lab), interior_time=interior))
        for lab in D.labels])
    assert np.max(np.abs(D.diag - want)) <= REL_TOL * np.max(want)


@pytest.mark.parametrize("n", [10, 12])
def test_offdiag_closed_form_at_large_n(n):
    cfg = _config(n, n)
    for j, om, k, ph in [(2, 0.4, 2, 1.1), (n - 1, 0.5, n, 0.9),
                         (2, 0.3, n, 1.2)]:
        s = j - 1 + 2 * om / math.pi
        t = k - 1 + 2 * ph / math.pi
        D = decoherence_matrix(
            spin.build_tree(cfg, spin.measurement_events(cfg, (s, t))))
        idx = {lab: i for i, lab in enumerate(D.labels)}
        # the matrix's largest entry, a probability, sets the scale
        tol = REL_TOL * np.max(np.abs(D.entries))
        for sign, a, b in [(1, (0, 0), (1, 0)), (-1, (0, 1), (1, 1))]:
            elem = D.entries[idx[a], idx[b]]
            cf = spin.offdiag_closed_form(cfg, j, om, k, ph, sign=sign)
            assert abs(abs(elem) - abs(cf)) <= tol


# -- information closed forms against the scalar loops they replaced -----

def _f_loop(x):
    p = (1.0 + x) / 2.0
    q = (1.0 - x) / 2.0
    out = 0.0
    if p > 0.0:
        out -= p * math.log(p)
    if q > 0.0:
        out -= q * math.log(q)
    return out


def _dot(cfg, k):
    return float(np.dot(cfg.axis(k - 1), cfg.axis(k)))


def _information_of_Sk_loop(cfg, k):
    c = _dot(cfg, k)
    E = 2.0 * _f_loop(math.sqrt(abs(c)))
    for j in range(1, k):
        E += _f_loop(_dot(cfg, j))
    ac = abs(c)
    if ac >= 1.0:
        omega = 0.0
    else:
        cos2 = (ac - c * c) / (1.0 - c * c)
        omega = math.acos(math.sqrt(max(0.0, min(1.0, cos2))))
    return E, k - 1 + omega / (math.pi / 2)


def _Sk_information_at_loop(cfg, k, t):
    Nk = spin.N_k(cfg, k, theta_schedule(k, t))
    total = _f_loop(Nk) + _f_loop(_dot(cfg, k) / Nk)
    for j in range(1, k):
        total += _f_loop(_dot(cfg, j))
    return total


def _chain_loop(cfg):
    return sum(_f_loop(_dot(cfg, j)) for j in range(1, cfg.n + 1))


def _close(got, want):
    return abs(got - want) <= ORACLE_RTOL * abs(want)


@pytest.mark.parametrize("n", range(1, 9))
def test_information_closed_forms_match_the_scalar_loops(n):
    from qhistories.selection import max_information_select
    for seed in range(12):
        cfg = _config(300 + seed, n)
        res = max_information_select(cfg)
        assert _close(res["chain"], _chain_loop(cfg))
        for k in range(1, n + 1):
            E, t_star = spin.information_of_Sk(cfg, k)
            E_loop, t_loop = _information_of_Sk_loop(cfg, k)
            assert _close(E, E_loop) and _close(t_star, t_loop), (seed, k)
            assert res["per_k"][k] == (E, t_star)
            for frac in (0.2, 0.5, 0.9):
                t = k - 1 + frac
                assert _close(spin.Sk_information_at(cfg, k, t),
                              _Sk_information_at_loop(cfg, k, t))


def test_binary_entropy_of_dot_is_elementwise_and_plus_zero_at_the_poles():
    xs = np.concatenate([[-1.0, 1.0, 0.0, 0.5],
                         RandomStream(4, "f").generator.uniform(-1, 1, 60)])
    f = spin.binary_entropy_of_dot(xs)
    assert f.shape == xs.shape
    assert f.tolist() == [spin.binary_entropy_of_dot(x) for x in xs]
    assert np.array_equal(spin.binary_entropy_of_dot(xs.reshape(8, 8)),
                          f.reshape(8, 8))
    assert spin.binary_entropy_of_dot(0.0) == pytest.approx(math.log(2))
    for x in (1.0, -1.0):
        value = spin.binary_entropy_of_dot(x)
        assert type(value) is float
        assert value == 0.0 and math.copysign(1.0, value) == 1.0


def test_schmidt_axis_refuses_a_degenerate_direction():
    # v = x, u_1 = z: at t = 1, A(t) v = cos(pi/2) x is rounding residue
    cfg = spin.SpinModelConfig(v=[1.0, 0.0, 0.0], axes=[[0.0, 0.0, 1.0]])
    assert np.linalg.norm(spin.bloch_vector(cfg, 1.0)) < 1e-15
    for func in (spin.schmidt_axis, spin.reduced_density):
        with pytest.raises(ValueError, match="degenerate Schmidt direction"):
            func(cfg, 1.0)
    cfg = _config(3, 3)
    for t in (0.0, 0.4, 1.0, 2.5, 3.0):
        assert np.array_equal(spin.schmidt_axis(cfg, t),
                              spin.reduced_density(cfg, t)[1])
