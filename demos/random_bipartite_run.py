"""Seeded set-selection run under random Hamiltonian dynamics.

Draws a Gaussian-ensemble Hamiltonian and initial state for a d1 x d2
bipartite system, marches forward recording every admissible Schmidt
projection, then re-verifies the recorded run from scratch and probes its
sensitivity to initial-state perturbations.  Ends with a goodness-of-fit
check of the unit-vector component laws used by the analysis.
"""

import math

import numpy as np

from qhistories import randmodel
from qhistories.distributions import (component_sum_cdf,
                                      max_component_cdf_complex)
from qhistories.linalg import RandomStream

cfg = randmodel.RunConfig(d1=2, d2=4, sigma=1.0, seed=1, epsilon=0.05,
                          delta=0.02, t_max=2.0, max_histories=8)
rec = randmodel.run_forward_search(cfg)
print(f"run: d1 x d2 = {cfg.d1} x {cfg.d2}, seed {cfg.seed}, "
      f"eps {cfg.epsilon}, delta {cfg.delta}")
print(f"  termination: {rec.termination} after {rec.steps} steps")
print(f"  event times: {[round(t, 4) for t in rec.times]}")
print(f"  histories:   {len(rec.tree.leaves())}")

an = randmodel.analyse_run(rec)
print("\nindependent re-verification of the recorded run:")
print(f"  integrity (recomputed reports match): {an.integrity}")
print(f"  final-set entropy: {an.entropy:.4f}")
mpv = (f"{an.mpv:.2e} (exact)" if an.mpv_exact
       else f"[{an.mpv:.2e}, {an.mpv_upper:.2e}] (greedy, upper bound)")
print(f"  max probability violation: {mpv}")

print("\nstability of the event times under initial-state perturbation:")
for gamma, times, term in randmodel.perturbation_sweep(
        cfg, [0.0, 1e-8, 1e-4, 1e-2]):
    print(f"  gamma {gamma:7.0e}: {[round(t, 4) for t in times]} ({term})")

print("\ncomponent-law goodness of fit (complex unit vectors):")
N, d, k = 20000, 8, 3
g = RandomStream(0, "demo-dist").generator
Z = g.normal(size=(N, d)) + 1j * g.normal(size=(N, d))
W = np.abs(Z) ** 2
W /= W.sum(axis=1)[:, None]
grid = (np.arange(N) + 1.0) / N
crit = 1.63 / math.sqrt(N)
for name, stat, cdf in (
        ("sum of first k", np.sort(W[:, :k].sum(axis=1)),
         lambda x: component_sum_cdf(x, k, d, "complex")),
        ("max of first k", np.sort(W[:, :k].max(axis=1)),
         lambda x: max_component_cdf_complex(x, k, d))):
    F = np.array([cdf(x) for x in stat])
    ks = max(np.max(np.abs(grid - F)), np.max(np.abs(grid - 1.0 / N - F)))
    print(f"  {name}: KS statistic {ks:.5f} (1% critical {crit:.5f})")
