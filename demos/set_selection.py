"""Set-selection algorithms and where they go wrong.

Three algorithms pick projective decompositions for a bipartite model:
earliest-time selection projects onto the Schmidt basis at the first
admissible time; the quasi-dynamical variant additionally demands the
choice persist a moment later; retrodictive selection accepts times from
the final time backwards.  A decohere-then-recohere model shows why
earliest-time selection is irrevocable: it commits to events that the
later reversal renders inconsistent, and no further extension is possible
after the reversal.
"""

import math

import numpy as np

from qhistories import selection, spin
from qhistories.linalg import RandomStream, sample_unit_vector

u = np.array([0.0, 0.0, 1.0])
a1, a2 = math.sqrt(0.7), math.sqrt(0.3)
model = selection.recoherence_model(a1, a2, u)

print("decohere/recohere cycle (period 3 pi/2):")
psi0 = spin.recoherence_initial_state(a1, a2, u)
psi_end = spin.recoherence_evolve(a1, a2, u, 3 * math.pi / 2)
print(f"  distance to the initial product state at 3 pi/2:"
      f" {np.linalg.norm(psi_end - psi0):.2e}")

sel = selection.earliest_time_select(model, 1e-6, 0.05, 3 * math.pi / 2)
print("  earliest-time events:", [round(t, 4) for t in sel.times])
print("  last event time vs pi:", round(sel.times[-1], 4), "<=",
      round(math.pi, 4))
print("  no event survives past the reversal midpoint; the algorithm is")
print("  stuck with its early commitments.")

rng = RandomStream(4, "demo-select")
n = 2
vecs = [sample_unit_vector(3, "real", rng.stream(f"a{i}"))
        for i in range(n + 1)]
cfg = spin.SpinModelConfig(v=vecs[0], axes=np.array(vecs[1:]))
smodel = selection.spin_model(cfg)

eager = selection.earliest_time_select(smodel, 1e-6, 0.01, 2.0, grid=100)
quasi = selection.quasi_dynamical_select(smodel, 1e-6, 0.01, 2.0, grid=100)
print("\nspin chain, first selected time:")
print(f"  earliest-time:   {eager.times[0]:.4f} (mid-interaction)")
print(f"  quasi-dynamical: {quasi.times[0]:.4f} (end of the interaction)")

n = 3
vecs = [sample_unit_vector(3, "real", rng.stream(f"b{i}"))
        for i in range(n + 1)]
cfg = spin.SpinModelConfig(v=vecs[0], axes=np.array(vecs[1:]))
smodel = selection.spin_model(cfg)
sel, comps = selection.retrodictive_select(smodel, range(1, n + 1))
print("\nretrodictive selection on the n = 3 chain:")
print("  accepted times:", sel.times)
probs = sorted(sel.tree.probabilities().tolist())
print("  history probabilities:", [round(p, 4) for p in probs])
print(f"  zero-probability companion histories: {len(comps)}")
