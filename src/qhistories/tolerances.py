"""Every numerical threshold of the library, named once.

Each comment says what the constant bounds, whether absolutely (in the
units of the quantity) or relatively, and against what scale.  States are
normalised, so probabilities, Schmidt weights and path-state norms have
scale 1.  The tests pin every value: none may loosen, so a tolerance may
not grow and a floor of the closed-form candidate's Davis-Kahan bound
(SCREEN_*_FLOOR, SCREEN_RHO_ERROR) may not shrink.  A scan chunk is the
only judge of its rows, in the arithmetic of consistency.medium_pass and
nontrivial, so no margin stands between its verdicts and theirs.  Imports
nothing.
"""

# -- states, operators and spin axes
# ||psi| - 1| of a state given as normalised; absolute, scale 1
NORM_TOL = 1e-10
# max |H - H^dag|; relative to max(1, max |H_ij|)
HERMITICITY_TOL = 1e-10
# projector identities, and ||w|^2 - 1| of a spin axis; absolute, scale 1
PROJECTOR_TOL = 1e-10
# ||u| - 1| of a spin-chain axis; absolute, scale 1
UNIT_VECTOR_TOL = 1e-9
# |u . w| and |u x w| of adjacent axes of a generic chain; absolute, scale 1
GENERICITY_TOL = 1e-8
# |A(t) v| of a spin chain with no Schmidt axis; absolute, scale 1
BLOCH_NORM_TOL = 1e-12
# slack of a time-domain end test; absolute, in model time (scale t_max)
TIME_TOL = 1e-12

# -- Schmidt weights and degenerate eigenspaces
# Schmidt weight (density eigenvalue) of a dropped vector; absolute, scale 1
SCHMIDT_WEIGHT_TOL = 1e-12
# gap between two Schmidt weights treated as degenerate; absolute, scale 1
DEGENERACY_TOL = 1e-9
# |tr X - (d1 + d2)| of a degenerate pair's projector; absolute, scale d1+d2
TRACE_TOL = 1e-8
# tr(D^2) that splits a degenerate pair; absolute, scale (eigenvalues of A)^2
SPLIT_TOL = 1e-12

# -- probabilities and path states
# depth of a probability below 0; absolute, scale 1
NEGATIVE_PROBABILITY_TOL = 1e-12
# |sum p - 1| of a distribution; absolute, scale 1
DISTRIBUTION_SUM_TOL = 1e-8
# parent probability judged for non-triviality; absolute, scale 1
LIVE_PROBABILITY_TOL = 1e-14
# norm of a null path state; absolute, scale 1
NULL_STATE_TOL = 1e-12
# norm of a leaf with a companion (absolute), and s_2/s_1 of a product state
COMPANION_TOL = 1e-9
# norm of a vanishing term of op(t) state as t -> 0+; relative to |state|
LIMIT_TOL = 1e-9

# -- consistency
# violation of an exactly consistent set; relative to max(1, max D_aa)
EXACT_TOL = 1e-10
# medium violation after re-projection, the largest off-diagonal |D_ab| of
# the persistence probe, stacked over a scan chunk's admissible rows,
# which it decides both ways; absolute, on sub-normalised leaves
PERSISTENCE_TOL = 1e-9
# gain that still grows a greedy MPV subset; absolute, in units of Re D
MPV_GAIN_TOL = 1e-15
# |mpv_exact - (n-1) eps / 2| of a frame pair that `qhist dheg` and
# `qhist selftest` accept; absolute, in units of Re D (scale 1)
MPV_CLOSED_FORM_TOL = 1e-10
# recorded against recomputed run report and probabilities; absolute, scale 1
INTEGRITY_TOL = 1e-8
# Schmidt weight (eigenvalue of rho(t) = tr_E |psi><psi|) that both
# weights of a d1 = 2 row must exceed for its candidate to read rho's
# closed-form eigenvectors; far above SCHMIDT_WEIGHT_TOL, so an SVD of the
# row would find it of full rank; absolute, scale 1
SCREEN_WEIGHT_FLOOR = 1e-9
# gap between the two Schmidt weights of a d1 = 2 row that it must exceed
# for its candidate to read rho's closed-form eigenvectors: their
# projectors are then within 2 SCREEN_RHO_ERROR / gap of an SVD's
# (Davis-Kahan), which bounds how far the candidate moved from the SVD's;
# it feeds no verdict; absolute, scale 1
SCREEN_GAP_FLOOR = 1e-1
# norm of the perturbation of rho(t) whose exact eigenvectors the closed
# form, or an SVD of psi(t), returns, the rounding of rho included: the
# Davis-Kahan bound on how far a gapped row's candidate sits from the
# SVD's; absolute, scale |rho| = 1
SCREEN_RHO_ERROR = 1e-14

# -- test oracles
# a fast path against its oracle; relative to the largest reference entry
ORACLE_RTOL = 1e-12
# a printed float against the golden corpus; relative to the largest
# magnitude of its column, and no tighter than fmt's 12 significant digits
GOLDEN_RTOL = 1e-10
