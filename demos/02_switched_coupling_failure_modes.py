"""
Two failure modes of the min-max switched coupling.

The original two-component scheme transfers particles from the trapped to
the streaming field through Sigma = min(max(-D[Jt] + kappa_a Js, 0),
kappa_a B).  The switch can pick the wrong branch:

1. Spurious trapped: in a weakly absorbing region (kappa_a = eps) with a
   locally flat trapped profile, Sigma = kappa_a Js < kappa_a B, so the
   trapped component grows at rate eps until it dominates the streaming
   region.  The takeover time scales like 1/eps.

2. Coupling instability: at the sharp opaque/transparent edge the discrete
   diffusion term is O(1/dr^2), so on fine grids the switch caps at
   kappa_a B inside the sphere, eroding the trapped plateau inward and
   leaving a non-monotone (unphysical) profile.  Coarse grids never
   trigger it; the solution stays bounded by B either way.
"""

import numpy as np

from idsa_lab import (
    ProblemSpec,
    SolverConfig,
    make_uniform_grid,
    run_instability_experiment,
    run_spurious_trapped_experiment,
)
from idsa_lab.diagnostics import fit_power_law

spec = ProblemSpec(B=1.0, R=6.0, kappa=1.0)
grid50 = make_uniform_grid(18.0, 50)
cfg = SolverConfig(dt=0.1, t_end=1000.0, stationarity_tol=1e-8)

print("-- spurious trapped takeover times --")
eps_list = np.logspace(-1, -3, 7)
# A t_end far past the slowest takeover, so that no eps is censored.
records = run_spurious_trapped_experiment(eps_list, spec, grid50, SolverConfig(dt=0.1, t_end=1e6))
for rec in records:
    print(f"   eps = {rec.eps:8.2e}   takeover t = {rec.time:9.1f}")
fit = fit_power_law([r.eps for r in records], [r.time for r in records])
print(f"   log-log slope: {fit.exponent:+.3f}  (theory: -1; the growth rate is eps)")

print("\n-- coupling instability: coarse grid is immune, fine grid is not --")
coarse = run_instability_experiment(spec, grid50, cfg, snapshot_times=(50.0, 200.0))
print(f"   N = 50   : non-monotone trapped profile? "
      f"{coarse.first_nonmonotone_time is not None}   sup(Jt+Js) = {coarse.sup_total:.6f}")

grid_fine = make_uniform_grid(18.0, 4000)
fine = run_instability_experiment(
    spec, grid_fine, SolverConfig(dt=0.1, t_end=60.0, stationarity_tol=1e-8),
    snapshot_times=(10.0, 30.0, 60.0),
)
print(f"   N = 4000 : non-monotone from t = {fine.first_nonmonotone_time}   "
      f"sup(Jt+Js) = {fine.sup_total:.9f} (bounded)")
print("   virtual boundary (edge of the intact trapped plateau) moves inward:")
for s in fine.snapshots:
    print(f"      t = {s.t:6.1f}   r_vb = {s.virtual_boundary:.3f}   "
          f"non-monotone now: {s.nonmonotone}")
print("   the eroded zone chatters around B/2 while staying bounded; this is")
print("   a modeling artifact of the switch, not a blowing-up discretization.")
