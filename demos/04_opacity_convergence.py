"""
Convergence in opacity: the new variant approaches the exact sphere.

As kappa grows the sphere becomes more opaque, the diffusion closure more
accurate, and the new variant's stationary J, H, K converge to the exact
moments; the old variant stalls at its edge overshoot.  Errors are shell
weighted relative L2 norms; fitted log-log slopes summarize the rates.
(The full-resolution sweep lives in the acceptance tests and the CLI
``convergence`` experiment; this demo uses a lighter grid.)
"""

from idsa_lab import make_uniform_grid
from idsa_lab.diagnostics import (
    convergence_sweep,
    fit_power_law,
    oracle_moments_for,
)

kappas = [1.0, 2.0, 5.0, 10.0, 20.0, 50.0]
grid = make_uniform_grid(18.0, 3000)

print("computing exact moments once per opacity ...")
oracle = oracle_moments_for(kappas, grid, 6.0, 1.0, tol=1e-10)

for variant in ("new", "old"):
    records = convergence_sweep(kappas, 6.0, 1.0, grid, variant, oracle)
    print(f"\n-- {variant} variant --")
    print(f"   {'kappa':>6} {'errJ':>9} {'errH':>9} {'errK':>9}")
    for rec in records:
        print(f"   {rec.kappa:6.0f} {rec.errJ:9.5f} {rec.errH:9.5f} {rec.errK:9.5f}")
    for name in ("errJ", "errH", "errK"):
        fit = fit_power_law(kappas, [getattr(r, name) for r in records])
        print(f"   {name}: fitted order {fit.exponent:+.3f}")

print(
    "\nthe new variant's J error follows roughly kappa^-1/2 (the edge layer"
    "\nshrinks like 1/kappa and contributes its square root to the norm);"
    "\nH and K carry an extra edge-closure mismatch that decays like 1/kappa,"
    "\nsteepening their fitted slopes over this opacity window."
)
