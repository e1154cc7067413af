"""Show that the full-batch dual solve reaches the KL projection.

The full-batch (projected Newton) ascent on the dual stops at a dual vector
whose calibrated posterior meets the ratio constraint, and by strong duality
the dual value there equals the divergence of that posterior from the
original. The script also traces the dual objective along the active
coordinate so the maximum is visible.
"""

import numpy as np

import biascal as bc
from biascal.solver import dual_objective

corpus, stats = bc.generate(
    bc.SynthConfig(
        n_activities=1,
        instances_per_activity=5,
        candidates_per_instance=3,
        bias_range=(0.25, 0.25),
        amplification_boost=1.5,
        seed=11,
    )
)
posteriors = bc.instance_posterior(corpus)
cs = bc.ConstraintSet.from_stats(corpus, stats, gamma=0.001)


def posterior_ratio(table):
    """The activity's male share of its gendered posterior mass, read off the bias report."""
    report = bc.build_report(corpus, stats, table, bc.map_predict(table), gamma_eval=0.05)
    return report.entries[0].bias_dist


bias_before = posterior_ratio(posteriors)
print(f"training ratio {float(cs.b_star[0]):.3f}, posterior ratio {bias_before:.3f}")

state = bc.solve(
    corpus, posteriors, cs, bc.SolverConfig(mode="full_batch", convergence_tol=1e-10)
)
solved = bc.calibrate(corpus, posteriors, cs, state.lam)

print(f"\nsolver lam: {np.round(state.lam, 6)}  ({state.step} steps)")

kl_solver = bc.kl_divergence(solved, posteriors)
print(f"KL from original: solver {kl_solver:.6f}")
print(f"ratio after solver: {posterior_ratio(solved):.4f}")

# strong duality: at the optimum the dual objective equals the divergence
j_star = dual_objective(state.lam, corpus, posteriors, cs)
print(f"dual value at optimum {j_star:.6f} (duality gap {abs(j_star - kl_solver):.2e})")

active = int(np.argmax(state.lam))
print(f"\ndual objective along the active coordinate (lam[{active}]):")
for s in np.linspace(0.0, 2.0 * max(state.lam[active], 1.0), 9):
    lam = state.lam.copy()
    lam[active] = s
    marker = " <- solver" if abs(s - state.lam[active]) < 1e-9 else ""
    print(f"  lam[{active}] = {s:7.4f}:  J = {dual_objective(lam, corpus, posteriors, cs):9.6f}{marker}")
