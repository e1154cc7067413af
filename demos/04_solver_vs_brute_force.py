"""Check the dual solver against exhaustive grid search.

On a problem small enough to enumerate, the projected posterior found by
the full-batch (projected Newton) ascent on the dual must coincide with the
feasible minimum-divergence point found by brute force over the dual grid. The script also traces the
dual objective along the active coordinate so the maximum is visible.
"""

import numpy as np

import biascal as bc
from biascal.solver import brute_force_project, dual_objective

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
posteriors = [bc.instance_posterior(inst) for inst in corpus.instances]
cs = bc.ConstraintSet.from_stats(corpus, stats, gamma=0.001)

bias_before = bc.bias_in_distribution(posteriors, corpus, 0)
print(f"training ratio {float(cs.b_star[0]):.3f}, posterior ratio {bias_before:.3f}")

state = bc.solve(
    corpus, posteriors, cs, bc.SolverConfig(mode="full_batch", convergence_tol=1e-10)
)
solved = bc.calibrate(corpus, posteriors, cs, state.lam)
oracle, oracle_lam = brute_force_project(corpus, posteriors, cs)

print(f"\nsolver lam: {np.round(state.lam, 6)}  ({state.step} steps)")
print(f"oracle lam: {np.round(oracle_lam, 6)}")

max_tv = max(
    0.5 * float(np.abs(a.probs - b.probs).sum()) for a, b in zip(solved, oracle)
)
kl_solver = bc.kl_divergence(solved, posteriors)
kl_oracle = bc.kl_divergence(oracle, posteriors)
print(f"max per-instance TV distance: {max_tv:.2e}")
print(f"KL from original: solver {kl_solver:.6f}, oracle {kl_oracle:.6f}")
print(f"ratio after solver: {bc.bias_in_distribution(solved, corpus, 0):.4f}")

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
