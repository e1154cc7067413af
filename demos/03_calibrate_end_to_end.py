"""End-to-end mitigation on a synthetic amplified corpus.

Generates a corpus whose posteriors exaggerate each activity's training
gender ratio (an overconfident model), measures the amplification, then
projects the posteriors onto the constraint set and measures again.
Distributional amplification collapses to the solver margin; amplification
in the hard top predictions shrinks but survives, because picking an
argmax is itself an amplifier.
"""

import biascal as bc

config = bc.SynthConfig(
    n_activities=20,
    instances_per_activity=150,
    candidates_per_instance=4,
    bias_range=(0.1, 0.9),
    amplification_boost=1.0,
    gold_noise=0.05,
    seed=7,
)
corpus, stats = bc.generate(config)
print(f"corpus: {len(corpus)} instances, {corpus.n_activities} activities")

posteriors = bc.instance_posterior(corpus)
predictions = bc.map_predict(posteriors)
before = bc.build_report(corpus, stats, posteriors, predictions, gamma_eval=0.05)

cs = bc.ConstraintSet.from_stats(corpus, stats, gamma=0.001)
state = bc.solve(corpus, posteriors, cs, bc.SolverConfig(mode="full_batch"))
print(f"solved in {state.step} steps, max dual value {float(state.lam.max()):.3f}")

calibrated = bc.calibrate(corpus, posteriors, cs, state.lam)
predictions_after = bc.map_predict(calibrated)
after = bc.build_report(corpus, stats, calibrated, predictions_after, gamma_eval=0.05)

print(f"\n{'':24s} {'before':>8s} {'after':>8s}")
print(f"{'mean amp (distribution)':24s} {before.mean_amp_dist:8.4f} {after.mean_amp_dist:8.4f}")
print(f"{'mean amp (top)':24s} {before.mean_amp_top:8.4f} {after.mean_amp_top:8.4f}")
print(f"{'violations (dist)':24s} {before.n_violations_dist:8d} {after.n_violations_dist:8d}")
print(f"{'violations (top)':24s} {before.n_violations_top:8d} {after.n_violations_top:8d}")
print(f"{'accuracy':24s} {before.accuracy:8.4f} {after.accuracy:8.4f}")

moved = bc.kl_divergence(calibrated, posteriors)
print(f"\nKL(calibrated || original) = {moved:.4f} "
      f"({moved / len(corpus):.6f} per instance)")

print("\nper-activity ratios (first 8):")
print(f"{'activity':14s} {'b*':>6s} {'before':>8s} {'after':>8s}")
for entry_before, entry_after in list(zip(before.entries, after.entries))[:8]:
    print(
        f"{entry_before.activity:14s} {entry_before.b_star:6.3f} "
        f"{entry_before.bias_dist:8.3f} {entry_after.bias_dist:8.3f}"
    )
