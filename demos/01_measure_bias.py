"""Measure gender bias in a tiny hand-built corpus.

Builds three scored instances of a "cooking" activity, computes their
posteriors, and walks through the bias numbers: the training ratio, the
ratio in the posterior mass, the ratio among top predictions, and the
amplification scores that compare them.
"""

import io
import json

import biascal as bc

# Each line is one instance: a list of scored (activity, gender) candidates.
# Scores are unnormalized log-potentials, as a structured model would emit.
corpus_jsonl = "\n".join(
    json.dumps(record)
    for record in [
        {
            "id": "img_0",
            "gold": 0,
            "candidates": [
                {"activity": "cooking", "gender": "M", "score": 1.2},
                {"activity": "cooking", "gender": "W", "score": 0.4},
                {"activity": "driving", "gender": "-", "score": -0.5},
            ],
        },
        {
            "id": "img_1",
            "gold": 1,
            "candidates": [
                {"activity": "cooking", "gender": "M", "score": 0.9},
                {"activity": "cooking", "gender": "W", "score": 0.7},
            ],
        },
        {
            "id": "img_2",
            "gold": 1,
            "candidates": [
                {"activity": "cooking", "gender": "M", "score": 0.1},
                {"activity": "cooking", "gender": "W", "score": 0.6},
            ],
        },
    ]
)

# The training set saw cooking with 40% male agents.
stats_json = json.dumps({"cooking": {"male": 40, "female": 60}})

corpus = bc.load_corpus(io.StringIO(corpus_jsonl))
stats = bc.load_training_stats(io.StringIO(stats_json))

posteriors = bc.instance_posterior(corpus)
predictions = bc.map_predict(posteriors)

print("per-instance posteriors:")
for i, inst_id in enumerate(corpus.ids):
    row = posteriors.probs[corpus.offsets[i]:corpus.offsets[i + 1]]
    print(f"  {inst_id}: {[round(float(p), 3) for p in row]}")

# The report works out the numbers of every constrained activity at once;
# cooking is the only one here ("driving" has no gendered candidate).
report = bc.build_report(corpus, stats, posteriors, predictions, gamma_eval=0.05)
cooking = next(entry for entry in report.entries if entry.activity == "cooking")

print(f"\ntraining male ratio (b*):        {cooking.b_star:.3f}")
print(f"male ratio in posterior mass:    {cooking.bias_dist:.3f}")
print(f"male ratio in top predictions:   {cooking.bias_top:.3f}")
print(f"amplification (distribution):    {cooking.amp_dist:+.3f}")
print(f"amplification (top predictions): {cooking.amp_top:+.3f}")

# It also counts violations of |amplification| <= gamma over those activities.
print(f"\nviolations at margin 0.05: {report.n_violations_dist} (distribution), "
      f"{report.n_violations_top} (top)")
print(f"MAP accuracy vs gold: {report.accuracy:.3f}")
