"""A fixed job that gauges how fast the host runs at the moment.

    python3 bench/reference.py <scratch-file>

It does the same kinds of work as a biascal run, at a fixed size and from
a fixed seed: interpreter start and the numpy import, a JSONL write and
parse, a per-record softmax over small arrays, mini-batch gradient steps
that gather rows, and a JSONL write of the results. It imports nothing from
biascal and reads no input, so its work is the same on every commit and
every workload seed. The benchmark runs it between the program's runs and
divides the program's times by its times, which takes out most of the
slowdown other tenants of a shared host cause.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

RECORDS = 24000
CANDIDATES = 4
LABELS = 10
STEPS = 9000
BATCH = 39


def main(path: str) -> int:
    rng = np.random.default_rng(20050625)
    label = rng.integers(0, LABELS, (RECORDS, CANDIDATES))
    score = rng.standard_normal((RECORDS, CANDIDATES))
    with open(path, "w", encoding="utf-8") as handle:
        for i in range(RECORDS):
            cands = [{"label": f"l{label[i, j]}", "tag": "MW"[j % 2], "score": float(score[i, j])}
                     for j in range(CANDIDATES)]
            handle.write(json.dumps({"id": f"r{i:06d}", "candidates": cands}) + "\n")

    probs = []
    codes = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            values = np.array([c["score"] for c in record["candidates"]])
            shifted = np.exp(values - values.max())
            probs.append(shifted / shifted.sum())
            codes.append([int(c["label"][1:]) for c in record["candidates"]])
    flat = np.concatenate(probs)
    code = np.array(codes).ravel()

    lam = np.zeros(LABELS)
    moment = np.zeros(LABELS)
    picks = rng.integers(0, RECORDS, (STEPS, BATCH))
    for step, batch in enumerate(picks, start=1):
        rows = (batch[:, None] * CANDIDATES + np.arange(CANDIDATES)).ravel()
        grad = np.bincount(code[rows], weights=flat[rows], minlength=LABELS) / BATCH - 0.1
        moment = 0.9 * moment + 0.1 * grad
        lam = np.maximum(lam - 0.01 * moment / (1.0 - 0.9**step), 0.0)

    with open(path, "w", encoding="utf-8") as handle:
        for i, p in enumerate(probs):
            handle.write(json.dumps({"id": f"r{i:06d}", "prob": [float(x) for x in p]}) + "\n")
    os.remove(path)
    print(f"{float(lam.sum()):.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
