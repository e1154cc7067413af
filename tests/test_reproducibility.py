"""Outputs across numpy's CPU dispatch classes.

Within one numpy build and dispatch class the outputs are byte-identical
(criterion 8). Across classes a vectorized loop may round differently, so
this pins how far they may drift. The same pipeline runs in two fresh
interpreters: `synth`, then a stochastic and a full-batch `calibrate`. One
keeps the inherited environment; the other switches off every AVX512-class
dispatch target the host runs, through ``NPY_DISABLE_CPU_FEATURES``. Every
integer report field and both solvers' step counts must agree exactly, the
calibrated probabilities to 1e-15 and the dual vector to 1e-12 of its
largest entry. A host without such a target runs the same pipeline twice,
which must agree exactly and so passes too.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from numpy.testing import assert_allclose, assert_array_equal

import biascal as bc

# The host's active AVX512-class dispatch targets, space-separated. Only
# dispatch targets are named: numpy warns at import about any other feature.
TARGETS = """
try:
    from numpy._core import _multiarray_umath as umath
except ImportError:  # numpy 1.x
    from numpy.core import _multiarray_umath as umath
print(" ".join(name for name in umath.__cpu_dispatch__
               if (name.startswith("AVX512") or name == "X86_V4")
               and umath.__cpu_features__.get(name) and name not in umath.__cpu_baseline__))
"""

PIPELINE = """
import sys
from biascal.cli import main
out = sys.argv[1]
data = ["--corpus", f"{out}/data/corpus.jsonl", "--stats", f"{out}/data/stats.json"]
for argv in (["synth", "--out", f"{out}/data", "--n-activities", "10",
              "--instances-per-activity", "150", "--boost", "1", "--seed", "93"],
             ["calibrate", *data, "--out", f"{out}/stochastic", "--mode", "stochastic"],
             ["calibrate", *data, "--out", f"{out}/full-batch", "--mode", "full-batch"]):
    if main(argv):
        sys.exit(f"biascal {argv[0]} failed")
"""


def child(code: str, *argv, env: dict[str, str]) -> str:
    """What ``code`` prints in a fresh interpreter that imports this biascal."""
    src = str(Path(bc.__file__).resolve().parents[1])
    env = dict(env, PYTHONPATH=os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", code, *map(str, argv)], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    return result.stdout


def assert_reports_agree(ours, theirs, where="report"):
    """Equal structure, strings, integers and booleans; floats within 1e-12."""
    if isinstance(ours, dict):
        assert isinstance(theirs, dict) and list(ours) == list(theirs), where
        for key in ours:
            assert_reports_agree(ours[key], theirs[key], f"{where}.{key}")
    elif isinstance(ours, list):
        assert isinstance(theirs, list) and len(ours) == len(theirs), where
        for i, (a, b) in enumerate(zip(ours, theirs)):
            assert_reports_agree(a, b, f"{where}[{i}]")
    elif isinstance(ours, float):
        assert isinstance(theirs, float) and math.isclose(ours, theirs, rel_tol=0, abs_tol=1e-12), \
            (where, ours, theirs)
    else:
        assert type(ours) is type(theirs) and ours == theirs, (where, ours, theirs)


def calibrated_rows(path: Path):
    """(id, activity, gender) of each calibrated row, and its probability."""
    keys, probs = [], []
    for line in path.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        for candidate in record["candidates"]:
            keys.append((record["id"], candidate["activity"], candidate["gender"]))
            probs.append(candidate["prob"])
    return keys, np.array(probs)


def test_outputs_agree_across_cpu_dispatch_classes(tmp_path):
    inherited = dict(os.environ)
    targets = child(TARGETS, env=inherited).split()
    narrowed = dict(inherited)
    if targets:
        narrowed["NPY_DISABLE_CPU_FEATURES"] = " ".join(
            filter(None, [inherited.get("NPY_DISABLE_CPU_FEATURES"), *targets]))
    ours, theirs = tmp_path / "inherited", tmp_path / "narrowed"
    child(PIPELINE, ours, env=inherited)
    child(PIPELINE, theirs, env=narrowed)

    corpora = [bc.load_corpus(out / "data" / "corpus.jsonl") for out in (ours, theirs)]
    assert corpora[0].activities == corpora[1].activities and corpora[0].ids == corpora[1].ids
    for name in ("offsets", "activity", "gender", "gold"):
        assert_array_equal(getattr(corpora[0], name), getattr(corpora[1], name))
    assert_allclose(corpora[0].score, corpora[1].score, rtol=1e-12)

    for mode in ("stochastic", "full-batch"):
        for report in ("report_before.json", "report_after.json"):
            assert_reports_agree(*(json.loads((out / mode / report).read_text())
                                   for out in (ours, theirs)), f"{mode}/{report}")
        (keys, probs), (their_keys, their_probs) = (
            calibrated_rows(out / mode / "calibrated.jsonl") for out in (ours, theirs))
        assert keys == their_keys
        assert_allclose(probs, their_probs, rtol=0, atol=1e-15)
        checkpoint, their_checkpoint = (
            json.loads((out / mode / "checkpoint.json").read_text()) for out in (ours, theirs))
        assert checkpoint["step"] == their_checkpoint["step"]
        lam, their_lam = np.array(checkpoint["lambda"]), np.array(their_checkpoint["lambda"])
        # lambda holds exact zeros, so the bound is relative to its largest entry, not per entry
        assert_allclose(lam, their_lam, rtol=0, atol=1e-12 * np.abs(lam).max())
