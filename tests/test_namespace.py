"""The package namespace: every public name and submodule resolves on first use."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import biascal as bc

# The public API, in the order `__all__` lists it.
PUBLIC = [
    "ActivityBias", "BiasCalError", "BiasReport", "ConstraintSet",
    "Corpus", "CorpusFormatError", "DegenerateDistributionError", "DualState",
    "EquivalenceCheck", "GenderCount", "PosteriorTable",
    "SolverConfig", "SolverDivergenceError", "SynthConfig", "TrainingStats",
    "UndefinedBiasError", "ValidationError", "build_report", "calibrate", "check_equivalence",
    "constrained_activities", "corpus_expectation", "dual_gradient", "dual_objective",
    "dump_corpus", "dump_training_stats", "excluded_activities", "generate",
    "instance_posterior", "kl_divergence", "load_checkpoint", "load_corpus",
    "load_training_stats", "map_predict", "save_checkpoint", "solve",
]
SUBMODULES = ["cli", "constraints", "corpus", "distribution", "errors", "metrics", "solver",
              "synth"]


def test_all_is_unchanged():
    assert bc.__all__ == PUBLIC


@pytest.mark.parametrize("name", PUBLIC)
def test_every_public_name_is_its_submodules_object(name):
    value = getattr(bc, name)
    assert value is getattr(importlib.import_module(value.__module__), name)
    assert value.__module__.startswith("biascal.")


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from biascal import *", namespace)
    assert {name: namespace[name] for name in PUBLIC} == {name: getattr(bc, name)
                                                          for name in PUBLIC}


def test_dir_lists_public_names_and_submodules():
    listed = dir(bc)
    assert set(PUBLIC) | set(SUBMODULES) <= set(listed)
    assert listed == sorted(listed)


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_is_an_attribute(name):
    assert getattr(bc, name) is importlib.import_module(f"biascal.{name}")


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'biascal' has no attribute 'no_such_name'"):
        bc.no_such_name
    assert not hasattr(bc, "__main__")


def test_bare_import_loads_no_submodule_until_one_is_used():
    src = str(Path(bc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, biascal\n"
        "print(sorted(m for m in sys.modules if m.startswith('biascal.')))\n"
        "print(biascal.solver.__name__, biascal.solve.__module__)\n"
        "print(sorted(m for m in sys.modules if m.startswith('biascal.')))\n"
    )
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True, timeout=60)
    before, used, after = result.stdout.splitlines()
    assert before == "[]"
    assert used == "biascal.solver biascal.solver"
    assert "'biascal.solver'" in after and "'biascal.cli'" not in after
