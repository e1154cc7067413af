"""In-process spans around the package functions that ``biascal.cli`` calls.

Each wrapped name is replaced in the ``biascal.cli`` namespace only, for the
duration of one ``main`` call, so no program file changes and the package's
internal calls stay untraced. A function called once per instance is kept as
one span per name with a call count. Every span's parent is ``cli.main``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from types import ModuleType
from typing import Callable, Iterator

# The public functions biascal.cli imports, by the name it calls them with.
WRAPPED = (
    "load_corpus",
    "load_training_stats",
    "excluded_activities",
    "instance_posterior",
    "map_predict",
    "build_report",
    "ConstraintSet.from_stats",
    "solve",
    "calibrate",
    "save_checkpoint",
)

# Called per instance: keep only totals, not arguments and results.
PER_INSTANCE = {"instance_posterior", "map_predict"}

# Spans each subcommand must produce; a missing one means the CLI stopped
# calling the function through the traced name.
EXPECTED = {
    "report": ("load_corpus", "load_training_stats", "excluded_activities",
               "instance_posterior", "map_predict", "build_report"),
    "calibrate": WRAPPED,
}


class TraceError(RuntimeError):
    """The CLI no longer calls a traced function by its traced name."""


class _ClassProxy:
    """Forwards attribute reads to a class, except the overridden ones."""

    def __init__(self, cls: type, **overrides: Callable) -> None:
        self._cls = cls
        self.__dict__.update(overrides)

    def __getattr__(self, name: str):
        return getattr(self._cls, name)


class Tracer:
    """Summed seconds and call counts per wrapped name, for one ``main`` call."""

    def __init__(self) -> None:
        self.totals: dict[str, list] = {name: [0.0, 0] for name in WRAPPED}
        self.last: dict[str, tuple] = {}

    def wrap(self, name: str, fn: Callable) -> Callable:
        span = self.totals[name]
        keep = name not in PER_INSTANCE
        last = self.last
        clock = time.perf_counter

        def traced(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            span[0] += clock() - start
            span[1] += 1
            if keep:
                last[name] = (args, result)
            return result

        return traced

    def check_called(self, subcommand: str) -> None:
        silent = [name for name in EXPECTED[subcommand] if self.totals[name][1] == 0]
        if silent:
            raise TraceError(f"biascal.cli {subcommand} never called: {', '.join(silent)}")


def check_names(cli: ModuleType) -> None:
    """Fail loudly when a wrapped name has gone from biascal.cli."""
    missing = []
    for name in WRAPPED:
        owner, _, attr = name.rpartition(".")
        target = getattr(cli, owner, None) if owner else cli
        if target is None or not callable(getattr(target, attr or name, None)):
            missing.append(name)
    if missing:
        raise TraceError(
            f"biascal.cli no longer has {', '.join(missing)}; update WRAPPED in bench/tracing.py"
        )


@contextmanager
def installed(cli: ModuleType, tracer: Tracer) -> Iterator[None]:
    """Swap the wrapped names in biascal.cli for traced ones, then restore them."""
    check_names(cli)
    functions = [name for name in WRAPPED if "." not in name]
    methods = [name.split(".") for name in WRAPPED if "." in name]  # one per class
    saved = {name: getattr(cli, name) for name in functions + [cls for cls, _ in methods]}
    try:
        for name in functions:
            setattr(cli, name, tracer.wrap(name, saved[name]))
        for cls, method in methods:
            traced = tracer.wrap(f"{cls}.{method}", getattr(saved[cls], method))
            setattr(cli, cls, _ClassProxy(saved[cls], **{method: traced}))
        yield
    finally:
        for name, value in saved.items():
            setattr(cli, name, value)
