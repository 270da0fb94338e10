"""The benchmark's tracer (perfbench/launch.py) names only functions that entot has."""

import importlib.util
import os

import entot
import entot.cli  # the tracer reaches every module, cli included, through the package

LAUNCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "launch.py")


def test_every_traced_span_resolves_on_entot():
    spec = importlib.util.spec_from_file_location("perfbench_launch", LAUNCH)
    launch = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(launch)
    wanted = [(module, name) for module, names, _ in launch.SPANS.values() for name in names]
    assert wanted
    missing = [
        (module, name) for module, name in wanted
        if not callable(getattr(getattr(entot, module), name, None))
    ]
    assert missing == []
