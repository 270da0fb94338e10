"""The benchmark (perfbench/) names only functions and flags that entot has."""

import importlib.util
import os
import sys

import entot
import entot.cli  # the tracer reaches every module, cli included, through the package

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_every_traced_span_resolves_on_entot(monkeypatch):
    launch = _load("launch", monkeypatch)
    wanted = [(module, name) for module, names, _ in launch.SPANS.values() for name in names]
    assert wanted
    missing = [
        (module, name) for module, name in wanted
        if not callable(getattr(getattr(entot, module), name, None))
    ]
    assert missing == []


def test_every_benchmark_command_line_parses(monkeypatch):
    # run.py sets thread and allocator variables at import; a plain dict keeps
    # them out of this process's environment and of the processes it starts
    monkeypatch.setattr(os, "environ", dict(os.environ))
    monkeypatch.syspath_prepend(PERFBENCH)  # run.py imports checks and problems beside it
    run = _load("run", monkeypatch)
    argvs = [argv for workload in run.WORKLOADS.values() for argv in workload.jobs()]
    assert argvs
    parser = entot.cli._build_parser()
    for argv in argvs:
        parser.parse_args(argv)  # an unknown flag exits 2
