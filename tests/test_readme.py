"""The README's examples run as written: its Python sketch and every ``entot`` command."""

import os
import re
import shlex

import numpy as np

from entot import cli
from entot.measures import Grid1D, GridMeasure, write_measure_csv

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _blocks(lang):
    with open(README) as fh:
        text = fh.read()
    return re.findall(rf"^```{lang}\n(.*?)^```", text, flags=re.M | re.S)


def _commands():
    """Each ``entot ...`` command of the README's sh blocks, continuations joined, split."""
    lines = "\n".join(_blocks("sh")).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("entot ")]


def test_readme_python_sketch_runs(tmp_path, monkeypatch):
    (sketch,) = _blocks("python")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(sketch, "README.md", "exec"), namespace)
    assert namespace["res"].report.converged


def test_readme_commands_run_in_order(tmp_path, monkeypatch):
    g = Grid1D(0.0, 1.0, 32)
    x = g.centers
    densities = {
        "mu.csv": 1.0 + 0.4 * np.sin(2 * np.pi * x),
        "nu.csv": 1.0 + 0.4 * np.cos(2 * np.pi * x),
        "f.csv": 1.0 + 0.5 * np.cos(4 * np.pi * x),
    }
    for name, density in densities.items():
        write_measure_csv(tmp_path / name, GridMeasure(g, density, renormalize=True))
    monkeypatch.chdir(tmp_path)
    commands = _commands()
    # the README shows every subcommand
    assert {args[0] for args in commands} == set(cli._COMMANDS)
    for args in commands:
        outputs = [
            args[i + 1] for i, flag in enumerate(args)
            if flag == "--out" or (flag == "--plan" and args[0] == "solve")
        ]
        for path in outputs:
            if os.path.exists(path):
                os.remove(path)
        assert cli.main(args) == 0, args
        for path in outputs:
            assert os.path.isfile(path), (args, path)
