import csv
import dataclasses
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import entot
from entot import cli, measures, solver
from entot import gamma_limit as gl
from entot.measures import (
    AtomicMeasure,
    Grid1D,
    GridMeasure,
    ProductDensity,
    product_measure,
    write_measure_csv,
    write_product_csv,
)


@pytest.fixture
def marginal_files(tmp_path):
    g = Grid1D(0.0, 1.0, 48)
    x = g.centers
    mu = GridMeasure(g, 1.0 + 0.4 * np.sin(2 * np.pi * x), renormalize=True)
    nu = GridMeasure(g, 1.0 + 0.4 * np.cos(2 * np.pi * x), renormalize=True)
    mu_path = tmp_path / "mu.csv"
    nu_path = tmp_path / "nu.csv"
    write_measure_csv(mu_path, mu)
    write_measure_csv(nu_path, nu)
    return str(mu_path), str(nu_path)


def run(args):
    return cli.main(args)


def test_parse_config_precedence_and_provenance(tmp_path, marginal_files):
    mu, nu = marginal_files
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"gamma": 0.5, "tol": 1e-8, "mu": mu, "nu": nu}))
    cfg, violations = cli.parse_config(
        ["solve", "--config", str(cfg_path), "--gamma", "0.25"]
    )
    assert violations == []
    assert cfg.options["gamma"] == 0.25
    assert cfg.provenance["gamma"] == "flag"
    assert cfg.options["tol"] == 1e-8
    assert cfg.provenance["tol"] == "config"
    assert cfg.provenance["mode"] == "default"


def test_parse_config_lists_every_violation():
    _, violations = cli.parse_config(["solve", "--gamma", "-2", "--tol", "0"])
    messages = [m for _, m in violations]
    assert any("--mu" in m for m in messages)
    assert any("--nu" in m for m in messages)
    assert any("--gamma" in m for m in messages)
    assert any("--tol" in m for m in messages)


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        run(["frobnicate"])
    assert err.value.code == 2


def test_parameter_error_exit_code(marginal_files):
    mu, nu = marginal_files
    assert run(["solve", "--mu", mu, "--nu", nu, "--gamma", "-1"]) == 3


def test_missing_file_exit_code(tmp_path):
    missing = str(tmp_path / "absent.csv")
    assert run(["solve", "--mu", missing, "--nu", missing, "--gamma", "1"]) == 4
    assert run(["solve", "--config", str(tmp_path / "no.json")]) == 4


def test_violations_are_listed_in_option_order(tmp_path, marginal_files, capsys):
    _, nu = marginal_files
    missing = str(tmp_path / "absent.csv")
    assert run(["solve", "--mu", missing, "--nu", nu]) == 3
    assert capsys.readouterr().err.splitlines() == [
        f"error: --mu: file not found: {missing}",
        "error: --gamma is required",
    ]


def test_python_m_entot_cli_exits_with_the_code_of_main(tmp_path, marginal_files):
    mu, nu = marginal_files
    src = os.path.dirname(os.path.dirname(entot.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    command = [sys.executable, "-m", "entot.cli", "solve"]
    done = subprocess.run([*command, "--config", "missing.json"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 4
    assert done.stderr == "error: config file not found: missing.json\n"
    done = subprocess.run([*command, "--mu", mu, "--nu", nu, "--gamma", "-1"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 3
    assert done.stderr.startswith("error: --gamma: ")


@pytest.mark.parametrize("out", ["same.txt", "./same.txt"])
def test_solve_refuses_a_plan_on_the_path_of_out(tmp_path, marginal_files, monkeypatch, capsys, out):
    mu, nu = marginal_files
    monkeypatch.chdir(tmp_path)
    code = run(["solve", "--mu", mu, "--nu", nu, "--gamma", "0.2", "--out", out, "--plan", "same.txt"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --plan: names the same file as --out (same.txt)\n"
    assert sorted(os.listdir(tmp_path)) == ["mu.csv", "nu.csv"]  # the inputs alone


@pytest.mark.parametrize("argv, message", [
    (["solve", "--mu", "mu.csv", "--nu", "nu.csv", "--gamma", "0.2", "--out", "mu.csv"],
     "--out: names the same file as --mu (mu.csv)"),
    (["solve", "--mu", "mu.csv", "--nu", "nu.csv", "--gamma", "0.2", "--plan", "sub/../nu.csv"],
     "--plan: names the same file as --nu (sub/../nu.csv)"),
    (["sweep-gamma", "--mu", "mu.csv", "--nu", "nu.csv", "--gammas", "0.2", "--out-dir", ".",
      "--out", "nu.csv"], "--out: names the same file as --nu (./nu.csv)"),
    (["solve", "--config", "cfg.json", "--gamma", "0.2", "--out", "cfg.json"],
     "--out: names the same file as --config (cfg.json)"),
    (["solve", "--mu", "mu.csv", "--nu", "nu.csv", "--gamma", "0.2", "--cost", "file:cost.csv",
      "--out", "cost.csv"], "--out: names the same file as --cost (cost.csv)"),
    (["check-optimality", "--mu", "mu.csv", "--nu", "nu.csv", "--gamma", "0.2", "--plan", "plan.csv",
      "--out", "plan.csv"], "--out: names the same file as --plan (plan.csv)"),
    (["entropy", "--input", "mu.csv", "--out", "mu.csv"],
     "--out: names the same file as --input (mu.csv)"),
])
def test_an_output_on_the_file_of_an_input_is_refused_before_anything_is_written(
    tmp_path, marginal_files, monkeypatch, capsys, argv, message
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    mu, nu = (measures.read_measure_csv(name) for name in ("mu.csv", "nu.csv"))
    write_product_csv("plan.csv", product_measure(mu, nu))
    write_product_csv("cost.csv", ProductDensity(mu.grid, nu.grid, np.ones((mu.grid.n, nu.grid.n))))
    (tmp_path / "cfg.json").write_text(json.dumps({"mu": "mu.csv", "nu": "nu.csv"}))
    before = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path) if name != "sub"}
    assert run(argv) == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    after = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path) if name != "sub"}
    assert after == before


def test_a_config_key_in_a_config_file_is_an_unknown_option(tmp_path, marginal_files, capsys):
    mu, nu = marginal_files
    nested, cfg_path = tmp_path / "nested.json", tmp_path / "cfg.json"
    out = tmp_path / "report.json"
    nested.write_text(json.dumps({"max_iter": 1}))
    cfg_path.write_text(json.dumps({"config": str(nested), "mu": mu, "nu": nu, "gamma": 0.2}))
    assert run(["solve", "--config", str(cfg_path), "--out", str(out), "--quiet"]) == 3
    assert capsys.readouterr().err == f"error: config file {cfg_path}: unknown option 'config'\n"
    assert not out.exists()


def test_an_unknown_config_key_is_an_invalid_parameter(tmp_path, marginal_files, capsys):
    mu, nu = marginal_files
    cfg_path = tmp_path / "cfg.json"
    out = tmp_path / "report.json"
    cfg_path.write_text(json.dumps({"mu": mu, "nu": nu, "gamma": 0.2, "max-iter": 3}))
    assert run(["solve", "--config", str(cfg_path), "--out", str(out), "--quiet"]) == 3
    assert capsys.readouterr().err == f"error: config file {cfg_path}: unknown option 'max-iter'\n"
    assert not out.exists()
    # a key of another subcommand's option is accepted, so one file serves both commands
    cfg_path.write_text(json.dumps({"mu": mu, "nu": nu, "gamma": 0.2, "gammas": [0.5, 0.2]}))
    assert run(["solve", "--config", str(cfg_path), "--out", str(out), "--quiet"]) == 0
    assert json.loads(out.read_text())["converged"] is True
    sweep = tmp_path / "sweep.csv"
    assert run(["sweep-gamma", "--config", str(cfg_path), "--out", str(sweep), "--quiet"]) == 0
    assert len(sweep.read_text().splitlines()) == 3


def test_solve_writes_report_with_fixed_keys(tmp_path, marginal_files):
    mu, nu = marginal_files
    out = tmp_path / "report.json"
    code = run(
        ["solve", "--mu", mu, "--nu", nu, "--gamma", "0.2", "--out", str(out), "--quiet"]
    )
    assert code == 0
    report = json.loads(out.read_text())
    for key in (
        "iterations",
        "residuals",
        "primal",
        "dual",
        "gap",
        "optimality_residual",
        "gauge_constant",
    ):
        assert key in report
    assert report["converged"] is True
    assert report["absorptions"] >= 1 and report["fallbacks"] == 0
    assert report["kernel"] == "dense" and "crossover" in report["kernel_reason"]
    assert report["sandwich_k"] >= 0 and report["sandwich_violation"] <= 1e-9
    assert report["provenance"]["gamma"] == "flag"


def test_solve_json_is_the_report(tmp_path, monkeypatch, marginal_files):
    reports = []

    def solve_logdomain(*args, **kwargs):
        result = real(*args, **kwargs)
        reports.append(result.report)
        return result

    real = solver.solve_logdomain
    monkeypatch.setattr(solver, "solve_logdomain", solve_logdomain)
    mu, nu = marginal_files
    out = tmp_path / "report.json"
    assert run(["solve", "--mu", mu, "--nu", nu, "--gamma", "0.2", "--out", str(out), "--quiet"]) == 0
    (report,) = reports
    renamed = {"residual_history": "residuals", "primal_value": "primal", "dual_value": "dual"}
    fields = {
        renamed.get(f.name, f.name): getattr(report, f.name) for f in dataclasses.fields(report)
    }
    written = json.loads(out.read_text())
    assert "transport_cost" in fields and set(written) == {*fields, "provenance"}
    for key, value in fields.items():
        assert written[key] == (list(value) if isinstance(value, tuple) else value), key


@pytest.mark.parametrize("command", ["solve", "orlicz-norm", "entropy", "check-optimality"])
def test_every_json_output_carries_the_provenance_of_every_option(tmp_path, marginal_files, command):
    mu, nu = marginal_files
    plan = str(tmp_path / "plan.csv")
    solve = ["solve", "--mu", mu, "--nu", nu, "--gamma", "0.2", "--quiet"]
    assert run([*solve, "--plan", plan, "--out", str(tmp_path / "first.json")]) == 0
    args = {
        "solve": solve[1:],
        "orlicz-norm": ["--input", mu],
        "entropy": ["--input", mu],
        "check-optimality": [*solve[1:], "--plan", plan],
    }[command]
    out = tmp_path / "out.json"
    assert run([command, *args, "--out", str(out)]) == 0
    provenance = json.loads(out.read_text())["provenance"]
    assert set(provenance) == {*cli._SHARED, *cli._COMMANDS[command].defaults}
    assert provenance["out"] == "flag" and provenance["out_dir"] == "default"


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_a_float_beyond_the_double_range_is_written_as_null(tmp_path):
    # at this gamma the solve converges, and its gauge factor exp(log gauge) overflows
    g = Grid1D(0.0, 1.0, 4)
    paths = []
    for name, wave in (("mu", np.sin), ("nu", np.cos)):
        paths.append(str(tmp_path / f"{name}.csv"))
        write_measure_csv(paths[-1], GridMeasure(g, 1.0 + 0.4 * wave(2 * np.pi * g.centers), renormalize=True))
    out = tmp_path / "report.json"
    argv = ["solve", "--mu", paths[0], "--nu", paths[1], "--gamma", "7e-5", "--tol", "1e-2",
            "--max-iter", "200000", "--out", str(out), "--quiet"]
    assert run(argv) == 0
    report = json.loads(out.read_text(), parse_constant=_refuse_constant)
    assert report["converged"] is True
    assert report["gauge_constant"] is None


def test_help_of_every_subcommand_names_its_flags(capsys):
    with pytest.raises(SystemExit) as err:
        run(["--help"])
    assert err.value.code == 0
    text = capsys.readouterr().out
    assert all(command in text for command in cli._COMMANDS)
    for command, spec in cli._COMMANDS.items():
        with pytest.raises(SystemExit) as err:
            run([command, "--help"])
        assert err.value.code == 0, command
        text = capsys.readouterr().out
        for key in ("config", *cli._SHARED, *spec.defaults):
            assert cli._flag(key) in text, (command, key)


def test_solve_report_names_the_fft_kernel(tmp_path, monkeypatch, marginal_files):
    monkeypatch.setattr(solver, "_FFT_MIN_CELLS", 0)
    mu, nu = marginal_files
    out = tmp_path / "report.json"
    assert run(["solve", "--mu", mu, "--nu", nu, "--gamma", "0.2", "--out", str(out), "--quiet"]) == 0
    report = json.loads(out.read_text())
    assert (report["kernel"], report["kernel_reason"]) == ("fft", "")
    assert (report["absorptions"], report["fallbacks"]) == (0, 0)


def test_solve_rerun_is_byte_identical(tmp_path, marginal_files):
    mu, nu = marginal_files
    out = tmp_path / "report.json"
    args = ["solve", "--mu", mu, "--nu", nu, "--gamma", "0.3", "--out", str(out), "--quiet"]
    assert run(args) == 0
    first = out.read_bytes()
    assert run(args) == 0
    assert out.read_bytes() == first


def test_solve_nonconvergence_exit_code_and_report(tmp_path, marginal_files):
    mu, nu = marginal_files
    out = tmp_path / "report.json"
    code = run(
        ["solve", "--mu", mu, "--nu", nu, "--gamma", "0.05", "--max-iter", "2",
         "--out", str(out), "--quiet"]
    )
    assert code == 5
    assert json.loads(out.read_text())["converged"] is False


@pytest.mark.parametrize(
    "out, plan_is_dir",
    [("nodir/report.json", False), ("report.json", True)],
    ids=["missing-directory", "directory-target"],
)
def test_outputs_all_or_none_on_write_failure(tmp_path, marginal_files, out, plan_is_dir):
    mu, nu = marginal_files
    plan = tmp_path / "plan.csv"
    if plan_is_dir:
        plan.mkdir()
    code = run(
        ["solve", "--mu", mu, "--nu", nu, "--gamma", "0.2",
         "--out", str(tmp_path / out), "--plan", str(plan), "--quiet"]
    )
    assert code == 6
    assert not (tmp_path / out).is_file()
    assert not plan.is_file()
    assert list(tmp_path.rglob(".entot-*")) == []


@pytest.mark.parametrize("previous", [b"previous report\n", None], ids=["restored", "removed"])
def test_outputs_all_or_none_when_a_later_move_fails(tmp_path, marginal_files, monkeypatch, previous):
    mu, nu = marginal_files
    report = tmp_path / "report.json"
    plan = tmp_path / "plan.csv"
    if previous is not None:
        report.write_bytes(previous)
    real_replace = os.replace
    moves = []

    def replace(src, dst):
        moves.append(dst)
        if len(moves) == 2:
            raise OSError(5, "Input/output error")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    code = run(
        ["solve", "--mu", mu, "--nu", nu, "--gamma", "0.2",
         "--out", str(report), "--plan", str(plan), "--quiet"]
    )
    assert code == 6
    assert moves == [str(report), str(plan)]
    if previous is None:
        assert not report.exists()
    else:
        assert report.read_bytes() == previous
    assert not plan.exists()
    assert list(tmp_path.rglob(".entot-*")) == []


def test_solve_builds_the_plan_only_for_plan_flag(tmp_path, marginal_files, monkeypatch):
    mu, nu = marginal_files

    def unread(self):
        pytest.fail("solve read the plan without --plan")

    monkeypatch.setattr(solver.SolveResult, "plan", property(unread))
    out = tmp_path / "report.json"
    code = run(["solve", "--mu", mu, "--nu", nu, "--gamma", "0.2", "--out", str(out), "--quiet"])
    assert code == 0
    assert json.loads(out.read_text())["converged"] is True


def test_solve_refuses_an_oversized_plan_before_solving(tmp_path, marginal_files, monkeypatch, capsys):
    mu, nu = marginal_files
    # the FFT kernel takes the 48 x 48 block, but a plan on 48 x 48 cells is over budget
    monkeypatch.setattr(solver, "_FFT_MIN_CELLS", 0)
    monkeypatch.setattr(solver, "_DENSE_CELLS", 48 * 48 - 1)
    calls, real = [], solver.solve_logdomain
    monkeypatch.setattr(solver, "solve_logdomain", lambda *a, **k: calls.append(a) or real(*a, **k))
    monkeypatch.chdir(tmp_path)
    code = run(["solve", "--mu", mu, "--nu", nu, "--gamma", "0.2", "--plan", "plan.csv", "--quiet"])
    assert code == 3
    assert "plan exceeds the budget" in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "report.json").exists() and not (tmp_path / "plan.csv").exists()


def test_no_temp_file_left_when_a_write_fails(tmp_path, marginal_files, monkeypatch):
    mu, _ = marginal_files
    real_fdopen = os.fdopen

    class FullDisk:
        def __init__(self, fd, mode):
            self.fh = real_fdopen(fd, mode)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "fdopen", FullDisk)
    out = tmp_path / "e.json"
    assert run(["entropy", "--input", mu, "--out", str(out), "--quiet"]) == 6
    assert not out.exists()
    assert list(tmp_path.glob(".entot-*")) == []


def test_out_dir_prefixes_relative_paths(tmp_path, marginal_files, monkeypatch):
    mu, nu = marginal_files
    monkeypatch.chdir(tmp_path)
    code = run(
        ["solve", "--mu", mu, "--nu", nu, "--gamma", "0.2",
         "--out", "report.json", "--out-dir", str(tmp_path / "results"), "--quiet"]
    )
    # out-dir must already exist: staging fails inside a missing directory
    assert code == 6
    (tmp_path / "results").mkdir()
    code = run(
        ["solve", "--mu", mu, "--nu", nu, "--gamma", "0.2",
         "--out", "report.json", "--out-dir", str(tmp_path / "results"), "--quiet"]
    )
    assert code == 0
    assert (tmp_path / "results" / "report.json").exists()


def test_solve_then_check_optimality_roundtrip(tmp_path, marginal_files):
    mu, nu = marginal_files
    report = tmp_path / "report.json"
    plan = tmp_path / "plan.csv"
    assert run(
        ["solve", "--mu", mu, "--nu", nu, "--gamma", "0.2",
         "--out", str(report), "--plan", str(plan), "--quiet"]
    ) == 0
    out = tmp_path / "check.json"
    code = run(
        ["check-optimality", "--mu", mu, "--nu", nu, "--gamma", "0.2",
         "--plan", str(plan), "--tol", "1e-6", "--out", str(out), "--quiet"]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["within_tol"] is True
    assert max(payload["r1"], payload["r2"]) <= 1e-6


def test_check_optimality_rejects_plan_on_other_grid(tmp_path, capsys):
    g6 = Grid1D(0.0, 1.0, 6)
    g8 = Grid1D(0.0, 1.0, 8)
    mu = tmp_path / "mu.csv"
    write_measure_csv(mu, GridMeasure(g6, np.ones(6)))
    plan = tmp_path / "plan.csv"
    write_product_csv(plan, ProductDensity(g8, g8, np.ones((8, 8))))
    code = run(["check-optimality", "--mu", str(mu), "--nu", str(mu), "--gamma", "0.2",
                "--plan", str(plan), "--quiet"])
    assert code == 3
    err = capsys.readouterr().err
    assert "does not match --mu" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["solve", "sweep-gamma", "check-optimality"])
def test_cost_file_on_other_grid_is_parameter_error(tmp_path, capsys, command):
    g = Grid1D(0.0, 1.0, 16)
    x = g.centers
    mu = GridMeasure(g, 1.0 + 0.5 * np.sin(2 * np.pi * x), renormalize=True)
    nu = GridMeasure(g, 1.0 + 0.5 * np.cos(2 * np.pi * x), renormalize=True)
    write_measure_csv(tmp_path / "mu.csv", mu)
    write_measure_csv(tmp_path / "nu.csv", nu)
    write_product_csv(tmp_path / "plan.csv", product_measure(mu, nu))
    # the sqdist table of 16 cells on [0, 2], not on the marginals' [0, 1]
    wide = Grid1D(0.0, 2.0, 16)
    y = wide.centers
    write_product_csv(tmp_path / "cost.csv", ProductDensity(wide, wide, (y[:, None] - y) ** 2))
    args = {
        "solve": ["--gamma", "0.1"],
        "sweep-gamma": ["--gammas", "0.1"],
        "check-optimality": ["--gamma", "0.1", "--plan", str(tmp_path / "plan.csv")],
    }[command]
    out = tmp_path / "out"
    code = run([command, "--mu", str(tmp_path / "mu.csv"), "--nu", str(tmp_path / "nu.csv"),
                "--cost", f"file:{tmp_path / 'cost.csv'}", "--out", str(out), *args, "--quiet"])
    assert code == 3
    err = capsys.readouterr().err
    assert "cost grid (16 cells on [0.0, 2.0]) does not match --mu" in err
    assert not out.exists()


def test_check_optimality_rejects_measure_file_as_plan(marginal_files, capsys):
    mu, nu = marginal_files
    code = run(["check-optimality", "--mu", mu, "--nu", nu, "--gamma", "0.2",
                "--plan", mu, "--quiet"])
    assert code == 3
    assert "x,y,density" in capsys.readouterr().err


def _write_table(path, g, values):
    """Write ``values`` on g x g as an ``x,y,density`` CSV, non-finite entries included."""
    xs = g.centers.tolist()
    rows = [f"{x!r},{y!r},{v!r}" for x, row in zip(xs, values.tolist()) for y, v in zip(xs, row)]
    path.write_text("\n".join(["x,y,density", *rows]) + "\n")


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_stored_plan_that_is_not_finite_is_refused_at_validation(tmp_path, marginal_files, capsys, bad):
    mu, nu = marginal_files
    values = np.ones((48, 48))
    values[5, 7] = bad
    plan, out = tmp_path / "plan.csv", tmp_path / "check.json"
    _write_table(plan, Grid1D(0.0, 1.0, 48), values)
    code = run(["check-optimality", "--mu", mu, "--nu", nu, "--gamma", "0.2",
                "--plan", str(plan), "--out", str(out)])
    assert code == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: --plan: values must be finite\n")
    assert not out.exists()


@pytest.mark.parametrize("cost", ["sqdist", "file"])
def test_a_plan_whose_marginals_overflow_fails_check_optimality(tmp_path, marginal_files, capsys, cost):
    # pytest makes a RuntimeWarning an error, so the overflow must stay inside the check
    mu, nu = marginal_files
    g = Grid1D(0.0, 1.0, 48)
    plan, out = tmp_path / "plan.csv", tmp_path / "check.json"
    _write_table(plan, g, np.full((48, 48), 1e308))
    if cost == "file":
        _write_table(tmp_path / "cost.csv", g, np.full((48, 48), 1e308))
        cost = f"file:{tmp_path / 'cost.csv'}"
    code = run(["check-optimality", "--mu", mu, "--nu", nu, "--gamma", "0.2", "--cost", cost,
                "--plan", str(plan), "--out", str(out), "--quiet"])
    assert code == 5
    assert capsys.readouterr().err == "error: largest marginal residual inf exceeds --tol 1e-06\n"
    payload = json.loads(out.read_text())
    assert (payload["r1"], payload["r2"], payload["primal"], payload["within_tol"]) == (
        None, None, None, False
    )


@pytest.mark.parametrize("command", ["entropy", "check-optimality", "solve"])
def test_directory_as_input_file_is_parameter_error(tmp_path, marginal_files, capsys, command):
    mu, nu = marginal_files
    directory = tmp_path / "d"
    directory.mkdir()
    args = {
        "entropy": ["--input", str(directory)],
        "check-optimality": ["--mu", mu, "--nu", nu, "--gamma", "0.2", "--plan", str(directory)],
        "solve": ["--mu", mu, "--nu", nu, "--gamma", "0.2", "--cost", f"file:{directory}",
                  "--out", str(tmp_path / "r.json")],
    }[command]
    assert run([command, *args, "--quiet"]) == 3
    err = capsys.readouterr().err
    assert str(directory) in err and "Traceback" not in err


def test_short_csv_row_is_parameter_error(tmp_path, capsys):
    short = tmp_path / "short.csv"
    short.write_text("x,density\n0.25,1.0\n0.75\n")
    assert run(["entropy", "--input", str(short)]) == 3
    assert "line 3" in capsys.readouterr().err


def test_a_field_past_the_csv_limit_is_parameter_error(tmp_path, capsys):
    huge = tmp_path / "huge.csv"
    huge.write_text("x,density\n0.25," + "1" * 200_000 + "\n")
    assert run(["entropy", "--input", str(huge)]) == 3
    assert f"error: --input: {huge}: line 2: field larger than field limit" in capsys.readouterr().err


def test_every_bad_input_file_is_reported_with_the_other_violations(tmp_path, marginal_files, capsys):
    _, nu = marginal_files
    bad = tmp_path / "bad.csv"
    bad.write_text("x,density\n0.25,1.0\n0.75\n")
    missing = tmp_path / "missing.csv"
    out = tmp_path / "report.json"
    argv = ["solve", "--mu", str(bad), "--nu", str(missing), "--cost", f"file:{bad}", "--gamma", "-1",
            "--out", str(out), "--quiet"]
    assert run(argv) == 3
    lines = capsys.readouterr().err.splitlines()
    assert sorted(line.split(": ")[1] for line in lines) == ["--cost", "--gamma", "--mu", "--nu"]
    assert f"error: --mu: {bad}: line 3: too few values" in lines
    assert f"error: --nu: file not found: {missing}" in lines
    assert f"error: --cost: {bad}: expected header 'x,y,density'" in lines
    assert not out.exists()


def test_input_files_are_read_through_the_measures_module(tmp_path, marginal_files, monkeypatch):
    # so that a wrapper set on the module later, such as the benchmark's tracer, sees every read
    mu, nu = marginal_files
    g = Grid1D(0.0, 1.0, 48)
    write_product_csv(tmp_path / "plan.csv", ProductDensity(g, g, np.ones((48, 48))))
    write_product_csv(tmp_path / "cost.csv", ProductDensity(g, g, np.zeros((48, 48))))
    reads = []
    for name in ("read_measure_csv", "read_product_csv"):
        real = getattr(measures, name)
        monkeypatch.setattr(measures, name, lambda path, real=real: reads.append(path) or real(path))
    _, violations = cli.parse_config(
        ["check-optimality", "--mu", mu, "--nu", nu, "--gamma", "0.1", "--plan", str(tmp_path / "plan.csv"),
         "--cost", f"file:{tmp_path / 'cost.csv'}"]
    )
    assert violations == []
    assert sorted(reads) == sorted([mu, nu, str(tmp_path / "plan.csv"), str(tmp_path / "cost.csv")])


def test_a_cost_file_gives_the_outputs_of_its_rule(tmp_path, marginal_files):
    mu, nu = marginal_files
    g = Grid1D(0.0, 1.0, 48)
    x = g.centers
    write_product_csv(tmp_path / "cost.csv", ProductDensity(g, g, (x[:, None] - x) ** 2))
    pair = ["--mu", mu, "--nu", nu, "--quiet"]
    plan = tmp_path / "plan.csv"
    assert run(["solve", *pair, "--gamma", "0.2", "--plan", str(plan), "--out", str(tmp_path / "r.json")]) == 0
    jobs = [
        ["solve", "--gamma", "0.2", "--out", "solve.json"],
        ["check-optimality", "--gamma", "0.2", "--plan", str(plan), "--out", "check.json"],
        ["sweep-gamma", "--gammas", "1,0.2", "--out", "sweep.csv"],
    ]
    outputs = []
    for cost in ("sqdist", f"file:{tmp_path / 'cost.csv'}"):
        for command, *args in jobs:
            assert run([command, *pair, "--cost", cost, *args, "--out-dir", str(tmp_path)]) == 0
        outputs.append([(tmp_path / job[-1]).read_text() for job in jobs])
    sqdist, table = outputs
    assert table == sqdist


@pytest.mark.parametrize(
    "command, reason",
    [
        ("solve", "no convergence in 5 iterations (residual "),
        ("sweep-gamma", "1 of 2 points failed"),
        ("gamma-limit", "1 of 1 points failed"),
        ("check-optimality", "largest marginal residual "),
    ],
)
def test_every_exit_5_says_why_under_quiet(tmp_path, marginal_files, capsys, command, reason):
    mu, nu = marginal_files
    pair = ["--mu", mu, "--nu", nu]
    plan = tmp_path / "plan.csv"
    assert run(["solve", *pair, "--gamma", "0.2", "--plan", str(plan), "--out", str(tmp_path / "r.json"),
                "--quiet"]) == 0
    capsys.readouterr()
    argv = {
        "solve": [*pair, "--gamma", "0.001", "--max-iter", "5"],
        "sweep-gamma": [*pair, "--gammas", "1,0.001", "--max-iter", "50"],
        "gamma-limit": ["--mu", "atoms:0:1", "--nu", "atoms:1:1", "--schedule", "pairs:1e-300:0.1"],
        "check-optimality": [*pair, "--gamma", "0.2", "--plan", str(plan), "--tol", "1e-30"],
    }[command]
    assert run([command, *argv, "--out", str(tmp_path / "out"), "--quiet"]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {reason}")


def test_sweep_gamma_csv(tmp_path, marginal_files):
    mu, nu = marginal_files
    out = tmp_path / "sweep.csv"
    code = run(
        ["sweep-gamma", "--mu", mu, "--nu", nu, "--gammas", "1,0.5",
         "--out", str(out), "--quiet"]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "gamma,iterations,primal,dual,gap,r1,r2,status"
    assert len(lines) == 3
    assert all(line.endswith("ok") for line in lines[1:])


def test_sweep_gamma_marks_failed_points_and_exits_5(tmp_path, marginal_files):
    mu, nu = marginal_files
    out = tmp_path / "sweep.csv"
    argv = ["sweep-gamma", "--mu", mu, "--nu", nu, "--gammas", "0.5", "--max-iter", "1"]
    assert run([*argv, "--out", str(out), "--quiet"]) == 5
    assert ",failed: no convergence in 1 iterations (residual " in out.read_text()
    # one cell each, a unit apart: exp(-1/gamma) underflows to 0 in direct mode
    g = Grid1D(0.0, 2.0, 2)
    for name, density in (("a.csv", [1.0, 0.0]), ("b.csv", [0.0, 1.0])):
        write_measure_csv(tmp_path / name, GridMeasure(g, np.array(density)))
    argv = ["sweep-gamma", "--mu", str(tmp_path / "a.csv"), "--nu", str(tmp_path / "b.csv"),
            "--mode", "direct", "--gammas", "0.001,1"]
    assert run([*argv, "--out", str(out), "--quiet"]) == 5
    failed, ok = out.read_text().splitlines()[1:]
    assert failed == "0.001,0,nan,nan,nan,nan,nan,failed: scaling denominator vanished on the a side at iteration 1"
    assert ok.endswith(",ok")


def test_a_loop_at_a_fixed_point_stops_at_once_and_exits_5(tmp_path):
    # exp(-1/gamma) is 0 in double precision: log b repeats from the fourth
    # pass on, and the default 100000 passes would take seconds
    out = tmp_path / "gl.csv"
    argv = ["gamma-limit", "--mu", "atoms:0:1", "--nu", "atoms:1:1", "--schedule", "pairs:1e-300:0.1"]
    start = time.perf_counter()
    assert run([*argv, "--out", str(out), "--quiet"]) == 5
    assert time.perf_counter() - start < 1.0
    status = out.read_text().splitlines()[1].split(",")[-1]
    assert status.startswith("failed: no convergence: the iterate stopped changing at iteration ")


def test_gamma_limit_csv_and_schedule_parsing(tmp_path):
    out = tmp_path / "gl.csv"
    code = run(
        ["gamma-limit", "--mu", "atoms:0:1", "--nu", "atoms:1:1",
         "--schedule", "coupled:c=1:gammas=0.2,0.1", "--n", "128",
         "--out", str(out), "--quiet"]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == (
        "gamma,delta,regularized_value,reference,gap_to_reference,"
        "entropy_mu_delta,entropy_nu_delta,status"
    )
    assert len(lines) == 3
    row = lines[1].split(",")
    assert float(row[0]) == 0.2 and float(row[1]) == 0.2
    assert float(row[3]) == 1.0


def test_gamma_limit_negative_domain_joined_with_equals(tmp_path):
    out = tmp_path / "gl.csv"
    code = run(
        ["gamma-limit", "--mu", "atoms:-0.5:1", "--nu", "atoms:0.5:1", "--domain=-1:1",
         "--schedule", "pairs:0.2:0.2", "--n", "64", "--out", str(out), "--quiet"]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2 and lines[1].endswith(",ok")
    assert float(lines[1].split(",")[3]) == 1.0


def test_gamma_limit_refuses_an_atom_outside_the_domain(tmp_path, capsys):
    out = tmp_path / "gl.csv"
    code = run(
        ["gamma-limit", "--mu", "atoms:5:1", "--nu", "atoms:0.5:1",
         "--schedule", "pairs:0.1:0.05", "--n", "256", "--out", str(out), "--quiet"]
    )
    assert code == 3
    assert not out.exists()
    assert "atom at 5.0 lies outside the domain [0.0, 1.0]" in capsys.readouterr().err


def test_gamma_limit_pairs_and_power_schedules():
    assert cli._parse_schedule("pairs:0.2:0.1,0.1:0.05") == [(0.2, 0.1), (0.1, 0.05)]
    got = cli._parse_schedule("power:coeff=0.01:exp=2:gammas=0.1")
    assert got[0][0] == 0.1
    assert got[0][1] == pytest.approx(1e-4)
    with pytest.raises(ValueError):
        cli._parse_schedule("geometric:0.5")


def test_a_schedule_key_left_out_takes_the_builders_default():
    gammas = [0.2, 0.1, 0.05]
    assert cli._parse_schedule("power:gammas=0.2,0.1,0.05") == gl.power_schedule(gammas)
    assert cli._parse_schedule("coupled:gammas=0.2,0.1,0.05") == gl.coupled_schedule(gammas)


@pytest.mark.parametrize("delta", ["1e-13", "1e-300"])
def test_a_delta_far_below_the_cell_width_is_unresolved(tmp_path, monkeypatch, capsys, delta):
    # a delta below about 1e-12 h extends the grid by no cell, a margin of 0
    monkeypatch.chdir(tmp_path)
    argv = ["gamma-limit", "--mu", "atoms:0:1", "--nu", "atoms:1:1",
            "--schedule", f"pairs:0.1:{delta}", "--n", "64", "--quiet"]
    assert run(argv) == 3
    assert capsys.readouterr().err == (
        f"error: grid with h = 0.015625 does not resolve delta = {delta}; need h <= delta/4\n"
    )
    assert list(tmp_path.iterdir()) == []


def test_atoms_parsing_errors():
    with pytest.raises(ValueError):
        cli._parse_atoms("0.5:1.0")
    with pytest.raises(ValueError):
        cli._parse_atoms("atoms:0.5")
    parsed = cli._parse_atoms("atoms:0.25:0.5,0.75:0.5")
    assert parsed.locations.tolist() == [0.25, 0.75]


def test_orlicz_norm_and_entropy_commands(tmp_path, marginal_files, capsys):
    mu, _ = marginal_files
    assert run(["orlicz-norm", "--young", "exp", "--input", mu]) == 0
    norm_line = capsys.readouterr().out.strip()
    assert float(norm_line) > 0
    out = tmp_path / "e.json"
    assert run(["entropy", "--input", mu, "--out", str(out)]) == 0
    printed = float(capsys.readouterr().out.strip())
    assert json.loads(out.read_text())["value"] == pytest.approx(printed)


def test_orlicz_norm_young_solver_is_the_exp_rule(tmp_path, marginal_files):
    mu, _ = marginal_files
    reports = []
    for young in ("solver", "exp"):
        out = tmp_path / f"{young}.json"
        assert run(["orlicz-norm", "--young", young, "--input", mu, "--out", str(out), "--quiet"]) == 0
        reports.append(json.loads(out.read_text()))
    solver, exp = reports
    assert [solver[k] for k in ("value", "bracket", "iterations")] == [
        exp[k] for k in ("value", "bracket", "iterations")
    ]


def test_config_bad_json_is_parameter_error(tmp_path):
    bad = tmp_path / "cfg.json"
    bad.write_text("{not json")
    assert run(["solve", "--config", str(bad)]) == 3


@pytest.mark.parametrize(
    "command, values, flag",
    [
        ("orlicz-norm", {"young": "bogus"}, "--young"),
        ("solve", {"out": 5}, "--out"),
        ("solve", {"plan": 7}, "--plan"),
        ("solve", {"out_dir": 5}, "--out-dir"),
        ("solve", {"cost": ["sqdist"]}, "--cost"),
        ("solve", {"gamma": True}, "--gamma"),
        ("solve", {"quiet": "no"}, "--quiet"),
        ("sweep-gamma", {"gammas": [True]}, "--gammas"),
        ("solve", {"gamma": 10**400}, "--gamma"),
    ],
)
def test_config_value_of_wrong_type_is_parameter_error(
    tmp_path, marginal_files, capsys, monkeypatch, command, values, flag
):
    mu, nu = marginal_files
    monkeypatch.chdir(tmp_path)  # a run that should not happen writes its report here
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"gamma": 0.5, **values}))
    inputs = ["--input", mu] if command == "orlicz-norm" else ["--mu", mu, "--nu", nu]
    assert run([command, *inputs, "--config", str(cfg_path)]) == 3
    err = capsys.readouterr().err
    assert flag in err
    assert "Traceback" not in err


def test_typed_config_values_are_used(tmp_path, marginal_files):
    mu, nu = marginal_files
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"tol": 1e-8, "gammas": [0.5, 0.1], "mu": mu, "nu": nu}))
    args = ["sweep-gamma", "--config", str(cfg_path)]
    cfg, violations = cli.parse_config(args)
    assert violations == []
    assert cfg.options["tol"] == 1e-8 and cfg.options["gammas"] == [0.5, 0.1]
    assert cfg.provenance["tol"] == cfg.provenance["gammas"] == "config"
    out = tmp_path / "sweep.csv"
    assert run([*args, "--out", str(out), "--quiet"]) == 0
    assert [line.split(",")[0] for line in out.read_text().splitlines()[1:]] == ["0.5", "0.1"]
    # each option is read once, into the value the handler uses
    cfg, violations = cli.parse_config(["sweep-gamma", "--mu", mu, "--nu", nu, "--gammas", "0.5,0.1"])
    assert violations == [] and cfg.options["gammas"] == [0.5, 0.1]
    cfg, violations = cli.parse_config(
        ["gamma-limit", "--mu", "atoms:-0.5:1", "--nu", "atoms:0.25:0.5,0.75:0.5", "--domain=-1:1",
         "--schedule", "pairs:0.2:0.1,0.1:0.05"]
    )
    assert violations == []
    assert cfg.options["schedule"] == [(0.2, 0.1), (0.1, 0.05)]
    assert cfg.options["domain"] == (-1.0, 1.0)
    assert cfg.options["mu"] == AtomicMeasure([(-0.5, 1.0)])
    assert cfg.options["nu"] == AtomicMeasure([(0.25, 0.5), (0.75, 0.5)])


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--mu", "atoms:0:nan"),
        ("--schedule", "pairs:0.1:nan"),
        ("--schedule", "pairs:0.1:inf"),
        ("--domain", "0:nan"),
    ],
)
def test_gamma_limit_non_finite_input_is_parameter_error(tmp_path, capsys, flag, value):
    args = {"--mu": "atoms:0:1", "--nu": "atoms:1:1", "--schedule": "coupled:c=1:gammas=0.2",
            "--n": "64", "--out": str(tmp_path / "gl.csv"), flag: value}
    assert run(["gamma-limit", *(text for pair in args.items() for text in pair)]) == 3
    err = capsys.readouterr().err
    assert flag in err and "finite" in err


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("check-optimality", "--gamma", "inf"),
        ("sweep-gamma", "--gammas", "0.1,nan"),
        ("orlicz-norm", "--tol", "inf"),
        ("solve", "--tol", "inf"),
    ],
)
def test_non_finite_number_is_parameter_error(tmp_path, marginal_files, capsys, command, flag, value):
    mu, nu = marginal_files
    args = {
        "check-optimality": ["--mu", mu, "--nu", nu, "--plan", mu],
        "sweep-gamma": ["--mu", mu, "--nu", nu],
        "orlicz-norm": ["--input", mu],
        "solve": ["--mu", mu, "--nu", nu, "--gamma", "0.2"],
    }[command]
    out = tmp_path / "out"
    assert run([command, *args, f"{flag}={value}", "--out", str(out), "--quiet"]) == 3
    err = capsys.readouterr().err
    assert flag in err and "finite" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flag",
    [
        ("solve", "--out"),
        ("solve", "--plan"),
        ("sweep-gamma", "--out"),
        ("gamma-limit", "--out"),
        ("orlicz-norm", "--out"),
        ("entropy", "--out"),
        ("check-optimality", "--out"),
    ],
)
def test_empty_output_path_is_parameter_error(tmp_path, marginal_files, monkeypatch, capsys,
                                              command, flag):
    mu, nu = marginal_files
    args = {
        "solve": ["--mu", mu, "--nu", nu, "--gamma", "0.2"],
        "sweep-gamma": ["--mu", mu, "--nu", nu, "--gammas", "0.2"],
        "gamma-limit": ["--mu", "atoms:0:1", "--nu", "atoms:1:1",
                        "--schedule", "coupled:c=1:gammas=0.2", "--n", "64"],
        "orlicz-norm": ["--input", mu],
        "entropy": ["--input", mu],
        "check-optimality": ["--mu", mu, "--nu", nu, "--gamma", "0.2", "--plan", mu],
    }[command]
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert run([command, *args, f"{flag}=", "--quiet"]) == 3
    assert flag in capsys.readouterr().err
    assert list(work.iterdir()) == []


@pytest.mark.parametrize(
    "schedule, reason",
    [
        ("coupled:gammas=-0.1", "gamma and delta must be positive and finite"),
        ("pairs:0:0.1", "gamma and delta must be positive and finite"),
        ("pairs:0.1:-0.1", "gamma and delta must be positive and finite"),
        ("power:coeff=1e300:exp=2:gammas=1e300", "delta = 1e+300 * gamma**2.0 overflows"),
        ("power:coef=5:gammas=0.1", "bad part 'coef=5': a power schedule takes coeff=, exp=, gammas="),
        ("coupled:c=0.5:gammas=0.1:bogus", "bad part 'bogus': a coupled schedule takes c=, gammas="),
        ("coupled:gammas=0.1:c=0.5:gammas=0.2", "bad part 'gammas=0.2'"),
        ("coupled:c=1", "a coupled schedule needs gammas="),
        ("pairs:0.1", "bad pair '0.1', expected gamma:delta"),
        ("coupled:c=-1:gammas=0.1", "coupling constant must be positive, got -1.0"),
        # the given keys are read gammas first, then in the builder's order
        ("power:exp=zz:coeff=yy:gammas=xx", "could not convert string to float: 'xx'"),
        ("power:exp=zz:coeff=yy:gammas=0.1", "could not convert string to float: 'yy'"),
    ],
)
def test_schedule_refusals_are_reported_with_the_other_violations(tmp_path, capsys, schedule, reason):
    out = tmp_path / "gl.csv"
    argv = ["gamma-limit", "--mu", "atoms:0:1", "--nu", "atoms:1:1", "--n", "0",
            "--schedule", schedule, "--out", str(out), "--quiet"]
    assert run(argv) == 3
    err = capsys.readouterr().err
    assert "--n: " in err and f"--schedule: {reason}" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "domain, n, schedule, reason",
    [
        ("-1.7e308:1.7e308", "4", "pairs:0.1:0.1",
         "--domain: cell width inf of 4 cells on [-1.7e+308, 1.7e+308] is not positive and finite"),
        ("0:5e-324", "2", "pairs:0.1:1e-323",
         "--domain: cell width 0.0 of 2 cells on [0.0, 5e-324] is not positive and finite"),
        ("-8e307:8e307", "4", "pairs:0.1:1e308",
         "extending [-8e+307, 8e+307] by 1e+308 on each side overflows the floating-point range"),
        ("0:1:2", "4", "pairs:0.1:0.1", "--domain: expected lo:hi, got '0:1:2'"),
        ("1:0", "4", "pairs:0.1:0.1", "--domain: domain needs hi > lo, got '1:0'"),
    ],
    ids=["wide-cell", "zero-cell", "extension-overflow", "three-parts", "reversed"],
)
def test_gamma_limit_refuses_a_domain_it_cannot_grid(tmp_path, capsys, domain, n, schedule, reason):
    """A cell width or an extended end outside the double range is one error line, exit 3."""
    out = tmp_path / "gl.csv"
    argv = ["gamma-limit", "--mu", "atoms:0:1", "--nu", "atoms:1:1", f"--domain={domain}",
            "--n", n, "--schedule", schedule, "--out", str(out)]
    assert run(argv) == 3
    assert capsys.readouterr().err == f"error: {reason}\n"
    assert not out.exists()


def test_an_entropy_that_overflows_is_an_invalid_parameter(tmp_path, capsys):
    big = tmp_path / "big.csv"
    write_measure_csv(big, GridMeasure(Grid1D(0.0, 1.0, 2), [1e308, 1e308]))
    out = tmp_path / "entropy.json"
    # pytest turns numpy's RuntimeWarning into an error, so none leaks
    assert run(["entropy", "--input", str(big), "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: the neg-entropy integral of f log f overflows to inf\n"
    assert captured.out == ""
    assert not out.exists()


def test_a_mass_that_overflows_is_an_invalid_parameter(tmp_path, marginal_files, capsys):
    mu, _ = marginal_files
    big = tmp_path / "big.csv"
    write_measure_csv(big, GridMeasure(Grid1D(0.0, 1.0, 2), [1e308, 1e308]))
    out = tmp_path / "out"
    assert run(["solve", "--mu", str(big), "--nu", mu, "--gamma", "0.1", "--out", str(out)]) == 3
    assert "mu must be a probability measure, has mass inf" in capsys.readouterr().err
    argv = ["gamma-limit", "--mu", "atoms:0:1e308,1:1e308", "--nu", "atoms:1:1",
            "--schedule", "pairs:0.1:0.1", "--out", str(out)]
    assert run(argv) == 3
    assert "atom masses sum to inf" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cost", ["sqdist", "abs"])
def test_gamma_limit_on_a_domain_of_1e_300_solves(tmp_path, capsys, cost):
    # smoothed densities near 1e301 and plan densities near 1e602; the loop scales
    # cell masses, so it solves (pytest makes a RuntimeWarning an error)
    out = tmp_path / "gl.csv"
    argv = ["gamma-limit", "--mu=atoms:2e-301:1", "--nu=atoms:7e-301:1", "--domain=0:1e-300", "--n", "100",
            "--schedule", "pairs:0.1:1e-301", "--cost", cost, "--quiet", "--out", str(out)]
    assert run(argv) == 0
    assert capsys.readouterr().err == ""
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [row["status"] for row in rows] == ["ok"]
    assert all(np.isfinite(float(v)) for k, v in rows[0].items() if k != "status")
    if cost == "abs":
        # every coupling of two disjoint supports costs the same under the abs rule
        assert float(rows[0]["regularized_value"]) == pytest.approx(
            float(rows[0]["reference"]), rel=1e-12)


def test_a_plan_beyond_the_double_range_is_an_invalid_parameter(tmp_path, capsys):
    # on [0, 1e-200] the solve's cell masses are fine, but the plan's densities near 1e400 are not
    g = Grid1D(0.0, 1e-200, 32)
    x = g.centers / 1e-200
    mu, nu = tmp_path / "mu.csv", tmp_path / "nu.csv"
    write_measure_csv(mu, GridMeasure(g, 1.0 + 0.4 * np.sin(2 * np.pi * x), renormalize=True))
    write_measure_csv(nu, GridMeasure(g, 1.0 + 0.4 * np.cos(2 * np.pi * x), renormalize=True))
    out, plan = tmp_path / "report.json", tmp_path / "plan.csv"
    argv = ["solve", "--mu", str(mu), "--nu", str(nu), "--cost", "abs", "--gamma", "1e-201",
            "--quiet", "--out", str(out)]
    assert run([*argv, "--plan", str(plan)]) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: the plan's densities leave the floating-point range\n"
    assert captured.out == ""
    assert not out.exists() and not plan.exists()
    # the same solve without the plan succeeds
    assert run(argv) == 0 and out.exists()


def _assert_finite_where_ok(code, out):
    """Exit 0, 3 or 5; nothing written on 3, and no NaN or inf in a converged report or an ok row.

    Returns the exit code.
    """
    assert code in (0, 3, 5)
    if code == 3 or not out.exists():  # a solve that fails without a report writes nothing either
        assert code != 0 and not out.exists()
    elif out.suffix == ".json":
        report = json.loads(out.read_text())
        values = [v for v in report.values() if isinstance(v, float)]
        values += report["residuals"] + report["optimality_residual"]
        assert not report["converged"] or np.all(np.isfinite(values)), report
    else:
        for row in csv.DictReader(out.read_text().splitlines()):
            if row["status"] == "ok":
                assert all(np.isfinite(float(v)) for k, v in row.items() if k != "status"), row
    return code


@pytest.mark.parametrize("k", [-305, -300, -200, -100, -10, 0, 10, 100, 200, 300])
def test_solve_sweep_and_gamma_limit_at_every_domain_scale(tmp_path, capsys, k):
    # on [0, 10^k]; pytest makes a RuntimeWarning an error, so none leaks
    s = 10.0 ** k
    g = Grid1D(0.0, s, 100)
    x = g.centers / s
    mu, nu = tmp_path / "mu.csv", tmp_path / "nu.csv"
    write_measure_csv(mu, GridMeasure(g, 1.0 + 0.4 * np.sin(2 * np.pi * x), renormalize=True))
    write_measure_csv(nu, GridMeasure(g, 1.0 + 0.4 * np.cos(2 * np.pi * x), renormalize=True))
    solves, limits = [], []
    for cost in ("sqdist", "abs"):
        for mode in ("log", "direct"):
            common = ["--mu", str(mu), "--nu", str(nu), "--cost", cost, "--mode", mode,
                      "--max-iter", "500", "--quiet"]
            out = tmp_path / f"solve-{cost}-{mode}.json"
            code = run(["solve", *common, "--gamma", "0.1", "--out", str(out)])
            solves.append(_assert_finite_where_ok(code, out))
            out = tmp_path / f"sweep-{cost}-{mode}.csv"
            code = run(["sweep-gamma", *common, "--gammas", "1,0.1", "--out", str(out)])
            solves.append(_assert_finite_where_ok(code, out))
        out = tmp_path / f"gl-{cost}.csv"
        argv = ["gamma-limit", f"--mu=atoms:{0.2 * s!r}:1", f"--nu=atoms:{0.7 * s!r}:1", f"--domain=0:{s!r}",
                "--n", "100", "--schedule", f"pairs:0.1:{0.1 * s!r}", "--cost", cost, "--max-iter", "500",
                "--quiet", "--out", str(out)]
        limits.append(_assert_finite_where_ok(run(argv), out))
    err = capsys.readouterr().err
    # the loop scales cell masses, which do not depend on a small scale
    assert k > 0 or set(solves) == {0}
    # the entropy sums cell masses times log densities, so densities near 1e306 do not overflow it
    assert k > 0 or set(limits) == {0}
    # a delta the extension was made for is within its margin at every scale
    assert "extension margin" not in err


@pytest.mark.parametrize("scale, gamma, mode, name", [
    (1e154, 1e307, "log", "primal value is -inf"),
    (1e154, 1e307, "direct", "primal value is -inf"),
    (1e150, 1e299, "direct", "transport cost is inf"),
])
def test_a_converged_solve_outside_the_double_range_is_a_parameter_error(
    tmp_path, capsys, scale, gamma, mode, name
):
    # the loop converges on cell masses, but the report's values leave the double range
    g = Grid1D(0.0, scale, 100)
    x = g.centers / scale
    mu, nu = tmp_path / "mu.csv", tmp_path / "nu.csv"
    write_measure_csv(mu, GridMeasure(g, 1.0 + 0.4 * np.sin(2 * np.pi * x), renormalize=True))
    write_measure_csv(nu, GridMeasure(g, 1.0 + 0.4 * np.cos(2 * np.pi * x), renormalize=True))
    out = tmp_path / "report.json"
    argv = ["solve", "--mu", str(mu), "--nu", str(nu), "--gamma", repr(gamma), "--mode", mode,
            "--quiet", "--out", str(out)]
    assert run(argv) == cli.EXIT_PARAM
    assert capsys.readouterr().err == f"error: the solve's {name}, outside the floating-point range\n"
    assert not out.exists()


_EVERY_SUBCOMMAND = """
import sys
import numpy as np
from entot import cli
from entot.measures import Grid1D, GridMeasure, write_measure_csv

g = Grid1D(0.0, 1.0, 16)
write_measure_csv("mu.csv", GridMeasure(g, 1.0 + 0.4 * np.sin(2 * np.pi * g.centers), renormalize=True))
write_measure_csv("nu.csv", GridMeasure(g, 1.0 + 0.4 * np.cos(2 * np.pi * g.centers), renormalize=True))
pair = ["--mu", "mu.csv", "--nu", "nu.csv", "--quiet"]
for argv in (
    ["solve", *pair, "--gamma", "0.1", "--plan", "plan.csv"],
    ["sweep-gamma", *pair, "--gammas", "1,0.1", "--out", "sweep.csv"],
    ["check-optimality", *pair, "--gamma", "0.1", "--plan", "plan.csv"],
    ["gamma-limit", "--mu", "atoms:0.2:1", "--nu", "atoms:0.7:1", "--n", "64",
     "--schedule", "pairs:0.1:0.1", "--quiet", "--out", "gl.csv"],
    ["orlicz-norm", "--young", "log", "--input", "mu.csv", "--quiet"],
    ["entropy", "--input", "mu.csv", "--quiet"],
):
    assert cli.main(argv) == 0, argv
loaded = [m for m in sys.modules if m.split(".")[:2] == ["numpy", "ma"] or m.split(".")[0] == "scipy"]
print("loaded:", *sorted(loaded))
"""


def test_no_subcommand_imports_numpy_ma_or_scipy(tmp_path):
    # start-up is most of a small job's wall time, and numpy.ma alone costs about 20 ms:
    # every subcommand, run in one fresh interpreter on tiny inputs, loads neither
    src = os.path.dirname(os.path.dirname(entot.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", _EVERY_SUBCOMMAND], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "loaded:"
