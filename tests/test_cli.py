import json
import os

import numpy as np
import pytest

from entot import cli, solver
from entot.measures import (
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
