"""Fuzz of the command line: no argv and config file ends it outside its exit codes.

Arguments and config-file values are drawn from the CLI's own option table,
mixed with wrong JSON types, booleans, NaN, infinities and malformed atoms,
schedules and domains. ``cli.main`` runs in-process; argparse's usage exit
counts as 2, and any other exception fails the test.

Sizes are capped so that no example allocates much: --n <= 512,
--max-iter <= 200 (always given as a flag, since the default allows 100000
iterations), and input files of at most 16 cells. Every value that sets a
delta keeps it below 1. --threads takes 1 and 2, which every subcommand
checks and ignores.
"""

import json
import os
import tempfile

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from entot import cli
from entot.measures import Grid1D, GridMeasure, ProductDensity, product_measure
from entot.measures import write_measure_csv, write_product_csv

EXIT_CODES = {0, 2, 3, 4, 5, 6}

# bad values first in each pool: hypothesis draws the first entries most often
NUMBERS = ["nan", "inf", "-1", "0", "-inf", "abc", "", "1e300", "1e-3", "0.5"]
SMALL = ["nan", "inf", "0", "-0.1", "abc", "", "1e-3", "0.2", "0.1"]
ATOMS = ["atoms:0:1", "atoms:1:1", "atoms:0.25:0.5,0.75:0.5"]


def _list(pool, min_size=0):
    return st.lists(st.sampled_from(pool), min_size=min_size, max_size=3).map(",".join)


def _schedules(numbers, c, coeff, exp):
    return st.one_of(
        st.tuples(st.sampled_from(c), _list(numbers)).map(
            lambda t: f"coupled:c={t[0]}:gammas={t[1]}"
        ),
        st.tuples(st.sampled_from(coeff), st.sampled_from(exp), _list(numbers)).map(
            lambda t: f"power:coeff={t[0]}:exp={t[1]}:gammas={t[2]}"
        ),
        st.lists(st.tuples(st.sampled_from(numbers), st.sampled_from(numbers)), max_size=3).map(
            lambda pairs: "pairs:" + ",".join(f"{g}:{d}" for g, d in pairs)
        ),
    )


#: flag texts, by option, that a run can succeed with; int options are capped
GOOD = {
    "mu": st.sampled_from(["mu.csv"]),
    "nu": st.sampled_from(["nu.csv"]),
    "input": st.sampled_from(["mu.csv", "zero.csv"]),
    "plan": st.sampled_from(["plan.csv", "p_out.csv"]),
    "cost": st.sampled_from(["sqdist", "abs", "file:cost.csv"]),
    "gamma": st.sampled_from(["0.5", "0.1"]),
    "gammas": _list(["0.5", "0.1", "0.05"], min_size=1),
    "schedule": _schedules(["0.2", "0.1"], ["1", "2"], ["1", "2"], ["1"]),
    "domain": st.sampled_from(["0:1", "-1:1"]),
    "n": st.sampled_from(["16", "64"]),
    "tol": st.sampled_from(["0.1", "1e-3", "1e-6"]),
    "max_iter": st.sampled_from(["50", "200"]),
    "out": st.sampled_from(["out.json", "out.csv"]),
    "out_dir": st.sampled_from(["outs"]),
    "threads": st.sampled_from(["1", "2"]),
}
#: flag texts, by option, of malformed, out-of-range and non-finite values;
#: the int options stay capped, and no delta reaches 1
WILD = {
    "mu": st.sampled_from(
        ["atoms:0:nan", "m8.csv", "atoms:nan:1", "zero.csv", "atoms:inf:1", "short.csv",
         "atoms:0:-1", "empty.csv", "atoms:0:0.5", "missing.csv", "atoms:5:1", ".", "atoms:",
         "", "atoms:0:1:2", "0:1", "nu.csv", *ATOMS]
    ),
    "input": st.sampled_from(["short.csv", "plan.csv", "empty.csv", "missing.csv", "."]),
    "plan": st.sampled_from(["plan8.csv", "mu.csv", "nodir/p.csv", "missing.csv"]),
    "cost": st.sampled_from(["file:mu.csv", "euclid", "file:missing.csv", ""]),
    "gamma": st.sampled_from(NUMBERS),
    "gammas": _list(NUMBERS),
    "schedule": st.one_of(
        _schedules(SMALL, ["nan", "inf", "0", "-1", "1"], ["nan", "0", "0.01"],
                   ["-2000", "0.5", "nan", "2"]),
        st.sampled_from(["geometric:0.5", "", "coupled", "pairs:0.1", "power:gammas=0.1:coeff=x"]),
    ),
    "domain": st.sampled_from(["0:nan", "nan:1", "0:inf", "1:0", "0", "a:b", "0:1:2", "", "0:0.5"]),
    "n": st.sampled_from(["0", "512", "1", "-1", "2", "2.5", "x"]),
    "tol": st.sampled_from(NUMBERS),
    "max_iter": st.sampled_from(["0", "1", "-1", "x"]),
    "out": st.sampled_from(["nodir/out.csv", ".", ""]),
    "out_dir": st.sampled_from(["missing-dir", ""]),
    "threads": st.sampled_from(["0", "-1", "x"]),
}
WILD["nu"] = WILD["mu"]


def flag_text(key, command, wild):
    """Text for the flag of option ``key``: a bad one if ``wild``."""
    opt = cli._OPTIONS[key]
    if opt.choices:
        good, bad = st.sampled_from(opt.choices), st.just("bogus")
    elif command == "gamma-limit" and key in ("mu", "nu"):
        good, bad = st.sampled_from(ATOMS), WILD[key]
    else:
        good, bad = GOOD[key], WILD[key]
    return bad if wild else good


# small ints only: a config integer reaches --threads, --n and --max-iter
JSON_JUNK = st.one_of(
    st.booleans(),
    st.sampled_from([float("nan"), float("inf"), 0, -1, 2, -float("inf"), 1e300, 0.5, 1e-3]),
    st.lists(st.sampled_from([True, [0.1], None, "x", -1, "0.2", 0.5, 0.1, 1e-3]), max_size=3),
    st.none(),
    st.just({"a": 1}),
)


@st.composite
def invocations(draw):
    """(argv, config dict) for one subcommand, drawn from the option table.

    One or two options, --config among them, are wild: left out, or given
    a bad flag text or config value. Every other option gets a value a run
    can succeed with, as a flag, in the config file or both, or is left to
    its default.
    """
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    defaults = {**cli._SHARED, **cli._COMMANDS[command].defaults}
    keys = ["config", *defaults]
    wild = {draw(st.sampled_from(keys))} | draw(st.sets(st.sampled_from(keys), max_size=1))
    argv, config = [command], {}
    for key, default in defaults.items():
        opt = cli._OPTIONS[key]
        places = ["flag", "config", "both"]
        if key in wild or default is not cli._REQUIRED:
            places.append("none")
        where = "flag" if key == "max_iter" else draw(st.sampled_from(places))
        if where in ("flag", "both"):
            # --flag=text, since argparse takes a text such as -1:1 for a flag
            text = None if opt.type is bool else draw(flag_text(key, command, key in wild))
            argv.append(cli._flag(key) if text is None else f"{cli._flag(key)}={text}")
        if where in ("config", "both"):
            if opt.type is bool:
                value = st.just("x") if key in wild else st.booleans()
            elif opt.type is str:
                value = flag_text(key, command, key in wild)
            else:
                # a number, or the flag's text
                value = flag_text(key, command, key in wild).map(_number)
            if key in wild:
                value = st.one_of(value, JSON_JUNK)
            config[key] = draw(value)
    config_files = ["cfg.json"]
    if "config" in wild:
        config_files = [None, "missing.json", "bad.json", "list.json", "latin1.json"]
    config_flag = draw(st.sampled_from(config_files))
    if config_flag is not None:
        argv.append(f"--config={config_flag}")
    return argv, config


def _number(text):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _input_files():
    """File name -> contents of the inputs every example finds in its directory."""
    g = Grid1D(0.0, 1.0, 16)
    x = g.centers
    mu = GridMeasure(g, 1.0 + 0.5 * np.sin(2 * np.pi * x), renormalize=True)
    nu = GridMeasure(g, 1.0 + 0.5 * np.cos(2 * np.pi * x), renormalize=True)
    g8 = Grid1D(0.0, 1.0, 8)
    with tempfile.TemporaryDirectory() as tmp:
        write_measure_csv(os.path.join(tmp, "mu.csv"), mu)
        write_measure_csv(os.path.join(tmp, "nu.csv"), nu)
        write_measure_csv(os.path.join(tmp, "m8.csv"), GridMeasure(g8, np.ones(8)))
        write_measure_csv(os.path.join(tmp, "zero.csv"), GridMeasure(g, np.zeros(16)))
        write_product_csv(os.path.join(tmp, "plan.csv"), product_measure(mu, nu))
        write_product_csv(os.path.join(tmp, "plan8.csv"), ProductDensity(g8, g8, np.ones((8, 8))))
        write_product_csv(
            os.path.join(tmp, "cost.csv"), ProductDensity(g, g, (x[:, None] - x[None, :]) ** 2)
        )
        files = {}
        for name in os.listdir(tmp):
            with open(os.path.join(tmp, name), "rb") as fh:
                files[name] = fh.read()
    files["short.csv"] = b"x,density\n0.25,1.0\n0.75\n"
    files["empty.csv"] = b"x,density\n"
    files["bad.json"] = b"{not json"
    files["list.json"] = b"[1]"
    files["latin1.json"] = b'{"mu": "\xe9"}'  # not UTF-8
    return files


INPUTS = _input_files()


@settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(invocations())
def test_cli_exit_code_is_documented(invocation):
    argv, config = invocation
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in INPUTS.items():
            with open(os.path.join(tmp, name), "wb") as fh:
                fh.write(data)
        os.mkdir(os.path.join(tmp, "outs"))
        with open(os.path.join(tmp, "cfg.json"), "w") as fh:
            json.dump(config, fh)
        os.chdir(tmp)
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        finally:
            os.chdir(cwd)
    assert code in EXIT_CODES, (argv, config, code)


def test_oversized_dense_block_exits_3_before_allocating(tmp_path):
    """100 000 cells a side: the 1e10-cell block is refused unless the FFT kernel takes it."""
    g = Grid1D(0.0, 1.0, 100_000)
    x = g.centers
    for name, wave in (("mu.csv", np.sin), ("nu.csv", np.cos)):
        density = 1.0 + 0.4 * wave(2 * np.pi * x)
        write_measure_csv(tmp_path / name, GridMeasure(g, density, renormalize=True))
    common = ["solve", "--mu", str(tmp_path / "mu.csv"), "--nu", str(tmp_path / "nu.csv"), "--quiet"]
    out = tmp_path / "report.json"
    # exp(-1/0.001) is far below the FFT kernel's range: the dense block it would need is refused
    assert cli.main([*common, "--gamma", "0.001", "--out", str(out)]) == 3
    assert not out.exists()
    # at gamma = 0.5 the FFT kernel runs, in O(n) memory
    assert cli.main([*common, "--gamma", "0.5", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["kernel"] == "fft"
    # a sweep whose second point is refused exits 3 as solve does, and writes nothing
    sweep = tmp_path / "sweep.csv"
    common[0] = "sweep-gamma"
    assert cli.main([*common, "--gammas", "0.5,0.001", "--out", str(sweep)]) == 3
    assert not sweep.exists()


def test_gamma_limit_over_a_budget_exits_3_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "limit.csv"
    atoms = ["gamma-limit", "--mu", "atoms:0.5:1", "--nu", "atoms:0.5:1", "--quiet", "--out", str(out)]
    # the second point's 19986 x 19986 support block is over the dense kernel's budget
    argv = [*atoms, "--n", "40000", "--schedule", "pairs:0.1:0.25,0.001:0.25"]
    assert cli.main(argv) == 3
    assert "exceeds the dense kernel's budget" in capsys.readouterr().err
    assert not out.exists()
    # 10^12 cells are refused before the extended grid or the mollifier allocates
    assert cli.main([*atoms, "--n", "1000000000000", "--schedule", "pairs:0.1:0.1"]) == 3
    assert "asks for 1200000000000 cells, above the budget" in capsys.readouterr().err
    assert not out.exists()
