"""Command-line entry point.

Subcommands
-----------
solve            entropic transport between two grid-measure CSV files
sweep-gamma      repeat solve over a list of gamma values, fixed marginals
gamma-limit      smooth atomic marginals and sweep a (gamma, delta) schedule
orlicz-norm      Luxemburg norm of a sampled function
entropy          neg-entropy (integral of f log f) of a sampled density
check-optimality recompute marginal residuals and objective of a stored plan

A JSON config file (flat keys named after the long flags, underscores for
dashes) may supply any option; explicit flags win and the origin of every
value is recorded under "provenance" in JSON outputs. A key that names no
option of any subcommand is an invalid parameter, and so is a config key;
a key of another subcommand's option is ignored, so one file can serve
several commands.
A config file that is missing, unreadable, not JSON or not an object is
reported alone. A config value must
have the option's JSON type: a number for --gamma and --tol, an integer
for --n, --max-iter and --threads, true or false for --quiet, a list of
numbers or a string for --gammas, and a string otherwise. Booleans are not
numbers. A string given for a numeric option is read as the flag's text,
and null is accepted only for an option that is unset by default, such as
solve's --plan. Any other value is an invalid parameter. So are a
non-finite --gamma, --gammas value or --tol, an empty output path (--out,
and solve's --plan), an output that names the file of an input option
(--config included) or of an earlier output, a cost file or stored plan
whose grids are not those of --mu and --nu, and a density whose
neg-entropy overflows.
--threads is checked and ignored: the sweeps solve their points in order,
a point that does not converge or overflows is a failed row (exit 5), and
an invalid parameter at any point exits 3 and writes nothing. Outputs are
written atomically (all files appear, or none). Exit codes: 0 success, 2
usage, 3 invalid parameter or an input that exists but cannot be read, 4
missing input file, 5 computation failed or did not converge, 6 output
write failure. Violations are listed in option order, and exit 4 needs
every violation to be a missing file. Every nonzero exit prints its
reason on stderr as an "error:" line, also under --quiet: the handlers
raise, and only ``main`` maps an outcome to its exit code.

Each option is declared once, in ``_OPTIONS`` (type, choices, help and
reader), and each subcommand once, in ``_COMMANDS`` (help, handler and the
defaults of the options it takes); the parser, the merge of flag, config
value and default, and the checks are all built from these two tables. So
is the reading of each value, once, into what the handler uses: a float
list for --gammas, (gamma, delta) pairs for --schedule, a (lo, hi) pair for
--domain, an ``AtomicMeasure`` for gamma-limit's --mu and --nu, a
``GridMeasure`` for the other commands' --mu, --nu and --input, and a
``ProductDensity`` for --cost file:PATH and check-optimality's --plan.
So input files are read while the options are checked, and a missing,
unreadable or malformed file is reported under its flag with every other
violation; the handlers check only that the files agree with each other.
The solve JSON holds every field of the ``SolveReport``, and JSON outputs
write a float outside the double range, or NaN, as null.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from . import gamma_limit as gl
from . import measures, orlicz, solver

# Exit hooks run before the interpreter's final garbage collections, which would walk
# every tracked object, some 22k after a command, for about 4.5 ms each; frozen objects
# are not walked. Every output is closed before main returns.
atexit.register(gc.freeze)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARAM = 3
EXIT_MISSING_FILE = 4
EXIT_FAILED = 5
EXIT_WRITE = 6

# "solver" names the solver's extended rule, +inf below 0 and the exp rule
# above; a norm only evaluates its rule on |f|, so that rule is PHI_EXP there.
_YOUNG = {"log": orlicz.PHI_LOG, "exp": orlicz.PHI_EXP, "solver": orlicz.PHI_EXP}


@dataclass
class ExperimentConfig:
    """Options of one invocation, read into the values the handlers use; provenance per key."""

    command: str
    options: Dict[str, object]
    provenance: Dict[str, str]


def _parse_floats(text) -> List[float]:
    if isinstance(text, (list, tuple)):
        # a JSON list from a config file: numbers, or strings read as numbers
        if not all(isinstance(t, (str, int, float)) and not isinstance(t, bool) for t in text):
            raise ValueError(f"expected a list of numbers, got {text!r}")
        return [float(t) for t in text]
    return [float(t) for t in str(text).split(",") if t.strip()]


def _parse_atoms(text) -> measures.AtomicMeasure:
    if not isinstance(text, str) or not text.startswith("atoms:"):
        raise ValueError(f"expected atoms:loc:mass,... got {text!r}")
    pairs = []
    for chunk in text[len("atoms:"):].split(","):
        parts = chunk.split(":")
        if len(parts) != 2:
            raise ValueError(f"bad atom {chunk!r}, expected loc:mass")
        pairs.append((float(parts[0]), float(parts[1])))
    # gamma-limit checks the atoms against --domain
    return measures.AtomicMeasure(pairs)


def _parse_domain(text) -> Tuple[float, float]:
    parts = str(text).split(":")
    if len(parts) != 2:
        raise ValueError(f"expected lo:hi, got {text!r}")
    lo, hi = float(parts[0]), float(parts[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"domain bounds must be finite, got {text!r}")
    if hi <= lo:
        raise ValueError(f"domain needs hi > lo, got {text!r}")
    return lo, hi


#: the keys of each key=value schedule kind besides the required gammas, with their defaults
_SCHEDULE_DEFAULTS = {"coupled": {"c": 1.0}, "power": {"coeff": 0.01, "exp": 2.0}}


def _parse_schedule(text) -> List[Tuple[float, float]]:
    kind, _, body = str(text).partition(":")
    if kind in _SCHEDULE_DEFAULTS:
        keys, given = (*_SCHEDULE_DEFAULTS[kind], "gammas"), {}
        for part in body.split(":"):
            key, eq, value = part.partition("=")
            if not eq or key not in keys or key in given:
                raise ValueError(
                    f"bad part {part!r}: a {kind} schedule takes {'=, '.join(keys)}=, each once"
                )
            given[key] = value
        if "gammas" not in given:
            raise ValueError(f"a {kind} schedule needs gammas=")
        fields = {**_SCHEDULE_DEFAULTS[kind], **given}
        gammas = _parse_floats(fields["gammas"])
        if kind == "coupled":
            schedule = gl.coupled_schedule(gammas, float(fields["c"]))
        else:
            schedule = gl.power_schedule(gammas, float(fields["coeff"]), float(fields["exp"]))
    elif kind == "pairs":
        schedule = []
        for chunk in body.split(","):
            gd = chunk.split(":")
            if len(gd) != 2:
                raise ValueError(f"bad pair {chunk!r}, expected gamma:delta")
            schedule.append((float(gd[0]), float(gd[1])))
    else:
        raise ValueError(f"unknown schedule kind {kind!r}")
    if not schedule:
        raise ValueError("must contain at least one point")
    # a negative gamma to a fractional power is complex
    if not all(isinstance(v, float) and 0 < v < math.inf for pair in schedule for v in pair):
        raise ValueError(f"gamma and delta must be positive and finite, got {text!r}")
    return schedule


def _positive(value):
    if not 0 < value < math.inf:
        raise ValueError(f"must be positive and finite, got {value}")
    return value


def _output_path(path: str) -> str:
    if not path:
        raise ValueError("must be a non-empty path")
    return path


_RULE_NAMES = " | ".join(solver.COST_RULES)


# The file readers look ``measures.read_*`` up at each call, so that a wrapper
# later set on the module, such as a tracer's, sees every read.


def _measure_file(path: str) -> measures.GridMeasure:
    return measures.read_measure_csv(path)


def _plan_file(path: str) -> measures.ProductDensity:
    return measures.read_product_csv(path)


def _cost(cost: str) -> Union[measures.ProductDensity, str]:
    """A rule name as it is, or the table of ``file:PATH`` on the table's own grids."""
    if cost.startswith("file:"):
        return measures.read_product_csv(cost[5:])
    return _convex_cost_rule(cost, f"{_RULE_NAMES} | file:PATH")


def _convex_cost_rule(cost: str, allowed: str = f"{_RULE_NAMES} for gamma-limit") -> str:
    """Refuse all but a rule name; every rule is convex in x - y, as gamma-limit's reference needs."""
    try:
        solver._rule(cost)
    except solver.ParameterError:
        raise ValueError(f"must be {allowed}, got {cost}") from None
    return cost


def _gamma_list(text) -> List[float]:
    gammas = _parse_floats(text)
    if not gammas or not all(0 < g < math.inf for g in gammas):
        raise ValueError(f"must list positive finite values, got {text}")
    return gammas


#: marks an option a subcommand requires, which therefore has no default;
#: None is the value of an option left unset, such as solve's --plan
_REQUIRED = object()


@dataclass(frozen=True)
class _Option:
    """One option: the help of its flag, the type that reads its text, its choices, its reader."""

    help: str
    type: Callable = str
    choices: Tuple[str, ...] = ()
    #: turns a set value into the one the handler uses; raises ValueError for
    #: an invalid parameter and OSError for an input file it cannot read
    read: Optional[Callable] = None
    #: (JSON types, their name) a config value may have, if not those of ``type``
    config_types: Optional[Tuple[tuple, str]] = None


#: JSON types a config value may have, by the type that reads the option's
#: flag; a string is read as the flag's text would be
_JSON_TYPES = {
    str: ((str,), "a string"),
    float: ((str, int, float), "a number"),
    int: ((str, int), "an integer"),
    bool: ((bool,), "true or false"),
}

#: every option, by its config key; the flag is the key with dashes for underscores
_OPTIONS: Dict[str, _Option] = {
    "config": _Option("JSON file supplying any option; flags win"),
    "out_dir": _Option("directory prefixed to relative output paths"),
    "quiet": _Option("suppress progress output", bool),
    "threads": _Option(
        "accepted and ignored: sweep points are solved one after another, in order; "
        "kept so that existing command lines and config files still run", int, read=_positive
    ),
    "mu": _Option(
        "first marginal: CSV with x,density rows; for gamma-limit atoms:loc:mass,...",
        read=_measure_file,
    ),
    "nu": _Option("second marginal, in the form of --mu", read=_measure_file),
    "cost": _Option(f"{_RULE_NAMES} | file:cost.csv (gamma-limit: {_RULE_NAMES})", read=_cost),
    "gamma": _Option("regularization weight, positive", float, read=_positive),
    "gammas": _Option(
        "comma-separated gamma values",
        config_types=((str, list), "a list of numbers or a string"),
        read=_gamma_list,
    ),
    "schedule": _Option(
        "coupled:c=C:gammas=... | power:coeff=C:exp=P:gammas=... | pairs:g:d,...",
        read=_parse_schedule,
    ),
    "n": _Option("cell count on the original domain", int, read=_positive),
    "domain": _Option(
        "original domain as lo:hi; join a negative lo with =, as in --domain=-1:1",
        read=_parse_domain,
    ),
    "tol": _Option(
        "marginal residual tolerance; for check-optimality that of the verdict", float, read=_positive
    ),
    "max_iter": _Option("iteration cap of each solve", int, read=_positive),
    "mode": _Option("scaling arithmetic", choices=("log", "direct")),
    "out": _Option("output path: JSON report, or CSV for the sweeps", read=_output_path),
    "plan": _Option(
        "plan CSV (x,y,density) that solve writes and check-optimality reads", read=_output_path
    ),
    "young": _Option("Young function of the norm", choices=tuple(_YOUNG)),
    "input": _Option("CSV with x,density rows", read=_measure_file),
}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="entot", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)
    for command, spec in _COMMANDS.items():
        sp = sub.add_parser(command, help=spec.help)
        for key in ("config", *_SHARED, *spec.defaults):
            opt = _OPTIONS[key]
            if opt.type is bool:
                sp.add_argument(_flag(key), action="store_const", const=True, help=opt.help)
            else:
                sp.add_argument(_flag(key), type=opt.type, choices=opt.choices or None, help=opt.help)
    return p


def _from_config(key: str, value: object, nullable: bool) -> object:
    """A config-file value, read and checked as the option's flag would be.

    Raises ValueError if the value is not of the option's JSON type (a
    boolean is not a number) or not among its choices. ``null`` leaves the
    option unset where ``nullable``.
    """
    opt = _OPTIONS[key]
    if value is None and nullable:
        return None
    types, name = opt.config_types or _JSON_TYPES[opt.type]
    ok = isinstance(value, types) and not (isinstance(value, bool) and bool not in types)
    if ok and not isinstance(value, (bool, list)):
        try:
            value = opt.type(value)
        except (ValueError, OverflowError):  # float() of an integer past 1e308
            ok = False
    if not ok:
        raise ValueError(f"config value must be {name}, got {json.dumps(value)}")
    if opt.choices and value not in opt.choices:
        raise ValueError(f"config value must be one of {', '.join(opt.choices)}, got {value!r}")
    return value


def parse_config(argv: Sequence[str]) -> Tuple[ExperimentConfig, List[Tuple[str, str]]]:
    """Merge flags, config file and defaults, and read each option; collect every violation.

    Returns the configuration, each option read into the value its handler
    uses, and the (kind, message) violations in option order, kind being
    "param" or "missing"; an empty list means the configuration is valid.
    A config file that cannot be used is the only violation.
    """
    args = _build_parser().parse_args(argv)
    command, path, file_values = args.command, args.config, {}
    violations: List[Tuple[str, str]] = []
    if path is not None and not os.path.exists(path):
        violations.append(("missing", f"config file not found: {path}"))
    elif path is not None:
        try:
            with open(path) as fh:
                file_values = json.load(fh)
            if not isinstance(file_values, dict):
                raise ValueError("expected a JSON object")
        except (OSError, ValueError) as exc:  # ValueError: bad JSON, UTF-8 or integer
            violations.append(("param", f"config file {path}: {exc}"))
    if violations:
        return ExperimentConfig(command, {}, {}), violations
    # a key of another subcommand's option is no error, so that one file serves several
    # commands; a config file names no further config file
    for key in file_values:
        if key not in _OPTIONS or key == "config":
            violations.append(("param", f"config file {path}: unknown option {key!r}"))

    spec = _COMMANDS[command]
    options: Dict[str, object] = {}
    provenance: Dict[str, str] = {}
    # (option, path) of each file read so far and each output path, to refuse an output on either
    files: List[Tuple[str, str]] = [] if path is None else [("config", path)]
    for key, default in {**_SHARED, **spec.defaults}.items():
        value, origin = getattr(args, key), "flag"
        if value is None:
            value, origin = (file_values[key], "config") if key in file_values else (default, "default")
        read = spec.readers.get(key, _OPTIONS[key].read)
        try:
            if origin == "config":
                value = _from_config(key, value, nullable=default is None)
            if value is _REQUIRED:
                violations.append(("param", f"{_flag(key)} is required"))
            elif value is not None and read is not None:
                file, value = _input_file(read, value), read(value)
                # an --out-dir refused above is left as the config file gave it: no path
                if read is _output_path and isinstance(options["out_dir"], (str, type(None))):
                    file = _destination(options["out_dir"], value)
                    _refuse_overwrite(key, file, files)
                if file is not None:
                    files.append((key, file))
        except FileNotFoundError as exc:
            violations.append(("missing", f"{_flag(key)}: file not found: {exc.filename}"))
        except OSError as exc:  # such as a directory given as the file
            violations.append(("param", f"{_flag(key)}: cannot read {exc.filename}: {exc.strerror or exc}"))
        except (ValueError, ArithmeticError) as exc:  # such as gamma**exp overflowing
            violations.append(("param", f"{_flag(key)}: {exc}"))
        options[key], provenance[key] = value, origin
    return ExperimentConfig(command, options, provenance), violations


def _input_file(read: Callable, value: str) -> Optional[str]:
    """The path of the file that reader ``read`` reads for ``value``, if it reads one."""
    if read in (_measure_file, _plan_file):
        return value
    if read is _cost and value.startswith("file:"):
        return value[5:]
    return None


def _refuse_overwrite(key: str, path: str, files: List[Tuple[str, str]]) -> None:
    """Refuse output option ``key``'s ``path`` if it is the file of an input or earlier output."""
    for other, file in files:
        if os.path.realpath(path) == os.path.realpath(file):
            raise ValueError(f"names the same file as {_flag(other)} ({path})")


def _json_ready(obj):
    """``obj`` with each float outside the double range, and NaN, as None (JSON null)."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, dict):
        return {key: _json_ready(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(value) for value in obj]
    return obj


def _json_text(obj) -> str:
    return json.dumps(_json_ready(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"


def _destination(out_dir: Optional[str], path: str) -> str:
    """Where an output option set to ``path`` writes: ``path`` if absolute, else under --out-dir."""
    # os.path.join keeps an absolute path as it is
    return os.path.join(out_dir or "", path)


def _emit(o: Dict[str, object], texts: Dict[str, str]) -> None:
    """Write each text to the path of the option it is keyed by, if that is set;
    all files appear or none."""
    out_dir = o["out_dir"]
    emit_files({_destination(out_dir, o[key]): text for key, text in texts.items() if o[key] is not None})


def emit_files(outputs: Dict[str, str]) -> None:
    """Write every (path -> text) pair atomically: all files appear or none.

    Content is staged to temporary files in the target directories first;
    only after every stage succeeds are the files moved into place. A
    target that is an existing directory is refused before any move; if a
    later move fails, the targets already moved get their previous bytes
    back, or are removed if they did not exist.
    """
    staged: List[Tuple[str, str]] = []
    moved: List[Tuple[str, Optional[bytes]]] = []  # each moved target, its previous bytes
    try:
        for path, text in outputs.items():
            if os.path.isdir(path):
                raise OSError(f"cannot write to {path}: is a directory")
            directory = os.path.dirname(path) or "."
            try:
                fd, tmp = tempfile.mkstemp(dir=directory, prefix=".entot-", suffix=".tmp")
            except OSError as exc:
                raise OSError(f"cannot write to {path}: {exc}")
            staged.append((tmp, path))
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
        for tmp, path in staged:
            previous = None
            if os.path.isfile(path):
                with open(path, "rb") as fh:
                    previous = fh.read()
            os.replace(tmp, path)
            moved.append((path, previous))
    except OSError:
        for path, previous in reversed(moved):
            try:
                if previous is None:
                    os.unlink(path)
                else:
                    with open(path, "wb") as fh:
                        fh.write(previous)
            except OSError:
                pass
        raise
    finally:
        for tmp, _ in staged[len(moved):]:
            try:
                os.unlink(tmp)
            except OSError:
                pass


def _match_grids(what: str, table: measures.ProductFunction, mu, nu) -> None:
    """Refuse the table of option ``what`` unless its grids are those of --mu and --nu."""
    for key, grid, m in (("mu", table.grid1, mu), ("nu", table.grid2, nu)):
        if not m.grid.matches(grid):
            raise solver.ParameterError(
                f"{_flag(what)}: {what} grid ({grid.n} cells on [{grid.lo!r}, {grid.hi!r}]) "
                f"does not match --{key} ({m.grid.n} cells on [{m.grid.lo!r}, {m.grid.hi!r}])",
            )


#: the solve JSON's names of the report fields it renames; every other field keeps its name
_JSON_NAMES = {"residual_history": "residuals", "primal_value": "primal", "dual_value": "dual"}


def _report_dict(report: solver.SolveReport, provenance: Dict[str, str]) -> dict:
    """Every field of ``report``, under its JSON name, and the options' provenance."""
    return {**{_JSON_NAMES.get(k, k): v for k, v in vars(report).items()}, "provenance": provenance}


def _load_problem(o: Dict[str, object]) -> Tuple[
    measures.GridMeasure, measures.GridMeasure, Union[measures.ProductDensity, str]
]:
    """--mu, --nu and --cost: a cost table matched to their grids, or a rule name as it is,
    to be evaluated on the supports only."""
    mu, nu, cost = o["mu"], o["nu"], o["cost"]
    if isinstance(cost, measures.ProductDensity):
        _match_grids("cost", cost, mu, nu)
    return mu, nu, cost


def _cmd_solve(cfg: ExperimentConfig) -> None:
    o = cfg.options
    mu, nu, cost = _load_problem(o)
    if o["plan"] is not None:  # refuse an oversized plan before solving
        solver._check_plan_cells(mu.grid.n, nu.grid.n)
    run = solver.solve if o["mode"] == "direct" else solver.solve_logdomain
    try:
        result = run(mu, nu, cost, o["gamma"], tol=o["tol"], max_iter=o["max_iter"])
        report, failure = result.report, None
    except solver.ConvergenceError as exc:
        result, report, failure = None, exc.report, exc

    texts = {"out": _json_text(_report_dict(report, cfg.provenance))}
    if o["plan"] is not None and result is not None:
        texts["plan"] = measures._product_csv_text(result.plan)
    _emit(o, texts)
    if not o["quiet"]:
        state = "converged" if report.converged else "did NOT converge"
        print(
            f"{state} in {report.iterations} iterations; primal {report.primal_value!r}, "
            f"dual {report.dual_value!r}, gap {report.gap!r}"
        )
    if failure is not None:
        raise failure


def _cmd_sweep_gamma(cfg: ExperimentConfig) -> None:
    o = cfg.options
    mu, nu, cost = _load_problem(o)
    gammas = o["gammas"]
    # each distinct gamma once, in decreasing order, warm-started from the
    # potential of the last point that solved; rows keep the given order
    solved, beta = {}, None
    for gamma in sorted(set(gammas), reverse=True):
        rep, status, beta = solver.sweep_point(
            mu, nu, cost, gamma, o["tol"], o["max_iter"], o["mode"], beta
        )
        solved[gamma] = rep, status
    rows = []
    for gamma in gammas:
        rep, status = solved[gamma]
        if rep is None:
            nan = float("nan")
            rows.append((gamma, 0, nan, nan, nan, nan, nan, status))
        else:
            rows.append(
                (gamma, rep.iterations, rep.primal_value, rep.dual_value, rep.gap,
                 rep.optimality_residual[0], rep.optimality_residual[1], status)
            )
    header = ["gamma", "iterations", "primal", "dual", "gap", "r1", "r2", "status"]
    _emit(o, {"out": measures._csv_text(header, rows)})
    if not o["quiet"]:
        print(f"swept {len(rows)} gamma values -> {o['out']}")
    failed = sum(row[-1] != "ok" for row in rows)
    if failed:
        raise solver.SolverError(f"{failed} of {len(rows)} points failed")


def _cmd_gamma_limit(cfg: ExperimentConfig) -> None:
    o = cfg.options
    schedule = o["schedule"]
    try:
        grid = measures.Grid1D(*o["domain"], o["n"])
    except ValueError as exc:
        raise solver.ParameterError(f"--domain: {exc}") from None
    ext = gl.ExtendedDomain.extend(grid, max(d for _, d in schedule))
    points = gl.gamma_sweep(
        o["mu"], o["nu"], o["cost"], schedule, ext, tol=o["tol"], max_iter=o["max_iter"], mode=o["mode"]
    )
    rows = []
    for p in points:
        rows.append(
            (p.gamma, p.delta, p.regularized_value, p.unregularized_reference,
             p.regularized_value - p.unregularized_reference,
             p.entropy_of_smoothed_marginals[0], p.entropy_of_smoothed_marginals[1],
             p.status)
        )
    header = ["gamma", "delta", "regularized_value", "reference", "gap_to_reference",
              "entropy_mu_delta", "entropy_nu_delta", "status"]
    _emit(o, {"out": measures._csv_text(header, rows)})
    if not o["quiet"]:
        for p in points:
            print(f"gamma={p.gamma} delta={p.delta} value={p.regularized_value!r} [{p.status}]")
    failed = sum(p.status != "ok" for p in points)
    if failed:
        raise solver.SolverError(f"{failed} of {len(points)} points failed")


def _cmd_orlicz_norm(cfg: ExperimentConfig) -> None:
    o = cfg.options
    result = orlicz.luxemburg_norm(o["input"], _YOUNG[o["young"]], o["tol"])
    payload = {
        "value": result.value,
        "bracket": list(result.bracket),
        "iterations": result.iterations,
        "young": o["young"],
        "provenance": cfg.provenance,
    }
    _emit(o, {"out": _json_text(payload)})
    print(repr(result.value))


def _cmd_entropy(cfg: ExperimentConfig) -> None:
    o = cfg.options
    value = orlicz.neg_entropy(o["input"])
    _emit(o, {"out": _json_text({"value": value, "provenance": cfg.provenance})})
    print(repr(value))


def _cmd_check_optimality(cfg: ExperimentConfig) -> None:
    o = cfg.options
    plan = o["plan"]
    _match_grids("plan", plan, o["mu"], o["nu"])
    mu, nu, cost = _load_problem(o)
    if isinstance(cost, str):
        cost = solver.cost_field(plan.grid1, plan.grid2, cost)
    # a finite plan's marginals and objective can overflow; they are then inf and fail --tol
    with np.errstate(over="ignore"):
        r1 = float(np.abs(plan.values.sum(axis=1) * plan.grid2.h - mu.density).sum() * mu.grid.h)
        r2 = float(np.abs(plan.values.sum(axis=0) * plan.grid1.h - nu.density).sum() * nu.grid.h)
        primal = solver.primal_value(plan, cost, o["gamma"])
    within = bool(max(r1, r2) <= o["tol"])
    payload = {
        "r1": r1,
        "r2": r2,
        "primal": primal,
        "within_tol": within,
        "tol": o["tol"],
        "provenance": cfg.provenance,
    }
    _emit(o, {"out": _json_text(payload)})
    if not o["quiet"]:
        print(f"r1={r1!r} r2={r2!r} primal={primal!r} within_tol={within}")
    if not within:
        raise solver.SolverError(f"largest marginal residual {max(r1, r2)!r} exceeds --tol {o['tol']!r}")


class _Command(NamedTuple):
    help: str
    #: writes the outputs; raises on failure, and main maps the exception to an exit code
    run: Callable[[ExperimentConfig], None]
    #: the options the subcommand takes besides those of _SHARED, with their defaults
    defaults: Dict[str, object]
    #: readers of options the subcommand reads otherwise than _OPTIONS does
    readers: Dict[str, Callable] = {}


#: options of every subcommand besides --config, with their defaults
_SHARED = {"out_dir": None, "quiet": False, "threads": 1}

_COMMANDS: Dict[str, _Command] = {
    "solve": _Command("entropic transport between two measures", _cmd_solve, {
        "mu": _REQUIRED, "nu": _REQUIRED, "cost": "sqdist", "gamma": _REQUIRED, "tol": 1e-9,
        "max_iter": 100000, "mode": "log", "out": "report.json", "plan": None,
    }),
    "sweep-gamma": _Command("solve over a list of gammas", _cmd_sweep_gamma, {
        "mu": _REQUIRED, "nu": _REQUIRED, "cost": "sqdist", "gammas": _REQUIRED, "tol": 1e-9,
        "max_iter": 100000, "mode": "log", "out": "sweep.csv",
    }),
    "gamma-limit": _Command("smoothed-marginal (gamma, delta) sweep", _cmd_gamma_limit, {
        "mu": _REQUIRED, "nu": _REQUIRED, "cost": "sqdist", "schedule": _REQUIRED, "n": 256,
        "domain": "0:1", "tol": 1e-9, "max_iter": 100000, "mode": "log", "out": "sweep.csv",
    }, readers={"mu": _parse_atoms, "nu": _parse_atoms, "cost": _convex_cost_rule}),
    "orlicz-norm": _Command("Luxemburg norm of a sampled function", _cmd_orlicz_norm, {
        "young": "log", "input": _REQUIRED, "tol": 1e-10, "out": None,
    }),
    "entropy": _Command("integral of f log f", _cmd_entropy, {"input": _REQUIRED, "out": None}),
    "check-optimality": _Command("recheck a stored plan", _cmd_check_optimality, {
        "mu": _REQUIRED, "nu": _REQUIRED, "cost": "sqdist", "gamma": _REQUIRED,
        "plan": _REQUIRED, "tol": 1e-6, "out": None,
    }, readers={"plan": _plan_file}),
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command; the exit code of its outcome, whose reason, if it failed, is on stderr."""
    cfg, violations = parse_config(sys.argv[1:] if argv is None else argv)
    for _, message in violations:
        print(f"error: {message}", file=sys.stderr)
    if violations:
        return EXIT_MISSING_FILE if all(kind == "missing" for kind, _ in violations) else EXIT_PARAM
    try:
        _COMMANDS[cfg.command].run(cfg)
        return EXIT_OK
    except (solver.ParameterError, OverflowError) as exc:  # such as f log f of a huge density
        code, reason = EXIT_PARAM, exc
    except solver.SolverError as exc:
        code, reason = EXIT_FAILED, exc
    except OSError as exc:
        code, reason = EXIT_WRITE, exc
    print(f"error: {reason}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
