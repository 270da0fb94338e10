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
value is recorded under "provenance" in JSON outputs. A config value must
have the option's JSON type: a number for --gamma and --tol, an integer
for --n, --max-iter and --threads, true or false for --quiet, a list of
numbers or a string for --gammas, and a string otherwise. Booleans are not
numbers. A string given for a numeric option is read as the flag's text,
and null is accepted only for an option that is unset by default, such as
solve's --plan. Any other value is an invalid parameter. So are a
non-finite --gamma, --gammas value or --tol, an empty output path (--out,
and solve's --plan), and a cost file or stored plan whose grids are not
those of --mu and --nu. --threads is checked and ignored: the sweeps solve
their points in order, a point that does not converge or overflows is a
failed row (exit 5), and an invalid parameter at any point exits 3 and
writes nothing. Outputs are written atomically (all files appear, or
none). Exit codes: 0 success, 2 usage, 3 invalid parameter or an input
that exists but cannot be read, 4 missing input file, 5 computation failed
or did not converge, 6 output write failure.

Each option is declared once, in ``_OPTIONS`` (type, choices, help and
check), and each subcommand once, in ``_COMMANDS`` (help, handler and the
defaults of the options it takes); the parser, the merge of flag, config
value and default, and the checks are all built from these two tables.
"""

from __future__ import annotations

import argparse
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

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARAM = 3
EXIT_MISSING_FILE = 4
EXIT_FAILED = 5
EXIT_WRITE = 6

_YOUNG = {"log": orlicz.PHI_LOG, "exp": orlicz.PHI_EXP, "solver": orlicz.PHI_SOLVER}


class CliError(Exception):
    def __init__(self, code: int, message: str):
        self.code = code
        super().__init__(message)


@dataclass
class ExperimentConfig:
    """Validated options of one invocation, with per-key provenance."""

    command: str
    options: Dict[str, object]
    provenance: Dict[str, str]


def _parse_floats(text) -> List[float]:
    if text is None:
        raise ValueError("missing value")
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
    lo = min(x for x, _ in pairs)
    hi = max(x for x, _ in pairs)
    return measures.AtomicMeasure(pairs, min(lo, 0.0), max(hi, 1.0))


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


def _parse_schedule(text) -> List[Tuple[float, float]]:
    if text is None:
        raise ValueError("missing value")
    parts = str(text).split(":")
    kind = parts[0]
    fields = {}
    tail = []
    for part in parts[1:]:
        if "=" in part:
            k, val = part.split("=", 1)
            fields[k] = val
        else:
            tail.append(part)
    if kind == "coupled":
        gammas = _parse_floats(fields.get("gammas"))
        schedule = gl.coupled_schedule(gammas, float(fields.get("c", 1.0)))
    elif kind == "power":
        gammas = _parse_floats(fields.get("gammas"))
        schedule = gl.power_schedule(
            gammas, float(fields.get("coeff", 0.01)), float(fields.get("exp", 2.0))
        )
    elif kind == "pairs":
        body = ":".join(tail) if tail else ""
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
    if not all(isinstance(v, float) and math.isfinite(v) for pair in schedule for v in pair):
        raise ValueError(f"gamma and delta must be finite real numbers, got {text!r}")
    return schedule


def _existing_file(path: str) -> None:
    if not os.path.exists(path):
        raise FileNotFoundError(f"file not found: {path}")


def _positive(value) -> None:
    if not 0 < value < math.inf:
        raise ValueError(f"must be positive and finite, got {value}")


def _output_path(path: str) -> None:
    if not path:
        raise ValueError("must be a non-empty path")


def _cost_rule(cost: str) -> None:
    if cost.startswith("file:"):
        _existing_file(cost[5:])
    elif cost not in solver.COST_RULES:
        raise ValueError(f"must be sqdist, abs, or file:PATH, got {cost}")


def _convex_cost_rule(cost: str) -> None:
    if cost not in gl.CONVEX_RULES:
        raise ValueError(f"must be one of {gl.CONVEX_RULES} for gamma-limit, got {cost}")


def _gamma_list(text) -> None:
    gammas = _parse_floats(text)
    if not gammas or not all(0 < g < math.inf for g in gammas):
        raise ValueError(f"must list positive finite values, got {text}")


#: marks an option a subcommand requires, which therefore has no default;
#: None is the value of an option left unset, such as solve's --plan
_REQUIRED = object()


@dataclass(frozen=True)
class _Option:
    """One option: the help of its flag, the type that reads its text, its choices, its check."""

    help: str
    type: Callable = str
    choices: Tuple[str, ...] = ()
    #: checks a set value; raises ValueError for an invalid parameter and
    #: FileNotFoundError for a missing input file
    check: Optional[Callable] = None
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
        "kept so that existing command lines and config files still run", int, check=_positive
    ),
    "mu": _Option(
        "first marginal: CSV with x,density rows; for gamma-limit atoms:loc:mass,...",
        check=_existing_file,
    ),
    "nu": _Option("second marginal, in the form of --mu", check=_existing_file),
    "cost": _Option("sqdist | abs | file:cost.csv (gamma-limit: sqdist | abs)", check=_cost_rule),
    "gamma": _Option("regularization weight, positive", float, check=_positive),
    "gammas": _Option(
        "comma-separated gamma values",
        config_types=((str, list), "a list of numbers or a string"),
        check=_gamma_list,
    ),
    "schedule": _Option(
        "coupled:c=C:gammas=... | power:coeff=C:exp=P:gammas=... | pairs:g:d,...",
        check=_parse_schedule,
    ),
    "n": _Option("cell count on the original domain", int, check=_positive),
    "domain": _Option(
        "original domain as lo:hi; join a negative lo with =, as in --domain=-1:1",
        check=_parse_domain,
    ),
    "tol": _Option(
        "marginal residual tolerance; for check-optimality that of the verdict", float, check=_positive
    ),
    "max_iter": _Option("iteration cap of each solve", int, check=_positive),
    "mode": _Option("scaling arithmetic", choices=("log", "direct")),
    "out": _Option("output path: JSON report, or CSV for the sweeps", check=_output_path),
    "plan": _Option(
        "plan CSV (x,y,density) that solve writes and check-optimality reads", check=_output_path
    ),
    "young": _Option("Young function of the norm", choices=tuple(_YOUNG)),
    "input": _Option("CSV with x,density rows", check=_existing_file),
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
        raise ValueError(f"must be {name}, got {json.dumps(value)}")
    if opt.choices and value not in opt.choices:
        raise ValueError(f"must be one of {', '.join(opt.choices)}, got {value!r}")
    return value


def parse_config(argv: Sequence[str]) -> Tuple[ExperimentConfig, List[Tuple[str, str]]]:
    """Merge flags, config file, and defaults; collect every violation.

    Returns the merged configuration and a list of (kind, message)
    violations, kind being "param" or "missing"; an empty list means
    the configuration is valid.
    """
    args = _build_parser().parse_args(argv)
    command = args.command
    file_values: Dict[str, object] = {}
    if args.config is not None:
        if not os.path.exists(args.config):
            raise CliError(EXIT_MISSING_FILE, f"config file not found: {args.config}")
        try:
            with open(args.config) as fh:
                file_values = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError: bad JSON, UTF-8 or integer
            raise CliError(EXIT_PARAM, f"config file {args.config}: {exc}")
        if not isinstance(file_values, dict):
            raise CliError(EXIT_PARAM, f"config file {args.config}: expected a JSON object")

    options: Dict[str, object] = {}
    provenance: Dict[str, str] = {}
    violations: List[Tuple[str, str]] = []
    for key, default in {**_SHARED, **_COMMANDS[command].defaults}.items():
        value, origin = getattr(args, key), "flag"
        if value is None and key in file_values:
            origin = "config"
            try:
                value = _from_config(key, file_values[key], nullable=default is None)
            except ValueError as exc:
                violations.append(("param", f"{_flag(key)}: config value {exc}"))
        elif value is None:
            value, origin = default, "default"
            if value is _REQUIRED:
                violations.append(("param", f"{_flag(key)} is required"))
                value = None
        options[key] = value
        provenance[key] = origin

    violations += _validate(command, options)
    return ExperimentConfig(command, options, provenance), violations


def _validate(command: str, o: Dict[str, object]) -> List[Tuple[str, str]]:
    """Return (kind, message) pairs for the set options; kind is "param" or "missing"."""
    v: List[Tuple[str, str]] = []
    for key, value in o.items():
        check = _COMMANDS[command].checks.get(key, _OPTIONS[key].check)
        if value is None or check is None:
            continue
        try:
            check(value)
        except FileNotFoundError as exc:
            v.append(("missing", f"{_flag(key)}: {exc}"))
        except (ValueError, ArithmeticError) as exc:  # such as gamma**exp overflowing
            v.append(("param", f"{_flag(key)}: {exc}"))
    return v


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _resolve_out(path: Optional[str], out_dir: Optional[str]) -> Optional[str]:
    if path is None:
        return None
    if out_dir and not os.path.isabs(path):
        return os.path.join(out_dir, path)
    return path


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
                raise CliError(EXIT_WRITE, f"cannot write to {path}: is a directory")
            directory = os.path.dirname(path) or "."
            try:
                fd, tmp = tempfile.mkstemp(dir=directory, prefix=".entot-", suffix=".tmp")
            except OSError as exc:
                raise CliError(EXIT_WRITE, f"cannot write to {path}: {exc}")
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


def _read(read: Callable, path: str, what: str):
    """``read(path)`` for a CSV reader of ``measures``; a missing file exits 4,
    an unreadable or malformed one 3."""
    try:
        return read(path)
    except FileNotFoundError:
        raise CliError(EXIT_MISSING_FILE, f"{what} file not found: {path}")
    except OSError as exc:  # such as a directory given as the file
        raise CliError(EXIT_PARAM, f"cannot read {what} file {path}: {exc.strerror or exc}")
    except ValueError as exc:
        raise CliError(EXIT_PARAM, str(exc))


def _load_measure(path: str) -> measures.GridMeasure:
    return _read(measures.read_measure_csv, path, "input")


def _match_grids(what: str, table: measures.ProductFunction, mu, nu) -> None:
    """Exit 3 unless the grids of a table read from CSV are those of --mu and --nu."""
    for key, grid, m in (("mu", table.grid1, mu), ("nu", table.grid2, nu)):
        # the grids are rebuilt from printed centers, so match them to a fraction of a cell
        if grid.n != m.grid.n or not np.allclose(
            grid.centers, m.grid.centers, rtol=0, atol=1e-6 * m.grid.h
        ):
            raise CliError(
                EXIT_PARAM,
                f"{what} grid ({grid.n} cells on [{grid.lo!r}, {grid.hi!r}]) does not match "
                f"--{key} ({m.grid.n} cells on [{m.grid.lo!r}, {m.grid.hi!r}])",
            )


def _build_cost(descriptor: str, mu, nu, grids) -> solver.CostField:
    """--cost tabulated on ``grids``; a cost file must be on the grids of --mu and --nu."""
    if descriptor.startswith("file:"):
        table = _read(measures.read_product_csv, descriptor[5:], "cost")
        _match_grids("cost", table, mu, nu)
        return solver.CostField(*grids, table.values)
    return solver.cost_field(*grids, descriptor)


def _report_dict(report: solver.SolveReport, provenance: Dict[str, str]) -> dict:
    return {
        "iterations": report.iterations,
        "residuals": list(report.residual_history),
        "primal": report.primal_value,
        "dual": report.dual_value,
        "gap": report.gap,
        "optimality_residual": list(report.optimality_residual),
        "gauge_constant": report.gauge_constant,
        "converged": report.converged,
        "mode": report.mode,
        "absorptions": report.absorptions,
        "fallbacks": report.fallbacks,
        "kernel": report.kernel,
        "kernel_reason": report.kernel_reason,
        "sandwich_k": report.sandwich_k,
        "sandwich_violation": report.sandwich_violation,
        "provenance": provenance,
    }


def _load_problem(o: Dict[str, object]) -> Tuple[
    measures.GridMeasure, measures.GridMeasure, Union[solver.CostField, str]
]:
    """Load --mu, --nu and --cost, a rule name as it is, to be evaluated on the supports only."""
    mu = _load_measure(o["mu"])
    nu = _load_measure(o["nu"])
    if o.get("plan") is not None:  # solve --plan: refuse an oversized plan before solving
        solver._check_plan_cells(mu.grid.n, nu.grid.n)
    cost = o["cost"]
    if cost not in solver.COST_RULES:
        cost = _build_cost(cost, mu, nu, (mu.grid, nu.grid))
    return mu, nu, cost


def _cmd_solve(cfg: ExperimentConfig) -> int:
    o = cfg.options
    mu, nu, cost = _load_problem(o)
    run = solver.solve if o["mode"] == "direct" else solver.solve_logdomain
    code = EXIT_OK
    try:
        result = run(mu, nu, cost, o["gamma"], tol=o["tol"], max_iter=o["max_iter"])
        report = result.report
    except solver.ConvergenceError as exc:
        result, report, code = None, exc.report, EXIT_FAILED

    outputs = {_resolve_out(o["out"], o["out_dir"]): _json_text(_report_dict(report, cfg.provenance))}
    if o["plan"] is not None and result is not None:
        outputs[_resolve_out(o["plan"], o["out_dir"])] = measures._product_csv_text(result.plan)
    emit_files(outputs)
    if not o["quiet"]:
        state = "converged" if report.converged else "did NOT converge"
        print(
            f"{state} in {report.iterations} iterations; primal {report.primal_value!r}, "
            f"dual {report.dual_value!r}, gap {report.gap!r}"
        )
    return code


def _cmd_sweep_gamma(cfg: ExperimentConfig) -> int:
    o = cfg.options
    mu, nu, cost = _load_problem(o)
    rows = []
    for gamma in _parse_floats(o["gammas"]):
        rep, status = solver.sweep_point(mu, nu, cost, gamma, o["tol"], o["max_iter"], o["mode"])
        if rep is None:
            nan = float("nan")
            rows.append((gamma, 0, nan, nan, nan, nan, nan, status))
        else:
            rows.append(
                (gamma, rep.iterations, rep.primal_value, rep.dual_value, rep.gap,
                 rep.optimality_residual[0], rep.optimality_residual[1], status)
            )
    header = ["gamma", "iterations", "primal", "dual", "gap", "r1", "r2", "status"]
    emit_files({_resolve_out(o["out"], o["out_dir"]): measures._csv_text(header, rows)})
    if not o["quiet"]:
        print(f"swept {len(rows)} gamma values -> {o['out']}")
    return EXIT_OK if all(row[-1] == "ok" for row in rows) else EXIT_FAILED


def _cmd_gamma_limit(cfg: ExperimentConfig) -> int:
    o = cfg.options
    mu = _parse_atoms(o["mu"])
    nu = _parse_atoms(o["nu"])
    lo, hi = _parse_domain(o["domain"])
    schedule = _parse_schedule(o["schedule"])
    grid = measures.Grid1D(lo, hi, o["n"])
    ext = gl.ExtendedDomain.extend(grid, max(d for _, d in schedule))
    points = gl.gamma_sweep(
        mu, nu, o["cost"], schedule, ext, tol=o["tol"], max_iter=o["max_iter"], mode=o["mode"]
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
    emit_files({_resolve_out(o["out"], o["out_dir"]): measures._csv_text(header, rows)})
    if not o["quiet"]:
        for p in points:
            print(f"gamma={p.gamma} delta={p.delta} value={p.regularized_value!r} [{p.status}]")
    return EXIT_OK if all(p.status == "ok" for p in points) else EXIT_FAILED


def _cmd_orlicz_norm(cfg: ExperimentConfig) -> int:
    o = cfg.options
    f = _load_measure(o["input"])
    result = orlicz.luxemburg_norm(f, _YOUNG[o["young"]], o["tol"])
    payload = {
        "value": result.value,
        "bracket": list(result.bracket),
        "iterations": result.iterations,
        "young": o["young"],
        "provenance": cfg.provenance,
    }
    out = _resolve_out(o["out"], o["out_dir"])
    if out:
        emit_files({out: _json_text(payload)})
    print(repr(result.value))
    return EXIT_OK


def _cmd_entropy(cfg: ExperimentConfig) -> int:
    o = cfg.options
    f = _load_measure(o["input"])
    value = orlicz.neg_entropy(f)
    out = _resolve_out(o["out"], o["out_dir"])
    if out:
        emit_files({out: _json_text({"value": value, "provenance": cfg.provenance})})
    print(repr(value))
    return EXIT_OK


def _cmd_check_optimality(cfg: ExperimentConfig) -> int:
    o = cfg.options
    mu = _load_measure(o["mu"])
    nu = _load_measure(o["nu"])
    plan = _read(measures.read_product_csv, o["plan"], "plan")
    _match_grids("plan", plan, mu, nu)
    cost = _build_cost(o["cost"], mu, nu, (plan.grid1, plan.grid2))
    m1, m2 = measures.marginals(plan)
    r1 = float(np.abs(m1.density - mu.density).sum() * mu.grid.h)
    r2 = float(np.abs(m2.density - nu.density).sum() * nu.grid.h)
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
    out = _resolve_out(o["out"], o["out_dir"])
    if out:
        emit_files({out: _json_text(payload)})
    if not o["quiet"]:
        print(f"r1={r1!r} r2={r2!r} primal={primal!r} within_tol={within}")
    return EXIT_OK if within else EXIT_FAILED


class _Command(NamedTuple):
    help: str
    run: Callable[[ExperimentConfig], int]
    #: the options the subcommand takes besides those of _SHARED, with their defaults
    defaults: Dict[str, object]
    #: checks of options the subcommand reads otherwise than _OPTIONS does
    checks: Dict[str, Callable] = {}


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
    }, checks={"mu": _parse_atoms, "nu": _parse_atoms, "cost": _convex_cost_rule}),
    "orlicz-norm": _Command("Luxemburg norm of a sampled function", _cmd_orlicz_norm, {
        "young": "log", "input": _REQUIRED, "tol": 1e-10, "out": None,
    }),
    "entropy": _Command("integral of f log f", _cmd_entropy, {"input": _REQUIRED, "out": None}),
    "check-optimality": _Command("recheck a stored plan", _cmd_check_optimality, {
        "mu": _REQUIRED, "nu": _REQUIRED, "cost": "sqdist", "gamma": _REQUIRED,
        "plan": _REQUIRED, "tol": 1e-6, "out": None,
    }, checks={"plan": _existing_file}),
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        cfg, violations = parse_config(sys.argv[1:] if argv is None else argv)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    if violations:
        for _, message in violations:
            print(f"error: {message}", file=sys.stderr)
        if all(kind == "missing" for kind, _ in violations):
            return EXIT_MISSING_FILE
        return EXIT_PARAM
    try:
        return _COMMANDS[cfg.command].run(cfg)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except solver.ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAM
    except solver.SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILED
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename}", file=sys.stderr)
        return EXIT_MISSING_FILE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_WRITE


if __name__ == "__main__":
    sys.exit(main())
