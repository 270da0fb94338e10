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
value is recorded under "provenance" in JSON outputs. Outputs are written
atomically (all files appear, or none). Exit codes: 0 success, 2 usage,
3 invalid parameter, 4 missing input file, 5 computation failed or did
not converge, 6 output write failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

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


_DEFAULTS: Dict[str, Dict[str, object]] = {
    "solve": {
        "mu": None,
        "nu": None,
        "cost": "sqdist",
        "gamma": None,
        "tol": 1e-9,
        "max_iter": 100000,
        "mode": "log",
        "out": "report.json",
        "plan": None,
    },
    "sweep-gamma": {
        "mu": None,
        "nu": None,
        "cost": "sqdist",
        "gammas": None,
        "tol": 1e-9,
        "max_iter": 100000,
        "mode": "log",
        "out": "sweep.csv",
    },
    "gamma-limit": {
        "mu": None,
        "nu": None,
        "cost": "sqdist",
        "schedule": None,
        "n": 256,
        "domain": "0:1",
        "tol": 1e-9,
        "max_iter": 100000,
        "mode": "log",
        "out": "sweep.csv",
    },
    "orlicz-norm": {"young": "log", "input": None, "tol": 1e-10, "out": None},
    "entropy": {"input": None, "out": None},
    "check-optimality": {
        "mu": None,
        "nu": None,
        "cost": "sqdist",
        "gamma": None,
        "plan": None,
        "tol": 1e-6,
        "out": None,
    },
}

_GLOBAL_DEFAULTS = {"out_dir": None, "quiet": False, "threads": 1}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON file supplying any option; flags win")
    common.add_argument("--out-dir", dest="out_dir", help="directory prefixed to relative output paths")
    common.add_argument("--quiet", action="store_const", const=True, default=None, help="suppress progress output")
    common.add_argument("--threads", type=int, help="worker threads for sweeps (default 1, bitwise reproducible)")

    p = argparse.ArgumentParser(prog="entot", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", parents=[common], help="entropic transport between two measures")
    ps.add_argument("--mu", help="first marginal CSV (x,density)")
    ps.add_argument("--nu", help="second marginal CSV")
    ps.add_argument("--cost", help="sqdist | abs | file:cost.csv")
    ps.add_argument("--gamma", type=float, help="regularization weight, positive")
    ps.add_argument("--tol", type=float, help="marginal residual tolerance")
    ps.add_argument("--max-iter", dest="max_iter", type=int)
    ps.add_argument("--mode", choices=["log", "direct"])
    ps.add_argument("--out", help="report JSON path")
    ps.add_argument("--plan", help="optional plan CSV path")

    pg = sub.add_parser("sweep-gamma", parents=[common], help="solve over a list of gammas")
    pg.add_argument("--mu")
    pg.add_argument("--nu")
    pg.add_argument("--cost")
    pg.add_argument("--gammas", help="comma-separated gamma values")
    pg.add_argument("--tol", type=float)
    pg.add_argument("--max-iter", dest="max_iter", type=int)
    pg.add_argument("--mode", choices=["log", "direct"])
    pg.add_argument("--out")

    pl = sub.add_parser("gamma-limit", parents=[common], help="smoothed-marginal (gamma, delta) sweep")
    pl.add_argument("--mu", help="atoms:loc:mass,loc:mass,...")
    pl.add_argument("--nu", help="atoms:loc:mass,...")
    pl.add_argument("--cost", help="sqdist | abs (named rules only)")
    pl.add_argument("--schedule", help="coupled:c=C:gammas=... | power:coeff=C:exp=P:gammas=... | pairs:g:d,...")
    pl.add_argument("--n", type=int, help="cell count on the original domain")
    pl.add_argument("--domain", help="original domain as lo:hi (default 0:1)")
    pl.add_argument("--tol", type=float)
    pl.add_argument("--max-iter", dest="max_iter", type=int)
    pl.add_argument("--mode", choices=["log", "direct"])
    pl.add_argument("--out")

    po = sub.add_parser("orlicz-norm", parents=[common], help="Luxemburg norm of a sampled function")
    po.add_argument("--young", choices=["log", "exp", "solver"])
    po.add_argument("--input", help="CSV with x,density rows")
    po.add_argument("--tol", type=float)
    po.add_argument("--out", help="optional JSON output path")

    pe = sub.add_parser("entropy", parents=[common], help="integral of f log f")
    pe.add_argument("--input")
    pe.add_argument("--out")

    pc = sub.add_parser("check-optimality", parents=[common], help="recheck a stored plan")
    pc.add_argument("--mu")
    pc.add_argument("--nu")
    pc.add_argument("--cost")
    pc.add_argument("--gamma", type=float)
    pc.add_argument("--plan", help="plan CSV to check")
    pc.add_argument("--tol", type=float, help="residual tolerance for the verdict")
    pc.add_argument("--out")
    return p


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
        except (OSError, json.JSONDecodeError) as exc:
            raise CliError(EXIT_PARAM, f"config file {args.config}: {exc}")
        if not isinstance(file_values, dict):
            raise CliError(EXIT_PARAM, f"config file {args.config}: expected a JSON object")

    options: Dict[str, object] = {}
    provenance: Dict[str, str] = {}
    merged_defaults = dict(_GLOBAL_DEFAULTS)
    merged_defaults.update(_DEFAULTS[command])
    for key, default in merged_defaults.items():
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            options[key] = flag_val
            provenance[key] = "flag"
        elif key in file_values:
            options[key] = file_values[key]
            provenance[key] = "config"
        else:
            options[key] = default
            provenance[key] = "default"

    violations = _validate(command, options)
    return ExperimentConfig(command, options, provenance), violations


def _validate(command: str, o: Dict[str, object]) -> List[Tuple[str, str]]:
    """Return (kind, message) pairs; kind is "param" or "missing"."""
    v: List[Tuple[str, str]] = []

    def param(msg: str) -> None:
        v.append(("param", msg))

    def need_file(key: str) -> None:
        path = o.get(key)
        if path is None:
            param(f"--{key.replace('_', '-')} is required")
        elif not isinstance(path, str) or not os.path.exists(path):
            v.append(("missing", f"--{key.replace('_', '-')}: file not found: {path}"))

    def need_positive(key: str) -> None:
        val = o.get(key)
        if val is None:
            param(f"--{key.replace('_', '-')} is required")
            return
        try:
            ok = float(val) > 0
        except (TypeError, ValueError):
            ok = False
        if not ok:
            param(f"--{key.replace('_', '-')} must be positive, got {val}")

    if command in ("solve", "sweep-gamma", "check-optimality"):
        need_file("mu")
        need_file("nu")
        cost = o.get("cost")
        if isinstance(cost, str) and cost.startswith("file:"):
            if not os.path.exists(cost[5:]):
                v.append(("missing", f"--cost: file not found: {cost[5:]}"))
        elif cost not in solver.COST_RULES:
            param(f"--cost must be sqdist, abs, or file:PATH, got {cost}")
    if command in ("solve", "check-optimality"):
        need_positive("gamma")
    if command == "check-optimality":
        need_file("plan")
    if command == "sweep-gamma":
        try:
            gammas = _parse_floats(o.get("gammas"))
            if not gammas or any(g <= 0 for g in gammas):
                param(f"--gammas must list positive values, got {o.get('gammas')}")
        except ValueError:
            param(f"--gammas could not be parsed: {o.get('gammas')}")
    if command == "gamma-limit":
        for key in ("mu", "nu"):
            try:
                _parse_atoms(o.get(key))
            except ValueError as exc:
                param(f"--{key}: {exc}")
        if o.get("cost") not in gl.CONVEX_RULES:
            param(f"--cost must be one of {gl.CONVEX_RULES} for gamma-limit, got {o.get('cost')}")
        try:
            sched = _parse_schedule(o.get("schedule"))
            if not sched:
                param("--schedule must contain at least one point")
        except ValueError as exc:
            param(f"--schedule: {exc}")
        try:
            _parse_domain(o.get("domain"))
        except ValueError as exc:
            param(f"--domain: {exc}")
        n = o.get("n")
        if not isinstance(n, int) or n < 1:
            param(f"--n must be a positive integer, got {n}")
    if command in ("orlicz-norm", "entropy"):
        need_file("input")
    if command in ("solve", "sweep-gamma", "gamma-limit", "orlicz-norm", "check-optimality"):
        need_positive("tol")
    if command in ("solve", "sweep-gamma", "gamma-limit"):
        mi = o.get("max_iter")
        if not isinstance(mi, int) or mi < 1:
            param(f"--max-iter must be a positive integer, got {mi}")
        if o.get("mode") not in ("log", "direct"):
            param(f"--mode must be log or direct, got {o.get('mode')}")
    threads = o.get("threads")
    if not isinstance(threads, int) or threads < 1:
        param(f"--threads must be a positive integer, got {threads}")
    return v


def _parse_floats(text) -> List[float]:
    if text is None:
        raise ValueError("missing value")
    if isinstance(text, (list, tuple)):
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
        return gl.coupled_schedule(gammas, float(fields.get("c", 1.0)))
    if kind == "power":
        gammas = _parse_floats(fields.get("gammas"))
        return gl.power_schedule(
            gammas, float(fields.get("coeff", 0.01)), float(fields.get("exp", 2.0))
        )
    if kind == "pairs":
        body = ":".join(tail) if tail else ""
        pairs = []
        for chunk in body.split(","):
            gd = chunk.split(":")
            if len(gd) != 2:
                raise ValueError(f"bad pair {chunk!r}, expected gamma:delta")
            pairs.append((float(gd[0]), float(gd[1])))
        return pairs
    raise ValueError(f"unknown schedule kind {kind!r}")


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _csv_text(header: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, float):
                cells.append(repr(cell))
            else:
                cells.append(str(cell))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _resolve_out(path: Optional[str], out_dir: Optional[str]) -> Optional[str]:
    if path is None:
        return None
    if out_dir and not os.path.isabs(path):
        return os.path.join(out_dir, path)
    return path


def emit_files(outputs: Dict[str, str]) -> None:
    """Write every (path -> text) pair atomically: all files appear or none.

    Content is staged to temporary files in the target directories first;
    only after every stage succeeds are the files moved into place.
    """
    staged: List[Tuple[str, str]] = []
    try:
        for path, text in outputs.items():
            directory = os.path.dirname(path) or "."
            try:
                fd, tmp = tempfile.mkstemp(dir=directory, prefix=".entot-", suffix=".tmp")
            except OSError as exc:
                raise CliError(EXIT_WRITE, f"cannot write to {path}: {exc}")
            staged.append((tmp, path))
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
        while staged:
            tmp, path = staged[0]
            os.replace(tmp, path)
            staged.pop(0)
    finally:
        for tmp, _ in staged:
            try:
                os.unlink(tmp)
            except OSError:
                pass


def _load_measure(path: str) -> measures.GridMeasure:
    try:
        return measures.read_measure_csv(path)
    except FileNotFoundError:
        raise CliError(EXIT_MISSING_FILE, f"input file not found: {path}")
    except ValueError as exc:
        raise CliError(EXIT_PARAM, str(exc))


def _build_cost(descriptor: str, g1, g2) -> solver.CostField:
    if descriptor.startswith("file:"):
        path = descriptor[5:]
        try:
            table = measures.read_product_csv(path)
        except FileNotFoundError:
            raise CliError(EXIT_MISSING_FILE, f"cost file not found: {path}")
        except ValueError as exc:
            raise CliError(EXIT_PARAM, str(exc))
        return solver.CostField(g1, g2, table.values)
    return solver.cost_field(g1, g2, descriptor)


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
        "provenance": provenance,
    }


def _cmd_solve(cfg: ExperimentConfig) -> int:
    o = cfg.options
    mu = _load_measure(o["mu"])
    nu = _load_measure(o["nu"])
    cost = _build_cost(o["cost"], mu.grid, nu.grid)
    run = solver.solve if o["mode"] == "direct" else solver.solve_logdomain
    code = EXIT_OK
    try:
        result = run(mu, nu, cost, float(o["gamma"]), tol=float(o["tol"]), max_iter=int(o["max_iter"]))
        plan, report = result.plan, result.report
    except solver.ConvergenceError as exc:
        report, plan, code = exc.report, None, EXIT_FAILED

    outputs = {_resolve_out(o["out"], o["out_dir"]): _json_text(_report_dict(report, cfg.provenance))}
    if o["plan"] is not None and plan is not None:
        rows = []
        xs, ys = plan.grid1.centers, plan.grid2.centers
        for i in range(plan.grid1.n):
            for j in range(plan.grid2.n):
                rows.append((float(xs[i]), float(ys[j]), float(plan.values[i, j])))
        outputs[_resolve_out(o["plan"], o["out_dir"])] = _csv_text(["x", "y", "density"], rows)
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
    mu = _load_measure(o["mu"])
    nu = _load_measure(o["nu"])
    cost = _build_cost(o["cost"], mu.grid, nu.grid)
    run = solver.solve if o["mode"] == "direct" else solver.solve_logdomain
    rows = []
    worst = EXIT_OK
    for gamma in _parse_floats(o["gammas"]):
        try:
            rep = run(mu, nu, cost, gamma, tol=float(o["tol"]), max_iter=int(o["max_iter"])).report
            status = "ok"
        except solver.ConvergenceError as exc:
            rep, status, worst = exc.report, "failed: no convergence", EXIT_FAILED
        except solver.SolverError as exc:
            rows.append((gamma, 0, float("nan"), float("nan"), float("nan"),
                         float("nan"), float("nan"), f"failed: {exc}"))
            worst = EXIT_FAILED
            continue
        rows.append(
            (gamma, rep.iterations, rep.primal_value, rep.dual_value, rep.gap,
             rep.optimality_residual[0], rep.optimality_residual[1], status)
        )
    header = ["gamma", "iterations", "primal", "dual", "gap", "r1", "r2", "status"]
    emit_files({_resolve_out(o["out"], o["out_dir"]): _csv_text(header, rows)})
    if not o["quiet"]:
        print(f"swept {len(rows)} gamma values -> {o['out']}")
    return worst


def _cmd_gamma_limit(cfg: ExperimentConfig) -> int:
    o = cfg.options
    mu = _parse_atoms(o["mu"])
    nu = _parse_atoms(o["nu"])
    lo, hi = _parse_domain(o["domain"])
    schedule = _parse_schedule(o["schedule"])
    grid = measures.Grid1D(lo, hi, int(o["n"]))
    ext = gl.ExtendedDomain.extend(grid, max(d for _, d in schedule))
    try:
        points = gl.gamma_sweep(
            mu, nu, o["cost"], schedule, ext,
            tol=float(o["tol"]), max_iter=int(o["max_iter"]),
            mode=o["mode"], threads=int(o["threads"]),
        )
    except solver.ParameterError as exc:
        raise CliError(EXIT_PARAM, str(exc))
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
    emit_files({_resolve_out(o["out"], o["out_dir"]): _csv_text(header, rows)})
    if not o["quiet"]:
        for p in points:
            print(f"gamma={p.gamma} delta={p.delta} value={p.regularized_value!r} [{p.status}]")
    return EXIT_OK if all(p.status == "ok" for p in points) else EXIT_FAILED


def _cmd_orlicz_norm(cfg: ExperimentConfig) -> int:
    o = cfg.options
    f = _load_measure(o["input"])
    result = orlicz.luxemburg_norm(f, _YOUNG[o["young"]], float(o["tol"]))
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
    try:
        plan = measures.read_product_csv(o["plan"])
    except FileNotFoundError:
        raise CliError(EXIT_MISSING_FILE, f"plan file not found: {o['plan']}")
    except ValueError as exc:
        raise CliError(EXIT_PARAM, str(exc))
    for key, grid, m in (("mu", plan.grid1, mu), ("nu", plan.grid2, nu)):
        # the grids are rebuilt from printed centers, so match them to a fraction of a cell
        if grid.n != m.grid.n or not np.allclose(
            grid.centers, m.grid.centers, rtol=0, atol=1e-6 * m.grid.h
        ):
            raise CliError(
                EXIT_PARAM,
                f"plan grid ({grid.n} cells on [{grid.lo!r}, {grid.hi!r}]) does not match "
                f"--{key} ({m.grid.n} cells on [{m.grid.lo!r}, {m.grid.hi!r}])",
            )
    cost = _build_cost(o["cost"], plan.grid1, plan.grid2)
    m1, m2 = measures.marginals(plan)
    r1 = float(np.abs(m1.density - mu.density).sum() * mu.grid.h)
    r2 = float(np.abs(m2.density - nu.density).sum() * nu.grid.h)
    primal = solver.primal_value(plan, cost, float(o["gamma"]))
    within = bool(max(r1, r2) <= float(o["tol"]))
    payload = {
        "r1": r1,
        "r2": r2,
        "primal": primal,
        "within_tol": within,
        "tol": float(o["tol"]),
        "provenance": cfg.provenance,
    }
    out = _resolve_out(o["out"], o["out_dir"])
    if out:
        emit_files({out: _json_text(payload)})
    if not o["quiet"]:
        print(f"r1={r1!r} r2={r2!r} primal={primal!r} within_tol={within}")
    return EXIT_OK if within else EXIT_FAILED


_HANDLERS = {
    "solve": _cmd_solve,
    "sweep-gamma": _cmd_sweep_gamma,
    "gamma-limit": _cmd_gamma_limit,
    "orlicz-norm": _cmd_orlicz_norm,
    "entropy": _cmd_entropy,
    "check-optimality": _cmd_check_optimality,
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
        return _HANDLERS[cfg.command](cfg)
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
