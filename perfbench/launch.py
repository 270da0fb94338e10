"""Run one entot CLI job for the benchmark, optionally recording layer spans.

    python3 perfbench/launch.py STAMP TRACE -- ENTOT-ARGUMENTS...

Imports ``entot.cli`` from the ``src`` directory beside this one, writes
``time.monotonic()`` to the file STAMP as ``entot.cli.main`` is entered
(the launching process subtracts its own launch time to get the set-up
time), runs ``main`` on the arguments, and exits with its code, as the
installed ``entot`` entry point does.

TRACE is "-" for an untraced job. Otherwise the public functions of
``cli``, ``measures``, ``solver``, ``orlicz`` and ``gamma_limit`` listed in
SPANS are wrapped before ``main`` runs, and TRACE receives, as JSON, the
self time of every span (its duration minus the part its child spans
cover) and the layer counts. The wrappers live here, not in entot.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict


def _rows_read(tracer, args, result) -> None:
    rows = result.grid.n if hasattr(result, "grid") else result.grid1.n * result.grid2.n
    tracer.counts["measures.rows_read"] += rows


def _bytes_written(tracer, args, result) -> None:
    # the CLI's outputs are ASCII, so characters are bytes
    tracer.counts["cli.bytes_written"] += sum(len(text) for text in args[0].values())


def _iterations(tracer, args, result) -> None:
    tracer.counts["solver.iterations"] += result.report.iterations


def _norm_steps(tracer, args, result) -> None:
    tracer.counts["orlicz.norm_steps"] += result.iterations


def _support_size(tracer, args, result) -> None:
    tracer.support_sizes.append(int((result.density > 0).sum()))


#: span name -> (module, function names, recorder of counts or None);
#: recorders see the positional arguments and the result of a call that returned
SPANS = {
    "cli.main": ("cli", ("main",), None),
    "cli.emit": ("cli", ("emit_files",), _bytes_written),
    "measures.read": ("measures", ("read_measure_csv", "read_product_csv"), _rows_read),
    "solver.solve": ("solver", ("solve", "solve_logdomain"), _iterations),
    "solver.kernel": ("solver", ("gibbs_kernel",), None),
    "solver.cost": ("solver", ("cost_field",), None),
    "solver.diagnostics": (
        "solver", ("primal_value", "dual_value", "optimality_residual", "potentials_from_state"), None),
    "orlicz.norm": ("orlicz", ("luxemburg_norm",), _norm_steps),
    "orlicz.entropy": ("orlicz", ("neg_entropy",), None),
    "gamma_limit.smooth": ("gamma_limit", ("smooth_marginal",), _support_size),
    "gamma_limit.sweep": ("gamma_limit", ("gamma_sweep",), None),
}


class Tracer:
    """Self times and counts of the spans around calls into entot's layers."""

    def __init__(self) -> None:
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.support_sizes = []
        self._child = []  # time covered by child spans, one entry per open span

    def wrap(self, span, fn, record):
        def traced(*args, **kwargs):
            self._child.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = time.perf_counter() - t0
                self.self_s[span] += took - self._child.pop()
                if self._child:
                    self._child[-1] += took
            if record is not None:
                record(self, args, result)
            return result

        return traced

    def install(self, package) -> None:
        """Replace each listed function wherever entot's modules bind it."""
        modules = [getattr(package, name) for name in ("cli", "measures", "solver", "orlicz", "gamma_limit")]
        for span, (module, names, record) in SPANS.items():
            for name in names:
                original = getattr(getattr(package, module), name)
                traced = self.wrap(span, original, record)
                for mod in (package, *modules):
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, traced)

    def table(self) -> dict:
        counts = dict(self.counts)
        # gamma_sweep smooths mu, then nu, for each point in schedule order
        sizes = self.support_sizes
        counts["gamma_limit.support_cells"] = sum(a * b for a, b in zip(sizes[::2], sizes[1::2]))
        return {"self_s": dict(self.self_s), "counts": counts}


def main() -> int:
    stamp, trace_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        print("usage: launch.py STAMP TRACE -- ENTOT-ARGUMENTS...", file=sys.stderr)
        return 2
    # not normalized, so that its length follows the padded work directory
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    sys.path.insert(0, src)
    import entot
    import entot.cli

    if not os.path.abspath(entot.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"entot imported from {entot.__file__}, not from {src}", file=sys.stderr)
        return 2
    tracer = None
    if trace_path != "-":
        tracer = Tracer()
        tracer.install(entot)
    entered = time.monotonic()
    with open(stamp, "w") as fh:
        fh.write(repr(entered))
    code = entot.cli.main(argv)
    if tracer is not None:
        with open(trace_path, "w") as fh:
            json.dump(tracer.table(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
