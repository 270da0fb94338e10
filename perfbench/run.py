"""Benchmark of the entot command line, end to end and layer by layer.

    python3 perfbench/run.py --workload sweep-log --seed 1 --seconds 35 --trace 0

A run generates its inputs from the seed, runs one untimed warm-up round,
then repeats whole rounds of the workload's CLI jobs, one process at a
time with BLAS and OpenMP held to one thread and the allocator pinned
(see below), until ``--seconds`` have passed. Every job's outputs are
checked outside the timed region. The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

With ``--trace 0`` the metrics are end to end: the median wall and CPU
time of a round, the median set-up time of a job and the largest max-RSS
of any job. With ``--trace 1`` each round runs its jobs once with the
layer spans of launch.py and once without; the metrics are the span self
times and counts of the median traced round, the time no span covers and
the tracing overhead. See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
# Page faults are a large share of these jobs, and with default settings
# their count depends on luck, not on the work: glibc moves its mmap and
# trim thresholds as a process frees memory, so whether an n x n temporary
# reuses heap pages or faults in fresh ones depends on the order of earlier
# allocations, and numpy's huge-page requests succeed or not with the
# alignment and fragmentation of memory. The same sweep-log job took 6k or
# 294k faults (1.0 or 1.7 s). So both are pinned: the thresholds at the
# values glibc's own rule converges to, and no huge pages.
os.environ["MALLOC_MMAP_THRESHOLD_"] = str(32 << 20)
os.environ["MALLOC_TRIM_THRESHOLD_"] = str(64 << 20)
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
# an installed entot has its bytecode compiled; let the warm-up round cache it
os.environ.pop("PYTHONDONTWRITEBYTECODE", None)

#: the jobs' environment: this one, less the shell's record of the
#: directory the benchmark was started from (see run_job)
JOB_ENV = {name: value for name, value in os.environ.items() if name not in ("PWD", "OLDPWD")}

import numpy as np  # noqa: E402  (after the thread limits, which BLAS reads on load)

import checks  # noqa: E402
import problems  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LAUNCH = HERE / "launch.py"
#: a job still running after this long is killed and counted as failed
JOB_TIMEOUT_S = 100.0
#: the CLI's default stopping tolerance, which the sweep checks derive from
CLI_TOL = 1e-9


@dataclass
class Job:
    """One finished CLI process."""

    code: int
    wall_s: float
    cpu_s: float
    setup_s: float
    rss_mb: float
    trace: Optional[dict]
    ok: bool  # exited 0 and, if traced, wrote its span table


def run_job(argv: Sequence[str], work: Path, trace: bool) -> Job:
    """Launch one CLI process in ``work``, wait for it, and take its measures."""
    stamp = work / "stamp"
    trace_file = work / "trace.json"
    for path in (stamp, trace_file):
        path.unlink(missing_ok=True)
    # Every path the job sees has the same length whatever the checkout's
    # location and the run's pid: the paths on its command line are relative
    # to ``work``, whose own path is padded (see work_dir), -P keeps the
    # script's directory out of sys.path, and JOB_ENV has no PWD. The
    # lengths of these strings alone moved the peak RSS of the same
    # gamma-limit-fine job between 61.1 and 65.3 MiB, as they shift where
    # the job's large arrays land in the heap.
    launch = os.path.relpath(LAUNCH, work)
    cmd = [sys.executable, "-P", launch, stamp.name, trace_file.name if trace else "-", "--", *argv]
    with open(work / "stderr.txt", "w") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=work, env=JOB_ENV, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            t1 = time.monotonic()
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    code = proc.returncode
    if code != 0:
        sys.stderr.write(f"job {' '.join(argv)} exited {code}: {(work / 'stderr.txt').read_text()[-2000:]}\n")
    setup = float(stamp.read_text()) - t0 if stamp.exists() else float("nan")
    table = json.loads(trace_file.read_text()) if trace and trace_file.exists() else None
    ok = code == 0 and (table is not None or not trace)
    return Job(code, t1 - t0, usage.ru_utime + usage.ru_stime, setup, usage.ru_maxrss / 1024.0, table, ok)


def read_rows(path: Path) -> List[dict]:
    """Rows of a CLI CSV output, numbers as floats."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        for key, value in row.items():
            if key != "status":
                row[key] = float(value)
    return rows


class Workload:
    """The inputs, the jobs of one round and the output checks of a workload."""

    def prepare(self, work: Path, seed: int) -> None:
        raise NotImplementedError

    def jobs(self) -> List[List[str]]:
        raise NotImplementedError

    def check(self, work: Path) -> List[str]:
        """Failures found in the outputs of the round that just ran."""
        raise NotImplementedError


class Sweep(Workload):
    """``entot sweep-gamma`` on a seeded smooth pair."""

    def __init__(self, n: int, gammas: Sequence[float], mode: str):
        self.n, self.gammas, self.mode = n, list(gammas), mode

    def prepare(self, work: Path, seed: int) -> None:
        x, mu, nu = problems.smooth_pair(self.n, seed)
        (work / "mu.csv").write_text(problems.measure_csv(x, mu))
        (work / "nu.csv").write_text(problems.measure_csv(x, nu))
        h = 1.0 / self.n
        self.w0 = problems.monotone_cost(x, mu * h, x, nu * h)
        self.reference = {g: problems.sinkhorn_reference(x, mu, nu, g) for g in self.gammas}

    def jobs(self) -> List[List[str]]:
        return [[
            "sweep-gamma", "--mu", "mu.csv", "--nu", "nu.csv", "--mode", self.mode, "--threads", "1",
            "--gammas", ",".join(repr(g) for g in self.gammas), "--out", "sweep.csv",
        ]]

    def check(self, work: Path) -> List[str]:
        return checks.check_sweep(read_rows(work / "sweep.csv"), self.reference, self.w0, CLI_TOL)


class GammaLimit(Workload):
    """``entot gamma-limit`` on unit atoms at 0 and 1, delta = 0.01 gamma^2."""

    GAMMAS = (0.025, 0.05, 0.1, 0.2)

    def __init__(self, n: int):
        self.n = n

    def prepare(self, work: Path, seed: int) -> None:
        # The instance is fixed; the seed does not change it. Even reordering
        # its schedule moves the peak RSS between 61.1 and 65.4 MiB.
        self.reference = (1.0 - 0.0) ** 2  # a unit atom moved a distance of 1

    def jobs(self) -> List[List[str]]:
        schedule = "power:coeff=0.01:exp=2:gammas=" + ",".join(repr(g) for g in self.GAMMAS)
        return [[
            "gamma-limit", "--mu", "atoms:0:1", "--nu", "atoms:1:1", "--schedule", schedule,
            "--n", str(self.n), "--threads", "1", "--out", "limit.csv",
        ]]

    def check(self, work: Path) -> List[str]:
        return checks.check_limit(read_rows(work / "limit.csv"), self.GAMMAS, self.reference)


class PlanRoundtrip(Workload):
    """``entot solve --plan`` in direct mode, then ``entot check-optimality`` on the plan."""

    GAMMA = 0.1

    def __init__(self, n: int):
        self.n = n

    def prepare(self, work: Path, seed: int) -> None:
        x, self.mu, self.nu = problems.smooth_pair(self.n, seed)
        (work / "mu.csv").write_text(problems.measure_csv(x, self.mu))
        (work / "nu.csv").write_text(problems.measure_csv(x, self.nu))
        self.verdicts: Dict[str, List[str]] = {}

    def jobs(self) -> List[List[str]]:
        common = ["--mu", "mu.csv", "--nu", "nu.csv", "--gamma", repr(self.GAMMA)]
        return [
            ["solve", *common, "--mode", "direct", "--out", "report.json", "--plan", "plan.csv"],
            ["check-optimality", *common, "--plan", "plan.csv", "--out", "check.json"],
        ]

    def check(self, work: Path) -> List[str]:
        # reruns on the same inputs are byte-identical, so a full check of
        # one set of outputs holds for every later round with the same bytes
        digest = hashlib.sha256()
        for name in ("plan.csv", "report.json", "check.json"):
            digest.update((work / name).read_bytes())
        key = digest.hexdigest()
        if key not in self.verdicts:
            table = np.loadtxt(work / "plan.csv", delimiter=",", skiprows=1, ndmin=2)
            reported = {
                "solve": json.loads((work / "report.json").read_text())["primal"],
                "check-optimality": json.loads((work / "check.json").read_text())["primal"],
            }
            self.verdicts[key] = checks.check_plan(table, self.mu, self.nu, self.GAMMA, reported)
        return self.verdicts[key]


WORKLOADS = {
    "sweep-log": Sweep(256, (0.1, 0.05, 0.02, 0.01), "log"),
    "sweep-direct": Sweep(2048, (0.5, 0.2, 0.1, 0.05), "direct"),
    "gamma-limit-fine": GammaLimit(640000),
    # run by hand only: with 22 runs of 35 s per workload, a fourth workload
    # would not fit in an hour, so BENCHMARK.json lists the other three
    "plan-roundtrip": PlanRoundtrip(512),
}


@dataclass
class Round:
    jobs: List[Job]
    failures: List[str]
    attempted: int

    @property
    def wall_s(self) -> float:
        return sum(j.wall_s for j in self.jobs)

    @property
    def failed(self) -> int:
        """Jobs counted as failed: a job not ``ok``, one not run after it, or any failed check."""
        if self.failures:
            return self.attempted
        return self.attempted - sum(j.ok for j in self.jobs)


def run_round(workload: Workload, work: Path, trace: bool) -> Round:
    planned = workload.jobs()
    jobs = []
    for argv in planned:
        jobs.append(run_job(argv, work, trace))
        if not jobs[-1].ok:
            return Round(jobs, [], len(planned))
    try:
        failures = workload.check(work)
    except (OSError, ValueError, KeyError) as exc:
        failures = [f"unreadable output: {exc!r}"]
    for line in failures:
        sys.stderr.write(f"check failed: {line}\n")
    return Round(jobs, failures, len(planned))


#: length of the absolute path of a run's work directory, where every job runs
WORK_PATH_LEN = 200


def work_dir(workload: str) -> Path:
    """A fresh directory for one run, its path padded to ``WORK_PATH_LEN`` characters."""
    base = HERE / "work"
    base.mkdir(exist_ok=True)
    name = f"{workload}-{os.getpid()}-"
    work = base / (name + "x" * max(0, WORK_PATH_LEN - len(str(base / name))))
    work.mkdir()
    return work


END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

#: per-layer metric -> span of launch.py whose self time it reports
LAYER_SPANS = {
    "solver.solve_self_s": "solver.solve",
    "solver.kernel_s": "solver.kernel",
    "solver.cost_s": "solver.cost",
    "solver.diagnostics_s": "solver.diagnostics",
    "orlicz.norm_s": "orlicz.norm",
    "orlicz.entropy_s": "orlicz.entropy",
    "gamma_limit.smooth_s": "gamma_limit.smooth",
    "gamma_limit.sweep_self_s": "gamma_limit.sweep",
    "measures.read_s": "measures.read",
    "cli.emit_s": "cli.emit",
    "cli.self_s": "cli.main",
}
LAYER_COUNTS = {
    "solver.iterations": "count",
    "orlicz.norm_steps": "count",
    "gamma_limit.support_cells": "count",
    "measures.rows_read": "count",
    "cli.bytes_written": "bytes",
}


def end_to_end(rounds: List[Round]) -> Dict[str, float]:
    jobs = [j for r in rounds for j in r.jobs]
    return {
        "wall_s": statistics.median(r.wall_s for r in rounds),
        "cpu_s": statistics.median(sum(j.cpu_s for j in r.jobs) for r in rounds),
        "setup_s": statistics.median(j.setup_s for j in jobs),
        "peak_rss_mb": max(j.rss_mb for j in jobs),
    }


def _summed(jobs: Sequence[Job], key: str) -> Dict[str, float]:
    total: Dict[str, float] = {}
    for job in jobs:
        for name, value in job.trace[key].items():
            total[name] = total.get(name, 0) + value
    return total


def per_layer(traced: List[Round], plain: List[Round]) -> Dict[str, float]:
    """Layer figures of the median traced round, plus the tracing overhead.

    Taking every figure from one round keeps them additive: the self
    times plus ``trace.uncovered_s`` equal ``trace.wall_s``.
    """
    median_round = sorted(traced, key=lambda r: r.wall_s)[len(traced) // 2]
    self_s = _summed(median_round.jobs, "self_s")
    counts = _summed(median_round.jobs, "counts")
    for r in traced:
        if _summed(r.jobs, "counts") != counts:
            sys.stderr.write(f"layer counts differ between rounds: {_summed(r.jobs, 'counts')} vs {counts}\n")
    metrics = {name: self_s.get(span, 0.0) for name, span in LAYER_SPANS.items()}
    metrics.update({name: float(counts.get(name, 0)) for name in LAYER_COUNTS})
    iterations = counts.get("solver.iterations", 0)
    metrics["solver.us_per_iter"] = 1e6 * metrics["solver.solve_self_s"] / iterations if iterations else 0.0
    metrics["trace.wall_s"] = median_round.wall_s
    metrics["trace.uncovered_s"] = median_round.wall_s - sum(self_s.values())
    metrics["trace.overhead_s"] = (
        statistics.median(r.wall_s for r in traced) - statistics.median(r.wall_s for r in plain)
    )
    return metrics


def layer_unit(name: str) -> str:
    if name in LAYER_COUNTS:
        return LAYER_COUNTS[name]
    return "us" if name == "solver.us_per_iter" else "s"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "entot" / "cli.py").is_file():
        print(f"no entot sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    misses = checks.self_test()
    if misses:
        print("the output checks failed their self-test:", *misses, sep="\n", file=sys.stderr)
        return 2

    # on SIGTERM, unwind through the finally blocks that stop the running job
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workload = WORKLOADS[args.workload]
    work = work_dir(args.workload)
    try:
        workload.prepare(work, args.seed)
        run_round(workload, work, trace=False)  # warm-up: caches, bytecode, page cache
        traced: List[Round] = []
        plain: List[Round] = []
        start = time.monotonic()
        while not plain or time.monotonic() - start < args.seconds:
            if args.trace:
                traced.append(run_round(workload, work, trace=True))
            plain.append(run_round(workload, work, trace=False))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    rounds = traced + plain
    # figures come from rounds whose jobs all exited 0 and passed their checks
    traced_ok = [r for r in traced if r.failed == 0]
    plain_ok = [r for r in plain if r.failed == 0]
    if not plain_ok or (args.trace and not traced_ok):
        print(f"{args.workload}: no round ran without a failure", file=sys.stderr)
        return 1
    if args.trace:
        metrics = per_layer(traced_ok, plain_ok)
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics = end_to_end(plain_ok)
        units = END_TO_END_UNITS
    result = {
        "correct": not any(r.failures for r in rounds),
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    sys.stderr.write(f"{args.workload} seed {args.seed}: {len(plain)} rounds\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
