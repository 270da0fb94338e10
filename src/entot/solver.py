"""Entropic optimal transport on product grids by alternate scaling.

The regularized problem minimizes

    sum_ij c_ij pi_ij h1 h2  +  gamma * sum_ij pi_ij (log pi_ij - 1) h1 h2

over nonnegative plans pi with prescribed marginals mu and nu. Its
optimality system is solved by alternately rescaling two vectors a and b
against the Gibbs kernel K = exp(-c / gamma); the optimal plan is
pi_ij = a_i K_ij b_j. The dual objective is

    -gamma * [ sum_ij a_i b_j K_ij h1 h2
               - sum_i log(a_i) mu_i h1 - sum_j log(b_j) nu_j h2 ]

and equals the primal value at the joint optimum. Cells where a marginal
vanishes carry scaling value 0 for the whole run, which reproduces the
product support structure of the optimal plan exactly.

One scaling loop serves :func:`solve` and :func:`solve_logdomain`, and
through them every sweep. It runs on the supports only, iterates log a
and log b, and asks one kernel object for the log row and column
denominators. The dense kernel reduces the block by matvecs with the
stabilized kernel exp(f (+) g - c/gamma) (Schmitzer, arXiv:1610.06519).
In log mode, the default everywhere else in the package, f starts at
-max_j log K_ij, f and g absorb log a and log b whenever these drift too
far, and a pass that still over- or underflows is redone by log-sum-exp;
in direct mode f = g = 0. The two agree to near machine precision
whenever direct arithmetic does not over- or underflow. A cost named by a
rule of :data:`COST_RULES` is evaluated on the support centers only.
When such a rule meets two grids of one spacing, K is a Toeplitz matrix,
and on large blocks whose kernel range FFT round-off can resolve, an FFT
kernel convolves instead, in O(n log n) time and O(n) memory; a pass that
fails its round-off check sends the solve back to the dense kernel.

The report comes from the loop's last passes: since c + gamma log pi =
gamma (log a + log b) on the block, the primal and dual values, their gap
and both marginal residuals follow from the plan's row and column sums,
which those passes' denominators give. The transport cost is one more
matvec. The plan, dual state and potentials are built when first read.
:func:`primal_value` recomputes the objective of a stored plan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple, Union

import numpy as np

from .measures import MASS_TOL, Grid1D, GridMeasure, ProductDensity, ProductFunction

__all__ = [
    "CostField",
    "GibbsKernel",
    "DualState",
    "Potentials",
    "SolveReport",
    "SolveResult",
    "TransportPlan",
    "SolverError",
    "ParameterError",
    "DivergedScalingError",
    "DirectOverflowError",
    "ConvergenceError",
    "COST_RULES",
    "cost_field",
    "gibbs_kernel",
    "solve",
    "solve_logdomain",
    "sweep_point",
    "primal_value",
    "dual_value",
    "optimality_residual",
    "potentials_from_state",
]

#: the transport plan is just a nonnegative density on the product grid
TransportPlan = ProductDensity


class SolverError(Exception):
    """Base class for solver failures."""


class ParameterError(SolverError, ValueError):
    """Invalid argument (non-probability marginal, non-positive gamma, ...)."""


class DivergedScalingError(SolverError):
    """A scaling denominator vanished at a cell with positive marginal."""

    def __init__(self, iteration: int, side: str):
        self.iteration = iteration
        self.side = side
        super().__init__(
            f"scaling denominator vanished on the {side} side at iteration {iteration}"
        )


class DirectOverflowError(SolverError):
    """Direct-mode arithmetic left the representable range."""

    def __init__(self, iteration: int):
        self.iteration = iteration
        super().__init__(
            f"direct-mode overflow at iteration {iteration}; retry in log-domain "
            "mode (mode='log')"
        )


class ConvergenceError(SolverError):
    """Marginal residual did not reach tol within max_iter; carries the report."""

    def __init__(self, report: "SolveReport"):
        self.report = report
        super().__init__(
            f"no convergence after {report.iterations} iterations, last residual "
            f"{report.residual_history[-1]:.3e}"
        )


def sweep_point(
    mu: GridMeasure, nu: GridMeasure, c: Union[CostField, str], gamma: float, tol: float,
    max_iter: int, mode: str,
) -> Tuple[Optional[SolveReport], str]:
    """Solve one sweep point in ``mode``; return its report and status, by the sweeps' one policy.

    No convergence keeps the report, with the status ``failed: no convergence in N
    iterations (residual X)``; a scaling that overflows or vanishes gives no report
    and ``failed: <reason>``; a :class:`ParameterError` propagates.
    """
    run = solve if mode == "direct" else solve_logdomain
    try:
        return run(mu, nu, c, gamma, tol=tol, max_iter=max_iter).report, "ok"
    except ConvergenceError as exc:
        residual = exc.report.residual_history[-1]
        return exc.report, f"failed: no convergence in {max_iter} iterations (residual {residual:.3e})"
    except (DirectOverflowError, DivergedScalingError) as exc:
        return None, f"failed: {exc}"


def _sqdist(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return (x - y) ** 2


def _absdist(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.abs(x - y)


#: closed-form cost rules; each maps broadcastable x, y arrays to costs
COST_RULES: dict = {"sqdist": _sqdist, "abs": _absdist}


class CostField(ProductFunction):
    """Finite, nonnegative cost values c(x_i, y_j) on a product grid; refusals are ParameterErrors."""

    def __init__(self, grid1: Grid1D, grid2: Grid1D, values):
        try:
            super().__init__(grid1, grid2, values)
        except ValueError as exc:
            raise ParameterError(f"cost {exc}") from None
        if not np.all(np.isfinite(self.values)):
            raise ParameterError("cost values must be finite")
        if np.any(self.values < 0):
            raise ParameterError("cost values must be nonnegative")


def _rule_values(rule: str, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The named cost rule at every pair of ``x`` (rows) and ``y`` (columns)."""
    if not isinstance(rule, str) or rule not in COST_RULES:
        raise ParameterError(f"unknown cost rule {rule!r}, expected one of {sorted(COST_RULES)}")
    return COST_RULES[rule](x[:, None], y[None, :])


def cost_field(grid1: Grid1D, grid2: Grid1D, rule: str) -> CostField:
    """Tabulate a named closed-form cost rule on the product grid."""
    return CostField(grid1, grid2, _rule_values(rule, grid1.centers, grid2.centers))


# GibbsKernel, gibbs_kernel, dual_value and optimality_residual are full-grid
# versions of the kernel and the report's dual value and residuals that no
# command calls. The benchmark's tracer (perfbench/launch.py, SPANS) looks
# them up by name and fails on a missing one, so they stay until its spans change.


@dataclass(frozen=True, eq=False)
class GibbsKernel:
    """The kernel K_ij = exp(-c_ij / gamma) together with its exact logarithm.

    ``log_values`` (= -c/gamma) is always kept; ``values`` may underflow to
    zero for very small gamma, which only matters to the direct-mode loop.
    """

    grid1: Grid1D
    grid2: Grid1D
    gamma: float
    values: np.ndarray
    log_values: np.ndarray


def gibbs_kernel(c: CostField, gamma: float) -> GibbsKernel:
    """Build the Gibbs kernel of a cost table; gamma must be positive."""
    if not np.isfinite(gamma) or gamma <= 0:
        raise ParameterError(f"gamma must be positive, got {gamma}")
    log_values = -c.values / gamma
    values = np.exp(log_values)
    values.setflags(write=False)
    log_values.setflags(write=False)
    return GibbsKernel(c.grid1, c.grid2, float(gamma), values, log_values)


@dataclass(frozen=True, eq=False)
class DualState:
    """Scaling vectors with their exact log-domain shadows.

    Entries are 0 (log shadow -inf) exactly on the cells where the
    corresponding marginal vanishes; elsewhere strictly positive with
    exp(log_a) = a to within rounding.
    """

    a: np.ndarray
    b: np.ndarray
    log_a: np.ndarray
    log_b: np.ndarray


@dataclass(frozen=True, eq=False)
class Potentials:
    """Back-substituted dual potentials alpha = gamma log a, beta = gamma log b.

    Cells outside the marginal supports carry -inf sentinels; no claim of
    continuity is made.
    """

    alpha: np.ndarray
    beta: np.ndarray


@dataclass(frozen=True)
class SolveReport:
    """Outcome record of one solve.

    ``residual_history`` lists the weighted L1 error of the unenforced
    marginal after each scaling pass; ``transport_cost`` is the part
    sum_ij c_ij pi_ij h1 h2 of the primal value; ``optimality_residual``
    is the pair of marginal-equation residuals of the final state;
    ``gauge_constant`` is the factor the a-vector was divided by to
    normalize its integral to 1. ``absorptions`` counts how often log mode
    folded log a and log b into the stabilized kernel, the fold after the
    first a-pass included, and ``fallbacks`` the passes redone by log-sum-exp;
    both are 0 in direct mode and on the FFT kernel. ``kernel`` is
    ``"fft"`` or ``"dense"``; for ``"dense"``, ``kernel_reason`` names the
    gate condition that kept the FFT kernel off, or the pass that abandoned
    it. ``sandwich_k`` is k = log(cbar/cunder), the spread of the log row
    denominators c_i = sum_j K_ij b_j h2 of the returned state over supp mu,
    and ``sandwich_violation`` is how far log a leaves [log mu - k, log mu + k]
    there, nonpositive when the paper's two-sided potential bound holds; the
    gauge (sum_i a_i h1 = 1) pins cunder <= 1 <= cbar. Both are read off the
    last a-pass.
    """

    iterations: int
    residual_history: Tuple[float, ...]
    primal_value: float
    transport_cost: float
    dual_value: float
    gap: float
    optimality_residual: Tuple[float, float]
    gauge_constant: float
    converged: bool
    mode: str
    absorptions: int
    fallbacks: int
    kernel: str
    kernel_reason: str
    sandwich_k: float
    sandwich_violation: float


class SolveResult:
    """The report of one solve, and its plan, dual state and potentials.

    The solve builds the report. The plan, the gauge-normalized state and
    the potentials live on the full grids and are built from the solution
    on the supports when first read.
    """

    def __init__(self, report, grids, masks, log_ab, cost, gamma):
        self.report: SolveReport = report
        # log a and log b on the supports that ``masks`` mark; the cost table or rule
        self._grids, self._masks, self._log_ab, self._cost = grids, masks, log_ab, cost
        self._gamma = gamma

    @cached_property
    def state(self) -> DualState:
        smask, tmask = self._masks
        log_a = np.full(smask.size, -np.inf)
        log_b = np.full(tmask.size, -np.inf)
        log_a[smask], log_b[tmask] = self._log_ab
        with np.errstate(over="ignore"):
            return DualState(np.exp(log_a), np.exp(log_b), log_a, log_b)

    @cached_property
    def plan(self) -> TransportPlan:
        smask, tmask = self._masks
        _check_plan_cells(smask.size, tmask.size)
        log_a, log_b = self._log_ab
        # log pi = (log K + log a) + log b on the supports
        values = block = _cost_block(self._cost, self._grids, self._masks) / -self._gamma
        block += log_a[:, None]
        block += log_b
        np.exp(block, out=block)
        if not (smask.all() and tmask.all()):
            values = np.zeros((smask.size, tmask.size))
            values[np.ix_(smask, tmask)] = block
        return ProductDensity(*self._grids, values)

    @cached_property
    def potentials(self) -> Potentials:
        return potentials_from_state(self.state, self._gamma)


def _logsumexp(m: np.ndarray, axis: int) -> np.ndarray:
    """Max-subtracted log-sum-exp that tolerates all--inf slices; overwrites m."""
    mx = np.max(m, axis=axis)
    safe = np.isfinite(mx)
    m -= np.expand_dims(np.where(safe, mx, 0.0), axis)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.log(np.sum(np.exp(m, out=m), axis=axis))
    return np.where(safe, mx + out, -np.inf)


def _check_probability(m: GridMeasure, name: str) -> None:
    mass = m.mass
    if abs(mass - 1.0) > MASS_TOL * max(1.0, abs(mass)):
        raise ParameterError(f"{name} must be a probability measure, has mass {mass!r}")


#: how far log a or log b may drift from the absorbed potentials f and g
#: before the kernel is rebuilt; the matvecs then see scalings within
#: exp(30) ~ 1e13 of 1, far from over- and underflow
_ABSORB_AT = 30.0

#: support block cells the dense kernel may hold: n = 8192 on both sides,
#: 0.5 GB per array; larger blocks are refused unless the FFT kernel runs
_DENSE_CELLS = 8192 * 8192
#: hull block cells up to which the dense kernel is faster. One pass on 2
#: CPUs with one BLAS thread: 18 us dense against 45 us FFT at 256 x 256,
#: 78 against 37 us at 512 x 512 and 2.1 ms against 86 us at 2048 x 2048
_FFT_MIN_CELLS = 512 * 512
#: smallest kernel entry, relative to the largest, that the FFT kernel admits
_FFT_MIN_RANGE = 1e-12
#: largest round-off bound of an FFT pass, relative to its smallest denominator
_FFT_ROUNDOFF = 1e-11


def _check_plan_cells(n1: int, n2: int) -> None:
    """Refuse a full-grid plan of n1 x n2 cells above the dense budget."""
    if n1 * n2 > _DENSE_CELLS:
        raise ParameterError(f"the {n1} x {n2} plan exceeds the budget of {_DENSE_CELLS} cells")


class _DenseKernel:
    """The stabilized kernel exp(f (+) g - c/gamma) of a support cost block.

    ``rows`` and ``cols`` return log row and column denominators, such as
    log(K @ exp(log b) h2), by one matvec with the block; in log mode
    (``absorbing``) f starts at -max_j log K_ij, ``absorb`` folds log a and
    log b into f and g and rebuilds the block, and a pass with non-finite
    denominators is redone by log-sum-exp. Otherwise f = g = 0 and a
    non-finite denominator raises.
    """

    name = "dense"

    def __init__(self, c_st: np.ndarray, gamma: float, h1: float, h2: float, absorbing: bool):
        self.c, self.gamma, self.h1, self.h2 = c_st, gamma, h1, h2
        self.absorbing = absorbing
        # log mode starts from f = -max_j log K_ij, so that every kernel row holds a 1
        self.f = c_st.min(axis=1) / gamma if absorbing else np.zeros(c_st.shape[0])
        self.g = np.zeros(c_st.shape[1])
        self.K = np.empty(c_st.shape)
        self.absorptions = self.fallbacks = 0
        self._build()

    def _build(self) -> None:
        """The stabilized kernel exp((-c/gamma + f) + g), in the memory of K."""
        K = self.K
        np.divide(self.c, -self.gamma, out=K)
        np.add(K, self.f[:, None], out=K)
        np.add(K, self.g, out=K)
        np.exp(K, out=K)

    def _reduce(self, log_v, it, side):
        K, c, f, g, h = (
            (self.K, self.c, self.f, self.g, self.h2) if side == "a"
            else (self.K.T, self.c.T, self.g, self.f, self.h1)
        )
        log_d = np.log(K @ np.exp(log_v - g) * h) - f
        if self.absorbing and not np.all(np.isfinite(log_d)):
            self.fallbacks += 1
            m = c / -self.gamma
            m += log_v + np.log(h)
            log_d = _logsumexp(m, axis=1)
        if not np.all(np.isfinite(log_d)):  # -inf: vanished; +inf or NaN: overflowed
            if np.any(log_d == -np.inf):
                raise DivergedScalingError(it, side)
            raise DirectOverflowError(it)
        return log_d

    def rows(self, log_v: np.ndarray, it: int) -> np.ndarray:
        return self._reduce(log_v, it, "a")

    def cols(self, log_u: np.ndarray, it: int) -> np.ndarray:
        return self._reduce(log_u, it, "b")

    def absorb(self, log_a: np.ndarray, log_b: np.ndarray) -> None:
        """Log mode: fold log a, log b into f, g and rebuild the kernel once they drift."""
        if self.absorbing and (
            not self.absorptions
            or max(np.max(np.abs(log_a - self.f)), np.max(np.abs(log_b - self.g))) > _ABSORB_AT
        ):
            self.f[:], self.g[:] = log_a, log_b
            self._build()
            self.absorptions += 1

    def cost(self, log_a: np.ndarray, log_b: np.ndarray) -> float:
        """sum_ij a_i c_ij K_ij b_j by one matvec with c o K, formed in the
        memory of K: the last call on the kernel."""
        self.K *= self.c
        return float(np.exp(log_a - self.f) @ (self.K @ np.exp(log_b - self.g)))


class _Abandoned(Exception):
    """The FFT kernel gave up on a pass; the message names the pass and why."""


class _ToeplitzKernel:
    """The kernel of a cost rule on two grids of one spacing, applied by FFT.

    On the hull block, from the first to the last support cell of either
    side, x_p - y_q depends on p - q only, so K is a Toeplitz matrix and a
    pass is a linear convolution of k(d) = exp(-c(d)/gamma) over the
    offsets d = p - q (Solomon et al., "Convolutional Wasserstein
    Distances", SIGGRAPH 2015). The spectra of k, of its reverse and of
    c(d) k(d) are taken once. A pass convolves exp(log v - max log v), 0 on
    the hull cells outside the support, and reads the result on the support
    cells of the other side. It raises :class:`_Abandoned` when a
    denominator is not finite and positive, or when the round-off bound
    eps log2(L) |k|_2 |w|_2 of the convolution of length L with the input w
    exceeds :data:`_FFT_ROUNDOFF` of the smallest one; measured errors stay
    below 1/20 of that bound.
    """

    name = "fft"
    absorptions = fallbacks = 0

    def __init__(self, rule, x, y, into_a, into_b, gamma, h1, h2):
        """x, y: the hulls' cell centers; into_a, into_b: the support cells' places in them."""
        P, Q = x.size, y.size
        fn = COST_RULES[rule]
        # c at the offsets p - q = -(Q-1) .. P-1: the hull block's first row, then its first column
        c = np.concatenate((fn(x[0], y[:0:-1]), fn(x, y[0])))
        k = np.exp(c / -gamma)
        self._L = L = 1 << (P + Q - 2).bit_length()
        self._eps_k = np.finfo(float).eps * np.log2(L) * np.sqrt(k @ k)
        rfft = np.fft.rfft
        # in the full convolution, row p of the block is entry p + Q - 1 and
        # column q of the reversed one entry q + P - 1
        read_a, read_b = into_b + (Q - 1), into_a + (P - 1)
        self._a = (rfft(k, L), into_a, read_a, h2)
        self._b = (rfft(k[::-1], L), into_b, read_b, h1)
        self._c = (rfft(c * k, L), into_a, read_a)

    def _convolve(self, spectrum, into, read, log_v):
        m = np.max(log_v)
        w = np.exp(log_v - m)
        buf = np.zeros(self._L)
        buf[into] = w
        return np.fft.irfft(np.fft.rfft(buf) * spectrum, self._L)[read], m, w

    def _denominators(self, spectrum, into, read, h, log_v, it, side):
        out, m, w = self._convolve(spectrum, into, read, log_v)
        low = np.min(out)
        if not (low > 0 and np.all(np.isfinite(out))):
            raise _Abandoned(f"{side}-pass of iteration {it}: a denominator is not finite and positive")
        bound = self._eps_k * np.sqrt(w @ w) / low
        if bound > _FFT_ROUNDOFF:
            raise _Abandoned(
                f"{side}-pass of iteration {it}: round-off bound {bound:.1e} of the smallest "
                f"denominator exceeds {_FFT_ROUNDOFF:g}"
            )
        return np.log(out * h) + m

    def rows(self, log_v: np.ndarray, it: int) -> np.ndarray:
        return self._denominators(*self._a, log_v, it, "a")

    def cols(self, log_u: np.ndarray, it: int) -> np.ndarray:
        return self._denominators(*self._b, log_u, it, "b")

    def absorb(self, log_a: np.ndarray, log_b: np.ndarray) -> None:
        """Nothing to absorb: each pass shifts its input by its maximum."""

    def cost(self, log_a: np.ndarray, log_b: np.ndarray) -> float:
        """sum_ij a_i c_ij K_ij b_j by one convolution with c k."""
        out, m, _ = self._convolve(*self._c, log_b)
        return float(np.exp(log_a + m) @ out)


def _fft_refusal(c, h1, h2, x, y, gamma) -> str:
    """The gate condition that keeps a solve off the FFT kernel, or "" if none does.

    x and y are the cell centers of the support hulls.
    """
    if x.size * y.size <= _FFT_MIN_CELLS:
        return f"the {x.size} x {y.size} hull block is below the FFT crossover of {_FFT_MIN_CELLS} cells"
    if not isinstance(c, str):
        return "the cost is a table"
    if h1 != h2:
        return f"the grids' spacings {h1!r} and {h2!r} differ"
    # x - y spans [lo, hi] on the hull block; both rules are convex in x - y and 0 at 0
    fn = COST_RULES[c]
    lo, hi = x[0] - y[-1], x[-1] - y[0]
    spread = max(fn(lo, 0.0), fn(hi, 0.0)) - fn(min(max(lo, 0.0), hi), 0.0)
    if math.exp(-spread / gamma) < _FFT_MIN_RANGE:
        return (
            f"the kernel's dynamic range exp(-{spread / gamma:.4g}) on the hull block "
            f"is below {_FFT_MIN_RANGE:g}"
        )
    return ""


def _centers(grid: Grid1D, cells: np.ndarray) -> np.ndarray:
    """``grid.centers[cells]``, bit for bit, without the full-grid array."""
    return grid.lo + (cells + 0.5) * grid.h


def _cost_block(c, grids, masks) -> np.ndarray:
    """The cost table or rule ``c`` on the product of the supports that ``masks`` mark."""
    smask, tmask = masks
    if isinstance(c, CostField):
        return c.values if smask.all() and tmask.all() else c.values[np.ix_(smask, tmask)]
    return _rule_values(c, *(_centers(g, np.flatnonzero(m)) for g, m in zip(grids, masks)))


def _scale(kernel, mu_s, nu_t, h2, tol, max_iter):
    """Alternate a- and b-passes until the second marginal is within tol.

    Each iteration opens with the b-update of the one before, so the loop
    stops on the iterate its last residual measured. Returns the residuals,
    log a, log b, the last passes' log row denominators and the plan's
    column sums.
    """
    log_mu = np.log(mu_s)
    log_nu = np.log(nu_t)
    log_b = np.zeros_like(nu_t)
    residuals: list = []
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for it in range(1, max_iter + 1):
            if it > 1:
                log_b = log_nu - col
                kernel.absorb(log_a, log_b)
            row = kernel.rows(log_b, it)
            log_a = log_mu - row
            kernel.absorb(log_a, log_b)
            col = kernel.cols(log_a, it)
            colmarg = np.exp(log_b + col)
            residuals.append(float(np.abs(colmarg - nu_t).sum() * h2))
            if residuals[-1] <= tol:
                break
    return residuals, log_a, log_b, row, colmarg


def _solve(
    mu: GridMeasure,
    nu: GridMeasure,
    c: Union[CostField, str],
    gamma: float,
    tol: float,
    max_iter: int,
    mode: str,
) -> SolveResult:
    """Check the inputs, scale on supp mu x supp nu, and report from the last passes.

    The loop runs on one of two kernels. The FFT kernel
    (:class:`_ToeplitzKernel`) runs when the cost is a rule, both grids
    share h, the kernel's dynamic range on the hull block is at least
    :data:`_FFT_MIN_RANGE` and that block is larger than
    :data:`_FFT_MIN_CELLS`. If one of its passes fails its checks, the
    solve restarts on the dense kernel (:class:`_DenseKernel`), which
    otherwise runs from the start: ``"log"`` mode absorbs and falls back to
    log-sum-exp, ``"direct"`` mode raises on a non-finite denominator. The
    dense kernel refuses support blocks above :data:`_DENSE_CELLS`. The
    report names the kernel and, for the dense one, why the FFT kernel did
    not run or was abandoned.
    """
    _check_probability(mu, "mu")
    _check_probability(nu, "nu")
    if not tol > 0:
        raise ParameterError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise ParameterError(f"max_iter must be at least 1, got {max_iter}")
    if not np.isfinite(gamma) or gamma <= 0:
        raise ParameterError(f"gamma must be positive, got {gamma}")
    smask = mu.density > 0
    tmask = nu.density > 0
    if isinstance(c, CostField):
        if mu.grid.n != c.grid1.n or nu.grid.n != c.grid2.n:
            raise ParameterError("marginals and cost table live on different grids")
    elif not isinstance(c, str) or c not in COST_RULES:
        raise ParameterError(f"unknown cost rule {c!r}, expected one of {sorted(COST_RULES)}")
    mu_s = mu.density[smask]
    nu_t = nu.density[tmask]
    h1, h2 = mu.grid.h, nu.grid.h

    si, ti = np.flatnonzero(smask), np.flatnonzero(tmask)
    x_hull = _centers(mu.grid, np.arange(si[0], si[-1] + 1))
    y_hull = _centers(nu.grid, np.arange(ti[0], ti[-1] + 1))
    grids, masks = (mu.grid, nu.grid), (smask, tmask)
    reason = _fft_refusal(c, h1, h2, x_hull, y_hull, gamma)
    if not reason:
        kernel = _ToeplitzKernel(c, x_hull, y_hull, ti - ti[0], si - si[0], gamma, h1, h2)
        try:
            residuals, log_a, log_b, row, colmarg = _scale(kernel, mu_s, nu_t, h2, tol, max_iter)
        except _Abandoned as exc:
            reason = f"FFT kernel abandoned at the {exc}"
    if reason:
        if mu_s.size * nu_t.size > _DENSE_CELLS:
            raise ParameterError(
                f"the {mu_s.size} x {nu_t.size} support block exceeds the dense kernel's budget of "
                f"{_DENSE_CELLS} cells, and the FFT kernel cannot run: {reason}"
            )
        kernel = _DenseKernel(_cost_block(c, grids, masks), gamma, h1, h2, mode == "log")
        residuals, log_a, log_b, row, colmarg = _scale(kernel, mu_s, nu_t, h2, tol, max_iter)

    # pi = a K b: the cost part is one more matvec
    cost = kernel.cost(log_a, log_b) * h1 * h2
    # the plan's row sums come from the last a-pass; its column sums are
    # the ones the last residual measured
    rowmarg = np.exp(log_a + row)
    mass = float(rowmarg.sum() * h1)
    r1 = float(np.abs(rowmarg - mu_s).sum() * h1)

    # gauge: divide a by its integral so that sum_i a_i h1 = 1
    log_gauge = _logsumexp(log_a + np.log(h1), axis=0)
    log_a = log_a - log_gauge
    log_b = log_b + log_gauge
    with np.errstate(over="ignore"):
        gauge_constant = float(np.exp(log_gauge))
    # the sandwich bound: the gauged state's log row denominators are row + log_gauge,
    # and log a - log mu = -(row + log_gauge)
    sandwich_k = float(np.max(row) - np.min(row))
    sandwich_violation = float(np.max(np.abs(row + log_gauge)) - sandwich_k)

    # c + gamma log pi = gamma (log a + log b) on the block, so the primal
    # sum (c pi + gamma pi (log pi - 1)) h1 h2 needs only the marginals
    primal = gamma * (float(log_a @ rowmarg) * h1 + float(log_b @ colmarg) * h2 - mass)
    dual = -gamma * (mass - float(log_a @ mu_s) * h1 - float(log_b @ nu_t) * h2)
    report = SolveReport(
        iterations=len(residuals),
        residual_history=tuple(residuals),
        primal_value=primal,
        transport_cost=cost,
        dual_value=dual,
        gap=primal - dual,
        optimality_residual=(r1, residuals[-1]),
        gauge_constant=gauge_constant,
        converged=residuals[-1] <= tol,
        mode=mode,
        absorptions=kernel.absorptions,
        fallbacks=kernel.fallbacks,
        kernel=kernel.name,
        kernel_reason=reason,
        sandwich_k=sandwich_k,
        sandwich_violation=sandwich_violation,
    )
    if not report.converged:
        raise ConvergenceError(report)
    return SolveResult(report, grids, masks, (log_a, log_b), c, float(gamma))


def solve(
    mu: GridMeasure,
    nu: GridMeasure,
    c: Union[CostField, str],
    gamma: float,
    tol: float = 1e-9,
    max_iter: int = 100000,
) -> SolveResult:
    """Alternate scaling in direct arithmetic until the marginals match.

    Parameters
    ----------
    mu, nu : GridMeasure
        Probability marginals (mass 1 within ``MASS_TOL``).
    c : CostField or str
        Nonnegative cost table on the product of the marginals' grids, or
        the name of a rule in :data:`COST_RULES`, evaluated on the
        supports of the marginals only.
    gamma : float
        Regularization weight, positive.
    tol : float
        Stop when the weighted L1 error of the unenforced marginal drops
        to tol or below (checked after each a-pass).
    max_iter : int
        Iteration cap; one iteration is one a-pass plus, if the stopping
        rule is not yet met, one b-pass.

    Returns
    -------
    SolveResult
        The report, and the plan, gauge-normalized dual state and
        potentials, which are built when first read.

    Raises
    ------
    ConvergenceError
        If max_iter is exhausted; the report rides on the exception.
    DirectOverflowError
        If scaling vectors leave the double range (small gamma); the
        log-domain variant handles those instances.
    """
    return _solve(mu, nu, c, gamma, tol, max_iter, "direct")


def solve_logdomain(
    mu: GridMeasure,
    nu: GridMeasure,
    c: Union[CostField, str],
    gamma: float,
    tol: float = 1e-9,
    max_iter: int = 100000,
) -> SolveResult:
    """Same contract as :func:`solve`, stabilized by absorption.

    The dense kernel's matvecs run on exp(f (+) g - c/gamma), where f starts
    at -max_j log K_ij and f and g absorb log a and log b whenever these
    drift 30 away; a pass with non-finite denominators is redone by
    log-sum-exp. So small gamma cannot overflow the kernel. The FFT kernel,
    where it runs, is the same in both modes. The plan agrees with the
    direct mode to 1e-8 entrywise whenever the latter completes.
    """
    return _solve(mu, nu, c, gamma, tol, max_iter, "log")


def primal_value(plan: TransportPlan, c: CostField, gamma: float) -> float:
    """Transport cost plus gamma-weighted neg-entropy of the plan.

    Computes sum c pi w + gamma sum pi (log pi - 1) w with the convention
    0 (log 0 - 1) = 0 and w the product cell weight.
    """
    w = plan.weight
    pi = plan.values
    cost = float(np.sum(c.values * pi) * w)
    pos = pi > 0
    ent = float(np.sum(pi[pos] * (np.log(pi[pos]) - 1.0)) * w)
    return cost + gamma * ent


def dual_value(state: DualState, K: GibbsKernel, mu: GridMeasure, nu: GridMeasure) -> float:
    """Discrete dual objective of a scaling pair.

    Evaluates -gamma [ sum a b K w - sum log(a) mu h1 - sum log(b) nu h2 ];
    cells with vanishing marginal contribute nothing. A zero scaling value
    on a support cell makes the state dual-infeasible and yields -inf.
    """
    smask = mu.density > 0
    tmask = nu.density > 0
    if np.any(state.a[smask] == 0) or np.any(state.b[tmask] == 0):
        return -np.inf
    h1 = mu.grid.h
    h2 = nu.grid.h
    log_a = state.log_a[smask]
    log_b = state.log_b[tmask]
    cross = float(
        np.sum(np.exp(log_a[:, None] + K.log_values[np.ix_(smask, tmask)] + log_b[None, :]))
        * h1
        * h2
    )
    term_a = float(np.sum(log_a * mu.density[smask]) * h1)
    term_b = float(np.sum(log_b * nu.density[tmask]) * h2)
    return -K.gamma * (cross - term_a - term_b)


def optimality_residual(
    state: DualState, K: GibbsKernel, mu: GridMeasure, nu: GridMeasure
) -> Tuple[float, float]:
    """Weighted L1 residuals of the two marginal equations on the supports.

    r1 sums |a_i (sum_j K_ij b_j h2) - mu_i| h1 over the support of mu;
    r2 is the mirror image. Both vanish at a solution.
    """
    smask = mu.density > 0
    tmask = nu.density > 0
    h1 = mu.grid.h
    h2 = nu.grid.h
    logK = K.log_values[np.ix_(smask, tmask)]
    log_a = state.log_a[smask]
    log_b = state.log_b[tmask]
    rowmarg = np.exp(_logsumexp(logK + log_b[None, :] + np.log(h2), axis=1) + log_a)
    colmarg = np.exp(_logsumexp(logK + log_a[:, None] + np.log(h1), axis=0) + log_b)
    r1 = float(np.abs(rowmarg - mu.density[smask]).sum() * h1)
    r2 = float(np.abs(colmarg - nu.density[tmask]).sum() * h2)
    return r1, r2


def potentials_from_state(state: DualState, gamma: float) -> Potentials:
    """Back-substitute potentials alpha = gamma log a, beta = gamma log b.

    Support cells carry finite values, null cells the -inf sentinel.
    """
    alpha = gamma * state.log_a
    beta = gamma * state.log_b
    return Potentials(alpha, beta)
