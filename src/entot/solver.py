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

This entropy is that of the cell masses P = pi h1 h2 less log(h1 h2) times
the mass, so one loop of plain discrete scaling between the supports' cell
masses p = mu h1 and q = nu h2 serves :func:`solve`, :func:`solve_logdomain`
and every sweep; the solve converts to and from densities once. The loop
iterates log A = log a + log h1 and log B = log b + log h2 and asks one
kernel object, which reads no cell width, for the log denominators of each
pass. The dense kernel reduces the block by matvecs with the stabilized
kernel exp(f (+) g - c/gamma) (Schmitzer, arXiv:1610.06519). In log mode,
the default everywhere else in the package, f starts at -max_j log K_ij, the
kernel absorbs log A and log B into f and g after the first a-pass and
whenever they drift too far, so that its entries are the plan's cell masses,
and a pass that still over- or underflows is redone by log-sum-exp; in
direct mode f = g = 0. The two agree to near machine precision whenever
direct arithmetic does not over- or underflow. The loop evaluates a rule of
:data:`COST_RULES` on the support centers only. When such a rule meets two grids
of one spacing, K is a Toeplitz matrix, and on large blocks an FFT kernel
convolves instead, in O(n log n) time and O(n) memory; a pass that fails
its round-off check sends the solve back to the dense kernel. Every solve
over-relaxes its passes at a factor set from the loop's measured rate
(:class:`_Relaxation`).

The report comes from the loop's last passes: since c + gamma log pi =
gamma (log a + log b) on the block, the primal and dual values, their gap
and both marginal residuals follow from the plan's row and column sums,
which those passes' denominators give. The transport cost is one more
matvec. The solve returns the gauge-normalized dual state on the full grids,
log a and log b -inf off the supports; when first read, the plan is read off
it as pi = a (x) b K on the whole product grid, a rule evaluated on every
center. :func:`primal_value` recomputes the objective of a stored plan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Tuple, Union

import numpy as np

from .measures import Grid1D, GridMeasure, ProductDensity, _Fresh, _off_unit_mass

__all__ = [
    "CostField",
    "GibbsKernel",
    "DualState",
    "Potentials",
    "SolveReport",
    "SolveResult",
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
    """Marginal residual did not reach tol; carries the report.

    Either ``max_iter`` ran out, or the loop stopped early (``stalled``)
    because its iterate repeated bit for bit, which no further pass can change.
    """

    def __init__(self, report: "SolveReport", stalled: bool = False):
        self.report = report
        self.stalled = stalled
        what = (
            f"no convergence: the iterate stopped changing at iteration {report.iterations}"
            if stalled else f"no convergence in {report.iterations} iterations"
        )
        super().__init__(f"{what} (residual {report.residual_history[-1]:.3e})")


def sweep_point(
    mu: GridMeasure, nu: GridMeasure, c: Union[ProductDensity, str], gamma: float, tol: float,
    max_iter: int, mode: str, beta0: Optional[np.ndarray] = None,
) -> Tuple[Optional[SolveReport], str, Optional[np.ndarray]]:
    """Solve one sweep point in ``mode`` by the sweeps' one policy; return report, status, potential.

    ``beta0`` warm-starts the solve, as in :func:`solve`. A warm solve that
    fails is redone cold once, so a warm start never fails a point that
    solves cold. No convergence keeps the report, with the status ``failed:
    no convergence in N iterations (residual X)``, or ``failed: no
    convergence: the iterate stopped changing at iteration N (residual X)``
    when the loop stopped at a fixed point; a scaling that overflows or
    vanishes gives no report and ``failed: <reason>``; a
    :class:`ParameterError` propagates. An ``ok`` point also returns its
    potential beta on supp nu, for the next point to start from; a failed
    one, or one whose beta leaves the double range, returns None. A mode
    but ``"direct"`` or ``"log"`` is a ParameterError before any solve.
    """
    if mode not in ("direct", "log"):
        raise ParameterError(f"unknown mode {mode!r}, expected 'direct' or 'log'")
    run = solve if mode == "direct" else solve_logdomain
    try:
        result = run(mu, nu, c, gamma, tol=tol, max_iter=max_iter, beta0=beta0)
    except (ConvergenceError, DirectOverflowError, DivergedScalingError) as exc:
        if beta0 is not None:
            return sweep_point(mu, nu, c, gamma, tol, max_iter, mode)
        return (exc.report if isinstance(exc, ConvergenceError) else None), f"failed: {exc}", None
    with np.errstate(over="ignore"):
        beta = gamma * result.state.log_b[nu.density > 0]
    return result.report, "ok", beta if np.isfinite(beta).all() else None


def _sqdist(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):  # a cost beyond the double range is inf
        return (x - y) ** 2


def _absdist(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return np.abs(x - y)


#: closed-form cost rules; each maps broadcastable x, y arrays to costs. Each
#: is a convex function of x - y that is 0 at 0: the monotone reference of
#: gamma_limit.unregularized_ot_1d relies on it
COST_RULES: dict = {"sqdist": _sqdist, "abs": _absdist}


def _rule(name: str) -> Callable:
    """The rule of :data:`COST_RULES` named ``name``; a ParameterError for anything else."""
    if not isinstance(name, str) or name not in COST_RULES:
        raise ParameterError(f"unknown cost rule {name!r}, expected one of {sorted(COST_RULES)}")
    return COST_RULES[name]


class CostField(ProductDensity):
    """A cost table c(x_i, y_j): a ProductDensity whose refusals are ParameterErrors."""

    def __init__(self, grid1: Grid1D, grid2: Grid1D, values):
        try:
            super().__init__(grid1, grid2, values)
        except ValueError as exc:
            raise ParameterError(f"cost {exc}") from None


def cost_field(grid1: Grid1D, grid2: Grid1D, rule: str) -> CostField:
    """Tabulate a named closed-form cost rule on the product grid."""
    return CostField(grid1, grid2, _rule(rule)(grid1.centers[:, None], grid2.centers[None, :]))


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


def gibbs_kernel(c: ProductDensity, gamma: float) -> GibbsKernel:
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

    ``residual_history`` lists the weighted L1 error of the second
    marginal, which the a-pass does not enforce, after each iteration;
    ``transport_cost`` is the part sum_ij c_ij pi_ij h1 h2 of the primal value; ``optimality_residual``
    is the pair of marginal-equation residuals of the final state;
    ``gauge_constant`` is the factor the a-vector was divided by to
    normalize its integral to 1. ``absorptions`` counts how often log mode
    folded log a and log b into the stabilized kernel, the fold after the
    first a-pass included, and ``fallbacks`` the passes redone by log-sum-exp;
    both are 0 in direct mode and on the FFT kernel. ``kernel`` is
    ``"fft"`` or ``"dense"``, and ``kernel_reason`` lists, joined by "; ",
    why each kernel tried before it refused to start or gave up on a pass,
    in the order they were tried; it is empty when the first one ran.
    ``sandwich_k`` is k = log(cbar/cunder), the spread of the log row
    denominators c_i = sum_j K_ij b_j h2 of the returned state over supp mu,
    and ``sandwich_violation`` is how far log a leaves [log mu - k, log mu + k]
    there, nonpositive when the paper's two-sided potential bound holds; the
    gauge (sum_i a_i h1 = 1) pins cunder <= 1 <= cbar. Both are read off the
    last a-pass. ``relaxation`` is the over-relaxation factor omega of the
    last pass, 1.0 for a plain one. Both residuals are measured after every
    pass, and a converged solve has both within tol: after a plain a-pass
    the first is rounding, after a relaxed one only within tol.
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
    relaxation: float


class SolveResult:
    """The report of one solve, its gauge-normalized dual state, and the plan and potentials read off it.

    The solve builds the report and the state on the full grids. The plan
    and the potentials are built from the state when first read.
    """

    def __init__(self, report, state, grids, cost, gamma):
        self.report: SolveReport = report
        self.state: DualState = state
        self._grids, self._cost, self._gamma = grids, cost, gamma  # the cost table or rule

    @cached_property
    def plan(self) -> ProductDensity:
        """pi = a (x) b K on the whole product grid: exp(-inf) is 0 off the supports."""
        state = self.state
        _check_plan_cells(state.log_a.size, state.log_b.size)
        every = tuple(np.ones(v.size, dtype=bool) for v in (state.log_a, state.log_b))
        # log pi = (log K + log a) + log b; K is 0 where c / gamma overflows
        with np.errstate(over="ignore"):
            values = _cost_block(self._cost, self._grids, every) / -self._gamma
            values += state.log_a[:, None]
            values += state.log_b
            np.exp(values, out=values)
        try:
            return ProductDensity(*self._grids, _Fresh(values))
        except ValueError:  # exponentials of the right shape: only a non-finite one is refused
            raise ParameterError("the plan's densities leave the floating-point range") from None

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
    mass = m.mass  # under _solve's error state: an infinite mass is refused below
    if _off_unit_mass(mass):
        raise ParameterError(f"{name} must be a probability measure, has mass {mass!r}")


#: how far log a or log b may drift from the absorbed potentials f and g
#: before the kernel is rebuilt; the matvecs then see scalings within
#: exp(30) ~ 1e13 of 1, far from over- and underflow
_ABSORB_AT = 30.0

#: support block cells the dense kernel may hold: n = 8192 on both sides,
#: 0.5 GB per array; larger blocks are refused unless the FFT kernel runs
_DENSE_CELLS = 8192 * 8192
#: hull block cells up to which the dense kernel is faster. One a-pass of sqdist at
#: gamma = 0.2 on 2 CPUs, one BLAS thread, dense / FFT in us (medians of 1000): 16 / 35
#: at 256 x 256, 21 / 42 at 320, 29 / 42 at 384, 45 / 41 at 448 and 68 / 43 at 512; the
#: FFT has length 1024 from 257 to 512 cells a side. 448 is a tie within the spread
#: (61 / 66 on a loaded machine), and a tie goes to the dense kernel, the reference
_FFT_MIN_CELLS = 448 * 448
#: largest round-off bound of an FFT pass, relative to its smallest denominator
_FFT_ROUNDOFF = 1e-11


def _check_plan_cells(n1: int, n2: int) -> None:
    """Refuse a full-grid plan of n1 x n2 cells above the dense budget."""
    if n1 * n2 > _DENSE_CELLS:
        raise ParameterError(f"the {n1} x {n2} plan exceeds the budget of {_DENSE_CELLS} cells")


class _Refused(Exception):
    """A kernel cannot start, or gave up on a pass; the message says why."""


class _DenseKernel:
    """The stabilized kernel exp(f (+) g - c/gamma) of a support cost block.

    It refuses a support block above :data:`_DENSE_CELLS` before it
    allocates. ``denominators`` returns log row (``side`` "a") or column
    ("b") denominators, such as log(K @ exp(log B)), by one matvec with
    the block. In log mode (``absorbing``) f starts at -max_j log K_ij, the
    kernel absorbs before a pass when due (:meth:`_absorb`), and a pass with
    non-finite denominators is redone by log-sum-exp. Otherwise f = g = 0
    and a non-finite denominator raises.
    """

    name = "dense"

    def __init__(self, c, grids, masks, gamma, mode):
        m, n = (int(np.count_nonzero(mask)) for mask in masks)
        if m * n > _DENSE_CELLS:
            raise _Refused(
                f"the {m} x {n} support block exceeds the dense kernel's budget of {_DENSE_CELLS} cells"
            )
        self.c = c_st = _cost_block(c, grids, masks)
        self.gamma = gamma
        self.absorbing = absorbing = mode == "log"
        # log mode starts from f = -max_j log K_ij, so that every kernel row holds a 1
        self.f = c_st.min(axis=1) / gamma if absorbing else np.zeros(m)
        self.g = np.zeros(n)
        self.K = np.empty(c_st.shape)
        self.absorptions = self.fallbacks = 0
        self._inputs = {}  # the last input of each side
        self._build()

    def _build(self) -> None:
        """The stabilized kernel exp((-c/gamma + f) + g), in the memory of K."""
        K = self.K
        np.divide(self.c, -self.gamma, out=K)
        np.add(K, self.f[:, None], out=K)
        np.add(K, self.g, out=K)
        np.exp(K, out=K)

    def denominators(self, log_v: np.ndarray, it: int, side: str) -> np.ndarray:
        if self.absorbing:
            self._absorb(log_v, side)
        K, c, f, g = (
            (self.K, self.c, self.f, self.g) if side == "a" else (self.K.T, self.c.T, self.g, self.f)
        )
        log_d = np.log(K @ np.exp(log_v - g)) - f
        if np.isfinite(log_d).all():
            return log_d
        if self.absorbing:
            self.fallbacks += 1
            m = c / -self.gamma
            m += log_v
            log_d = _logsumexp(m, axis=1)
            if np.isfinite(log_d).all():
                return log_d
        # -inf: vanished; +inf or NaN: overflowed
        if np.any(log_d == -np.inf):
            raise DivergedScalingError(it, side)
        raise DirectOverflowError(it)

    def _absorb(self, log_v: np.ndarray, side: str) -> None:
        """When due, fold the last log A and log B into f and g: the block then holds the plan's masses.

        That is due at the first b-pass, the first with inputs of both sides,
        then once ``log_v``, the side just updated, drifts past
        :data:`_ABSORB_AT` from its potential: f and g change together, so the
        other side's drift is 0 or was found within bounds at its own pass.
        """
        self._inputs[side] = log_v
        drift = np.abs(log_v - (self.g if side == "a" else self.f)).max() if self.absorptions else 0.0
        if drift > _ABSORB_AT or (not self.absorptions and side == "b"):
            # an a-pass reads log B, a b-pass log A
            self.f[:], self.g[:] = self._inputs["b"], self._inputs["a"]
            self._build()
            self.absorptions += 1

    def cost(self, log_a: np.ndarray, log_b: np.ndarray) -> float:
        """sum_ij A_i c_ij K_ij B_j by one matvec with c o K, formed in the
        memory of K: the last call on the kernel. An infinite cost, where K
        is 0, makes it NaN."""
        self.K *= self.c
        return float(np.exp(log_a - self.f) @ (self.K @ np.exp(log_b - self.g)))


class _ToeplitzKernel:
    """The kernel of a cost rule on two grids of one spacing, applied by FFT.

    On the hull block, from the first to the last support cell of either
    side, x_p - y_q depends on p - q only, so K is a Toeplitz matrix and a
    pass is a linear convolution of k(d) = exp(-c(d)/gamma) over the
    offsets d = p - q (Solomon et al., "Convolutional Wasserstein
    Distances", SIGGRAPH 2015). It refuses to start unless the hull block
    is larger than :data:`_FFT_MIN_CELLS`, the cost is a rule and both
    grids share h. It convolves k(d) = exp(-(c(d) - min c)/gamma), whose
    largest entry is 1, and adds -min c/gamma back to every log it
    returns. The spectra of k, of its reverse and of c(d) k(d) are taken
    once; the mode does not matter. A pass convolves exp(log v - max log
    v), 0 on the hull cells outside the support, and reads the result on
    the support cells of the other side. Its checks are the kernel's only
    accuracy gate: it gives up when a denominator is not finite and
    positive, or when the round-off bound eps log2(L) |k|_2 |w|_2 of the
    convolution of length L with the input w exceeds :data:`_FFT_ROUNDOFF`
    of the smallest one; measured errors stay below 1/20 of that bound.
    """

    name = "fft"
    absorptions = fallbacks = 0

    def __init__(self, c, grids, masks, gamma, mode):
        si, ti = (np.flatnonzero(mask) for mask in masks)
        P, Q = int(si[-1] - si[0]) + 1, int(ti[-1] - ti[0]) + 1
        if P * Q <= _FFT_MIN_CELLS:
            raise _Refused(
                f"the {P} x {Q} hull block is below the FFT crossover of {_FFT_MIN_CELLS} cells"
            )
        if not isinstance(c, str):
            raise _Refused("the cost is a table")
        h1, h2 = grids[0].h, grids[1].h
        if h1 != h2:
            raise _Refused(f"the grids' spacings {h1!r} and {h2!r} differ")
        x, y = (g.cell_centers(np.arange(s[0], s[-1] + 1)) for g, s in zip(grids, (si, ti)))
        fn = COST_RULES[c]
        # c at the offsets p - q = -(Q-1) .. P-1: the hull block's first row, then its first column
        c = np.concatenate((fn(x[0], y[:0:-1]), fn(x, y[0])))
        # k = K exp(shift) has a largest entry of 1, as a dense row after its first stabilization
        lowest = c.min()
        self._shift = lowest / gamma
        k = np.exp((c - lowest) / -gamma)
        self._L = L = 1 << (P + Q - 2).bit_length()
        self._eps_k = np.finfo(float).eps * np.log2(L) * np.sqrt(k @ k)
        rfft = np.fft.rfft
        # the support cells' places in the hulls; in the full convolution,
        # row p of the block is entry p + Q - 1 and column q of the reversed
        # one entry q + P - 1
        into_a, into_b = ti - ti[0], si - si[0]
        read_a, read_b = into_b + (Q - 1), into_a + (P - 1)
        self._a = (rfft(k, L), into_a, read_a)
        self._b = (rfft(k[::-1], L), into_b, read_b)
        self._c = (rfft(c * k, L), into_a, read_a)

    def _convolve(self, spectrum, into, read, log_v):
        m = np.max(log_v)
        w = np.exp(log_v - m)
        buf = np.zeros(self._L)
        buf[into] = w
        return np.fft.irfft(np.fft.rfft(buf) * spectrum, self._L)[read], m, w

    def denominators(self, log_v: np.ndarray, it: int, side: str) -> np.ndarray:
        out, m, w = self._convolve(*(self._a if side == "a" else self._b), log_v)
        low = np.min(out)
        where = f"FFT kernel abandoned at the {side}-pass of iteration {it}"
        if not (low > 0 and np.all(np.isfinite(out))):
            raise _Refused(f"{where}: a denominator is not finite and positive")
        bound = self._eps_k * np.sqrt(w @ w) / low
        if bound > _FFT_ROUNDOFF:
            raise _Refused(
                f"{where}: round-off bound {bound:.1e} of the smallest "
                f"denominator exceeds {_FFT_ROUNDOFF:g}"
            )
        return np.log(out) + (m - self._shift)

    def cost(self, log_a: np.ndarray, log_b: np.ndarray) -> float:
        """sum_ij A_i c_ij K_ij B_j by one convolution with c k."""
        out, m, _ = self._convolve(*self._c, log_b)
        return float(np.exp(log_a + (m - self._shift)) @ out)


def _cost_block(c, grids, masks) -> np.ndarray:
    """The cost table or rule ``c`` on the product of the supports that ``masks`` mark."""
    smask, tmask = masks
    if isinstance(c, ProductDensity):
        return c.values if smask.all() and tmask.all() else c.values[np.ix_(smask, tmask)]
    x, y = (g.cell_centers(np.flatnonzero(m)) for g, m in zip(grids, masks))
    return _rule(c)(x[:, None], y[None, :])


#: the largest over-relaxation factor; relaxed scaling converges locally only below 2
_OMEGA_MAX = 1.95
#: how far apart, relative, three successive residual ratios may be for the rate to count as measured
_SETTLED = 0.01
#: how far a relaxed residual may rise over the one at which omega was set before the
#: loop goes back to plain passes. A raised omega first lifts the residual, by up to 4.9
#: times and for up to 12 passes on the sin/cos pairs of n = 64 to 512 down to gamma = 0.001
_RISE = 100.0


class _Relaxation:
    """The over-relaxation factor omega of the scaling loop, set from its measured rate.

    Plain scaling converges linearly at a rate theta that tends to 1 as
    gamma falls. Over-relaxed scaling, log a <- log a + omega (log p - row
    - log a) and likewise for log b, keeps the fixed point, and with
    omega = 2 / (1 + sqrt(1 - theta)) its local rate is omega - 1
    (Thibault et al., arXiv:1711.01851; Lehmann et al., Optim. Lett.
    2022). Once three successive residual ratios measured at the current
    omega agree within :data:`_SETTLED`, the last ratio is the rate: theta
    itself at omega = 1, else lambda, from which theta = (lambda + omega -
    1)^2 / (lambda omega^2) for lambda above omega - 1. omega is set from
    theta, capped at :data:`_OMEGA_MAX`, when that raises it. A residual
    more than :data:`_RISE` times the one at which omega was last set sends
    the loop back to plain passes, measured afresh; from then on omega is
    raised only to below the factor that rose.
    """

    def __init__(self):
        self.omega = 1.0
        self._ceiling = math.inf  # the least omega that rose: a later one stays below it
        self._since = 0  # the index of the first residual measured at the current omega
        self._set_at = math.inf

    def update(self, residuals: list) -> None:
        """Set omega for the next pass from the residuals so far."""
        if residuals[-1] > _RISE * self._set_at:
            self._ceiling, self.omega = self.omega, 1.0
            self._since, self._set_at = len(residuals), math.inf
            return
        r = residuals[max(self._since, len(residuals) - 4):]
        if len(r) < 4 or not min(r) > 0:
            return
        ratios = [r[1] / r[0], r[2] / r[1], r[3] / r[2]]
        lam, omega = ratios[-1], self.omega
        if not (max(ratios) <= (1 + _SETTLED) * min(ratios) and omega - 1 < lam < 1):
            return
        new = _omega((lam + omega - 1) ** 2 / (lam * omega ** 2))
        if omega < new < self._ceiling:
            self.omega, self._since, self._set_at = new, len(residuals), residuals[-1]


def _omega(theta: float) -> float:
    """The factor whose relaxed local rate, omega - 1, is least for the plain rate theta; capped."""
    # theta estimated from a relaxed rate just below 1 can round to above 1
    return min(2 / (1 + math.sqrt(max(1 - theta, 0.0))), _OMEGA_MAX)


def _relaxed(log_v: np.ndarray, target: np.ndarray, omega: float) -> np.ndarray:
    """The update of ``log_v`` towards the plain pass's ``target``: the target itself at omega = 1."""
    return target if omega == 1.0 else log_v + omega * (target - log_v)


def _scale(kernel, p, q, tol, max_iter, log_b):
    """Alternate a- and b-passes on cell masses p and q from log B = ``log_b`` until both are within tol.

    The passes are over-relaxed as :class:`_Relaxation` sets, and every
    pass measures both marginals' residuals: the loop stops once both are
    within tol. Each iteration opens with the b-update of the one before, so
    the loop stops on the iterate its last residuals measured. The loop is
    deterministic: once its iterate repeats at one omega with no absorption
    in between, every later pass repeats too, so it stops there. Only a
    column residual equal to the one before can mark that, so only then are
    the vectors compared. Returns the column residuals, the last row
    residual, log A, log B, the last passes' log row denominators, the
    plan's row and column masses and the last pass's omega. It runs under
    the error state of :func:`_solve`.
    """
    log_p = np.log(p)
    log_q = np.log(q)
    residuals: list = []
    relaxation = _Relaxation()
    omega, log_a = 1.0, None  # the first pass is plain
    for it in range(1, max_iter + 1):
        if it > 1:
            relaxation.update(residuals)
            last_a, last_b, last_absorptions, last_omega = log_a, log_b, absorptions, omega
            omega = relaxation.omega
            log_b = _relaxed(log_b, log_q - col, omega)
        row = kernel.denominators(log_b, it, "a")
        absorptions = kernel.absorptions  # the count this a-pass's matvec saw
        log_a = _relaxed(log_a, log_p - row, omega)
        col = kernel.denominators(log_a, it, "b")
        rowmass, colmass = np.exp(log_a + row), np.exp(log_b + col)
        r1 = float(np.abs(rowmass - p).sum())
        residuals.append(float(np.abs(colmass - q).sum()))
        if (r1 <= tol and residuals[-1] <= tol) or (
            it > 1 and residuals[-1] == residuals[-2] and absorptions == last_absorptions
            and omega == last_omega and np.array_equal(log_a, last_a) and np.array_equal(log_b, last_b)
        ):
            break
    return residuals, r1, log_a, log_b, row, rowmass, colmass, omega


# arithmetic beyond the double range gives inf or NaN, not a warning; a
# converged report that holds one is refused at the end
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _solve(
    mu: GridMeasure,
    nu: GridMeasure,
    c: Union[ProductDensity, str],
    gamma: float,
    tol: float,
    max_iter: int,
    mode: str,
    beta0: Optional[np.ndarray],
) -> SolveResult:
    """Check the inputs, scale on supp mu x supp nu, and report from the last passes.

    The loop runs on the first kernel of (:class:`_ToeplitzKernel`,
    :class:`_DenseKernel`) that finishes. Each kernel's constructor is its
    gate: a kernel that cannot start, or gives up on a pass, raises
    :class:`_Refused`, and the next one starts afresh. ``kernel_reason``
    lists the refusals in the order the kernels were tried; if every kernel
    refuses, the solve is a ParameterError. The loop starts from log b = 0,
    or from ``beta0`` / gamma shifted to a maximum of 0, plus log h2.
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
    if isinstance(c, ProductDensity):
        if not (mu.grid.matches(c.grid1) and nu.grid.matches(c.grid2)):
            raise ParameterError("marginals and cost table live on different grids")
    else:
        _rule(c)
    log_h1, log_h2 = np.log(mu.grid.h), np.log(nu.grid.h)
    p = mu.density[smask] * mu.grid.h
    q = nu.density[tmask] * nu.grid.h
    if beta0 is None:
        log_b0 = np.full(q.shape, log_h2)
    else:
        beta0 = np.asarray(beta0, dtype=float)
        if beta0.shape != q.shape or not np.all(np.isfinite(beta0)):
            raise ParameterError(f"beta0 must hold {q.size} finite values, one per cell of supp nu")
        # the shift is a gauge choice: it keeps exp(log b) <= 1 in direct mode
        log_b0 = (beta0 - beta0.max()) / gamma + log_h2

    grids, masks = (mu.grid, nu.grid), (smask, tmask)
    refusals = []
    for kind in (_ToeplitzKernel, _DenseKernel):
        try:
            kernel = kind(c, grids, masks, gamma, mode)
            residuals, r1, log_a, log_b, row, rowmass, colmass, omega = _scale(
                kernel, p, q, tol, max_iter, log_b0
            )
            break
        except _Refused as exc:
            refusals.append(str(exc))
    else:
        *tried, last = refusals
        raise ParameterError(f"{last}, and the FFT kernel cannot run: {'; '.join(tried)}")

    # P = A K B: the cost part is one more matvec; the plan's row and column
    # masses are the ones the last residuals measured
    cost = kernel.cost(log_a, log_b)
    mass = float(rowmass.sum())
    lift = np.log(p) - log_a

    # gauge: divide A by its sum, so that sum_i a_i h1 = 1, and return to
    # densities (_logsumexp overwrites its argument)
    log_gauge = _logsumexp(log_a.copy(), axis=0)
    log_a = log_a - (log_gauge + log_h1)
    log_b = log_b + (log_gauge - log_h2)
    gauge_constant = float(np.exp(log_gauge))
    # the sandwich bound: the gauged state's log row denominators are row + log_gauge,
    # and log a - log mu = -(lift + log_gauge)
    sandwich_k = float(np.max(row) - np.min(row))
    sandwich_violation = float(np.max(np.abs(lift + log_gauge)) - sandwich_k)

    # c + gamma log pi = gamma (log a + log b) on the block, so the primal
    # sum (c pi + gamma pi (log pi - 1)) h1 h2 needs only the marginals
    primal = gamma * (float(log_a @ rowmass) + float(log_b @ colmass) - mass)
    dual = -gamma * (mass - float(log_a @ p) - float(log_b @ q))
    report = SolveReport(
        iterations=len(residuals),
        residual_history=tuple(residuals),
        primal_value=primal,
        transport_cost=cost,
        dual_value=dual,
        gap=primal - dual,
        optimality_residual=(r1, residuals[-1]),
        gauge_constant=gauge_constant,
        converged=r1 <= tol and residuals[-1] <= tol,
        mode=mode,
        absorptions=kernel.absorptions,
        fallbacks=kernel.fallbacks,
        kernel=kernel.name,
        kernel_reason="; ".join(refusals),
        sandwich_k=sandwich_k,
        sandwich_violation=sandwich_violation,
        relaxation=omega,
    )
    if not report.converged:
        # the loop ends early without converging only at a fixed point
        raise ConvergenceError(report, stalled=report.iterations < max_iter)
    # both residuals are within tol, so finite
    for name, value in (("primal value", primal), ("dual value", dual), ("transport cost", cost)):
        if not math.isfinite(value):
            raise ParameterError(f"the solve's {name} is {value!r}, outside the floating-point range")
    # the state on the full grids: log a = -inf off supp mu, log b = -inf off supp nu
    full_a, full_b = np.full(smask.size, -np.inf), np.full(tmask.size, -np.inf)
    full_a[smask], full_b[tmask] = log_a, log_b
    state = DualState(np.exp(full_a), np.exp(full_b), full_a, full_b)
    return SolveResult(report, state, grids, c, float(gamma))


def solve(
    mu: GridMeasure,
    nu: GridMeasure,
    c: Union[ProductDensity, str],
    gamma: float,
    tol: float = 1e-9,
    max_iter: int = 100000,
    *,
    beta0: Optional[np.ndarray] = None,
) -> SolveResult:
    """Alternate scaling in direct arithmetic, over-relaxed at its measured rate, until the marginals match.

    Parameters
    ----------
    mu, nu : GridMeasure
        Probability marginals (mass 1 within ``MASS_TOL``).
    c : ProductDensity or str
        Nonnegative cost table on the product of the marginals' grids, or
        the name of a rule in :data:`COST_RULES`, which the loop evaluates
        on the supports of the marginals only.
    gamma : float
        Regularization weight, positive.
    tol : float
        Stop when the weighted L1 errors of both marginals are at most
        tol, both checked after each iteration.
    max_iter : int
        Iteration cap; one iteration is one a-pass plus, if the stopping
        rule is not yet met, one b-pass.
    beta0 : array, optional
        A warm start: a dual potential beta on supp nu, one value per cell
        where nu > 0, such as ``res.potentials.beta[nu.density > 0]`` of a
        solve at a nearby gamma. The loop then starts from log b =
        beta0 / gamma, shifted so that its maximum is 0, instead of from
        log b = 0: the potential, not log b, carries over between gammas.
        The result meets the same tol, and its values can differ from a
        cold solve's by about tol.

    Returns
    -------
    SolveResult
        The report and the gauge-normalized dual state; the plan and the
        potentials are built from the state when first read.

    Raises
    ------
    ConvergenceError
        If max_iter is exhausted, or earlier if the iterate stops changing
        (``stalled``); the report rides on the exception.
    DirectOverflowError
        If scaling vectors leave the double range (small gamma); the
        log-domain variant handles those instances.
    """
    return _solve(mu, nu, c, gamma, tol, max_iter, "direct", beta0)


def solve_logdomain(
    mu: GridMeasure,
    nu: GridMeasure,
    c: Union[ProductDensity, str],
    gamma: float,
    tol: float = 1e-9,
    max_iter: int = 100000,
    *,
    beta0: Optional[np.ndarray] = None,
) -> SolveResult:
    """Same contract as :func:`solve`, stabilized by absorption.

    The dense kernel's matvecs run on exp(f (+) g - c/gamma), where f starts
    at -max_j log K_ij and f and g absorb log a and log b whenever these
    drift 30 away; a pass with non-finite denominators is redone by
    log-sum-exp. So small gamma cannot overflow the kernel. The FFT kernel,
    where it runs, is the same in both modes. The plan agrees with the
    direct mode to 1e-8 entrywise whenever the latter completes.
    """
    return _solve(mu, nu, c, gamma, tol, max_iter, "log", beta0)


def primal_value(plan: ProductDensity, c: ProductDensity, gamma: float) -> float:
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
