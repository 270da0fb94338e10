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
and log b, and reduces the kernel block by matvecs with the stabilized
kernel exp(f (+) g - c/gamma) (Schmitzer, arXiv:1610.06519). In log
mode, the default everywhere else in the package, f starts at
-max_j log K_ij, f and g absorb log a and log b whenever these drift too
far, and a pass that still over- or underflows is redone by log-sum-exp;
in direct mode f = g = 0. The two agree to near machine precision
whenever direct arithmetic does not over- or underflow. A cost named by a
rule of :data:`COST_RULES` is evaluated on the support centers only.

The report comes from the loop's last passes: since c + gamma log pi =
gamma (log a + log b) on the block, the primal and dual values, their gap
and both marginal residuals follow from the plan's row and column sums,
which those passes' denominators give. The transport cost is one more
matvec. The plan, dual state and potentials are built when first read.
:func:`primal_value`, :func:`dual_value` and
:func:`optimality_residual` compute the same quantities from full-grid
plans and states, as independent references.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Tuple, Union

import numpy as np

from .measures import MASS_TOL, Grid1D, GridMeasure, ProductDensity

__all__ = [
    "CostField",
    "GibbsKernel",
    "DualState",
    "Potentials",
    "SolveReport",
    "SolveResult",
    "TransportPlan",
    "SandwichCheck",
    "SolverError",
    "ParameterError",
    "DivergedScalingError",
    "DirectOverflowError",
    "ConvergenceError",
    "COST_RULES",
    "cost_field",
    "gibbs_kernel",
    "sinkhorn_step_a",
    "sinkhorn_step_b",
    "solve",
    "solve_logdomain",
    "primal_value",
    "dual_value",
    "normalize_gauge",
    "optimality_residual",
    "potentials_from_state",
    "potential_sandwich_check",
    "support_check",
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


def _sqdist(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return (x - y) ** 2


def _absdist(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.abs(x - y)


#: closed-form cost rules; each maps broadcastable x, y arrays to costs
COST_RULES: dict = {"sqdist": _sqdist, "abs": _absdist}


@dataclass(frozen=True, eq=False)
class CostField:
    """Cost values c(x_i, y_j) tabulated on a product grid."""

    grid1: Grid1D
    grid2: Grid1D
    values: np.ndarray

    def __init__(self, grid1: Grid1D, grid2: Grid1D, values):
        vals = np.array(values, dtype=float, copy=True)
        if vals.shape != (grid1.n, grid2.n):
            raise ParameterError(
                f"cost shape {vals.shape} does not match grids ({grid1.n}, {grid2.n})"
            )
        if not np.all(np.isfinite(vals)):
            raise ParameterError("cost values must be finite")
        if np.any(vals < 0):
            raise ParameterError("cost values must be nonnegative")
        vals.setflags(write=False)
        object.__setattr__(self, "grid1", grid1)
        object.__setattr__(self, "grid2", grid2)
        object.__setattr__(self, "values", vals)


def _rule_values(rule: str, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The named cost rule at every pair of ``x`` (rows) and ``y`` (columns)."""
    if not isinstance(rule, str) or rule not in COST_RULES:
        raise ParameterError(f"unknown cost rule {rule!r}, expected one of {sorted(COST_RULES)}")
    return COST_RULES[rule](x[:, None], y[None, :])


def cost_field(grid1: Grid1D, grid2: Grid1D, rule: str) -> CostField:
    """Tabulate a named closed-form cost rule on the product grid."""
    return CostField(grid1, grid2, _rule_values(rule, grid1.centers, grid2.centers))


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
    both are 0 in direct mode.
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


class SolveResult:
    """The report of one solve, and its plan, dual state and potentials.

    The solve builds the report. The plan, the gauge-normalized state and
    the potentials live on the full grids and are built from the solution
    on the supports when first read.
    """

    def __init__(self, report, grids, masks, log_ab, cost, gamma):
        self.report: SolveReport = report
        # log a and log b on the supports that ``masks`` mark, the cost on their product
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
        log_a, log_b = self._log_ab
        # log pi = (log K + log a) + log b on the supports
        values = block = self._cost / -self._gamma
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


def sinkhorn_step_a(K: GibbsKernel, b: np.ndarray, mu: GridMeasure) -> np.ndarray:
    """One scaling pass enforcing the first marginal.

    Returns a with a_i = mu_i / (sum_j K_ij b_j h2) on the support of mu
    and a_i = 0 elsewhere; afterwards the first marginal of a_i K_ij b_j
    equals mu exactly up to rounding.
    """
    if mu.grid.n != K.grid1.n:
        raise ParameterError("mu does not live on the kernel's first grid")
    b = np.asarray(b, dtype=float)
    denom = K.values @ b * K.grid2.h
    a = np.zeros(K.grid1.n)
    supp = mu.density > 0
    bad = supp & (denom <= 0)
    if np.any(bad):
        raise DivergedScalingError(0, "a")
    a[supp] = mu.density[supp] / denom[supp]
    return a


def sinkhorn_step_b(K: GibbsKernel, a: np.ndarray, nu: GridMeasure) -> np.ndarray:
    """Mirror image of :func:`sinkhorn_step_a`, enforcing the second marginal."""
    if nu.grid.n != K.grid2.n:
        raise ParameterError("nu does not live on the kernel's second grid")
    a = np.asarray(a, dtype=float)
    denom = K.values.T @ a * K.grid1.h
    b = np.zeros(K.grid2.n)
    supp = nu.density > 0
    bad = supp & (denom <= 0)
    if np.any(bad):
        raise DivergedScalingError(0, "b")
    b[supp] = nu.density[supp] / denom[supp]
    return b


def _check_probability(m: GridMeasure, name: str) -> None:
    mass = m.mass
    if abs(mass - 1.0) > MASS_TOL * max(1.0, abs(mass)):
        raise ParameterError(f"{name} must be a probability measure, has mass {mass!r}")


#: how far log a or log b may drift from the absorbed potentials f and g
#: before the kernel is rebuilt; the matvecs then see scalings within
#: exp(30) ~ 1e13 of 1, far from over- and underflow
_ABSORB_AT = 30.0


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

    The loop reduces the block by matvecs with the stabilized kernel
    exp(f (+) g - c/gamma), which one closure builds in both modes: the log
    row denominators are log(K @ exp(log b - g) h2) - f, the column ones
    likewise. ``"log"`` mode starts from f = -max_j log K_ij and g = 0,
    absorbs log a and log b into f and g, rebuilding the kernel, after the
    first pass and whenever they drift :data:`_ABSORB_AT` away, and redoes
    by log-sum-exp any pass with non-finite denominators. ``"direct"`` mode
    keeps f = g = 0 and raises on a non-finite denominator. Each iteration
    opens with the b-update of the one before, so the loop stops on the
    iterate its last residual measured.
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
        c_st = c.values if smask.all() and tmask.all() else c.values[np.ix_(smask, tmask)]
    else:
        c_st = _rule_values(c, mu.grid.centers[smask], nu.grid.centers[tmask])
    mu_s = mu.density[smask]
    nu_t = nu.density[tmask]
    h1, h2 = mu.grid.h, nu.grid.h

    absorbing = mode == "log"
    # log mode starts from f = -max_j log K_ij, so that every kernel row holds a 1
    f = c_st.min(axis=1) / gamma if absorbing else np.zeros_like(mu_s)
    g = np.zeros_like(nu_t)
    K = np.empty(c_st.shape)
    absorptions = fallbacks = 0

    def build():
        """The stabilized kernel exp((-c/gamma + f) + g), in the memory of K."""
        np.divide(c_st, -gamma, out=K)
        np.add(K, f[:, None], out=K)
        np.add(K, g, out=K)
        np.exp(K, out=K)

    def reduce(log_v, it, side):
        """Log row (side "a") or column (side "b") denominators of the block."""
        nonlocal fallbacks
        K_, c_, f_, g_, h = (K, c_st, f, g, h2) if side == "a" else (K.T, c_st.T, g, f, h1)
        log_d = np.log(K_ @ np.exp(log_v - g_) * h) - f_
        if absorbing and not np.all(np.isfinite(log_d)):
            fallbacks += 1
            m = c_ / -gamma
            m += log_v + np.log(h)
            log_d = _logsumexp(m, axis=1)
        if not np.all(np.isfinite(log_d)):  # -inf: vanished; +inf or NaN: overflowed
            if np.any(log_d == -np.inf):
                raise DivergedScalingError(it, side)
            raise DirectOverflowError(it)
        return log_d

    def absorb(log_a, log_b):
        """Log mode: fold log a, log b into f, g and rebuild the kernel once they drift."""
        nonlocal absorptions
        if absorbing and (
            not absorptions or max(np.max(np.abs(log_a - f)), np.max(np.abs(log_b - g))) > _ABSORB_AT
        ):
            f[:], g[:] = log_a, log_b
            build()
            absorptions += 1

    log_mu = np.log(mu_s)
    log_nu = np.log(nu_t)
    log_b = np.zeros_like(nu_t)
    residuals: list = []
    build()
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for it in range(1, max_iter + 1):
            if it > 1:
                log_b = log_nu - col
                absorb(log_a, log_b)
            row = reduce(log_b, it, "a")
            log_a = log_mu - row
            absorb(log_a, log_b)
            col = reduce(log_a, it, "b")
            colmarg = np.exp(log_b + col)
            residuals.append(float(np.abs(colmarg - nu_t).sum() * h2))
            if residuals[-1] <= tol:
                break

    # pi = exp(log a - f) K exp(log b - g): the cost part is one matvec with
    # c o K, formed in the memory of K, which the loop no longer needs
    K *= c_st
    cost = float(np.exp(log_a - f) @ (K @ np.exp(log_b - g))) * h1 * h2
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
        absorptions=absorptions,
        fallbacks=fallbacks,
    )
    if not report.converged:
        raise ConvergenceError(report)
    return SolveResult(report, (mu.grid, nu.grid), (smask, tmask), (log_a, log_b), c_st, float(gamma))


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

    The matvecs run on exp(f (+) g - c/gamma), where f starts at
    -max_j log K_ij and f and g absorb log a and log b whenever these drift
    30 away; a pass with non-finite denominators is redone by log-sum-exp.
    So small gamma cannot overflow the kernel. The plan agrees with the direct mode to 1e-8 entrywise
    whenever the latter completes.
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


def normalize_gauge(state: DualState, h1: float) -> DualState:
    """Rescale (a, b) -> (a/g, g b) so that sum_i a_i h1 = 1.

    The plan and the dual value are invariant under this rescaling;
    idempotent on an already normalized state.
    """
    finite = np.isfinite(state.log_a)
    if not np.any(finite):
        raise ParameterError("cannot normalize a state with identically zero a")
    log_gauge = _logsumexp(state.log_a[finite] + np.log(h1), axis=0)
    log_a = np.where(finite, state.log_a - log_gauge, -np.inf)
    log_b = np.where(np.isfinite(state.log_b), state.log_b + log_gauge, -np.inf)
    with np.errstate(over="ignore"):
        return DualState(np.exp(log_a), np.exp(log_b), log_a, log_b)


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


@dataclass(frozen=True)
class SandwichCheck:
    """Result of the two-sided potential bound check.

    ``k_const`` is log(cbar/cunder) built from the extremes of the
    denominator sums; ``max_violation`` is how far any support cell sits
    outside [log mu - k, log mu + k] (nonpositive when the bound holds).
    """

    k_const: float
    max_violation: float
    holds: bool


def potential_sandwich_check(
    state: DualState,
    K: GibbsKernel,
    mu: GridMeasure,
    tol: float = 1e-9,
) -> SandwichCheck:
    """Check log mu - k <= alpha/gamma <= log mu + k on the support of mu.

    Here alpha/gamma = log a and k = log(cbar/cunder) with cunder, cbar
    the smallest and largest of the sums c_i = sum_j K_ij b_j h2 over
    support cells. Expects a gauge-normalized state (integral of a equal
    to 1); the normalization pins cunder <= 1 <= cbar, which makes the
    two-sided bound valid.
    """
    smask = mu.density > 0
    tmask = np.isfinite(state.log_b)
    h2 = K.grid2.h
    logK = K.log_values[np.ix_(smask, tmask)]
    log_c = _logsumexp(logK + state.log_b[tmask][None, :] + np.log(h2), axis=1)
    k_const = float(np.max(log_c) - np.min(log_c))
    log_mu = np.log(mu.density[smask])
    log_a = state.log_a[smask]
    upper = np.max(log_a - (log_mu + k_const))
    lower = np.max((log_mu - k_const) - log_a)
    max_violation = float(max(upper, lower))
    return SandwichCheck(k_const, max_violation, max_violation <= tol)


def support_check(
    plan: TransportPlan, mu: GridMeasure, nu: GridMeasure, threshold: float = 1e-300
) -> bool:
    """True iff plan entries exceed threshold exactly on supp mu x supp nu."""
    expected = np.outer(mu.density > 0, nu.density > 0)
    return bool(np.array_equal(plan.values > threshold, expected))
