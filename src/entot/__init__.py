"""Entropic optimal transport on 1D grids, with Orlicz-norm diagnostics
and a smoothed-marginal limit harness."""

from .measures import (
    AtomicMeasure,
    Grid1D,
    GridFunction,
    GridMeasure,
    ProductDensity,
    ProductFunction,
    marginals,
    product_measure,
    read_measure_csv,
    read_product_csv,
    write_measure_csv,
    write_product_csv,
)
from .orlicz import (
    PHI_EXP,
    PHI_LOG,
    luxemburg_norm,
    neg_entropy,
)
from .solver import (
    ConvergenceError,
    CostField,
    DirectOverflowError,
    DivergedScalingError,
    ParameterError,
    SolverError,
    cost_field,
    potentials_from_state,
    primal_value,
    solve,
    solve_logdomain,
)
from .gamma_limit import (
    ExtendedDomain,
    Mollifier,
    coupled_schedule,
    gamma_sweep,
    power_schedule,
    smooth_marginal,
    unregularized_ot_1d,
)

__version__ = "0.1.0"
