"""Weak-coupling zero-temperature spin-boson dynamics.

Closed-form time-local decay rates for an Ohmic bath, the analytic
dynamical map they generate, an independent ODE oracle, a Monte Carlo
jump unraveling with reversed jumps for negative rates, recoherence
regions, and a trace-distance non-Markovianity measure.
"""

from .errors import (ConfigError, DomainError, GridError, ProbabilityError,
                     SpinBosonError, StepError, ToleranceError)
from .specfun import expint_e1, sin_cos_integral
from .model import (MAX_OMEGA0_RATIO, RateSet, SystemParams, channel_rates,
                    rate_table, rates_closed_form, rates_quadrature,
                    sign_changes, uniform_grid)
from .dynamics import (DensityMatrix, KernelTable, apply_map_series,
                       blp_measure, blp_sweep, build_kernels, ode_oracle,
                       pair_directions, recoherence_mask)
from .nmqj import (PureState, UnravelingResult, UnravelingSnapshot,
                   count_difference_series, deterministic_step,
                   equal_superposition, run_unraveling, step_ensemble)

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "DomainError", "GridError", "ProbabilityError",
    "SpinBosonError", "StepError", "ToleranceError",
    "expint_e1", "sin_cos_integral",
    "MAX_OMEGA0_RATIO", "RateSet", "SystemParams", "channel_rates",
    "rate_table", "rates_closed_form", "rates_quadrature", "sign_changes",
    "uniform_grid",
    "DensityMatrix", "KernelTable", "apply_map_series",
    "blp_measure", "blp_sweep", "build_kernels", "ode_oracle",
    "pair_directions", "recoherence_mask",
    "PureState", "UnravelingResult", "UnravelingSnapshot",
    "count_difference_series", "deterministic_step", "equal_superposition",
    "run_unraveling", "step_ensemble",
    "__version__",
]
