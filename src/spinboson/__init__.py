"""Weak-coupling zero-temperature spin-boson dynamics.

Closed-form time-local decay rates for an Ohmic bath, the analytic
dynamical map they generate, an independent ODE oracle, a Monte Carlo
jump unraveling with reversed jumps for negative rates, recoherence
regions, and a trace-distance non-Markovianity measure.
"""

from .errors import (ConfigError, DomainError, GridError, ProbabilityError,
                     SpinBosonError, StepError, ToleranceError)
from .specfun import (EULER_GAMMA, cosine_integral, expint_e1,
                      sin_cos_integral, sine_integral)
from .model import (MAX_OMEGA0_RATIO, RateSet, SystemParams, rate_table,
                    rates_closed_form, rates_quadrature, sign_changes,
                    uniform_grid)
from .dynamics import (DensityMatrix, DynamicalMap, KernelTable, apply_map,
                       apply_map_series, blp_measure, build_kernels,
                       ode_oracle, pair_directions, recoherence_mask,
                       trace_distance)
from .nmqj import (EnsembleState, PureState, UnravelingResult,
                   UnravelingSnapshot, count_difference_series,
                   deterministic_step, ensemble_density, equal_superposition,
                   member_uniforms, run_unraveling, step_ensemble)

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "DomainError", "GridError", "ProbabilityError",
    "SpinBosonError", "StepError", "ToleranceError",
    "EULER_GAMMA", "cosine_integral", "expint_e1", "sin_cos_integral",
    "sine_integral",
    "MAX_OMEGA0_RATIO", "RateSet", "SystemParams", "rate_table",
    "rates_closed_form", "rates_quadrature", "sign_changes", "uniform_grid",
    "DensityMatrix", "DynamicalMap", "KernelTable", "apply_map",
    "apply_map_series", "blp_measure", "build_kernels", "ode_oracle",
    "pair_directions", "recoherence_mask", "trace_distance",
    "EnsembleState", "PureState", "UnravelingResult", "UnravelingSnapshot",
    "count_difference_series", "deterministic_step", "ensemble_density",
    "equal_superposition", "member_uniforms", "run_unraveling",
    "step_ensemble",
    "__version__",
]
