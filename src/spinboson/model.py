"""Spin-boson model parameters and time-local decay rates.

A two-level system with energy bias ``epsilon`` and tunneling amplitude
``delta`` couples through sigma_z to a zero-temperature bosonic bath with
an Ohmic spectral density J(omega) = (alpha/2) * omega * exp(-omega/omega_c).
In the system eigenbasis the weak-coupling (second-order time-local) master
equation has three decay channels,

    C1 = sigma_-  with rate gamma1(t) = (delta^2 / 4 omega0^2) * gp(t)
    C2 = sigma_+  with rate gamma2(t) = (delta^2 / 4 omega0^2) * gm(t)
    C3 = sigma_z  with rate gamma3(t) = (epsilon^2 / 4 omega0^2) * g0(t)

where gp/gm are the downward/upward rates at the eigenfrequency
omega0 = sqrt(epsilon^2 + delta^2) and g0 is the zero-frequency
(pure-dephasing) rate.  This module provides the closed-form rates, an
independent double-integral quadrature oracle for them, and utilities for
locating the times where a rate changes sign.

All quantities are in units of the bath cutoff omega_c, so omega_c = 1
throughout: frequencies and rates in omega_c, times in 1/omega_c.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GridError, ToleranceError
from .specfun import expint_e1

#: omega0/omega_c beyond which exp(omega0/omega_c) factors in the stable
#: rate evaluation would lose accuracy or overflow.
MAX_OMEGA0_RATIO = 300.0

#: warn below this omega0/omega_c: the secular form of the master equation
#: assumes the system frequency is well above the bath cutoff.
SECULAR_RATIO_WARNING = 5.0


@dataclass(frozen=True)
class SystemParams:
    """Two-level system and coupling parameters.

    ``omega0`` is derived, never stored: sqrt(epsilon^2 + delta^2).
    """

    epsilon: float
    delta: float
    alpha: float

    def __post_init__(self) -> None:
        if not (self.delta > 0.0) or not math.isfinite(self.delta):
            raise DomainError(f"delta must be > 0, got {self.delta}")
        if self.epsilon < 0.0 or not math.isfinite(self.epsilon):
            raise DomainError(f"epsilon must be >= 0, got {self.epsilon}")
        if self.alpha < 0.0 or not math.isfinite(self.alpha):
            raise DomainError(f"alpha must be >= 0, got {self.alpha}")
        w0 = self.omega0
        if not w0 * w0 >= sys.float_info.min:
            raise DomainError(
                f"omega0 = {w0:g} is too small: the channel weights divide "
                "by omega0**2, which underflows")
        # from_ratios lands up to 2 ulps above the omega0 it is given
        if w0 > MAX_OMEGA0_RATIO * (1.0 + 4.0 * sys.float_info.epsilon):
            raise DomainError(
                f"omega0/omega_c = {w0:g} exceeds the supported maximum "
                f"{MAX_OMEGA0_RATIO:g} (rate evaluation would overflow)")
        if w0 < SECULAR_RATIO_WARNING:
            warnings.warn(
                f"omega0/omega_c = {w0:g} < {SECULAR_RATIO_WARNING:g}: "
                "the secular weak-coupling rates are derived for a system "
                "frequency well above the bath cutoff", stacklevel=2)

    @property
    def omega0(self) -> float:
        """System eigenfrequency sqrt(epsilon^2 + delta^2)."""
        return math.hypot(self.epsilon, self.delta)

    @classmethod
    def from_ratios(cls, epsilon_over_delta: float, omega0_over_omegac: float,
                    alpha: float) -> "SystemParams":
        """Build params from the ratio parametrization used by the figures.

        epsilon and delta are chosen so that omega0 = omega0_over_omegac
        exactly while epsilon/delta matches the requested ratio.
        """
        if not 0.0 <= epsilon_over_delta < math.inf:
            raise DomainError(
                f"epsilon_over_delta must be >= 0, got {epsilon_over_delta}")
        if not 0.0 < omega0_over_omegac < math.inf:
            raise DomainError(
                f"omega0_over_omegac must be > 0, got {omega0_over_omegac}")
        delta = omega0_over_omegac / math.hypot(1.0, epsilon_over_delta)
        epsilon = epsilon_over_delta * delta
        return cls(epsilon=epsilon, delta=delta, alpha=alpha)


@dataclass(frozen=True)
class RateSet:
    """All decay rates at one time: bare (gamma_plus/minus/zero) and channel."""

    t: float
    gamma_plus: float
    gamma_minus: float
    gamma_zero: float
    gamma1: float
    gamma2: float
    gamma3: float

    def __post_init__(self) -> None:
        for name in ("gamma_plus", "gamma_minus", "gamma_zero",
                     "gamma1", "gamma2", "gamma3"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"rate {name} is not finite at t={self.t}")


def rate_table(p: SystemParams, tgrid: np.ndarray) -> dict[str, np.ndarray]:
    """Sample all rates on a time grid; returns arrays keyed like RateSet.

    This is the package's one closed-form rate evaluation.  With
    y = omega0 and x = y*t, the Si/Ci combinations of the closed form
    reduce to E1 at +-y + ix, which is evaluated directly:

    * gamma_plus (downward, at +omega0) uses pi + Im E1(-y + ix).  The E1
      form is stable for all y <= 300, where the naive Si/Ci bracket loses
      all significant digits to cancellation against the e^{-y} prefactor.
    * gamma_minus (upward, at -omega0) uses -Im[e^{y} E1(y - ix)]; the
      product never overflows for y <= 300 because E1(y - ix) ~ e^{-y}/|z|.
    * gamma_zero (pure dephasing) is alpha*t / (1 + t^2).

    Every rate vanishes at t = 0, which is handled explicitly: no special
    function is evaluated at its singular point.  A non-finite rate raises
    DomainError naming its column (first in RateSet order) and first time.
    """
    tgrid = np.asarray(tgrid, dtype=float)
    if tgrid.size and not tgrid.min() >= 0.0:  # also catches NaN
        raise DomainError(f"rates defined for t >= 0, got t={tgrid.min()}")
    y, alpha = p.omega0, p.alpha
    live = tgrid > 0.0
    u = tgrid[live]
    x = y * u
    lorentz = alpha / (1.0 + u * u)
    cos_x, sin_x = np.cos(x), np.sin(x)
    scale = alpha * y
    gp = np.zeros(tgrid.shape)
    gm = np.zeros(tgrid.shape)
    gp[live] = lorentz * (u * cos_x - sin_x) + scale * math.exp(-y) \
        * (math.pi + expint_e1(-y + 1j * x).imag)
    gm[live] = lorentz * (u * cos_x + sin_x) - scale * math.exp(y) \
        * expint_e1(y - 1j * x).imag
    g0 = alpha * tgrid / (1.0 + tgrid * tgrid)
    table = channel_rates(p, {"gamma_plus": gp, "gamma_minus": gm,
                              "gamma_zero": g0})
    for name, col in table.items():
        bad = np.flatnonzero(~np.isfinite(col))
        if bad.size:
            raise DomainError(f"rate {name} is not finite at "
                              f"t={float(tgrid[bad[0]])}")
    return table


def channel_rates(p: SystemParams, bare: dict[str, np.ndarray]
                  ) -> dict[str, np.ndarray]:
    """The rate table of p from bare rates gamma_plus/minus/zero.

    gamma1, gamma2 = delta^2/(4 omega0^2) * (gamma_plus, gamma_minus) and
    gamma3 = epsilon^2/(4 omega0^2) * gamma_zero.  The bare rates depend on
    omega0 and alpha only, so one rate_table's bare columns serve every
    epsilon/delta at that omega0.
    """
    y = p.omega0
    wt = p.delta * p.delta / (4.0 * y * y)
    wz = p.epsilon * p.epsilon / (4.0 * y * y)
    gp, gm, g0 = bare["gamma_plus"], bare["gamma_minus"], bare["gamma_zero"]
    return {"gamma_plus": gp, "gamma_minus": gm, "gamma_zero": g0,
            "gamma1": wt * gp, "gamma2": wt * gm, "gamma3": wz * g0}


def rates_closed_form(p: SystemParams, t: float) -> RateSet:
    """All rates at time t: a one-point rate_table."""
    table = rate_table(p, np.array([t], dtype=float))
    return RateSet(t=t, **{name: float(v[0]) for name, v in table.items()})


#: most points a uniform time grid may hold (80 MB per float64 array);
#: a larger request is an input error, not an allocation to attempt
MAX_GRID_POINTS = 10_000_000


def uniform_grid(t_max: float, h: float) -> np.ndarray:
    """Time grid 0, h, 2h, ..., t_max; GridError unless h divides t_max.

    The divisibility check tolerates 1e-9 absolute mismatch; grid points
    are exact multiples of h, so the last point may differ from t_max by
    up to that tolerance.  Non-finite inputs and grids of more than
    MAX_GRID_POINTS points also raise GridError.
    """
    if not (math.isfinite(h) and math.isfinite(t_max)) \
            or h <= 0.0 or t_max <= 0.0:
        raise GridError(f"need finite h > 0 and t_max > 0, "
                        f"got h={h}, t_max={t_max}")
    steps = t_max / h
    if steps > MAX_GRID_POINTS - 1:
        raise GridError(f"t_max/h = {steps:g} steps exceeds the grid cap of "
                        f"{MAX_GRID_POINTS} points")
    n = round(steps)
    if n < 1 or abs(n * h - t_max) > 1e-9:
        raise GridError(f"step {h} does not divide t_max {t_max}")
    return np.arange(n + 1) * h


# --- quadrature oracle -------------------------------------------------

#: hard cap on integrand evaluations for one rates_quadrature call
QUAD_BUDGET = 1_000_000


def rates_quadrature(p: SystemParams, omega: float, t: float) -> float:
    """Decay rate at frequency omega by direct quadrature of its definition.

    The rate is 2 * int_0^t dt' int_0^inf domega' J(omega') cos[(omega -
    omega')t'].  The inner frequency integral has a closed rational form
    for the Ohmic density,

        int_0^inf (alpha/2) w e^{-w} cos[(omega - w)t'] dw
            = (alpha/2) [cos(omega t')(1 - t'^2) + 2 t' sin(omega t')]
              / (1 + t'^2)^2,

    leaving a single oscillatory time integral.  Its rational x cos and
    rational x sin parts are integrated separately with QUADPACK's
    oscillatory weights (``quad(..., weight="cos"|"sin", wvar=omega)``),
    over the geometric pieces 0, 1, 2, 4, ..., t.  Each piece spans at
    most a factor two in t', so the rational factor stays smooth on it
    however many periods it holds; one weighted call over [0, t] loses
    the tail at large t (at t = 1e9 it returns 3.9e-11 for a rate of
    1.4e-5 with a passing error estimate).

    This routine is deliberately independent of the closed-form path (no
    shared special functions) so the two can validate each other.  It is
    the only user of ``scipy.integrate``, which it imports on its first
    call in a process (~0.4 s) so that importing the package does not.

    Raises
    ------
    DomainError
        If t is negative or not finite, or omega is not finite.
    ToleranceError
        If the evaluation budget is exhausted, or the summed absolute
        error estimate exceeds 1e-10 or is not finite, or the
        result is not finite.
    """
    if not 0.0 <= t < math.inf:
        raise DomainError(f"rates defined for finite t >= 0, got t={t}")
    if not math.isfinite(omega):
        raise DomainError(f"omega must be finite, got {omega}")
    from scipy.integrate import quad
    if t == 0.0:
        return 0.0
    alpha = p.alpha

    def cos_part(tp: float) -> float:
        d2 = 1.0 + tp * tp
        return 0.5 * alpha * (1.0 - tp * tp) / (d2 * d2)

    def sin_part(tp: float) -> float:
        d2 = 1.0 + tp * tp
        return alpha * tp / (d2 * d2)

    edges = [0.0]
    edge = 1.0
    while edge < t:
        edges.append(edge)
        edge *= 2.0
    edges.append(t)
    n_calls = 2 * (len(edges) - 1)
    tol_total = 1e-10
    total = 0.0
    err_total = 0.0
    evals = 0
    for lo, hi in zip(edges[:-1], edges[1:]):
        for part, weight in ((cos_part, "cos"), (sin_part, "sin")):
            val, err, info = quad(part, lo, hi, weight=weight, wvar=omega,
                                  epsabs=tol_total / (4 * n_calls),
                                  epsrel=1e-12, limit=200,
                                  full_output=True)[:3]
            evals += info["neval"]
            if evals > QUAD_BUDGET:
                raise ToleranceError(
                    f"quadrature budget {QUAD_BUDGET} exhausted at t={t}, "
                    f"omega={omega}")
            total += val
            err_total += err
    if not (math.isfinite(total) and err_total <= tol_total):
        raise ToleranceError(
            f"quadrature value {total!r} with error estimate "
            f"{err_total:.3e} (tolerance {tol_total:.3e}) at t={t}, "
            f"omega={omega}")
    return 2.0 * total


# --- sign structure ----------------------------------------------------

def sign_changes(p: SystemParams, channel: int, t_max: float) -> list[float]:
    """Times in (0, t_max] where a channel rate crosses zero.

    Brackets on a grid of step 0.01 and refines each bracket by plain
    bisection on the sign to 1e-8; all brackets advance together, one
    rate_table call per bisection step.  Bisection decisions depend only
    on the sign of the rate, so for channels 1 and 2 the returned times
    are bit-identical across any epsilon/delta at fixed omega0 (the
    channel weights are positive constants).  A bracketing grid of more
    than MAX_GRID_POINTS points raises GridError.
    """
    if not 0.0 < t_max < math.inf:
        raise DomainError(f"t_max must be finite and > 0, got {t_max}")
    if channel not in (1, 2, 3):
        raise DomainError(f"channel must be 1, 2, or 3, got {channel}")

    key = f"gamma{channel}"
    step = 0.01
    if t_max / step > MAX_GRID_POINTS:
        raise GridError(f"t_max = {t_max:g} needs {t_max / step:g} bracketing "
                        f"points, beyond the grid cap of {MAX_GRID_POINTS}")
    n = int(math.ceil(t_max / step))
    if n < 2:
        return []
    # rates all vanish at t=0; bracketing starts at t = step and ends at
    # the first grid point that reaches t_max
    t = np.arange(1, n + 1) * step
    t[1:] = np.minimum(t[1:], t_max)
    t = t[:np.count_nonzero(t[1:] < t_max) + 2]
    f = rate_table(p, t)[key]
    f_lo, f_hi = f[:-1], f[1:]
    exact = t[:-1][f_lo == 0.0]
    bracket = f_lo * f_hi < 0.0
    lo, hi = t[:-1][bracket], t[1:][bracket]
    sign_lo = np.copysign(1.0, f_lo[bracket])
    while True:
        active = np.flatnonzero(hi - lo > 1e-8)
        if not active.size:
            break
        mid = 0.5 * (lo[active] + hi[active])
        same = np.copysign(1.0, rate_table(p, mid)[key]) == sign_lo[active]
        lo[active[same]] = mid[same]
        hi[active[~same]] = mid[~same]
    return np.sort(np.concatenate([exact, 0.5 * (lo + hi)])).tolist()
