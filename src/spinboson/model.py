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
independent quadrature oracle for them at one time, the same integrand's
cumulative quadrature on a uniform grid for the ODE oracle and the
unraveling, and utilities for locating the times where a rate changes
sign.  Both quadratures bound their error a priori, from the Gauss
remainder, so neither estimates it at run time.

All quantities are in units of the bath cutoff omega_c, so omega_c = 1
throughout: frequencies and rates in omega_c, times in 1/omega_c.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
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


def integer(name: str, value) -> int:
    """value as an int by operator.index: DomainError naming the argument
    for a float or any other non-integer; numpy integers are accepted."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None


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
        if w0 < SECULAR_RATIO_WARNING:     # stacklevel 3: past __init__
            warnings.warn(
                f"omega0/omega_c = {w0:g} < {SECULAR_RATIO_WARNING:g}: "
                "the secular weak-coupling rates are derived for a system "
                "frequency well above the bath cutoff", stacklevel=3)

    @property
    def omega0(self) -> float:
        """System eigenfrequency sqrt(epsilon^2 + delta^2)."""
        return math.hypot(self.epsilon, self.delta)

    @classmethod
    def from_ratios(cls, epsilon_over_delta: float, omega0_over_omegac: float,
                    alpha: float) -> "SystemParams":
        """Build params from the ratio parametrization used by the figures.

        epsilon/delta is the requested ratio, and omega0 is
        omega0_over_omegac exactly at ratio 0, else within 2 ulps.
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
    return channel_rates(p, {name: _bare_rate(p, tgrid, name)
                             for name in _BARE_RATES})


#: the bare rate that channel k weights is _BARE_RATES[k - 1]
_BARE_RATES = ("gamma_plus", "gamma_minus", "gamma_zero")


def _bare_rate(p: SystemParams, tgrid: np.ndarray, name: str) -> np.ndarray:
    """One bare column of rate_table on tgrid >= 0; DomainError at its
    first non-finite value.  A finite bare rate times its channel weight
    (at most 1/4) is finite, so this checks the channel column too.
    """
    y, alpha = p.omega0, p.alpha
    if name == "gamma_zero":
        col = alpha * tgrid / (1.0 + tgrid * tgrid)
    else:
        live = tgrid > 0.0
        u = tgrid[live]
        x = y * u
        lorentz = alpha / (1.0 + u * u)
        col = np.zeros(tgrid.shape)
        if name == "gamma_plus":
            col[live] = lorentz * (u * np.cos(x) - np.sin(x)) \
                + _times_alpha(alpha, y, math.exp(-y),
                               math.pi + expint_e1(-y + 1j * x).imag)
        else:
            col[live] = lorentz * (u * np.cos(x) + np.sin(x)) \
                - _times_alpha(alpha, y, math.exp(y),
                               expint_e1(y - 1j * x).imag)
    bad = np.flatnonzero(~np.isfinite(col))
    if bad.size:
        raise DomainError(f"rate {name} is not finite at "
                          f"t={float(tgrid[bad[0]])}")
    return col


def _times_alpha(alpha: float, y: float, e: float,
                 e1: np.ndarray) -> np.ndarray:
    """alpha * y * e * e1, left to right, unless the scalar alpha * y * e is
    0, subnormal or infinite at alpha > 0: then alpha * (y * e * e1), so no
    product underflows or overflows ahead of e1."""
    c = alpha * y * e
    if alpha > 0.0 and not sys.float_info.min <= c < math.inf:
        return alpha * (y * e * e1)
    return c * e1


def _channel_weights(p: SystemParams) -> tuple[float, float, float]:
    """Weights of channels 1, 2, 3 on their bare rates: delta^2/(4 omega0^2)
    twice, then epsilon^2/(4 omega0^2)."""
    y = p.omega0
    wt = p.delta * p.delta / (4.0 * y * y)
    return wt, wt, p.epsilon * p.epsilon / (4.0 * y * y)


def channel_rates(p: SystemParams, bare: dict[str, np.ndarray]
                  ) -> dict[str, np.ndarray]:
    """The rate table of p from bare rates gamma_plus/minus/zero, weighted
    by _channel_weights.  The bare rates depend on omega0 and alpha only,
    so one table's bare columns serve every epsilon/delta at that omega0.
    """
    w1, w2, w3 = _channel_weights(p)
    gp, gm, g0 = bare["gamma_plus"], bare["gamma_minus"], bare["gamma_zero"]
    return {"gamma_plus": gp, "gamma_minus": gm, "gamma_zero": g0,
            "gamma1": w1 * gp, "gamma2": w2 * gm, "gamma3": w3 * g0}


def rates_closed_form(p: SystemParams, t: float) -> RateSet:
    """All rates at time t: a one-point rate_table."""
    table = rate_table(p, np.array([t], dtype=float))
    return RateSet(t=t, **{name: float(v[0]) for name, v in table.items()})


#: most points a uniform time grid may hold (80 MB per float64 array);
#: a larger request is an input error, not an allocation to attempt
MAX_GRID_POINTS = 10_000_000


def uniform_grid(t_max: float, h: float) -> np.ndarray:
    """Time grid 0, h, 2h, ..., t_max; GridError unless h divides t_max.

    The divisibility check tolerates |n h - t_max| up to 1e-9 min(1, t_max):
    absolute from t_max = 1 up, relative below, so a step that misses a
    tiny t_max is not taken for one that divides it.  Grid points are
    exact multiples of h, so the last point may differ from t_max by up to
    that tolerance.  Non-finite inputs and grids of more than
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
    if n < 1 or abs(n * h - t_max) > 1e-9 * min(1.0, t_max):
        raise GridError(f"step {h} does not divide t_max {t_max}")
    return np.arange(n + 1) * h


# --- quadrature oracle -------------------------------------------------

#: integrations by parts in the tail, and its series' Horner coefficients
#: J!, ..., 2!, 1!
_TAIL_TERMS = 16
_TAIL_COEFFS = [float(math.factorial(j)) for j in range(_TAIL_TERMS, 0, -1)]


@functools.cache
def _gauss16() -> tuple[np.ndarray, np.ndarray]:
    """leggauss(16) as (nodes, weights), for rates_quadrature.  Built on
    first use, not at import: leggauss's eigenvalue solve adds ~0.6 MB of
    resident memory to a process that calls no other LAPACK routine, so
    oracle_rates, which the unraveling calls, carries its 4-node rule as
    _GAUSS4 instead."""
    return np.polynomial.legendre.leggauss(16)


#: leggauss(4) as (nodes, weights), as literal doubles
_GAUSS4 = (np.array([-0.8611363115940526, -0.33998104358485626,
                     0.33998104358485626, 0.8611363115940526]),
           np.array([0.34785484513745357, 0.6521451548625464,
                     0.6521451548625464, 0.34785484513745357]))


def _integrand_parts(s: np.ndarray, omega: float):
    """Re[e^{i omega s} (1 + i s)^{-2}] = (a + b) q^2 at s, as (a, b, q):
    a = (1 - s^2) cos(omega s) and b = 2 s sin(omega s) are its parts even
    and odd in omega, and q = 1/(1 + s^2)."""
    x = omega * s
    return (1.0 - s * s) * np.cos(x), 2.0 * s * np.sin(x), 1.0 / (1.0 + s * s)


def rates_quadrature(p: SystemParams, omega: float, t: float) -> float:
    """Decay rate at frequency omega by direct quadrature of its definition.

    The rate is 2 * int_0^t dt' int_0^inf domega' J(omega') cos[(omega -
    omega')t'].  The inner frequency integral has a closed rational form
    for the Ohmic density,

        int_0^inf (alpha/2) w e^{-w} cos[(omega - w)t'] dw
            = (alpha/2) Re[e^{i omega t'} h(t')],  h(t') = (1 + i t')^{-2},

    so the rate is alpha Re int_0^t e^{i omega t'} h(t') dt', in two parts:

    * the near part, over the geometric pieces 0, 1, 2, 4, ..., A, each cut
      into panels of at most 6 radians of omega t' by the 16-node
      Gauss-Legendre rule.
    * the tail from A to t, by 16 integrations by parts with the exact
      derivatives h^(j) = (-1)^j (j+1)! i^j (1 + i t')^{-(j+2)}.

    A is the first edge e with |omega| max(1, e) >= 64, so 0 from |omega|
    = 64 up, where the tail is all of [0, t]; if no edge below t
    qualifies (as at omega = 0), A = t and there is no tail.

    The truncation error is at most 3.1e-14 alpha at every omega and t,
    so no error is estimated at run time.  A panel of width w in the piece
    from r0 has |omega| w <= 6 and w <= r = max(1, r0), and |h^(j)| <=
    (j+1)!/r^(j+2) on it, so by the Gauss remainder and Leibniz's rule
    the panel errs by at most (16!)^4/(33 (32!)^3) w^33
    sum_{j=0}^{32} C(32, j) |omega|^(32-j) (j+1)!/r^(j+2) <= 9.14e-16/r.
    A piece holds at most 11 panels (|omega| r < 64 before A) and
    sum 1/r <= 3 over the pieces, so the near part errs by <= 3.02e-14.
    The tail's remainder is <= 16!/(|omega|^16 A^17) <= 16!/64^16 = 2.6e-16
    for A >= 1, and <= 17! (pi/2)/|omega|^16 <= 7.1e-15 for A = 0, where
    there is no near part.  t^2 is finite, so t < 2^512: at most 513
    pieces of 11 panels of 16 nodes, ~90,000 nodes in all.

    This routine is deliberately independent of the closed-form path (no
    shared special functions) so the two can validate each other.

    Raises
    ------
    DomainError
        If t is negative or not finite, or omega is not finite.
    ToleranceError
        If omega t or t^2 overflows (the integrand at t is not
        representable), or the rate is not finite.
    """
    if not 0.0 <= t < math.inf:
        raise DomainError(f"rates defined for finite t >= 0, got t={t}")
    if not math.isfinite(omega):
        raise DomainError(f"omega must be finite, got {omega}")
    if t == 0.0:
        return 0.0
    if not (math.isfinite(omega * t) and math.isfinite(t * t)):
        raise ToleranceError(f"omega t or t^2 overflows: t={t}, omega={omega}")
    w = abs(omega)
    edges = [0.0]
    while edges[-1] < t and w * max(1.0, edges[-1]) < 64.0:
        edges.append(min(max(1.0, 2.0 * edges[-1]), t))
    start, width = edges[-1], np.diff(edges)
    panels = np.maximum(np.ceil(w / 6.0 * width), 1.0).astype(int)
    nodes, weights = _gauss16()
    step = np.repeat(width / panels, panels)
    index = np.arange(step.size) - np.repeat(np.cumsum(panels) - panels,
                                             panels)
    s = (np.repeat(edges[:-1], panels) + step * index)[:, None] \
        + 0.5 * step[:, None] * (1.0 + nodes)
    a, b, q = _integrand_parts(s, omega)
    # reduceat sums each panel's nodes in order, as g.sum(axis=1) does not
    g = np.add.reduceat((a + b) * q * q * weights, [0], axis=1)
    value = float((g[:, 0] * (0.5 * step)).sum())
    if start < t:
        # S(t) - S(A), S(s) = -i e^{i omega s} h(s) / omega
        # * sum_j (j+1)! [omega (1 + is)]^{-j}, in Python complex scalars
        for sign, end in ((1.0, t), (-1.0, start)):
            inv = complex(1.0, -end) / (1.0 + end * end)
            ratio, poly = inv / omega, 0j
            for c in _TAIL_COEFFS:
                poly = poly * ratio + c
            value -= sign * (1j * cmath.exp(1j * omega * end) * inv * ratio
                             * poly).real
    value *= p.alpha
    if not math.isfinite(value):
        raise ToleranceError(f"quadrature value {value!r} is not finite at "
                             f"t={t}, omega={omega}")
    return value


#: bound on the summed Gauss remainder of each bare rate of oracle_rates,
#: over all its panels, in units of alpha
ORACLE_TOLERANCE = 1e-16

#: hard cap on the quadrature nodes of one oracle_rates call, which
#: evaluates them in blocks of _ORACLE_BLOCK_NODES nodes, the unit of
#: evaluation that bounds the temporaries
ORACLE_BUDGET = 100_000_000
_ORACLE_BLOCK_NODES = 16_384

#: steps per block of oracle_rates' cumulative sum
_SUM_BLOCK = 256


def _blocked_cumsum(a: np.ndarray) -> None:
    """np.cumsum(a, axis=0) in place on a C-contiguous 2-D array, summed in
    blocks of _SUM_BLOCK rows, then the running block totals added on: the
    rounding grows with the block length plus the number of blocks rather
    than with the number of rows."""
    full = len(a) // _SUM_BLOCK * _SUM_BLOCK
    blocks = a[:full].reshape(-1, _SUM_BLOCK, a.shape[1])
    np.cumsum(blocks, axis=1, out=blocks)
    np.cumsum(a[full:], axis=0, out=a[full:])
    carry = np.cumsum(blocks[:, -1], axis=0)
    blocks[1:] += carry[:-1, None]
    if full:
        a[full:] += carry[-1]


def oracle_rates(p: SystemParams, n: int, h: float) -> np.ndarray:
    """ode_oracle's and run_unraveling's channel rates gamma1, gamma2,
    gamma3 (columns) at t = k h, k = 0, ..., n (rows), by cumulative
    quadrature of rates_quadrature's integrand at omega = +-omega0 and 0:
    alpha Re e^{+-i omega0 s} (1 + i s)^{-2} and
    alpha (1 - s^2)(1 + s^2)^{-2}.

    Each step [k h, (k + 1) h] is cut into m panels of the 4-node
    Gauss-Legendre rule; one cos, sin and 1/(1 + s^2) pass serves
    all three rates, _blocked_cumsum joins the steps (one running sum
    over 500,000 steps drifts by 1.8e-14 alpha where a rate levels off
    near 0.3 alpha), and the bare rates are weighted as channel_rates
    weights them.  No code of
    rate_table enters, so each validates the other.

    The accuracy is enforced: on a panel of width w the rule errs by at
    most w^9 (4!)^4 / (9 (8!)^3) D, where
    D = sum_{j=0}^{8} 8!/j! (9 - j) omega0^j bounds the 8th derivative of
    e^{+-i omega0 s}(1 + i s)^{-2} at real s (Leibniz's rule, with
    |1 + i s| >= 1).  m is the fewest panels whose bounds, summed over all
    of them, stay within ORACLE_TOLERANCE alpha = 1e-16 alpha: so that
    bounds every bare rate's quadrature error, before rounding.
    ToleranceError if that takes more than ORACLE_BUDGET nodes in all; a
    step of more than _ORACLE_BLOCK_NODES nodes is evaluated in blocks of
    that many, summed.  rate_table's DomainError at a non-finite rate.
    """
    w0 = p.omega0
    d = sum(40320 // math.factorial(j) * (9 - j) * w0 ** j for j in range(9))
    # the fewest panels m with (n + 1/2) h (4!)^4 / (9 (8!)^3) (h / m)^8 d
    # <= ORACLE_TOLERANCE
    m = max(1.0, np.ceil(h * ((n + 0.5) * h * 24 ** 4 / (9 * 40320 ** 3)
                              * d / ORACLE_TOLERANCE) ** 0.125))
    if not 4 * m * (n + 1) <= ORACLE_BUDGET:
        raise ToleranceError(
            f"quadrature needs {4 * m:g} nodes on each of {n + 1} steps of "
            f"h={h} at omega0={w0}: beyond {ORACLE_BUDGET} in all")
    m, w = int(m), h / m                        # panels per step, their width
    nodes, weights = _GAUSS4
    chunk = _ORACLE_BLOCK_NODES // 4           # panels a block holds
    out = np.zeros((n + 1, 3))
    block = max(1, _ORACLE_BLOCK_NODES // (4 * m))
    for lo in range(0, n, block):
        starts = np.arange(lo, min(lo + block, n))[:, None] * h
        for first in range(0, m, chunk):
            k = np.arange(first, min(first + chunk, m))
            s = starts + (k[:, None] * w + 0.5 * w * (1.0 + nodes)).ravel()
            a, b, q = _integrand_parts(s, w0)
            q *= q
            wts = np.tile(0.5 * w * weights, k.size)
            even, odd = (a * q) @ wts, (b * q) @ wts
            part = np.stack([even + odd, even - odd,
                             ((1.0 - s * s) * q) @ wts], axis=1)
            out[lo + 1:lo + 1 + len(starts)] += part
    _blocked_cumsum(out)
    out *= p.alpha
    if not np.isfinite(out).all():      # the first column, then its first row
        col, k = np.argwhere(~np.isfinite(out.T))[0].tolist()
        raise DomainError(f"rate {_BARE_RATES[col]} is not finite at "
                          f"t={h * k}")
    out *= _channel_weights(p)
    return out


# --- sign structure ----------------------------------------------------

def sign_changes(p: SystemParams, channel: int, t_max: float) -> list[float]:
    """Times in (0, t_max] where a channel rate crosses zero.

    A channel rate is its bare rate (gamma_plus, gamma_minus, gamma_zero
    for channels 1, 2, 3) times a constant weight >= 0, so with a nonzero
    weight the two have the same sign, and only the bare column is
    evaluated: one E1 per time for channels 1 and 2, none for channel 3.
    Brackets on a grid of step 0.01 and refines each bracket by plain
    bisection on the sign to 1e-8: all brackets advance together, 20 steps
    of one evaluation each.  So for channels 1 and 2 the returned times are
    bit-identical across any epsilon/delta at fixed omega0.  A rate that is
    identically zero (a zero weight, or a zero bare rate at every
    bracketing point, as at alpha = 0) has no crossings.  A bracketing grid
    of more than MAX_GRID_POINTS points raises GridError.
    """
    if not 0.0 < t_max < math.inf:
        raise DomainError(f"t_max must be finite and > 0, got {t_max}")
    channel = integer("channel", channel)
    if channel not in (1, 2, 3):
        raise DomainError(f"channel must be 1, 2, or 3, got {channel}")

    name = _BARE_RATES[channel - 1]
    step = 0.01
    if t_max / step > MAX_GRID_POINTS:
        raise GridError(f"t_max = {t_max:g} needs {t_max / step:g} bracketing "
                        f"points, beyond the grid cap of {MAX_GRID_POINTS}")
    n = int(math.ceil(t_max / step))
    if n < 2 or _channel_weights(p)[channel - 1] == 0.0:
        return []
    # rates all vanish at t=0; bracketing starts at t = step and ends at
    # t_max, after the grid points below it
    t = np.arange(1, n) * step
    t = np.append(t[t < t_max], t_max)
    f = _bare_rate(p, t, name)
    if not f.any():
        return []
    f_lo, f_hi = f[:-1], f[1:]
    exact = t[:-1][f_lo == 0.0]
    bracket = np.sign(f_lo) * np.sign(f_hi) < 0.0
    lo, hi = t[:-1][bracket], t[1:][bracket]
    sign_lo = np.copysign(1.0, f_lo[bracket])
    # a bracket is at most step wide: these halvings bring it below 1e-8
    for _ in range(math.ceil(math.log2(step / 1e-8))):
        mid = 0.5 * (lo + hi)
        same = np.copysign(1.0, _bare_rate(p, mid, name)) == sign_lo
        lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
    return np.sort(np.concatenate([exact, 0.5 * (lo + hi)])).tolist()
