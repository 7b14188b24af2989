"""Model-layer tests: parameters, rates, crossings."""

import json
import math
import pathlib
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinboson import (DomainError, GridError, RateSet, SpinBosonError,
                       SystemParams, ToleranceError, rate_table,
                       rates_closed_form,
                       rates_quadrature, sign_changes, uniform_grid)
import spinboson.model as model

FIG_RATIO = 1.0 / (2.0 * math.sqrt(3.0))


def fig_params(ratio: float = FIG_RATIO, omega0: float = 10.0,
               alpha: float = 0.01) -> SystemParams:
    return SystemParams.from_ratios(ratio, omega0, alpha)


# --- parameters ----------------------------------------------------------

def test_omega0_is_derived():
    p = SystemParams(epsilon=3.0, delta=4.0, alpha=0.01)
    assert p.omega0 == pytest.approx(5.0, rel=1e-15)


def test_from_ratios_reconstructs_both_ratios():
    p = fig_params()
    assert p.omega0 == pytest.approx(10.0, rel=1e-14)
    assert p.epsilon / p.delta == pytest.approx(FIG_RATIO, rel=1e-14)


@pytest.mark.filterwarnings("ignore:omega0/omega_c")
def test_from_ratios_omega0_within_two_ulps():
    # exact at ratio 0, where _bias_sweep and cmd_blp build their rows;
    # within the 2 ulps that __post_init__'s cap allows for elsewhere
    for omega0 in (0.5, 2.0, 10.0, 150.0, 300.0):
        assert SystemParams.from_ratios(0.0, omega0, 0.01).omega0 == omega0
        for ratio in np.linspace(0.0, 3.0, 301).tolist():
            got = SystemParams.from_ratios(ratio, omega0, 0.01).omega0
            assert abs(got - omega0) <= 2 * math.ulp(omega0)


def test_parameter_validation():
    with pytest.raises(DomainError):
        SystemParams(epsilon=0.1, delta=0.0, alpha=0.01)
    with pytest.raises(DomainError):
        SystemParams(epsilon=-0.1, delta=1.0, alpha=0.01)
    with pytest.raises(DomainError):
        SystemParams(epsilon=0.0, delta=10.0, alpha=-0.01)
    with pytest.raises(DomainError):
        SystemParams(epsilon=0.0, delta=301.0, alpha=0.01)


#: finite ratios from subnormal through ordinary to near the float maximum
EXTREME_RATIOS = st.one_of(st.floats(0.0, 1e-250), st.floats(0.0, 1e3),
                           st.floats(1e250, 1.7e308))


@settings(max_examples=300, deadline=None)
@given(eps_over_delta=EXTREME_RATIOS, omega0_over_omegac=EXTREME_RATIOS)
def test_extreme_ratios_fail_only_as_spinboson_errors(eps_over_delta,
                                                       omega0_over_omegac):
    # omega0/omega_c = 1e-300 once divided by zero in rate_table's
    # channel weights; any parameters either raise a SpinBosonError or
    # give finite rates
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            p = SystemParams.from_ratios(eps_over_delta, omega0_over_omegac,
                                         0.01)
            table = rate_table(p, np.array([0.0, 0.5, 1.0]))
        except SpinBosonError:
            return
    assert all(np.isfinite(v).all() for v in table.values())


def test_tiny_omega0_rejected():
    with pytest.raises(DomainError, match="omega0 = 1e-300 is too small"):
        SystemParams.from_ratios(FIG_RATIO, 1e-300, 0.01)


def test_low_frequency_ratio_warns():
    with pytest.warns(UserWarning):
        SystemParams(epsilon=0.0, delta=2.0, alpha=0.01)


def test_low_frequency_warning_names_the_caller():
    # not the dataclass's generated __init__: a direct call names this
    # file, and from_ratios names model.py, where it builds the params
    with pytest.warns(UserWarning) as direct:
        SystemParams(epsilon=0.0, delta=2.0, alpha=0.01)
    with pytest.warns(UserWarning) as ratios:
        SystemParams.from_ratios(0.0, 2.0, 0.01)
    assert [w.filename for w in direct] == [__file__]
    assert [w.filename for w in ratios] == [model.__file__]


def test_zero_coupling_allowed():
    p = SystemParams(epsilon=1.0, delta=10.0, alpha=0.0)
    r = rates_closed_form(p, 3.0)
    assert r.gamma_plus == 0.0 and r.gamma_zero == 0.0


# --- closed-form rates ---------------------------------------------------

def test_rates_vanish_at_zero():
    r = rates_closed_form(fig_params(), 0.0)
    assert (r.gamma_plus, r.gamma_minus, r.gamma_zero) == (0.0, 0.0, 0.0)
    assert (r.gamma1, r.gamma2, r.gamma3) == (0.0, 0.0, 0.0)


def test_gamma_zero_reference_point():
    # alpha * omega_c * (omega_c t) / (1 + (omega_c t)^2) at omega_c t = 1
    r = rates_closed_form(fig_params(), 1.0)
    assert r.gamma_zero == pytest.approx(0.005, rel=1e-14)


def test_channel_weights():
    p = fig_params()
    r = rates_closed_form(p, 0.7)
    wt = p.delta ** 2 / (4.0 * p.omega0 ** 2)
    wz = p.epsilon ** 2 / (4.0 * p.omega0 ** 2)
    assert r.gamma1 == pytest.approx(wt * r.gamma_plus, rel=1e-14)
    assert r.gamma2 == pytest.approx(wt * r.gamma_minus, rel=1e-14)
    assert r.gamma3 == pytest.approx(wz * r.gamma_zero, rel=1e-14)


def test_negative_time_rejected():
    with pytest.raises(DomainError):
        rates_closed_form(fig_params(), -0.1)
    with pytest.raises(DomainError):
        rate_table(fig_params(), np.array([-1.0, 0.0]))


def test_markov_limit_of_gamma_plus():
    for y in (5.0, 10.0):
        p = SystemParams(epsilon=0.0, delta=y, alpha=0.01)
        markov = math.pi * p.alpha * p.omega0 * math.exp(-y)
        r = rates_closed_form(p, 200.0)
        assert r.gamma_plus == pytest.approx(markov, rel=0.01)
        assert abs(r.gamma_minus) < 0.02 * markov


def test_gamma3_nonnegative_on_long_grid():
    p = fig_params()
    t = np.linspace(0.0, 200.0, 20001)
    assert np.min(rate_table(p, t)["gamma3"]) >= 0.0


def test_rate_table_matches_pointwise_closed_form():
    p = fig_params()
    grid = np.linspace(0.0, 8.0, 41)
    table = rate_table(p, grid)
    for i, t in enumerate(grid):
        r = rates_closed_form(p, float(t))
        assert table["gamma_plus"][i] == pytest.approx(r.gamma_plus, abs=1e-18,
                                                       rel=1e-13)
        assert table["gamma_minus"][i] == pytest.approx(r.gamma_minus,
                                                        abs=1e-18, rel=1e-13)
        assert table["gamma3"][i] == pytest.approx(r.gamma3, abs=1e-18,
                                                   rel=1e-13)


@settings(max_examples=80, deadline=None)
@given(st.floats(min_value=1e-4, max_value=50.0),
       st.floats(min_value=1e-4, max_value=0.5))
def test_rates_linear_in_alpha(t, alpha):
    base = rates_closed_form(fig_params(alpha=alpha), t)
    doubled = rates_closed_form(fig_params(alpha=2.0 * alpha), t)
    for name in ("gamma_plus", "gamma_minus", "gamma_zero", "gamma1",
                 "gamma2", "gamma3"):
        assert getattr(doubled, name) == pytest.approx(
            2.0 * getattr(base, name), rel=1e-12, abs=1e-300)


@pytest.mark.filterwarnings("ignore:omega0/omega_c")
@pytest.mark.parametrize("omega0", [10.0, 150.0, 300.0])
def test_rates_scale_with_alpha_at_its_extremes(omega0):
    # alpha * y * e^{-+y} underflows at alpha 1e-300 and omega0 >= 150 and
    # overflows at alpha 1e200 and omega0 300; alpha then comes last.  The
    # tolerance is 1e-12 of the column's largest value: near a crossing the
    # rate is a difference of two terms, so its own relative error grows
    # however the product is grouped (to 1.5e-8 at omega0 150, alpha 1e-200)
    t = np.linspace(0.0, 10.0, 1001)
    for ratio in (0.0, 0.3, 1.0):
        ref = rate_table(fig_params(ratio, omega0, 1.0), t)
        for alpha in (1e-300, 1e-200, 1e200):
            table = rate_table(fig_params(ratio, omega0, alpha), t)
            for name in ("gamma_plus", "gamma_minus", "gamma_zero",
                         "gamma1", "gamma2", "gamma3"):
                scale = np.abs(ref[name]).max()
                np.testing.assert_allclose(table[name] / alpha, ref[name],
                                           rtol=0.0, atol=1e-12 * scale)


def test_rateset_rejects_non_finite():
    with pytest.raises(DomainError):
        RateSet(t=1.0, gamma_plus=math.nan, gamma_minus=0.0, gamma_zero=0.0,
                gamma1=0.0, gamma2=0.0, gamma3=0.0)


def test_rate_table_names_first_non_finite_column(monkeypatch):
    # alpha*t overflows from t = 2 dt on: gamma_zero and gamma3 turn NaN
    # there while gamma_plus and gamma_minus stay finite
    p, dt = fig_params(alpha=1e10), 2.0 ** 990
    grid = np.arange(1025) * dt
    with pytest.raises(DomainError, match=re.escape(
            f"rate gamma_zero is not finite at t={2 * dt}")):
        rate_table(p, grid)
    # a later non-finite value in an earlier column is named first
    def e1_nan_at_end(z):
        out = np.zeros(z.shape, dtype=complex)
        out[-1] = complex(math.nan, math.nan)
        return out
    monkeypatch.setattr(model, "expint_e1", e1_nan_at_end)
    with pytest.raises(DomainError, match=re.escape(
            f"rate gamma_plus is not finite at t={1024 * dt}")):
        rate_table(p, grid)


def test_rate_table_where_omega0_t_overflows_evaluates_no_e1(monkeypatch):
    # omega0 t = inf at t = 1e308: the column is NaN there and reported,
    # E1 is not called at a non-finite argument
    calls, e1 = [], model.expint_e1

    def recording_e1(z):
        calls.append(z)
        return e1(z)
    monkeypatch.setattr(model, "expint_e1", recording_e1)
    with pytest.raises(DomainError, match=re.escape(
            "rate gamma_plus is not finite at t=1e+308")):
        rate_table(fig_params(), np.array([0.0, 1.0, 1e308]))
    assert [np.isfinite(z).all() for z in calls] == [True]


# --- quadrature oracle ---------------------------------------------------

def test_quadrature_zero_time():
    p = fig_params()
    assert rates_quadrature(p, p.omega0, 0.0) == 0.0


def test_quadrature_matches_closed_form_spot():
    # omega0/omega_c = 150 and 300 check the closed form's e^{-y} E1(-y + ix)
    # and e^{y} E1(y - ix) products at large |z| against the quadrature,
    # which shares no special function with them
    for omega0 in (10.0, 150.0, 300.0):
        p = fig_params(omega0=omega0)
        for t in (0.15, 1.0, 6.3):
            r = rates_closed_form(p, t)
            assert rates_quadrature(p, p.omega0, t) == \
                pytest.approx(r.gamma_plus, rel=1e-8, abs=1e-12)
            assert rates_quadrature(p, -p.omega0, t) == \
                pytest.approx(r.gamma_minus, rel=1e-8, abs=1e-12)
            assert rates_quadrature(p, 0.0, t) == \
                pytest.approx(r.gamma_zero, rel=1e-8, abs=1e-12)


def quadpack_reference(p, omega, t, calls=None):
    """The rate as QUADPACK gave it: quad with cos/sin weights over the
    geometric pieces 0, 1, 2, 4, ..., t, the cos part alone at omega = 0;
    appends each call's weight to calls."""
    from scipy.integrate import quad

    def cos_part(tp):
        return 0.5 * p.alpha * (1.0 - tp * tp) / (1.0 + tp * tp) ** 2

    def sin_part(tp):
        return p.alpha * tp / (1.0 + tp * tp) ** 2

    edges, edge = [0.0], 1.0
    while edge < t:
        edges.append(edge)
        edge *= 2.0
    edges.append(t)
    n_calls = 2 * (len(edges) - 1)
    parts = ((cos_part, "cos"),) if omega == 0.0 else \
        ((cos_part, "cos"), (sin_part, "sin"))
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        for part, weight in parts:
            if calls is not None:
                calls.append(weight)
            total += quad(part, lo, hi, weight=weight, wvar=omega,
                          epsabs=1e-10 / (4 * n_calls), epsrel=1e-12,
                          limit=200)[0]
    return 2.0 * total


#: rates_quadrature at the figure parameters: t -> value at omega = 0,
#: omega0, -omega0; then the same by quadpack_reference
QUADRATURE_PINS = {
    0.05: ("0x1.057d829e119ecp-11", "0x1.fdffdd79e0e09p-12",
           "0x1.ed01c952c6beep-12"),
    1.0: ("0x1.47ae147ae147ap-8", "0x1.0a86ad1b226c8p-11",
          "-0x1.a321406b2b65cp-12"),
    3.7: ("0x1.4a2239ed3fad3p-9", "0x1.ee5f85d682e67p-16",
          "0x1.0ceb9f76ac036p-14"),
    50.0: ("0x1.a3433ff972f15p-13", "0x1.e54784b69c485p-17",
           "0x1.6fda44cb7b1ecp-23"),
    1e3: ("0x1.4f8b4290b7fb3p-17", "0x1.de973b94a3990p-17",
          "0x1.4db8df253d70ap-32"),
}
QUADPACK_PINS = {
    0.05: ("0x1.057d829e119ebp-11", "0x1.fdffdd79e0e09p-12",
           "0x1.ed01c952c6befp-12"),
    1.0: ("0x1.47ae147ae147bp-8", "0x1.0a86ad1b226d3p-11",
          "-0x1.a321406b2b626p-12"),
    3.7: ("0x1.4a2239ed3fad8p-9", "0x1.ee5f85d683164p-16",
          "0x1.0ceb9f76ac01bp-14"),
    50.0: ("0x1.a3433ff972f35p-13", "0x1.e54784b69c994p-17",
           "0x1.6fda44cb8b660p-23"),
    1e3: ("0x1.4f8b4290b8247p-17", "0x1.de973b94a3ea0p-17",
          "0x1.4db8df45c652fp-32"),
}


@pytest.mark.parametrize("t,pieces", [(0.05, 1), (1.0, 1), (3.7, 3),
                                      (50.0, 7), (1e3, 11)])
def test_quadrature_values_pinned_and_calls_per_piece(t, pieces):
    # bit-identical values; the reference is the earlier QUADPACK oracle
    # to the bit, one call per geometric piece at omega = 0, where the sin
    # part is zero, and two elsewhere
    p = fig_params()
    for omega, pinned, reference in zip((0.0, p.omega0, -p.omega0),
                                        QUADRATURE_PINS[t],
                                        QUADPACK_PINS[t]):
        assert rates_quadrature(p, omega, t) == float.fromhex(pinned)
        calls = []
        assert quadpack_reference(p, omega, t, calls) == \
            float.fromhex(reference)
        assert calls == (["cos"] * pieces if omega == 0.0
                         else ["cos", "sin"] * pieces)


@pytest.mark.parametrize("omega,t", [
    *((sign * w, t) for sign in (1.0, -1.0) for w in (0.1, 1.0, 37.5, 1e3)
      for t in (0.3, 7.0, 200.0)),
    (1e-3, 1e9), (1e12, 5.0)])
def test_quadrature_matches_quadpack(omega, t):
    # near pieces only, near pieces and the tail, and the tail alone
    p = fig_params()
    assert abs(rates_quadrature(p, omega, t)
               - quadpack_reference(p, omega, t)) <= 1e-10


@pytest.mark.parametrize("omega,t", [(10.0, 1e300), (1e300, 1.0),
                                     (-1e300, 1.0)])
def test_quadrature_leaks_no_warnings(omega, t):
    # where omega t or the integrand's powers of (1 + it') are extreme,
    # the oracle either gives up or returns the vanishing rate, silently
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            value = rates_quadrature(fig_params(), omega, t)
        except ToleranceError:
            return
    assert math.isfinite(value) and abs(value) <= 1e-10


@pytest.mark.parametrize("alpha", [1e-300, 1e5, 1e200])
def test_quadrature_is_linear_in_alpha(alpha):
    # the rate is alpha times one integral, and its error bound is
    # alpha times 3.1e-14, so no coupling is refused
    p, unit = fig_params(alpha=alpha), fig_params(alpha=1.0)
    for omega in (p.omega0, -p.omega0, 0.0):
        for t in (0.05, 1.0, 5.0, 50.0, 1e3):
            assert rates_quadrature(p, omega, t) == \
                alpha * rates_quadrature(unit, omega, t)


@pytest.mark.parametrize("omega,t,pieces,panels", [
    (1e-300, 1e154, 513, 1), (math.nextafter(64.0, 0.0), 1e150, 2, 11),
    (-math.nextafter(64.0, 0.0), 1e150, 2, 11)])
def test_quadrature_at_the_layout_extremes(omega, t, pieces, panels):
    # the most pieces (t^2 finite), and the most panels in a piece (|omega|
    # just below the tail's 64): finite, and within the proven 3.1e-14
    # alpha of the closed form, or of alpha t/(1 + t^2) as omega -> 0
    w, edges = abs(omega), [0.0]
    while edges[-1] < t and w * max(1.0, edges[-1]) < 64.0:
        edges.append(min(max(1.0, 2.0 * edges[-1]), t))
    width = np.diff(edges)
    assert len(width) == pieces
    assert np.ceil(w / 6.0 * width).max(initial=1.0) == panels
    value = rates_quadrature(fig_params(alpha=1.0), omega, t)
    if panels == 1:
        reference = t / (1.0 + t * t)
    else:
        r = rates_closed_form(SystemParams.from_ratios(0.0, w, 1.0), t)
        reference = r.gamma_plus if omega > 0.0 else r.gamma_minus
    assert math.isfinite(value) and abs(value - reference) <= 3.1e-14


def test_quadrature_negative_time():
    with pytest.raises(DomainError):
        rates_quadrature(fig_params(), 0.0, -1.0)


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_quadrature_non_finite_time(t):
    with pytest.raises(DomainError):
        rates_quadrature(fig_params(), 10.0, t)


def test_quadrature_long_horizon():
    # the geometric pieces keep the tail that one weighted call over
    # [0, t] loses at large t
    cases = [(10.0, 200.0), (10.0, 1e9), (300.0, 200.0)]
    for omega0, t in cases:
        p = fig_params(omega0=omega0)
        r = rates_closed_form(p, t)
        for omega, closed in ((p.omega0, r.gamma_plus),
                              (-p.omega0, r.gamma_minus), (0.0, r.gamma_zero)):
            assert rates_quadrature(p, omega, t) == \
                pytest.approx(closed, rel=1e-8, abs=1e-12)


def test_quadrature_non_finite_result():
    # the rational integrand overflows to inf/inf = nan far beyond 1e154
    with pytest.raises(ToleranceError):
        rates_quadrature(fig_params(), 10.0, 1e300)


@pytest.mark.filterwarnings("ignore:omega0/omega_c")
def test_quadrature_value_past_the_double_range():
    # omega t and t^2 are finite, but alpha times the integral is not
    p = SystemParams(0.0, 1.0, 1.7e308)
    with pytest.raises(ToleranceError, match=re.escape(
            "quadrature value inf is not finite at t=10.0, omega=1.0")):
        rates_quadrature(p, 1.0, 10.0)


def test_quadrature_error_bound_constants():
    # the docstring's truncation bounds, recomputed in exact arithmetic
    # (pi < 355/113); each stated value bounds its constant to 1%
    f = math.factorial
    panel = Fraction(f(16) ** 4, 33 * f(32) ** 3) * sum(
        math.comb(32, j) * 6 ** (32 - j) * f(j + 1) for j in range(33))
    assert math.ceil(Fraction(64, 6)) == 11         # panels in a piece
    near = 11 * 3 * panel                           # sum 1/r <= 3
    tail = Fraction(f(16), 64 ** 16)
    tail_all = Fraction(f(17), 64 ** 16) * Fraction(355, 113) / 2
    doc = rates_quadrature.__doc__
    for exact, stated in ((panel, "9.14e-16/r"), (near, "3.02e-14"),
                          (tail, "2.65e-16"), (tail_all, "7.06e-15")):
        assert stated in doc
        bound = Fraction(stated.removesuffix("/r"))
        assert exact <= bound <= Fraction(101, 100) * exact
    assert "at most 3.1e-14 alpha" in doc
    assert max(near + tail, tail_all) <= Fraction("3.1e-14")
    # grid_rates' far-range series, 20 terms: its remainder at the
    # junction, omega0 t = 64 with t >= 1, and at omega0 >= 128 with t < 1
    assert model._FAR_TERMS == 20
    far = Fraction(f(20), 64 ** 20)
    far_all = Fraction(f(21), 128 ** 20) * Fraction(355, 113) / 2
    doc = model.grid_rates.__doc__
    for exact, stated in ((far, "1.84e-18"), (far_all, "5.76e-23")):
        assert stated in doc
        assert exact <= Fraction(stated) <= Fraction(101, 100) * exact
    assert far < Fraction(model.ORACLE_TOLERANCE)
    assert far_all < Fraction("1e-22")


@pytest.mark.parametrize("omega", [math.nan, math.inf])
def test_quadrature_non_finite_frequency(omega):
    with pytest.raises(DomainError):
        rates_quadrature(fig_params(), omega, 1.0)


# --- the ODE oracle's rates ------------------------------------------------

@pytest.mark.parametrize("omega0", [10.0, 150.0, 300.0])
@pytest.mark.parametrize("h", [1e-3, 0.02, 0.5])
def test_oracle_rates_match_rate_table(omega0, h):
    # every grid row to t = 50, and ode_oracle's one step of h/2, against
    # the closed form, which shares no code with the quadrature; at
    # omega0 300 and h 0.5 a step spans 150 rad, so a rule without enough
    # panels fails here
    for n, step in ((round(50.0 / h), h), (1, 0.5 * h)):
        t = np.arange(n + 1) * step
        for ratio in (0.0, FIG_RATIO, 1.0):
            p = fig_params(ratio, omega0)
            got, table = model.oracle_rates(p, n, step), rate_table(p, t)
            assert got.shape == (n + 1, 3)
            for col, name in enumerate(("gamma1", "gamma2", "gamma3")):
                assert np.abs(got[:, col] - table[name]).max() \
                    <= 1e-15 * p.alpha


@pytest.mark.filterwarnings("ignore:omega0/omega_c")
@pytest.mark.parametrize("omega0,t_max,bound", [(1.0, 10.0, 3e-15),
                                                (5.0, 320.0, 1e-15)])
def test_oracle_rates_cumulative_sum_does_not_drift(omega0, t_max, bound):
    # where gamma1 levels off at a large value, one running sum over every
    # step drifts from the closed form: past 3e-15 alpha by t = 9.9 at
    # omega0 1 and past 1e-15 alpha by t = 316 at omega0 5 (h = 1e-3)
    n, h = round(t_max / 1e-3), 1e-3
    p = fig_params(0.0, omega0)
    got = model.oracle_rates(p, n, h)
    table = rate_table(p, np.arange(n + 1) * h)
    for col, name in enumerate(("gamma1", "gamma2", "gamma3")):
        assert np.abs(got[:, col] - table[name]).max() <= bound * p.alpha


def test_oracle_rates_past_the_budget_are_a_tolerance_error(monkeypatch):
    # at the figure parameters each of 1001 steps takes 4 nodes
    monkeypatch.setattr(model, "ORACLE_BUDGET", 4004)
    model.oracle_rates(fig_params(), 1000, 1e-3)
    monkeypatch.setattr(model, "ORACLE_BUDGET", 4003)
    with pytest.raises(ToleranceError, match="4 nodes on each of 1001 steps"):
        model.oracle_rates(fig_params(), 1000, 1e-3)


@pytest.mark.filterwarnings("ignore:omega0/omega_c")
def test_oracle_rates_sum_a_wide_step_block_by_block(monkeypatch):
    # a step of 100 at omega0 0.5 takes 6,836 panels, more than one block
    # of nodes holds: summed a block at a time, it keeps the bound
    p = fig_params(omega0=0.5)
    got = model.oracle_rates(p, 3, 100.0)
    table = rate_table(p, np.arange(4) * 100.0)
    for col, name in enumerate(("gamma1", "gamma2", "gamma3")):
        assert np.abs(got[:, col] - table[name]).max() <= 1e-16 * p.alpha
    # at omega0 10 a near step of 1 takes 113 panels: blocks of 64 panels
    # and 49 sum what one block of 113 sums, up to the order of the
    # additions (8.1e-18 alpha apart); rows from t = 7 on are far and
    # take no node, and every row is within 1e-16 alpha of the closed form
    p = fig_params(omega0=10.0)
    whole = model.oracle_rates(p, 10, 1.0)
    table = rate_table(p, np.arange(11) * 1.0)
    for col, name in enumerate(("gamma1", "gamma2", "gamma3")):
        assert np.abs(whole[:, col] - table[name]).max() <= 1e-16 * p.alpha
    monkeypatch.setattr(model, "_ORACLE_BLOCK_NODES", 256)
    split = model.oracle_rates(p, 10, 1.0)
    assert not np.array_equal(split[:7], whole[:7])
    assert np.array_equal(split[7:], whole[7:])
    assert np.abs(split - whole).max() <= 1e-17 * p.alpha


def test_gauss4_literals_are_leggauss_to_one_ulp():
    # oracle_rates carries leggauss(4) as literal doubles, so a process
    # that only unravels makes no LAPACK call; numpy versions may round
    # the eigenvalue solve's last bit differently
    for got, ref in zip(model._GAUSS4, np.polynomial.legendre.leggauss(4)):
        assert (np.abs(got - ref) <= np.spacing(np.abs(ref))).all()


@pytest.mark.filterwarnings("ignore:omega0/omega_c")
def test_oracle_rates_non_finite_rate_is_a_domain_error():
    # at omega0 1, gamma_plus / alpha first passes 1.797e308 / 1.7e308 at
    # t = 2.25 (rate_table at alpha 1), so alpha 1.7e308 overflows there
    p = SystemParams.from_ratios(0.0, 1.0, 1.7e308)
    with pytest.raises(DomainError,
                       match=r"^rate gamma_plus is not finite at t=2\.25$"):
        model.oracle_rates(p, 1000, 0.01)


@pytest.mark.parametrize("n,h,message", [
    (100, 0.0, "h must be finite and > 0, got 0.0"),
    (100, -1e-3, "h must be finite and > 0, got -0.001"),
    (100, math.nan, "h must be finite and > 0, got nan"),
    (100, math.inf, "h must be finite and > 0, got inf"),
    (-1, 1e-3, "n must be >= 0, got -1"),
    (-5, 1e-3, "n must be >= 0, got -5"),
    (10.5, 0.1, "n must be an integer, got 10.5")])
def test_grid_rates_check_n_and_h(n, h, message):
    p = fig_params(0.3)
    for rates in (model.grid_rates, model.oracle_rates):
        with pytest.raises(DomainError) as err:
            rates(p, n, h)
        assert str(err.value) == message


# --- 40-digit rate references ----------------------------------------------

RATES_REFERENCE = pathlib.Path(__file__).parent / "fixtures" / \
    "rates_reference.json"
BARE = ("gamma_plus", "gamma_minus", "gamma_zero")

#: bound on each code's absolute error per alpha against the references,
#: per omega0/omega_c band, as (rate_table, rates_quadrature, oracle_rates
#: on gamma_plus and gamma_minus); each at most twice the worst measured
#: in its band, which was (2.9e-14, 3.3e-16, 8.9e-16), (1.2e-15, 7.6e-16,
#: 2.8e-16) and (6.1e-16, 1.7e-16, 2.3e-17)
REFERENCE_BOUNDS = {(0.5, 1.0, 2.0): (4e-14, 5e-16, 1.5e-15),
                    (5.0, 10.0, 30.0): (2e-15, 1.5e-15, 5e-16),
                    (150.0, 300.0): (1e-15, 3e-16, 4e-17)}


@pytest.fixture(scope="module")
def rates_reference():
    points = json.loads(RATES_REFERENCE.read_text())["points"]
    by_omega0 = {}
    for pt in points:
        by_omega0.setdefault(pt["omega0"], []).append(pt)
    return {y: (np.array([pt["k"] for pt in pts]),
                {name: np.array([pt[name] for pt in pts]) for name in BARE})
            for y, pts in by_omega0.items()}


def test_rates_reference_covers_its_domain(rates_reference):
    # exact grid times k * 1e-3 over (0, 500] at every omega0 of the bands
    assert RATES_REFERENCE.stat().st_size < 100_000
    assert sorted(rates_reference) == sorted(
        y for band in REFERENCE_BOUNDS for y in band)
    points = json.loads(RATES_REFERENCE.read_text())["points"]
    assert 280 <= len(points) <= 320
    grid = np.arange(500_001) * 1e-3
    assert all(pt["t"] == grid[pt["k"]] for pt in points)
    for k, _ in rates_reference.values():
        assert k.min() == 1 and k.max() == 500_000
    # rates_quadrature's bounds sit under its proven truncation bound
    assert all(b[1] < 3.1e-14 for b in REFERENCE_BOUNDS.values())


@pytest.mark.filterwarnings("ignore:omega0/omega_c")
@pytest.mark.parametrize("omega0", [y for band in REFERENCE_BOUNDS
                                    for y in band])
def test_rate_codes_against_40_digit_references(rates_reference, omega0):
    # at alpha 1 and epsilon 0: oracle_rates' channels 1 and 2 weigh the
    # bare rates by exactly 1/4, and its gamma_zero is graded below
    bounds = next(b for band, b in REFERENCE_BOUNDS.items() if omega0 in band)
    k, ref = rates_reference[omega0]
    t, p = k * 1e-3, SystemParams.from_ratios(0.0, omega0, 1.0)
    table = rate_table(p, t)
    quadrature = {name: [rates_quadrature(p, omega, x) for x in t.tolist()]
                  for name, omega in zip(BARE, (omega0, -omega0, 0.0))}
    oracle = model.oracle_rates(p, int(k.max()), 1e-3)[k]
    for name in BARE:
        assert np.abs(table[name] - ref[name]).max() <= bounds[0]
        assert np.abs(quadrature[name] - ref[name]).max() <= bounds[1]
    for col, name in enumerate(BARE[:2]):
        assert np.abs(4.0 * oracle[:, col] - ref[name]).max() <= bounds[2]
    # the rates command's bare rates: no worse than rate_table's in any
    # column, and within 2e-15 alpha
    bare = model.grid_rates(p, int(k.max()), 1e-3)[k]
    worst = max(np.abs(bare[:, col] - ref[name]).max()
                for col, name in enumerate(BARE))
    assert worst <= min(2e-15, max(np.abs(table[name] - ref[name]).max()
                                   for name in BARE))


@pytest.mark.filterwarnings("ignore:omega0/omega_c")
@pytest.mark.parametrize("omega0", [y for band in REFERENCE_BOUNDS
                                    for y in band if y < 128.0])
def test_grid_rates_on_both_sides_of_the_junction(rates_reference, omega0):
    # the fixture holds the last near row and the first far row; the near
    # prefix is sized on its own length, so a grid that ends at the first
    # far row gives the same near rows as the fixture's 500,000 steps
    bound = next(b for band, b in REFERENCE_BOUNDS.items()
                 if omega0 in band)[2]
    k, ref = rates_reference[omega0]
    first = model._near_rows(omega0, 500_000, 1e-3)    # the first far row
    assert first == model._near_rows(omega0, first, 1e-3)
    t_near, t_far = (first - 1) * 1e-3, first * 1e-3
    assert omega0 * t_near < 64.0 <= omega0 * t_far and t_far >= 1.0
    p = SystemParams.from_ratios(0.0, omega0, 1.0)
    got = model.grid_rates(p, first, 1e-3)
    assert np.array_equal(got,
                          model.grid_rates(p, 500_000, 1e-3)[:first + 1])
    for row in (first - 1, first):
        i = int(np.flatnonzero(k == row)[0])
        for col, name in enumerate(BARE[:2]):
            assert abs(got[row, col] - ref[name][i]) <= bound
        assert abs(got[row, 2] - ref["gamma_zero"][i]) <= 8e-16


@pytest.mark.parametrize("omega0", [1e-4, 0.5, 10.0, 30.0, 64.0, 100.0,
                                    math.nextafter(128.0, 0.0), 128.0, 300.0])
@pytest.mark.parametrize("n,h", [(1, 1e-3), (500, 0.1), (7, 1.0), (3, 50.0),
                                 (2, 1e308), (1000, 1e-300)])
def test_near_rows_are_the_rows_before_the_first_far_row(omega0, n, h):
    with np.errstate(over="ignore"):        # omega0 t = inf is far
        t = np.arange(n + 1) * h
        far = (t > 0.0) if omega0 >= 128.0 else \
            (t >= 1.0) & (omega0 * t >= 64.0)
    assert model._near_rows(omega0, n, h) == (np.argmax(far) if far.any()
                                              else n + 1)


@pytest.mark.parametrize("ratio,omega0,h", [(FIG_RATIO, 10.0, 1e-3),
                                            (0.0, 30.0, 0.01),
                                            (1.0, 300.0, 0.5)])
def test_oracle_rates_weight_the_bare_grid_rates(ratio, omega0, h):
    # bit for bit as channel_rates weights them, near and far rows alike
    p = fig_params(ratio, omega0)
    bare = model.grid_rates(p, 1000, h)
    table = model.channel_rates(p, dict(zip(BARE, bare.T)))
    got = model.oracle_rates(p, 1000, h)
    for col, name in enumerate(("gamma1", "gamma2", "gamma3")):
        assert np.array_equal(got[:, col], table[name])


def test_oracle_rates_gamma_zero_against_40_digit_references(rates_reference):
    # the gamma_zero integrand does not involve omega0; its channel weight
    # epsilon^2/(4 omega0^2) is divided out, which rounds by an ulp
    k, ref = rates_reference[10.0]
    p = SystemParams.from_ratios(1.0, 10.0, 1.0)
    got = model.oracle_rates(p, int(k.max()), 1e-3)[k, 2]
    worst = np.abs(got / model._channel_weights(p)[2] - ref["gamma_zero"]).max()
    assert worst <= 8e-16          # measured 4.4e-16


@pytest.mark.filterwarnings("ignore:omega0/omega_c")
def test_rate_table_gamma2_error_at_omega0_2_pinned(rates_reference):
    # the Lorentzian term and alpha y e^y Im E1(y - ix) cancel: rate_table's
    # gamma2 is 7.4e-15 off at t = 2.122 (gamma_minus 2.9e-14), where
    # rates_quadrature and oracle_rates are within 2e-16
    k, ref = rates_reference[2.0]
    i = int(np.flatnonzero(k == 2122)[0])
    p = SystemParams.from_ratios(0.0, 2.0, 1.0)
    got = rate_table(p, np.array([2.122]))["gamma2"][0]
    assert got - 0.25 * ref["gamma_minus"][i] == pytest.approx(-7.35e-15,
                                                               rel=0.02)


# --- sign changes --------------------------------------------------------

def test_sign_changes_channel3_empty():
    assert sign_changes(fig_params(), 3, 5.0) == []


def test_sign_changes_channel_validation():
    with pytest.raises(DomainError):
        sign_changes(fig_params(), 4, 1.0)


def test_sign_changes_channel_must_be_an_integer():
    with pytest.raises(DomainError, match="^channel must be an integer, "
                       "got 1.0$"):
        sign_changes(fig_params(), 1.0, 5.0)
    assert sign_changes(fig_params(), np.int64(1), 1.6) == \
        sign_changes(fig_params(), 1, 1.6)


@pytest.mark.parametrize("t_max", [math.nan, math.inf, -math.inf])
def test_sign_changes_non_finite_horizon(t_max):
    with pytest.raises(DomainError):
        sign_changes(fig_params(), 1, t_max)


@pytest.mark.parametrize("t_max", [1e9, 1e300])
def test_sign_changes_grid_cap(t_max):
    # rejected before the bracketing grid is allocated (1e9 would need
    # 1e11 points, 745 GiB)
    with pytest.raises(GridError, match="cap"):
        sign_changes(fig_params(), 1, t_max)


def test_channel1_crossings_regression():
    # bisection fixture: first four zero crossings of gamma1 at
    # omega0/omega_c = 10, alpha = 0.01, epsilon/delta = 1/(2 sqrt 3)
    expected = [0.4034290686, 0.7703651519, 1.1262176152, 1.4567841897]
    got = sign_changes(fig_params(), 1, 1.6)
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert g == pytest.approx(e, abs=2e-8)


def test_channels_1_and_2_go_negative():
    p = fig_params()
    assert sign_changes(p, 1, 2.0)
    assert sign_changes(p, 2, 2.0)
    t = np.linspace(0.0, 2.0, 2001)
    r = rate_table(p, t)
    assert r["gamma1"].min() < 0.0
    assert r["gamma2"].min() < 0.0


def test_crossings_of_bare_rate_independent_of_ratio():
    lists = [sign_changes(fig_params(ratio=r), 1, 1.6)
             for r in (0.0, 0.1, 0.3)]
    assert lists[0] == lists[1] == lists[2]


def test_sign_changes_figure_crossings_pinned():
    # channels 1 and 2 at the figure parameters on (0, 50], recorded from
    # the bisection on whole rate tables; evaluating the bare column alone
    # must not move them
    path = pathlib.Path(__file__).parent / "fixtures" / \
        "sign_changes_figure_t50.json"
    expected = json.loads(path.read_text())
    for channel in (1, 2):
        assert sign_changes(fig_params(), channel, 50.0) == \
            expected[f"gamma{channel}"]


@pytest.mark.filterwarnings("ignore:omega0/omega_c")
@pytest.mark.parametrize("omega0", [0.5, 2.0, 10.0, 150.0, 300.0])
def test_sign_changes_keep_their_crossings_at_tiny_alpha(omega0):
    # a rate scales with alpha, so its crossings do not move; the product
    # of two tiny rates underflows to 0, so the brackets compare signs
    for ratio in (0.0, 0.3, 1.0):
        for channel in (1, 2, 3):
            expected = sign_changes(fig_params(ratio, omega0, 0.3), channel,
                                    10.0)
            for alpha in (1e-100, 1e-160, 1e-200, 1e-300):
                assert sign_changes(fig_params(ratio, omega0, alpha),
                                    channel, 10.0) == expected


def test_sign_changes_of_a_zero_rate_are_empty():
    # alpha = 0 makes every rate 0 at every time, and epsilon = 0 gives
    # channel 3 a zero weight: no zero point of such a rate is a crossing
    for channel in (1, 2, 3):
        assert sign_changes(fig_params(ratio=0.3, alpha=0.0), channel,
                            5.0) == []
    assert sign_changes(fig_params(ratio=0.0), 3, 50.0) == []


@pytest.mark.parametrize("channel, e1_per_time", [(1, 1), (2, 1), (3, 0)])
def test_sign_changes_evaluates_only_its_bare_rate(monkeypatch, channel,
                                                   e1_per_time):
    e1, bare = model.expint_e1, model._bare_rate
    e1_points, times = [], []

    def counting_e1(z):
        e1_points.append(np.size(z))
        return e1(z)

    def counting_bare(p, tgrid, name):
        times.append(len(tgrid))
        return bare(p, tgrid, name)

    def no_table(p, tgrid):
        raise AssertionError("sign_changes built a whole rate table")

    monkeypatch.setattr(model, "expint_e1", counting_e1)
    monkeypatch.setattr(model, "_bare_rate", counting_bare)
    monkeypatch.setattr(model, "rate_table", no_table)
    sign_changes(fig_params(), channel, 5.0)
    assert sum(times) >= 499
    assert sum(e1_points) == e1_per_time * sum(times)


def test_sign_changes_bisects_a_fixed_number_of_times(monkeypatch):
    # gamma1 crosses zero at 0.40342906 and 0.77036515 (fig_params):
    # t_max = 0.7705 clamps the second bracket to [0.77, 0.7705], a
    # twentieth of a step.  One bracketing evaluation, then 20 halvings of
    # both brackets, enough for one of the full step 0.01 to fall below
    # 1e-8, which leave the narrow one 2^-20 of its width
    from scipy.optimize import brentq
    bare, calls = model._bare_rate, []

    def counting_bare(p, tgrid, name):
        calls.append(len(tgrid))
        return bare(p, tgrid, name)

    monkeypatch.setattr(model, "_bare_rate", counting_bare)
    p, lo, t_max = fig_params(), 77 * 0.01, 0.7705
    got = sign_changes(p, 1, t_max)
    assert len(got) == 2 and calls[1:] == [2] * 20
    assert math.ceil(math.log2(0.01 / 1e-8)) == 20
    root = brentq(lambda t: rates_closed_form(p, t).gamma_plus, lo, t_max,
                  xtol=1e-15)
    assert got[-1] == pytest.approx(root, abs=1e-8)
    assert abs(got[-1] - root) <= (t_max - lo) * 2.0 ** -21 + 1e-15


@pytest.mark.parametrize("t_max", [0.03, math.nextafter(0.03, 1.0), 0.025,
                                   0.7705, 5.0, math.nextafter(5.0, 1.0)])
def test_sign_changes_brackets_up_to_t_max(monkeypatch, t_max):
    # the bracketing grid is step, 2 step, ... below t_max, then t_max
    # itself; one ulp above 0.03, 3 * 0.01 rounds to 0.03 < t_max, and
    # (0.03, t_max] must still be bracketed
    bare, grids = model._bare_rate, []

    def recording_bare(p, tgrid, name):
        grids.append(np.array(tgrid))
        return bare(p, tgrid, name)

    monkeypatch.setattr(model, "_bare_rate", recording_bare)
    sign_changes(fig_params(), 1, t_max)
    t = grids[0]
    assert t[-1] == t_max and (t[:-1] < t_max).all()
    assert t[:-1].tolist() == [k * 0.01 for k in range(1, len(t))]


# --- shared grid helper --------------------------------------------------

def test_uniform_grid():
    g = uniform_grid(1.0, 0.25)
    assert np.allclose(g, [0.0, 0.25, 0.5, 0.75, 1.0])
    with pytest.raises(GridError):
        uniform_grid(1.0, 0.3)
    with pytest.raises(GridError):
        uniform_grid(-1.0, 0.1)
    for t_max, h in ((math.nan, 0.1), (math.inf, 0.1), (1.0, math.nan),
                     (1e300, 1e-3), (50.0, 1e-300)):
        with pytest.raises(GridError):
            uniform_grid(t_max, h)
    with pytest.raises(GridError, match="cap"):
        uniform_grid(float(model.MAX_GRID_POINTS), 1.0)
    # below t_max = 1 the tolerance is relative: an absolute 1e-9 would
    # take these steps, which miss t_max by a third of a step or more
    for t_max, h in ((2e-9, 1.5e-9), (1e-9, 6e-10), (1e-9, 4e-10),
                     (1e-12, 3e-13)):
        with pytest.raises(GridError, match="does not divide"):
            uniform_grid(t_max, h)
    for t_max, h, n in ((1e-9, 2.5e-10, 4), (3e-12, 1e-12, 3),
                        (0.3, 0.1, 3), (5.0, 1e-3, 5000)):
        assert len(uniform_grid(t_max, h)) == n + 1
