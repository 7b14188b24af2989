"""Dynamics tests: kernels, analytic map, ODE oracle, recoherence, BLP."""

import functools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinboson import (DensityMatrix, DomainError, GridError, StepError,
                       SystemParams, apply_map_series, blp_measure, blp_sweep,
                       build_kernels, ode_oracle, pair_directions, rate_table,
                       recoherence_mask, uniform_grid)
import spinboson.dynamics as dynamics
import spinboson.model as model
from spinboson.cli import BLP_RATIOS

FIG_RATIO = 1.0 / (2.0 * math.sqrt(3.0))
REVIVAL_RATIO = 1.0 / (2.0 * math.sqrt(7.0))


def fig_params(ratio: float = FIG_RATIO, omega0: float = 10.0,
               alpha: float = 0.01) -> SystemParams:
    return SystemParams.from_ratios(ratio, omega0, alpha)


def markov_params(ratio: float = FIG_RATIO) -> SystemParams:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return SystemParams.from_ratios(ratio, 0.5, 0.01)


def plus_minus_super() -> DensityMatrix:
    return DensityMatrix(rho_pp=0.5, rho_mm=0.5, rho_pm=0.5)


# --- DensityMatrix -------------------------------------------------------

def test_density_matrix_validation():
    with pytest.raises(DomainError):
        DensityMatrix(rho_pp=0.6, rho_mm=0.6, rho_pm=0.0)
    with pytest.raises(DomainError):
        DensityMatrix(rho_pp=1.2, rho_mm=-0.2, rho_pm=0.0)
    rho = DensityMatrix(rho_pp=0.25, rho_mm=0.75, rho_pm=0.1j)
    assert (rho.rho_pp, rho.rho_mm, rho.rho_pm) == (0.25, 0.75, 0.1j)


def test_density_matrix_rejects_non_positive_and_nan():
    # unit trace, populations in [0, 1], but |rho_pm|^2 > rho_pp rho_mm
    with pytest.raises(DomainError, match="not positive: det = -99.75$"):
        DensityMatrix(rho_pp=0.5, rho_mm=0.5, rho_pm=10.0)
    with pytest.raises(DomainError, match="not positive: det = nan$"):
        DensityMatrix(rho_pp=0.5, rho_mm=0.5, rho_pm=complex(0.0, math.nan))
    # the boundary: pure states and det within 1e-10 of zero pass
    DensityMatrix(rho_pp=0.5, rho_mm=0.5, rho_pm=0.5j)
    DensityMatrix(rho_pp=1.0 + 5e-11, rho_mm=-5e-11, rho_pm=0.0)


@settings(max_examples=300, deadline=None)
@given(pp=st.floats(0.0, 1.0), phase=st.floats(0.0, 2.0 * math.pi),
       ulps=st.integers(-40, 40), trace_off=st.sampled_from(
           [0.0, 1e-12, -1e-12, 1.5e-12, math.nan]))
# the scalar det once rounded as C pow squares |rho_pm|, the bulk one as
# numpy's x * x: -1.000017846308765e-10 against -1.0000175687530088e-10
@example(pp=0.28464290820045096, phase=0.0, ulps=35, trace_off=0.0)
def test_bulk_state_check_decides_as_the_constructor(pp, phase, ulps,
                                                     trace_off):
    # states whose determinant lies within a few ulps of -1e-10, or whose
    # trace sits at its 1e-12 bound: _check_states and _states raise
    # exactly when DensityMatrix does, with its message, and _states
    # builds the state DensityMatrix builds
    mm = 1.0 - pp + trace_off
    mag = math.sqrt(max(pp * mm + 1e-10, 0.0)) if math.isfinite(mm) else 0.5
    mag += ulps * math.ulp(mag)
    pm = complex(mag * math.cos(phase), mag * math.sin(phase))
    try:
        DensityMatrix(pp, mm, pm)
        expected = None
    except DomainError as exc:
        expected = str(exc)
    ok = DensityMatrix(0.5, 0.5, 0.5)
    arrays = [np.array([ok.rho_pp, pp]), np.array([ok.rho_mm, mm]),
              np.array([ok.rho_pm, pm])]
    if expected is None:
        dynamics._check_states(*arrays)
        assert dynamics._states(*arrays) == [ok, DensityMatrix(pp, mm, pm)]
    else:
        for check in (dynamics._check_states, dynamics._states):
            with pytest.raises(DomainError) as err:
                check(*arrays)
            assert str(err.value) == expected


def test_state_check_at_its_bounds():
    # the trace bound: the largest trace within 1e-12 of 1 on either side
    # passes, and the next double out fails
    for way in (1.0, -1.0):
        t = 1.0 + way * 1e-12
        while abs(t - 1.0) > 1e-12:
            t = math.nextafter(t, 1.0)
        while abs(math.nextafter(t, way * math.inf) - 1.0) <= 1e-12:
            t = math.nextafter(t, way * math.inf)
        DensityMatrix(t, 0.0, 0.0)
        out = math.nextafter(t, way * math.inf)
        with pytest.raises(DomainError, match=f"= {out!r}$"):
            DensityMatrix(out, 0.0, 0.0)
    # the det bound: rho_pp rho_mm is exactly -1e-10, then one ulp below
    mm = 1.0 + 1e-10
    pp = -1e-10 / mm
    while pp * mm != -1e-10:
        pp = math.nextafter(pp, 0.0 if pp * mm < -1e-10 else -1.0)
    DensityMatrix(pp, mm, 0.0)
    below = math.nextafter(pp, -1.0)
    assert below * mm < -1e-10
    with pytest.raises(DomainError, match="not positive: det = -1.0000"):
        DensityMatrix(below, mm, 0.0)
    with pytest.raises(DomainError, match="not positive: det = nan$"):
        dynamics._check_states(0.5, 0.5, complex(math.nan, 0.0))


def test_state_check_names_the_first_failing_state():
    # rows 0 and 3 pass; row 1 fails on det, row 2 on the trace and row 4
    # on both: the error is row 1's, and each row alone raises as the
    # constructor does, the trace message first
    pp = np.array([0.5, 0.5, 0.7, 1.0, 0.9])
    mm = np.array([0.5, 0.5, 0.7, 0.0, 0.9])
    pm = np.array([0.5, 0.6j, 0.0, 0.0, 2.0])
    with pytest.raises(DomainError) as err:
        dynamics._check_states(pp, mm, pm)
    assert str(err.value) == "state not positive: det = " \
        f"{0.25 - abs(0.6j) ** 2!r}"
    for k in (1, 2, 4):
        with pytest.raises(DomainError) as one:
            dynamics._check_states(pp[k:], mm[k:], pm[k:])
        with pytest.raises(DomainError) as made:
            DensityMatrix(float(pp[k]), float(mm[k]), complex(pm[k]))
        assert str(one.value) == str(made.value)
    assert str(made.value).startswith("trace must be 1: ")
    dynamics._check_states(pp[[0, 3]], mm[[0, 3]], pm[[0, 3]])


# --- kernels and the analytic map ----------------------------------------

def test_kernel_initial_values_and_identity():
    k = build_kernels(fig_params(), 5.0, 1e-3)
    assert k.eta[0] == 0.0 and k.zeta[0] == 0.0 and k.f[0] == 0.0
    assert k.g[0] == 1.0
    assert np.max(np.abs(k.g - (k.f + np.exp(-k.eta)))) <= 1e-12


# every short length: the opening, closing and last pieces are strided
# slices whose ends shift with the parity of n
@pytest.mark.parametrize("n", [*range(2, 41), 1234, 1235, 50_001])
@pytest.mark.parametrize("kind", ["random", "negative_zero", "signed_zeros"])
def test_cumulative_simpson_matches_scipy_bit_for_bit(n, kind):
    from scipy.integrate import cumulative_simpson
    rng = np.random.default_rng(n)
    y = {"random": rng.standard_normal(n),
         "negative_zero": np.full(n, -0.0),
         "signed_zeros": np.resize([0.0, -0.0], n)}[kind]
    for x in (np.arange(n) * 1e-3, np.cumsum(rng.uniform(0.5, 2.0, n))):
        got = dynamics._cumulative_simpson(y, x)
        want = cumulative_simpson(y, x=x, initial=0.0)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_build_kernels_holds_at_most_16_arrays():
    # at the default 50,001 points: the grid, the six rate columns and the
    # five kernel arrays, with _cumulative_simpson's half-grid temporaries
    # and one CP margin at a time (168 B a point when every triple was
    # evaluated and the three margins stacked)
    p = fig_params()
    build_kernels(p, 50.0, 1e-3)                       # warm-up
    tracemalloc.start()
    try:
        build_kernels(p, 50.0, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 50_001 <= 16 * 8


def test_build_kernels_grid_error():
    with pytest.raises(GridError):
        build_kernels(fig_params(), 1.0, 0.3)


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("ratio,omega0,alpha", [
    (FIG_RATIO, 10.0, 0.01), (0.3, 10.0, 0.05), (0.0, 2.0, 0.5)])
def test_build_kernels_is_fourth_order_in_h(ratio, omega0, alpha):
    # eta, zeta, f and g against a fine-step table to t = 10; at h = 1e-3
    # the errors (~6e-15) reach rounding, so the fit uses coarser steps
    p = SystemParams.from_ratios(ratio, omega0, alpha)
    h_ref, steps = 1.25e-4, (8e-3, 4e-3, 2e-3)

    def kernels(h):
        k = build_kernels(p, 10.0, h)
        return np.stack([k.eta, k.zeta, k.f, k.g])

    ref = kernels(h_ref)
    errors = [np.abs(kernels(h) - ref[:, ::round(h / h_ref)]).max()
              for h in steps]
    order = np.polyfit(np.log(steps), np.log(errors), 1)[0]
    assert 3.8 <= order <= 4.2


def test_map_identity_at_zero():
    k = build_kernels(fig_params(), 1.0, 1e-3)
    rho0 = DensityMatrix(rho_pp=0.3, rho_mm=0.7, rho_pm=0.2 - 0.1j)
    rho_pp, rho_pm = apply_map_series(k, rho0)
    assert rho_pp[0] == rho0.rho_pp
    assert rho_pm[0] == rho0.rho_pm


def test_map_trace_exact_and_positive():
    k = build_kernels(fig_params(), 5.0, 1e-3)
    rho0 = DensityMatrix(rho_pp=0.9, rho_mm=0.1, rho_pm=0.25 + 0.1j)
    rho_pp, rho_pm = apply_map_series(k, rho0)
    for i in (500, 2000, 5000):
        out = DensityMatrix(rho_pp[i], 1.0 - rho_pp[i], rho_pm[i])
        assert out.rho_pp + out.rho_mm == 1.0
        assert out.rho_pp * out.rho_mm - abs(out.rho_pm) ** 2 >= -1e-10


def test_map_names_first_non_positive_time():
    # outside weak coupling at zero bias f turns negative: |psi_-> would
    # map to a negative population, so the map is not completely positive
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p = SystemParams.from_ratios(0.0, 0.5, 3.0)
    with pytest.raises(StepError) as err:
        build_kernels(p, 10.0, 1e-3)
    assert str(err.value) == \
        "map not completely positive at t=4.526: f >= 0 fails " \
        "(margin -1.765e-05)"
    # f from its own formula: the first row below -1e-10 is t = 4.526
    grid = np.arange(10_001) * 1e-3
    r = rate_table(p, grid)
    eta = dynamics._cumulative_simpson(r["gamma1"] + r["gamma2"], grid)
    f = np.exp(-eta) * dynamics._cumulative_simpson(
        r["gamma2"] * np.exp(eta), grid)
    i = int(np.argmax(f < -1e-10))
    assert grid[i] == 4.526 and f[i - 1] >= -1e-10
    # the grid up to the row before that time passes every condition
    k = build_kernels(p, 4.525, 1e-3)
    assert 0.0 <= k.f[-1] < 1e-4


def test_long_time_cp_failure_does_not_depend_on_h():
    # the negative algebraic tail of gamma2 drives f to -9.7e-9 near
    # t = 715: a loss of positivity of the second-order map itself, so the
    # first failing time moves by at most a grid step when h is halved
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p = SystemParams.from_ratios(FIG_RATIO, 2.0, 0.1)
    with pytest.raises(StepError) as coarse:
        build_kernels(p, 650.0, 0.01)
    assert str(coarse.value) == "map not completely positive at " \
        "t=598.35: f >= 0 fails (margin -1.604e-10)"
    with pytest.raises(StepError) as fine:
        build_kernels(p, 650.0, 0.005)
    m = re.fullmatch(r"map not completely positive at t=([\d.]+): "
                     r"f >= 0 fails \(margin (-[\d.]+e-10)\)", str(fine.value))
    assert m and abs(float(m[1]) - 598.35) <= 0.005
    assert -1e-9 < float(m[2]) < -1e-10


def test_map_rejects_nan_kernels(monkeypatch):
    # a NaN rate past rate_table's own finiteness check fails the CP check
    # at its grid time
    def table_with_nan(p, grid):
        table = rate_table(p, grid)
        table["gamma2"][3] = math.nan
        return table
    monkeypatch.setattr(dynamics, "rate_table", table_with_nan)
    with pytest.raises(StepError, match=r"^map not completely positive at "
                       r"t=0\.003: f >= 0 fails \(margin nan\)$"):
        build_kernels(fig_params(), 0.01, 1e-3)


def _five_condition_verdict(grid, r):
    """The CP check with all five of Choi's conditions 0 <= f <= 1,
    0 <= g <= 1 and e^{-2 zeta} <= g (1 - f): None, or the first failing
    time and the first condition failing there."""
    eta = dynamics._cumulative_simpson(r["gamma1"] + r["gamma2"], grid)
    zeta = dynamics._cumulative_simpson(dynamics._zeta_rate(r), grid)
    f = np.exp(-eta) * dynamics._cumulative_simpson(
        r["gamma2"] * np.exp(eta), grid)
    g = f + np.exp(-eta)
    margins = {"f >= 0": f, "f <= 1": 1.0 - f, "g >= 0": g, "g <= 1": 1.0 - g,
               "exp(-2 zeta) <= g (1 - f)": g * (1.0 - f) - np.exp(-2.0 * zeta)}
    ok = np.array(list(margins.values())) >= -1e-10
    if ok.all():
        return None
    i = int(np.argmin(ok.all(axis=0)))
    return float(grid[i]), list(margins)[np.argmin(ok[:, i])]


def _kernels_verdict(grid, r):
    try:
        dynamics._kernels(grid, r)
    except StepError as err:
        m = re.fullmatch(r"map not completely positive at t=(\S+): (.+) "
                         r"fails \(margin \S+\)", str(err))
        return float(m[1]), m[2]
    return None


def _f_passes_one_table():
    # an upward rate of 200 on steps of 0.01 is beyond Simpson's rule: its
    # integral of gamma2 e^{eta} overshoots, and f passes 1 at t = 0.02,
    # where g = f + e^{-eta} fails with it
    grid = np.arange(101) * 0.01
    return grid, {"gamma1": np.zeros(101), "gamma2": np.full(101, 200.0),
                  "gamma3": np.zeros(101)}


def test_three_cp_conditions_decide_as_five():
    # f >= 0 implies g >= 0 and g <= 1 implies f <= 1, as g >= f: pass or
    # fail and the first failing time are the five conditions', and so is
    # the condition, but for f <= 1, which g <= 1 now reports
    grid = np.arange(10_001) * 1e-3
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cases = [(k.grid, rate_table(SystemParams.from_ratios(*args), k.grid))
                 for k, args in zip(cp_tables(), CP_TABLE_ARGS)]
        cases += [(grid, rate_table(SystemParams.from_ratios(0.0, 0.5, a),
                                    grid)) for a in (3.0, 1.5)]
    cases.append(_f_passes_one_table())
    verdicts = [_five_condition_verdict(*case) for case in cases]
    assert verdicts[:5] == [None] * 5
    assert verdicts[5:] == [(4.526, "f >= 0"), (6.252, "f >= 0"),
                            (0.02, "f <= 1")]
    renamed = [v and (v[0], v[1].replace("f <= 1", "g <= 1"))
               for v in verdicts]
    assert [_kernels_verdict(*case) for case in cases] == renamed


def test_kernel_table_is_read_only():
    k = build_kernels(fig_params(), 0.1, 1e-3)
    for a in (k.grid, k.eta, k.zeta, k.f, k.g):
        with pytest.raises(ValueError, match="read-only"):
            a[1] = 0.5


#: (epsilon/delta, omega0/omega_c, alpha) of cp_tables
CP_TABLE_ARGS = ((FIG_RATIO, 10.0, 0.01), (0.0, 0.5, 1.0), (0.3, 2.0, 0.5),
                 (1.0, 150.0, 0.1), (0.1, 10.0, 1.0))


@functools.cache
def cp_tables():
    """Kernel tables that pass the CP check, weak to moderate coupling."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return [build_kernels(SystemParams.from_ratios(*args), 10.0, 0.01)
                for args in CP_TABLE_ARGS]


@settings(max_examples=200, deadline=None)
@given(table=st.integers(0, 4), r=st.floats(0.0, 1.0),
       theta=st.floats(0.0, math.pi), phi=st.floats(0.0, 2.0 * math.pi))
def test_cp_table_maps_states_to_states(table, r, theta, phi):
    # the Bloch vector r (sin theta cos phi, sin theta sin phi, cos theta)
    x, y = r * math.sin(theta) * np.array([math.cos(phi), math.sin(phi)])
    z = r * math.cos(theta)
    rho0 = DensityMatrix(rho_pp=(1.0 + z) / 2.0, rho_mm=(1.0 - z) / 2.0,
                         rho_pm=complex(x, -y) / 2.0)
    rho_pp, rho_pm = apply_map_series(cp_tables()[table], rho0)
    det = rho_pp * (1.0 - rho_pp) - np.abs(rho_pm) ** 2
    assert det.min() >= -1e-10


def test_zero_bias_halves_zeta():
    p = SystemParams(epsilon=0.0, delta=10.0, alpha=0.01)
    k = build_kernels(p, 3.0, 1e-3)
    assert np.max(np.abs(k.zeta - 0.5 * k.eta)) <= 1e-12


def test_standard_state_coherence_is_half_exp_zeta():
    p = fig_params()
    k = build_kernels(p, 3.0, 1e-3)
    _, rho_pm = apply_map_series(k, plus_minus_super())
    assert np.max(np.abs(rho_pm - 0.5 * np.exp(-k.zeta))) <= 1e-14


def test_lower_eigenstate_population_follows_f():
    k = build_kernels(fig_params(), 3.0, 1e-3)
    ground = DensityMatrix(rho_pp=0.0, rho_mm=1.0, rho_pm=0.0)
    rho_pp, _ = apply_map_series(k, ground)
    assert np.max(np.abs(rho_pp - k.f)) == 0.0


def test_map_vs_ode_oracle_standing():
    p = fig_params()
    h = 1e-3
    k = build_kernels(p, 2.0, h)
    traj = ode_oracle(p, plus_minus_super(), 2.0, h)
    rho_pp, rho_pm = apply_map_series(k, plus_minus_super())
    worst = 0.0
    for i in range(0, len(traj), 100):
        o = traj[i]
        worst = max(worst, abs(rho_pp[i] - o.rho_pp),
                    abs((1.0 - rho_pp[i]) - o.rho_mm), abs(rho_pm[i] - o.rho_pm))
    assert worst <= 1e-6


def test_ode_oracle_constant_without_coupling():
    p = SystemParams(epsilon=1.0, delta=10.0, alpha=0.0)
    rho0 = DensityMatrix(rho_pp=0.3, rho_mm=0.7, rho_pm=0.2j)
    traj = ode_oracle(p, rho0, 1.0, 1e-3)
    assert traj[-1].rho_pp == rho0.rho_pp
    assert traj[-1].rho_pm == rho0.rho_pm


def test_ode_oracle_names_first_trace_drift(monkeypatch):
    # a dephasing channel that also drains rho_pp without refilling rho_mm:
    # d(tr)/dt = -s gamma3 rho_pp, so |tr - 1| = rho_pp(0) (1 - e^{-s Gamma})
    # with Gamma = wz alpha ln(1 + t^2) / 2 in closed form (omega_c = 1).
    # The check is DensityMatrix's 1e-12: s = 1 passes it at the first step
    # and s = 1e-4 at a later one, with a drift far below 1e-8
    p = fig_params(ratio=1.0)
    h = 1e-3
    t = np.arange(101) * h
    wz = p.epsilon ** 2 / (4.0 * p.omega0 ** 2)
    for s, first in ((1.0, 1), (1e-4, 6)):
        leak = np.zeros((3, 4, 4))
        leak[2, 0, 0] = -s
        monkeypatch.setattr(dynamics, "_CHANNEL_SUPEROPS", leak)
        drift = 0.5 * -np.expm1(-0.5 * s * wz * p.alpha * np.log1p(t * t))
        k = int(np.argmax(drift > 1e-12))
        assert k == first
        assert drift[k - 1] < 0.9e-12 and drift[k] > 1.1e-12  # not borderline
        with pytest.raises(StepError, match=rf"at t={t[k]}$"):
            ode_oracle(p, plus_minus_super(), 0.1, h)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_ode_oracle_nan_state_is_step_error(monkeypatch):
    # infinite rates from t = 0.5 on turn the state NaN at that step
    def rates_blowing_up(p, n, h):
        r = model.oracle_rates(p, n, h)
        r[:, 0] = np.where(np.arange(n + 1) * h >= 0.5, np.inf, r[:, 0])
        return r

    monkeypatch.setattr(dynamics, "oracle_rates", rates_blowing_up)
    with pytest.raises(StepError, match=r"nan at t=0\.5$"):
        ode_oracle(fig_params(), plus_minus_super(), 1.0, 1e-3)


def test_ode_oracle_is_fourth_order():
    p = fig_params()
    runs = [np.array([[s.rho_pp, s.rho_pm.real, s.rho_pm.imag]
                      for s in ode_oracle(p, plus_minus_super(), 2.0, h)])
            for h in (0.02, 0.01, 0.005)]
    coarse = np.abs(runs[0] - runs[1][::2]).max()
    fine = np.abs(runs[1][::2] - runs[2][::4]).max()
    assert 12.0 <= coarse / fine <= 20.0


B = dynamics._ODE_BLOCK_STEPS


@pytest.mark.parametrize("n", [1, 2, 3, 127, 128, 129, 255, 256, 257, 258,
                               259, 2000,
                               *(2 * L + 1 for L in (B - 1, B, B + 1,
                                                     2 * B + 1)),
                               6 * B + 101])
def test_ode_oracle_across_block_boundaries(n):
    # two interleaved chains of step 2h, each multiplied up in blocks of
    # B = _ODE_BLOCK_STEPS steps: a lone step of h, each chain's first step
    # of 2h; chains of 63 to 129 steps and 1,000 (scans of lengths around
    # powers of two); n = 2L + 1 gives both chains L steps, for L one short
    # of a block, a block, one past it and one past two blocks; and a long
    # run of 3B + 50 steps per chain, not a power of two
    p, h = fig_params(), 1e-3
    traj = ode_oracle(p, plus_minus_super(), n * h, h)
    rho_pp, rho_pm = apply_map_series(build_kernels(p, n * h, h),
                                      plus_minus_super())
    assert len(traj) == n + 1
    assert np.abs(np.array([s.rho_pp for s in traj]) - rho_pp).max() <= 1e-12
    assert np.abs(np.array([s.rho_mm for s in traj])
                  - (1.0 - rho_pp)).max() <= 1e-12
    assert np.abs(np.array([s.rho_pm for s in traj]) - rho_pm).max() <= 1e-12


def rk4_one_by_one(coeffs, h, v0):
    """v0 propagated by each RK4 step's matrix P in turn, P built per step."""
    ops = dynamics._CHANNEL_SUPEROPS
    eye = np.eye(4)
    out = [np.asarray(v0, dtype=complex)]
    for j in range(0, len(coeffs) - 2, 2):
        m0, mm, m1 = (np.tensordot(coeffs[j + i], ops, axes=1)
                      for i in range(3))
        k2 = mm @ (eye + 0.5 * h * m0)
        k3 = mm @ (eye + 0.5 * h * k2)
        k4 = m1 @ (eye + h * k3)
        out.append((eye + h / 6.0 * (m0 + 2.0 * k2 + 2.0 * k3 + k4)) @ out[-1])
    return np.array(out)


@pytest.mark.parametrize("steps", [*range(1, 41), 100, 1000, B + 3,
                                   2 * B + 5, 3000])
def test_rk4_chain_matches_propagators_applied_one_by_one(steps):
    # every state of the in-place scan, within a block and across block
    # edges; a scan without its down-sweep leaves every prefix whose
    # length is not a power of two incomplete
    rng = np.random.default_rng(steps)
    coeffs = rng.uniform(-1.0, 2.0, size=(2 * steps + 1, 3))
    h = 0.01
    v = np.empty((steps + 1, 4), dtype=complex)
    v[0] = (0.3, 0.2 - 0.1j, 0.2 + 0.1j, 0.7)
    dynamics._rk4_chain(coeffs, h, v)
    expected = rk4_one_by_one(coeffs, h, v[0])
    assert np.abs(v - expected).max() <= 1e-13


def test_ode_oracle_states_equal_constructed_ones(monkeypatch):
    # one _check_states over the whole trajectory, and no state goes
    # through DensityMatrix's own check again
    rho0, check, calls = plus_minus_super(), dynamics._check_states, []

    def counting_check(*a):
        calls.append("check")
        check(*a)

    monkeypatch.setattr(dynamics, "_check_states", counting_check)
    monkeypatch.setattr(DensityMatrix, "__post_init__",
                        lambda self: calls.append("post_init"))
    traj = ode_oracle(fig_params(), rho0, 3.0, 1e-3)
    assert len(traj) == 3001 and calls == ["check"]
    monkeypatch.undo()
    for s in traj:
        again = DensityMatrix(rho_pp=s.rho_pp, rho_mm=s.rho_mm, rho_pm=s.rho_pm)
        # repr per field tells -0.0 from 0.0, which == does not
        assert s == again and all(
            repr(getattr(s, f)) == repr(getattr(again, f))
            for f in ("rho_pp", "rho_mm", "rho_pm"))
        assert not hasattr(s, "__dict__")
        assert (type(s.rho_pp), type(s.rho_mm), type(s.rho_pm)) == \
            (float, float, complex)
    with pytest.raises(AttributeError):
        traj[1].rho_pp = 0.5                            # still frozen


def test_ode_oracle_states_are_small():
    # slotted states: 56 B each plus two floats and a complex (80 B) and
    # the list's pointer, 144 B; an instance __dict__ made it 184 B
    rho0 = plus_minus_super()
    ode_oracle(fig_params(), rho0, 5.0, 1e-3)          # warm-up
    tracemalloc.start()
    try:
        traj = ode_oracle(fig_params(), rho0, 5.0, 1e-3)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(traj) == 5001 and held / 5001 <= 160


def test_ode_oracle_names_first_non_positive_state(monkeypatch):
    # a dephasing channel run backwards: rho_pm grows as
    # 0.5 e^{s Gamma}, Gamma = wz alpha ln(1 + t^2) / 2, while the
    # populations do not move, so the trace stays exactly 1 and
    # det = -0.25 expm1(2 s Gamma) passes -1e-10 at a later grid time
    p = fig_params(ratio=1.0)
    h, s = 1e-3, 2e-3
    t = np.arange(101) * h
    wz = p.epsilon ** 2 / (4.0 * p.omega0 ** 2)
    det = -0.25 * np.expm1(s * wz * p.alpha * np.log1p(t * t))
    k = int(np.argmax(det < -1e-10))
    assert k == 13 and det[k - 1] > -0.95e-10 and det[k] < -1.05e-10
    grow = np.zeros((3, 4, 4))
    grow[2, 1, 1] = grow[2, 2, 2] = s
    monkeypatch.setattr(dynamics, "_CHANNEL_SUPEROPS", grow)
    check = dynamics._check_states
    monkeypatch.setattr(dynamics, "_check_states", lambda *a: None)
    unchecked = ode_oracle(p, plus_minus_super(), 0.1, h)
    monkeypatch.setattr(dynamics, "_check_states", check)
    first = unchecked[k]
    assert all(x.rho_pp + x.rho_mm == 1.0 for x in unchecked)
    with pytest.raises(DomainError) as expected:
        DensityMatrix(first.rho_pp, first.rho_mm, first.rho_pm)
    for x in unchecked[:k]:
        DensityMatrix(x.rho_pp, x.rho_mm, x.rho_pm)
    with pytest.raises(DomainError) as err:
        ode_oracle(p, plus_minus_super(), 0.1, h)
    assert str(err.value) == str(expected.value)
    assert str(err.value).startswith("state not positive: det = -")


def test_ode_oracle_takes_its_rates_from_a_grid_call_and_a_half_step_call(
        monkeypatch):
    # the grid's n + 1 points, then one step of h/2 for the first RK4
    # step's midpoint
    calls = []

    def counting_rates(p, n, h):
        calls.append((p, n, h))
        return model.oracle_rates(p, n, h)

    monkeypatch.setattr(dynamics, "oracle_rates", counting_rates)
    n, h = 1000, 1e-3
    ode_oracle(fig_params(), plus_minus_super(), n * h, h)
    assert calls == [(fig_params(), n, h), (fig_params(), 1, 0.5 * h)]


def test_ode_oracle_evaluates_no_e1(monkeypatch):
    # criterion 5's three biases: the oracle's rates come from quadrature
    # alone, so with E1 and rate_table out of reach it still tracks the map
    def unreachable(*args):
        raise AssertionError("E1 evaluated")

    rho0 = plus_minus_super()
    for ratio in (FIG_RATIO, 0.0, 1.0):
        p = fig_params(ratio)
        rho_pp, rho_pm = apply_map_series(build_kernels(p, 50.0, 1e-3), rho0)
        monkeypatch.setattr(model, "expint_e1", unreachable)
        monkeypatch.setattr(dynamics, "rate_table", unreachable)
        traj = ode_oracle(p, rho0, 50.0, 1e-3)
        monkeypatch.undo()
        assert np.abs(np.array([s.rho_pp for s in traj]) - rho_pp).max() \
            <= 1e-6
        assert np.abs(np.array([s.rho_pm for s in traj]) - rho_pm).max() \
            <= 1e-6


def test_ode_oracle_peak_memory_per_grid_point():
    # at 50,001 points: the states (144 B each), the propagated vectors,
    # the rate rows and the state columns; oracle_rates evaluates its
    # nodes in blocks, and the grid call's 200,000 at once exceed this bound
    rho0 = plus_minus_super()
    ode_oracle(fig_params(), rho0, 50.0, 1e-3)         # warm-up
    tracemalloc.start()
    try:
        ode_oracle(fig_params(), rho0, 50.0, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 50_001 <= 280


def test_ode_oracle_trace_drift_stays_small():
    # criterion 5's figure-bias trajectory: applying the propagators one
    # by one drifts 6.9e-15 here, a prefix scan of the plain I + E 1.5e-13
    traj = ode_oracle(fig_params(), plus_minus_super(), 50.0, 1e-3)
    trace = np.array([s.rho_pp + s.rho_mm for s in traj])
    assert np.abs(trace - 1.0).max() <= 1e-13


def test_near_pure_dephasing_limit():
    # delta -> 0 limit: populations frozen, |rho_pm| = exp(-2 int gamma3)/2
    p = SystemParams(epsilon=10.0, delta=1e-6, alpha=0.01)
    h, t_max = 1e-3, 2.0
    k = build_kernels(p, t_max, h)
    rho_pp, rho_pm = apply_map_series(k, plus_minus_super())
    assert np.max(np.abs(rho_pp - 0.5)) <= 1e-9
    # int_0^t gamma3 = (eps^2/4 w0^2) * alpha/2 * log(1 + t^2)
    wz = p.epsilon ** 2 / (4.0 * p.omega0 ** 2)
    expected = 0.5 * np.exp(-2.0 * wz * 0.5 * p.alpha
                            * np.log1p(k.grid ** 2))
    assert np.max(np.abs(np.abs(rho_pm) - expected)) <= 1e-9


# --- recoherence mask ----------------------------------------------------

def test_recoherence_mask_zero_ratio_matches_bare_sum():
    from spinboson import rate_table
    p = fig_params()
    t = np.arange(0.0, 2.0, 1e-3)
    mask = recoherence_mask(p, t, np.array([0.0]))
    base = rate_table(SystemParams(epsilon=0.0, delta=10.0, alpha=0.01), t)
    expected = (base["gamma_plus"] + base["gamma_minus"]) < 0.0
    assert np.array_equal(mask[0], expected)


def test_recoherence_mask_ratio_examples():
    p = fig_params()
    t = np.arange(0.0, 2.0, 1e-3)
    mask = recoherence_mask(p, t, np.array([REVIVAL_RATIO, FIG_RATIO]))
    assert mask[0].any()       # 1/(2 sqrt 7): recoherence windows exist
    assert not mask[1].any()   # 1/(2 sqrt 3): none


def test_recoherence_cell_count_non_increasing_in_ratio():
    p = fig_params()
    t = np.arange(0.0, 2.0, 1e-3)
    ratios = np.arange(0.0, 0.41, 0.01)
    mask = recoherence_mask(p, t, ratios)
    counts = mask.sum(axis=1)
    assert np.all(np.diff(counts) <= 0)


def test_recoherence_mask_agrees_with_map_derivative():
    p = fig_params()
    h = 1e-3
    t = np.arange(0.0, 2.0 + h / 2, h)
    for ratio in (REVIVAL_RATIO, FIG_RATIO, 0.35):
        pr = SystemParams.from_ratios(ratio, 10.0, 0.01)
        mask = recoherence_mask(p, t, np.array([ratio]))[0]
        k = build_kernels(pr, 2.0, h)
        _, rho_pm = apply_map_series(k, plus_minus_super())
        deriv = np.gradient(np.abs(rho_pm), t)
        # skip cells at mask transitions (central differences straddle them)
        interior = np.ones_like(mask)
        interior[1:] &= mask[1:] == mask[:-1]
        interior[:-1] &= mask[:-1] == mask[1:]
        check = interior & (np.abs(deriv) > 1e-9)
        assert np.array_equal(deriv[check] > 0.0, mask[check])


def test_recoherence_mask_rejects_negative_ratio():
    with pytest.raises(DomainError):
        recoherence_mask(fig_params(), np.array([0.0, 1.0]), np.array([-0.1]))


# --- trace distance and BLP ----------------------------------------------

def test_pair_directions():
    pts = pair_directions(64)
    assert pts.shape == (64, 3)
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
    # coordinate axes always present
    assert np.allclose(pts[0], [0, 0, 1])
    assert np.allclose(pts[1], [1, 0, 0])
    assert np.allclose(pts[2], [0, 1, 0])
    with pytest.raises(DomainError):
        pair_directions(31)


def test_pair_directions_count_must_be_an_integer():
    with pytest.raises(DomainError, match="^n must be an integer, got 32.5$"):
        pair_directions(32.5)
    assert np.array_equal(pair_directions(np.int64(32)), pair_directions(32))


def test_monotone_contraction_when_rates_positive():
    p = markov_params()
    k = build_kernels(p, 50.0, 2e-3)
    _, rho_pm = apply_map_series(k, plus_minus_super())
    mags = np.abs(rho_pm)
    assert np.all(np.diff(mags) <= 1e-15)


def test_blp_zero_in_markovian_regime():
    assert blp_measure(markov_params(), 50.0) <= 1e-9
    # at alpha 0 the map is the identity; the measure is the floor that
    # np.gradient leaves on a grid uniform only to rounding (4.3e-13)
    assert blp_measure(fig_params(alpha=0.0), 50.0) <= 1e-11


def test_blp_positive_with_negative_rates():
    assert blp_measure(fig_params(), 50.0) > 1e-5


@pytest.mark.parametrize("t_max", [math.nan, math.inf])
def test_blp_non_finite_horizon(t_max):
    with pytest.raises(DomainError):
        blp_measure(fig_params(), t_max)
    with pytest.raises(DomainError):
        next(blp_sweep(fig_params(), t_max, BLP_RATIOS))


@pytest.mark.parametrize("t_max", [1e-300, 3e-300, 1e-200])
def test_blp_at_tiny_horizon_is_zero_without_warnings(t_max):
    # three-point grids, exactly uniform; np.gradient's coefficients for
    # uneven spacing divide by an underflowed dx1 * dx2 there
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert blp_measure(fig_params(), t_max) == 0.0


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("omega0", [0.5, 2.0, 10.0, 150.0])
def test_blp_shared_bare_table_matches_per_call_rates(omega0):
    # blp_sweep: one rate_table at omega0, reweighted per ratio
    t_max = 5.0
    rows = blp_sweep(SystemParams.from_ratios(0.0, omega0, 0.3), t_max,
                     BLP_RATIOS)
    off_nominal = []
    for r, shared in zip(BLP_RATIOS, rows, strict=True):
        p = SystemParams.from_ratios(r, omega0, 0.3)
        if p.omega0 == omega0:
            assert shared == blp_measure(p, t_max)
        else:
            # the per-call bare rates are at an omega0 one ulp off
            off_nominal.append(r)
            assert shared == pytest.approx(blp_measure(p, t_max), rel=1e-12)
    if omega0 == 10.0:
        assert off_nominal == [0.2]       # omega0 = 9.999999999999998


def test_blp_sweep_yields_each_row_before_the_next_fails():
    rows = blp_sweep(fig_params(0.0), 1.0, [0.1, -0.1])
    assert next(rows) == blp_measure(fig_params(0.1), 1.0)
    with pytest.raises(DomainError, match="epsilon_over_delta must be >= 0"):
        next(rows)


def blp_gradient_trapezoid(p: SystemParams, t_max: float) -> float:
    """blp_measure's pair loop as np.gradient and np.trapezoid calls."""
    return gradient_trapezoid_backflow(
        build_kernels(p, t_max, t_max / max(2, round(t_max / 0.002))))


def gradient_trapezoid_backflow(k: dynamics.KernelTable) -> float:
    """The backflow on kernel table k, one np.gradient and one
    np.trapezoid call per pair."""
    pop, coh = np.exp(-2.0 * k.eta), np.exp(-2.0 * k.zeta)
    best = 0.0
    for nx, ny, nz in pair_directions(64):
        dist = np.sqrt(nz * nz * pop + (nx * nx + ny * ny) * coh)
        sigma = np.gradient(dist, k.grid)
        best = max(best, float(np.trapezoid(np.maximum(sigma, 0.0), k.grid)))
    return best


#: on a grid of step 131/2**16 (about 0.002) every i*h is exact, so the
#: spacing is exactly uniform and np.gradient takes its scalar-step branch
EXACT_STEP = 131 / 2 ** 16

#: the two-step floor 0.004; grids ending just past the first backflow (at
#: t = 0.022 for omega0 150 and 0.338 for omega0 10), where the measure
#: sums a few trapezoids and one ulp of sigma shows, on uneven and on
#: exactly uniform spacing; and the long horizons
GUARD_T_MAX = (0.004, 0.01, 0.028, 0.34, 13 * EXACT_STEP, 172 * EXACT_STEP,
               5.0, 50.0)


@pytest.mark.parametrize("ratio,omega0,alpha", [
    (FIG_RATIO, 10.0, 0.01), (0.3, 10.0, 0.05), (0.0, 150.0, 0.01)])
def test_blp_loop_is_numpy_gradient_and_trapezoid_bit_for_bit(ratio, omega0,
                                                             alpha):
    p = SystemParams.from_ratios(ratio, omega0, alpha)
    uniform = []
    for t_max in GUARD_T_MAX:
        assert blp_measure(p, t_max) == blp_gradient_trapezoid(p, t_max)
        dx = np.diff(uniform_grid(t_max, dynamics._blp_step(t_max)))
        uniform.append(bool((dx == dx[0]).all()))
    assert uniform == [True, True, False, False, True, True, False, False]


@pytest.mark.parametrize("omega0,alpha", [(10.0, 0.01), (10.0, 0.05),
                                          (150.0, 0.01)])
@pytest.mark.parametrize("t_max,uniform", [(50.0, False),
                                           (13 * EXACT_STEP, True)])
def test_blp_sweep_is_numpy_gradient_and_trapezoid_bit_for_bit(
        omega0, alpha, t_max, uniform):
    # each row against the loop on that row's kernels
    p = SystemParams.from_ratios(0.0, omega0, alpha)
    grid = uniform_grid(t_max, dynamics._blp_step(t_max))
    dx = np.diff(grid)
    assert bool((dx == dx[0]).all()) == uniform
    rows = blp_sweep(p, t_max, BLP_RATIOS)
    for rates, row in zip(dynamics._bias_sweep(p, grid, BLP_RATIOS), rows,
                          strict=True):
        assert row == gradient_trapezoid_backflow(
            dynamics._kernels(grid, rates))


def blp_reference(p: SystemParams, t_max: float) -> float:
    """The measure pair by pair: both states mapped, distance at each time.

    The pair is rho = (I +- n.sigma)/2; the trace distance of two qubit
    states is hypot(d rho_pp, |d rho_pm|).
    """
    h = t_max / round(t_max / 0.002)
    k = build_kernels(p, t_max, h)
    best = 0.0
    for nx, ny, nz in dynamics.pair_directions(32):
        plus, minus = (DensityMatrix(rho_pp=0.5 * (1.0 + s * nz),
                                     rho_mm=0.5 * (1.0 - s * nz),
                                     rho_pm=0.5 * s * complex(nx, -ny))
                       for s in (1.0, -1.0))
        (pp1, pm1), (pp2, pm2) = (apply_map_series(k, rho)
                                  for rho in (plus, minus))
        dist = [math.hypot(a - c, abs(b - d))
                for a, b, c, d in zip(pp1.tolist(), pm1.tolist(),
                                      pp2.tolist(), pm2.tolist())]
        sigma = np.gradient(dist, k.grid)
        best = max(best, float(np.trapezoid(np.maximum(sigma, 0.0), k.grid)))
    return best


@pytest.mark.parametrize("polar", [True, False])
@pytest.mark.parametrize("ratio", [FIG_RATIO, 0.0, 0.3])
def test_blp_matches_pairwise_trace_distances(monkeypatch, ratio, polar):
    # the polar pair's population backflow is the maximum; without it a
    # tilted pair wins, so the coherence term decides the measure too
    directions = pair_directions(32)[0 if polar else 1:]
    monkeypatch.setattr(dynamics, "pair_directions", lambda n: directions)
    p = fig_params(ratio)
    measure = blp_measure(p, 5.0)
    assert measure > 1e-5
    assert measure == pytest.approx(blp_reference(p, 5.0), rel=1e-10)


def test_blp_insensitive_to_pair_count(monkeypatch):
    p = fig_params()
    b = blp_measure(p, 20.0)
    directions = pair_directions(32)
    monkeypatch.setattr(dynamics, "pair_directions", lambda n: directions)
    a = blp_measure(p, 20.0)
    # the extremal pairs are the prepended axes, so refining the
    # Fibonacci fan must not change the maximum
    assert a == pytest.approx(b, rel=1e-12)
