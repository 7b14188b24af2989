"""Dynamics tests: kernels, analytic map, ODE oracle, recoherence, BLP."""

import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinboson import (DensityMatrix, DomainError, GridError, StepError,
                       SystemParams, apply_map_series, blp_measure, blp_sweep,
                       build_kernels, ode_oracle, pair_directions, rate_table,
                       recoherence_mask, uniform_grid)
import spinboson.dynamics as dynamics
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


# --- kernels and the analytic map ----------------------------------------

def test_kernel_initial_values_and_identity():
    k = build_kernels(fig_params(), 5.0, 1e-3)
    assert k.eta[0] == 0.0 and k.zeta[0] == 0.0 and k.f[0] == 0.0
    assert k.g[0] == 1.0
    assert np.max(np.abs(k.g - (k.f + np.exp(-k.eta)))) <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5, 1234, 1235, 50_001])
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
        "map not completely positive at t=4.526: f >= 0 fails"
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


def test_map_rejects_nan_kernels(monkeypatch):
    # a NaN rate past rate_table's own finiteness check fails the CP check
    # at its grid time
    def table_with_nan(p, grid):
        table = rate_table(p, grid)
        table["gamma2"][3] = math.nan
        return table
    monkeypatch.setattr(dynamics, "rate_table", table_with_nan)
    with pytest.raises(StepError, match=r"^map not completely positive at "
                       r"t=0\.003: f >= 0 fails$"):
        build_kernels(fig_params(), 0.01, 1e-3)


def test_kernel_table_is_read_only():
    k = build_kernels(fig_params(), 0.1, 1e-3)
    for a in (k.grid, k.eta, k.zeta, k.f, k.g):
        with pytest.raises(ValueError, match="read-only"):
            a[1] = 0.5


@functools.cache
def cp_tables():
    """Kernel tables that pass the CP check, weak to moderate coupling."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return [build_kernels(SystemParams.from_ratios(r, w0, a), 10.0, 0.01)
                for r, w0, a in ((FIG_RATIO, 10.0, 0.01), (0.0, 0.5, 1.0),
                                 (0.3, 2.0, 0.5), (1.0, 150.0, 0.1),
                                 (0.1, 10.0, 1.0))]


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
    def rates_blowing_up(p, tgrid):
        r = rate_table(p, tgrid)
        r["gamma1"] = np.where(tgrid >= 0.5, np.inf, r["gamma1"])
        return r

    monkeypatch.setattr(dynamics, "rate_table", rates_blowing_up)
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


def test_monotone_contraction_when_rates_positive():
    p = markov_params()
    k = build_kernels(p, 50.0, 2e-3)
    _, rho_pm = apply_map_series(k, plus_minus_super())
    mags = np.abs(rho_pm)
    assert np.all(np.diff(mags) <= 1e-15)


def test_blp_zero_in_markovian_regime():
    assert blp_measure(markov_params(), 50.0) <= 1e-9


def test_blp_positive_with_negative_rates():
    assert blp_measure(fig_params(), 50.0) > 1e-5


@pytest.mark.parametrize("t_max", [math.nan, math.inf])
def test_blp_non_finite_horizon(t_max):
    with pytest.raises(DomainError):
        blp_measure(fig_params(), t_max)
    with pytest.raises(DomainError):
        next(blp_sweep(fig_params(), t_max, BLP_RATIOS))


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
    k = build_kernels(p, t_max, t_max / max(2, round(t_max / 0.002)))
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
