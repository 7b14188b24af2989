"""Dynamics tests: kernels, analytic map, ODE oracle, recoherence, BLP."""

import math
import warnings

import numpy as np
import pytest

from spinboson import (DensityMatrix, DomainError, GridError, StepError,
                       SystemParams, apply_map, apply_map_series, blp_measure,
                       build_kernels, ode_oracle, pair_directions,
                       rate_table, recoherence_mask)
import spinboson.dynamics as dynamics

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
    assert rho.determinant() == pytest.approx(0.25 * 0.75 - 0.01)


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


def test_map_identity_at_zero():
    k = build_kernels(fig_params(), 1.0, 1e-3)
    rho0 = DensityMatrix(rho_pp=0.3, rho_mm=0.7, rho_pm=0.2 - 0.1j)
    out = apply_map(k, rho0, 0.0)
    assert out.rho_pp == rho0.rho_pp
    assert out.rho_pm == rho0.rho_pm


def test_map_off_grid_time_rejected():
    k = build_kernels(fig_params(), 1.0, 1e-3)
    for t in (0.00035, 1.5, -1e-3, math.nan, math.inf, -math.inf):
        with pytest.raises(GridError):
            apply_map(k, plus_minus_super(), t)


def test_map_trace_exact_and_positive():
    k = build_kernels(fig_params(), 5.0, 1e-3)
    rho0 = DensityMatrix(rho_pp=0.9, rho_mm=0.1, rho_pm=0.25 + 0.1j)
    for t in (0.5, 2.0, 5.0):
        out = apply_map(k, rho0, t)
        assert out.rho_pp + out.rho_mm == 1.0
        assert out.determinant() >= -1e-10


@pytest.mark.parametrize("rho0", [
    DensityMatrix(rho_pp=0.5, rho_mm=0.5, rho_pm=0.5),
    DensityMatrix(rho_pp=0.9, rho_mm=0.1, rho_pm=0.25 + 0.1j),
    DensityMatrix(rho_pp=0.0, rho_mm=1.0, rho_pm=0.0),
])
def test_map_matches_map_series_at_every_grid_point(rho0):
    # the scalar map and the vectorized series share only the kernel table;
    # the population is the same expression, the rest differ in rounding
    # (math.exp vs np.exp, 1 - rho_pp vs the (1-g), (1-f) mixture)
    k = build_kernels(fig_params(0.3, alpha=0.05), 5.0, 1e-3)
    rho_pp, rho_pm = apply_map_series(k, rho0)
    for i, t in enumerate(k.grid.tolist()):
        out = apply_map(k, rho0, t)
        assert out.rho_pp == rho_pp[i]
        assert abs(out.rho_mm - (1.0 - rho_pp[i])) <= 1e-15
        assert abs(out.rho_pm - rho_pm[i]) <= 1e-15


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
    worst = 0.0
    for i in range(0, len(traj), 100):
        m = apply_map(k, plus_minus_super(), float(k.grid[i]))
        o = traj[i]
        worst = max(worst, abs(m.rho_pp - o.rho_pp), abs(m.rho_mm - o.rho_mm),
                    abs(m.rho_pm - o.rho_pm))
    assert worst <= 1e-6


def test_ode_oracle_constant_without_coupling():
    p = SystemParams(epsilon=1.0, delta=10.0, alpha=0.0)
    rho0 = DensityMatrix(rho_pp=0.3, rho_mm=0.7, rho_pm=0.2j)
    traj = ode_oracle(p, rho0, 1.0, 1e-3)
    assert traj[-1].rho_pp == rho0.rho_pp
    assert traj[-1].rho_pm == rho0.rho_pm


def test_ode_oracle_names_first_trace_drift(monkeypatch):
    # a dephasing channel that also drains rho_pp without refilling rho_mm:
    # d(tr)/dt = -gamma3 rho_pp, so |tr - 1| = rho_pp(0) (1 - e^{-Gamma})
    # with Gamma = wz alpha ln(1 + t^2) / 2 in closed form (omega_c = 1)
    leak = np.zeros((3, 4, 4))
    leak[2, 0, 0] = -1.0
    monkeypatch.setattr(dynamics, "_CHANNEL_SUPEROPS", leak)
    p = fig_params(ratio=1.0)
    h = 1e-3
    t = np.arange(1, 101) * h
    wz = p.epsilon ** 2 / (4.0 * p.omega0 ** 2)
    drift = 0.5 * -np.expm1(-0.5 * wz * p.alpha * np.log1p(t * t))
    k = int(np.argmax(drift > 1e-8))
    assert drift[k - 1] < 0.9e-8 and drift[k] > 1.1e-8  # no borderline step
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


def blp_reference(p: SystemParams, t_max: float) -> float:
    """The measure pair by pair: both states mapped, distance at each time.

    The pair is rho = (I +- n.sigma)/2; the trace distance of two qubit
    states is hypot(d rho_pp, |d rho_pm|).
    """
    h = t_max / round(t_max / (0.002 / p.omega_c))
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
    measure = blp_measure(p, 5.0, pair_samples=32)
    assert measure > 1e-5
    assert measure == pytest.approx(blp_reference(p, 5.0), rel=1e-10)


def test_blp_insensitive_to_pair_count():
    p = fig_params()
    a = blp_measure(p, 20.0, pair_samples=32)
    b = blp_measure(p, 20.0, pair_samples=64)
    # the extremal pairs are the prepended axes, so refining the
    # Fibonacci fan must not change the maximum
    assert a == pytest.approx(b, rel=1e-12)
