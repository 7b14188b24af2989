"""Monte-Carlo unraveling tests: RNG, drift, jumps, ensemble driver."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinboson.dynamics as dynamics
import spinboson.model as model
import spinboson.nmqj as nmqj
from spinboson import (DensityMatrix, DomainError, GridError,
                       ProbabilityError, PureState, RateSet, StepError,
                       SystemParams, UnravelingSnapshot, apply_map_series,
                       build_kernels, count_difference_series,
                       deterministic_step, equal_superposition,
                       run_unraveling, step_ensemble)
from spinboson.model import oracle_rates, uniform_grid

FIG_RATIO = 1.0 / (2.0 * math.sqrt(3.0))


def fig_params(alpha: float = 0.01) -> SystemParams:
    return SystemParams.from_ratios(FIG_RATIO, 10.0, alpha)


def zero_rates() -> RateSet:
    return RateSet(t=0.0, gamma_plus=0.0, gamma_minus=0.0, gamma_zero=0.0,
                   gamma1=0.0, gamma2=0.0, gamma3=0.0)


def jump_rates(g1: float = 0.0, g2: float = 0.0, g3: float = 0.0) -> RateSet:
    """RateSet carrying only the channel rates (bare rates unused here)."""
    return RateSet(t=0.0, gamma_plus=0.0, gamma_minus=0.0, gamma_zero=0.0,
                   gamma1=g1, gamma2=g2, gamma3=g3)


# --- pure states and drift ------------------------------------------------

def test_pure_state_validation():
    with pytest.raises(DomainError):
        PureState(1.0, 1.0)
    s = equal_superposition()
    assert s.p_plus == pytest.approx(0.5, rel=1e-14)
    assert s.p_minus == pytest.approx(0.5, rel=1e-14)


def test_nan_state_and_nan_drift_rejected():
    # NaN fails every comparison, so each check is written to fail on it
    with pytest.raises(DomainError, match="norm"):
        PureState(math.nan, 0.0)
    with pytest.raises(DomainError, match="dt must be finite and > 0"):
        deterministic_step(equal_superposition(), zero_rates(), math.nan)
    with pytest.raises(StepError, match="norm nan"):
        nmqj._drift(1.0, 0.0, math.nan, math.nan, 0.0)


@pytest.mark.parametrize("dt", [-1e-3, 0.0, math.inf])
def test_deterministic_step_rejects_bad_dt(dt):
    # a negative step would return a back-propagated state
    with pytest.raises(DomainError, match="dt must be finite and > 0"):
        deterministic_step(equal_superposition(), zero_rates(), dt)


def test_drift_identity_when_rates_vanish():
    s = deterministic_step(equal_superposition(), zero_rates(), 1e-3)
    assert s.a_plus == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)
    assert s.a_minus == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)


def test_drift_fixes_eigenstates():
    up = PureState(1.0, 0.0)
    moved = deterministic_step(up, jump_rates(g1=0.5, g2=0.2, g3=0.1), 1e-2)
    assert moved.a_plus == 1.0 and moved.a_minus == 0.0


def test_drift_tilt_matches_closed_form():
    # with only gamma1 active the renormalized ratio obeys
    # (a_minus/a_plus) -> (a_minus/a_plus) / (1 - dt*gamma1/2) each step
    g1, dt, n = 0.8, 1e-3, 1000
    rates = jump_rates(g1=g1)
    s = equal_superposition()
    prev = s.p_minus
    for _ in range(n):
        s = deterministic_step(s, rates, dt)
        assert s.p_minus > prev
        prev = s.p_minus
    ratio = abs(s.a_minus / s.a_plus)
    assert ratio == pytest.approx((1.0 - 0.5 * dt * g1) ** (-n), rel=1e-10)


def test_drift_negative_rate_reverses_tilt():
    s = deterministic_step(equal_superposition(), jump_rates(g1=-0.8), 1e-2)
    assert s.p_plus > 0.5 > s.p_minus


def test_drift_step_size_guard():
    with pytest.raises(StepError):
        deterministic_step(equal_superposition(), jump_rates(g1=200.0), 1e-3)
    with pytest.raises(StepError):
        deterministic_step(equal_superposition(), jump_rates(g3=60.0), 1e-3)


@settings(max_examples=100, deadline=None)
@given(theta=st.floats(0.05, math.pi / 2 - 0.05),
       phase=st.floats(0.0, 2.0 * math.pi),
       g1=st.floats(-5.0, 5.0), g2=st.floats(-5.0, 5.0),
       g3=st.floats(0.0, 5.0))
def test_drift_commutes_with_phase_flip(theta, phase, g1, g2, g3):
    s = PureState(math.cos(theta), math.sin(theta) * complex(math.cos(phase),
                                                             math.sin(phase)))
    rates = jump_rates(g1=g1, g2=g2, g3=g3)
    a = deterministic_step(PureState(s.a_plus, -s.a_minus), rates, 1e-3)
    b = deterministic_step(s, rates, 1e-3)
    assert a.a_plus == b.a_plus and a.a_minus == -b.a_minus


# --- recorded rows and their density matrix --------------------------------

def row_columns(counts, psi=None):
    """Result columns of one recorded row with the given class counts."""
    s = psi or equal_superposition()
    return nmqj._columns(sum(counts), [(0, counts, s.a_plus, s.a_minus)])


def test_ensemble_state_validation(monkeypatch):
    r = run_unraveling(fig_params(), 400, 0.1, 1e-3, seed=1, stride=50)
    first = r.snapshots[0]
    assert first.counts == (400, 0, 0, 0) and r.n_traj == 400
    assert first.psi0.a_plus == equal_superposition().a_plus
    assert r.counts.sum(axis=1).tolist() == [400] * len(r.steps)
    # the driver checks every step's counts after its jumps
    for bad in ((5, 0, 0, 0), (101, -1, 0, 0)):
        monkeypatch.setattr(nmqj, "_jumps", lambda *args, c=bad: c)
        with pytest.raises(DomainError, match="do not sum to n=100"):
            run_unraveling(fig_params(), 100, 0.01, 1e-3, seed=1)


def test_ensemble_density_pure_representative():
    c = row_columns((1000, 0, 0, 0))
    assert c["rho_pp"][0] == pytest.approx(0.5, rel=1e-14)
    assert c["rho_pm"][0] == pytest.approx(0.5, rel=1e-14)


def test_ensemble_density_phase_classes_cancel():
    assert row_columns((50, 50, 0, 0))["rho_pm"][0] == 0.0


def test_ensemble_density_mixed_counts():
    c = row_columns((6, 2, 1, 1))
    assert c["rho_pp"][0] == pytest.approx(0.5, rel=1e-12)
    assert c["rho_mm"][0] == pytest.approx(0.5, rel=1e-12)
    assert c["rho_pm"][0] == pytest.approx(0.2, rel=1e-12)


def test_ensemble_density_columns_match_scalar_estimators():
    # every column == the one-row scalar formulas (and the DensityMatrix
    # checks).  x ** 2 != x * x for the population at a+ = 0.6352, and
    # numpy's int64 / int rounds n_plus and n_minus of these counts
    # differently from Python
    n = 2 ** 63 - 1
    counts = (8204355856186225350, 141865678067203912, 27059197271659290,
              850091305329687255)
    states = [PureState(a, math.sqrt(1.0 - a ** 2)) for a in (0.6352, 0.4625)]
    c = nmqj._columns(n, [(k, counts, s.a_plus, s.a_minus)
                          for k, s in enumerate(states)])
    q0, qph, qp, qm = (k / n for k in counts)
    for k, s in enumerate(states):
        pp, pm = s.p_plus, s.p_minus
        cross = complex(s.a_plus) * complex(s.a_minus).conjugate()
        rho = DensityMatrix(rho_pp=(q0 + qph) * pp + qp,
                            rho_mm=(q0 + qph) * pm + qm,
                            rho_pm=(q0 - qph) * cross)
        rep, cd, d = q0 + qph, q0 - qph, 1.0 - pp
        var_pp = rep * qp * (d * d) + rep * qm * pp * pp + qp * qm
        var_cd = 4.0 * q0 * qph + rep * (qp + qm)
        assert c["fractions"][k].tolist() == [q0, qph, qp, qm]
        assert (c["rho_pp"][k], c["rho_mm"][k]) == (rho.rho_pp, rho.rho_mm)
        assert complex(c["rho_pm"][k]) == rho.rho_pm
        assert c["se_rho_pp"][k] == math.sqrt(var_pp / n)
        assert c["se_re_rho_pm"][k] == abs(cross) * math.sqrt(var_cd / n)
        assert c["count_diff"][k] == cd
        assert c["se_count_diff"][k] == math.sqrt(var_cd / n)


@pytest.mark.parametrize("ratio,omega0,n,t_max,dt", [
    (0.1, 150.0, 10 ** 6, 0.2, 2e-3), (0.3, 10.0, 10 ** 5, 0.5, 1e-3)])
def test_run_standard_errors_match_exact_arithmetic(ratio, omega0, n, t_max,
                                                    dt):
    # the plug-in variances from the rows' exact fractions and amplitudes:
    # early on most members share one class, and a variance formed as a
    # difference of two numbers near 0.25 kept only ~5 of its digits
    res = run_unraveling(SystemParams.from_ratios(ratio, omega0, 0.05), n,
                         t_max, dt, 1)
    for c, ap, am, se_pp, se_cd, se_pm in zip(
            res.counts.tolist(), res.a_plus.tolist(), res.a_minus.tolist(),
            res.se_rho_pp.tolist(), res.se_count_diff.tolist(),
            res.se_re_rho_pm.tolist()):
        q0, qph, qp, qm = (Fraction(k, n) for k in c)
        pp, rep = Fraction(ap) ** 2, q0 + qph
        var_pp = rep * pp * pp + qp - (rep * pp + qp) ** 2
        var_cd = rep - (q0 - qph) ** 2
        cross = float(abs(Fraction(ap) * Fraction(am)))
        for got, exact in ((se_pp, math.sqrt(var_pp / n)),
                           (se_cd, math.sqrt(var_cd / n)),
                           (se_pm, cross * math.sqrt(var_cd / n))):
            assert abs(got - exact) <= 2e-15 * exact


def test_ensemble_density_check_rejects_bad_rows():
    with pytest.raises(DomainError, match="trace must be 1"):
        nmqj._columns(10, [(0, (10, 0, 0, 0), 1.0, 1.0)])


# --- single ensemble steps -------------------------------------------------

HALF = (0.5, 0.5)                   # p_plus, p_minus of equal_superposition


def test_step_ensemble_no_rates_no_motion():
    counts = (80, 10, 5, 5)
    out = step_ensemble(counts, 0.0, 0.0, 0.0, *HALF, 1e-3,
                        np.random.default_rng(0))
    assert out == counts


@pytest.mark.parametrize("counts,message", [
    ((100, -1, 0, 0), "four integers >= 0"), ((100, 0, 0), "four integers"),
    ((100.0, 0, 0, 0), "counts must be an integer, got 100.0")],
    ids=["negative", "three", "float"])
def test_step_ensemble_rejects_bad_counts(counts, message):
    with pytest.raises(DomainError, match=message):
        step_ensemble(counts, 0.5, 0.0, 0.0, *HALF, 1e-3,
                      np.random.default_rng(0))


@pytest.mark.parametrize("slot,value", [
    (0, math.nan), (2, math.nan), (1, math.inf), (3, -0.2), (3, 1.5),
    (4, math.nan), (5, -1e-3), (5, 0.0), (5, math.nan), (5, math.inf)],
    ids=["nan-g1", "nan-g3", "inf-g2", "negative-p", "p-above-1", "nan-p",
         "negative-dt", "zero-dt", "nan-dt", "inf-dt"])
def test_step_ensemble_rejects_bad_inputs(slot, value):
    # one bad value among g1, g2, g3, p_plus, p_minus, dt: numpy's
    # multinomial would raise its own ValueError on some, and draw a step
    # from the others
    args = [0.5, 0.0, 0.0, *HALF, 1e-3]
    args[slot] = value
    with pytest.raises(DomainError, match=r"^need finite rates, populations "
                       r"in \[0, 1\] and dt > 0, got "):
        step_ensemble((1000, 0, 0, 0), *args, np.random.default_rng(0))


def test_step_ensemble_reversed_jump_needs_sources():
    # every member sits in the jump class already: nothing can be restored
    out = step_ensemble((0, 0, 500, 0), 0.0, -0.5, 0.0, *HALF, 1e-2,
                        np.random.default_rng(1))
    assert out == (0, 0, 500, 0)


def test_step_ensemble_forward_jump_statistics():
    n = 10_000
    # per-member jump probability gamma1*dt*p_plus = 0.025
    out = step_ensemble((n, 0, 0, 0), 5.0, 0.0, 0.0, *HALF, 1e-2,
                        np.random.default_rng(7))
    jumped = out[3]
    assert out[0] + jumped == n and out[1] == out[2] == 0
    assert 150 < jumped < 350  # 250 expected, ~15.6 sigma margin


def test_step_ensemble_reversed_jump_moves_target_to_source():
    out = step_ensemble((5000, 0, 0, 5000), -0.5, 0.0, 0.0, *HALF, 1e-2,
                        np.random.default_rng(3))
    restored = out[0] - 5000
    assert restored > 0
    assert out[3] == 5000 - restored
    assert out[1] == 0 and out[2] == 0


@pytest.mark.parametrize("g1,g2", [(1.0, 0.5), (-1.0, -0.5)])
def test_step_ensemble_mean_flows_match_ladders(g1, g2):
    # one count-level step over every forward (or reversed) event at once:
    # each class's change must match the per-member flows N_c * p within
    # 6 sigma (~3e4 here), far below a misrouted event (~1e6)
    n = (4 * 10 ** 8, 3 * 10 ** 8, 2 * 10 ** 8, 10 ** 8)
    g3, dt, w = 0.2, 1e-2, 0.5                     # w = p_plus = p_minus
    out = step_ensemble(n, g1, g2, g3, w, w, dt, np.random.default_rng(11))
    f1, f2, f3 = max(g1, 0.0) * dt, max(g2, 0.0) * dt, g3 * dt
    r1, r2 = max(-g1, 0.0) * dt, max(-g2, 0.0) * dt
    n0, nph, npl, nmi = n
    rep = n0 + nph
    stay = f1 * w + f2 * w + f3 - r1 * w - r2 * w
    expected = (n0 - n0 * stay + nph * f3,
                nph - nph * stay + n0 * f3,
                npl - npl * f1 + (nmi + rep * w) * f2 + npl * r1
                - (rep * w + nmi) * r2,
                nmi - nmi * f2 + (npl + rep * w) * f1 + nmi * r2
                - (rep * w + npl) * r1)
    sigma = math.sqrt(sum(n) * dt * (abs(g1) + abs(g2) + g3))
    for got, want in zip(out, expected):
        assert abs(got - want) < 6.0 * sigma


def test_step_ensemble_dephasing_swaps_phase_classes():
    counts = (600, 400, 0, 0)
    out = step_ensemble(counts, 0.0, 0.0, 4.0, *HALF, 1e-2,
                        np.random.default_rng(5))
    # gamma3*dt = 0.04: members flip between the two representative classes
    assert out[2] == 0 and out[3] == 0
    assert out[0] + out[1] == 1000
    assert out != counts


def test_step_ensemble_zero_slots_draw_nothing():
    # channel 1 is off, so PSI0's ladder starts with a zero slot: the draw
    # must equal one over the unpadded ladder and leave the stream where
    # the unpadded draw leaves it
    g2, g3, dt, n = 3.0, 2.0, 1e-2, 10_000
    a, b = np.random.default_rng(21), np.random.default_rng(21)
    out = step_ensemble((n, 0, 0, 0), -0.4, g2, g3, 0.3, 0.7, dt, a)
    to_plus, to_ph, _ = b.multinomial(
        n, [g2 * dt * 0.7, g3 * dt, 1.0 - math.fsum([g2 * dt * 0.7, g3 * dt])])
    assert out == (n - to_plus - to_ph, to_ph, to_plus, 0)
    assert a.random() == b.random()


def test_step_ensemble_rejects_negative_dephasing():
    # a numpy scalar prints as the float it holds
    for g3 in (-0.01, np.float64(-0.01)):
        with pytest.raises(StepError, match=r"^gamma3 = -0\.01 < 0: reversed "
                           r"dephasing jumps are outside this scheme$"):
            step_ensemble((100, 0, 0, 0), 0.0, 0.0, g3, *HALF, 1e-3,
                          np.random.default_rng(0))


@pytest.mark.parametrize("rates", [(3, -2, 1), (-4, 5, 0)])
def test_step_ensemble_rates_of_any_number_type_draw_alike(rates):
    # int and np.float64 rates draw the counts that their floats draw, and
    # leave the stream where the floats leave it
    counts = (5000, 1000, 2000, 2000)
    draws = []
    for kind in (float, np.float64, int):
        rng = np.random.default_rng(13)
        out = step_ensemble(counts, *map(kind, rates), 0.3, 0.7, 1e-2, rng)
        draws.append((out, rng.random()))
    assert draws[0][0] != counts
    assert draws[1] == draws[0] and draws[2] == draws[0]


def test_step_ensemble_probability_budget():
    # a nearly empty target class with many restorable sources drives the
    # per-member reversed-jump probability past the 0.5 ladder budget
    with pytest.raises(ProbabilityError):
        step_ensemble((200, 0, 1, 0), 0.0, -0.9, 0.0, *HALF, 1e-2,
                      np.random.default_rng(0))


def test_probability_budget_names_the_largest_usable_dt():
    # at frozen counts and rates the class total is linear in dt: the
    # named dt keeps the step inside the budget, one digit more does not
    def step(dt):
        return step_ensemble((100, 100, 1000, 100), 200.0, -2000.0, 0.0,
                             *HALF, dt, np.random.default_rng(0))

    with pytest.raises(ProbabilityError, match=r"^total jump probability "
                       r"0\.6 > 0\.5 for class 2; reduce dt below "
                       r"8\.33e-04$"):
        step(1e-3)
    step(8.33e-4)
    with pytest.raises(ProbabilityError):
        step(8.34e-4)


# --- full runs -------------------------------------------------------------

def test_run_validation():
    p = fig_params()
    with pytest.raises(DomainError):
        run_unraveling(p, 99, 1.0, 1e-3, seed=1)
    with pytest.raises(DomainError):
        run_unraveling(p, 100, 1.0, 1e-3, seed=1, stride=0)
    with pytest.raises(DomainError):                  # beyond int64 counts
        run_unraveling(p, 2 ** 63, 1.0, 1e-3, seed=1)
    with pytest.raises(GridError):
        run_unraveling(p, 100, 1.0, 0.3, seed=1)


@pytest.mark.parametrize("name, value", [("n_traj", 1000.0), ("seed", 1.5),
                                         ("stride", 2.5)])
def test_run_integer_arguments_reject_floats(name, value):
    args = {"n_traj": 1000, "t_max": 0.01, "dt": 1e-3, "seed": 1, "stride": 2}
    with pytest.raises(DomainError, match=f"^{name} must be an integer, "
                       f"got {value!r}$"):
        run_unraveling(fig_params(), **{**args, name: value})


def test_run_accepts_numpy_integers():
    p = fig_params()
    ref = run_unraveling(p, 1000, 0.01, 1e-3, seed=1, stride=2)
    got = run_unraveling(p, np.int64(1000), 0.01, 1e-3, seed=np.uint64(1),
                         stride=np.int32(2))
    assert got.steps.tolist() == [0, 2, 4, 6, 8, 10]
    assert np.array_equal(got.counts, ref.counts)
    assert np.array_equal(got.rho_pm, ref.rho_pm)
    assert type(got.n_traj) is int


def test_run_snapshot_schedule():
    r = run_unraveling(fig_params(), 100, 1.0, 0.1, seed=1, stride=3)
    assert [s.step for s in r.snapshots] == [0, 3, 6, 9, 10]
    assert r.steps.tolist() == [0, 3, 6, 9, 10]
    assert np.allclose(r.times, [0.0, 0.3, 0.6, 0.9, 1.0])
    assert len(r.snapshots) == 5 and r.snapshots[-1].step == 10
    with pytest.raises(IndexError):
        r.snapshots[5]


def test_run_drift_matches_deterministic_step(monkeypatch):
    # the driver's drift is deterministic_step's arithmetic, and its
    # block-wise jump loop draws what step_ensemble draws one step at a
    # time from the same stream: the recorded amplitudes and counts equal
    # iterating both over the driver's rates, oracle_rates' grid rows,
    # across block boundaries and the reversed jumps of the negative-rate
    # windows
    monkeypatch.setattr(nmqj, "_BLOCK", 7)
    p = SystemParams.from_ratios(0.3, 10.0, 0.05)
    r = run_unraveling(p, 100_000, 1.0, 1e-3, seed=4, stride=1)
    grid = uniform_grid(1.0, 1e-3)
    table = oracle_rates(p, len(grid) - 1, 1e-3)
    rng = np.random.Generator(np.random.PCG64(4))
    s, counts, reversed_jumps = equal_superposition(), (100_000, 0, 0, 0), 0
    assert (r.a_plus[0], r.a_minus[0]) == (s.a_plus, s.a_minus)
    for i in range(len(grid) - 1):
        rates = jump_rates(*table[i].tolist())
        reversed_jumps += (rates.gamma1 < 0.0 and counts[3] > 0) \
            + (rates.gamma2 < 0.0 and counts[2] > 0)
        counts = step_ensemble(counts, rates.gamma1, rates.gamma2,
                               rates.gamma3, s.p_plus, s.p_minus, 1e-3, rng)
        s = deterministic_step(s, rates, 1e-3)
        assert (r.a_plus[i + 1], r.a_minus[i + 1]) == (s.a_plus, s.a_minus)
        assert tuple(r.counts[i + 1].tolist()) == counts
    assert reversed_jumps > 100


def test_run_nan_rate_stops_the_drift(monkeypatch):
    # oracle_rates rejects non-finite rates; past it, a NaN fails the CP
    # check on the rate table before the first drift step
    def table_with_nan(p, n, h):
        table = oracle_rates(p, n, h)
        table[3, 1] = math.nan
        return table
    monkeypatch.setattr(nmqj, "oracle_rates", table_with_nan)
    with pytest.raises(StepError, match=r"^map not completely positive at "
                       r"t=0\.003: f >= 0 fails \(margin nan\)$"):
        run_unraveling(fig_params(), 100, 0.01, 1e-3, seed=1)


def test_run_unraveling_takes_its_rates_from_one_oracle_rates_call(
        monkeypatch):
    # the call's rows, grid points 0..n, are the table that the CP check
    # and the steps read
    calls, tables = [], []

    def counting_rates(p, n, h):
        calls.append((p, n, h))
        return oracle_rates(p, n, h)

    def kernels(grid, table):
        tables.append(table)
        return dynamics._kernels(grid, table)

    monkeypatch.setattr(nmqj, "oracle_rates", counting_rates)
    monkeypatch.setattr(nmqj, "_kernels", kernels)
    p = fig_params(alpha=0.05)
    run_unraveling(p, 1000, 1.0, 1e-3, seed=1)
    assert calls == [(p, 1000, 1e-3)]
    rows = oracle_rates(p, 1000, 1e-3)
    assert [np.array_equal(tables[0][k], rows[:, i]) for i, k in
            enumerate(("gamma1", "gamma2", "gamma3"))] == [True] * 3


def test_run_unraveling_evaluates_no_e1(monkeypatch):
    # the unraveling's rates come from quadrature alone, so with E1 and
    # rate_table out of reach it still tracks the map within criterion 6's
    # band of 5/sqrt(N)
    def unreachable(*args):
        raise AssertionError("E1 evaluated")

    p = fig_params(alpha=0.05)
    rho_pp, rho_pm = apply_map_series(build_kernels(p, 1.0, 1e-3),
                                      DensityMatrix(rho_pp=0.5, rho_mm=0.5,
                                                    rho_pm=0.5))
    monkeypatch.setattr(model, "expint_e1", unreachable)
    monkeypatch.setattr(nmqj, "rate_table", unreachable)
    r = run_unraveling(p, 100_000, 1.0, 1e-3, seed=2)
    assert np.abs(r.rho_pp - rho_pp).max() <= 5.0 / math.sqrt(100_000)
    assert np.abs(r.rho_pm - rho_pm).max() <= 5.0 / math.sqrt(100_000)


def test_run_deterministic_for_fixed_seed():
    p = fig_params()
    a = run_unraveling(p, 500, 1.0, 1e-3, seed=42, stride=100)
    b = run_unraveling(p, 500, 1.0, 1e-3, seed=42, stride=100)
    for sa, sb in zip(a.snapshots, b.snapshots):
        assert sa.counts == sb.counts
        assert sa.psi0.a_plus == sb.psi0.a_plus
        assert sa.rho.rho_pm == sb.rho.rho_pm
    # at alpha 0.01 and N 500 a run makes ~0.05 jumps, so two seeds would
    # agree by chance; here each run makes ~50 and the seeds must differ
    jumpy = fig_params(alpha=0.05)
    c, d = (run_unraveling(jumpy, 100_000, 1.0, 1e-3, seed=s, stride=100)
            for s in (42, 43))
    assert c.snapshots[-1].counts[0] < 100_000
    assert any(sc.counts != sd.counts
               for sc, sd in zip(c.snapshots, d.snapshots))


def test_run_seed_is_reduced_modulo_64_bits():
    p = fig_params()
    a = run_unraveling(p, 200, 0.5, 1e-3, seed=5, stride=500)
    b = run_unraveling(p, 200, 0.5, 1e-3, seed=(1 << 64) + 5, stride=500)
    assert [s.counts for s in a.snapshots] == [s.counts for s in b.snapshots]


def test_run_decoupled_system_is_frozen():
    r = run_unraveling(fig_params(alpha=0.0), 300, 2.0, 1e-2, seed=1,
                       stride=50)
    for s in r.snapshots:
        assert s.counts == (300, 0, 0, 0)
        assert s.rho.rho_pp == pytest.approx(0.5, rel=1e-12)
        assert s.rho.rho_pm == pytest.approx(0.5, rel=1e-12)


def test_run_unbiased_system_never_dephases():
    # zero bias kills the dephasing channel, so the phase-flipped class
    # never populates and the count difference is just the n0 fraction
    p = SystemParams.from_ratios(0.0, 10.0, 0.05)
    r = run_unraveling(p, 1000, 2.0, 1e-3, seed=3, stride=250)
    t, cd, se = count_difference_series(r)
    assert cd[0] == 1.0 and se[0] == 0.0
    for s, c in zip(r.snapshots, cd):
        assert s.counts[1] == 0
        assert c == pytest.approx(s.counts[0] / 1000, abs=1e-15)


def test_run_attaches_failure_time():
    # a CP map on a coarse grid overflows the per-step budget mid-run
    p = SystemParams.from_ratios(3.0, 10.0, 2.0)
    with pytest.raises(StepError, match=r"^at t = 0\.75: dt too large: "):
        run_unraveling(p, 100, 2.0, 0.25, seed=1)


def rig_rates(monkeypatch, gamma1=(), gamma2=(), gamma3=()):
    """Make run_unraveling step on the given channel rates, one per step
    from t = 0 and zero after the last, past the table's CP check."""
    def table(p, n, h):
        rates = np.zeros((n + 1, 3))
        for col, values in enumerate((gamma1, gamma2, gamma3)):
            rates[:len(values), col] = values
        return rates
    monkeypatch.setattr(nmqj, "oracle_rates", table)
    monkeypatch.setattr(nmqj, "_kernels", lambda grid, table: None)


@pytest.mark.parametrize("block", [1, 3, 1024])
def test_run_error_order_within_a_step(monkeypatch, block):
    # step 0's channel 2 moves ~250 of 10,000 members to PLUS; gamma2 < 0
    # at step 5 then restores them with (N0/N_PLUS) |gamma2| dt p- > 0.5.
    # The order holds whatever the driver's block of count-free terms
    monkeypatch.setattr(nmqj, "_BLOCK", block)

    def run():
        return run_unraveling(fig_params(), 10_000, 0.01, 1e-3, seed=1)

    budget = r"^at t = 0\.005: total jump probability \S+ > 0\.5 for " \
        r"class 2; reduce dt below \d\.\d\de-\d\d$"
    # the ladder's budget fails before the drift's dt check at one step
    rig_rates(monkeypatch, gamma2=(50.0, 0.0, 0.0, 0.0, 0.0, -500.0))
    with pytest.raises(ProbabilityError, match=budget):
        run()
    # a drift failure at a later step never pre-empts it
    late_drift = (0.0,) * 7 + (200.0,)
    rig_rates(monkeypatch, gamma1=late_drift,
              gamma2=(50.0, 0.0, 0.0, 0.0, 0.0, -90.0))
    with pytest.raises(ProbabilityError, match=budget):
        run()
    # without the ladder failure the drift fails at its own step ...
    rig_rates(monkeypatch, gamma1=late_drift, gamma2=(50.0,))
    with pytest.raises(StepError, match=r"^at t = 0\.007: dt too large: "):
        run()
    # ... after that step's gamma3 < 0 check
    rig_rates(monkeypatch, gamma1=late_drift, gamma3=(0.0,) * 7 + (-1.0,))
    with pytest.raises(StepError,
                       match=r"^at t = 0\.007: gamma3 = -1\.0 < 0: "):
        run()


def test_run_unnormalized_drift_fails_the_trace_check(monkeypatch):
    # the recorded rows' trace is checked to 1e-12 after the loop, so a
    # drift that loses the representative's norm still ends the run
    monkeypatch.setattr(nmqj, "_drift",
                        lambda ap, am, gp, gm, budget: (ap * gp, am * gm))
    with pytest.raises(DomainError, match="^trace must be 1: "):
        run_unraveling(fig_params(alpha=0.05), 100, 0.1, 1e-3, seed=1)


def test_run_failure_stops_the_drift_at_the_failing_step(monkeypatch):
    # each step draws its jumps before its drift, so a run whose jump
    # budget fails at step 480 drifts steps 0..479 and no further
    drift, calls = nmqj._drift, []

    def counting_drift(*args):
        calls.append(None)
        return drift(*args)

    monkeypatch.setattr(nmqj, "_drift", counting_drift)
    with pytest.raises(ProbabilityError, match=r"^at t = 0\.48: "):
        run_unraveling(SystemParams.from_ratios(0.0, 10.0, 0.01), 10 ** 7,
                       5.0, 1e-3, seed=1)
    assert len(calls) == 480
    # the gamma3 < 0 check of step 7 comes before its drift: steps 0..6
    calls.clear()
    rig_rates(monkeypatch, gamma3=(0.0,) * 7 + (-1.0,))
    with pytest.raises(StepError, match=r"^at t = 0\.007: gamma3 = -1\.0 < 0: "
                       r"reversed dephasing jumps are outside this scheme$"):
        run_unraveling(fig_params(), 100, 0.01, 1e-3, seed=1)
    assert len(calls) == 7


def test_run_snapshots_equal_constructed_states(monkeypatch):
    # reading .snapshots runs one _check_states over all rows, no
    # DensityMatrix check of its own, and PureState's check once per row
    r = run_unraveling(fig_params(alpha=0.05), 1000, 1.0, 1e-3, seed=3,
                       stride=10)
    check, calls = dynamics._check_states, []

    def counting_check(*a):
        calls.append("check")
        check(*a)

    monkeypatch.setattr(dynamics, "_check_states", counting_check)
    monkeypatch.setattr(DensityMatrix, "__post_init__",
                        lambda self: calls.append("post_init"))
    monkeypatch.setattr(PureState, "__post_init__",
                        lambda self: calls.append("pure_post_init"))
    assert len(r.snapshots) == 101
    assert calls == ["check"] + ["pure_post_init"] * 101
    monkeypatch.undo()
    others = zip(*(col.tolist() for col in (
        r.steps, r.times, r.counts, r.se_rho_pp, r.se_re_rho_pm,
        r.count_diff, r.se_count_diff)))
    for s, pp, mm, pm, ap, am, (k, t, c, *rest) in zip(
            r.snapshots, r.rho_pp.tolist(), r.rho_mm.tolist(),
            r.rho_pm.tolist(), r.a_plus.tolist(), r.a_minus.tolist(),
            others):
        again = DensityMatrix(rho_pp=pp, rho_mm=mm, rho_pm=pm)
        assert s.rho == again and all(
            repr(getattr(s.rho, f)) == repr(getattr(again, f))
            for f in ("rho_pp", "rho_mm", "rho_pm"))
        assert not hasattr(s.rho, "__dict__")
        assert (type(s.rho.rho_pp), type(s.rho.rho_mm),
                type(s.rho.rho_pm)) == (float, float, complex)
        psi = PureState(ap, am)
        assert s.psi0 == psi and all(
            repr(getattr(s.psi0, f)) == repr(getattr(psi, f))
            for f in ("a_plus", "a_minus"))
        assert not hasattr(s.psi0, "__dict__") and \
            not hasattr(s, "__dict__")
        assert (type(s.psi0.a_plus), type(s.psi0.a_minus)) == (float, float)
        # the repr of the whole row holds every field and the nested states
        row = UnravelingSnapshot(k, t, tuple(c), psi, again, *rest)
        assert s == row and repr(s) == repr(row)
    with pytest.raises(AttributeError):
        r.snapshots[1].step = 0                         # still frozen
    with pytest.raises(AttributeError):
        r.snapshots[1].rho.rho_pp = 0.5
    with pytest.raises(AttributeError):
        r.snapshots[1].psi0.a_plus = 0.5


def test_run_count_difference_series_matches_snapshots():
    r = run_unraveling(fig_params(alpha=0.05), 400, 1.0, 1e-3, seed=11,
                       stride=100)
    t, cd, se = count_difference_series(r)
    assert len(t) == len(r.snapshots)
    for s, ti, ci, si in zip(r.snapshots, t, cd, se):
        assert s.t == ti and s.count_diff == ci and s.se_count_diff == si


def test_run_bias_is_first_order_in_dt():
    # at N = 1e12 the sampling error (~8e-9) sits far below the scheme's
    # bias against the map, so halving dt must about halve the bias
    p = fig_params(alpha=0.05)
    rho0 = DensityMatrix(rho_pp=0.5, rho_mm=0.5, rho_pm=0.5)
    bias_pp, bias_re, se = [], [], []
    for dt in (2e-3, 1e-3, 5e-4):
        r = run_unraveling(p, 10 ** 12, 2.0, dt, seed=1,
                           stride=round(0.1 / dt))
        pp, pm = apply_map_series(build_kernels(p, 2.0, dt), rho0)
        bias_pp.append(max(abs(s.rho.rho_pp - pp[s.step])
                           for s in r.snapshots))
        bias_re.append(max(abs(s.rho.rho_pm.real - pm[s.step].real)
                           for s in r.snapshots))
        se.append(max(s.se_rho_pp for s in r.snapshots))
    for bias in (bias_pp, bias_re):
        for coarse, fine in zip(bias, bias[1:]):
            assert 1.6 <= coarse / fine <= 2.5
    assert max(se) < 0.1 * min(bias_pp + bias_re)


@pytest.mark.filterwarnings("ignore:omega0/omega_c")
@pytest.mark.parametrize("ratio, omega0, alpha", [
    (0.0, 10.0, 0.05), (0.3, 10.0, 0.05), (1.0, 10.0, 0.05),
    (3.0, 10.0, 0.05), (FIG_RATIO, 2.0, 0.05), (FIG_RATIO, 10.0, 0.2),
    (1.0, 2.0, 0.1)], ids=["bias0", "bias0.3", "bias1", "bias3", "omega2",
                           "alpha0.2", "bias1-omega2-alpha0.1"])
def test_run_bias_is_first_order_across_the_parameter_box(ratio, omega0,
                                                          alpha):
    # the band of test_run_bias_is_first_order_in_dt away from the figure
    # point; the ratios measured 1.73-2.15.  The sampling error is below
    # 0.12 of the smallest bias (0.116 at ratio 3, whose bias is smallest)
    p = SystemParams.from_ratios(ratio, omega0, alpha)
    rho0 = DensityMatrix(rho_pp=0.5, rho_mm=0.5, rho_pm=0.5)
    bias_pp, bias_re, se = [], [], []
    for dt in (2e-3, 1e-3, 5e-4):
        r = run_unraveling(p, 10 ** 12, 2.0, dt, seed=1,
                           stride=round(0.1 / dt))
        pp, pm = apply_map_series(build_kernels(p, 2.0, dt), rho0)
        bias_pp.append(max(abs(s.rho.rho_pp - pp[s.step])
                           for s in r.snapshots))
        bias_re.append(max(abs(s.rho.rho_pm.real - pm[s.step].real)
                           for s in r.snapshots))
        se.append(max(s.se_rho_pp for s in r.snapshots))
    for bias in (bias_pp, bias_re):
        for coarse, fine in zip(bias, bias[1:]):
            assert 1.6 <= coarse / fine <= 2.5
    assert max(se) < 0.2 * min(bias_pp + bias_re)


def test_run_bias_at_omega0_150_stops_at_the_jump_budget():
    # the same N 1e12 run at omega0/omega_c 150 fails at its coarsest dt,
    # and is pinned as it stands: class 2 (PLUS) holds so few members that
    # its reversed-jump total, which grows as N_source/N_target, passes 0.5
    p = SystemParams.from_ratios(FIG_RATIO, 150.0, 0.05)
    with pytest.raises(ProbabilityError,
                       match=r"^at t = 0\.036: .* for class 2; "):
        run_unraveling(p, 10 ** 12, 2.0, 2e-3, seed=1, stride=50)


def test_run_coherence_error_shrinks_as_one_over_sqrt_n():
    # 30 seeds at each N: the RMS error of Re rho_pm against the map falls
    # as N^-1/2, and the plug-in se_re_rho_pm matches the seed-to-seed SD
    # at t = 1.  A 30-sample SD is off by 1/sqrt(58) ~ 0.13 relative, so
    # the SE band is +-3 sigma in log; the slope band holds on four seed
    # sets (-0.43 to -0.49).  Below N 1e4 a run holds ~0.3 phase-flipped
    # members at t = 1, so the plug-in SE is often 0; the population SE is
    # not tested, because reversed jumps couple the members through
    # N_source/N_target, which the independent-member formula ignores
    p, ns = fig_params(alpha=0.05), (10 ** 4, 10 ** 5, 10 ** 6)
    rho0 = DensityMatrix(rho_pp=0.5, rho_mm=0.5, rho_pm=0.5)
    exact = apply_map_series(build_kernels(p, 1.0, 1e-3), rho0)[1].real
    rms = []
    for n in ns:
        runs = [run_unraveling(p, n, 1.0, 1e-3, seed=s, stride=10)
                for s in range(30)]
        re = np.array([r.rho_pm.real for r in runs])
        rms.append(math.sqrt(np.mean((re - exact[::10]) ** 2)))
        se = np.mean([r.se_re_rho_pm[-1] for r in runs])
        assert 0.68 <= se / np.std(re[:, -1], ddof=1) <= 1.48
    slope = np.polyfit(np.log(ns), np.log(rms), 1)[0]
    assert -0.6 <= slope <= -0.4


def test_run_estimator_is_unbiased():
    # average the ensemble estimate over independent seeds and compare
    # against the analytic map at the final time (3 sigma of the seed mean)
    p = fig_params(alpha=0.05)
    t_max, dt, n, n_seeds = 1.5, 1e-3, 400, 50
    k = build_kernels(p, t_max, dt)
    pp_map, pm_map = apply_map_series(
        k, DensityMatrix(rho_pp=0.5, rho_mm=0.5, rho_pm=0.5))

    pp_obs, re_obs = [], []
    for seed in range(n_seeds):
        r = run_unraveling(p, n, t_max, dt, seed=seed, stride=10 ** 9)
        last = r.snapshots[-1]
        pp_obs.append(last.rho.rho_pp)
        re_obs.append(last.rho.rho_pm.real)
    pp_obs, re_obs = np.array(pp_obs), np.array(re_obs)

    for obs, ref in ((pp_obs, pp_map[-1]), (re_obs, pm_map[-1].real)):
        sem = float(obs.std(ddof=1)) / math.sqrt(n_seeds)
        assert abs(float(obs.mean()) - ref) < 3.0 * sem + 1e-12
