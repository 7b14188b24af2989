"""Monte Carlo jump unraveling of the time-local master equation.

The master equation's rates go negative in some time windows, so the
standard Monte-Carlo-wave-function scheme is extended with *reversed*
jumps: while a channel rate is negative, members of the ensemble that sit
in that channel's target state can jump back to a source state, with a
probability proportional to the source's current occupation.  For this
model and the standard initial state the reachable set of pure states is
finite:

    PSI0     the deterministically evolving representative a+|psi_+> + a-|psi_->
    PSI0_PH  its phase flip (sigma_z applied): a+|psi_+> - a-|psi_->
    PLUS     the upper eigenstate |psi_+>
    MINUS    the lower eigenstate |psi_->

so the ensemble is a set of counts over these four classes plus one
shared representative amplitude pair.  The phase-flipped state is never
stored: the drift is diagonal in the eigenbasis, so flipping commutes
with it exactly.

Members are exchangeable and nothing reads per-member state except the
class counts, so a step samples at count level: each non-empty class
draws one multinomial over its fixed-length jump ladder, zero-padded
where an event is absent (numpy draws nothing for a zero slot).  That has
the same law as one uniform per member, and a step costs the same
whatever the ensemble size.  A run draws from one PCG64 stream seeded
with the seed reduced modulo 2**64; results are bit-identical for a given
seed.  The driver steps on plain floats and records counts and
amplitudes; the estimators of the recorded rows are computed after it.

The coherence estimator is carried by the count difference between the
representative class and its phase-flipped class: rho_pm estimated from
the ensemble is (N0 - N0_PH)/N times a+ conj(a-), so the normalized
count difference is the direct Monte Carlo witness of recoherence.
"""

from __future__ import annotations

import math
from functools import cached_property
from dataclasses import dataclass, field

import numpy as np

from .errors import (DomainError, ProbabilityError, SpinBosonError,
                     StepError)
from .dynamics import DensityMatrix, _kernels
from .model import RateSet, SystemParams, rate_table, uniform_grid

# ensemble class codes
PSI0, PSI0_PH, PLUS, MINUS = 0, 1, 2, 3

#: largest ensemble a step can draw (numpy's multinomial takes int64 counts)
MAX_N_TRAJ = 2 ** 63 - 1

#: upper bound on dt * (|g1| + |g2| + 2 |g3|) for a first-order step
STEP_PROBABILITY_BOUND = 0.1

# --- counter-based randomness (SplitMix64) -------------------------------

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def member_uniforms(seed: int, step: int, members: np.ndarray) -> np.ndarray:
    """Uniforms in [0, 1), one per member index, for one time step.

    Pure function of (seed, step, member index): member streams never
    depend on evaluation order or batching.  The count-level engine does
    not call it; it stays public because perfbench/tracing.py wraps it
    by name.
    """
    base = _mix64((seed + _GOLDEN * (step + 1)) & _MASK64)
    z = (np.asarray(members, dtype=np.uint64) + np.uint64(1)) \
        * np.uint64(_GOLDEN) + np.uint64(base)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


# --- pure states and the deterministic drift -----------------------------

@dataclass(frozen=True)
class PureState:
    """Normalized amplitudes on the eigenbasis {psi_+, psi_-}."""

    a_plus: complex
    a_minus: complex

    def __post_init__(self) -> None:
        n = abs(self.a_plus) ** 2 + abs(self.a_minus) ** 2
        if not abs(n - 1.0) <= 1e-12:            # also catches NaN
            raise DomainError(f"state norm^2 = {n!r}, must be 1")

    @property
    def p_plus(self) -> float:
        return abs(self.a_plus) ** 2

    @property
    def p_minus(self) -> float:
        return abs(self.a_minus) ** 2


def equal_superposition() -> PureState:
    """The default initial state (|psi_+> + |psi_->)/sqrt(2)."""
    r = 1.0 / math.sqrt(2.0)
    return PureState(r, r)


def _drift(a_plus, a_minus, grow_plus, grow_minus, budget):
    """deterministic_step on bare amplitudes and precomputed factors."""
    if budget > STEP_PROBABILITY_BOUND:
        raise StepError(f"dt too large: dt*(|g1|+|g2|+2|g3|) = {budget:.3g} > "
                        f"{STEP_PROBABILITY_BOUND}")
    ap, am = a_plus * grow_plus, a_minus * grow_minus
    norm = math.sqrt(abs(ap) ** 2 + abs(am) ** 2)
    if not norm >= 1e-6:                        # also catches NaN
        raise StepError(f"pre-normalization norm {norm:.3g} < 1e-6")
    return ap / norm, am / norm


def deterministic_step(s: PureState, rates: RateSet, dt: float) -> PureState:
    """One no-jump drift step: non-Hermitian decay of the amplitudes.

    The drift uses the *signed* rates (a negative rate grows its
    amplitude back — that is the deterministic half of the reversed-jump
    scheme) and renormalizes.  The drift is diagonal: |psi_+> decays with
    gamma1 + gamma3 and |psi_-> with gamma2 + gamma3.
    """
    g1, g2, g3 = rates.gamma1, rates.gamma2, rates.gamma3
    return PureState(*_drift(s.a_plus, s.a_minus, 1.0 - 0.5 * dt * (g1 + g3),
                             1.0 - 0.5 * dt * (g2 + g3),
                             dt * (abs(g1) + abs(g2) + 2.0 * abs(g3))))


# --- ensemble step -------------------------------------------------------

#: destination of each ladder slot by origin class: forward channels 1, 2,
#: 3 for the representatives; for PLUS and MINUS the forward jump, then the
#: reversed jumps to PSI0, PSI0_PH and the other eigenstate; then "no jump"
_DESTINATIONS = ((MINUS, PLUS, PSI0_PH), (MINUS, PLUS, PSI0),
                 (MINUS, PSI0, PSI0_PH, MINUS), (PLUS, PSI0, PSI0_PH, PLUS))


def step_ensemble(counts: tuple[int, int, int, int], g1: float, g2: float,
                  g3: float, p_plus: float, p_minus: float, dt: float,
                  rng: np.random.Generator) -> tuple[int, int, int, int]:
    """One synchronized jump step of the whole ensemble; the new counts.

    Reversed-jump probabilities use the ``counts`` frozen at the step start.
    Each class with members and a non-zero ladder draws its moves as one
    multinomial over its zero-padded ladder, whose last slot ("no jump")
    numpy never reads, in class order.  Survivors' drift is not applied.
    """
    if g3 < 0.0:
        raise StepError(f"gamma3 = {g3!r} < 0: reversed dephasing jumps "
                        "are outside this scheme")
    n0, nph, npl, nmi = counts
    f1 = g1 * dt if g1 > 0.0 else 0.0
    f2 = g2 * dt if g2 > 0.0 else 0.0
    rep = (f1 * p_plus, f2 * p_minus, g3 * dt)
    plus, minus = (f1, 0.0, 0.0, 0.0), (f2, 0.0, 0.0, 0.0)
    # reversed jumps (negative rates): target class -> source class with
    # probability (N_source / N_target) |gamma| dt <source|C+C|source>
    if g2 < 0.0 and npl > 0:
        plus = (f1, (n0 / npl) * (-g2) * dt * p_minus,
                (nph / npl) * (-g2) * dt * p_minus, (nmi / npl) * (-g2) * dt)
    if g1 < 0.0 and nmi > 0:
        minus = (f2, (n0 / nmi) * (-g1) * dt * p_plus,
                 (nph / nmi) * (-g1) * dt * p_plus, (npl / nmi) * (-g1) * dt)
    ladder = (rep, rep, plus, minus)
    totals = [math.fsum(x) for x in ladder]
    for c, total in enumerate(totals):
        if total > 0.5:
            raise ProbabilityError(
                f"total jump probability {total:.3g} > 0.5 for class {c}; "
                "reduce dt")

    new = list(counts)
    for c, row in enumerate(ladder):
        if counts[c] == 0 or totals[c] == 0.0:
            continue
        moved = rng.multinomial(counts[c], np.array((*row, 0.0))).tolist()
        new[c] -= counts[c] - moved[-1]
        for dest, k in zip(_DESTINATIONS[c], moved):
            new[dest] += k
    return tuple(new)


# --- driver --------------------------------------------------------------

@dataclass(frozen=True)
class UnravelingSnapshot:
    """State of the run at one recorded grid time."""

    step: int
    t: float
    counts: tuple[int, int, int, int]
    psi0: PureState
    rho: DensityMatrix
    se_rho_pp: float
    se_re_rho_pm: float
    count_diff: float
    se_count_diff: float


@dataclass(frozen=True, eq=False)
class UnravelingResult:
    """A run's recorded rows as columns, and the ensemble size n_traj the
    fractions divide by; row k is the ensemble after step ``steps[k]``.
    The run's other inputs are not kept: the caller passed them."""

    n_traj: int
    steps: np.ndarray = field(repr=False)
    times: np.ndarray = field(repr=False)
    counts: np.ndarray = field(repr=False)
    fractions: np.ndarray = field(repr=False)
    a_plus: np.ndarray = field(repr=False)
    a_minus: np.ndarray = field(repr=False)
    rho_pp: np.ndarray = field(repr=False)
    rho_mm: np.ndarray = field(repr=False)
    rho_pm: np.ndarray = field(repr=False)
    se_rho_pp: np.ndarray = field(repr=False)
    se_re_rho_pm: np.ndarray = field(repr=False)
    count_diff: np.ndarray = field(repr=False)
    se_count_diff: np.ndarray = field(repr=False)

    @cached_property
    def snapshots(self) -> list[UnravelingSnapshot]:
        """The rows as UnravelingSnapshots, built when first read."""
        return [UnravelingSnapshot(k, t, tuple(c), PureState(ap, am),
                                   DensityMatrix(pp, mm, pm), *rest)
                for k, t, c, ap, am, pp, mm, pm, *rest in zip(*(
                    col.tolist() for col in (
                        self.steps, self.times, self.counts, self.a_plus,
                        self.a_minus, self.rho_pp, self.rho_mm, self.rho_pm,
                        self.se_rho_pp, self.se_re_rho_pm, self.count_diff,
                        self.se_count_diff)))]


def _columns(n: int, rows: list) -> dict[str, np.ndarray]:
    """UnravelingResult's columns from (step, counts, a_plus, a_minus) rows:
    rho = sum of (N_c/N) |phi_c><phi_c| and the plug-in standard errors in
    the scalar formulas' IEEE operations; raises DensityMatrix's errors."""
    steps, counts, ap, am = zip(*rows)
    counts = np.array(counts, dtype=np.int64)
    # c / n as Python divides ints; int64 / int rounds both above 2**53
    q = counts / n if n <= 2 ** 53 else \
        np.reshape([c / n for c in counts.ravel().tolist()], counts.shape)
    q0, qph, qp, qm = q.T
    # x ** 2 rounds as C pow does, which can differ from x * x
    pp, pm = (np.array([abs(x) ** 2 for x in a]) for a in (ap, am))
    ap, am = np.array(ap, dtype=float), np.array(am, dtype=float)
    rep, cd = q0 + qph, q0 - qph
    rho_pp, rho_mm = rep * pp + qp, rep * pm + qm
    # a+ conj(a-) of real amplitudes; the complex products leave +0.0 in
    # the imaginary part of rho_pm
    cross = ap * am
    rho_pm = np.zeros(len(cd), dtype=complex)
    rho_pm.real = cd * cross
    det = rho_pp * rho_mm - np.array([x ** 2 for x in rho_pm.real.tolist()])
    ok = (np.abs(rho_pp + rho_mm - 1.0) <= 1e-12) & (det >= -1e-10)
    for k in np.flatnonzero(~ok):
        DensityMatrix(float(rho_pp[k]), float(rho_mm[k]), complex(rho_pm[k]))
    var_pp = rep * pp * pp + qp - np.array([x ** 2 for x in rho_pp.tolist()])
    var_cd = rep - cd * cd
    se_cd = np.sqrt(np.where(var_cd > 0.0, var_cd, 0.0) / float(n))
    return {"steps": np.array(steps), "counts": counts, "fractions": q,
            "a_plus": ap, "a_minus": am, "rho_pp": rho_pp, "rho_mm": rho_mm,
            "rho_pm": rho_pm, "se_rho_pp": np.sqrt(
                np.where(var_pp > 0.0, var_pp, 0.0) / float(n)),
            "se_re_rho_pm": cross * se_cd, "count_diff": cd,
            "se_count_diff": se_cd}


def run_unraveling(p: SystemParams, n_traj: int, t_max: float, dt: float,
                   seed: int, stride: int = 1) -> UnravelingResult:
    """Evolve an ensemble of n_traj members from the equal superposition.

    Rows are recorded at t = 0 and every ``stride`` steps thereafter (the
    final time is always included).  A step is one step_ensemble call plus
    the representative's drift: count-level multinomial draws from a
    single PCG64 stream seeded with ``seed`` modulo 2**64, so a run costs
    the same for any n_traj up to MAX_N_TRAJ = 2**63 - 1 and is
    bit-identical for a given seed.

    The rates are first checked for a CP map, as in build_kernels.  Errors
    raised mid-run are re-raised with the failing time attached.
    """
    if not 100 <= n_traj <= MAX_N_TRAJ:
        raise DomainError(f"need 100 <= n_traj <= 2**63 - 1, got {n_traj}")
    if stride < 1:
        raise DomainError("stride must be >= 1")
    grid = uniform_grid(t_max, dt)
    n_steps = len(grid) - 1
    table = rate_table(p, grid)
    _kernels(grid, table)
    rng = np.random.Generator(np.random.PCG64(int(seed) & _MASK64))

    g1, g2, g3 = (table[k][:-1] for k in ("gamma1", "gamma2", "gamma3"))
    s = equal_superposition()
    ap, am, pp, pm = s.a_plus, s.a_minus, s.p_plus, s.p_minus
    counts = (n_traj, 0, 0, 0)
    rows = [(0, counts, ap, am)]
    try:
        for i, r1, r2, r3, budget, grow_p, grow_m in zip(
                range(n_steps), g1.tolist(), g2.tolist(), g3.tolist(),
                (dt * (np.abs(g1) + np.abs(g2) + 2.0 * np.abs(g3))).tolist(),
                (1.0 - 0.5 * dt * (g1 + g3)).tolist(),
                (1.0 - 0.5 * dt * (g2 + g3)).tolist()):
            try:
                counts = step_ensemble(counts, r1, r2, r3, pp, pm, dt, rng)
                ap, am = _drift(ap, am, grow_p, grow_m, budget)
            except (StepError, ProbabilityError) as err:
                raise type(err)(f"at t = {grid[i]:.6g}: {err}") from err
            pp, pm = abs(ap) ** 2, abs(am) ** 2
            if not abs(pp + pm - 1.0) <= 1e-12:
                PureState(ap, am)               # raises its norm error
            if sum(counts) != n_traj or min(counts) < 0:
                raise DomainError(f"counts {counts} do not sum to n={n_traj}")
            if (i + 1) % stride == 0 or i == n_steps - 1:
                rows.append((i + 1, counts, ap, am))
    except SpinBosonError:
        _columns(n_traj, rows)          # a recorded row's error comes first
        raise
    columns = _columns(n_traj, rows)
    return UnravelingResult(n_traj=n_traj, times=grid[columns["steps"]],
                            **columns)


def count_difference_series(result: UnravelingResult
                            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(times, (N0 - N0_PH)/N, standard error) of a run's recorded rows."""
    return result.times, result.count_diff, result.se_count_diff
