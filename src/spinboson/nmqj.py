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
seed.

The coherence estimator is carried by the count difference between the
representative class and its phase-flipped class: rho_pm estimated from
the ensemble is (N0 - N0_PH)/N times a+ conj(a-), so the normalized
count difference is the direct Monte Carlo witness of recoherence.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ProbabilityError, StepError
from .dynamics import DensityMatrix, _check_states, _kernels, _states
# rate_table is not called here: perfbench/tracing.py wraps it by name in
# nmqj, as it does member_uniforms
from .model import (RateSet, SystemParams, integer, oracle_rates, rate_table,
                    uniform_grid)

# ensemble class codes
PSI0, PSI0_PH, PLUS, MINUS = 0, 1, 2, 3

#: ensemble sizes a run takes (numpy's multinomial takes int64 counts)
MIN_N_TRAJ, MAX_N_TRAJ = 100, 2 ** 63 - 1

#: upper bound on dt * (|g1| + |g2| + 2 |g3|) for a first-order step
STEP_PROBABILITY_BOUND = 0.1

#: steps whose rates and drift terms run_unraveling turns into Python floats
#: at once: the block bounds the floats its step loop holds
_BLOCK = 1024

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
    not call it, and the package does not export it; it stays here
    because perfbench/tracing.py wraps it by name.
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

@dataclass(frozen=True, slots=True)
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


def _drift_terms(g1, g2, g3, dt):
    """The drift's growth factors of a+ and a- and its budget, elementwise."""
    return (1.0 - 0.5 * dt * (g1 + g3), 1.0 - 0.5 * dt * (g2 + g3),
            dt * (abs(g1) + abs(g2) + 2.0 * abs(g3)))


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
    gamma1 + gamma3 and |psi_-> with gamma2 + gamma3.  DomainError unless
    dt is finite and > 0.
    """
    if not 0.0 < dt < math.inf:                 # also catches NaN
        raise DomainError(f"dt must be finite and > 0, got {dt!r}")
    return PureState(*_drift(s.a_plus, s.a_minus, *_drift_terms(
        rates.gamma1, rates.gamma2, rates.gamma3, dt)))


# --- ensemble step -------------------------------------------------------

def _jumps(counts: tuple[int, int, int, int], rep: np.ndarray, g1: float,
           g2: float, g3: float, p_plus: float, p_minus: float, dt: float,
           rng: np.random.Generator) -> tuple[int, int, int, int]:
    """One step's jumps at the step's rates; the new counts.

    Raises StepError first if gamma3 < 0.  Forms the forward probabilities
    f1 = max(gamma1, 0) dt and f2 = max(gamma2, 0) dt, writes the
    representatives' ladder (f1 p+, f2 p-, gamma3 dt, 0), at the step
    start's populations, into the 4-slot array ``rep``; f1, f2 are also
    the eigenstates' forward jumps.  Adds their reversed jumps (only where
    a rate is negative and the target class holds members), checks each
    class's total against the 0.5 budget in class order, then draws, in
    class order, each class with members and a non-zero ladder as one
    multinomial over its zero-padded ladder and the counts at the step
    start; numpy never reads the last ("no jump") slot.
    """
    if g3 < 0.0:
        raise StepError(f"gamma3 = {float(g3)!r} < 0: reversed dephasing "
                        "jumps are outside this scheme")
    f1, f2, g3_dt = (g1 * dt if g1 > 0.0 else 0.0,
                     g2 * dt if g2 > 0.0 else 0.0, g3 * dt)
    n0, nph, npl, nmi = counts
    r1, r2 = f1 * p_plus, f2 * p_minus
    rep[0], rep[1], rep[2] = r1, r2, g3_dt
    rep_total = math.fsum((r1, r2, g3_dt))
    # PLUS and MINUS: the forward jump, the reversed jumps to PSI0, PSI0_PH
    # and the other eigenstate, no jump.  A reversed jump takes a member
    # of the target class to a source class with probability
    # (N_source / N_target) |gamma| dt <source|C+C|source>
    plus, minus = (f1, 0.0, 0.0, 0.0, 0.0), (f2, 0.0, 0.0, 0.0, 0.0)
    plus_total, minus_total = f1, f2
    if g2 < 0.0 and npl > 0:
        plus = (f1, (n0 / npl) * (-g2) * dt * p_minus,
                (nph / npl) * (-g2) * dt * p_minus, (nmi / npl) * (-g2) * dt,
                0.0)
        plus_total = math.fsum(plus)
    if g1 < 0.0 and nmi > 0:
        minus = (f2, (n0 / nmi) * (-g1) * dt * p_plus,
                 (nph / nmi) * (-g1) * dt * p_plus, (npl / nmi) * (-g1) * dt,
                 0.0)
        minus_total = math.fsum(minus)
    if rep_total > 0.5 or plus_total > 0.5 or minus_total > 0.5:
        c, total = next(x for x in ((0, rep_total), (2, plus_total),
                                    (3, minus_total)) if x[1] > 0.5)
        # at frozen counts and rates the total is linear in dt, so a step
        # of dt 0.5 / total fits the budget; printed rounded down
        from decimal import ROUND_FLOOR, Context
        below = float(Context(3, ROUND_FLOOR).create_decimal(0.5 * dt / total))
        raise ProbabilityError(f"total jump probability {total:.3g} > 0.5 "
                               f"for class {c}; reduce dt below {below:.2e}")

    new = [n0, nph, npl, nmi]
    # PSI0 and PSI0_PH: channels 1 and 2 to MINUS and PLUS, channel 3 to
    # the other phase class
    if rep_total:
        if n0:
            to_minus, to_plus, to_flip, stay = \
                rng.multinomial(n0, rep).tolist()
            new[PSI0] -= n0 - stay
            new[MINUS] += to_minus
            new[PLUS] += to_plus
            new[PSI0_PH] += to_flip
        if nph:
            to_minus, to_plus, to_flip, stay = \
                rng.multinomial(nph, rep).tolist()
            new[PSI0_PH] -= nph - stay
            new[MINUS] += to_minus
            new[PLUS] += to_plus
            new[PSI0] += to_flip
    if npl and plus_total:
        forward, to_psi0, to_flip, back, stay = \
            rng.multinomial(npl, plus).tolist()
        new[PLUS] -= npl - stay
        new[MINUS] += forward + back
        new[PSI0] += to_psi0
        new[PSI0_PH] += to_flip
    if nmi and minus_total:
        forward, to_psi0, to_flip, back, stay = \
            rng.multinomial(nmi, minus).tolist()
        new[MINUS] -= nmi - stay
        new[PLUS] += forward + back
        new[PSI0] += to_psi0
        new[PSI0_PH] += to_flip
    return tuple(new)


def step_ensemble(counts: tuple[int, int, int, int], g1: float, g2: float,
                  g3: float, p_plus: float, p_minus: float, dt: float,
                  rng: np.random.Generator) -> tuple[int, int, int, int]:
    """One synchronized jump step of the whole ensemble; the new counts.

    The same _jumps call as each of run_unraveling's steps, with the
    gamma3 < 0 check, the ladder and the draws.  Survivors' drift is not
    applied.  DomainError unless counts are four integers >= 0, the rates
    are finite, the populations lie in [0, 1] and dt is finite and > 0.
    """
    counts = tuple(integer("counts", c) for c in counts)
    if len(counts) != 4 or min(counts) < 0:
        raise DomainError(f"counts must be four integers >= 0, got {counts}")
    if not (all(map(math.isfinite, (g1, g2, g3))) and 0.0 < dt < math.inf
            and 0.0 <= p_plus <= 1.0 and 0.0 <= p_minus <= 1.0):  # also NaN
        raise DomainError(f"need finite rates, populations in [0, 1] and dt "
                          f"> 0, got {(g1, g2, g3, p_plus, p_minus, dt)}")
    return _jumps(counts, np.zeros(4), g1, g2, g3, p_plus, p_minus, dt, rng)


# --- driver --------------------------------------------------------------

@dataclass(frozen=True, slots=True)
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
        rows = zip(*(col.tolist() for col in (
            self.steps, self.times, self.counts, self.a_plus, self.a_minus,
            self.se_rho_pp, self.se_re_rho_pm, self.count_diff,
            self.se_count_diff)))
        return [UnravelingSnapshot(k, t, tuple(c), PureState(ap, am), r, *rest)
                for r, (k, t, c, ap, am, *rest) in zip(
                    _states(self.rho_pp, self.rho_mm, self.rho_pm), rows)]


def _columns(n: int, rows: list) -> dict[str, np.ndarray]:
    """UnravelingResult's columns from (step, counts, a_plus, a_minus) rows:
    rho = sum of (N_c/N) |phi_c><phi_c| and the plug-in standard errors in
    the scalar formulas' IEEE operations; raises DensityMatrix's errors.

    A member's estimate x takes one value per class, so its variance is
    sum_{i<j} q_i q_j (x_i - x_j)^2 over the class fractions q: for rho_pp
    (x = p+ in the two representative classes, 1 in PLUS, 0 in MINUS)
    rep q+ (1 - p+)^2 + rep q- p+^2 + q+ q-, with rep = q0 + q0_ph, and
    for the count difference (x = +1, -1, 0, 0) 4 q0 q0_ph + rep (q+ + q-).
    Each term is >= 0, where E[x^2] - E[x]^2 cancels to a few digits once
    most members share one class."""
    steps, counts, ap, am = zip(*rows)
    counts = np.fromiter(itertools.chain.from_iterable(counts), np.int64,
                         count=4 * len(counts)).reshape(-1, 4)
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
    _check_states(rho_pp, rho_mm, rho_pm)
    var_pp = rep * qp * (1.0 - pp) ** 2 + rep * qm * pp * pp + qp * qm
    var_cd = 4.0 * q0 * qph + rep * (qp + qm)
    se_cd = np.sqrt(var_cd / float(n))
    return {"steps": np.array(steps), "counts": counts, "fractions": q,
            "a_plus": ap, "a_minus": am, "rho_pp": rho_pp, "rho_mm": rho_mm,
            "rho_pm": rho_pm, "se_rho_pp": np.sqrt(var_pp / float(n)),
            "se_re_rho_pm": cross * se_cd, "count_diff": cd,
            "se_count_diff": se_cd}


def _rows(grid: np.ndarray, table: dict[str, np.ndarray], n_traj: int,
          dt: float, stride: int, rng: np.random.Generator) -> list:
    """run_unraveling's recorded (step, counts, a_plus, a_minus) rows."""
    n_steps = len(grid) - 1
    g1, g2, g3 = (table[k][:-1] for k in ("gamma1", "gamma2", "gamma3"))
    s = equal_superposition()
    ap, am, counts = s.a_plus, s.a_minus, (n_traj, 0, 0, 0)
    rows, rep = [(0, counts, ap, am)], np.zeros(4)
    try:
        for lo in range(0, n_steps, _BLOCK):
            b = slice(lo, lo + _BLOCK)
            for i, r1, r2, r3, grow_p, grow_m, budget in zip(
                    range(lo, n_steps), g1[b].tolist(), g2[b].tolist(),
                    g3[b].tolist(), *(x.tolist() for x in _drift_terms(
                        g1[b], g2[b], g3[b], dt))):
                counts = _jumps(counts, rep, r1, r2, r3, abs(ap) ** 2,
                                abs(am) ** 2, dt, rng)
                ap, am = _drift(ap, am, grow_p, grow_m, budget)
                if sum(counts) != n_traj or min(counts) < 0:
                    raise DomainError(
                        f"counts {counts} do not sum to n={n_traj}")
                if (i + 1) % stride == 0 or i == n_steps - 1:
                    rows.append((i + 1, counts, ap, am))
    except (StepError, ProbabilityError) as err:
        raise type(err)(f"at t = {grid[i]:.6g}: {err}") from err
    return rows


def run_unraveling(p: SystemParams, n_traj: int, t_max: float, dt: float,
                   seed: int, stride: int = 1) -> UnravelingResult:
    """Evolve an ensemble of n_traj members from the equal superposition.

    Rows are recorded at t = 0 and every ``stride`` steps thereafter (the
    final time is always included).  The channel rates on the grid come
    from one oracle_rates call, the quadrature ode_oracle also takes its
    rates from, so no E1 is evaluated; they are first checked for a CP
    map, as in build_kernels.  A step is step_ensemble's _jumps call on
    the step's rates and the representative's populations at the step
    start, then the representative's drift, then the count check; a block
    of steps gets its rates and drift terms as lists before its step loop.
    Each error raises at its own step, re-raised with the failing time
    attached: at a step, gamma3 < 0 first, then the jump budgets in class
    order, then the drift, then the counts.
    """
    n_traj, seed, stride = (integer("n_traj", n_traj), integer("seed", seed),
                            integer("stride", stride))
    if not MIN_N_TRAJ <= n_traj <= MAX_N_TRAJ:
        raise DomainError(f"need {MIN_N_TRAJ} <= n_traj <= 2**63 - 1, "
                          f"got {n_traj}")
    if stride < 1:
        raise DomainError("stride must be >= 1")
    grid = uniform_grid(t_max, dt)
    table = dict(zip(("gamma1", "gamma2", "gamma3"),
                     oracle_rates(p, len(grid) - 1, dt).T))
    _kernels(grid, table)
    rng = np.random.Generator(np.random.PCG64(seed & _MASK64))
    columns = _columns(n_traj, _rows(grid, table, n_traj, dt, stride, rng))
    return UnravelingResult(n_traj=n_traj, times=grid[columns["steps"]],
                            **columns)


def count_difference_series(result: UnravelingResult
                            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(times, (N0 - N0_PH)/N, standard error) of a run's recorded rows."""
    return result.times, result.count_diff, result.se_count_diff
