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
draws one multinomial over its jump ladder plus "no jump".  That has the
same law as one uniform per member, and a step costs the same whatever
the ensemble size.  A run draws from one PCG64 stream seeded with the
seed reduced modulo 2**64; results are bit-identical for a given seed.

The coherence estimator is carried by the count difference between the
representative class and its phase-flipped class: rho_pm estimated from
the ensemble is (N0 - N0_PH)/N times a+ conj(a-), so the normalized
count difference is the direct Monte Carlo witness of recoherence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ProbabilityError, StepError
from .dynamics import DensityMatrix
from .model import RateSet, SystemParams, rate_table, uniform_grid

# ensemble class codes
PSI0, PSI0_PH, PLUS, MINUS = 0, 1, 2, 3
N_CLASSES = 4

#: largest ensemble a step can draw (numpy's multinomial takes int64 counts)
_INT64_MAX = 2 ** 63 - 1

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
        if abs(n - 1.0) > 1e-12:
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


def deterministic_step(s: PureState, rates: RateSet, dt: float) -> PureState:
    """One no-jump drift step: non-Hermitian decay of the amplitudes.

    The drift uses the *signed* rates (a negative rate grows its
    amplitude back — that is the deterministic half of the reversed-jump
    scheme) and renormalizes.  The drift is diagonal: |psi_+> decays with
    gamma1 + gamma3 and |psi_-> with gamma2 + gamma3.
    """
    budget = dt * (abs(rates.gamma1) + abs(rates.gamma2) + 2.0 * abs(rates.gamma3))
    if budget > STEP_PROBABILITY_BOUND:
        raise StepError(f"dt too large: dt*(|g1|+|g2|+2|g3|) = {budget:.3g} > "
                        f"{STEP_PROBABILITY_BOUND}")
    ap = s.a_plus * (1.0 - 0.5 * dt * (rates.gamma1 + rates.gamma3))
    am = s.a_minus * (1.0 - 0.5 * dt * (rates.gamma2 + rates.gamma3))
    norm = math.sqrt(abs(ap) ** 2 + abs(am) ** 2)
    if norm < 1e-6:
        raise StepError(f"pre-normalization norm {norm:.3g} < 1e-6")
    return PureState(ap / norm, am / norm)


# --- ensemble ------------------------------------------------------------

@dataclass(frozen=True)
class EnsembleState:
    """Counts over the four classes plus the shared representative."""

    counts: tuple[int, int, int, int]
    psi0: PureState
    n: int

    def __post_init__(self) -> None:
        if sum(self.counts) != self.n or min(self.counts) < 0:
            raise DomainError(f"counts {self.counts} do not sum to n={self.n}")

    @classmethod
    def initial(cls, n: int, psi0: PureState | None = None) -> "EnsembleState":
        return cls(counts=(n, 0, 0, 0),
                   psi0=psi0 if psi0 is not None else equal_superposition(),
                   n=n)


def _class_ladders(counts: tuple[int, ...], psi0: PureState, rates: RateSet,
                   dt: float) -> list[list[tuple[float, int]]]:
    """Per-class jump ladders: lists of (event probability, destination).

    A member of class c fires the k-th event of its ladder with the k-th
    probability; with the remaining probability it takes the deterministic
    drift instead.  Event order is fixed (forward channels 1, 2, 3, then
    reversed events by source registry order) so sampling is
    reproducible.  Counts are the frozen start-of-step values.
    """
    g1, g2, g3 = rates.gamma1, rates.gamma2, rates.gamma3
    if g3 < 0.0:
        raise StepError(f"gamma3 = {g3!r} < 0: reversed dephasing jumps "
                        "are outside this scheme")
    pp, pm = psi0.p_plus, psi0.p_minus
    events: list[list[tuple[float, int]]] = [[] for _ in range(N_CLASSES)]

    # forward jumps (positive rates)
    for origin in (PSI0, PSI0_PH):
        if g1 > 0.0:
            events[origin].append((g1 * dt * pp, MINUS))
        if g2 > 0.0:
            events[origin].append((g2 * dt * pm, PLUS))
        if g3 > 0.0:
            events[origin].append((g3 * dt, PSI0_PH if origin == PSI0 else PSI0))
    if g1 > 0.0:
        events[PLUS].append((g1 * dt, MINUS))
    if g2 > 0.0:
        events[MINUS].append((g2 * dt, PLUS))
    # sigma_z on PLUS/MINUS is a global phase: no event.

    # reversed jumps (negative rates): target class -> source class with
    # probability (N_source / N_target) |gamma| dt <source|C+C|source>
    if g1 < 0.0 and counts[MINUS] > 0:
        for src, w in ((PSI0, pp), (PSI0_PH, pp), (PLUS, 1.0)):
            events[MINUS].append(
                ((counts[src] / counts[MINUS]) * (-g1) * dt * w, src))
    if g2 < 0.0 and counts[PLUS] > 0:
        for src, w in ((PSI0, pm), (PSI0_PH, pm), (MINUS, 1.0)):
            events[PLUS].append(
                ((counts[src] / counts[PLUS]) * (-g2) * dt * w, src))

    for c, ladder in enumerate(events):
        total = math.fsum(p for p, _ in ladder)
        if total > 0.5:
            raise ProbabilityError(
                f"total jump probability {total:.3g} > 0.5 for class {c}; "
                "reduce dt")
    return events


def step_ensemble(e: EnsembleState, rates: RateSet, dt: float,
                  rng: np.random.Generator) -> EnsembleState:
    """One synchronized step of the whole ensemble.

    Each non-empty class draws its moves as one multinomial over
    [p_1..p_K, 1 - sum p] from its ladder, in class order; counts on the
    right-hand side of reversed-jump probabilities are frozen at the step
    start; survivors take the deterministic drift, which only the shared
    representative carries.
    """
    ladders = _class_ladders(e.counts, e.psi0, rates, dt)
    new_counts = list(e.counts)
    for c, ladder in enumerate(ladders):
        if e.counts[c] == 0 or not ladder:
            continue
        probs = [p for p, _ in ladder]
        moved = rng.multinomial(e.counts[c], [*probs, 1.0 - math.fsum(probs)])
        for (_, dest), k in zip(ladder, moved.tolist()):
            new_counts[c] -= k
            new_counts[dest] += k
    return EnsembleState(counts=tuple(new_counts),
                         psi0=deterministic_step(e.psi0, rates, dt), n=e.n)


def ensemble_density(e: EnsembleState) -> DensityMatrix:
    """Ensemble-averaged density matrix: sum of (N_c/N) |phi_c><phi_c|.

    The two representative classes contribute coherence with opposite
    signs, so rho_pm carries the factor (N0 - N0_PH)/N.
    """
    q0, qph, qp, qm = (c / e.n for c in e.counts)
    pp, pm = e.psi0.p_plus, e.psi0.p_minus
    cross = complex(e.psi0.a_plus) * complex(e.psi0.a_minus).conjugate()
    return DensityMatrix(rho_pp=(q0 + qph) * pp + qp,
                         rho_mm=(q0 + qph) * pm + qm,
                         rho_pm=(q0 - qph) * cross)


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


@dataclass(frozen=True)
class UnravelingResult:
    """Snapshots plus the run's defining parameters."""

    params: SystemParams
    n_traj: int
    dt: float
    seed: int
    stride: int
    workers: int
    snapshots: list[UnravelingSnapshot] = field(repr=False)

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.snapshots])


def _snapshot(step: int, t: float, e: EnsembleState) -> UnravelingSnapshot:
    q0, qph, qp, qm = (c / e.n for c in e.counts)
    rho = ensemble_density(e)
    # plug-in standard errors of the per-member estimators
    pp = e.psi0.p_plus
    var_pp = max(0.0, (q0 + qph) * pp * pp + qp - rho.rho_pp ** 2)
    cd = q0 - qph
    var_cd = max(0.0, (q0 + qph) - cd * cd)
    cross = abs(complex(e.psi0.a_plus) * complex(e.psi0.a_minus).conjugate())
    return UnravelingSnapshot(
        step=step, t=t, counts=e.counts, psi0=e.psi0,
        rho=rho, se_rho_pp=math.sqrt(var_pp / e.n),
        se_re_rho_pm=cross * math.sqrt(var_cd / e.n),
        count_diff=cd, se_count_diff=math.sqrt(var_cd / e.n))


def run_unraveling(p: SystemParams, n_traj: int, t_max: float, dt: float,
                   seed: int, stride: int = 1, workers: int = 1,
                   psi0: PureState | None = None) -> UnravelingResult:
    """Evolve an ensemble of n_traj members and record periodic snapshots.

    Snapshots are taken at t = 0 and every ``stride`` steps thereafter
    (the final time is always included).  Every step is one
    step_ensemble call: count-level multinomial draws from a single
    PCG64 stream seeded with ``seed`` modulo 2**64, so a run costs the
    same for any n_traj up to 2**63 - 1 and is bit-identical for a given
    seed.  ``workers`` is validated (>= 1) and recorded on the result
    but has no effect.

    Errors raised mid-run are re-raised with the failing time attached.
    """
    if not 100 <= n_traj <= _INT64_MAX:
        raise DomainError(f"need 100 <= n_traj <= 2**63 - 1, got {n_traj}")
    if stride < 1 or workers < 1:
        raise DomainError("stride and workers must be >= 1")
    grid = uniform_grid(t_max, dt)
    n_steps = len(grid) - 1
    table = rate_table(p, grid)
    seed = int(seed) & _MASK64
    rng = np.random.Generator(np.random.PCG64(seed))

    e = EnsembleState.initial(n_traj, psi0)
    snaps = [_snapshot(0, 0.0, e)]
    for i in range(n_steps):
        rates = RateSet(t=float(grid[i]),
                        gamma_plus=float(table["gamma_plus"][i]),
                        gamma_minus=float(table["gamma_minus"][i]),
                        gamma_zero=float(table["gamma_zero"][i]),
                        gamma1=float(table["gamma1"][i]),
                        gamma2=float(table["gamma2"][i]),
                        gamma3=float(table["gamma3"][i]))
        try:
            e = step_ensemble(e, rates, dt, rng)
        except (StepError, ProbabilityError) as err:
            raise type(err)(f"at t = {grid[i]:.6g}: {err}") from err
        if (i + 1) % stride == 0 or i == n_steps - 1:
            snaps.append(_snapshot(i + 1, float(grid[i + 1]), e))
    return UnravelingResult(params=p, n_traj=n_traj, dt=dt, seed=seed,
                            stride=stride, workers=workers, snapshots=snaps)


def count_difference_series(result: UnravelingResult
                            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(times, (N0 - N0_PH)/N, standard error) from a run's snapshots."""
    t = result.times
    cd = np.array([s.count_diff for s in result.snapshots])
    se = np.array([s.se_count_diff for s in result.snapshots])
    return t, cd, se
