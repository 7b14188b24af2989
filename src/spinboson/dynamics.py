"""Density-matrix dynamics of the weak-coupling spin-boson model.

Two independent propagation routes are provided on purpose:

* :func:`build_kernels` + :func:`apply_map` — the analytic dynamical map.
  Its four kernel functions (eta, zeta, f, g) are cumulative integrals of
  the channel rates on a uniform grid, and the map acts elementwise on
  (rho_pp, rho_mm, rho_pm).
* :func:`ode_oracle` — direct Runge-Kutta integration of the dissipator
  built from the three channel operators lifted to a 4x4 superoperator.
  It shares nothing with the map construction beyond the rate functions
  themselves, so elementwise agreement of the two routes validates the
  kernel algebra (in particular the sign of the inner exponent in f, where
  a naive reading of the population kernel is unstable to typos).

The map works in the interaction picture: coherences carry no free
e^{-i omega0 t} rotation, matching the convention of the rate derivation.

Also here: the recoherence-region computation (where the coherence
magnitude grows) and the trace-distance non-Markovianity measure (maximum
information backflow over antipodal Bloch pairs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, GridError, StepError, ToleranceError
from .model import SystemParams, rate_table, uniform_grid

#: |eta| or |zeta| beyond which exp(+-kernel) leaves double range safely
_KERNEL_EXP_LIMIT = 600.0


@dataclass(frozen=True)
class DensityMatrix:
    """Two-level density matrix in the energy eigenbasis {psi_+, psi_-}.

    Stores the upper population, lower population, and the upper-right
    coherence; the lower-left coherence is implied by Hermiticity.
    """

    rho_pp: float
    rho_mm: float
    rho_pm: complex

    def __post_init__(self) -> None:
        if abs(self.rho_pp + self.rho_mm - 1.0) > 1e-12:
            raise DomainError(
                f"trace must be 1: rho_pp + rho_mm = {self.rho_pp + self.rho_mm!r}")
        for name, v in (("rho_pp", self.rho_pp), ("rho_mm", self.rho_mm)):
            if not -1e-12 <= v <= 1.0 + 1e-12:
                raise DomainError(f"{name} = {v!r} outside [0, 1]")

    def determinant(self) -> float:
        """det(rho) = rho_pp*rho_mm - |rho_pm|^2 (negative => unphysical)."""
        return self.rho_pp * self.rho_mm - abs(self.rho_pm) ** 2


@dataclass(frozen=True)
class KernelTable:
    """Kernel samples eta, zeta, f, g on a uniform time grid.

    Immutable after construction; all reads are thread-safe.  The identity
    g(t) = f(t) + e^{-eta(t)} holds pointwise by construction, which makes
    M(0) the identity and the population block column-stochastic.
    """

    grid: np.ndarray = field(repr=False)
    eta: np.ndarray = field(repr=False)
    zeta: np.ndarray = field(repr=False)
    f: np.ndarray = field(repr=False)
    g: np.ndarray = field(repr=False)


def _cumulative_simpson(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Bit for bit ``cumulative_simpson(y, x=x, initial=0.0)`` of scipy.

    Three-point Simpson on unequal intervals (Cartwright, J. Math. Sci.
    Math. Educ. 12(2), 1-9): even intervals from the triple they open, odd
    ones and the last from the triple they close; trapezoid below 3 points.
    """
    def opening(y: np.ndarray, dx: np.ndarray) -> np.ndarray:
        x21, x32 = dx[:-1], dx[1:]
        x21_x31 = x21/(x21 + x32)
        x21x21_x31x32 = x21_x31 * (x21/x32)
        coeff1, coeff2 = 3 - x21_x31, 3 + x21x21_x31x32 + x21_x31
        return x21/6 * (coeff1*y[:-2] + coeff2*y[1:-1] + -x21x21_x31x32*y[2:])

    dx = np.diff(x)
    if len(y) < 3:
        pieces = dx * (y[1:] + y[:-1]) / 2.0
    else:
        closing = opening(y[::-1], dx[::-1])[::-1]
        pieces = np.empty(len(dx))
        pieces[:-1:2] = opening(y, dx)[::2]
        pieces[1::2] = closing[::2]
        pieces[-1] = closing[-1]
    # + 0.0 is scipy's ``res += initial``, which turns -0.0 into +0.0
    return np.concatenate(([0.0], np.cumsum(pieces) + 0.0))


def build_kernels(p: SystemParams, t_max: float, h: float,
                  rates: dict[str, np.ndarray] | None = None) -> KernelTable:
    """Integrate the channel rates into the kernel table on a uniform grid.

    eta integrates gamma1 + gamma2; zeta integrates their half sum plus
    twice gamma3; f is the particular solution of the population equation
    driven by the upward rate,

        f(t) = e^{-eta(t)} * int_0^t gamma2(s) e^{+eta(s)} ds,

    (so that df/dt = -(gamma1+gamma2) f + gamma2 with f(0) = 0); and
    g = f + e^{-eta}.  All cumulative integrals use the three-point
    Simpson rule on unequal intervals over the shared grid (trapezoid
    below 3 points), matching ``scipy.integrate.cumulative_simpson``
    bit for bit.

    ``rates`` may carry a precomputed rate_table(p, grid) to avoid
    re-evaluating rates when the caller already has them.
    """
    grid = uniform_grid(t_max, h)
    r = rate_table(p, grid) if rates is None else rates
    if len(r["gamma1"]) != len(grid):
        raise GridError("precomputed rates do not match the grid")
    g12 = r["gamma1"] + r["gamma2"]
    eta = _cumulative_simpson(g12, grid)
    zeta = _cumulative_simpson(0.5 * g12 + 2.0 * r["gamma3"], grid)
    if np.max(np.abs(eta)) > _KERNEL_EXP_LIMIT or \
            np.max(np.abs(zeta)) > _KERNEL_EXP_LIMIT:
        raise ToleranceError("kernel exponent exceeds double-precision range; "
                             "reduce t_max or the coupling")
    exp_minus_eta = np.exp(-eta)
    f = exp_minus_eta * _cumulative_simpson(r["gamma2"] * np.exp(eta), grid)
    g = f + exp_minus_eta
    return KernelTable(grid=grid, eta=eta, zeta=zeta, f=f, g=g)


def apply_map(k: KernelTable, rho0: DensityMatrix, t: float) -> DensityMatrix:
    """Propagate rho0 to grid time t with the analytic map.

    Raises GridError for off-grid or non-finite t (no interpolation) and
    StepError if the result is unphysical (negative determinant beyond
    tolerance).
    """
    h = float(k.grid[1] - k.grid[0])
    i = int(round(t / h)) if math.isfinite(t) else -1
    if i < 0 or i >= len(k.grid) or abs(k.grid[i] - t) > 1e-9:
        raise GridError(f"t={t} is not on the kernel grid "
                        f"(step {h}, max {k.grid[-1]})")
    g, f = float(k.g[i]), float(k.f[i])
    rho = DensityMatrix(rho_pp=g * rho0.rho_pp + f * rho0.rho_mm,
                        rho_mm=(1.0 - g) * rho0.rho_pp + (1.0 - f) * rho0.rho_mm,
                        rho_pm=math.exp(-k.zeta[i]) * complex(rho0.rho_pm))
    if rho.determinant() < -1e-10:
        raise StepError(f"map output not positive at t={t}: "
                        f"det={rho.determinant():.3e}")
    return rho


def apply_map_series(k: KernelTable, rho0: DensityMatrix
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized apply_map over the whole kernel grid.

    Returns (rho_pp array, rho_pm complex array); rho_mm is 1 - rho_pp
    by trace preservation.
    """
    rho_pp = k.g * rho0.rho_pp + k.f * rho0.rho_mm
    rho_pm = np.exp(-k.zeta) * complex(rho0.rho_pm)
    return rho_pp, rho_pm


# --- ODE oracle ---------------------------------------------------------

# channel operators in the {psi_+, psi_-} basis
_SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]])
_SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]])
_SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
_IDENTITY2 = np.eye(2)
_IDENTITY4 = np.eye(4)

#: RK4 steps whose propagators are built together; bounds the (block, 4, 4)
#: temporaries independently of the trajectory length
_ODE_BLOCK_STEPS = 1024


def _lindblad_superoperator(c: np.ndarray) -> np.ndarray:
    """4x4 superoperator of C.rho.C+ - (C+C rho + rho C+C)/2 (row-major vec)."""
    cdc = c.conj().T @ c
    return (np.kron(c, c.conj())
            - 0.5 * np.kron(cdc, _IDENTITY2)
            - 0.5 * np.kron(_IDENTITY2, cdc.T))


#: the three channel superoperators, real for these real channel operators
_CHANNEL_SUPEROPS = np.stack([_lindblad_superoperator(c)
                              for c in (_SIGMA_MINUS, _SIGMA_PLUS, _SIGMA_Z)])


def ode_oracle(p: SystemParams, rho0: DensityMatrix, t_max: float,
               h: float) -> list[DensityMatrix]:
    """Integrate the three-channel dissipator directly with classical RK4.

    The generator at each time is assembled from the channel operators as
    a 4x4 superoperator with the time-dependent rates as coefficients; no
    kernel function enters.  Rates are sampled once on the half-step grid.
    For the linear equation, one RK4 step is the matrix

        P = I + h/6 (M0 + 2 K2 + 2 K3 + K4),   K2 = Mm (I + h/2 M0),
        K3 = Mm (I + h/2 K2),                  K4 = M1 (I + h K3),

    with M0, Mm, M1 the generators at the step's start, midpoint and end.
    The propagators are built batched, a block of steps at a time, and
    applied in sequence.  The trace is checked once over the finished
    trajectory: StepError names the first grid time where |tr - 1| exceeds
    1e-8 or is not a number.

    Returns the trajectory on the same grid build_kernels would use, as a
    list of DensityMatrix (index i is time i*h).
    """
    grid = uniform_grid(t_max, h)
    n = len(grid) - 1
    half_grid = np.arange(2 * n + 1) * (0.5 * h)
    r = rate_table(p, half_grid)
    coeffs = np.stack([r["gamma1"], r["gamma2"], r["gamma3"]], axis=1)

    v = np.empty((n + 1, 4), dtype=complex)
    v[0] = (rho0.rho_pp, rho0.rho_pm, complex(rho0.rho_pm).conjugate(),
            rho0.rho_mm)
    for start in range(0, n, _ODE_BLOCK_STEPS):
        stop = min(start + _ODE_BLOCK_STEPS, n)
        gens = (coeffs[2 * start:2 * stop + 1]
                @ _CHANNEL_SUPEROPS.reshape(3, 16)).reshape(-1, 4, 4)
        m0, mm, m1 = gens[:-1:2], gens[1::2], gens[2::2]
        k2 = mm @ (_IDENTITY4 + (0.5 * h) * m0)
        k3 = mm @ (_IDENTITY4 + (0.5 * h) * k2)
        k4 = m1 @ (_IDENTITY4 + h * k3)
        props = _IDENTITY4 + (h / 6.0) * (m0 + 2.0 * k2 + 2.0 * k3 + k4)
        for i, prop in enumerate(props, start):
            v[i + 1] = prop @ v[i]

    trace = v[:, 0].real + v[:, 3].real
    bad = np.flatnonzero(~(np.abs(trace - 1.0) <= 1e-8))  # also catches NaN
    if bad.size:
        i = bad[0]
        raise StepError(f"trace drifted to {float(trace[i])!r} at t={grid[i]}")
    return [DensityMatrix(rho_pp=pp, rho_mm=mm, rho_pm=pm)
            for pp, mm, pm in zip(v[:, 0].real.tolist(), v[:, 3].real.tolist(),
                                  v[:, 1].tolist())]


# --- recoherence regions -----------------------------------------------

def recoherence_mask(p: SystemParams, tgrid: np.ndarray,
                     ratios: np.ndarray) -> np.ndarray:
    """Boolean matrix of coherence growth: rows = epsilon/delta, cols = t.

    Entry (i, j) is True where d zeta/dt < 0 at ratio r_i and time t_j,
    i.e. where the coherence magnitude |rho_pm| grows for any initial
    state with nonzero coherence.  omega0 is held at p.omega0 for every
    row (epsilon and delta are recomputed per ratio), so the bare rates
    are computed once and only the channel weights vary.
    """
    tgrid = np.asarray(tgrid, dtype=float)
    ratios = np.asarray(ratios, dtype=float)
    if np.any(ratios < 0.0):
        raise DomainError("epsilon/delta ratios must be >= 0")
    base = rate_table(p, tgrid)
    gpm = base["gamma_plus"] + base["gamma_minus"]
    g0 = base["gamma_zero"]
    mask = np.empty((len(ratios), len(tgrid)), dtype=bool)
    for i, r in enumerate(ratios):
        r2 = r * r
        # d zeta/dt = eps^2/(2 w0^2) g0 + delta^2/(8 w0^2) (gp + gm)
        zdot = (r2 / (2.0 * (1.0 + r2))) * g0 + (1.0 / (8.0 * (1.0 + r2))) * gpm
        mask[i] = zdot < 0.0
    return mask


# --- the backflow measure ----------------------------------------------

def pair_directions(n: int) -> np.ndarray:
    """n Bloch directions defining antipodal pairs: axes + Fibonacci points.

    The three coordinate axes are always included so the exact extremal
    pairs (polar for population backflow, equatorial for coherence
    backflow) are in the set; the remainder quasi-uniformly covers the
    upper hemisphere via the Fibonacci lattice.
    """
    if n < 32:
        raise DomainError(f"need at least 32 pair directions, got {n}")
    axes = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    m = n - len(axes)
    i = np.arange(m)
    phi = math.pi * (3.0 - math.sqrt(5.0)) * i
    z = (i + 0.5) / m
    s = np.sqrt(1.0 - z * z)
    pts = np.stack([s * np.cos(phi), s * np.sin(phi), z], axis=1)
    return np.vstack([axes, pts])


def blp_measure(p: SystemParams, t_max: float, pair_samples: int = 64,
                h: float | None = None) -> float:
    """Trace-distance non-Markovianity: max integrated information backflow.

    For each antipodal pure pair +-n the trace distance is propagated with
    the analytic map, its time derivative sigma is formed by central
    differences, and the positive part is integrated with the trapezoid
    rule; the measure is the maximum over the sampled pairs.  The map sends
    the pair's difference to (e^{-eta} n_z, e^{-zeta} (n_x - i n_y)), since
    g - f = e^{-eta}, so the distance is
    sqrt(n_z^2 e^{-2 eta} + (n_x^2 + n_y^2) e^{-2 zeta}).

    ``h`` defaults to t_max/round(t_max/0.002) in units of 1/omega_c
    (the kernels vary on the 1/omega_c scale, so this oversamples).
    """
    if not math.isfinite(t_max):
        raise DomainError(f"t_max must be finite, got {t_max}")
    if h is None:
        h = t_max / max(2, round(t_max / (0.002 / p.omega_c)))
    k = build_kernels(p, t_max, h)
    pop, coh = np.exp(-2.0 * k.eta), np.exp(-2.0 * k.zeta)
    best = 0.0
    for nx, ny, nz in pair_directions(pair_samples):
        dist = np.sqrt(nz * nz * pop + (nx * nx + ny * ny) * coh)
        sigma = np.gradient(dist, k.grid)
        best = max(best, float(np.trapezoid(np.maximum(sigma, 0.0), k.grid)))
    return best
