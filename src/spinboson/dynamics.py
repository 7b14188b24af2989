"""Density-matrix dynamics of the weak-coupling spin-boson model.

Two independent propagation routes are provided on purpose:

* :func:`build_kernels` + :func:`apply_map_series` — the analytic
  dynamical map.  Its four kernel functions (eta, zeta, f, g) are
  cumulative integrals of the channel rates on a uniform grid, checked
  there for complete positivity, which negative rates can break; the
  map acts on (rho_pp, rho_pm) at every grid time.
* :func:`ode_oracle` — direct Runge-Kutta integration of the dissipator
  built from the three channel operators lifted to a 4x4 superoperator.
  It shares no code with the map construction, not even the rates: the
  map's come from rate_table's closed form, the oracle's from
  oracle_rates' quadrature of their defining integral.  So elementwise
  agreement of the two routes validates the rates and the kernel algebra
  (in particular the sign of the inner exponent in f, where a naive
  reading of the population kernel is unstable to typos).

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

from .errors import DomainError, StepError, ToleranceError
from .model import (SystemParams, channel_rates, integer, oracle_rates,
                    rate_table, uniform_grid)

#: |eta| or |zeta| beyond which exp(+-kernel) leaves double range safely
_KERNEL_EXP_LIMIT = 600.0


@dataclass(frozen=True, slots=True)
class DensityMatrix:
    """Two-level density matrix in the energy eigenbasis {psi_+, psi_-}.

    Stores the populations and the upper-right coherence (the lower-left
    is its conjugate); _check_states holds the rule that makes it a state.
    """

    rho_pp: float
    rho_mm: float
    rho_pm: complex

    def __post_init__(self) -> None:
        _check_states(self.rho_pp, self.rho_mm, self.rho_pm)


def _check_states(rho_pp, rho_mm, rho_pm) -> None:
    """DensityMatrix's rule, on one state or on arrays of them: DomainError
    at the first state whose trace is more than 1e-12 off 1, or else whose
    det rho_pp rho_mm - |rho_pm|^2 is below -1e-10 or not a number."""
    # arrays first: numpy squares a scalar by C pow, an array by x * x
    rho_pp, rho_mm, rho_pm = np.atleast_1d(rho_pp, rho_mm, rho_pm)
    trace = rho_pp + rho_mm
    det = rho_pp * rho_mm - np.abs(rho_pm) ** 2
    off = np.abs(trace - 1.0) > 1e-12
    bad = np.flatnonzero(off | ~(det >= -1e-10))
    if bad.size:
        k = bad[0]
        if off[k]:
            raise DomainError(
                f"trace must be 1: rho_pp + rho_mm = {float(trace[k])!r}")
        raise DomainError(f"state not positive: det = {float(det[k])!r}")


def _states(rho_pp, rho_mm, rho_pm) -> list[DensityMatrix]:
    """Equal-length arrays as DensityMatrix states: _check_states once over
    all, then each built as __init__ builds it, through the slot
    descriptors and without the check again."""
    _check_states(rho_pp, rho_mm, rho_pm)
    states = []
    new = object.__new__
    set_pp, set_mm, set_pm = (DensityMatrix.rho_pp.__set__,
                              DensityMatrix.rho_mm.__set__,
                              DensityMatrix.rho_pm.__set__)
    for pp, mm, pm in zip(rho_pp.tolist(), rho_mm.tolist(), rho_pm.tolist()):
        s = new(DensityMatrix)
        set_pp(s, pp)
        set_mm(s, mm)
        set_pm(s, pm)
        states.append(s)
    return states


@dataclass(frozen=True)
class KernelTable:
    """Kernel samples eta, zeta, f, g of a CP map on a uniform time grid.

    Read-only arrays: reads are thread-safe and a checked table cannot be
    edited.  g = f + e^{-eta} holds pointwise by construction, which makes
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
    scipy evaluates every opening and every closing triple, then keeps
    every other one; here only the kept triples are evaluated, in place on
    strided views, each product and sum of scipy's operands in its order.
    """
    def piece(x21, x32, f1, f2, f3, out: np.ndarray) -> None:
        """out := the integral over x21 of the triple (f1, f2, f3) spaced
        x21, x32: x21/6 (coeff1 f1 + coeff2 f2 + coeff3 f3), in place."""
        x21_x31 = np.divide(x21, np.add(x21, x32, out=out), out=out)
        x21x21_x31x32 = x21 / x32
        x21x21_x31x32 *= x21_x31
        coeff2 = 3 + x21x21_x31x32
        coeff2 += x21_x31
        np.multiply(np.subtract(3, x21_x31, out=out), f1, out=out)
        out += np.multiply(coeff2, f2, out=coeff2)
        coeff3 = np.negative(x21x21_x31x32, out=x21x21_x31x32)
        out += np.multiply(coeff3, f3, out=coeff3)
        out *= np.divide(x21, 6, out=coeff3)

    dx = np.diff(x)
    res = np.zeros(len(y))
    if len(y) < 3:
        pieces = dx * (y[1:] + y[:-1]) / 2.0
    else:
        even, odd, y1, y2, y3 = dx[:-1:2], dx[1::2], y[:-2:2], y[1:-1:2], y[2::2]
        pieces = np.empty(len(dx))
        piece(even, odd, y1, y2, y3, pieces[:-1:2])         # opening triples
        piece(odd, even, y3, y2, y1, pieces[1::2])          # closing triples
        piece(dx[-1:], dx[-2:-1], y[-1:], y[-2:-1], y[-3:-2], pieces[-1:])
    np.cumsum(pieces, out=res[1:])
    res += 0.0      # scipy's ``res += initial``, which turns -0.0 into +0.0
    return res


def build_kernels(p: SystemParams, t_max: float, h: float) -> KernelTable:
    """Integrate the channel rates into the kernel table on a uniform grid.

    eta integrates gamma1 + gamma2; zeta integrates their half sum plus
    twice gamma3; f is the particular solution of the population equation
    driven by the upward rate,

        f(t) = e^{-eta(t)} * int_0^t gamma2(s) e^{+eta(s)} ds,

    (so that df/dt = -(gamma1+gamma2) f + gamma2 with f(0) = 0); and
    g = f + e^{-eta}.  All cumulative integrals are _cumulative_simpson
    over the shared grid.

    The map is completely positive (CP) iff its Choi matrix is positive
    semidefinite (Choi, Linear Algebra Appl. 10, 285 (1975)): f >= 0,
    g <= 1 and e^{-2 zeta} <= g (1 - f), since g >= f as rounded gives
    0 <= f <= g <= 1.  StepError names the first grid time and condition
    failing by more than 1e-10 or not a number.
    """
    grid = uniform_grid(t_max, h)
    return _kernels(grid, rate_table(p, grid))


def _zeta_rate(r: dict[str, np.ndarray]) -> np.ndarray:
    """d zeta/dt = (gamma1 + gamma2)/2 + 2 gamma3, the coherence decay rate."""
    return 0.5 * (r["gamma1"] + r["gamma2"]) + 2.0 * r["gamma3"]


def _kernels(grid: np.ndarray, r: dict[str, np.ndarray]) -> KernelTable:
    """build_kernels on a grid and a rate table of it."""
    eta = _cumulative_simpson(r["gamma1"] + r["gamma2"], grid)
    zeta = _cumulative_simpson(_zeta_rate(r), grid)
    if np.max(np.abs(eta)) > _KERNEL_EXP_LIMIT or \
            np.max(np.abs(zeta)) > _KERNEL_EXP_LIMIT:
        # the exponent that passes the limit first, eta on a tie
        i, name, a = min(
            (int(np.argmax(np.abs(a) > _KERNEL_EXP_LIMIT)), name, a)
            for name, a in (("eta", eta), ("zeta", zeta))
            if np.max(np.abs(a)) > _KERNEL_EXP_LIMIT)
        raise ToleranceError(
            f"kernel exponent exceeds double-precision range: |{name}| "
            f"first exceeds {_KERNEL_EXP_LIMIT:g} at t={float(grid[i])}, "
            f"where {name} = {a[i]:.3e}; reduce t_max or the coupling")
    exp_minus_eta = np.exp(-eta)
    f = exp_minus_eta * _cumulative_simpson(r["gamma2"] * np.exp(eta), grid)
    g = f + exp_minus_eta
    # each margin is formed when its row is, and again only to be printed
    margins = {"f >= 0": lambda: f, "g <= 1": lambda: 1.0 - g,
               "exp(-2 zeta) <= g (1 - f)":
                   lambda: g * (1.0 - f) - np.exp(-2.0 * zeta)}
    ok = [m() >= -1e-10 for m in margins.values()]      # NaN fails
    ok_all = np.logical_and.reduce(ok)
    if not ok_all.all():
        i = int(np.argmin(ok_all))                  # the first failing time
        name = next(n for n, row in zip(margins, ok) if not row[i])
        raise StepError(f"map not completely positive at t={float(grid[i])}: "
                        f"{name} fails (margin {margins[name]()[i]:.3e})")
    for a in (grid, eta, zeta, f, g):
        a.flags.writeable = False
    return KernelTable(grid=grid, eta=eta, zeta=zeta, f=f, g=g)


def apply_map_series(k: KernelTable, rho0: DensityMatrix
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Propagate rho0 with the analytic map to every kernel grid time.

    Returns (rho_pp array, rho_pm complex array); rho_mm is 1 - rho_pp
    by trace preservation.  A CP table maps every state to a state.
    """
    return k.g * rho0.rho_pp + k.f * rho0.rho_mm, \
        np.exp(-k.zeta) * complex(rho0.rho_pm)


# --- ODE oracle ---------------------------------------------------------

# channel operators in the {psi_+, psi_-} basis
_SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]])
_SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]])
_SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
_IDENTITY2 = np.eye(2)
_IDENTITY4 = np.eye(4)

#: RK4 steps per block of a chain, whose scan costs about two 4x4 matmuls
#: a step in 2 log2(block) numpy calls; the block bounds the temporaries
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
    """Integrate the three-channel dissipator directly with RK4.

    The generator at each time is assembled from the channel operators as
    a 4x4 superoperator with the time-dependent rates as coefficients; no
    kernel function and no code of the map enters.  RK4 runs at step 2h
    on two interleaved chains, so every midpoint is a grid point: one
    over the even grid indices, one over the odd ones after an RK4 step of
    h from t = 0.  The rates come from oracle_rates, by quadrature rather
    than rate_table: one call on the grid, and one of a single step of h/2
    whose rows t = 0 and h/2 start that first step.  The states are
    checked once over the finished trajectory: StepError names the first
    grid time where |tr - 1| exceeds 1e-12, DensityMatrix's bound, or is
    not a number; then the first state that is not positive raises
    DensityMatrix's DomainError.

    Returns the trajectory on the same grid build_kernels would use, as a
    list of DensityMatrix (index i is time i*h).
    """
    grid = uniform_grid(t_max, h)
    n = len(grid) - 1
    coeffs = oracle_rates(p, n, h)
    v = np.empty((n + 1, 4), dtype=complex)
    v[0] = (rho0.rho_pp, rho0.rho_pm, complex(rho0.rho_pm).conjugate(),
            rho0.rho_mm)
    _rk4_chain(np.vstack((oracle_rates(p, 1, 0.5 * h), coeffs[1])), h, v[:2])
    _rk4_chain(coeffs, 2.0 * h, v[0::2])
    _rk4_chain(coeffs[1:], 2.0 * h, v[1::2])

    rho_pp, rho_mm, rho_pm = v[:, 0].real, v[:, 3].real, v[:, 1]
    trace = rho_pp + rho_mm
    bad = np.flatnonzero(~(np.abs(trace - 1.0) <= 1e-12))  # also catches NaN
    if bad.size:
        i = bad[0]
        raise StepError(f"trace drifted to {float(trace[i])!r} at t={grid[i]}")
    return _states(rho_pp, rho_mm, rho_pm)


def _rk4_chain(coeffs: np.ndarray, h: float, v: np.ndarray) -> None:
    """Fill v[1:] by RK4 steps of h from v[0], in place.

    coeffs[j] holds the channel rates at the chain's start time plus
    j h/2, for j = 0, 1, ..., 2 (len(v) - 1) at least.  For the linear
    equation, one RK4 step is the matrix

        P = I + h/6 (M0 + 2 K2 + 2 K3 + K4),   K2 = Mm (I + h/2 M0),
        K3 = Mm (I + h/2 K2),                  K4 = M1 (I + h K3),

    with M0, Mm, M1 the generators at the step's start, midpoint and end.
    The propagators are built batched, a block of steps at a time, and
    kept in identity-split form P = I + E.  An inclusive scan turns a
    block's E into cumulative products, later @ earlier, by
    (I + A)(I + B) = I + (A + B + AB); each state of the block is then
    v_start + E v_start.  The scan is Brent & Kung's (IEEE Trans. Comput.
    C-31, 260 (1982)), in place on disjoint strided views: the up-sweep
    leaves at index i the product of the 2d steps that end there, for
    every i + 1 a multiple of 2d, and the down-sweep completes the other
    prefixes from those, about 2 combines per step in all.  A scan of the
    plain P rounds the small increments against I at every level, which
    drifts the trace (README gives the figures).
    """
    n = len(v) - 1
    for start in range(0, n, _ODE_BLOCK_STEPS):
        stop = min(start + _ODE_BLOCK_STEPS, n)
        gens = (coeffs[2 * start:2 * stop + 1]
                @ _CHANNEL_SUPEROPS.reshape(3, 16)).reshape(-1, 4, 4)
        m0, mm, m1 = gens[:-1:2], gens[1::2], gens[2::2]
        k2 = mm @ (_IDENTITY4 + (0.5 * h) * m0)
        k3 = mm @ (_IDENTITY4 + (0.5 * h) * k2)
        k4 = m1 @ (_IDENTITY4 + h * k3)
        e = (h / 6.0) * (m0 + 2.0 * k2 + 2.0 * k3 + k4)
        d = 1
        while 2 * d <= len(e):                          # up-sweep
            _combine(e[2 * d - 1::2 * d], e[d - 1::2 * d])
            d *= 2
        while d > 1:                                    # down-sweep
            d //= 2
            _combine(e[3 * d - 1::2 * d], e[2 * d - 1::2 * d])
        v[start + 1:stop + 1] = v[start] + e @ v[start]


def _combine(later: np.ndarray, earlier: np.ndarray) -> None:
    """later[k] := later[k] + earlier[k] + later[k] @ earlier[k] in place,
    the I + E form of (I + later)(I + earlier); earlier may be one longer."""
    earlier = earlier[:len(later)]
    later += earlier + later @ earlier


# --- the epsilon/delta sweep -------------------------------------------

def _bias_sweep(p: SystemParams, grid: np.ndarray, ratios):
    """Yield the rate table on grid at each epsilon/delta in ratios, at p's
    omega0 and alpha: the bare rates depend on those two only, so p's own
    rate_table serves every ratio, weighted by its channel_rates.
    DomainError for a ratio below 0.
    """
    bare = rate_table(p, grid)
    for r in ratios:
        yield channel_rates(SystemParams.from_ratios(r, p.omega0, p.alpha),
                            bare)


def recoherence_mask(p: SystemParams, tgrid: np.ndarray,
                     ratios: np.ndarray) -> np.ndarray:
    """Boolean matrix of coherence growth: rows = epsilon/delta, cols = t.

    Entry (i, j) is True where d zeta/dt < 0 at ratio r_i and time t_j,
    i.e. where the coherence magnitude |rho_pm| grows for any initial
    state with nonzero coherence.  The rows are _bias_sweep's.
    """
    mask = np.empty((len(ratios), len(tgrid)), dtype=bool)
    for i, r in enumerate(_bias_sweep(p, tgrid, ratios)):
        mask[i] = _zeta_rate(r) < 0.0
    return mask


# --- the backflow measure ----------------------------------------------

def pair_directions(n: int) -> np.ndarray:
    """n Bloch directions defining antipodal pairs: axes + Fibonacci points.

    The three coordinate axes are always included so the exact extremal
    pairs (polar for population backflow, equatorial for coherence
    backflow) are in the set; the remainder quasi-uniformly covers the
    upper hemisphere via the Fibonacci lattice.
    """
    n = integer("n", n)
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


def _blp_step(t_max: float) -> float:
    """blp_measure's time step: t_max/round(t_max/0.002), at least two steps.

    The kernels vary over times of order 1/omega_c = 1, so this oversamples.
    """
    if not math.isfinite(t_max):
        raise DomainError(f"t_max must be finite, got {t_max}")
    return t_max / max(2, round(t_max / 0.002))


def blp_measure(p: SystemParams, t_max: float) -> float:
    """Trace-distance non-Markovianity: max integrated information backflow.

    For each antipodal pure pair +-n the trace distance is propagated with
    the analytic map, its time derivative sigma is formed by central
    differences, and the positive part is integrated with the trapezoid
    rule; the measure is the maximum over the 64 pairs of
    pair_directions(64).  The map sends the pair's difference to
    (e^{-eta} n_z, e^{-zeta} (n_x - i n_y)), since g - f = e^{-eta}, so
    the distance is sqrt(n_z^2 e^{-2 eta} + (n_x^2 + n_y^2) e^{-2 zeta}).
    """
    return _backflow(build_kernels(p, t_max, _blp_step(t_max)))


def blp_sweep(p: SystemParams, t_max: float, ratios):
    """Yield blp_measure at each epsilon/delta in ratios, on _bias_sweep's
    rows: each row's kernels pass build_kernels' complete-positivity check,
    and a row is computed when it is asked for.
    """
    grid = uniform_grid(t_max, _blp_step(t_max))
    for r in _bias_sweep(p, grid, ratios):
        yield _backflow(_kernels(grid, r))


def _backflow(k: KernelTable) -> float:
    """blp_measure's backflow on kernel table k: one pair at a time through
    np.gradient's formulas (first-order edges) and np.trapezoid's, in
    numpy's operation order, so bit for bit those two calls.  The grid
    terms, np.gradient's spacing test and its a, b, c coefficients among
    them, are worked out once per table, the coefficients only for a grid
    that is not exactly uniform.
    """
    pop, coh = np.exp(-2.0 * k.eta), np.exp(-2.0 * k.zeta)
    dx = np.diff(k.grid)
    uniform = (dx == dx[0]).all()       # np.gradient's scalar-step branch
    if not uniform:         # only that branch reads them; they may overflow
        dx1, dx2 = dx[:-1], dx[1:]
        a, b, c = (-dx2 / (dx1 * (dx1 + dx2)), (dx2 - dx1) / (dx1 * dx2),
                   dx1 / (dx2 * (dx1 + dx2)))
    dist, sigma = np.empty((2, len(dx) + 1))
    trap = np.empty(len(dx))
    inner, term = sigma[1:-1], trap[1:]
    best = 0.0
    for nx, ny, nz in pair_directions(64).tolist():
        np.multiply(nz * nz, pop, out=dist)
        np.multiply(nx * nx + ny * ny, coh, out=sigma)
        np.add(dist, sigma, out=dist)
        np.sqrt(dist, out=dist)
        if uniform:
            np.subtract(dist[2:], dist[:-2], out=inner)
            np.divide(inner, 2. * dx[0], out=inner)
        else:
            np.multiply(a, dist[:-2], out=inner)
            np.multiply(b, dist[1:-1], out=term)
            np.add(inner, term, out=inner)
            np.multiply(c, dist[2:], out=term)
            np.add(inner, term, out=inner)
        sigma[0] = (dist[1] - dist[0]) / dx[0]
        sigma[-1] = (dist[-1] - dist[-2]) / dx[-1]
        np.maximum(sigma, 0.0, out=sigma)
        np.add(sigma[1:], sigma[:-1], out=trap)
        np.multiply(dx, trap, out=trap)
        np.divide(trap, 2.0, out=trap)
        best = max(best, float(trap.sum()))
    return best
