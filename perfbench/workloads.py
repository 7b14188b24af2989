"""The benchmark's three workloads: operations and their output checks.

Each operation calls spinboson's public API through module attributes
(``cli.main``, ``dynamics.ode_oracle``, ...) looked up at call time, so
the tracer's wrappers see every call.  ``run`` is the timed part; its
output is checked afterwards, outside the timed region, against the
tolerance of the acceptance criterion it mirrors.  A failed check raises
CheckFailed.

Defaults follow the CLI: epsilon/delta = 1/(2 sqrt 3), omega0/omega_c = 10,
alpha = 0.01, dt = 1e-3.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import spinboson.cli as cli
from spinboson import dynamics, model

FIG_RATIO = 1.0 / (2.0 * math.sqrt(3.0))
ALPHA = 0.01
DT = 1e-3

#: rows of a rates CSV compared against the quadrature oracle per run
RATE_ROWS_CHECKED = 24


class CheckFailed(Exception):
    """An operation's output is outside its acceptance tolerance."""


@dataclass
class Op:
    name: str
    run: Callable[[str], Any]        # run tag (unique per run) -> output
    check: Callable[[Any], dict]     # output -> work counts (csv_rows, ...)
    repeat: int = 1                  # runs per pass; the median is timed


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _cli(argv: list[str]) -> str:
    """Run one CLI command; returns its captured standard output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    if rc != 0:
        raise CheckFailed(f"spinboson {' '.join(argv)} exited with {rc}")
    return out.getvalue()


def _csv_op(name: str, argv: list[str], out_dir: Path,
            check: Callable[[np.ndarray], None], repeat: int = 1) -> Op:
    """A CLI command writing one CSV; the file is checked, then removed."""
    def run(tag: str) -> Path:
        path = out_dir / f"{name}-{tag}.csv"
        _cli([*argv, "--out", str(path)])
        return path

    def check_file(path: Path) -> dict:
        size = path.stat().st_size
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        path.unlink()
        check(data)
        return {"csv_rows": len(data), "csv_bytes": size}

    return Op(name, run, check_file, repeat)


def _superposition() -> dynamics.DensityMatrix:
    return dynamics.DensityMatrix(rho_pp=0.5, rho_mm=0.5, rho_pm=0.5)


# --- figures -------------------------------------------------------------

def _rates_check(y: float, rows: np.ndarray) -> Callable[[np.ndarray], None]:
    """Criterion 2 on sampled rows: bare rates vs quadrature, 1e-6 relative."""
    p = model.SystemParams.from_ratios(FIG_RATIO, y, ALPHA)
    reference: dict[tuple[int, int], float] = {}
    for i in rows:
        t = int(i) * DT
        for col, omega in ((2, p.omega0), (3, -p.omega0), (4, 0.0)):
            reference[int(i), col] = model.rates_quadrature(p, omega, t)

    def check(data: np.ndarray) -> None:
        _require(data.shape == (50_001, 8), f"rates shape {data.shape}")
        for (i, col), q in reference.items():
            closed = data[i, col]
            if abs(closed) <= 1e-8:
                continue
            _require(abs(q - closed) <= 1e-6 * abs(closed),
                     f"rates y={y:g} row {i} column {col}: {closed!r} vs "
                     f"quadrature {q!r}")
    return check


def _evolve_check() -> Callable[[np.ndarray], None]:
    """Criterion 5 on every row: map output vs the RK4 oracle, 1e-6."""
    reference: list[np.ndarray] = []

    def check(data: np.ndarray) -> None:
        _require(data.shape == (50_001, 6), f"evolve shape {data.shape}")
        if not reference:
            p = model.SystemParams.from_ratios(FIG_RATIO, 10.0, ALPHA)
            traj = dynamics.ode_oracle(p, _superposition(), 50.0, DT)
            reference.append(np.array([s.rho_pp for s in traj]))
            reference.append(np.array([s.rho_mm for s in traj]))
            reference.append(np.array([complex(s.rho_pm) for s in traj]))
        opp, omm, opm = reference
        worst = max(np.abs(data[:, 2] - opp).max(),
                    np.abs((1.0 - data[:, 2]) - omm).max(),
                    np.abs(data[:, 3] - opm.real).max(),
                    np.abs(data[:, 4] - opm.imag).max())
        _require(worst <= 1e-6,
                 f"evolve differs from ode_oracle by {worst:.3g}")
    return check


def _recoherence_check(data: np.ndarray) -> None:
    _require(data.shape == (81 * 2_001, 4),
             f"recoherence-map shape {data.shape}")
    _require(bool(np.isin(data[:, 3], (0.0, 1.0)).all()),
             "recoherence-map in_region is not 0/1")


def _blp_op() -> Op:
    def check(stdout: str) -> dict:
        lines = stdout.splitlines()
        start = lines.index("eps_over_delta,blp_measure") + 1
        values = [float(line.split(",")[1]) for line in lines[start:start + 4]]
        spread = float(np.std(values) / np.mean(values))
        # criterion 8: positive backflow, relative spread <= 5% over biases
        _require(min(values) > 0.0 and spread <= 0.05,
                 f"blp values {values}, relative spread {spread:.3g}")
        return {}
    return Op("blp", lambda tag: _cli(["blp"]), check)


def figures(seed: int, out_dir: Path) -> list[Op]:
    rng = np.random.default_rng(seed)
    rows = [rng.choice(np.arange(1, 50_001), RATE_ROWS_CHECKED, replace=False)
            for _ in range(2)]
    return [
        _csv_op("rates", ["rates"], out_dir, _rates_check(10.0, rows[0])),
        _csv_op("rates-hi", ["rates", "--omega0-over-omegac", "150"], out_dir,
                _rates_check(150.0, rows[1])),
        _csv_op("evolve", ["evolve"], out_dir, _evolve_check()),
        _csv_op("recoherence-map", ["recoherence-map"], out_dir,
                _recoherence_check),
        _blp_op(),
    ]


# --- ensemble ------------------------------------------------------------

def _unravel_op(name: str, n: int, stride: int, seed: int,
                out_dir: Path, repeat: int = 1) -> Op:
    """CLI unravel at t_max 5; criterion 6's 5/sqrt(N) band vs the map."""
    n_rows = 5_000 // stride + 1

    def check(data: np.ndarray) -> None:
        _require(data.shape == (n_rows, 13), f"{name} shape {data.shape}")
        p = model.SystemParams.from_ratios(FIG_RATIO, 10.0, ALPHA)
        k = dynamics.build_kernels(p, 5.0, DT)
        pp, pm = dynamics.apply_map_series(k, _superposition())
        steps = np.rint(data[:, 0] / DT).astype(int)
        worst = max(np.abs(data[:, 2] - pp[steps]).max(),
                    np.abs(data[:, 3] - pm[steps].real).max(),
                    np.abs(data[:, 4] - pm[steps].imag).max())
        band = 5.0 / math.sqrt(n)
        _require(worst <= band,
                 f"{name}: worst diff {worst:.3g} vs map > 5/sqrt(N) {band:.3g}")

    argv = ["unravel", "--n-traj", str(n), "--t-max", "5",
            "--stride", str(stride), "--seed", str(seed)]
    return _csv_op(name, argv, out_dir, check, repeat)


def ensemble(seed: int, out_dir: Path) -> list[Op]:
    seeds = np.random.default_rng(seed).integers(0, 2 ** 63, size=2)
    # ensemble makes one pass per run; three runs of the one-second
    # unravel-small make its median as steady as unravel's single run
    return [_unravel_op("unravel", 100_000, 50, int(seeds[0]), out_dir),
            _unravel_op("unravel-small", 1_000, 1, int(seeds[1]), out_dir,
                        repeat=3)]


# --- oracles -------------------------------------------------------------

def _verify_map(tag: str) -> float:
    """Criterion 5 at the figure bias: worst |map - RK4| on [0, 50]."""
    p = model.SystemParams.from_ratios(FIG_RATIO, 10.0, ALPHA)
    rho0 = _superposition()
    kernels = dynamics.build_kernels(p, 50.0, DT)
    pp, pm = dynamics.apply_map_series(kernels, rho0)
    traj = dynamics.ode_oracle(p, rho0, 50.0, DT)
    opp = np.array([s.rho_pp for s in traj])
    omm = np.array([s.rho_mm for s in traj])
    opm = np.array([complex(s.rho_pm) for s in traj])
    return float(max(np.abs(pp - opp).max(), np.abs((1.0 - pp) - omm).max(),
                     np.abs(pm - opm).max()))


def _verify_rates(tag: str) -> tuple[float, int]:
    """Criterion 2: closed-form table vs quadrature at 500 times x 3 rates."""
    p = model.SystemParams.from_ratios(FIG_RATIO, 10.0, ALPHA)
    ts = np.arange(1, 501) * 0.1
    table = model.rate_table(p, ts)
    worst, checked = 0.0, 0
    for i, t in enumerate(ts):
        for omega, key in ((p.omega0, "gamma_plus"),
                           (-p.omega0, "gamma_minus"), (0.0, "gamma_zero")):
            closed = float(table[key][i])
            if abs(closed) <= 1e-8:
                continue
            q = model.rates_quadrature(p, omega, float(t))
            worst = max(worst, abs(q - closed) / abs(closed))
            checked += 1
    return worst, checked


def _crossings(tag: str) -> dict[int, list[list[float]]]:
    """Zero crossings of channels 1 and 2 on (0, 50] at three biases."""
    return {ch: [model.sign_changes(
                     model.SystemParams.from_ratios(r, 10.0, ALPHA), ch, 50.0)
                 for r in (0.0, 0.1, 0.3)]
            for ch in (1, 2)}


def _check_map(worst: float) -> dict:
    _require(worst <= 1e-6, f"map vs ode_oracle worst diff {worst:.3g}")
    return {}


def _check_rates(result: tuple[float, int]) -> dict:
    worst, checked = result
    _require(worst <= 1e-6 and checked >= 1000,
             f"rates vs quadrature worst {worst:.3g} over {checked} values")
    return {}


def _check_crossings(sets: dict[int, list[list[float]]]) -> dict:
    # criterion 4: crossings bit-identical across biases, and present
    for ch, per_bias in sets.items():
        _require(len(per_bias[0]) > 0 and
                 per_bias[0] == per_bias[1] == per_bias[2],
                 f"channel {ch} crossings differ across biases or are empty")
    return {}


def oracles(seed: int, out_dir: Path) -> list[Op]:
    # The acceptance criteria fix these inputs; the seed changes nothing.
    return [Op("verify-map", _verify_map, _check_map),
            Op("verify-rates", _verify_rates, _check_rates),
            Op("crossings", _crossings, _check_crossings)]


WORKLOADS = {"figures": figures, "ensemble": ensemble, "oracles": oracles}
