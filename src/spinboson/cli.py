"""Command-line front end: five computation commands emitting CSV data.

Commands
--------
rates            channel decay rates on a time grid
evolve           analytic-map evolution of the standard initial state
unravel          Monte Carlo jump unraveling with error bands
recoherence-map  coherence-growth region over (time, epsilon/delta)
blp              trace-distance non-Markovianity measure + ratio table

Configuration is a flat ``key=value`` text file; every key is also a
command-line flag, and flags override file values.  All times are in
units of 1/omega_c; every CSV carries both t and omega0*t columns.
Floats are written with 12 significant digits.  Exit codes: 0 success,
2 configuration error, 3 numerical error.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from .dynamics import (DensityMatrix, apply_map_series, blp_measure,
                       build_kernels, recoherence_mask)
from .errors import ConfigError, GridError, SpinBosonError
from .model import SystemParams, rate_table, uniform_grid
from .nmqj import count_difference_series, run_unraveling

COMMANDS = ("rates", "evolve", "unravel", "recoherence-map", "blp")

#: per-command default time horizons (1/omega_c): the rate structure and
#: all jump activity live at omega_c*t of order one; long tails only pad
#: the decay curves.
DEFAULT_T_MAX = {"rates": 50.0, "evolve": 50.0, "unravel": 5.0,
                 "recoherence-map": 2.0, "blp": 50.0}

DEFAULT_OUTPUT = {"rates": "rates.csv", "evolve": "evolve.csv",
                  "unravel": "unravel.csv",
                  "recoherence-map": "recoherence_map.csv", "blp": ""}

#: epsilon/delta sweep of the recoherence map and the blp table
RATIO_GRID_STEP = 0.005
RATIO_GRID_MAX = 0.4
BLP_RATIOS = (0.0, 0.1, 0.2, 0.3)


@dataclass(frozen=True)
class RunConfig:
    """Effective parameters of one command invocation."""

    epsilon_over_delta: float = 1.0 / (2.0 * math.sqrt(3.0))
    omega0_over_omegac: float = 10.0
    alpha: float = 0.01
    t_max: float = 50.0
    dt: float = 1e-3
    n_traj: int = 10000
    seed: int = 1
    output_path: str = ""
    emit_stride: int = 1
    workers: int = 1

    def validate(self) -> None:
        if self.epsilon_over_delta < 0.0:
            raise ConfigError(
                f"epsilon_over_delta must be >= 0, got {self.epsilon_over_delta}")
        if self.omega0_over_omegac <= 0.0:
            raise ConfigError(
                f"omega0_over_omegac must be > 0, got {self.omega0_over_omegac}")
        if self.alpha < 0.0:
            raise ConfigError(f"alpha must be >= 0, got {self.alpha}")
        try:
            uniform_grid(self.t_max, self.dt)
        except GridError as err:
            raise ConfigError(f"bad time grid t_max={self.t_max}, "
                              f"dt={self.dt}: {err}") from err
        if self.n_traj < 1:
            raise ConfigError(f"n_traj must be >= 1, got {self.n_traj}")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError(f"seed must fit in 64 bits, got {self.seed}")
        if self.emit_stride < 1:
            raise ConfigError(f"emit_stride must be >= 1, got {self.emit_stride}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")

    def system_params(self) -> SystemParams:
        try:
            return SystemParams.from_ratios(self.epsilon_over_delta,
                                            self.omega0_over_omegac, self.alpha)
        except SpinBosonError as err:
            raise ConfigError(str(err)) from err


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def parse_config(text: str) -> dict:
    """Parse flat key=value lines into typed RunConfig values."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            if key == "output_path":
                values[key] = val
            elif key in ("n_traj", "seed", "emit_stride", "workers"):
                values[key] = int(val)
            else:
                values[key] = float(val)
        except ValueError as err:
            raise ConfigError(f"line {lineno}: bad value for {key}: {val!r}") \
                from err
    return values


def emit_config(cfg: RunConfig) -> str:
    """Inverse of parse_config: parse(emit(cfg)) reproduces cfg exactly."""
    lines = []
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        lines.append(f"{f.name}={v!r}" if isinstance(v, float)
                     else f"{f.name}={v}")
    return "\n".join(lines) + "\n"


def load_config(path: str | None, overrides: dict, command: str) -> RunConfig:
    base = {"t_max": DEFAULT_T_MAX[command],
            "output_path": DEFAULT_OUTPUT[command]}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                base.update(parse_config(fh.read()))
        except OSError as err:
            raise ConfigError(f"cannot read config file {path}: {err}") from err
    base.update({k: v for k, v in overrides.items() if v is not None})
    cfg = RunConfig(**base)
    cfg.validate()
    return cfg


# --- CSV helpers ---------------------------------------------------------

def _fmt(v: float) -> str:
    return f"{v:.12g}"


def _write_csv(path: str, header: list[str], rows) -> int:
    if not path:
        raise ConfigError("output_path must not be empty")
    n = 0
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
            n += 1
    return n


def _strided(n_rows: int, stride: int) -> range:
    """Row indices 0, stride, 2*stride, ...; the last row always included."""
    return range(0, n_rows, stride) if (n_rows - 1) % stride == 0 else \
        [*range(0, n_rows, stride), n_rows - 1]


# --- commands ------------------------------------------------------------

def cmd_rates(cfg: RunConfig) -> int:
    p = cfg.system_params()
    grid = uniform_grid(cfg.t_max, cfg.dt)
    r = rate_table(p, grid)
    idx = _strided(len(grid), cfg.emit_stride)
    rows = ((grid[i], p.omega0 * grid[i], r["gamma_plus"][i],
             r["gamma_minus"][i], r["gamma_zero"][i], r["gamma1"][i],
             r["gamma2"][i], r["gamma3"][i]) for i in idx)
    n = _write_csv(cfg.output_path,
                   ["t", "omega0_t", "gamma_plus", "gamma_minus",
                    "gamma_zero", "gamma1", "gamma2", "gamma3"], rows)
    print(f"wrote {n} rows to {cfg.output_path}")
    return 0


def _initial_state() -> DensityMatrix:
    """(|psi_+> + |psi_->)/sqrt(2) as a density matrix."""
    return DensityMatrix(rho_pp=0.5, rho_mm=0.5, rho_pm=0.5)


def cmd_evolve(cfg: RunConfig) -> int:
    p = cfg.system_params()
    k = build_kernels(p, cfg.t_max, cfg.dt)
    rho_pp, rho_pm = apply_map_series(k, _initial_state())
    idx = _strided(len(k.grid), cfg.emit_stride)
    rows = ((k.grid[i], p.omega0 * k.grid[i], rho_pp[i], rho_pm[i].real,
             rho_pm[i].imag, abs(rho_pm[i])) for i in idx)
    n = _write_csv(cfg.output_path,
                   ["t", "omega0_t", "rho_pp", "re_rho_pm", "im_rho_pm",
                    "abs_rho_pm"], rows)
    print(f"wrote {n} rows to {cfg.output_path}")
    return 0


def cmd_unravel(cfg: RunConfig) -> int:
    if cfg.n_traj < 100:
        raise ConfigError(f"n_traj must be >= 100 for unravel, got {cfg.n_traj}")
    p = cfg.system_params()
    result = run_unraveling(p, cfg.n_traj, cfg.t_max, cfg.dt, cfg.seed,
                            stride=cfg.emit_stride, workers=cfg.workers)
    rows = []
    for s in result.snapshots:
        q0, qph, qp, qm = (c / cfg.n_traj for c in s.counts)
        rows.append((s.t, p.omega0 * s.t, s.rho.rho_pp, s.rho.rho_pm.real,
                     s.rho.rho_pm.imag, abs(s.rho.rho_pm), q0, qph, qp, qm,
                     s.se_rho_pp, s.se_re_rho_pm, s.se_count_diff))
    n = _write_csv(cfg.output_path,
                   ["t", "omega0_t", "rho_pp", "re_rho_pm", "im_rho_pm",
                    "abs_rho_pm", "n0", "n0_ph", "n_plus", "n_minus",
                    "se_rho_pp", "se_re_rho_pm", "se_count_diff"], rows)
    print(f"wrote {n} rows to {cfg.output_path}")
    return 0


def cmd_recoherence_map(cfg: RunConfig) -> int:
    p = cfg.system_params()
    grid = uniform_grid(cfg.t_max, cfg.dt)
    n_r = round(RATIO_GRID_MAX / RATIO_GRID_STEP)
    ratios = np.arange(n_r + 1) * RATIO_GRID_STEP
    mask = recoherence_mask(p, grid, ratios)
    idx = _strided(len(grid), cfg.emit_stride)
    rows = ((grid[j], p.omega0 * grid[j], ratios[i], int(mask[i, j]))
            for i in range(len(ratios)) for j in idx)
    n = _write_csv(cfg.output_path,
                   ["t", "omega0_t", "eps_over_delta", "in_region"], rows)
    print(f"wrote {n} rows to {cfg.output_path}")
    return 0


def cmd_blp(cfg: RunConfig) -> int:
    p = cfg.system_params()
    measure = blp_measure(p, cfg.t_max)
    print(f"blp_measure = {_fmt(measure)}  "
          f"(epsilon/delta = {_fmt(cfg.epsilon_over_delta)}, "
          f"omega0/omega_c = {_fmt(cfg.omega0_over_omegac)}, "
          f"alpha = {_fmt(cfg.alpha)}, t_max = {_fmt(cfg.t_max)})")
    print("eps_over_delta,blp_measure")
    values = []
    for r in BLP_RATIOS:
        m = blp_measure(SystemParams.from_ratios(r, cfg.omega0_over_omegac,
                                                 cfg.alpha), cfg.t_max)
        values.append(m)
        print(f"{_fmt(r)},{_fmt(m)}")
    mean = float(np.mean(values))
    spread = float(np.std(values) / mean) if mean > 0.0 else 0.0
    print(f"relative_spread = {_fmt(spread)}")
    return 0


_RUNNERS = {"rates": cmd_rates, "evolve": cmd_evolve, "unravel": cmd_unravel,
            "recoherence-map": cmd_recoherence_map, "blp": cmd_blp}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinboson",
        description="Weak-coupling spin-boson decay rates, dynamics, and "
                    "jump unraveling (all quantities in units of omega_c)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name, help=f"run the {name} computation")
        sp.add_argument("--config", help="flat key=value config file")
        sp.add_argument("--epsilon-over-delta", type=float, dest="epsilon_over_delta")
        sp.add_argument("--omega0-over-omegac", type=float, dest="omega0_over_omegac")
        sp.add_argument("--alpha", type=float)
        sp.add_argument("--t-max", type=float, dest="t_max")
        sp.add_argument("--dt", type=float)
        sp.add_argument("--n-traj", type=int, dest="n_traj")
        sp.add_argument("--seed", type=int)
        sp.add_argument("--out", dest="output_path")
        sp.add_argument("--stride", type=int, dest="emit_stride")
        sp.add_argument("--workers", type=int)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {f.name: getattr(args, f.name, None) for f in fields(RunConfig)}
    try:
        cfg = load_config(args.config, overrides, args.command)
        return _RUNNERS[args.command](cfg)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except SpinBosonError as err:
        print(f"numerical error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
