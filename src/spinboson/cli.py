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
import contextlib
import math
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from .dynamics import (DensityMatrix, apply_map_series, blp_measure,
                       build_kernels, recoherence_mask)
from .errors import ConfigError, GridError, SpinBosonError
from .model import SystemParams, rate_table, uniform_grid
from .nmqj import run_unraveling

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
        self.system_params()
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


#: rows gathered and formatted together by _csv_rows
_CSV_CHUNK_ROWS = 1024


def _csv_rows(columns, idx):
    """Rows idx of the column arrays as CSV text, _CSV_CHUNK_ROWS at a time;
    "%.12g" % v gives the same bytes as _fmt(v)."""
    line = ",".join(["%.12g"] * len(columns)) + "\n"
    idx = np.asarray(idx)
    for start in range(0, len(idx), _CSV_CHUNK_ROWS):
        chunk = idx[start:start + _CSV_CHUNK_ROWS]
        yield "".join([line % row for row in
                       zip(*(c[chunk].tolist() for c in columns))])


@contextlib.contextmanager
def _csv_file(path: str):
    """Open the CSV target before any numerical work; yield a write function.

    A new path or a regular file (symlinks resolved) is written through a
    temporary file beside it, which replaces it on success and is removed
    on any error, so a failed run leaves an existing file untouched.  Any
    other target, such as a device or a FIFO, is written in place.  An
    OSError from opening, writing or replacing is a ConfigError.
    """
    if not path:
        raise ConfigError("output_path must not be empty")
    if os.path.isdir(path):
        raise ConfigError(f"cannot write {path}: it is a directory")
    target, tmp = path, None
    if os.path.isfile(path) or not os.path.exists(path):
        target = os.path.realpath(path)
        head, name = os.path.split(target)
        tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")

    def checked(call, *args, **kwargs):
        try:
            return call(*args, **kwargs)
        except OSError as err:
            raise ConfigError(f"cannot write {path}: "
                              f"{err.strerror or err}") from err

    fh = checked(open, tmp or target, "w", encoding="utf-8", newline="\n")
    try:
        yield lambda text: checked(fh.write, text)
        checked(fh.close)
        if tmp:
            checked(os.replace, tmp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            fh.close()
        if tmp:
            with contextlib.suppress(OSError):
                os.remove(tmp)
        raise


def _write_csv(write, header: list[str], text) -> int:
    """Write the header and the text chunks; return the row count."""
    write(",".join(header) + "\n")
    n = 0
    for chunk in text:
        write(chunk)
        n += chunk.count("\n")
    return n


def _strided(n_rows: int, stride: int) -> range:
    """Row indices 0, stride, 2*stride, ...; the last row always included."""
    return range(0, n_rows, stride) if (n_rows - 1) % stride == 0 else \
        [*range(0, n_rows, stride), n_rows - 1]


# --- commands ------------------------------------------------------------

def cmd_rates(cfg: RunConfig, write) -> int:
    p = cfg.system_params()
    grid = uniform_grid(cfg.t_max, cfg.dt)
    r = rate_table(p, grid)
    names = ["gamma_plus", "gamma_minus", "gamma_zero", "gamma1", "gamma2",
             "gamma3"]
    columns = [grid, p.omega0 * grid, *(r[name] for name in names)]
    return _write_csv(write, ["t", "omega0_t", *names],
                      _csv_rows(columns, _strided(len(grid), cfg.emit_stride)))


def _initial_state() -> DensityMatrix:
    """(|psi_+> + |psi_->)/sqrt(2) as a density matrix."""
    return DensityMatrix(rho_pp=0.5, rho_mm=0.5, rho_pm=0.5)


def cmd_evolve(cfg: RunConfig, write) -> int:
    p = cfg.system_params()
    k = build_kernels(p, cfg.t_max, cfg.dt)
    rho_pp, rho_pm = apply_map_series(k, _initial_state())
    # np.hypot rounds as the scalar abs does; np.abs on an array may not
    columns = [k.grid, p.omega0 * k.grid, rho_pp, rho_pm.real, rho_pm.imag,
               np.hypot(rho_pm.real, rho_pm.imag)]
    idx = _strided(len(k.grid), cfg.emit_stride)
    return _write_csv(write,
                      ["t", "omega0_t", "rho_pp", "re_rho_pm", "im_rho_pm",
                       "abs_rho_pm"], _csv_rows(columns, idx))


def cmd_unravel(cfg: RunConfig, write) -> int:
    if cfg.n_traj < 100:
        raise ConfigError(f"n_traj must be >= 100 for unravel, got {cfg.n_traj}")
    p = cfg.system_params()
    r = run_unraveling(p, cfg.n_traj, cfg.t_max, cfg.dt, cfg.seed,
                       stride=cfg.emit_stride, workers=cfg.workers)
    re, im = r.rho_pm.real, r.rho_pm.imag
    columns = [r.times, p.omega0 * r.times, r.rho_pp, re, im, np.hypot(re, im),
               *r.fractions.T, r.se_rho_pp, r.se_re_rho_pm, r.se_count_diff]
    return _write_csv(write,
                      ["t", "omega0_t", "rho_pp", "re_rho_pm", "im_rho_pm",
                       "abs_rho_pm", "n0", "n0_ph", "n_plus", "n_minus",
                       "se_rho_pp", "se_re_rho_pm", "se_count_diff"],
                      _csv_rows(columns, range(len(r.times))))


def cmd_recoherence_map(cfg: RunConfig, write) -> int:
    p = cfg.system_params()
    grid = uniform_grid(cfg.t_max, cfg.dt)
    n_r = round(RATIO_GRID_MAX / RATIO_GRID_STEP)
    ratios = np.arange(n_r + 1) * RATIO_GRID_STEP
    mask = recoherence_mask(p, grid, ratios)
    idx = _strided(len(grid), cfg.emit_stride)
    # each time prefix and each ratio is formatted once, not once per row
    times = [f"{_fmt(t)},{_fmt(w)}," for t, w in
             zip(grid[idx].tolist(), (p.omega0 * grid)[idx].tolist())]
    labels = [f"{_fmt(r)}," for r in ratios.tolist()]
    return _write_csv(write,
                      ["t", "omega0_t", "eps_over_delta", "in_region"],
                      ("".join([f"{pre}{label}{m:d}\n" for pre, m in
                                zip(times, row[idx].tolist())])
                       for label, row in zip(labels, mask)))


def cmd_blp(cfg: RunConfig) -> int:
    """Print blp_measure and its BLP_RATIOS table.  Ignores dt, emit_stride
    and output_path (blp_measure's step is t_max/round(500*t_max*omega_c)),
    but RunConfig.validate still requires dt to divide t_max."""
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


#: the commands that write one CSV to output_path: (cfg, write) -> rows
_CSV_RUNNERS = {"rates": cmd_rates, "evolve": cmd_evolve,
                "unravel": cmd_unravel,
                "recoherence-map": cmd_recoherence_map}


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


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Join "--flag -1e-9" into "--flag=-1e-9" for any value float() reads.

    argparse takes a token such as -1e-9, -inf or -nan for an option name
    and stops with a usage error; attached, the value reaches validation.
    """
    out: list[str] = []
    for token in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] \
                and token.startswith("-"):
            try:
                float(token)
            except ValueError:
                pass
            else:
                out[-1] += "=" + token
                continue
        out.append(token)
    return out


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_attach_negative_values(argv))
    overrides = {f.name: getattr(args, f.name, None) for f in fields(RunConfig)}
    try:
        cfg = load_config(args.config, overrides, args.command)
        if args.command == "blp":
            return cmd_blp(cfg)
        with _csv_file(cfg.output_path) as write:
            n = _CSV_RUNNERS[args.command](cfg, write)
        # stderr: the CSV itself may be going to stdout
        print(f"wrote {n} rows to {cfg.output_path}", file=sys.stderr)
        return 0
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except SpinBosonError as err:
        print(f"numerical error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
