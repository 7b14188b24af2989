"""Command-line front end: five computation commands emitting CSV data.

Commands
--------
rates            channel decay rates on a time grid (model.grid_rates)
evolve           analytic-map evolution of the standard initial state
unravel          Monte Carlo jump unraveling with error bands
recoherence-map  coherence-growth region over (time, epsilon/delta)
blp              trace-distance non-Markovianity measure + ratio table

Configuration is a flat ``key=value`` text file; every key is also a
command-line flag, flags override file values, and both are typed and
checked alike.  All times are in units of 1/omega_c; every CSV carries both
t and omega0*t columns.  Floats are written with 12 significant digits,
byte for byte as C's "%.12g" writes them (correctly rounded): rates,
evolve and unravel format their rows a chunk of values at a time with a
numpy formatter, _g12, which hands the few values off its fast path to
"%"; recoherence-map and blp format through _fmt.
Each ``cmd_*`` only computes, yielding its output text; ``main`` writes it,
to ``--out`` or, for ``blp``, to stdout.  Exit codes: 0 success,
2 configuration error (a bad time grid included), 3 numerical error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from .dynamics import (DensityMatrix, apply_map_series, blp_measure,
                       blp_sweep, build_kernels, recoherence_mask)
from .errors import ConfigError, GridError, SpinBosonError
# rate_table is not used here: it stays only because perfbench/tracing.py's
# TARGETS wraps it by name in cli (ROADMAP item 1 deletes the name together
# with its tracer entry)
from .model import (_BARE_RATES, SystemParams, channel_rates, grid_rates,
                    rate_table, uniform_grid)
from .nmqj import MAX_N_TRAJ, MIN_N_TRAJ, run_unraveling

#: epsilon/delta sweep of the recoherence map and the blp table
RATIO_GRID_STEP = 0.005
RATIO_GRID_MAX = 0.4
BLP_RATIOS = (0.0, 0.1, 0.2, 0.3)


@dataclass(frozen=True)
class RunConfig:
    """Effective parameters of one command invocation, checked when made."""

    epsilon_over_delta: float = 1.0 / (2.0 * math.sqrt(3.0))
    omega0_over_omegac: float = 10.0
    alpha: float = 0.01
    t_max: float = 50.0
    dt: float = 1e-3
    n_traj: int = 10000
    seed: int = 1
    output_path: str = ""
    emit_stride: int = 1
    workers: int = 1            # validated; no computation reads it

    def __post_init__(self) -> None:
        self.system_params()
        try:
            uniform_grid(self.t_max, self.dt)
        except GridError as err:
            raise ConfigError(f"bad time grid t_max={self.t_max}, "
                              f"dt={self.dt}: {err}") from err
        if not MIN_N_TRAJ <= self.n_traj <= MAX_N_TRAJ:
            raise ConfigError(f"n_traj {self.n_traj} not in "
                              f"{MIN_N_TRAJ}..{MAX_N_TRAJ}")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError(f"seed must fit in 64 bits, got {self.seed}")
        if self.emit_stride < 1:
            raise ConfigError(f"emit_stride must be >= 1, got {self.emit_stride}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if "\0" in self.output_path:
            raise ConfigError("output_path must not contain a NUL byte")
        # a value parse_config would split or strip
        if self.output_path.strip() != self.output_path or \
                len(self.output_path.splitlines()) > 1:
            raise ConfigError("output_path must not contain a line break or "
                              "start or end with whitespace")

    def system_params(self) -> SystemParams:
        try:
            return SystemParams.from_ratios(self.epsilon_over_delta,
                                            self.omega0_over_omegac, self.alpha)
        except SpinBosonError as err:
            raise ConfigError(str(err)) from err


#: each RunConfig key's value type, read off its default
_FIELD_TYPES = {f.name: type(f.default) for f in fields(RunConfig)}

#: command-line flags that are not "--" + the key with "-" for "_"
_FLAGS = {"output_path": "--out", "emit_stride": "--stride"}


def _flag(key: str) -> str:
    return _FLAGS.get(key, "--" + key.replace("_", "-"))


def _typed(key: str, text: str, context: str):
    """text as key's RunConfig type; a bad value is ConfigError(context)."""
    try:
        return _FIELD_TYPES[key](text)
    except ValueError as err:
        raise ConfigError(f"{context}: {text!r}") from err


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
        values[key] = _typed(key, val, f"line {lineno}: bad value for {key}")
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
    """command's defaults, then the file at path, then flags (None: unset)."""
    _, t_max, output_path = COMMANDS[command]
    base = {"t_max": t_max, "output_path": output_path}
    if path is not None:
        try:
            with open(path, encoding="utf-8-sig") as fh:
                base.update(parse_config(fh.read()))
        except (OSError, UnicodeDecodeError) as err:
            raise ConfigError(f"cannot read config file {path}: {err}") from err
    base.update({k: _typed(k, v, f"bad value for {_flag(k)}")
                 for k, v in overrides.items() if v is not None})
    return RunConfig(**base)


# --- CSV helpers ---------------------------------------------------------

def _fmt(v: float) -> str:
    return f"{v:.12g}"


#: values (not rows) formatted together by _csv_rows: 4,096 ran the
#: benchmark's figures ~4% faster but raised ensemble's peak RSS by
#: ~0.8 MB, against 0.4 at 2,048; 1,024 ran figures ~5% slower
_CSV_CHUNK_VALUES = 2048


@functools.cache
def _g12_tables():
    """_g12's constant tables, built on first use.

    A value's field is five 8-byte words: its sign and any "0.000" prefix;
    12 byte pairs, each a dot or 0 and then a digit or 0; its exponent
    suffix and then the separator.  Zero bytes are padding.  Index x + 11
    stands for the decimal exponent x, -11 <= x <= 33, of a 12-digit
    significand m.  Row (x + 11, minus, dot) of ``fields`` holds all but
    m's digits.  m has digits after the dot's place unless ``dotted``
    (10 ** their count) divides it.  ``digits`` holds the pairs of the
    four digits of 0..9999, then at 10000 + i those of i with its trailing
    zeros blanked.  ``mul`` is 10 ** (11 - x) for x <= 11 and 1 above;
    ``div`` is 10 ** (x - 11) for x >= 11 and 1 below.  Both are exact
    doubles, so |v| * mul / div rounds once.
    """
    fields, dotted = [], []
    for x in range(-11, 34):
        fixed = -4 <= x < 12                    # "%.12g" writes no exponent
        # digits always written before the dot, and the digit the dot
        # precedes (12: none among the pairs; "0.000" holds it for x < 0)
        lead = max(x + 1, 0) if fixed else 1
        dot = 12 if fixed and x < 0 else lead
        prefix = b"0." + b"0" * (-x - 1) if fixed and x < 0 else b""
        suffix = b"" if fixed else b"e%+03d" % x
        dotted.append(10 ** (12 - dot))
        for sign in (b"", b"-"):
            for has_dot in (False, True):
                body = bytearray(24)
                body[1:2 * lead:2] = b"0" * lead    # integer digits stay
                if has_dot and dot < 12:
                    body[2 * dot] = ord(".")
                fields.append((sign + prefix).ljust(8, b"\0") + body
                              + suffix.ljust(8, b"\0"))
    four = [f"{i:04d}" for i in range(10000)]
    digits = bytearray(160000)
    digits[1::2] = "".join(four + [d.rstrip("0").ljust(4, "\0")
                                   for d in four]).encode()
    powers = [float(10 ** j) for j in range(23)]
    return (np.frombuffer(b"".join(fields), np.uint64).reshape(-1, 5),
            np.array(dotted), np.frombuffer(digits, np.uint64),
            np.array(powers[::-1] + [1.0] * 22),
            np.array([1.0] * 22 + powers))


def _g12(values: np.ndarray) -> str:
    """The rows of a 2-D float64 array as CSV lines; each value's bytes are
    exactly "%.12g" % v, correctly rounded to 12 significant digits.

    The fast path takes finite, nonzero values whose exponent x =
    floor(log10|v|) lies in -11..33.  It scales |v| by 10 ** (11 - x), one
    correctly rounded operation, so the result c < 2**40 lies within 2**-14
    of the exact product, and keeps m = rint(c) when |c - m| < 0.4999 and
    m has 12 digits: m is then the correctly rounded significand.  Its
    digits and the exponent's fixed bytes come from _g12_tables, and
    bytes.translate drops the padding.  +-0.0 is m = 0 at x = 0, "0" or
    "-0".  Every other value (non-finite, near a rounding tie, out of
    range, or where log10 lands off by one) is formatted by "%.12g" % v.
    """
    fields, dotted, digits, mul, div = _g12_tables()
    v = values.ravel()
    a = np.abs(v)
    fast = np.isfinite(a) & (a != 0.0)
    a[~fast] = 1.0
    k = np.floor(np.log10(a)).astype(np.int64) + 11     # x + 11
    fast &= (k >= 0) & (k <= 44)
    a[~fast], k[~fast] = 1.0, 11
    a *= mul.take(k)
    a /= div.take(k)
    m = np.rint(a)
    fast &= (np.abs(a - m) < 0.4999) & (m >= 1e11) & (m < 1e12)
    m = np.where(fast, m, 0.0).astype(np.int64)
    k[~fast] = 11
    out = fields.take(4 * k + 2 * np.signbit(v) + (m % dotted.take(k) != 0),
                      axis=0)
    lo, mid, hi = m % 10000, m // 10000 % 10000, m // 100000000
    out[:, 3] |= digits.take(lo + 10000)
    out[:, 2] |= digits.take(mid + 10000 * (lo == 0))
    out[:, 1] |= digits.take(hi + 10000 * (lo + mid == 0))
    out.reshape(*values.shape, 5)[..., 4] |= np.frombuffer(
        b"\0\0\0\0,\0\0\0" * (values.shape[1] - 1) + b"\0\0\0\0\n\0\0\0",
        np.uint64)
    slow = ~fast & (v != 0.0)
    if slow.any():
        out[slow, :4] = np.array(["%.12g" % s for s in v[slow].tolist()],
                                 dtype="S32").view(np.uint64).reshape(-1, 4)
    del a, k, m, lo, mid, hi        # before the text's three copies
    return out.tobytes().translate(None, b"\0").decode("ascii")


def _csv_rows(header: list[str], columns, idx):
    """The header line, then rows idx of the column arrays as CSV text in
    chunks of whole rows, _CSV_CHUNK_VALUES values or fewer each, written
    by _g12: the same bytes as _fmt(v) for every value."""
    yield ",".join(header) + "\n"
    rows = max(1, _CSV_CHUNK_VALUES // len(columns))
    for start in range(0, len(idx), rows):
        chunk = idx[start:start + rows]
        yield _g12(np.stack([c[chunk] for c in columns], axis=1, dtype=float))


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


def _strided(n_rows: int, stride: int) -> np.ndarray:
    """Row indices 0, stride, 2*stride, ...; the last row always included."""
    # a stride past the last row may not fit np.arange's int64
    idx = np.arange(0, n_rows, min(stride, n_rows))
    return idx if (n_rows - 1) % stride == 0 else np.append(idx, n_rows - 1)


# --- commands: each yields its output text and writes nothing ------------

def cmd_rates(cfg: RunConfig):
    p = cfg.system_params()
    grid = uniform_grid(cfg.t_max, cfg.dt)
    bare = grid_rates(p, len(grid) - 1, cfg.dt)
    r = channel_rates(p, dict(zip(_BARE_RATES, bare.T)))
    yield from _csv_rows(["t", "omega0_t", *r],
                         [grid, p.omega0 * grid, *r.values()],
                         _strided(len(grid), cfg.emit_stride))


def _initial_state() -> DensityMatrix:
    """(|psi_+> + |psi_->)/sqrt(2) as a density matrix."""
    return DensityMatrix(rho_pp=0.5, rho_mm=0.5, rho_pm=0.5)


def cmd_evolve(cfg: RunConfig):
    p = cfg.system_params()
    k = build_kernels(p, cfg.t_max, cfg.dt)
    rho_pp, rho_pm = apply_map_series(k, _initial_state())
    # np.hypot rounds as the scalar abs does; np.abs on an array may not
    columns = [k.grid, p.omega0 * k.grid, rho_pp, rho_pm.real, rho_pm.imag,
               np.hypot(rho_pm.real, rho_pm.imag)]
    yield from _csv_rows(["t", "omega0_t", "rho_pp", "re_rho_pm", "im_rho_pm",
                          "abs_rho_pm"], columns,
                         _strided(len(k.grid), cfg.emit_stride))


def cmd_unravel(cfg: RunConfig):
    p = cfg.system_params()
    r = run_unraveling(p, cfg.n_traj, cfg.t_max, cfg.dt, cfg.seed,
                       stride=cfg.emit_stride)
    re, im = r.rho_pm.real, r.rho_pm.imag
    columns = [r.times, p.omega0 * r.times, r.rho_pp, re, im, np.hypot(re, im),
               *r.fractions.T, r.se_rho_pp, r.se_re_rho_pm, r.se_count_diff]
    yield from _csv_rows(["t", "omega0_t", "rho_pp", "re_rho_pm", "im_rho_pm",
                          "abs_rho_pm", "n0", "n0_ph", "n_plus", "n_minus",
                          "se_rho_pp", "se_re_rho_pm", "se_count_diff"],
                         columns, np.arange(len(r.times)))


def cmd_recoherence_map(cfg: RunConfig):
    p = cfg.system_params()
    grid = uniform_grid(cfg.t_max, cfg.dt)
    n_r = round(RATIO_GRID_MAX / RATIO_GRID_STEP)
    ratios = np.arange(n_r + 1) * RATIO_GRID_STEP
    mask = recoherence_mask(p, grid, ratios)
    idx = _strided(len(grid), cfg.emit_stride)
    # each time prefix and each ratio is formatted once, not once per row:
    # a ratio's rows are the prefixes interleaved with its two row ends
    parts = np.empty(2 * len(idx), dtype=object)
    parts[0::2] = [f"{_fmt(t)},{_fmt(w)}," for t, w in
                   zip(grid[idx].tolist(), (p.omega0 * grid)[idx].tolist())]
    ends = parts[1::2]
    yield "t,omega0_t,eps_over_delta,in_region\n"
    for r, row in zip(ratios.tolist(), mask):
        label = f"{_fmt(r)},"
        ends[...] = label + "0\n"
        ends[row[idx]] = label + "1\n"
        yield "".join(parts.tolist())


def cmd_blp(cfg: RunConfig):
    """blp_measure and its BLP_RATIOS table, seven lines.  Ignores dt,
    emit_stride and output_path (blp_measure picks its own step), but
    RunConfig still requires dt to divide t_max.
    """
    measure = blp_measure(cfg.system_params(), cfg.t_max)
    yield (f"blp_measure = {_fmt(measure)}  "
           f"(epsilon/delta = {_fmt(cfg.epsilon_over_delta)}, "
           f"omega0/omega_c = {_fmt(cfg.omega0_over_omegac)}, "
           f"alpha = {_fmt(cfg.alpha)}, t_max = {_fmt(cfg.t_max)})\n")
    yield "eps_over_delta,blp_measure\n"
    # ratio 0 puts omega0 at exactly omega0_over_omegac
    p0 = SystemParams.from_ratios(0.0, cfg.omega0_over_omegac, cfg.alpha)
    values = []
    for r, m in zip(BLP_RATIOS, blp_sweep(p0, cfg.t_max, BLP_RATIOS)):
        values.append(m)
        yield f"{_fmt(r)},{_fmt(m)}\n"
    mean = float(np.mean(values))
    spread = float(np.std(values) / mean) if mean > 0.0 else 0.0
    yield f"relative_spread = {_fmt(spread)}\n"


#: name -> (runner, default t_max, default output_path; "": stdout).  The
#: rate structure and all jump activity live at omega_c*t of order one;
#: long tails only pad the decay curves.
COMMANDS = {"rates": (cmd_rates, 50.0, "rates.csv"),
            "evolve": (cmd_evolve, 50.0, "evolve.csv"),
            "unravel": (cmd_unravel, 5.0, "unravel.csv"),
            "recoherence-map": (cmd_recoherence_map, 2.0,
                                "recoherence_map.csv"),
            "blp": (cmd_blp, 50.0, "")}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinboson", allow_abbrev=False,
        description="Weak-coupling spin-boson decay rates, dynamics, and "
                    "jump unraveling (all quantities in units of omega_c)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name, help=f"run the {name} computation",
                            allow_abbrev=False)
        sp.add_argument("--config", help="flat key=value config file")
        for key in _FIELD_TYPES:
            sp.add_argument(_flag(key), dest=key)   # load_config types it
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
    overrides = {key: getattr(args, key) for key in _FIELD_TYPES}
    try:
        cfg = load_config(args.config, overrides, args.command)
        runner, _, default_output = COMMANDS[args.command]
        if not default_output:
            try:
                for line in runner(cfg):
                    sys.stdout.write(line)
                sys.stdout.flush()
            except OSError as err:      # Python flushes stdout again at exit
                devnull = os.open(os.devnull, os.O_WRONLY)
                try:
                    os.dup2(devnull, sys.stdout.fileno())
                finally:
                    os.close(devnull)
                raise ConfigError(f"cannot write stdout: {err.strerror}") from err
            return 0
        with _csv_file(cfg.output_path) as write:
            n = -1                      # the header line is not a row
            for chunk in runner(cfg):
                write(chunk)
                n += chunk.count("\n")
        # stderr: the CSV itself may be going to stdout
        print(f"wrote {n} rows to {cfg.output_path}", file=sys.stderr)
        return 0
    except (ConfigError, GridError) as err:     # every grid is an input
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except SpinBosonError as err:
        print(f"numerical error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
