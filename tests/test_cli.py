"""CLI tests: config handling, CSV emission, exit codes, determinism."""

import argparse
import collections
import contextlib
import dataclasses
import hashlib
import io
import math
import os
import pathlib
import stat
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spinboson
import spinboson.cli as cli
from spinboson import (ConfigError, DomainError, RateSet, StepError,
                       SystemParams)
from spinboson.cli import (BLP_RATIOS, COMMANDS, RATIO_GRID_MAX,
                           RATIO_GRID_STEP, RunConfig, _fmt, _initial_state,
                           _strided, build_parser, emit_config, load_config,
                           main, parse_config)
from spinboson.dynamics import (apply_map_series, build_kernels,
                                recoherence_mask)
from spinboson.model import channel_rates, grid_rates
from spinboson.nmqj import run_unraveling

FIG_PARAMS = SystemParams.from_ratios(1.0 / (2.0 * math.sqrt(3.0)), 10.0, 0.01)


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def column(rows, header, name):
    i = header.index(name)
    return np.array([float(r[i]) for r in rows])


# --- config round trip -----------------------------------------------------

@given(st.text())
@example("out/run.csv")
@example(" x.csv")
@example("a\nb.csv")
@example("a\x85b.csv")
@example("my run.csv")
def test_config_emit_parse_round_trip(path):
    # an output path either round-trips exactly or is rejected when made
    try:
        cfg = RunConfig(epsilon_over_delta=1.0 / (2.0 * math.sqrt(7.0)),
                        omega0_over_omegac=9.5, alpha=0.012345678901234,
                        t_max=7.5, dt=2.5e-4, n_traj=12345, seed=987654321,
                        output_path=path, emit_stride=17, workers=3)
    except ConfigError:
        return
    assert RunConfig(**parse_config(emit_config(cfg))) == cfg


def test_config_parser_accepts_comments_and_blanks():
    values = parse_config("# a comment\n\n  alpha = 0.02 \nseed=7\n")
    assert values == {"alpha": 0.02, "seed": 7}


@pytest.mark.parametrize("text", [
    "not_a_key=1",
    "alpha=0.01\nalpha=0.02",
    "alpha=abc",
    "just some words",
    "n_traj=1.5",
])
def test_config_parser_rejects_bad_lines(text):
    with pytest.raises(ConfigError, match="line"):
        parse_config(text)


@pytest.mark.parametrize("field,value", [
    ("epsilon_over_delta", -0.1),
    ("epsilon_over_delta", math.nan),
    ("epsilon_over_delta", math.inf),
    ("omega0_over_omegac", 0.0),
    ("omega0_over_omegac", math.nan),
    ("omega0_over_omegac", math.inf),
    ("alpha", -1e-9),
    ("t_max", 0.0),
    ("t_max", math.nan),
    ("t_max", math.inf),
    ("t_max", 1e300),                 # grid beyond the point cap
    ("dt", 1e-300),
    ("dt", -1e-3),
    ("dt", 0.3),                      # does not divide t_max=50
    ("n_traj", 0),
    ("n_traj", 99),                   # every command, not only unravel
    ("n_traj", 2 ** 63),
    ("seed", -1),
    ("seed", 1 << 64),
    ("emit_stride", 0),
    ("workers", 0),
])
def test_config_validation(field, value):
    with pytest.raises(ConfigError, match=field.split("_")[0]):
        RunConfig(**{field: value})


def test_config_defaults_per_command():
    for command, (_, t_max, output_path) in COMMANDS.items():
        cfg = load_config(None, {}, command)
        assert cfg.t_max == t_max
        assert cfg.output_path == output_path


def test_config_flag_overrides_file(tmp_path):
    f = tmp_path / "run.cfg"
    f.write_text("alpha=0.04\nt_max=3.0\n")
    cfg = load_config(str(f), {"alpha": 0.07, "seed": None}, "rates")
    assert cfg.alpha == 0.07          # flag wins
    assert cfg.t_max == 3.0           # file beats the command default
    assert cfg.seed == 1              # absent flags change nothing


def test_config_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        load_config("/nonexistent/path.cfg", {}, "rates")


def test_config_system_params_errors_become_config_errors():
    with pytest.raises(ConfigError):
        RunConfig(omega0_over_omegac=301.0).system_params()


@pytest.mark.parametrize("command", COMMANDS)
def test_flag_table_is_run_config(command):
    # each command takes --config plus exactly one flag per RunConfig
    # field; "--flag <default>" parses to the string, which load_config
    # types back to the default (--n-traj 10000 gives the int 10000)
    sub, = (a for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction))
    flags = {a.dest: a.option_strings for a in sub.choices[command]._actions
             if a.dest not in ("help", "config")}
    defaults = {f.name: f.default for f in dataclasses.fields(RunConfig)}
    assert flags.keys() == defaults.keys()
    for key, default in defaults.items():
        flag, = flags[key]
        text = getattr(build_parser().parse_args([command, flag, str(default)]),
                       key)
        assert text == str(default), flag
        value = getattr(load_config(None, {key: text}, command), key)
        assert value == default and type(value) is type(default), flag


# --- CSV helpers -----------------------------------------------------------

def test_fmt_uses_twelve_significant_digits():
    assert _fmt(1.0 / 3.0) == "0.333333333333"
    assert _fmt(0.5) == "0.5"
    assert _fmt(1.23456789e-7) == "1.23456789e-07"


def test_strided_always_includes_last_row():
    assert list(_strided(11, 3)) == [0, 3, 6, 9, 10]
    assert list(_strided(10, 3)) == [0, 3, 6, 9]
    assert list(_strided(5, 1)) == [0, 1, 2, 3, 4]
    assert list(_strided(7, 100)) == [0, 6]


def test_strided_takes_a_stride_beyond_int64():
    # --stride is a Python int; np.arange would overflow on 2**63
    assert list(_strided(7, 2 ** 63)) == [0, 6]


@pytest.mark.parametrize("command,bound", [("rates", 96), ("evolve", 128),
                                           ("unravel", 540)])
def test_command_peak_memory_per_grid_point(command, bound):
    # drained after a warm-up: rates at 50,001 rows holds its grid, six
    # rate columns and omega0 t; evolve at most 16 arrays (112 and 168 B a
    # point with the row indices built through Python ints and the
    # kernels' full-grid temporaries); unravel at 5,001 rows of 13 columns
    # peaks at 500 B a point in the unraveling, and formatting
    # _CSV_CHUNK_VALUES rows (13 times as many values) at once fails it
    cfg = RunConfig(n_traj=1000, t_max=5.0) if command == "unravel" \
        else RunConfig()

    def drain():
        collections.deque(COMMANDS[command][0](cfg), maxlen=0)
    drain()
    tracemalloc.start()
    try:
        drain()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (round(cfg.t_max / cfg.dt) + 1) <= bound


def _percent_lines(rows) -> str:
    return "".join(",".join("%.12g" % v for v in row) + "\n" for row in rows)


def _beside(values, ulps: int = 3) -> list[float]:
    """values and the doubles up to ulps steps below and above each"""
    lo = hi = np.array(values, dtype=float)
    out = [lo]
    for _ in range(ulps):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        out += [lo, hi]
    return np.concatenate(out).tolist()


#: zeros, the extremes, the non-finite values; each power of ten from
#: 1e-30 to 1e30 (where log10 may land off by one), the notation switches
#: at 1e-5/1e-4 and 1e11/1e12, and 12th-digit rounding ties, with their
#: neighbouring doubles
G12_CASES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
             1.7976931348623157e308, -1.7976931348623157e308, math.nan,
             -math.nan, math.inf, -math.inf] + _beside(
    [float(f"1e{k}") for k in range(-30, 31)]
    + [9.999999999995e-06, 9.99999999999e-05, 9.999999999995e-05,
       99999999999.95, 99999999999.5, 999999999999.0, 999999999999.5,
       123456789012.5, 1.000000000005, -2.000000000005e-3, 1.5e-12,
       2.5e33])


@pytest.mark.parametrize("columns", [1, 3])
def test_g12_matches_percent_format_on_edge_cases(columns):
    values = np.array(G12_CASES[:len(G12_CASES) // columns * columns])
    rows = values.reshape(-1, columns)
    assert cli._g12(rows) == _percent_lines(rows.tolist())


def _from_bits(bits: int) -> float:
    return float(np.array(bits, dtype=np.uint64).view(np.float64))


@settings(max_examples=300)
@given(st.lists(st.floats() | st.integers(0, 2 ** 64 - 1).map(_from_bits),
                min_size=1, max_size=24))
def test_g12_matches_percent_format(values):
    # any doubles, NaN, infinities and subnormals included, and raw bit
    # patterns, as one column and as one row
    column = np.array(values)[:, None]
    assert cli._g12(column) == _percent_lines(column.tolist())
    assert cli._g12(column.T) == _percent_lines(column.T.tolist())


#: a chunk's rows of three columns
_ROWS = cli._CSV_CHUNK_VALUES // 3


@pytest.mark.parametrize("n,stride", [(0, 1), (1, 1), (_ROWS - 1, 1),
                                      (_ROWS, 1), (_ROWS + 1, 1),
                                      (7 * _ROWS + 3, 7)])
def test_csv_rows_across_chunk_boundaries(n, stride):
    # rows of three columns: none, one, a chunk's rows - 1, + 0 and + 1,
    # and a stride whose last row is appended
    rng = np.random.default_rng(n)
    columns = [rng.standard_normal(n) * 10.0 ** rng.integers(-40, 40, n)
               for _ in range(3)]
    columns[1][::7] = 0.0
    idx = _strided(n, stride) if n else np.arange(0)
    assert stride == 1 or (n - 1) % stride != 0
    text = "".join(cli._csv_rows(["a", "b", "c"], columns, idx))
    assert text == "a,b,c\n" + _percent_lines(
        zip(*(c[idx].tolist() for c in columns)))


# --- CSV bytes: each file rebuilt one value at a time from library arrays --

def csv_text(header, rows):
    return ",".join(header) + "\n" + "".join(
        ",".join(f"{v:.12g}" for v in row) + "\n" for row in rows)


def engine_table(p, n, h):
    """The rates command's table: grid_rates' bare columns, weighted."""
    return channel_rates(p, dict(zip(("gamma_plus", "gamma_minus",
                                      "gamma_zero"), grid_rates(p, n, h).T)))


@pytest.mark.parametrize("t_max,dt,stride", [(2.0, 0.001, 1),   # > 1 chunk
                                             (1.0, 0.01, 7),    # last appended
                                             (20.0, 0.01, 3)])  # far rows
def test_rates_csv_bytes(tmp_path, t_max, dt, stride):
    out = tmp_path / "r.csv"
    assert main(["rates", "--t-max", str(t_max), "--dt", str(dt),
                 "--stride", str(stride), "--out", str(out)]) == 0
    grid = np.arange(round(t_max / dt) + 1) * dt
    r = engine_table(FIG_PARAMS, len(grid) - 1, dt)
    names = ["gamma_plus", "gamma_minus", "gamma_zero", "gamma1", "gamma2",
             "gamma3"]
    rows = [(grid[i], FIG_PARAMS.omega0 * grid[i], *(r[n][i] for n in names))
            for i in _strided(len(grid), stride)]
    assert len(rows) > 1024 or (len(grid) - 1) % stride != 0
    assert out.read_text() == csv_text(["t", "omega0_t", *names], rows)


def test_evolve_csv_bytes(tmp_path):
    out = tmp_path / "e.csv"
    assert main(["evolve", "--t-max", "5", "--stride", "3",
                 "--out", str(out)]) == 0
    k = build_kernels(FIG_PARAMS, 5.0, 0.001)
    rho_pp, rho_pm = apply_map_series(k, _initial_state())
    rows = [(k.grid[i], FIG_PARAMS.omega0 * k.grid[i], rho_pp[i],
             rho_pm[i].real, rho_pm[i].imag, abs(rho_pm[i]))
            for i in _strided(len(k.grid), 3)]
    assert out.read_text() == csv_text(
        ["t", "omega0_t", "rho_pp", "re_rho_pm", "im_rho_pm", "abs_rho_pm"],
        rows)


def test_recoherence_map_csv_bytes(tmp_path):
    out = tmp_path / "m.csv"
    assert main(["recoherence-map", "--t-max", "1", "--stride", "7",
                 "--out", str(out)]) == 0
    grid = np.arange(1001) * 0.001
    ratios = np.arange(81) * 0.005
    mask = recoherence_mask(FIG_PARAMS, grid, ratios)
    assert mask.any() and not mask.all()
    rows = [(grid[j], FIG_PARAMS.omega0 * grid[j], ratios[i], int(mask[i, j]))
            for i in range(len(ratios)) for j in _strided(len(grid), 7)]
    assert out.read_text() == csv_text(
        ["t", "omega0_t", "eps_over_delta", "in_region"], rows)


def test_unravel_csv_bytes(tmp_path):
    out = tmp_path / "u.csv"
    assert main(["unravel", "--alpha", "0.05", "--n-traj", "100000",
                 "--t-max", "1", "--stride", "20", "--seed", "7",
                 "--out", str(out)]) == 0
    p = SystemParams.from_ratios(1.0 / (2.0 * math.sqrt(3.0)), 10.0, 0.05)
    result = run_unraveling(p, 100000, 1.0, 0.001, 7, stride=20)
    rows = [(s.t, p.omega0 * s.t, s.rho.rho_pp, s.rho.rho_pm.real,
             s.rho.rho_pm.imag, abs(s.rho.rho_pm),
             *(c / 100000 for c in s.counts),
             s.se_rho_pp, s.se_re_rho_pm, s.se_count_diff)
            for s in result.snapshots]
    assert len({row[6] for row in rows}) > 1      # some members jumped
    assert out.read_text() == csv_text(
        ["t", "omega0_t", "rho_pp", "re_rho_pm", "im_rho_pm", "abs_rho_pm",
         "n0", "n0_ph", "n_plus", "n_minus", "se_rho_pp", "se_re_rho_pm",
         "se_count_diff"], rows)


OMEGA0_150 = ("--epsilon-over-delta", "0.1", "--omega0-over-omegac", "150",
              "--alpha", "0.05", "--n-traj", "1000000", "--t-max", "2",
              "--dt", "2e-3")

#: sha256 of the t and class-fraction columns of seeded unravel CSVs (seed
#: 1), as written: any change to the draws changes them.  The other columns
#: go through np.sin/np.cos and libm, whose last ulp may vary with the CPU
#: and the numpy build, so they are left to test_unravel_csv_bytes.
UNRAVEL_GOLDEN_SHA256 = {
    ("--n-traj", "1000", "--stride", "1"):
        "61011c80cdc1cdb0d3b67f171928d6e17906eadb16be5400b0ed05403a098b41",
    # reversed jumps from the dressed channels' negative-rate windows
    ("--epsilon-over-delta", "0.3", "--alpha", "0.05", "--n-traj", "100000",
     "--stride", "1"):
        "5f17a5ef0eb26c6324c1914058694573ce66c1c4a095cb010a3df82050703d9b",
    # counts beyond 2**53: fractions from Python's exact int division
    ("--n-traj", str(2 ** 63 - 1), "--t-max", "0.5", "--stride", "7"):
        "3cc21a2d6d568e45fa2ef70cddf6c6f3435924ffd0a9dc041e26147f8228e6d5",
    # no bias: gamma3 = 0, so the representatives' ladder keeps a zero
    # slot and PSI0_PH never fills
    ("--epsilon-over-delta", "0", "--n-traj", "1000000", "--stride", "10"):
        "d14bb22efc5a5524b39915e87da4a1e1d9646eb9d1cb4b26945b6c647a5ea32e",
    # the benchmark's unravel config
    ("--n-traj", "100000", "--stride", "50"):
        "f32cc6bdfca954c34aadccaf49abe2ffbc287419e5b46d966971276657fc00a5",
    # the default config, and a fast dressed frequency on a 2e-3 step
    ():
        "2482391df881ea166438839c058e6734bf80c6b24c4e4e9632d14d37386048dc",
    OMEGA0_150:
        "83f1e2e262b6eea00528350def9320856147ac1b7157424e1edbcee18630f0e2",
}


def test_unravel_golden_sha256(tmp_path):
    got = {}
    for args in UNRAVEL_GOLDEN_SHA256:
        out = tmp_path / "u.csv"
        assert main(["unravel", *args, "--out", str(out)]) == 0
        lines = [line.split(",") for line in out.read_text().splitlines()]
        keep = [lines[0].index(c) for c in ("t", "n0", "n0_ph", "n_plus",
                                            "n_minus")]
        text = "".join(",".join(row[i] for i in keep) + "\n" for row in lines)
        got[args] = hashlib.sha256(text.encode()).hexdigest()
    assert got == UNRAVEL_GOLDEN_SHA256


@pytest.mark.parametrize("args", [(), OMEGA0_150],
                         ids=["default", "omega0-150"])
def test_unravel_csv_bytes_at_golden_configs(tmp_path, args):
    # every column, rebuilt from run_unraveling in-process: the amplitude
    # and se columns' last ulps may vary with the CPU and the numpy build,
    # so no golden hash pins them
    out = tmp_path / "u.csv"
    assert main(["unravel", *args, "--out", str(out)]) == 0
    cfg = load_config(None, {flag[2:].replace("-", "_"): value for flag, value
                             in zip(args[::2], args[1::2])}, "unravel")
    p, n = cfg.system_params(), cfg.n_traj
    result = run_unraveling(p, n, cfg.t_max, cfg.dt, cfg.seed)
    rows = [(s.t, p.omega0 * s.t, s.rho.rho_pp, s.rho.rho_pm.real,
             s.rho.rho_pm.imag, abs(s.rho.rho_pm), *(c / n for c in s.counts),
             s.se_rho_pp, s.se_re_rho_pm, s.se_count_diff)
            for s in result.snapshots]
    assert out.read_text() == csv_text(
        ["t", "omega0_t", "rho_pp", "re_rho_pm", "im_rho_pm", "abs_rho_pm",
         "n0", "n0_ph", "n_plus", "n_minus", "se_rho_pp", "se_re_rho_pm",
         "se_count_diff"], rows)


def test_unravel_runs_steps_wider_than_a_block_of_nodes(tmp_path):
    # a step of 50 takes 8,144 panels of oracle_rates' 4-node rule, more
    # than one block of 16,384 nodes holds; at alpha 0 nothing moves
    out = tmp_path / "u.csv"
    assert main(["unravel", "--alpha", "0", "--t-max", "100", "--dt", "50",
                 "--out", str(out)]) == 0
    assert out.read_text() == (
        "t,omega0_t,rho_pp,re_rho_pm,im_rho_pm,abs_rho_pm,n0,n0_ph,n_plus,"
        "n_minus,se_rho_pp,se_re_rho_pm,se_count_diff\n"
        "0,0,0.5,0.5,0,0.5,1,0,0,0,0,0,0\n"
        "50,500,0.5,0.5,0,0.5,1,0,0,0,0,0,0\n"
        "100,1000,0.5,0.5,0,0.5,1,0,0,0,0,0,0\n")


def assert_past_the_quadrature_budget(command, tmp_path, capsys):
    # at omega0/omega_c 1e-4 every row below t = 640,000 is near, and the
    # quadrature takes 184 panels on each of its steps of 1: 4.7e8 nodes,
    # past the 1e8-node budget
    out = tmp_path / "u.csv"
    with pytest.warns(UserWarning, match="omega0/omega_c"):
        code = main([command, "--omega0-over-omegac", "1e-4", "--alpha", "0",
                     "--t-max", "6.4e5", "--dt", "1", "--out", str(out)])
    assert code == 3
    assert capsys.readouterr() == (
        "", "numerical error: quadrature needs 736 nodes on each of 640000 "
        "steps of h=1.0 at omega0=0.0001: beyond 100000000 in all\n")
    assert not out.exists()


def test_unravel_grid_past_the_quadrature_budget_exits_3(tmp_path, capsys):
    # though the map would be completely positive at alpha 0
    assert_past_the_quadrature_budget("unravel", tmp_path, capsys)


def test_rates_grid_past_the_quadrature_budget_exits_3(tmp_path, capsys):
    # where rate_table, one E1 a row, had no such bound
    assert_past_the_quadrature_budget("rates", tmp_path, capsys)


def test_unravel_grid_of_far_rows_runs(tmp_path):
    # at omega0/omega_c 300 every row t > 0 takes the far-range series, so
    # a step of 1 out to t = 5000 needs no quadrature node
    out = tmp_path / "u.csv"
    assert main(["unravel", "--omega0-over-omegac", "300", "--alpha", "0",
                 "--t-max", "5000", "--dt", "1", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 5002
    assert lines[-1] == "5000,1500000,0.5,0.5,0,0.5,1,0,0,0,0,0,0"


# --- rates command ---------------------------------------------------------

def test_rates_csv(tmp_path, capsys):
    out = tmp_path / "r.csv"
    assert main(["rates", "--t-max", "2", "--dt", "0.001",
                 "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["t", "omega0_t", "gamma_plus", "gamma_minus",
                      "gamma_zero", "gamma1", "gamma2", "gamma3"]
    assert len(rows) == 2001
    t = column(rows, header, "t")
    assert t[0] == 0.0 and t[-1] == 2.0
    assert np.allclose(column(rows, header, "omega0_t"), 10.0 * t)
    # rates vanish at t = 0; the dressed decay channel dips negative
    assert all(float(v) == 0.0 for v in rows[0][2:])
    assert column(rows, header, "gamma1").min() < 0.0
    assert column(rows, header, "gamma3").min() >= 0.0
    assert "wrote 2001 rows" in capsys.readouterr().err


def test_rates_header_is_rate_sets_fields(tmp_path):
    out = tmp_path / "r.csv"
    assert main(["rates", "--t-max", "0.01", "--out", str(out)]) == 0
    rates = [f.name for f in dataclasses.fields(RateSet)]
    assert rates[0] == "t"
    assert read_csv(out)[0] == ["t", "omega0_t", *rates[1:]]


def test_rates_cells_match_library_values(tmp_path):
    out = tmp_path / "r.csv"
    main(["rates", "--t-max", "1", "--dt", "0.25", "--out", str(out)])
    header, rows = read_csv(out)
    p = SystemParams.from_ratios(1.0 / (2.0 * math.sqrt(3.0)), 10.0, 0.01)
    table = engine_table(p, 4, 0.25)
    for j, row in enumerate(rows):
        for name in ("gamma_plus", "gamma_minus", "gamma_zero",
                     "gamma1", "gamma2", "gamma3"):
            assert row[header.index(name)] == _fmt(table[name][j])


def test_rates_stride_keeps_endpoints(tmp_path):
    out = tmp_path / "r.csv"
    main(["rates", "--t-max", "1", "--dt", "0.1", "--stride", "4",
          "--out", str(out)])
    header, rows = read_csv(out)
    assert column(rows, header, "t").tolist() == [0.0, 0.4, 0.8, 1.0]


# --- evolve command --------------------------------------------------------

def test_evolve_csv_decoupled_system(tmp_path):
    out = tmp_path / "e.csv"
    assert main(["evolve", "--alpha", "0", "--t-max", "1", "--dt", "0.001",
                 "--stride", "100", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["t", "omega0_t", "rho_pp", "re_rho_pm", "im_rho_pm",
                      "abs_rho_pm"]
    assert len(rows) == 11
    assert np.all(column(rows, header, "rho_pp") == 0.5)
    assert np.all(column(rows, header, "re_rho_pm") == 0.5)
    assert np.all(column(rows, header, "im_rho_pm") == 0.0)


def test_evolve_coupling_decays_coherence(tmp_path):
    out = tmp_path / "e.csv"
    main(["evolve", "--t-max", "5", "--dt", "0.001", "--stride", "1000",
          "--out", str(out)])
    header, rows = read_csv(out)
    coh = column(rows, header, "abs_rho_pm")
    assert coh[0] == 0.5 and coh[-1] < 0.5
    pp = column(rows, header, "rho_pp")
    assert pp[-1] < pp[0]


# --- unravel command -------------------------------------------------------

def test_unravel_csv_and_byte_determinism(tmp_path):
    args = ["unravel", "--n-traj", "200", "--t-max", "0.5", "--dt", "0.001",
            "--stride", "100", "--seed", "12"]
    out1, out2, out3 = (tmp_path / f"u{i}.csv" for i in (1, 2, 3))
    assert main([*args, "--out", str(out1)]) == 0
    assert main([*args, "--out", str(out2)]) == 0
    assert main([*args, "--workers", "4", "--out", str(out3)]) == 0
    data = out1.read_bytes()
    assert data == out2.read_bytes()      # same seed, same bytes
    assert data == out3.read_bytes()      # worker split changes nothing

    header, rows = read_csv(out1)
    assert header == ["t", "omega0_t", "rho_pp", "re_rho_pm", "im_rho_pm",
                      "abs_rho_pm", "n0", "n0_ph", "n_plus", "n_minus",
                      "se_rho_pp", "se_re_rho_pm", "se_count_diff"]
    assert len(rows) == 6                 # t=0 plus five strided snapshots
    fractions = np.stack([column(rows, header, c)
                          for c in ("n0", "n0_ph", "n_plus", "n_minus")])
    assert np.allclose(fractions.sum(axis=0), 1.0, atol=1e-12)
    assert column(rows, header, "se_rho_pp")[0] == 0.0


def test_unravel_seed_changes_output(tmp_path):
    # ~50 jumps per run at alpha 0.05, N 1e5, so a different seed must
    # give different counts (at N 300 and alpha 0.01 a run rarely jumps)
    base = ["unravel", "--alpha", "0.05", "--n-traj", "100000", "--t-max",
            "1", "--dt", "0.001", "--stride", "500"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main([*base, "--seed", "1", "--out", str(out1)]) == 0
    assert main([*base, "--seed", "2", "--out", str(out2)]) == 0
    assert out1.read_bytes() != out2.read_bytes()


def test_unravel_rejects_small_ensembles(tmp_path, capsys):
    out = tmp_path / "u.csv"
    assert main(["unravel", "--n-traj", "50", "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_unravel_rejects_ensembles_beyond_int64(tmp_path, capsys):
    out = tmp_path / "u.csv"
    # README lists 100..2**63-1 as the key's range: a configuration error
    assert main(["unravel", "--n-traj", "100000000000000000000", "--t-max",
                 "0.01", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: n_traj ")
    assert not out.exists()


# --- recoherence-map command -----------------------------------------------

def test_recoherence_map_csv(tmp_path):
    out = tmp_path / "m.csv"
    assert main(["recoherence-map", "--t-max", "0.1", "--dt", "0.01",
                 "--stride", "5", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["t", "omega0_t", "eps_over_delta", "in_region"]
    assert len(rows) == 81 * 3            # 81 ratio rows x strided times
    flags = column(rows, header, "in_region")
    assert set(np.unique(flags)) <= {0.0, 1.0}
    ratios = column(rows, header, "eps_over_delta")
    assert ratios.min() == 0.0 and ratios.max() == 0.4
    # t = 0 sits outside the region for every ratio (rates vanish there)
    t = column(rows, header, "t")
    assert np.all(flags[t == 0.0] == 0.0)


#: sha256 of recoherence-map CSVs, as written.  in_region is the sign of
#: d zeta/dt, so a last-ulp change of the rates moves a byte only where
#: d zeta/dt is within an ulp of 0.  At omega0/omega_c 300 some ratio rows'
#: params land an ulp or two above the supported maximum
RECOHERENCE_GOLDEN_SHA256 = {
    ():
        "84762c85b2f78d3bcb2f309bc3c2649a01ad9151129745a366fc153229ca7cd3",
    ("--omega0-over-omegac", "0.5", "--alpha", "0.3"):
        "498d3952558c1843864b2e16260ce5fee7266998f28f86e8b48ae1b46bd4fb2a",
    ("--omega0-over-omegac", "150", "--t-max", "5"):
        "517f17b359714d713e80b2de05ee2844ea233eb013ea92729d83473d309732de",
    ("--omega0-over-omegac", "300"):
        "310302fa1b27f6aca10721e1dc0c7c06813f19abf3aff3efe4f1e19305889c34",
}


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_recoherence_map_golden_sha256(tmp_path):
    got = {}
    for args in RECOHERENCE_GOLDEN_SHA256:
        out = tmp_path / "m.csv"
        assert main(["recoherence-map", *args, "--out", str(out)]) == 0
        got[args] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert got == RECOHERENCE_GOLDEN_SHA256


def test_omega0_cap_admits_from_ratios_rounding(tmp_path):
    # from_ratios lands up to 2 ulps above the omega0 it is given (13 of
    # the map's 81 ratios at 300); the cap allows 5 ulps at 300
    n_r = round(RATIO_GRID_MAX / RATIO_GRID_STEP)
    ratios = [*(np.arange(n_r + 1) * RATIO_GRID_STEP).tolist(), *BLP_RATIOS]
    above = [r for r in ratios
             if SystemParams.from_ratios(r, 300.0, 0.01).omega0 > 300.0]
    assert len(above) == 13 and 0.025 in above
    SystemParams(epsilon=0.0, delta=300.0 + 5 * math.ulp(300.0), alpha=0.01)
    with pytest.raises(DomainError, match="exceeds the supported maximum"):
        SystemParams(epsilon=0.0, delta=300.0 + 6 * math.ulp(300.0),
                     alpha=0.01)
    assert main(["rates", "--omega0-over-omegac", "300",
                 "--epsilon-over-delta", "0.025",
                 "--out", str(tmp_path / "r.csv")]) == 0


# --- blp command -----------------------------------------------------------

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

#: blp stdout, byte for byte: every printed digit of the measure and of its
#: ratio rows, which share one bare rate table
BLP_GOLDEN = {(): "blp_default.txt",
              ("--t-max", "5", "--epsilon-over-delta", "0.3"):
                  "blp_t_max_5_eps_0.3.txt"}


@pytest.mark.parametrize("args", BLP_GOLDEN)
def test_blp_golden_stdout(capsys, args):
    assert main(["blp", *args]) == 0
    assert capsys.readouterr().out == (FIXTURES / BLP_GOLDEN[args]).read_text()


def test_blp_prints_measure_and_spread(capsys):
    assert main(["blp", "--t-max", "5", "--dt", "0.001"]) == 0
    outp = capsys.readouterr().out
    assert outp.startswith("blp_measure = ")
    assert "eps_over_delta,blp_measure" in outp
    for r in BLP_RATIOS:
        assert f"\n{_fmt(r)}," in outp
    spread_line = [ln for ln in outp.splitlines()
                   if ln.startswith("relative_spread = ")]
    assert len(spread_line) == 1
    assert float(spread_line[0].split("=")[1]) >= 0.0


# --- exit codes ------------------------------------------------------------

def test_exit_code_config_error(tmp_path, capsys):
    out = tmp_path / "r.csv"
    assert main(["rates", "--dt", "0.3", "--t-max", "1",
                 "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err


def test_step_that_misses_a_tiny_horizon_is_config_error(tmp_path, capsys):
    # 6e-10 misses t_max 1e-9 by 2e-10, under an absolute 1e-9 tolerance
    out = tmp_path / "e.csv"
    assert main(["evolve", "--t-max", "1e-9", "--dt", "6e-10",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not out.exists()


@pytest.mark.parametrize("flag,value", [("--t-max", "nan"),
                                        ("--t-max", "1e300"),
                                        ("--dt", "1e-300")])
def test_exit_code_config_error_for_unusable_grid(tmp_path, capsys, flag,
                                                  value):
    out = tmp_path / "r.csv"
    assert main(["rates", flag, value, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not out.exists()


def test_blp_grid_beyond_the_cap_is_config_error(capsys):
    # blp picks its own step; a t_max too long for that step is an input
    # error, as a grid beyond the cap is on every other command
    assert main(["blp", "--t-max", "1e5", "--dt", "1"]) == 2
    assert capsys.readouterr() == ("", "config error: t_max/h = 5e+07 steps "
                                   "exceeds the grid cap of 10000000 points\n")


@pytest.mark.parametrize("args,named", [
    (["--alpha", "1e300"], "|eta| first exceeds 600 at t=0.001, where eta = "),
    (["--alpha", "1e3", "--epsilon-over-delta", "2"],
     "|zeta| first exceeds 600 at t=4.36, where zeta = 6.001e+02;")],
    ids=["eta", "zeta"])
def test_kernel_exponent_error_names_its_exponent_and_time(tmp_path, capsys,
                                                           args, named):
    out = tmp_path / "e.csv"
    assert main(["evolve", *args, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical error: kernel exponent exceeds "
                          "double-precision range: ")
    assert named in err
    assert err.endswith("; reduce t_max or the coupling\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["rates", "evolve", "recoherence-map"])
def test_rate_past_the_double_range_names_its_column_and_time(tmp_path,
                                                              capsys, command):
    # omega0 t overflows at t = 1e308: the rates command's far-range
    # series and the closed form (where E1 is not evaluated) both report
    # the rate, not a special function's argument
    out = tmp_path / "r.csv"
    assert main([command, "--t-max", "1e308", "--dt", "1e308",
                 "--out", str(out)]) == 3
    assert capsys.readouterr() == (
        "", "numerical error: rate gamma_plus is not finite at t=1e+308\n")
    assert not out.exists()


@pytest.mark.parametrize("flag,value", [("--n-traj", "1e3"),
                                        ("--seed", "nan"),
                                        ("--alpha", "abc"),
                                        ("--stride", "1.5")])
def test_bad_flag_value_is_config_error(tmp_path, capsys, flag, value):
    # typed as a config file value is, and named by its flag
    out = tmp_path / "u.csv"
    assert main(["unravel", flag, value, "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        f"config error: bad value for {flag}: {value!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--n-trajectories", "--alph", "--t-m",
                                  "--ou", "--e"])
def test_unknown_flag_is_a_usage_error(tmp_path, capsys, flag):
    # flags are spelled in full, as config keys are: no prefix of one
    out = tmp_path / "r.csv"
    with pytest.raises(SystemExit) as exc:
        main(["rates", "--t-max", "1", flag, "100", "--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


def checkout_env() -> dict[str, str]:
    """os.environ with this checkout's src/ first on PYTHONPATH."""
    src = pathlib.Path(spinboson.__file__).resolve().parents[1]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}


def test_module_entry_point_runs_without_warnings():
    proc = subprocess.run([sys.executable, "-W", "error", "-m",
                           "spinboson.cli", "--help"], env=checkout_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "usage: spinboson" in proc.stdout


CSV_COMMAND_ARGS = {
    "rates": ["--t-max", "1"],
    "evolve": ["--t-max", "1"],
    "unravel": ["--n-traj", "100", "--t-max", "0.1"],
    "recoherence-map": ["--t-max", "0.1"],
}


@pytest.mark.parametrize("target", ["missing-dir", "directory"])
@pytest.mark.parametrize("command", sorted(CSV_COMMAND_ARGS))
def test_unwritable_output_is_config_error(tmp_path, capsys, command, target):
    out = tmp_path / "missing" / "x.csv" if target == "missing-dir" \
        else tmp_path
    assert main([command, *CSV_COMMAND_ARGS[command], "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write {out}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", sorted(CSV_COMMAND_ARGS))
def test_empty_output_path_is_config_error(tmp_path, monkeypatch, capsys,
                                           command):
    monkeypatch.chdir(tmp_path)
    assert main([command, *CSV_COMMAND_ARGS[command], "--out", ""]) == 2
    assert capsys.readouterr() == \
        ("", "config error: output_path must not be empty\n")
    assert list(tmp_path.iterdir()) == []


def test_undecodable_config_file_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"alpha=0.01\n\xff\n")
    assert main(["rates", "--t-max", "1", "--config", str(cfg),
                 "--out", str(tmp_path / "r.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read config file {cfg}: ")
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == [cfg]


def test_config_file_with_byte_order_mark_loads(tmp_path, capsys):
    cfg = tmp_path / "bom.cfg"
    cfg.write_bytes(b"\xef\xbb\xbfalpha=0.02\r\nseed=3\r\n")
    assert load_config(str(cfg), {}, "rates") == \
        RunConfig(alpha=0.02, seed=3, t_max=COMMANDS["rates"][1],
                  output_path=COMMANDS["rates"][2])
    assert main(["rates", "--t-max", "0.01", "--config", str(cfg),
                 "--out", str(tmp_path / "r.csv")]) == 0
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("name", [" r.csv", "r.csv ", "r\n.csv", "r\r.csv"])
def test_unstorable_output_path_is_config_error(tmp_path, monkeypatch,
                                                capsys, name):
    monkeypatch.chdir(tmp_path)
    assert main(["rates", "--t-max", "1", "--out", name]) == 2
    assert capsys.readouterr() == \
        ("", "config error: output_path must not contain a line break or "
         "start or end with whitespace\n")
    assert list(tmp_path.iterdir()) == []


def test_nul_in_output_path_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "nul.cfg"
    cfg.write_bytes(b"output_path=" + bytes(tmp_path / "r") + b"\0.csv\n")
    assert main(["rates", "--t-max", "1", "--config", str(cfg)]) == 2
    assert capsys.readouterr() == \
        ("", "config error: output_path must not contain a NUL byte\n")
    assert list(tmp_path.iterdir()) == [cfg]


def test_output_checked_before_computing(tmp_path, monkeypatch, capsys):
    def no_run(*args, **kwargs):
        raise AssertionError("computed before checking --out")
    monkeypatch.setattr(cli, "run_unraveling", no_run)
    out = tmp_path / "missing" / "x.csv"
    assert main(["unravel", "--n-traj", "100", "--t-max", "0.1",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write {out}: ")


#: zero bias and strong coupling: the map stops being completely positive
#: (f < 0) at t = 4.526 for alpha 3 and at t = 6.252 for alpha 1.5
NOT_CP = {a: ["--epsilon-over-delta", "0", "--omega0-over-omegac", "0.5",
              "--alpha", str(a), "--t-max", "10"] for a in (1.5, 3.0)}


@pytest.mark.parametrize("argv,code", [
    (["unravel", "--n-traj", "50"], 2),
    (["unravel", "--alpha", "100", "--t-max", "2", "--dt", "0.05",
      "--n-traj", "100"], 3),
    (["unravel", "--n-traj", str(2 ** 63)], 2),
    # alpha*t overflows: gamma_zero is NaN from the third row on
    (["rates", "--alpha", "1e10", "--t-max", repr(2.0 ** 1000),
      "--dt", repr(2.0 ** 990)], 3),
    # strong coupling at zero bias drives the map out of the state space
    (["evolve", *NOT_CP[3.0]], 3),
    (["unravel", *NOT_CP[3.0], "--n-traj", "1000"], 3),
    (["evolve", *NOT_CP[1.5]], 3),
    (["rates", "--n-traj", "50", "--t-max", "1"], 2),  # validated everywhere
    # a rate (evolve, recoherence-map) or a kernel exponent (unravel) past
    # the double range at a huge alpha
    (["evolve", "--alpha", "1.7e308"], 3),
    (["recoherence-map", "--alpha", "1e308"], 3),
    (["unravel", "--alpha", "1.7e308", "--epsilon-over-delta", "1e155",
      "--n-traj", "100"], 3),
])
@pytest.mark.filterwarnings("ignore::UserWarning")
def test_failed_run_leaves_no_file(tmp_path, argv, code):
    assert main([*argv, "--out", str(tmp_path / "u.csv")]) == code
    assert list(tmp_path.iterdir()) == []


def test_failed_run_keeps_existing_output(tmp_path, monkeypatch):
    out = tmp_path / "u.csv"
    out.write_bytes(b"earlier run\n")

    def fail(*args, **kwargs):
        raise StepError("at t = 0.5: dt too large")
    monkeypatch.setattr(cli, "run_unraveling", fail)
    assert main(["unravel", "--n-traj", "100", "--out", str(out)]) == 3
    assert out.read_bytes() == b"earlier run\n"
    assert list(tmp_path.iterdir()) == [out]


def test_output_through_symlink_keeps_the_link(tmp_path):
    target = tmp_path / "data" / "r.csv"
    target.parent.mkdir()
    target.write_bytes(b"earlier run\n")
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    assert main(["rates", "--t-max", "0.01", "--out", str(link)]) == 0
    assert link.is_symlink() and link.resolve() == target
    assert target.read_text().startswith("t,omega0_t,gamma_plus,")
    assert sorted(p.name for p in tmp_path.rglob("*")) == \
        ["data", "link.csv", "r.csv"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
def test_output_to_fifo_is_written_in_place(tmp_path):
    # a non-blocking reader lets the CLI open the FIFO; 11 rows fit its
    # buffer.  A FIFO replaced by a file would leave the reader empty.
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert main(["rates", "--t-max", "0.01", "--out", str(fifo)]) == 0
        data = os.read(reader, 1 << 16)
    finally:
        os.close(reader)
    assert data.startswith(b"t,omega0_t,gamma_plus,")
    assert data.count(b"\n") == 12
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert list(tmp_path.iterdir()) == [fifo]


@pytest.mark.skipif(not os.path.exists("/dev/stdout"),
                    reason="needs /dev/stdout")
def test_csv_to_stdout_pipe_is_only_the_csv(tmp_path):
    # the status line goes to stderr, so a piped CSV carries nothing else
    args = ["rates", "--t-max", "0.003"]
    proc = subprocess.run([sys.executable, "-m", "spinboson.cli", *args,
                           "--out", "/dev/stdout"], env=checkout_env(),
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = tmp_path / "r.csv"
    assert main([*args, "--out", str(out)]) == 0
    assert proc.stdout == out.read_bytes()
    assert proc.stderr == b"wrote 4 rows to /dev/stdout\n"


def test_os_error_while_computing_is_not_a_write_error(tmp_path,
                                                       monkeypatch):
    def fail(*args, **kwargs):
        raise OSError("not about the output file")
    monkeypatch.setattr(cli, "run_unraveling", fail)
    with pytest.raises(OSError, match="not about the output file"):
        main(["unravel", "--n-traj", "100", "--out", str(tmp_path / "u.csv")])
    assert list(tmp_path.iterdir()) == []


def test_tiny_omega0_is_config_error(tmp_path, capsys):
    out = tmp_path / "r.csv"
    assert main(["rates", "--omega0-over-omegac", "1e-300", "--t-max", "1",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: omega0 = 1e-300 is too small")
    assert not out.exists()


@pytest.mark.parametrize("value", ["-1e-9", "-1E3", "-inf", "-nan"])
@pytest.mark.parametrize("flag", ["--alpha", "--epsilon-over-delta"])
def test_negative_exponent_values_reach_validation(tmp_path, capsys, flag,
                                                   value):
    assert main(["rates", "--t-max", "1", flag, value,
                 "--out", str(tmp_path / "r.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert flag[2:].replace("-", "_") in err


def test_dash_value_that_is_not_a_number_stays_an_option(tmp_path, capsys,
                                                        monkeypatch):
    # only values float() reads are attached to their flag: "-x.csv" is
    # left to argparse, which takes it for an option, so --out has no value
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["rates", "--t-max", "1", "--out", "-x.csv"])
    assert exc.value.code == 2
    assert "--out: expected one argument" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_exit_code_config_error_from_file(tmp_path, capsys):
    f = tmp_path / "bad.cfg"
    f.write_text("mystery=1\n")
    assert main(["rates", "--config", str(f),
                 "--out", str(tmp_path / "r.csv")]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_exit_code_numerical_error(tmp_path, capsys):
    # a completely positive map on a coarse step grid trips the step budget
    assert main(["unravel", "--epsilon-over-delta", "3", "--alpha", "2",
                 "--t-max", "2", "--dt", "0.25", "--n-traj", "100",
                 "--out", str(tmp_path / "u.csv")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical error: at t = 0.75: dt too large")


def test_reversed_jump_budget_fails_at_large_n(tmp_path, capsys):
    # a negative-rate window opens with only a few members left in the
    # target class, so the reversed-jump probability (N_source/N_target)
    # |gamma| dt passes the ladder's 0.5 budget; pinned as it stands
    out = tmp_path / "u.csv"
    assert main(["unravel", "--epsilon-over-delta", "0", "--n-traj",
                 "10000000", "--seed", "1", "--out", str(out)]) == 3
    assert capsys.readouterr().err.endswith(
        "numerical error: at t = 0.48: total jump probability 0.531 > 0.5 "
        "for class 2; reduce dt below 9.42e-04\n")
    assert not out.exists()


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_blp_exits_3_when_the_map_is_not_cp(capsys):
    assert main(["blp", *NOT_CP[3.0]]) == 3
    assert capsys.readouterr() == ("", "numerical error: map not completely "
                                   "positive at t=4.526: f >= 0 fails "
                                   "(margin -1.765e-05)\n")


def test_blp_to_closed_stdout_is_config_error():
    # the reader is gone before blp writes: exit 2 with one stderr line, no
    # traceback and no "Exception ignored" from Python's flush at exit
    proc = subprocess.Popen([sys.executable, "-m", "spinboson.cli", "blp",
                             "--t-max", "1"], env=checkout_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 2
    assert err == b"config error: cannot write stdout: Broken pipe\n"


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="needs /proc/self/fd")
def test_closed_stdout_leaves_no_descriptor_open(monkeypatch, capsys):
    # in-process: the devnull descriptor that replaces the broken pipe's is
    # closed once it is duplicated
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w") as pipe:
        monkeypatch.setattr(sys, "stdout", pipe)
        before = len(os.listdir("/proc/self/fd"))
        assert main(["blp", "--t-max", "1"]) == 2
        after = len(os.listdir("/proc/self/fd"))
        monkeypatch.undo()
    assert after == before
    assert capsys.readouterr().err == \
        "config error: cannot write stdout: Broken pipe\n"


def test_default_output_paths(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["rates", "--t-max", "0.5", "--dt", "0.01"]) == 0
    assert (tmp_path / "rates.csv").exists()


# --- fuzzing the flags -----------------------------------------------------

#: values no flag accepts, or only some do: non-finite, zero, negative,
#: huge and beyond int64
_ODD_VALUES = ["inf", "-inf", "nan", "0", "-1", "-0.5", "1e300", "-1e300",
               str(2 ** 63), str(2 ** 64)]

#: per flag, the values drawn besides _ODD_VALUES.  Every t_max/dt pair
#: that validates has at most 1,001 grid points (1e300/1e300 has two), and
#: blp's own grid, at t_max <= 10, at most 5,001.
FUZZ_VALUES = {
    "--epsilon-over-delta": ["0.3", "3"],
    "--omega0-over-omegac": ["10", "0.5", "150", "301", "1e-300"],
    # at ratio 0 and omega0/omega_c 0.5 these map out of CP, as in NOT_CP
    "--alpha": ["0.01", "1.5", "3"],
    "--t-max": ["0.5", "2", "10"],
    "--dt": ["0.01", "0.1", "0.5"],
    # "1e3" reads as a float, not as an int
    "--n-traj": ["100", "1000", str(2 ** 63 - 1), "1e3"],
    "--seed": ["1", str(2 ** 64 - 1), "1e3"],
    "--stride": ["1", "7", "1e3"],
    "--workers": ["1", "8", "1e3"],   # starts nothing, so any value is cheap
}


@settings(max_examples=100, deadline=None)
@given(command=st.sampled_from(list(COMMANDS)),
       empty_out=st.sampled_from([False, False, False, True]),
       flags=st.fixed_dictionaries({flag: st.none() | st.sampled_from(good)
                                    for flag, good in FUZZ_VALUES.items()}),
       odd=st.dictionaries(st.sampled_from(list(FUZZ_VALUES)),
                           st.sampled_from(_ODD_VALUES), max_size=2))
@example(command="unravel", empty_out=False, flags={}, odd={"--n-traj": "1e3"})
@example(command="rates", empty_out=False, flags={}, odd={"--seed": "nan"})
@example(command="evolve", empty_out=False, flags={}, odd={"--alpha": "abc"})
@example(command="blp", empty_out=False, flags={},
         odd={"--t-max": "1e300", "--dt": "1e300"})
@example(command="rates", empty_out=False, flags={},
         odd={"--t-max": "1e300", "--dt": "1e300"})
@pytest.mark.filterwarnings("ignore::UserWarning")
def test_any_flag_values_end_in_an_exit_code(command, empty_out, flags, odd):
    # t_max and dt default to a short grid, so every draw stays cheap
    flags = {"--t-max": "0.5", "--dt": "0.01",
             **{k: v for k, v in flags.items() if v is not None}, **odd}
    with tempfile.TemporaryDirectory() as tmp:
        out = "" if empty_out else os.path.join(tmp, "out.csv")
        argv = [command, *(t for kv in flags.items() for t in kv),
                "--out", out]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(argv)
        left = os.listdir(tmp)
    err = err.getvalue()
    assert code in (0, 2, 3), argv
    assert "Traceback" not in err, argv
    if code:
        assert err.splitlines()[-1].startswith(
            ("config error: ", "numerical error: ")), (argv, err)
        assert left == [], argv
    else:
        assert left == ([] if command == "blp" else ["out.csv"]), argv
