"""CLI tests: config handling, CSV emission, exit codes, determinism."""

import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import spinboson
from spinboson import ConfigError, SystemParams
from spinboson.cli import (BLP_RATIOS, COMMANDS, DEFAULT_OUTPUT, DEFAULT_T_MAX,
                           RunConfig, _fmt, _strided, emit_config, load_config,
                           main, parse_config)
from spinboson.model import rate_table


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def column(rows, header, name):
    i = header.index(name)
    return np.array([float(r[i]) for r in rows])


# --- config round trip -----------------------------------------------------

def test_config_emit_parse_round_trip():
    cfg = RunConfig(epsilon_over_delta=1.0 / (2.0 * math.sqrt(7.0)),
                    omega0_over_omegac=9.5, alpha=0.012345678901234,
                    t_max=7.5, dt=2.5e-4, n_traj=12345, seed=987654321,
                    output_path="out/run.csv", emit_stride=17, workers=3)
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
    ("omega0_over_omegac", 0.0),
    ("alpha", -1e-9),
    ("t_max", 0.0),
    ("t_max", math.nan),
    ("t_max", math.inf),
    ("t_max", 1e300),                 # grid beyond the point cap
    ("dt", 1e-300),
    ("dt", -1e-3),
    ("dt", 0.3),                      # does not divide t_max=50
    ("n_traj", 0),
    ("seed", -1),
    ("seed", 1 << 64),
    ("emit_stride", 0),
    ("workers", 0),
])
def test_config_validation(field, value):
    with pytest.raises(ConfigError, match=field.split("_")[0]):
        RunConfig(**{field: value}).validate()


def test_config_defaults_per_command():
    for command in COMMANDS:
        cfg = load_config(None, {}, command)
        assert cfg.t_max == DEFAULT_T_MAX[command]
        assert cfg.output_path == DEFAULT_OUTPUT[command]


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
    assert "wrote 2001 rows" in capsys.readouterr().out


def test_rates_cells_match_library_values(tmp_path):
    out = tmp_path / "r.csv"
    main(["rates", "--t-max", "1", "--dt", "0.25", "--out", str(out)])
    header, rows = read_csv(out)
    p = SystemParams.from_ratios(1.0 / (2.0 * math.sqrt(3.0)), 10.0, 0.01)
    table = rate_table(p, np.arange(5) * 0.25)
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
    assert main(["unravel", "--n-traj", "100000000000000000000", "--t-max",
                 "0.01", "--out", str(out)]) == 3
    assert "n_traj" in capsys.readouterr().err
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


# --- blp command -----------------------------------------------------------

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


@pytest.mark.parametrize("flag,value", [("--t-max", "nan"),
                                        ("--t-max", "1e300"),
                                        ("--dt", "1e-300")])
def test_exit_code_config_error_for_unusable_grid(tmp_path, capsys, flag,
                                                  value):
    out = tmp_path / "r.csv"
    assert main(["rates", flag, value, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not out.exists()


def test_module_entry_point_runs_without_warnings():
    src = pathlib.Path(spinboson.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-W", "error", "-m",
                           "spinboson.cli", "--help"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "usage: spinboson" in proc.stdout


def test_exit_code_config_error_from_file(tmp_path, capsys):
    f = tmp_path / "bad.cfg"
    f.write_text("mystery=1\n")
    assert main(["rates", "--config", str(f),
                 "--out", str(tmp_path / "r.csv")]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_exit_code_numerical_error(tmp_path, capsys):
    # strong coupling on a coarse step grid trips the per-step budget
    assert main(["unravel", "--alpha", "100", "--t-max", "2", "--dt", "0.05",
                 "--n-traj", "100", "--out", str(tmp_path / "u.csv")]) == 3
    err = capsys.readouterr().err
    assert "numerical error" in err and "at t = " in err


def test_default_output_paths(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["rates", "--t-max", "0.5", "--dt", "0.01"]) == 0
    assert (tmp_path / "rates.csv").exists()
