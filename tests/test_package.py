"""The package: every exported name resolves, and the import stays light."""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np

import spinboson


def checkout_env() -> dict[str, str]:
    """os.environ with this checkout's src/ first on PYTHONPATH."""
    src = pathlib.Path(spinboson.__file__).resolve().parents[1]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}


def test_every_exported_name_resolves():
    missing = [name for name in spinboson.__all__
               if not hasattr(spinboson, name)]
    assert not missing
    assert len(set(spinboson.__all__)) == len(spinboson.__all__)


def test_star_import_succeeds():
    proc = subprocess.run(
        [sys.executable, "-c",
         "from spinboson import *; print(len(__import__('spinboson').__all__))"],
        env=checkout_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) == len(spinboson.__all__)


IMPORT_FOOTPRINT = """
import json, os, sys
import spinboson, spinboson.cli
from spinboson import (DensityMatrix, DomainError, SystemParams, expint_e1,
                       ode_oracle, rates_quadrature)
def scipy_modules():
    return sorted(name for name in sys.modules
                  if name == "scipy" or name.startswith("scipy."))
def run(command, *extra):
    out = [] if command == "blp" else \\
        ["--out", os.path.join(sys.argv[1], command + ".csv")]
    assert spinboson.cli.main([command, "--t-max", "1", *extra, *out]) == 0
stages = {"import": scipy_modules()}
try:
    expint_e1(float("nan"))
except DomainError:
    stages["nan"] = scipy_modules()
p = SystemParams.from_ratios(0.3, 10.0, 0.01)
run("unravel", "--n-traj", "100")
value = rates_quadrature(p, 10.0, 2.5)
ode_oracle(p, DensityMatrix(rho_pp=0.5, rho_mm=0.5, rho_pm=0.5), 1.0, 1e-3)
stages["unravel"] = scipy_modules()
for command in ("rates", "evolve"):
    run(command)
    stages[command] = [name for name in ("scipy.special",)
                       if name in sys.modules]
for command in ("recoherence-map", "blp"):
    run(command)
loaded = [name for name in ("scipy.integrate", "scipy.linalg",
                            "scipy.optimize") if name in sys.modules]
e1 = expint_e1(2.5 + 10.0j)
print(json.dumps({"stages": stages, "loaded": loaded, "value": value,
                  "e1": [e1.real, e1.imag]}))
"""


def test_import_leaves_out_scipy_integrate(tmp_path):
    # scipy.special costs ~0.17 s and ~18 MB: the import, a rejected NaN
    # argument, the unraveling, the quadrature oracles and rates, whose
    # rates come from the grid quadrature, load no scipy module; the E1
    # commands load scipy.special on their first E1 call.
    # scipy.integrate, with the scipy.linalg and scipy.optimize it pulls
    # in, costs ~0.17 s and ~25 MB more: no command loads them
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_FOOTPRINT, str(tmp_path)],
        env=checkout_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["stages"] == {"import": [], "nan": [], "unravel": [],
                                "rates": [], "evolve": ["scipy.special"]}
    assert report["loaded"] == []
    expected = spinboson.rates_quadrature(
        spinboson.SystemParams.from_ratios(0.3, 10.0, 0.01), 10.0, 2.5)
    assert report["value"] == expected
    e1 = spinboson.expint_e1(2.5 + 10.0j)
    assert report["e1"] == [e1.real, e1.imag]


FIRST_CALLS = """
import json, sys, threading
import numpy as np
from spinboson import expint_e1, sin_cos_integral
assert not any(name.startswith("scipy") for name in sys.modules)
z, w = np.array([0.5 + 10.0j, 3.0 - 0.1j]), 2.0 + 1.0j
start, results = threading.Barrier(8), [None] * 8
def first_call(i):
    start.wait()
    results[i] = (expint_e1(z).tolist(), sin_cos_integral(w))
threads = [threading.Thread(target=first_call, args=(i,)) for i in range(8)]
sys.setswitchinterval(1e-6)
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(60)
    assert not thread.is_alive()
serial = (expint_e1(z).tolist(), sin_cos_integral(w))
assert results == [serial] * 8, results
print(json.dumps([[v.real, v.imag] for v in (*serial[0], *serial[1])]))
"""


def test_first_calls_from_threads_agree():
    # the scipy.special import sits inside expint_e1 and sin_cos_integral:
    # eight threads that make the first calls at once, in a fresh
    # interpreter, all get the serial values
    proc = subprocess.run([sys.executable, "-c", FIRST_CALLS],
                          env=checkout_env(), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    z = [0.5 + 10.0j, 3.0 - 0.1j]
    values = [*spinboson.expint_e1(np.array(z)).tolist(),
              *spinboson.sin_cos_integral(2.0 + 1.0j)]
    assert json.loads(proc.stdout) == [[v.real, v.imag] for v in values]


SAMPLE_MODULE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps the line


# a comment line
def area(r):
    """One docstring line."""
    text = """a string that is
not a docstring"""
    return (math.pi
            * r * r)
'''


def test_code_lines_tool_counts_code_only(tmp_path):
    root = pathlib.Path(spinboson.__file__).resolve().parents[2]
    sample = tmp_path / "sample.py"
    sample.write_text(SAMPLE_MODULE)
    proc = subprocess.run(
        [sys.executable, str(root / "tools" / "code_lines.py"), str(sample)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # code, docstring, comment, blank, lines
    assert proc.stdout.splitlines()[-1].split() == \
        ["6", "3", "1", "3", "13", "total"]
    # the package: the four kinds sum to wc -l, per module and in total
    proc = subprocess.run(
        [sys.executable, str(root / "tools" / "code_lines.py")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    modules = sorted((root / "src" / "spinboson").glob("*.py"))
    rows = [line.split() for line in proc.stdout.splitlines()[1:]]
    assert [row[-1] for row in rows] == [*map(str, modules), "total"]
    for row, path in zip(rows, [*modules, None]):
        *kinds, lines = map(int, row[:5])
        wc = len(path.read_bytes().splitlines()) if path else \
            sum(len(p.read_bytes().splitlines()) for p in modules)
        assert sum(kinds) == lines == wc and all(k > 0 for k in kinds[:2])
