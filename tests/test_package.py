"""The package: every exported name resolves, and the import stays light."""

import json
import os
import pathlib
import subprocess
import sys

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
from spinboson import SystemParams, rates_quadrature
seen = ["scipy.integrate" in sys.modules]
for command, extra in (("rates", []), ("evolve", []),
                       ("unravel", ["--n-traj", "100"]),
                       ("recoherence-map", []), ("blp", [])):
    out = [] if command == "blp" else \\
        ["--out", os.path.join(sys.argv[1], command + ".csv")]
    assert spinboson.cli.main([command, "--t-max", "1", *extra, *out]) == 0
seen.append("scipy.integrate" in sys.modules)
value = rates_quadrature(SystemParams.from_ratios(0.3, 10.0, 0.01), 10.0, 2.5)
seen.append("scipy.integrate" in sys.modules)
loaded = [name for name in ("scipy.linalg", "scipy.optimize")
          if name in sys.modules]
print(json.dumps({"seen": seen, "loaded": loaded, "value": value}))
"""


def test_import_leaves_out_scipy_integrate(tmp_path):
    # scipy.integrate, with the scipy.linalg and scipy.optimize it pulls
    # in, costs ~0.17 s and ~25 MB: no command and not the quadrature
    # oracle loads them
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_FOOTPRINT, str(tmp_path)],
        env=checkout_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["seen"] == [False, False, False]
    assert report["loaded"] == []
    expected = spinboson.rates_quadrature(
        spinboson.SystemParams.from_ratios(0.3, 10.0, 0.01), 10.0, 2.5)
    assert report["value"] == expected


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
