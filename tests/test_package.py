"""The package's export list: every public name resolves."""

import os
import pathlib
import subprocess
import sys

import spinboson


def test_every_exported_name_resolves():
    missing = [name for name in spinboson.__all__
               if not hasattr(spinboson, name)]
    assert not missing
    assert len(set(spinboson.__all__)) == len(spinboson.__all__)


def test_star_import_succeeds():
    src = pathlib.Path(spinboson.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c",
         "from spinboson import *; print(len(__import__('spinboson').__all__))"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) == len(spinboson.__all__)
