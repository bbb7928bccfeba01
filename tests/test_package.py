import os
import re
import subprocess
import sys
from pathlib import Path

import nlosc


def test_import_loads_no_scipy_or_numba():
    code = "import sys, nlosc; print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'numba'}))"
    src = str(Path(nlosc.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_import_loads_no_numpy_polynomial():
    # eigenfunctions run their three-term recurrences at the points; no
    # coefficient-list polynomial module is needed
    code = "import sys, nlosc.cli; print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))"
    src = str(Path(nlosc.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_version_matches_pyproject():
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    assert nlosc.__version__ == re.search(r'^version = "([^"]+)"', text, re.M).group(1)


def test_module_entry_point_runs_the_cli():
    # python -m nlosc.cli exited 0 and printed nothing while cli.py had no __main__ guard
    src = str(Path(nlosc.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "nlosc.cli"]
    proc = subprocess.run(argv + ["spectrum", "--lambda", "-1", "--L", "0", "--n-max", "3"], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert len(proc.stdout.splitlines()) == 5
    proc = subprocess.run(argv + ["shoot", "--lambda=1e-12", "--n", "0"], capture_output=True, text=True, env=env)
    assert proc.returncode == 1 and proc.stderr.startswith("error: LambdaTooSmall: ")
