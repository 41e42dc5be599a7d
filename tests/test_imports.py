"""``import repro`` stays light: it loads no SciPy.

Gaussian-K's threshold needs one inverse normal CDF, which the standard
library's :class:`statistics.NormalDist` provides; SciPy cost every run about
a second of import time for that one call.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro


def test_import_repro_loads_no_scipy():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = ("import sys, repro; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    result = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                            capture_output=True, text=True)
    assert result.stdout.strip() == "[]"
