"""The runtime import graph: scipy is a test-only dependency."""

import os
import subprocess
import sys
from pathlib import Path

import mfachest


def test_import_does_not_load_scipy():
    # A fresh interpreter: this test process imports scipy itself.
    src = str(Path(mfachest.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import mfachest, sys; assert not any(m.split('.')[0] == 'scipy' for m in sys.modules)"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
