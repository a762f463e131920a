"""Every ibnsim submodule imports on its own, whichever module loads first.

``compilation`` and ``multidomain`` import each other, so each submodule is
imported first in a fresh interpreter.
"""

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(info.name for info in pkgutil.iter_modules([str(SRC / "ibnsim")]))


@pytest.mark.parametrize("module", MODULES)
def test_submodule_imports_first(module):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", f"import ibnsim.{module}"], env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
