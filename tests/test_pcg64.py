"""The pure-Python PCG64 stream against values numpy produced.

Each list is ``numpy.random.Generator(numpy.random.PCG64(seed)).random()``
drawn four times (numpy 2.4.6), kept as literals so the test needs no numpy.
The seeds cover one, two, three and four 32-bit entropy words.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from ibnsim.pcg64 import random_doubles

SRC = Path(__file__).resolve().parent.parent / "src"

NUMPY_DRAWS = {
    0: [0.6369616873214543, 0.2697867137638703, 0.04097352393619469, 0.016527635528529094],
    7: [0.625095466604667, 0.8972138009695755, 0.7756856902451935, 0.22520718999059186],
    2**32: [0.8897387912781343, 0.5571380502062263, 0.8009080868919721, 0.9565138174753386],
    2**64: [0.4492388188116676, 0.39104163833546157, 0.5769687853211488, 0.2894989744777332],
    2**100 + 3: [0.778146097746641, 0.09782687380215593, 0.23095669722381318, 0.6555261894857133],
}


@pytest.mark.parametrize("seed", sorted(NUMPY_DRAWS))
def test_stream_matches_numpy(seed):
    assert random_doubles(seed, 4) == NUMPY_DRAWS[seed]


def test_negative_seed_is_refused():
    with pytest.raises(ValueError):
        random_doubles(-1, 1)


def test_cli_import_leaves_numpy_unloaded():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, ibnsim.cli; print('numpy' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"
