"""The GF(p) lane stays off numpy.random."""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

_SCRIPT = """
import sys
import numpy as np
from translab import modp

# D = 12 basis matrices of Mat(2, 3) at k = 1: the scan is blind to the
# last j = 2 columns, and the 8 rows of K left by the 4 independent unit
# columns are more than the t + s(5) = 6 rows of the compressed copy, so
# the scan sketches
calls = []
sketch = modp._sketch
modp._sketch = lambda *a: calls.append(a) or sketch(*a)
basis = np.eye(6, dtype=np.int64).reshape(6, 2, 3)
basis = np.concatenate([basis, basis])
ok, failure, points = modp.surjectivity_scan(basis, 1, 5)
assert ok and failure is None and points == 31, (ok, points)
assert calls == [(6, 8, 5)], calls
print("numpy.random" in sys.modules)
"""


def test_sketched_scan_does_not_import_numpy_random():
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", _SCRIPT], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
