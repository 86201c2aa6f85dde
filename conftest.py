"""Repository-wide pytest set-up: BLAS runs on one thread, as in the benchmark.

The thread variables take effect only if they are set before NumPy is first
imported; pytest loads this file before any test module or package conftest,
so the pin lands first. ``tests/test_thread_pin.py`` fails if it did not.
"""

import os
import sys

from bench.run import THREAD_VARIABLES

#: Whether NumPy was already imported when the pin below ran (it then has no effect).
NUMPY_IMPORTED_BEFORE_PIN = "numpy" in sys.modules

for _name in THREAD_VARIABLES:
    os.environ[_name] = "1"
