"""The root ``conftest.py`` pins BLAS to one thread before NumPy is imported."""

import os
from pathlib import Path

from bench.run import THREAD_VARIABLES

ROOT_CONFTEST = Path(__file__).resolve().parent.parent / "conftest.py"


def test_blas_threads_are_pinned_before_numpy_loads(pytestconfig):
    plugins = [plugin for plugin in pytestconfig.pluginmanager.get_plugins()
               if Path(getattr(plugin, "__file__", None) or ".").resolve() == ROOT_CONFTEST]
    assert len(plugins) == 1, "the root conftest.py was not loaded"
    assert not plugins[0].NUMPY_IMPORTED_BEFORE_PIN, (
        "NumPy was imported before the root conftest.py pinned its threads")
    assert {name: os.environ.get(name) for name in THREAD_VARIABLES} == \
        dict.fromkeys(THREAD_VARIABLES, "1")
