"""numpy, bound once and loaded at its first use.

The modules that compute with floats take `np` from here. Importing them
puts numpy in `sys.modules` without running it; numpy's code runs at the
first attribute access (`np.zeros`, `np.ndarray`, ...). So `import
hermflow` and the commands that compute only with Fractions never pay
numpy's import.

Python 3.11's lazy loader does not guard that first access against two
threads at once: it must happen on one thread.
"""
from __future__ import annotations

import importlib.util
import sys


def _bind():
    """numpy if it is imported already, else a module that loads it when
    first used."""
    if "numpy" in sys.modules:
        return sys.modules["numpy"]
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module


np = _bind()
