"""Modules bound once and loaded at their first use.

`lazy(name)` puts a module in `sys.modules`, and a submodule on its
package as an import does, without running it; the module's code runs at
the first attribute access. numpy is bound this way (`np`), and so is each
layer of the package (`hermflow/__init__.py`): `import hermflow` runs no
compute layer, and a command compiles and runs only the layers it uses.
The package runs on one thread, so that first access has no race to
guard against.
"""
from __future__ import annotations

import importlib.util
import sys


def lazy(name: str):
    """The module `name` if it is imported already, else a module that loads
    it when first used."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    package, _, child = name.rpartition(".")
    if package:
        setattr(sys.modules[package], child, module)
    return module


np = lazy("numpy")
