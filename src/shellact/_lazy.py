"""Modules loaded on first attribute access: numpy, yaml and the package's own.

The ``geometry`` and ``predict`` subcommands need neither library, and a
run without YAML input needs no yaml, yet importing numpy takes longer
than such a run. Likewise each subcommand runs only some of the package's
modules, and every module a start executes is compiled and its classes
built. Modules therefore write ``from ._lazy import np``, never ``import
numpy``, and ``cli`` reaches the package's modules as ``_lazy`` module
objects: an import statement reads the ``__spec__`` of a module already in
``sys.modules``, which loads a lazy module at once.
"""

import importlib.util
import sys


def _lazy(name: str):
    """The module ``name``, registered to load when an attribute is first read."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    parent, _, child = name.rpartition(".")
    if parent:  # as an import binds a submodule to its package
        setattr(sys.modules[parent], child, module)
    return module


np = _lazy("numpy")
yaml = _lazy("yaml")
