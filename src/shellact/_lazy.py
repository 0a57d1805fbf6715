"""numpy and yaml, each loaded on first attribute access.

The ``geometry`` and ``predict`` subcommands need neither library, and a
run without YAML input needs no yaml, yet importing numpy takes longer
than such a run. Modules therefore write ``from ._lazy import np``, never
``import numpy``: an import statement reads the ``__spec__`` of a module
already in ``sys.modules``, which loads a lazy module at once.
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
    return module


np = _lazy("numpy")
yaml = _lazy("yaml")
