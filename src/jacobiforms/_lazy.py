"""Modules executed on their first attribute use: numpy and the package's own.

A request runs a small part of the package: `info` and `rep` never reach the
Eisenstein and Poincare modules, an exact Eisenstein request never reaches the
H_c sums and a numeric one never the representation counts, and only
`verify` does array work.  `lazy_import` registers a module
through the stdlib `importlib.util.LazyLoader` recipe: binding it runs
nothing, and its first attribute read, such as `np.array` or
`eisenstein.eisenstein_expansion`, executes it.  numpy is bound as
`from ._lazy import np`; `jacobiforms/__init__.py` registers every submodule,
so a module that needs another on some paths only binds it as
`from . import name` and reads `name.attr` where that path runs.  A plain
`import numpy` or `from .name import attr` executes the module at once, so the
package writes one only where every caller needs the module.
"""

import importlib.util
import sys


def lazy_import(name):
    """The module `name`, to be executed on its first attribute read (now, if already imported)."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module


np = lazy_import("numpy")
