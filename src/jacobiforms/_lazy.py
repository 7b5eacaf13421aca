"""numpy, executed on its first attribute use.

Exact requests (lattice validation, the discriminant form, trivial Eisenstein
coefficients) run in Python ints and should not pay for numpy's import.  Every
module binds numpy as `from ._lazy import np`; this is the stdlib
`importlib.util.LazyLoader` recipe, so binding it runs nothing and the first
read such as `np.array` executes numpy.  Any plain `import numpy` loads it at
once, so the package never writes one.
"""

import importlib.util
import sys


def _lazy_import(name):
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module


np = _lazy_import("numpy")
