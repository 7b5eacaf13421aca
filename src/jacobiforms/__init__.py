"""Fourier expansions of Eisenstein and Poincare series for Jacobi forms of
lattice index: exact rational coefficients for the trivial Eisenstein series,
truncated-series numerics for the rest, and the Weil/Schroedinger averaging
relations connecting them.

The namespace is lazy: every submodule is registered by `_lazy.lazy_import`
and executes on its first attribute read, and each public name below resolves
through the module-level `__getattr__` (PEP 562), so `import jacobiforms`
runs no submodule and a request runs only the modules its command reads.
"""

from ._lazy import lazy_import

__version__ = "0.1.0"

_SUBMODULES = ("errors", "rationals", "numbertheory", "lattice", "expsums", "repcounts",
               "oracles", "eisenstein", "poincare", "weilrep")

# public name -> the submodule that defines it
_ORIGIN = {name: module for module, names in (
    ("eisenstein", "CoefficientValue EisensteinSpec eisenstein_coefficient_numeric "
                   "eisenstein_expansion singular_term theta_coefficients "
                   "trivial_coefficient_exact trivial_coefficient_series"),
    ("errors", "ComputationDomainError ConvergenceDomainError JacobiFormError OutOfRangeError "
               "ResourceLimitError TailTooLargeError ValidationError"),
    ("repcounts", "RepCountKey dirichlet_series_partial local_factor rep_count"),
    ("oracles", "eisenstein_lattice_sum kloosterman kloosterman_decomposition "
                "poincare_lattice_sum"),
    ("lattice", "DiscElement EvenLattice FourierExpansion FourierIndex beta_values coset_points "
                "discriminant_group enumerate_supp isotropy_set lattice_character "
                "load_lattice_json make_lattice"),
    ("numbertheory", "QuadChar bernoulli bernoulli_poly bessel_j dirichlet_L_nonpositive "
                     "fundamental_decomposition gamma_half kronecker moebius sigma_twisted"),
    ("poincare", "PeterssonConstant PoincareSpec petersson_constant poincare_coefficient "
                 "poincare_expansion"),
    ("weilrep", "OrbitRelation RepMatrix averaging_matrix conjugation_check "
                "nontrivial_from_trivial orbit_relation rho_generator rho_word schrodinger_matrix"),
) for name in names.split()}

globals().update({name: lazy_import(f"{__name__}.{name}") for name in _SUBMODULES})

__all__ = sorted([*_ORIGIN, *_SUBMODULES])


def __getattr__(name):
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(globals()[_ORIGIN[name]], name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
