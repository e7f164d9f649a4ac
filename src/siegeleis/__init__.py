"""Exact Hecke operator computations on degree-2 Siegel Eisenstein series of
square-free level: cyclotomic-rational arithmetic, action tables for the
degree-2 Hecke generators, the simultaneous eigenbasis with its eigenvalues,
corner-to-basis relation words, and the sublattice-sum action on Fourier
expansions.

The namespace is lazy: a public name, or a submodule such as
`siegeleis.hecke`, imports its module on first access."""

import importlib

__version__ = "0.1.0"

# the public names by the module that defines them
_PUBLIC = {
    "characters": ("DirichletCharacter", "LocalCharacter", "legendre_epsilon"),
    "cyclotomic": ("ConductorCapError", "CycNum", "conductor_cap",
                   "set_conductor_cap"),
    "eisspace": ("EisSpace", "Partition", "enumerate_partitions"),
    "fourier": ("CoefficientProvider", "CoverageError", "FourierExpansion",
                "UOperator", "apply_U", "calibrate_normalization",
                "krylov_spectral", "project_components", "provider_load"),
    "hecke": ("HeckeMatrix", "HeckeOp", "SpaceOperators", "compare_eigenvalues",
              "eigenbasis", "eigenvalue_closed_form", "hecke_matrix",
              "s_operator"),
    "lattices": ("GramForm", "SublatticeBasis", "isotropic_lines",
                 "reduce_form", "restrict_and_scale", "sublattices"),
    "verify": ("run_suite", "subgroup_count_oracle"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}
_SUBMODULES = {"cli", "jsonout", *_PUBLIC}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _HOME:
        module = importlib.import_module(f"{__name__}.{_HOME[name]}")
        value = globals()[name] = getattr(module, name)
        return value
    if name in _SUBMODULES:  # importing a submodule binds it here
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
