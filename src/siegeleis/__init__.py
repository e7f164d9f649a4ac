"""Exact Hecke operator computations on degree-2 Siegel Eisenstein series of
square-free level: cyclotomic-rational arithmetic, action tables for the
degree-2 Hecke generators, the simultaneous eigenbasis with its eigenvalues,
corner-to-basis relation words, and the sublattice-sum action on Fourier
expansions."""

from .characters import DirichletCharacter, LocalCharacter, legendre_epsilon
from .cyclotomic import ConductorCapError, CycNum, conductor_cap, set_conductor_cap
from .eisspace import EisSpace, Partition, enumerate_partitions
from .fourier import (CoefficientProvider, CoverageError, FourierExpansion,
                      UOperator, apply_U, calibrate_normalization,
                      krylov_spectral, project_components, provider_load)
from .hecke import (HeckeMatrix, HeckeOp, SpaceOperators, compare_eigenvalues,
                    eigenbasis, eigenvalue_closed_form, hecke_matrix,
                    s_operator, s_word)
from .lattices import (GramForm, SublatticeBasis, isotropic_lines, reduce_form,
                       restrict_and_scale, sublattices)
from .linalg import CycMatrix
from .verify import run_suite, subgroup_count_oracle

__version__ = "0.1.0"

__all__ = [
    "CoefficientProvider", "ConductorCapError", "CoverageError", "CycMatrix",
    "CycNum", "DirichletCharacter", "EisSpace", "FourierExpansion", "GramForm",
    "HeckeMatrix", "HeckeOp", "LocalCharacter", "Partition", "SpaceOperators",
    "SublatticeBasis", "UOperator", "apply_U", "calibrate_normalization",
    "compare_eigenvalues", "conductor_cap", "eigenbasis",
    "eigenvalue_closed_form", "enumerate_partitions", "hecke_matrix",
    "isotropic_lines", "krylov_spectral", "legendre_epsilon",
    "project_components", "provider_load", "reduce_form", "restrict_and_scale",
    "run_suite", "s_operator", "s_word", "set_conductor_cap",
    "subgroup_count_oracle", "sublattices",
]
