"""The public API, decided once.

`siegeleis.__all__` is pinned to the names below.  Every other function,
method or class of the library must be used somewhere in `src/`: a
definition that only tests call belongs in the tests.  "Used" is judged by
name anywhere in the package outside its `__init__`: a bare name or an
attribute for a module-level definition, an attribute for a method.  So a
method shares its uses with every method of the same name.
"""

import ast
import sys
from pathlib import Path

import pytest

import siegeleis

PACKAGE = Path(siegeleis.__file__).resolve().parent

PUBLIC = {
    "CoefficientProvider", "ConductorCapError", "CoverageError", "CycNum", "DirichletCharacter", "EisSpace", "FourierExpansion", "GramForm",
    "HeckeMatrix", "HeckeOp", "LocalCharacter", "Partition", "SpaceOperators",
    "SublatticeBasis", "UOperator", "apply_U", "calibrate_normalization",
    "compare_eigenvalues", "conductor_cap", "eigenbasis",
    "eigenvalue_closed_form", "enumerate_partitions", "hecke_matrix",
    "isotropic_lines", "krylov_spectral", "legendre_epsilon",
    "project_components", "provider_load", "reduce_form", "restrict_and_scale",
    "run_suite", "s_operator", "set_conductor_cap",
    "subgroup_count_oracle", "sublattices",
}

# kept although nothing in src/ uses them
UNUSED_ON_PURPOSE = {
    # oracles the tests compare against
    "cyclotomic.CycNum.approx",
    "fourier.FourierExpansion.value",
    # the entry view of eigenbasis's result, for callers that want one
    # object per basis element; the library itself reads the columns
    "hecke.EigenSystem.entries",
    # decoders of what the CLI prints
    "cyclotomic.CycNum.from_json",
    "eisspace.Partition.from_json",
    "lattices.GramForm.from_json",
}


def _modules():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def _definitions(modules):
    """(qualified name, bare name, is a method) of every module-level
    function and class and every method; nested functions are local and
    left out."""
    for mod, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield f"{mod}.{node.name}", node.name, False
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        yield f"{mod}.{node.name}.{item.name}", item.name, True


def _used_names(modules):
    """The bare names and the attribute names read anywhere in the package
    outside `__init__`, whose imports re-export rather than use."""
    names, attrs = set(), set()
    for mod, tree in modules.items():
        if mod == "__init__":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    return names, attrs


def test_all_is_the_decided_set():
    assert sorted(siegeleis.__all__) == sorted(PUBLIC)
    assert len(siegeleis.__all__) == len(PUBLIC)
    for name in PUBLIC:
        assert getattr(siegeleis, name, None) is not None, name


def test_each_public_name_is_its_home_modules_object():
    for name in siegeleis.__all__:
        obj = getattr(siegeleis, name)
        assert obj.__module__.startswith("siegeleis."), name
        assert getattr(sys.modules[obj.__module__], name) is obj, name


def test_the_lazy_namespace():
    assert set(siegeleis.__all__) <= set(dir(siegeleis))
    assert "__version__" in dir(siegeleis)
    for name in ("no_such_name", "_no_such_name"):
        with pytest.raises(AttributeError, match=name):
            getattr(siegeleis, name)
    star = {}
    exec("from siegeleis import *", star)
    for name in siegeleis.__all__:
        assert star[name] is getattr(siegeleis, name), name


def test_no_library_definition_is_used_only_by_tests():
    modules = _modules()
    defined = list(_definitions(modules))
    assert UNUSED_ON_PURPOSE <= {qual for qual, _, _ in defined}, (
        "stale allowlist entry")
    names, attrs = _used_names(modules)
    unused = sorted(
        qual for qual, name, method in defined
        if name not in attrs and (method or name not in names)
        and (method or name not in PUBLIC)
        and not (name.startswith("__") and name.endswith("__"))
        and qual not in UNUSED_ON_PURPOSE
    )
    assert unused == []
