"""Reachability: every function the package defines runs on a CLI path.

A fixed matrix of in-process CLI runs executes under ``sys.setprofile``,
which records the code object of every Python call.  Every function and
method defined in ``src/heckezonal`` (nested functions included) must be
among them, except the library API listed in ``UNREACHED`` with its
reason.  Code that only tests call belongs in ``tests/oracles.py``; code
that nothing calls is deleted.
"""

import contextlib
import functools
import importlib
import inspect
import io
import sys
import types

import heckezonal
from heckezonal import cli

MODULES = ("", "scalars", "weyl", "hecke", "spherical", "tensor", "distinction", "gelfand", "cli")

# Each subcommand once (gelfand only inside `all`), each output format
# once, and the flags that open a code path of their own.
MATRIX = [
    ["presentation", "--e", "3", "--samples", "2"],
    ["eigen", "--e", "3", "--L", "2", "--chi-pi=-1/3", "--output", "text"],
    ["coefficient", "--e", "3", "--f", "2", "--q0", "3", "--L", "2", "--samples", "2"],
    ["growth", "--e", "3", "--L", "3", "--output", "csv"],
    ["poincare", "--e", "3", "--points=-1/2,1/3"],
    ["distinction", "--e", "3", "--L", "3", "--expect-closed-form", "1"],
    ["all", "--e", "3", "--L", "2", "--samples", "1"],
]

UNREACHED = {
    "hecke.chi": "the one-dimensional character (acceptance criterion 3); no subcommand reports it",
    "scalars.LaurentPoly.term": "monomial constructor of the scalar API, used by the doctest and tests",
    "scalars.LaurentPoly.__repr__": "readable polynomials in assertion messages and interactive use",
    "scalars.LaurentPoly.__rsub__": "int - LaurentPoly, completing the ring operations",
    "scalars.LaurentPoly.__hash__": "immutable value type: equal polynomials hash equal; no CLI path hashes one",
    "scalars.Value.__setattr__": "enforces immutability; the constructors write through slot descriptors or the instance dict",
    "scalars.Value.__delattr__": "enforces immutability: no field is removed after construction",
    "scalars.Value.__eq__": "value equality by the fields; the CLI compares windows, keys and scales, not values",
    "scalars.Value.__repr__": "readable values in assertion messages and interactive use",
    "scalars.Monomial.__add__": "monomial + rational, ring API that the scalar forms share; the coset sum adds int numerators",
    "scalars.Monomial.__hash__": "equal monomials and Fractions hash equal; no CLI path hashes a scalar",
    "scalars.Monomial.__sub__": "monomial - rational, for numeric-mode Hecke algebras (q1 - 1); no subcommand builds one",
    "scalars.Monomial.__rsub__": "rational - monomial, completing the mixed arithmetic with Fractions",
    "scalars.Monomial.__rtruediv__": "rational / monomial, completing the mixed arithmetic with Fractions",
}


def _functions(value):
    """The plain functions behind a class or module attribute."""
    if isinstance(value, (classmethod, staticmethod)):
        value = value.__func__
    elif isinstance(value, property):
        return [f for f in (value.fget, value.fset, value.fdel) if f is not None]
    elif isinstance(value, functools.cached_property):
        value = value.func
    if callable(value):
        value = inspect.unwrap(value)
    return [value] if isinstance(value, types.FunctionType) else []


def defined_functions() -> dict:
    """Code object -> "module.qualname" for every function the package defines."""
    found = {}

    def add(code, qualname, module):
        found[code] = f"{module}.{qualname}"
        for const in code.co_consts:
            if isinstance(const, types.CodeType) and not const.co_name.startswith("<"):
                add(const, f"{qualname}.<locals>.{const.co_name}", module)

    for short in MODULES:
        module = importlib.import_module(f"heckezonal.{short}" if short else "heckezonal")
        label = short or "__init__"
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr in vars(value).values():
                    for fn in _functions(attr):
                        add(fn.__code__, fn.__qualname__, label)
            for fn in _functions(value):
                if fn.__module__ == module.__name__:
                    add(fn.__code__, fn.__qualname__, label)
    return found


def run_matrix(matrix=MATRIX) -> set:
    """Code objects of every Python call made while the matrix runs.

    Memoized functions are cleared first, so that calls made earlier in
    the same test run cannot hide a function from the matrix.
    """
    for short in MODULES[1:]:
        for value in vars(importlib.import_module(f"heckezonal.{short}")).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    called = set()

    def hook(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        for argv in matrix:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.run(argv) == 0, argv
    finally:
        sys.setprofile(previous)
    return called


def test_every_function_is_reached_or_listed():
    defined = defined_functions()
    called = run_matrix()
    names = set(defined.values())
    unreached = {name for code, name in defined.items() if code not in called}
    listed = set(UNREACHED)
    assert not listed - names, f"listed but not defined: {sorted(listed - names)}"
    assert not listed - unreached, f"listed but reached: {sorted(listed - unreached)}"
    assert not unreached - listed, f"defined but never called: {sorted(unreached - listed)}"


def test_presentation_tests_laurent_coefficients_by_truth():
    # the Hecke product drops a cancelled LaurentPoly by `if new:`, not by
    # the slower Python-level `new == 0`
    called = run_matrix([["presentation", "--e", "3"]])
    assert heckezonal.scalars.LaurentPoly.__bool__.__code__ in called
