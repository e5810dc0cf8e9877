"""Exact tools for stably co-tame polynomial automorphisms.

The package decides (where the theory permits) whether a polynomial
automorphism together with all affine maps in one extra variable
generates every tame automorphism, and certifies positive answers with
an explicit generator word that a dumb evaluator can re-check.

Importing the package runs none of its submodules: each public name is
looked up in its submodule on first access (PEP 562), so a command that
never touches, say, ``witness`` never compiles it.  The map core
(``maps``) is apart from affine maps, inversion and words (``endo``), so
``decide`` never compiles ``endo`` or ``linalg``; it loads ``delta`` only
when the difference-operator search runs, and only a ``GF:`` ring loads
``gf``.
"""

from importlib import import_module as _import_module

# submodule -> the public names it defines
_EXPORTS = {
    "rings": (
        "IntegerModRing", "IntegerRing", "PrimeField", "RationalField",
        "find_special_unit", "ring_from_spec",
    ),
    "gf": ("GaloisField",),
    "poly": ("NEG_INF", "Polynomial", "parse_poly"),
    "maps": (
        "Endomorphism", "IdealHandle", "compose", "elementary", "elementary_last",
        "extend", "identity", "reduce_mod",
    ),
    "endo": (
        "AffineMap", "GeneratorWord", "conjugate", "invert_structured",
        "theta_map", "verify_witness",
    ),
    "classify": (
        "GoodMonomialType", "ModulePattern", "Verdict", "decide",
        "degree_condition", "good_ideal", "good_monomial_type",
        "no_good_monomials", "pattern_membership",
    ),
    "witness": (
        "SpanDecomposition", "build_witness", "compile_last_word",
        "compile_tame_word", "convert_cube", "convert_square",
        "shift_extract", "vandermonde_extract",
    ),
    "delta": (
        "DeltaSpec", "delta_apply", "delta_match", "delta_module_membership",
        "delta_power",
    ),
    "errors": (),  # in __all__ as before; its names stay in cotame.errors
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name):
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
