"""Exact tools for stably co-tame polynomial automorphisms.

The package decides (where the theory permits) whether a polynomial
automorphism together with all affine maps in one extra variable
generates every tame automorphism, and certifies positive answers with
an explicit generator word that a dumb evaluator can re-check.
"""

from .rings import (
    GaloisField,
    IntegerModRing,
    IntegerRing,
    PrimeField,
    RationalField,
    RingElement,
    enumerate_units,
    find_special_unit,
    ring_from_spec,
)
from .poly import NEG_INF, Polynomial, parse_poly
from .endo import (
    AffineMap,
    Endomorphism,
    GeneratorWord,
    IdealHandle,
    compose,
    conjugate,
    elementary,
    elementary_last,
    extend,
    identity,
    invert_structured,
    reduce_mod,
)
from .classify import (
    GoodMonomialType,
    ModulePattern,
    Verdict,
    decide,
    degree_condition,
    good_coefficients,
    good_ideal,
    good_monomial_type,
    no_good_monomials,
    pattern_membership,
)
from .witness import (
    DeltaSpec,
    SpanDecomposition,
    build_witness,
    compile_last_word,
    compile_tame_word,
    convert_cube,
    convert_square,
    delta_apply,
    delta_module_membership,
    delta_power,
    delta_route,
    shift_extract,
    theta_map,
    vandermonde_extract,
    verify_witness,
)

__all__ = [name for name in dir() if not name.startswith("_")]
