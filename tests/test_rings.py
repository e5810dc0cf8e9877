import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractions import Fraction

from cotame.classify import (NOT_GOOD, GoodMonomialType, ModulePattern,
                             SpanScan, SpanWitness, Verdict)
from cotame.delta import DeltaSpec
from cotame.errors import NoSuchUnit, NotAUnit, ResourceLimit
from cotame.gf import DEFAULT_MODULI, GaloisField
from cotame.rings import (
    MAX_RING_ORDER,
    IntegerModRing,
    IntegerRing,
    PrimeField,
    RationalField,
    distinct_scalars,
    find_special_unit,
    ring_from_spec,
)


def test_make_ring_examples():
    gf9 = ring_from_spec("GF:3^2")
    assert gf9.order == 9 and gf9.characteristic == 3
    assert ring_from_spec("Zn:6").characteristic == 6
    with pytest.raises(ValueError):
        ring_from_spec("Fp:4")


def test_ring_specs_are_bounded_in_order():
    assert ring_from_spec(f"Zn:{MAX_RING_ORDER}").order == MAX_RING_ORDER
    assert ring_from_spec("Fp:16777213").order == 16777213
    for spec in (f"Zn:{MAX_RING_ORDER + 1}", "Fp:16777259", "GF:2^25", "GF:4099^2",
                 "GF:2^1000000000"):
        with pytest.raises(ResourceLimit):
            ring_from_spec(spec)
    # at the bound the irreducibility check of the modulus stays fast
    start = time.perf_counter()
    gf = ring_from_spec("GF:2^24:[1,1,1,0,0,0,0,1" + ",0" * 16 + ",1]")
    assert gf.order == MAX_RING_ORDER
    assert time.perf_counter() - start < 1
    # invalid specs keep their own errors
    for spec in ("GF:1^30", "GF:2^0", "Zn:1"):
        with pytest.raises(ValueError):
            ring_from_spec(spec)


def test_gf9_default_modulus_has_no_root_mod_3():
    # x^2 + 1 has no root mod 3
    assert all((x * x + 1) % 3 != 0 for x in range(3))


def test_reducible_modulus_rejected():
    with pytest.raises(ValueError):
        GaloisField(2, 2, (1, 0, 1))  # y^2 + 1 = (y+1)^2 over F_2
    with pytest.raises(ValueError):
        IntegerModRing(1)


def test_basic_arith_examples():
    f7 = PrimeField(7)
    assert f7.inv(3) == 5
    z4 = IntegerModRing(4)
    with pytest.raises(NotAUnit):
        z4.inv(2)
    q = RationalField()
    assert q.mul(Fraction(1, 2), Fraction(2, 3)) == Fraction(1, 3)


def test_unit_examples():
    z4 = IntegerModRing(4)
    assert not z4.is_unit(2)
    assert z4.is_unit(3)


def test_enumerate_units():
    assert list(PrimeField(5).iter_units()) == [1, 2, 3, 4]
    assert list(IntegerModRing(6).iter_units()) == [1, 5]
    for ring in (PrimeField(7), GaloisField(2, 2), GaloisField(3, 2)):
        assert len(list(ring.iter_units())) == ring.order - 1
    z12 = IntegerModRing(12)
    non_units = [a for a in range(12) if not z12.is_unit(a)]
    assert len(list(z12.iter_units())) == 12 - len(non_units)


def test_find_special_unit():
    f4 = GaloisField(2, 2)
    u, one = find_special_unit(f4), f4.one_value()
    assert f4.is_unit(u) and f4.is_unit(f4.add(u, one))
    assert u not in (f4.zero_value(), one)
    assert find_special_unit(PrimeField(3)) == 1
    assert find_special_unit(RationalField()) == Fraction(1)
    with pytest.raises(NoSuchUnit):
        find_special_unit(PrimeField(2))
    with pytest.raises(NoSuchUnit):
        find_special_unit(IntegerRing())


def test_ring_axioms_random_samples():
    rng = random.Random(7)
    rings = [
        RationalField(),
        IntegerRing(),
        IntegerModRing(12),
        PrimeField(7),
        GaloisField(3, 2),
        GaloisField(2, 3),
    ]
    for ring in rings:
        add, mul = ring.add, ring.mul
        if ring.is_finite:
            pool = [ring.index_value(i) for i in range(ring.order)]
        else:
            pool = [ring.coerce_value(rng.randint(-20, 20)) for _ in range(25)]
        for _ in range(60):
            a, b, c = (rng.choice(pool) for _ in range(3))
            assert add(add(a, b), c) == add(a, add(b, c))
            assert add(a, b) == add(b, a)
            assert mul(a, b) == mul(b, a)
            assert mul(mul(a, b), c) == mul(a, mul(b, c))
            assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        units = [u for u in pool if ring.is_unit(u)]
        for u in units[:10]:
            assert mul(u, ring.inv(u)) == ring.one_value()


def test_extension_field_inverse_exhaustive():
    for ring in (GaloisField(2, 2), GaloisField(3, 2), GaloisField(2, 3)):
        for u in ring.iter_units():
            assert ring.mul(u, ring.inv(u)) == ring.one_value()


def test_literals_round_trip():
    gf9 = GaloisField(3, 2)
    e = gf9.parse_literal("[1,2]")
    assert e == (1, 2) and gf9.parse_literal(gf9.format_value(e)) == e
    q = RationalField()
    assert q.parse_literal("-3/6") == q.mul(q.inv(q.coerce_value(2)), q.coerce_value(-1))


# raw values of each ring: Fractions over Q, ints over Z, residues and
# coefficient tuples over the finite rings
LITERAL_SPECS = ["Q", "Z", "Zn:6", "Fp:5", "GF:2^2", "GF:3^2"]


def raw_values(ring):
    if ring.is_finite:
        return st.integers(0, ring.order - 1).map(ring.index_value)
    if ring.is_field:
        return st.fractions()
    return st.integers()


@pytest.mark.parametrize("spec", LITERAL_SPECS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_raw_literals_round_trip(spec, data):
    ring = ring_from_spec(spec)
    v = data.draw(raw_values(ring))
    text = ring.format_value(v)
    parsed = ring.parse_literal(text)
    assert parsed == v and type(parsed) is type(ring.zero_value()), text
    assert ring.coerce_value(v) == v


def test_distinct_scalars():
    assert distinct_scalars(PrimeField(5), 3) == [1, 2, 3]
    from cotame.errors import DegreeConditionError

    with pytest.raises(DegreeConditionError):
        distinct_scalars(PrimeField(3), 4)
    q = RationalField()
    vals = distinct_scalars(q, 5)
    assert len(set(vals)) == 5


def test_spec_string_round_trip():
    for spec in ("Q", "Z", "Zn:10", "Fp:13", "GF:2^4", "GF:3^2:[1,0,1]"):
        ring = ring_from_spec(spec)
        assert ring_from_spec(ring.spec_string()) == ring


IDENTITY_SPECS = ["Q", "Z", "Zn:4", "Zn:8", "Zn:5", "Fp:5", "GF:5^1", "GF:3^2",
                  "GF:3^2:[2,2,1]"]


def test_rings_are_equal_exactly_when_they_name_one_ring():
    for a, b in [("Fp:5", "Zn:5"), ("GF:5^1", "Fp:5"), ("Zn:4", "Zn:8"),
                 ("Q", "Z"), ("GF:3^2:[2,2,1]", "GF:3^2"),
                 ("GF:3^2:[2,2,1]", "GF:3^2:[1,0,1]")]:
        assert ring_from_spec(a) != ring_from_spec(b), (a, b)
        assert not ring_from_spec(a) == ring_from_spec(b), (a, b)
    default, explicit = ring_from_spec("GF:3^2"), ring_from_spec("GF:3^2:[1,0,1]")
    assert default == explicit and hash(default) == hash(explicit)
    for spec in IDENTITY_SPECS:
        ring, again = ring_from_spec(spec), ring_from_spec(spec)
        assert ring == ring and ring == again and hash(ring) == hash(again)
        assert ring != spec and ring.spec_string() == again.spec_string()
    assert len({ring_from_spec(spec) for spec in IDENTITY_SPECS}) == len(IDENTITY_SPECS)


@pytest.mark.parametrize(
    "spec",
    [f"GF:{p}^{e}" for p, e in sorted(DEFAULT_MODULI)] + ["GF:3^2:[2,2,1]"],
)
def test_gf_tables_match_schoolbook_on_all_pairs(spec):
    ring = ring_from_spec(spec)
    values = [ring.index_value(i) for i in range(ring.order)]
    p = ring.p
    for a in values:
        assert ring.neg(a) == ring._slow_neg(a)
        if any(a):
            assert ring.inv(a) == ring._slow_inv(a)
        for b in values:
            assert ring.add(a, b) == ring._slow_add(a, b)
            assert ring.sub(a, b) == tuple((x - y) % p for x, y in zip(a, b))
            assert ring.mul(a, b) == ring._slow_mul(a, b)
    with pytest.raises(NotAUnit):
        ring.inv(ring.zero_value())
    # the lookups above ran on the tables, over a generator of all units
    assert len(ring._log) == ring.order - 1


# y^11 + y^2 + 1 is irreducible over F_2, and 2^11 is above the table bound
GF2048 = ring_from_spec("GF:2^11:[1,0,1,0,0,0,0,0,0,0,0,1]")
gf2048_values = st.integers(0, GF2048.order - 1).map(GF2048.index_value)


@settings(max_examples=60, deadline=None)
@given(gf2048_values, gf2048_values, gf2048_values)
def test_gf_above_the_table_bound_stays_schoolbook(a, b, c):
    ring = GF2048
    add, mul = ring.add, ring.mul
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert add(ring.sub(a, b), b) == a and add(a, ring.neg(a)) == ring.zero_value()
    if any(a):
        assert mul(a, ring.inv(a)) == ring.one_value()
    assert ring._log is None and ring._exp is None and ring._zech is None


# y^7 + 2y^2 + 1 is irreducible over F_3, and 3^7 = 2,187 is above the table bound
GF2187 = ring_from_spec("GF:3^7:[1,0,2,0,0,0,0,1]")
gf2187_values = st.integers(0, GF2187.order - 1).map(GF2187.index_value)


@settings(max_examples=60, deadline=None)
@given(gf2187_values, gf2187_values, gf2187_values)
def test_gf_of_odd_characteristic_above_the_table_bound(a, b, c):
    ring = GF2187
    add, mul = ring.add, ring.mul
    zero, one = ring.zero_value(), ring.one_value()
    assert add(a, b) == add(b, a) and mul(a, b) == mul(b, a)
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert add(a, zero) == a and mul(a, one) == a
    assert add(a, ring.neg(a)) == zero
    if any(a):
        assert mul(a, ring.inv(a)) == one
    else:
        with pytest.raises(NotAUnit):
            ring.inv(a)
    assert ring._log is None and ring._exp is None and ring._zech is None


def test_ring_pow_is_repeated_multiplication():
    for ring in (RationalField(), IntegerModRing(12), GaloisField(3, 2)):
        a = ring.coerce_value(2) if ring.order is None else list(ring.iter_units())[-1]
        acc = ring.one_value()
        for k in range(12):
            assert ring.pow(a, k) == acc
            acc = ring.mul(acc, a)
    with pytest.raises(ValueError):
        PrimeField(5).pow(2, -1)


GM = GoodMonomialType("I", 2, 3)
# (class, field values, their repr) for each Record subclass
RECORD_CASES = [
    (GoodMonomialType, ("I", 2, 3), "GoodMonomialType(tag='I', i=2, j=3)"),
    (GoodMonomialType, NOT_GOOD._values(),
     "GoodMonomialType(tag='NotGood', i=None, j=None)"),
    (SpanWitness, ((1, 0), "x2*x3", (0, 1, 1), 4, GM),
     "SpanWitness(combo=(1, 0), candidate='x2*x3', monomial=(0, 1, 1),"
     " coefficient=4, gm_type=GoodMonomialType(tag='I', i=2, j=3))"),
    (SpanScan, ((), True, 24, ("note",)),
     "SpanScan(witnesses=(), exhaustive=True, examined=24, diagnostics=('note',))"),
    (DeltaSpec, (PrimeField(7), (1, 2), (3, 6)),
     f"DeltaSpec(ring={PrimeField(7)!r}, l=(1, 2), a=(3, 6))"),
    (ModulePattern, (3, 1, 1, frozenset({0})),
     "ModulePattern(p=3, d=1, e=1, shifts=frozenset({0}))"),
    (DeltaSpec, (PrimeField(5), (2,), (1,)),
     f"DeltaSpec(ring={PrimeField(5)!r}, l=(2,), a=(1,))"),
    (Verdict, ("Unknown", None, "why", None, ("note",)),
     "Verdict(answer='Unknown', route=None, reason='why', certificate=None,"
     " diagnostics=('note',))"),
]


@pytest.mark.parametrize("cls, values, text", RECORD_CASES)
def test_records_keep_equality_hash_and_repr(cls, values, text):
    a, b = cls(*values), cls(*values)
    assert a == b and hash(a) == hash(b) and a._values() == values
    assert repr(a) == text and a != values
    for wrong in (values[:-1], values + (None,)):
        with pytest.raises((TypeError, ValueError)):
            cls(*wrong)
