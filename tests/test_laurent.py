"""Exact Laurent polynomial arithmetic over Z and Z/nZ."""

import random

import pytest

from burau.laurent import ZZ, CoefficientRing, IntegersMod, LaurentPoly


def poly(d, ring=ZZ):
    return LaurentPoly.from_dict(ring, d)


def random_poly(rng, ring=ZZ, span=6):
    terms = {}
    for _ in range(rng.randrange(0, 5)):
        terms[rng.randrange(-span, span + 1)] = rng.randrange(-9, 10)
    return LaurentPoly.from_dict(ring, terms)


def test_zero_and_one():
    z = LaurentPoly.zero(ZZ)
    assert z.is_zero() and str(z) == "0"
    one = LaurentPoly.one(ZZ)
    assert one == LaurentPoly.monomial(ZZ, 0) and one.terms == ((0, 1),)
    assert (z + one) == one
    assert (one * z).is_zero()


def test_normalization_drops_zero_coefficients():
    p = poly({3: 0, 1: 2, 0: 0})
    assert p.terms == ((1, 2),)


def test_addition_and_subtraction():
    p = poly({2: 1, 0: -3})
    r = poly({2: -1, 1: 5})
    assert (p + r) == poly({1: 5, 0: -3})
    assert (p - p).is_zero()


def test_multiplication_collects_exponents():
    p = poly({1: 1, 0: 1})  # q + 1
    assert p * p == poly({2: 1, 1: 2, 0: 1})
    assert poly({-1: 2}) * poly({1: 3}) == poly({0: 6})


def test_shift_multiplies_by_power_of_q():
    p = poly({1: 1, -2: 4})
    assert p.shift(3) == poly({4: 1, 1: 4})
    assert p.shift(0) == p


def test_bar_inverts_q():
    p = poly({2: 5, -1: -1})
    assert p.bar() == poly({-2: 5, 1: -1})
    assert p.bar().bar() == p


def test_str_is_sign_aware():
    assert str(poly({2: -1, 0: 1})) == "-q^2 + 1"
    assert str(poly({1: 1})) == "q"
    assert str(poly({-3: 4, 1: -2})) == "-2*q + 4*q^-3"
    assert str(poly({})) == "0"
    assert str(poly({0: 1})) == "1"
    assert str(poly({0: -7, -1: 3})) == "-7 + 3*q^-1"
    assert str(poly({5: 1, -5: 1})) == "q^5 + q^-5"


def test_ring_arithmetic_is_distributive():
    rng = random.Random(42)
    for _ in range(300):
        x, y, z = (random_poly(rng) for _ in range(3))
        assert (x + y) * z == x * z + y * z
        assert x * y == y * x
        assert x.bar() * y.bar() == (x * y).bar()


def test_rings_take_only_int_moduli():
    assert CoefficientRing() == ZZ and str(ZZ) == "Z"
    assert IntegersMod(5) is IntegersMod(5) and str(IntegersMod(5)) == "Z/5"
    for bad in (5.0, True, 1, 0, "5"):
        with pytest.raises(ValueError, match="modulus"):
            IntegersMod(bad)


def test_coefficients_must_be_ints_not_bools_or_floats():
    with pytest.raises(TypeError):
        LaurentPoly.from_dict(ZZ, {0: True, 1: True})
    with pytest.raises(TypeError):
        LaurentPoly.from_dict(IntegersMod(5), {0: 2.0})


def test_exponents_must_be_ints_not_bools_or_floats():
    for bad in (0.5, 2.0, True):
        with pytest.raises(TypeError, match="exponents"):
            LaurentPoly.from_dict(ZZ, {bad: 1, 2: 3})
        with pytest.raises(TypeError, match="exponents"):
            LaurentPoly.monomial(ZZ, bad)
        with pytest.raises(TypeError, match="exponents"):
            LaurentPoly.from_json_terms(IntegersMod(5), [[bad, 2]])
    # a zero coefficient does not excuse a bad exponent, nor does an equal int
    with pytest.raises(TypeError, match="exponents"):
        LaurentPoly.from_dict(ZZ, {1.9: 0})
    with pytest.raises(TypeError, match="exponents"):
        LaurentPoly.from_json_terms(ZZ, [[1, 2], [1.0, 3]])


def test_json_terms_refuse_string_coefficients():
    with pytest.raises(TypeError):
        LaurentPoly.from_json_terms(ZZ, [[1, "1/2"]])
    with pytest.raises(TypeError):
        LaurentPoly.from_json_terms(IntegersMod(5), [[0, "3"]])


def test_mod_ring_normalizes_into_range():
    ring = IntegersMod(6)
    p = poly({1: 7, 0: -1}, ring)
    assert p.terms == ((1, 1), (0, 5))
    assert p + poly({0: 1}, ring) == poly({1: 1}, ring)


def test_mod_ring_supports_composite_moduli():
    ring = IntegersMod(15)
    p = poly({0: 5}, ring) * poly({0: 3}, ring)
    assert p.is_zero()  # zero divisors are fine: no division happens


def test_reduce_mod_matches_integer_arithmetic():
    rng = random.Random(43)
    for _ in range(200):
        x = random_poly(rng)
        y = random_poly(rng)
        m = rng.choice([2, 6, 7, 9, 16])
        assert (x * y).reduce_mod(m) == x.reduce_mod(m) * y.reduce_mod(m)
        assert (x + y).reduce_mod(m) == x.reduce_mod(m) + y.reduce_mod(m)


def test_evaluate_at_units():
    p = poly({2: 1, 0: 1})
    assert p.evaluate(-1) == 2
    assert poly({-1: 3}).evaluate(-1) == -3
    with pytest.raises(ZeroDivisionError):
        poly({-1: 1}).evaluate(2)  # only +-1 are units over Z
    with pytest.raises(ZeroDivisionError):
        poly({-1: 1}, IntegersMod(6)).evaluate(2)  # 2 has no inverse mod 6
    assert poly({-2: 1}, IntegersMod(9)).evaluate(2) == 7  # 2^-2 = 25 = 7


def test_degree_span_and_monomial():
    p = poly({3: 1, -2: 4})
    assert p.degree_span() == (-2, 3)
    assert p.as_monomial() is None
    assert poly({5: -2}).as_monomial() == (5, -2)
    assert LaurentPoly.zero(ZZ).as_monomial() is None


def test_signed_q_power_over_z_z2_and_z6():
    assert poly({3: 1}).signed_q_power() == (3, 1)
    assert poly({-2: -1}).signed_q_power() == (-2, -1)
    assert poly({0: 1}).signed_q_power() == (0, 1)
    assert poly({1: 2}).signed_q_power() is None
    assert poly({1: 1, 0: 1}).signed_q_power() is None
    assert LaurentPoly.zero(ZZ).signed_q_power() is None
    # over Z/2, 1 = -1 and the sign is reported as +1
    assert poly({4: 1}, IntegersMod(2)).signed_q_power() == (4, 1)
    assert poly({4: -1}, IntegersMod(2)).signed_q_power() == (4, 1)
    assert poly({4: 2}, IntegersMod(2)).signed_q_power() is None
    # over Z/6, 5 = -1 while 2 and 3 are not units of the form +-1
    assert poly({-1: 5}, IntegersMod(6)).signed_q_power() == (-1, -1)
    assert poly({-1: 7}, IntegersMod(6)).signed_q_power() == (-1, 1)
    assert poly({2: 2}, IntegersMod(6)).signed_q_power() is None
    assert poly({2: 3}, IntegersMod(6)).signed_q_power() is None


def test_json_terms_refuse_a_repeated_exponent():
    # the last of two terms used to win silently: [[1, 2], [1, 3]] gave 3*q
    for ring in (ZZ, IntegersMod(5)):
        with pytest.raises(ValueError, match="exponent 1 appears more than once"):
            LaurentPoly.from_json_terms(ring, [[1, 2], [1, 3]])
        with pytest.raises(ValueError, match="exponent -2 appears more than once"):
            LaurentPoly.from_json_terms(ring, [[3, 1], [-2, 1], [-2, 1]])
    # a zero term repeated is refused too, not folded into the other
    with pytest.raises(ValueError, match="exponent 0 appears more than once"):
        LaurentPoly.from_json_terms(ZZ, [[0, 0], [0, 4]])
    assert LaurentPoly.from_json_terms(ZZ, [[1, 2], [0, 3]]) == poly({1: 2, 0: 3})


def test_json_terms_round_trip():
    rng = random.Random(44)
    for _ in range(100):
        p = random_poly(rng)
        assert LaurentPoly.from_json_terms(ZZ, p.to_json_terms()) == p


def test_mixed_ring_operations_refused():
    with pytest.raises(ValueError):
        poly({0: 1}) + poly({0: 1}, IntegersMod(5))


def test_dense_form_and_dot_edge_cases():
    p = poly({3: 1, -2: 4})
    assert (p.low, p.coeffs) == (-2, (4, 0, 0, 0, 0, 1))
    assert p.terms == ((3, 1), (-2, 4))
    assert LaurentPoly.zero(ZZ) == LaurentPoly(ZZ, 0, ())
    # over Z/6 the leading product 2 * 3 vanishes and is trimmed
    ring = IntegersMod(6)
    assert poly({1: 2, 0: 1}, ring) * poly({1: 3}, ring) == poly({1: 3}, ring)
    with pytest.raises(ValueError):
        LaurentPoly.dot([], [])
    with pytest.raises(ValueError):
        LaurentPoly.dot([p, p], [p])
