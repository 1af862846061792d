"""Property-based checks of Laurent arithmetic over Z, Z/5 and Z/6: the ring
axioms, the canonical form, hashing, bar and shift, the JSON round trip,
evaluation at units, the fused dot product and row step, and ring
mismatches."""

from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burau.laurent import ZZ, IntegersMod, LaurentPoly, row_step, row_terms

RINGS = (ZZ, IntegersMod(5), IntegersMod(6))
SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def _polys(ring):
    return st.dictionaries(st.integers(-6, 6), st.integers(-30, 30), max_size=5).map(
        lambda terms: LaurentPoly.from_dict(ring, terms)
    )


def _units(ring):
    if ring.p is None:
        return st.sampled_from((1, -1))
    return st.sampled_from([u for u in range(1, ring.p) if gcd(u, ring.p) == 1])


@st.composite
def ring_and_polys(draw, count=3):
    ring = draw(st.sampled_from(RINGS))
    return (ring, *(draw(_polys(ring)) for _ in range(count)))


def _reference_terms(ring, terms):
    """Descending non-zero (exponent, coefficient) pairs, from a dict model."""
    acc = {}
    for e, c in terms:
        acc[e] = acc.get(e, 0) + c
    reduced = ((e, ring.normalize(c)) for e, c in acc.items())
    return tuple(sorted(((e, c) for e, c in reduced if c != 0), reverse=True))


def _assert_canonical(p):
    ring = p.ring
    if not p.coeffs:
        assert p.low == 0
        return
    assert p.coeffs[0] != 0 and p.coeffs[-1] != 0
    for c in p.coeffs:
        assert type(c) is int
        assert ring.normalize(c) == c


@SETTINGS
@given(ring_and_polys())
def test_ring_axioms(case):
    ring, x, y, z = case
    zero, one = LaurentPoly.zero(ring), LaurentPoly.one(ring)
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x + y == y + x
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert x + zero == x and x * one == x and x * zero == zero
    assert x + (-x) == zero
    assert x - y == x + (-y)


@SETTINGS
@given(ring_and_polys())
def test_products_and_sums_match_a_dict_model(case):
    ring, x, y, _ = case
    assert (x + y).terms == _reference_terms(ring, x.terms + y.terms)
    product = [(e1 + e2, c1 * c2) for e1, c1 in x.terms for e2, c2 in y.terms]
    assert (x * y).terms == _reference_terms(ring, product)


@SETTINGS
@given(ring_and_polys())
def test_results_are_canonical_and_zero_is_unique(case):
    ring, x, y, z = case
    for p in (x, y, x + y, x - y, x * y, -x, x.bar(), x.shift(3), z.scale(3)):
        _assert_canonical(p)
    zero = LaurentPoly(ring, 0, ())
    for p in (
        x - x,
        x * LaurentPoly.zero(ring),
        LaurentPoly.from_dict(ring, {}),
        LaurentPoly.from_dict(ring, {4: 0, -2: 0}),
        LaurentPoly.monomial(ring, 7, 0),
        x.scale(0),
        LaurentPoly.dot((x, y), (LaurentPoly.zero(ring), LaurentPoly.zero(ring))),
    ):
        assert p == zero and p.low == 0 and p.coeffs == ()
        assert p.is_zero() and p.degree_span() is None


@SETTINGS
@given(ring_and_polys())
def test_equal_polynomials_hash_equal(case):
    _, x, y, z = case
    pairs = [((x + y) - y, x), (x * y, y * x), ((x + y) + z, x + (y + z))]
    for left, right in pairs:
        assert left == right
        assert hash(left) == hash(right)


@SETTINGS
@given(ring_and_polys(), st.integers(-8, 8))
def test_bar_is_an_involution_and_shift_inverts(case, k):
    ring, x, y, _ = case
    assert x.bar().bar() == x
    assert (x * y).bar() == x.bar() * y.bar()
    assert (x + y).bar() == x.bar() + y.bar()
    assert x.shift(k).shift(-k) == x
    assert x.shift(k) == x * LaurentPoly.monomial(ring, k)
    assert x.shift(k).bar() == x.bar().shift(-k)
    if x.coeffs:
        lo, hi = x.degree_span()
        assert x.bar().degree_span() == (-hi, -lo)
        assert x.shift(k).degree_span() == (lo + k, hi + k)


@SETTINGS
@given(ring_and_polys())
def test_json_round_trip(case):
    ring, x, _, _ = case
    assert LaurentPoly.from_json_terms(ring, x.to_json_terms()) == x


@SETTINGS
@given(
    st.sampled_from(RINGS).flatmap(
        lambda ring: st.tuples(_units(ring), _polys(ring), _polys(ring))
    )
)
def test_evaluation_at_a_unit_is_a_ring_homomorphism(case):
    u, x, y = case
    ring = x.ring
    p = ring.p
    # the value term by term: over Z the unit u = +-1 is its own inverse
    powers = {e: u ** abs(e) if p is None else pow(u, e, p) for e in range(-6, 7)}
    assert x.evaluate(u) == ring.normalize(sum(c * powers[e] for e, c in x.terms))
    assert (x * y).evaluate(u) == ring.normalize(x.evaluate(u) * y.evaluate(u))
    assert (x + y).evaluate(u) == ring.normalize(x.evaluate(u) + y.evaluate(u))


@SETTINGS
@given(
    st.sampled_from(RINGS).flatmap(
        lambda ring: st.tuples(
            st.just(ring),
            st.lists(st.tuples(_polys(ring), _polys(ring)), min_size=1, max_size=5),
        )
    )
)
def test_dot_is_the_sum_of_products(case):
    ring, pairs = case
    xs = [x for x, _ in pairs]
    ys = [y for _, y in pairs]
    total = LaurentPoly.zero(ring)
    for x, y in pairs:
        total = total + x * y
    assert LaurentPoly.dot(xs, ys) == total
    assert LaurentPoly.dot(iter(xs), iter(ys)) == total


@SETTINGS
@given(st.data())
def test_row_terms_is_the_canonical_row_product(data):
    # the row step and the ring arithmetic share one normalisation and
    # give one canonical form
    ring = data.draw(st.sampled_from(RINGS))
    coords = data.draw(st.lists(_polys(ring), min_size=1, max_size=4))
    terms = data.draw(
        st.lists(
            st.tuples(st.integers(0, len(coords) - 1), st.integers(-3, 3), st.integers(-4, 4)),
            max_size=5,
        )
    )
    expected = LaurentPoly.zero(ring)
    for j, e, c in terms:
        expected = expected + LaurentPoly.monomial(ring, e, c) * coords[j]
    low, coeffs = row_terms(terms, coords)
    _assert_canonical(LaurentPoly(ring, low, coeffs))
    assert LaurentPoly(ring, low, coeffs) == expected
    assert row_step(terms, coords) == expected


@SETTINGS
@given(st.permutations(RINGS), st.data())
def test_ring_mismatch_raises(rings, data):
    r1, r2 = rings[:2]
    x = data.draw(_polys(r1))
    y = data.draw(_polys(r2))
    one = LaurentPoly.one(r1)
    with pytest.raises(ValueError):
        x + y
    with pytest.raises(ValueError):
        x * y
    with pytest.raises(ValueError):
        LaurentPoly.dot((x, one), (one, y))
    with pytest.raises(ValueError):
        LaurentPoly.dot((one, y), (x, one))
