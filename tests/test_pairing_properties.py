"""Property-based checks of the pairing: invariance under the braid action,
its split into a Gram image and one dot product, and agreement of the
pair-scan prefilter's packed modular value with the exact pairing."""

from hypothesis import given, settings
from hypothesis import strategies as st

from burau.graphs import preset
from burau.laurent import ZZ, IntegersMod, LaurentPoly
from burau.matrices import (
    DUAL,
    STANDARD,
    BurauVector,
    act,
    basis_vector,
    gram_image,
    pairing,
)
from burau.search import (
    _P,
    _evaluation_points,
    _left_images,
    _pack_blocks,
    _right_images,
    _slot_residues,
)

GRAPHS = {name: preset(name) for name in ("A3", "D4", "tildeA3")}
FORMS = [("tildeA3", STANDARD), ("A3", STANDARD), ("D4", DUAL)]


def _word(g):
    letters = st.integers(1, g.n).flatmap(lambda i: st.sampled_from([i, -i]))
    return st.lists(letters, max_size=10)


@st.composite
def twisted_roots(draw, g, form, ring=ZZ):
    """A basis root moved by a random word, in the given form and ring."""
    vertex = draw(st.integers(1, g.n))
    return act(g, draw(_word(g)), basis_vector(g, vertex, ring), form)


@st.composite
def invariance_cases(draw):
    name, form = draw(st.sampled_from(FORMS))
    g = GRAPHS[name]
    x = draw(twisted_roots(g, form))
    y = draw(twisted_roots(g, form))
    return g, form, draw(_word(g)), x, y


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(invariance_cases())
def test_pairing_is_invariant_under_the_braid_action(case):
    g, form, sigma, x, y = case
    assert pairing(act(g, sigma, x, form), act(g, sigma, y, form), form) == pairing(
        x, y, form
    )


laurent_polys = st.dictionaries(
    st.integers(-12, 12), st.integers(-(10**20), 10**20), max_size=4
).map(lambda terms: LaurentPoly.from_dict(ZZ, terms))


@st.composite
def filter_cases(draw):
    """Two integer vectors: twisted roots, or arbitrary Laurent coordinates
    with negative exponents and coefficients beyond 2^61."""
    g = GRAPHS[draw(st.sampled_from(["A3", "tildeA3"]))]

    def vector():
        if draw(st.booleans()):
            return draw(twisted_roots(g, STANDARD))
        return BurauVector(g, ZZ, tuple(draw(laurent_polys) for _ in range(g.n)))

    return g, vector(), vector()


@st.composite
def split_cases(draw):
    """Two twisted roots in one form over Z or Z/p, or arbitrary Laurent
    coordinates over Z."""
    name, form = draw(st.sampled_from(FORMS + [("tildeA3", DUAL), ("D4", STANDARD)]))
    g = GRAPHS[name]
    ring = draw(st.sampled_from([ZZ, IntegersMod(2), IntegersMod(7), IntegersMod(_P)]))
    if ring == ZZ and draw(st.booleans()):
        x, y = (BurauVector(g, ZZ, tuple(draw(laurent_polys) for _ in range(g.n))) for _ in "xy")
    else:
        x, y = draw(twisted_roots(g, form, ring)), draw(twisted_roots(g, form, ring))
    return form, x, y


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(split_cases())
def test_pairing_is_the_dot_of_bar_x_with_the_gram_image_of_y(case):
    form, x, y = case
    image = gram_image(y, form)
    assert len(image) == y.graph.n
    assert all(c.ring == y.ring for c in image)
    assert pairing(x, y, form) == LaurentPoly.dot([c.bar() for c in x.coords], image)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(filter_cases())
def test_prefilter_value_is_the_exact_pairing_mod_p(case):
    g, x, y = case
    points = _evaluation_points(g, 2)  # q0 and q0^2
    # the scan's filter value: x's left image against y's right image,
    # packed in the slot between two others
    rights = [_right_images([x, y, x], point) for point in points]
    ((_, count, packed),) = _pack_blocks(rights, g.n)
    values = tuple(
        _slot_residues(_left_images([x], point)[0], at_point, count)[1]
        for point, at_point in zip(points, packed)
    )
    exact = pairing(x, y).reduce_mod(_P)
    assert values == tuple(exact.evaluate(q) for q, _, _ in points)
