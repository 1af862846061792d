"""Property-based checks of the pairing: invariance under the braid action,
and agreement of the pair-scan prefilter's modular value with the exact
pairing."""

from operator import mul

from hypothesis import given, settings
from hypothesis import strategies as st

from burau.graphs import preset
from burau.laurent import ZZ, LaurentPoly
from burau.matrices import DUAL, STANDARD, BurauVector, act, basis_vector, pairing
from burau.search import _P, _evaluation_points, _left_images, _right_images

GRAPHS = {name: preset(name) for name in ("A3", "D4", "tildeA3")}
FORMS = [("tildeA3", STANDARD), ("A3", STANDARD), ("D4", DUAL)]


def _word(g):
    letters = st.integers(1, g.n).flatmap(lambda i: st.sampled_from([i, -i]))
    return st.lists(letters, max_size=10)


@st.composite
def twisted_roots(draw, g, form):
    """A basis root moved by a random word, in the given form."""
    vertex = draw(st.integers(1, g.n))
    return act(g, draw(_word(g)), basis_vector(g, vertex), form)


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


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(filter_cases())
def test_prefilter_value_is_the_exact_pairing_mod_p(case):
    g, x, y = case
    points = _evaluation_points(g, 2)  # q0 and q0^2
    # the scan's filter value: x's left image dotted with y's right image
    values = tuple(
        sum(map(mul, _left_images([x], point)[0], _right_images([y], point)[0])) % _P
        for point in points
    )
    exact = pairing(x, y).reduce_mod(_P)
    assert values == tuple(exact.evaluate(q) for q, _, _ in points)
