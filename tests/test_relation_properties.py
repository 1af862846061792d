"""Property-based checks that the Burau matrices and the vector action respect
the defining relations of the braid group, in both forms and over Z and Z/6:
inserting a trivial braid anywhere in a word changes neither its matrix nor
its action on a vector."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burau.graphs import INF, CoxeterGraph, preset
from burau.laurent import ZZ, IntegersMod, LaurentPoly
from burau.matrices import DUAL, STANDARD, BurauVector, act, word_matrix

GRAPHS = {
    "A3": preset("A3"),
    "D4": preset("D4"),
    "tildeA3": preset("tildeA3"),
    # an infinity edge carries no relation, so only inverse pairs cross it
    "inf-edge": CoxeterGraph.from_edges(3, [(1, 2, INF), (2, 3)]),
}
CASES = [(name, STANDARD) for name in GRAPHS] + [("A3", DUAL), ("D4", DUAL)]
RINGS = [ZZ, IntegersMod(6)]


def _letters(g):
    return st.integers(1, g.n).flatmap(lambda i: st.sampled_from([i, -i]))


@st.composite
def relators(draw, g):
    """A word that is the trivial braid: sigma_i^e sigma_i^-e, the braid
    relation i j i j^-1 i^-1 j^-1 where m_ij = 3, or a commutator of
    sigma_i^a and sigma_j^b where m_ij = 2."""
    braid_edges = [pair for pair, m in g.edge_labels if m == 3]
    far = [
        (i, j) for i in g.vertices() for j in g.vertices() if i != j and not g.adjacent(i, j)
    ]
    kinds = ["inverse"] + ["braid"] * bool(braid_edges) + ["commutator"] * bool(far)
    kind = draw(st.sampled_from(kinds))
    if kind == "inverse":
        letter = draw(_letters(g))
        return [letter, -letter]
    if kind == "braid":
        i, j = draw(st.sampled_from(braid_edges))
        if draw(st.booleans()):
            i, j = j, i
        return [i, j, i, -j, -i, -j]
    i, j = draw(st.sampled_from(far))
    a, b = draw(st.sampled_from([1, -1])) * i, draw(st.sampled_from([1, -1])) * j
    return [a, b, -a, -b]


@st.composite
def padded_words(draw, g, ring):
    """A random word, the same word with a relator inserted at a random
    position, and a random vector."""
    word = draw(st.lists(_letters(g), max_size=8))
    cut = draw(st.integers(0, len(word)))
    padded = word[:cut] + draw(relators(g)) + word[cut:]
    terms = st.dictionaries(st.integers(-3, 3), st.integers(-5, 5), max_size=3)
    coords = tuple(LaurentPoly.from_dict(ring, draw(terms)) for _ in g.vertices())
    return word, padded, BurauVector(g, ring, coords)


@pytest.mark.parametrize("ring", RINGS, ids=str)
@pytest.mark.parametrize("name, form", CASES, ids=lambda c: getattr(c, "variant", c))
def test_inserting_a_relator_changes_neither_matrix_nor_action(name, form, ring):
    g = GRAPHS[name]

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(padded_words(g, ring))
    def check(case):
        word, padded, v = case
        assert word_matrix(g, padded, form, ring) == word_matrix(g, word, form, ring)
        assert act(g, padded, v, form) == act(g, word, v, form)

    check()
