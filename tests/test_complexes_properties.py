"""Exactness, invariance and sharing checks of the categorical layer: the
sparse integer rank and hom table against the dense reference in
`hom_oracle.py`, minimization through a non-unit pivot, K0 against the
Burau action, hom tables unchanged by minimize, and shared entries."""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from burau.complexes import (
    ProjComplex,
    _rank,
    act_complex,
    hom_table,
    k0_class,
    minimize,
    projective,
)
from burau.graphs import preset
from burau.matrices import act, basis_vector
from burau.zigzag import Elt, zigzag

from hom_oracle import dense_rank, oracle_hom_table

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)
FEW = settings(max_examples=40, deadline=None, derandomize=True, database=None)

# small entries with many zeros and non-unit values, so pivots are often
# not +-1 and rows often vanish
INTS = st.sampled_from([0, 0, 0, 0, 1, -1, 2, -2, 3, -4, 6])
FRACTIONS = INTS | st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))


@st.composite
def matrices(draw, entries):
    ncols = draw(st.integers(1, 7))
    nrows = draw(st.integers(0, 8))
    return [draw(st.lists(entries, min_size=ncols, max_size=ncols)) for _ in range(nrows)]


def sparse(rows):
    return [{col: v for col, v in enumerate(row) if v} for row in rows]


@SETTINGS
@given(matrices(INTS))
def test_sparse_rank_matches_dense_rank_on_integer_matrices(rows):
    assert _rank(sparse(rows)) == dense_rank(rows)


@SETTINGS
@given(matrices(FRACTIONS))
def test_sparse_rank_matches_dense_rank_on_fraction_matrices(rows):
    assert _rank(sparse(rows)) == dense_rank(rows)


def test_sparse_rank_edge_cases():
    assert _rank([]) == 0
    assert _rank([{}, {0: 0}]) == 0
    # the non-unit pivot 2 gives way to the unit pivot of the second row
    assert _rank([{0: 2, 1: 1}, {0: 1, 1: 1}, {0: 3, 1: 2}]) == 2
    # non-unit pivots only: 2*row2 - 3*row1 and its multiples cancel
    assert _rank([{0: 2, 1: 4}, {0: 3, 1: 6}, {0: 6, 1: 12}]) == 1
    assert _rank([{0: Fraction(1, 2), 2: Fraction(1, 3)}, {0: 3, 2: 2}]) == 1


def test_minimize_through_a_non_unit_pivot_stays_exact():
    a = zigzag(preset("A2"))
    # u -> t by (2|1), s -> t by 2*e1, s -> w by (1|2); cancelling s, t
    # leaves u -> w with -(1|2)(2|1)/2 = -X2/2
    x = ProjComplex(
        a,
        ((2, 1, 0), (1, 0, 0), (1, 0, 1), (2, -1, 1)),
        {(0, 2): a.arrow(2, 1), (1, 2): a.term(("e", 1), 2), (1, 3): a.arrow(1, 2)},
    )
    reduced = minimize(x)
    assert reduced.summands == ((2, 1, 0), (2, -1, 1))
    ((pair, entry),) = reduced.diff.items()
    assert pair == (0, 1)
    coeff = entry.coeffs[("x", 2)]
    assert type(coeff) is Fraction and coeff == Fraction(-1, 2)
    # the Fraction entry reaches the rank through the denominator clearing
    for i in (1, 2):
        p = projective(a, i)
        assert hom_table(reduced, p) == oracle_hom_table(reduced, p) == hom_table(x, p)
        assert hom_table(p, reduced) == oracle_hom_table(p, reduced) == hom_table(p, x)


def test_twists_keep_integer_coefficients():
    rng = random.Random(30)
    g = preset("tildeA3")
    a = zigzag(g)
    for _ in range(10):
        word = [rng.choice([1, -1]) * rng.randrange(1, 5) for _ in range(8)]
        x = act_complex(g, word, projective(a, rng.randrange(1, 5)))
        for _, e in x.entries():
            assert all(type(c) is int for c in e.coeffs.values())


def test_hom_table_matches_the_dense_oracle():
    rng = random.Random(31)
    for name in ("A3", "tildeA3"):
        g = preset(name)
        a = zigzag(g)
        letters = [s * v for v in g.vertices() for s in (1, -1)]
        for _ in range(10):
            x = act_complex(
                g, [rng.choice(letters) for _ in range(rng.randrange(0, 7))],
                projective(a, rng.randrange(1, g.n + 1)),
            )
            y = act_complex(
                g, [rng.choice(letters) for _ in range(rng.randrange(0, 7))],
                projective(a, rng.randrange(1, g.n + 1)),
            )
            assert hom_table(x, y) == oracle_hom_table(x, y), (name, x, y)


def _words(name, max_size):
    g = preset(name)
    letters = [s * v for v in g.vertices() for s in (1, -1)]
    return st.lists(st.sampled_from(letters), max_size=max_size)


@st.composite
def twisted_cases(draw, names, max_size):
    name = draw(st.sampled_from(names))
    g = preset(name)
    word = draw(_words(name, max_size))
    return g, word, draw(st.integers(1, g.n))


@SETTINGS
@given(twisted_cases(("A3", "D4", "tildeA3"), 8))
def test_k0_of_twisted_projective_is_the_burau_image(case):
    g, word, i = case
    x = act_complex(g, word, projective(zigzag(g), i))
    assert k0_class(x) == act(g, word, basis_vector(g, i))


@FEW
@given(
    twisted_cases(("A3", "tildeA3"), 5),
    st.integers(1, 4),
    st.integers(-3, 3),
    st.integers(-2, 2),
    st.sampled_from([1, -1, 2]),
)
def test_minimize_leaves_hom_tables_unchanged_in_both_arguments(case, vertex, g0, h0, c):
    """Pad a twisted complex with a contractible pair joined by c*e_v, as in
    acceptance check 7, then compare hom tables against every projective
    with the pad kept and minimized away."""
    g, word, i = case
    a = zigzag(g)
    vertex = (vertex - 1) % g.n + 1
    x = act_complex(g, word, projective(a, i))
    k = len(x.summands)
    padded = ProjComplex(
        a,
        x.summands + ((vertex, g0, h0), (vertex, g0, h0 + 1)),
        x.diff | {(k, k + 1): a.term(("e", vertex), c)},
    )
    reduced = minimize(padded)
    assert k0_class(reduced) == k0_class(x)
    for p in (projective(a, j) for j in g.vertices()):
        assert hom_table(padded, p) == hom_table(reduced, p) == hom_table(x, p)
        assert hom_table(p, padded) == hom_table(p, reduced) == hom_table(p, x)


def test_twisted_complexes_share_their_parts():
    """Entries, summand triples and index pairs of act_complex outputs over
    one algebra are one instance per value."""
    rng = random.Random(32)
    g = preset("tildeA3")
    a = zigzag(g)
    complexes = []
    for _ in range(12):
        word = [rng.choice([1, -1]) * rng.randrange(1, 5) for _ in range(rng.randrange(8, 13))]
        complexes.append(act_complex(g, word, projective(a, rng.randrange(1, 5))))
    entries = [e for x in complexes for _, e in x.entries()]
    assert len(entries) > 100
    values = {item for e in entries for item in e.coeffs.items()}
    assert len({id(e) for e in entries}) <= len(values)
    triples = [s for x in complexes for s in x.summands]
    assert len({id(s) for s in triples}) <= len(set(triples))
    pairs = [pair for x in complexes for pair in x.diff]
    assert len({id(pair) for pair in pairs}) <= len(set(pairs))
    tables = [hom_table(x, y) for x, y in zip(complexes, complexes[1:])]
    keys = [key for table in tables for key in table]
    assert len({id(key) for key in keys}) <= len(set(keys))


def test_elements_and_algebra_parts_use_ints():
    a = zigzag(preset("A3"))
    assert type(Elt.from_token(("e", 1)).coeffs[("e", 1)]) is int
    assert type(a.e(2).coeffs[("e", 2)]) is int
    assert a.e(1) is a.e(1) and a.arrow(1, 2) is a.term(("a", 1, 2), 1)
