"""The path algebra with relations underlying the categorical action."""

from fractions import Fraction

import pytest

from burau.graphs import CoxeterGraph, INF, preset, preset_names
from burau.zigzag import (
    Elt,
    ZigzagAlgebra,
    token_degree,
    token_mul,
    token_source,
    token_target,
    zigzag,
)


def _basis(a):
    """Every basis token, as the union of the hom bases over all vertex pairs."""
    vs = a.graph.vertices()
    return [t for i in vs for j in vs for t in a.hom_basis(i, j)]


def test_dimension_counts_idempotents_arrows_loops():
    for name, expected in [("A2", 6), ("A3", 10), ("D4", 14), ("tildeA3", 16)]:
        g = preset(name)
        a = zigzag(g)
        assert len(_basis(a)) == 2 * g.n + 2 * len(g.edges()) == expected


def test_rejects_graphs_it_cannot_model():
    with pytest.raises(ValueError):
        zigzag(CoxeterGraph.from_edges(2, [(1, 2, INF)]))
    with pytest.raises(ValueError):
        ZigzagAlgebra(CoxeterGraph.from_edges(1, []))


def test_idempotents():
    a = zigzag(preset("A3"))
    for i in (1, 2, 3):
        e = a.e(i)
        assert e * e == e
    assert a.e(1) * a.e(2) == Elt.zero()
    u = a.e(1) + a.e(2) + a.e(3)
    for x in [a.e(2), a.arrow(1, 2), a.loop(3)]:
        assert u * x == x
        assert x * u == x


def test_round_trip_is_the_loop_at_the_basepoint():
    a = zigzag(preset("A3"))
    # start at 1, walk to 2, come back: lands on the loop at 1
    assert a.arrow(2, 1) * a.arrow(1, 2) == a.loop(1)
    assert a.arrow(1, 2) * a.arrow(2, 1) == a.loop(2)


def test_straight_paths_of_length_two_vanish():
    a = zigzag(preset("A3"))
    assert (a.arrow(2, 3) * a.arrow(1, 2)).is_zero()
    assert (a.arrow(2, 1) * a.arrow(3, 2)).is_zero()


def test_loops_annihilate_positive_degree():
    a = zigzag(preset("D4"))
    for i in (1, 2, 3, 4):
        x = a.loop(i)
        assert (x * x).is_zero()
    assert (a.loop(2) * a.arrow(1, 2)).is_zero()
    assert (a.arrow(2, 1) * a.loop(2)).is_zero()


def test_source_target_mismatch_is_zero():
    a = zigzag(preset("A3"))
    assert (a.arrow(3, 2) * a.arrow(2, 3)).is_zero() is False  # round trip at 2
    assert (a.arrow(1, 2) * a.arrow(2, 3)).is_zero()  # ends at 3, restarts at 1
    assert (a.e(1) * a.arrow(1, 2)).is_zero()  # arrow lands on 2, not 1


def test_arrow_requires_adjacency():
    a = zigzag(preset("A3"))
    with pytest.raises(ValueError):
        a.arrow(1, 3)


def test_hom_basis_contents():
    a = zigzag(preset("A3"))
    assert a.hom_basis(2, 2) == (("e", 2), ("x", 2))
    assert a.hom_basis(1, 2) == (("a", 1, 2),)
    assert a.hom_basis(1, 3) == ()


def test_basis_degrees_and_unique_tokens():
    a = zigzag(preset("tildeA3"))
    toks = _basis(a)
    assert len(set(toks)) == len(toks)
    per_degree = {0: 0, 1: 0, 2: 0}
    for t in toks:
        per_degree[token_degree(t)] += 1
    assert per_degree == {0: 4, 1: 8, 2: 4}


def test_token_codes_agree_with_the_token_functions():
    """On every preset with a zigzag algebra, the one basis table holds,
    for each vertex pair (i, j), e_i of degree 0 and X_i of degree 2 when
    i = j, the arrow (i|j) of degree 1 exactly when i and j are adjacent,
    and nothing else; its codes number those tokens in that order, with the
    degrees and ends of the token functions, and its products are
    `token_mul`'s."""
    names = [name for name in preset_names() if preset(name).is_simply_laced()]
    assert {"A3", "D4", "tildeA3", "K4", "AE4", "box"} <= set(names)
    for name in names:
        g = preset(name)
        codes = zigzag(g).codes
        tokens = codes.tokens
        n = len(tokens)
        edges = set(g.edges())
        expected = []
        for i in range(g.n + 1):
            for j in range(g.n + 1):
                if not (i and j):
                    terms = ()
                elif i == j:
                    terms = ((("e", i), 0), (("x", i), 2))
                elif (i, j) in edges or (j, i) in edges:
                    terms = ((("a", i, j), 1),)
                else:
                    terms = ()
                assert tuple((tokens[k], d) for k, d in codes.bases[i][j]) == terms, (name, i, j)
                expected += [t for t, _ in terms]
        assert list(tokens) == expected
        assert codes.code == {t: k for k, t in enumerate(tokens)}
        for k, t in enumerate(tokens):
            assert codes.degree[k] == token_degree(t)
            assert codes.source[k] == token_source(t)
            assert codes.target[k] == token_target(t)
        for k, x in enumerate(tokens):
            for m, y in enumerate(tokens):
                z = token_mul(x, y)
                assert codes.mul[k * n + m] == (-1 if z is None else codes.code[z]), (name, x, y)


def test_elt_arithmetic():
    a = zigzag(preset("A2"))
    x = a.e(1) + a.term(("a", 1, 2), Fraction(3, 2))
    y = x + a.term(("e", 1), -1)
    assert y == a.term(("a", 1, 2), Fraction(3, 2))
    assert (y + a.term(("a", 1, 2), Fraction(-3, 2))).is_zero()
    assert x.coeffs[("a", 1, 2)] == Fraction(3, 2)


def test_multiplication_distributes():
    a = zigzag(preset("A3"))
    x = a.arrow(2, 1) + a.loop(1)
    y = a.arrow(1, 2) + a.e(1)
    # arrow(2,1)*arrow(1,2) and loop(1)*e(1) survive, the cross terms vanish
    assert x * y == a.term(("x", 1), 2)


def test_associativity_over_full_basis():
    a = zigzag(preset("D4"))
    elts = [Elt.from_token(t) for t in _basis(a)]
    for x in elts:
        for y in elts:
            for z in elts:
                assert (x * y) * z == x * (y * z)


def test_str_rendering():
    a = zigzag(preset("A2"))
    assert str(a.e(1) + a.arrow(1, 2)) == "(1|2) + e1"
    assert str(a.e(1) + a.term(("x", 2), -1)) == "-X2 + e1"
    assert str(Elt.zero()) == "0"
