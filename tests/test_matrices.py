"""Burau matrices, vectors, the q-deformed pairings, and spread."""

import random

import pytest

from burau.graphs import INF, CoxeterGraph, inverse_word, preset
from burau.laurent import ZZ, IntegersMod, LaurentPoly
from burau.matrices import (
    DUAL,
    STANDARD,
    act,
    basis_vector,
    form_from_name,
    generator_matrix,
    gram_matrix,
    identity_matrix,
    is_identity,
    pairing,
    spread,
    word_matrix,
)

RELATION_PRESETS = ["A2", "A3", "A4", "D4", "tildeA2", "tildeA3", "K4"]


def q_poly(d, ring=ZZ):
    return LaurentPoly.from_dict(ring, d)


def random_word(rng, g, length):
    return [rng.choice([1, -1]) * rng.randrange(1, g.n + 1) for _ in range(length)]


def random_vector(rng, g, ring=ZZ):
    coords = []
    for _ in range(g.n):
        terms = {rng.randrange(-3, 4): rng.randrange(-4, 5) for _ in range(rng.randrange(0, 3))}
        coords.append(LaurentPoly.from_dict(ring, terms))
    from burau.matrices import BurauVector

    return BurauVector(g, ring, tuple(coords))


def test_standard_generator_matrix_a2():
    g = preset("A2")
    m = generator_matrix(g, 1, 1, STANDARD, ZZ)
    assert str(m.entry(1, 1)) == "-q^2"
    assert str(m.entry(1, 2)) == "-q"
    assert m.entry(2, 1).is_zero()
    assert m.entry(2, 2).is_one()


def test_column_convention():
    # column j stores the image of the j-th basis root
    g = preset("A3")
    m = generator_matrix(g, 2, 1, STANDARD, ZZ)
    image = act(g, [2], basis_vector(g, 3))
    assert m.column(3) == image


def test_standard_pairing_values():
    g = preset("A2")
    a1, a2 = basis_vector(g, 1), basis_vector(g, 2)
    assert str(pairing(a1, a1)) == "q^2 + 1"
    assert str(pairing(a1, a2)) == "q"
    g3 = preset("A3")
    assert pairing(basis_vector(g3, 1), basis_vector(g3, 3)).is_zero()


def test_infinite_label_pairs_to_2q():
    g = CoxeterGraph.from_edges(2, [(1, 2, INF)])
    p = pairing(basis_vector(g, 1), basis_vector(g, 2))
    assert p == q_poly({1: 2})


def test_dual_pairing_is_order_sensitive():
    g = preset("A2")
    a1, a2 = basis_vector(g, 1), basis_vector(g, 2)
    assert str(pairing(a1, a1, DUAL)) == "q + 1"
    assert str(pairing(a1, a2, DUAL)) == "1"   # increasing positions
    assert str(pairing(a2, a1, DUAL)) == "q"   # decreasing positions


def test_dual_form_rejects_infinite_labels():
    g = CoxeterGraph.from_edges(2, [(1, 2, INF)])
    with pytest.raises(ValueError):
        pairing(basis_vector(g, 1), basis_vector(g, 2), DUAL)


def test_braid_and_inverse_relations_both_forms():
    for name in RELATION_PRESETS:
        g = preset(name)
        for form in (STANDARD, DUAL):
            for i in g.vertices():
                left = word_matrix(g, [i, -i], form, ZZ)
                assert is_identity(left), (name, form.variant, i)
            for i, j in g.edges():
                assert word_matrix(g, [i, j, i], form, ZZ) == word_matrix(
                    g, [j, i, j], form, ZZ
                ), (name, form.variant, i, j)
            for i in g.vertices():
                for j in g.vertices():
                    if i < j and g.labels(i, j) == 2:
                        assert word_matrix(g, [i, j], form, ZZ) == word_matrix(
                            g, [j, i], form, ZZ
                        )


def test_q_equals_minus_one_gives_involutions():
    for name in ["A3", "D4", "tildeA3"]:
        g = preset(name)
        for i in g.vertices():
            m = generator_matrix(g, i, 1, STANDARD, ZZ)
            ints = [[e.evaluate(-1) for e in row] for row in m.rows]
            n = g.n
            square = [
                [sum(ints[r][k] * ints[k][c] for k in range(n)) for c in range(n)]
                for r in range(n)
            ]
            assert square == [
                [1 if r == c else 0 for c in range(n)] for r in range(n)
            ]


def test_act_on_vector_matches_matrix_action():
    rng = random.Random(7)
    for name in ["A3", "D4"]:
        g = preset(name)
        for _ in range(25):
            w = random_word(rng, g, rng.randrange(0, 8))
            i = rng.randrange(1, g.n + 1)
            via_vector = act(g, w, basis_vector(g, i))
            via_matrix = word_matrix(g, w, STANDARD, ZZ).column(i)
            assert via_vector == via_matrix


def _generator(g, letter, form, ring):
    return generator_matrix(g, abs(letter), 1 if letter > 0 else -1, form, ring)


def test_sparse_act_and_word_matrix_match_full_products():
    # act updates one coordinate per letter and word_matrix one column set
    # per letter; the reference applies full generator matrices
    rng = random.Random(13)
    mixed = CoxeterGraph.from_edges(3, [(1, 2, INF), (2, 3)])
    cases = [
        (preset(name), form)
        for name in ("A3", "D4", "tildeA3")
        for form in (STANDARD, DUAL)
    ] + [(mixed, STANDARD)]
    for g, form in cases:
        for ring in (ZZ, IntegersMod(2), IntegersMod(6)):
            for length in (0, 1, 2, 5, 9):
                w = random_word(rng, g, length)
                v = random_vector(rng, g, ring)
                expected_v = v
                for letter in reversed(w):
                    expected_v = _generator(g, letter, form, ring).mat_vec(expected_v)
                assert act(g, w, v, form) == expected_v, (g, form, ring, w)
                expected_m = identity_matrix(g, ring)
                for letter in w:
                    expected_m = expected_m.mat_mul(_generator(g, letter, form, ring))
                assert word_matrix(g, w, form, ring) == expected_m, (g, form, ring, w)
    # a non-empty word still checks the target's graph
    with pytest.raises(ValueError):
        act(preset("A3"), [1], basis_vector(preset("tildeA2"), 1))


def _reference_product(rows_a, rows_b, ring):
    """Naive triple loop over row tuples, built only from LaurentPoly + and *."""
    out = []
    for row in rows_a:
        out_row = []
        for j in range(len(rows_b[0])):
            acc = LaurentPoly.zero(ring)
            for k, a in enumerate(row):
                acc = acc + a * rows_b[k][j]
            out_row.append(acc)
        out.append(tuple(out_row))
    return tuple(out)


def test_matrix_layer_matches_a_naive_reference_product():
    # the fused products in mat_mul, mat_vec, act, word_matrix and pairing
    # against sums of single products
    rng = random.Random(21)
    for name in ("A3", "D4", "tildeA3"):
        g = preset(name)
        for form in (STANDARD, DUAL):
            for ring in (ZZ, IntegersMod(2), IntegersMod(6)):
                for length in (0, 1, 4, 9):
                    w = random_word(rng, g, length)
                    expected = identity_matrix(g, ring).rows
                    for letter in w:
                        expected = _reference_product(
                            expected, _generator(g, letter, form, ring).rows, ring
                        )
                    m = word_matrix(g, w, form, ring)
                    assert m.rows == expected, (name, form, ring, w)
                    other = word_matrix(g, random_word(rng, g, 3), form, ring)
                    assert m.mat_mul(other).rows == _reference_product(
                        m.rows, other.rows, ring
                    )
                    v = random_vector(rng, g, ring)
                    column = tuple((c,) for c in v.coords)
                    image = tuple(c for (c,) in _reference_product(m.rows, column, ring))
                    assert m.mat_vec(v).coords == image
                    assert act(g, w, v, form).coords == image
                    y = random_vector(rng, g, ring)
                    gram = _reference_product(
                        gram_matrix(g, form, ring), tuple((c,) for c in y.coords), ring
                    )
                    bar_x = (tuple(c.bar() for c in v.coords),)
                    ((expected_pairing,),) = _reference_product(bar_x, gram, ring)
                    assert pairing(v, y, form) == expected_pairing


def test_word_matrix_respects_concatenation():
    rng = random.Random(8)
    g = preset("D4")
    for _ in range(20):
        w1 = random_word(rng, g, 4)
        w2 = random_word(rng, g, 4)
        assert word_matrix(g, w1 + w2, STANDARD, ZZ) == word_matrix(
            g, w1, STANDARD, ZZ
        ).mat_mul(word_matrix(g, w2, STANDARD, ZZ))


def test_pairing_sesquilinear():
    rng = random.Random(9)
    g = preset("A3")
    for _ in range(60):
        x = random_vector(rng, g)
        y = random_vector(rng, g)
        f = q_poly({rng.randrange(-2, 3): rng.randrange(-3, 4)})
        h = q_poly({rng.randrange(-2, 3): rng.randrange(-3, 4)})
        for form in (STANDARD, DUAL):
            assert pairing(x.scale(f), y.scale(h), form) == f.bar() * h * pairing(
                x, y, form
            )


def test_pairing_generator_invariance():
    rng = random.Random(10)
    for name in ["A2", "A3", "D4", "tildeA3"]:
        g = preset(name)
        for _ in range(50):
            x = random_vector(rng, g)
            y = random_vector(rng, g)
            letter = rng.choice([1, -1]) * rng.randrange(1, g.n + 1)
            for form in (STANDARD, DUAL):
                assert pairing(
                    act(g, [letter], x, form), act(g, [letter], y, form), form
                ) == pairing(x, y, form)


def test_pairing_duality():
    rng = random.Random(11)
    g = preset("D4")
    q2 = q_poly({2: 1})
    for _ in range(60):
        x = random_vector(rng, g)
        y = random_vector(rng, g)
        assert pairing(y, x) == q2 * pairing(x, y).bar()


def test_mod_p_reduction_commutes_with_action():
    rng = random.Random(12)
    g = preset("D4")
    for _ in range(20):
        w = random_word(rng, g, 6)
        p = rng.choice([2, 6, 9, 16])
        full = word_matrix(g, w, DUAL, ZZ).reduce_mod(p)
        direct = word_matrix(g, w, DUAL, IntegersMod(p))
        assert full == direct


def test_spread_examples():
    g = preset("D4")
    gamma = word_matrix(g, [1, 2, 3, 4], DUAL, ZZ)
    assert spread(gamma) == 0
    for i in g.vertices():
        assert spread(word_matrix(g, [i], DUAL, ZZ)) == 1
    assert spread(identity_matrix(g)) == 0


def test_form_lookup():
    assert form_from_name("standard") is STANDARD
    assert form_from_name("dual") is DUAL
    with pytest.raises(KeyError):
        form_from_name("skew")


def test_inverse_word_inverts_action():
    rng = random.Random(13)
    g = preset("tildeA2")
    for _ in range(20):
        w = random_word(rng, g, 5)
        assert is_identity(word_matrix(g, list(w) + list(inverse_word(w)), STANDARD, ZZ))
