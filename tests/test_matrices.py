"""Burau matrices, vectors, the q-deformed pairings, and spread."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from burau.fixtures import D4_MODULI, d4_fixture
from burau.graphs import INF, CoxeterGraph, commutator_word, inverse_word, preset
from burau.laurent import ZZ, IntegersMod, LaurentPoly
from burau.matrices import (
    DUAL,
    STANDARD,
    PairingForm,
    _SlotCodec,
    act,
    basis_vector,
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
    assert m.entry(2, 2) == LaurentPoly.one(ZZ)


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


def test_vertex_arguments_refuse_bools():
    g = preset("A3")
    with pytest.raises(ValueError, match="out of range"):
        basis_vector(g, True)
    # True hashes equal to the cached vertex 1; the typed cache keeps them apart
    generator_matrix(g, 1, 1)
    with pytest.raises(ValueError, match="out of range"):
        generator_matrix(g, True, 1)


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
    # over Z, word_matrix is made of act's columns, so act is checked against
    # the packed mod-p matrix, which shares no arithmetic with it
    rng = random.Random(7)
    for name in ["A3", "D4"]:
        g = preset(name)
        for p in (2, 7, 2**31 - 1):
            for _ in range(10):
                w = random_word(rng, g, rng.randrange(0, 40))
                i = rng.randrange(1, g.n + 1)
                via_vector = act(g, w, basis_vector(g, i))
                via_matrix = word_matrix(g, w, STANDARD, IntegersMod(p)).column(i)
                assert tuple(c.reduce_mod(p) for c in via_vector.coords) == via_matrix.coords


def _generator(g, letter, form, ring):
    return generator_matrix(g, abs(letter), 1 if letter > 0 else -1, form, ring)


def test_sparse_act_and_word_matrix_match_full_products():
    # act updates one coordinate per letter, word_matrix takes act's columns
    # over Z and one packed rank-one step per letter over Z/p; the reference
    # applies full generator matrices
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
    # the empty word checks the target's graph as a non-empty one does
    for word in ([1], ()):
        with pytest.raises(ValueError):
            act(preset("A3"), word, basis_vector(preset("tildeA2"), 1))
        with pytest.raises(ValueError):
            act(preset("A3"), word, basis_vector(preset("D4"), 1))


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
    assert PairingForm("standard") == STANDARD
    assert PairingForm("dual") == DUAL
    with pytest.raises(ValueError):
        PairingForm("skew")


def test_inverse_word_inverts_action():
    rng = random.Random(13)
    g = preset("tildeA2")
    for _ in range(20):
        w = random_word(rng, g, 5)
        assert is_identity(word_matrix(g, list(w) + list(inverse_word(w)), STANDARD, ZZ))


# (graph, form) cases for the packed mod-p word_matrix; the inf edge has no
# dual form
PACKED_CASES = {
    (name, form.variant): (graph, form)
    for name, graph in (
        ("A3", preset("A3")),
        ("D4", preset("D4")),
        ("D5", CoxeterGraph.from_edges(5, [(1, 2, 3), (2, 3, 3), (3, 4, 3), (3, 5, 3)])),
        ("tildeA3", preset("tildeA3")),
    )
    for form in (STANDARD, DUAL)
}
PACKED_CASES["inf-edge", "standard"] = (
    CoxeterGraph.from_edges(3, [(1, 2, INF), (2, 3)]),
    STANDARD,
)
PACKED_MODULI = (2, 3, 6, 7, 16, 257, 2**31 - 1)


@st.composite
def packed_words(draw):
    """A (graph, form) case, a modulus and a word of up to 800 letters,
    three in four of them inverse letters."""
    key = draw(st.sampled_from(sorted(PACKED_CASES)))
    g, _ = PACKED_CASES[key]
    p = draw(st.sampled_from(PACKED_MODULI))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    length = draw(st.integers(0, 800))
    word = [rng.choice((1, -1, -1, -1)) * rng.randrange(1, g.n + 1) for _ in range(length)]
    return key, p, word


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(packed_words())
@example((("D4", "dual"), 7, []))
@example((("inf-edge", "standard"), 2, [-1, -2] * 300))
# single inverse letters: the widest slots and the deepest downward shift
@example((("inf-edge", "standard"), 2**31 - 1, [-1]))
@example((("inf-edge", "standard"), 2**31 - 1, [-2]))
@example((("inf-edge", "standard"), 2**31 - 1, [-3]))
# single positive letters at the smallest modulus
@example((("D4", "dual"), 2, [1]))
@example((("D4", "dual"), 2, [2]))
@example((("D4", "dual"), 2, [3]))
@example((("D4", "dual"), 2, [4]))
def test_packed_word_matrix_matches_the_integer_matrix_mod_p(case):
    # the packed path over Z/p against the dense path over Z, reduced
    key, p, word = case
    g, form = PACKED_CASES[key]
    packed = word_matrix(g, word, form, IntegersMod(p))
    assert packed == word_matrix(g, word, form, ZZ).reduce_mod(p), (key, p, len(word))


def test_packed_steps_refuse_a_slot_bound_below_the_true_maximum(monkeypatch):
    # a dual-form generator factor reaches (p - 1)(2p - 1) in a slot; sized
    # for p(p - 1), the slots carry into each other, and the step's slot
    # check must stop the kernel matrices before the entries grow unbounded
    sized = _SlotCodec.__init__

    def too_small(self, p, bound, head):
        sized(self, p, p * (p - 1), head)

    monkeypatch.setattr(_SlotCodec, "__init__", too_small)
    for p in D4_MODULI:
        ((beta, i),) = d4_fixture(p).witnesses
        with pytest.raises(AssertionError, match="packed slot"):
            word_matrix(preset("D4"), commutator_word(beta, (i,)), DUAL, IntegersMod(p))
