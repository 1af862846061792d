"""Complexes of projectives, twists, minimization, and bigraded Hom."""

import random
import re

import pytest

from burau.complexes import (
    ProjComplex,
    act_complex,
    apply_twist,
    euler_pairing,
    hom_table,
    is_spherical,
    k0_class,
    minimize,
    projective,
    render_hom_table,
    total_hom_dim,
)
from burau.graphs import preset
from burau.laurent import ZZ, LaurentPoly
from burau.matrices import act, basis_vector, pairing
from burau.zigzag import Elt, zigzag


def q_poly(d):
    return LaurentPoly.from_dict(ZZ, d)


def random_word(rng, g, length):
    return [rng.choice([1, -1]) * rng.randrange(1, g.n + 1) for _ in range(length)]


def twisted(algebra, word, i):
    return act_complex(algebra.graph, word, projective(algebra, i))


def test_projective_shape():
    a = zigzag(preset("A2"))
    p1 = projective(a, 1)
    assert p1.summands == ((1, 0, 0),)
    assert p1.diff == {}
    with pytest.raises(ValueError):
        projective(a, 3)
    with pytest.raises(ValueError, match="out of range"):
        projective(a, True)
    with pytest.raises(ValueError, match="out of range"):
        apply_twist(p1, True, 1)


def test_twist_along_own_vertex_is_a_shift():
    a = zigzag(preset("A2"))
    p1 = projective(a, 1)
    up = apply_twist(p1, 1, 1)
    assert up.summands == ((1, 2, -1),)
    assert up.diff == {}
    assert k0_class(up).coords == (q_poly({2: -1}), q_poly({}))
    down = apply_twist(p1, 1, -1)
    assert down.summands == ((1, -2, 1),)
    assert k0_class(down).coords == (q_poly({-2: -1}), q_poly({}))


def test_twist_of_adjacent_projective():
    a = zigzag(preset("A2"))
    x = apply_twist(projective(a, 2), 1, 1)
    # cone P1{1}[-1] -> P2, nothing cancels
    assert sorted(x.summands) == [(1, 1, -1), (2, 0, 0)]
    assert k0_class(x).coords == (q_poly({1: -1}), q_poly({0: 1}))


def test_twist_ignores_distant_vertices():
    a = zigzag(preset("A3"))
    p3 = projective(a, 3)
    assert apply_twist(p3, 1, 1) == p3
    assert apply_twist(p3, 1, -1) == p3


def test_opposite_twists_cancel():
    rng = random.Random(21)
    a = zigzag(preset("A3"))
    for _ in range(15):
        w = random_word(rng, a.graph, rng.randrange(0, 5))
        x = twisted(a, w, rng.randrange(1, 4))
        i = rng.randrange(1, 4)
        assert same_complex(apply_twist(apply_twist(x, i, 1), i, -1), x)
        assert same_complex(apply_twist(apply_twist(x, i, -1), i, 1), x)


def test_differential_squares_to_zero_after_twisting():
    rng = random.Random(22)
    for name in ["A3", "D4", "tildeA3"]:
        a = zigzag(preset(name))
        for _ in range(10):
            w = random_word(rng, a.graph, 6)
            x = twisted(a, w, rng.randrange(1, a.graph.n + 1))
            x.check_d2()


def test_complex_validation_rejects_malformed_input():
    a = zigzag(preset("A2"))
    with pytest.raises(ValueError):
        # differential must raise h by exactly one
        ProjComplex(a, ((1, 0, 0), (2, 0, 2)), {(0, 1): a.arrow(1, 2)})
    with pytest.raises(ValueError):
        # internal degree must equal g_source - g_target
        ProjComplex(a, ((1, 0, 0), (2, 0, 1)), {(0, 1): a.arrow(1, 2)})
    with pytest.raises(ValueError):
        # entry must live in e_target A e_source
        ProjComplex(a, ((1, 1, 0), (2, 0, 1)), {(0, 1): a.arrow(2, 1)})
    a3 = zigzag(preset("A3"))
    with pytest.raises(ValueError, match="not a basis token"):
        # 1 and 3 are not adjacent in A3, so (1|3) is no basis token
        ProjComplex(a3, ((1, 1, 0), (3, 0, 1)), {(0, 1): a3.term(("a", 1, 3))})
    bad_square = ProjComplex(
        a,
        ((1, 2, 0), (2, 1, 1), (1, 0, 2)),
        {(0, 1): a.arrow(1, 2), (1, 2): a.arrow(2, 1)},
    )
    with pytest.raises(ValueError):
        bad_square.check_d2()


def canonical(x):
    """Summands sorted, differential renumbered to match.  Only safe when all
    summand triples are distinct, which holds for the complexes below."""
    assert len(set(x.summands)) == len(x.summands)
    order = sorted(range(len(x.summands)), key=lambda idx: x.summands[idx])
    renum = {old: new for new, old in enumerate(order)}
    summands = tuple(x.summands[old] for old in order)
    diff = {(renum[s], renum[t]): e for (s, t), e in x.diff.items()}
    return summands, diff


def same_complex(x, y):
    """Equality up to reordering of summands.  When every triple is unique
    this is exact; otherwise fall back to a battery of invariants."""
    if sorted(x.summands) != sorted(y.summands):
        return False
    if len(set(x.summands)) == len(x.summands) and len(set(y.summands)) == len(
        y.summands
    ):
        return canonical(x) == canonical(y)
    if k0_class(x) != k0_class(y) or hom_table(x, x) != hom_table(y, y):
        return False
    probes = [projective(x.algebra, i) for i in x.algebra.graph.vertices()]
    return all(
        hom_table(x, p) == hom_table(y, p) and hom_table(p, x) == hom_table(p, y)
        for p in probes
    )


def test_braid_relation_for_twists():
    a = zigzag(preset("A3"))
    for i, j in [(1, 2), (2, 3)]:
        for start in (1, 2, 3):
            p = projective(a, start)
            assert canonical(act_complex(a.graph, [i, j, i], p)) == canonical(
                act_complex(a.graph, [j, i, j], p)
            )
    # commuting pair
    p = projective(a, 2)
    assert canonical(act_complex(a.graph, [1, 3], p)) == canonical(
        act_complex(a.graph, [3, 1], p)
    )


def test_k0_matches_burau_action():
    rng = random.Random(23)
    for name in ["A3", "D4", "tildeA3"]:
        g = preset(name)
        a = zigzag(g)
        for _ in range(12):
            w = random_word(rng, g, rng.randrange(0, 7))
            i = rng.randrange(1, g.n + 1)
            lhs = k0_class(twisted(a, w, i))
            rhs = act(g, w, basis_vector(g, i))
            assert lhs == rhs, (name, w, i)


def test_hom_between_plain_projectives():
    a = zigzag(preset("A3"))
    p1, p2, p3 = (projective(a, i) for i in (1, 2, 3))
    assert hom_table(p1, p1) == {(0, 0): 1, (2, 0): 1}
    assert hom_table(p1, p2) == {(1, 0): 1}
    assert hom_table(p1, p3) == {}
    assert total_hom_dim(p1, p3) == 0
    assert euler_pairing(p1, p2) == q_poly({1: 1})


def test_hom_respects_shifts():
    a = zigzag(preset("A2"))
    p1 = projective(a, 1)
    shifted = p1.shifted(3, 2)
    assert hom_table(p1, shifted) == {(3, 2): 1, (5, 2): 1}
    assert hom_table(shifted, p1) == {(-3, -2): 1, (-1, -2): 1}


def test_euler_pairing_matches_k0_pairing():
    rng = random.Random(24)
    for name in ["A3", "tildeA3"]:
        g = preset(name)
        a = zigzag(g)
        for _ in range(8):
            x = twisted(a, random_word(rng, g, 4), rng.randrange(1, g.n + 1))
            y = twisted(a, random_word(rng, g, 4), rng.randrange(1, g.n + 1))
            assert euler_pairing(x, y) == pairing(k0_class(x), k0_class(y))


def test_hom_duality():
    rng = random.Random(25)
    g = preset("A3")
    a = zigzag(g)
    for _ in range(10):
        x = twisted(a, random_word(rng, g, 4), rng.randrange(1, g.n + 1))
        y = twisted(a, random_word(rng, g, 4), rng.randrange(1, g.n + 1))
        forward = hom_table(x, y)
        backward = hom_table(y, x)
        assert forward == {
            (2 - g_, -h_): dim for (g_, h_), dim in backward.items()
        }


def test_twists_preserve_sphericality():
    rng = random.Random(26)
    for name in ["A3", "D4", "tildeA3"]:
        g = preset(name)
        a = zigzag(g)
        for i in g.vertices():
            assert is_spherical(projective(a, i))
        for _ in range(12):
            x = twisted(a, random_word(rng, g, 6), rng.randrange(1, g.n + 1))
            assert is_spherical(x)


def test_twists_preserve_hom_tables():
    rng = random.Random(27)
    g = preset("A3")
    a = zigzag(g)
    for _ in range(8):
        x = twisted(a, random_word(rng, g, 3), rng.randrange(1, 4))
        y = twisted(a, random_word(rng, g, 3), rng.randrange(1, 4))
        letter = rng.choice([1, -1]) * rng.randrange(1, 4)
        sign = 1 if letter > 0 else -1
        assert hom_table(
            apply_twist(x, abs(letter), sign), apply_twist(y, abs(letter), sign)
        ) == hom_table(x, y)


def test_minimize_is_stable_and_preserves_invariants():
    rng = random.Random(28)
    g = preset("A3")
    a = zigzag(g)
    for _ in range(10):
        x = twisted(a, random_word(rng, g, 5), rng.randrange(1, 4))
        again = minimize(x)
        assert again == x  # twists already return minimized complexes
        assert k0_class(again) == k0_class(x)
    # a contractible-by-hand complex minimizes away entirely
    contractible = ProjComplex(
        a, ((1, 0, 0), (1, 0, 1)), {(0, 1): a.e(1)}
    )
    reduced = minimize(contractible)
    assert reduced.summands == ()
    assert hom_table(reduced, projective(a, 1)) == {}


def test_minimize_drops_only_invertible_entries():
    a = zigzag(preset("A2"))
    # arrow entries are never invertible, so this complex is already minimal
    x = ProjComplex(a, ((1, 1, 0), (2, 0, 1)), {(0, 1): a.arrow(1, 2)})
    assert minimize(x) == x


def test_render_table():
    a = zigzag(preset("A3"))
    text = render_hom_table(hom_table(projective(a, 1), projective(a, 1)))
    assert text.splitlines() == ["(0,0): 1", "(2,0): 1"]
    assert render_hom_table({}) == "(empty)"


@pytest.mark.parametrize(
    "triple, message",
    [
        ((9, 0, 0), "summand 1: vertex 9 out of range 1..3"),
        ((0, 0, 0), "summand 1: vertex 0 out of range 1..3"),
        ((True, 0, 0), "summand 1: vertex True out of range 1..3"),
        ((1, 0.5, 0), "summand 1 has g = 0.5, h = 0; both must be ints"),
        ((1, 0, False), "summand 1 has g = 0, h = False; both must be ints"),
    ],
    ids=["vertex-9", "vertex-0", "vertex-bool", "float-g", "bool-h"],
)
def test_a_complex_refuses_a_summand_it_cannot_use(triple, message):
    a = zigzag(preset("A3"))
    with pytest.raises(ValueError, match=re.escape(message)):
        ProjComplex(a, ((1, 0, 0), triple), {})


@pytest.mark.parametrize(
    "pair",
    [(-2, 1), (0, -1), (0, 5), (2, 1), (True, 1), (0, 1.0)],
    ids=["negative-source", "negative-target", "target-5", "source-2", "bool", "float"],
)
def test_a_complex_refuses_an_entry_index_that_names_no_summand(pair):
    # a negative index used to build (as a summand counted from the end)
    # and fail later in minimize; one past the end raised IndexError
    a = zigzag(preset("A2"))
    s, t = pair
    message = f"entry {s}->{t}: indices must be ints in 0..1"
    with pytest.raises(ValueError, match=re.escape(message)):
        ProjComplex(a, ((1, 0, 0), (2, -1, 1)), {pair: a.arrow(1, 2)})
    assert ProjComplex(a, ((1, 0, 0), (2, -1, 1)), {(0, 1): a.arrow(1, 2)}).diff


def test_a_complex_stores_the_algebras_shared_summands():
    a = zigzag(preset("A3"))
    x = ProjComplex(a, [(1, 0, 0), (2, 1, 1)], {})
    assert type(x.summands) is tuple
    assert all(s is a.shared(s) for s in x.summands)
    assert x.summands[0] is projective(a, 1).summands[0]


def test_zero_elt_entry_rejected():
    a = zigzag(preset("A2"))
    with pytest.raises(ValueError):
        ProjComplex(a, ((1, 1, 0), (2, 0, 1)), {(0, 1): Elt.zero()})
