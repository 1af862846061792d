"""Dual Garside machinery: intervals, normal forms, lifts, triviality."""

import hashlib
import json
import random

import pytest
from coxeter_oracle import CoxeterGroup, mat_mul, moved_space_dim

from burau import garside
from burau.garside import (
    DualGarside,
    NotFiniteType,
    _finite_type,
    _moved_rank,
    garside_context,
    interval,
    is_trivial_braid,
    samecurve_check,
)
from burau.graphs import INF, CoxeterGraph, inverse_word, preset
from burau.laurent import ZZ
from burau.matrices import DUAL, spread, word_matrix

FINITE = {"A2": 6, "A3": 24, "D4": 192}
REFLECTION_COUNTS = {"A2": 3, "A3": 6, "D4": 12}
INTERVAL_SIZES = {"A2": 5, "A3": 14, "D4": 50}
INFINITE = ["tildeA2", "tildeA3", "tildeD4", "AE4", "box", "K4", "K5", "K6"]
E6 = CoxeterGraph.from_edges(
    6, [(1, 3, 3), (3, 4, 3), (4, 5, 3), (5, 6, 3), (2, 4, 3)]
)


def gamma_order(ctx):
    """The multiplicative order of gamma, by oracle matrix products."""
    gamma = ctx.matrices[ctx.gamma]
    k, m = 1, gamma
    while m != ctx.matrices[ctx.identity]:
        m = mat_mul(m, gamma)
        k += 1
    return k


def random_word(rng, g, length):
    return [rng.choice([1, -1]) * rng.randrange(1, g.n + 1) for _ in range(length)]


def test_infinite_graphs_are_rejected_without_enumeration():
    for name in INFINITE:
        with pytest.raises(NotFiniteType):
            DualGarside(preset(name))


def _path(n, *extra):
    return CoxeterGraph.from_edges(n, [(i, i + 1) for i in range(1, n)] + list(extra))


def _star(*arms):
    """A tree with centre 1 and one path of each given length hanging off it."""
    edges, v = [], 1
    for length in arms:
        prev = 1
        for _ in range(length):
            v += 1
            edges.append((prev, v))
            prev = v
    return CoxeterGraph.from_edges(v, edges)


def test_finite_type_is_a_positive_definite_cartan_matrix():
    # the predicate alone: E7 and E8 build no interval here
    finite = [
        CoxeterGraph(1, ()),  # A1
        _path(5),  # A5
        *(_star(1, 1, n - 3) for n in range(5, 9)),  # D5 .. D8
        E6,
        _star(1, 2, 3),  # E7
        _star(1, 2, 4),  # E8
        CoxeterGraph.from_edges(3, [(1, 2)]),  # A2 + A1
        CoxeterGraph.from_edges(6, [(1, 2), (2, 3), (2, 4), (5, 6)]),  # D4 + A2
    ]
    infinite = [
        _star(2, 2, 2),  # tildeE6
        _star(1, 3, 3),  # tildeE7
        _star(1, 2, 5),  # tildeE8
        CoxeterGraph.from_edges(6, [(1, 3), (2, 3), (3, 4), (4, 5), (4, 6)]),  # tildeD5
        _path(5, (1, 5)),  # a 5-cycle
        CoxeterGraph.from_edges(3, [(1, 2, 3), (2, 3, INF)]),
    ]
    assert [_finite_type(g) for g in finite] == [True] * len(finite)
    assert [_finite_type(g) for g in infinite] == [False] * len(infinite)


def test_group_sizes():
    for name, size in FINITE.items():
        assert len(CoxeterGroup(preset(name))) == size


def test_reflection_counts_and_lengths():
    for name, count in REFLECTION_COUNTS.items():
        ctx = garside_context(preset(name))
        assert len(ctx.refl_ids) == count
        assert all(ctx.ell[t] == 1 for t in ctx.refl_ids)
        group = CoxeterGroup(ctx.graph)
        assert {ctx.matrices[t] for t in ctx.refl_ids} == group.reflections()
        # the first n reflections are the atoms, in vertex order
        assert [ctx.matrices[t] for t in ctx.refl_ids[: ctx.n]] == group.gens


def test_reflection_length_matches_moved_space_rank():
    for name in FINITE:
        ctx = garside_context(preset(name))
        for w, m in enumerate(ctx.matrices):
            assert ctx.ell[w] == moved_space_dim(m)
        # the integer elimination agrees with rank over Q on the whole group
        for m in CoxeterGroup(ctx.graph).elements:
            assert _moved_rank(m) == moved_space_dim(m)


def test_interval_against_bruteforce_oracle():
    for name, expected in INTERVAL_SIZES.items():
        ctx = garside_context(preset(name))
        group = CoxeterGroup(ctx.graph)
        oracle = group.interval(group.fold(ctx.gamma_word))
        assert set(ctx.matrices) == oracle
        assert len(ctx.matrices) == expected
        assert len(interval(preset(name))) == expected


def test_left_and_right_divisors_of_gamma_agree():
    ctx = garside_context(preset("D4"))
    group = CoxeterGroup(ctx.graph)
    gamma = ctx.matrices[ctx.gamma]
    left = {m for m in group.elements if group.left_divides(m, gamma)}
    right = {m for m in group.elements if group.right_divides(m, gamma)}
    assert left == right == set(ctx.matrices)
    ids = range(len(ctx.matrices))
    assert all(ctx.left_divides(w, ctx.gamma) for w in ids)
    assert all(ctx.right_divides(w, ctx.gamma) for w in ids)
    # divisibility inside the interval agrees with the oracle
    a3 = garside_context(preset("A3"))
    a3_group = CoxeterGroup(a3.graph)
    for a, ma in enumerate(a3.matrices):
        for b, mb in enumerate(a3.matrices):
            assert a3.left_divides(a, b) == a3_group.left_divides(ma, mb)
            assert a3.right_divides(a, b) == a3_group.right_divides(ma, mb)


def test_gamma_properties():
    # the Coxeter numbers
    assert gamma_order(garside_context(preset("A2"))) == 3
    assert gamma_order(garside_context(preset("A3"))) == 4
    assert gamma_order(garside_context(preset("D4"))) == 6
    for name in FINITE:
        g = preset(name)
        ctx = garside_context(g)
        assert ctx.ell[ctx.gamma] == g.n
        assert spread(word_matrix(g, ctx.gamma_word, DUAL, ZZ)) == 0
        assert ctx.matrices[ctx.gamma] == CoxeterGroup(g).fold(ctx.gamma_word)


def test_phi_is_the_gamma_conjugation():
    ctx = garside_context(preset("A3"))
    group = CoxeterGroup(ctx.graph)
    gamma = ctx.matrices[ctx.gamma]
    for w, m in enumerate(ctx.matrices):
        expected = mat_mul(mat_mul(gamma, m), group.inverse(gamma))
        assert ctx.matrices[ctx.phi[w]] == expected
        assert ctx.phi_inv[ctx.phi[w]] == w
    # conjugation by gamma permutes the interval
    assert sorted(ctx.phi) == list(range(len(ctx.matrices)))


def test_reflection_lifts_cover_and_project_correctly():
    for name in FINITE:
        ctx = garside_context(preset(name))
        group = CoxeterGroup(ctx.graph)
        lifts = ctx.reflection_lifts
        assert set(lifts) == set(ctx.refl_ids)
        for t, word in lifts.items():
            assert group.fold(word) == ctx.matrices[t]
            assert sum(1 if letter > 0 else -1 for letter in word) == 1


def test_simple_lifts_project_and_have_small_spread():
    for name in FINITE:
        g = preset(name)
        group = CoxeterGroup(g)
        for s in interval(g):
            assert group.fold(s.lift) == s.matrix
            assert sum(1 if letter > 0 else -1 for letter in s.lift) == s.length
            if s.length:
                assert spread(word_matrix(g, s.lift, DUAL, ZZ)) <= 1
        assert str(interval(g)[0]) == "R{}"  # the identity has no divisors


SIMPLE_LIFT_SHA256 = {
    "A3": "5074d2c0eb232f9297ac36a4b117ad581863c565091228e1748568fabd929579",
    "D4": "3cd3d9caeebcbdbde3fe7c82fbbb1e3829fd6bf583a1d00bc78fe9e223e4a7b1",
    "D5": "fa6a0b8e23480661f39fd40c6e56e3898445e85a0d89aa1fe9e36a7f16d3e4d6",
}


def test_simple_lifts_are_pinned():
    # the lift of every interval element, in id order; acceptance check 8
    # reads these words through interval()
    graphs = {
        "A3": preset("A3"),
        "D4": preset("D4"),
        "D5": CoxeterGraph.from_edges(5, [(1, 2), (2, 3), (3, 4), (3, 5)]),
    }
    for name, g in graphs.items():
        ctx = garside_context(g)
        lifts = json.dumps([list(ctx.simple(w).lift) for w in range(len(ctx.matrices))])
        assert hashlib.sha256(lifts.encode()).hexdigest() == SIMPLE_LIFT_SHA256[name]


def test_product_tables_match_matrix_products():
    # the interval products with a reflection on either side, against the
    # oracle's matrix product; two non-reflections are refused
    for name in ("A3", "D4"):
        ctx = garside_context(preset(name))
        for t in ctx.refl_ids:
            for w in range(len(ctx.matrices)):
                for a, b in ((w, t), (t, w)):
                    got = ctx.index.get(mat_mul(ctx.matrices[a], ctx.matrices[b]))
                    assert ctx.product(a, b) == got
        with pytest.raises(ValueError):
            ctx.product(ctx.gamma, ctx.gamma)


def test_normal_form_of_special_words():
    ctx = garside_context(preset("A2"))
    assert ctx.normal_form([]).is_trivial()
    assert str(ctx.normal_form([])) == "gamma^0 . [-]"
    nf_gamma = ctx.normal_form([1, 2])
    assert (nf_gamma.k, nf_gamma.simples) == (1, ())
    nf_letter = ctx.normal_form([1])
    assert nf_letter.k == 0
    assert [s.length for s in nf_letter.simples] == [1]
    assert str(nf_letter) == "gamma^0 . [R{1}]"
    nf_inv = ctx.normal_form([-1])
    assert nf_inv.k == -1
    assert [s.length for s in nf_inv.simples] == [1]


def test_braid_relation_words_are_trivial():
    g = preset("A2")
    assert is_trivial_braid(g, [1, 2, 1, -2, -1, -2])
    assert is_trivial_braid(g, [1, -1])
    assert is_trivial_braid(g, [-2, 2])
    assert not is_trivial_braid(g, [1])
    assert not is_trivial_braid(g, [1, 2])


def test_word_problem_builds_no_lifted_normal_form(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the word problem built a lift")

    monkeypatch.setattr(garside, "GarsideNF", refuse)
    monkeypatch.setattr(DualGarside, "simple", refuse)
    monkeypatch.setattr(DualGarside, "_hurwitz_lifts", refuse)
    g = preset("D4")
    assert is_trivial_braid(g, [1, -1])
    assert not is_trivial_braid(g, [1, 2, -1])


def test_single_vertex_inverse_letters_cancel():
    g = CoxeterGraph.from_edges(1, [])
    assert is_trivial_braid(g, [-1, 1])
    assert is_trivial_braid(g, [1, -1, -1, 1])
    assert str(garside_context(g).normal_form([-1])) == "gamma^-1 . [-]"
    assert not is_trivial_braid(g, [-1])


def test_random_trivial_words_normalize_to_identity():
    rng = random.Random(31)
    for name in ["A3", "D4"]:
        g = preset(name)
        for _ in range(250):
            w = random_word(rng, g, rng.randrange(0, 12))
            assert is_trivial_braid(g, list(w) + list(inverse_word(w)))


def test_positive_words_are_never_trivial():
    rng = random.Random(32)
    g = preset("D4")
    for _ in range(50):
        w = [rng.randrange(1, 5) for _ in range(rng.randrange(1, 10))]
        assert not is_trivial_braid(g, w)


def test_normal_form_is_canonical_under_rewriting():
    rng = random.Random(33)
    for name in ["A3", "D4"]:
        g = preset(name)
        ctx = garside_context(g)
        for _ in range(40):
            w = random_word(rng, g, rng.randrange(0, 10))
            nf = ctx.normal_form(w)
            again = ctx.normal_form(nf.braid_word())
            assert again.k == nf.k
            assert [s.matrix for s in again.simples] == [
                s.matrix for s in nf.simples
            ]
            # inserting a cancelling pair anywhere leaves the form unchanged
            cut = rng.randrange(0, len(w) + 1)
            i = rng.randrange(1, g.n + 1)
            padded = list(w[:cut]) + [i, -i] + list(w[cut:])
            assert ctx.normal_form(padded) == nf


def test_exponent_sum_invariant():
    rng = random.Random(34)
    g = preset("A3")
    ctx = garside_context(g)
    for _ in range(60):
        w = random_word(rng, g, rng.randrange(0, 12))
        nf = ctx.normal_form(w)
        total = nf.k * g.n + sum(s.length for s in nf.simples)
        assert total == sum(1 if letter > 0 else -1 for letter in w)


def test_normal_form_factors_are_greedy():
    rng = random.Random(35)
    g = preset("D4")
    ctx = garside_context(g)
    oracle = CoxeterGroup(g).interval(ctx.matrices[ctx.gamma])
    seen_nontrivial = 0
    for _ in range(40):
        w = random_word(rng, g, 8)
        nf = ctx.normal_form(w)
        ids = [ctx.index[s.matrix] for s in nf.simples]
        for left, right in zip(ids, ids[1:]):
            seen_nontrivial += 1
            for mu in ctx.rdiv[left]:
                cand = mat_mul(ctx.matrices[mu], ctx.matrices[right])
                assert not (
                    cand in oracle
                    and moved_space_dim(cand) == ctx.ell[right] + 1
                )
    assert seen_nontrivial > 0


def test_samecurve_examples():
    g = preset("A2")
    good = samecurve_check(g, [2], 1)
    assert good.zero_gamma_power
    assert good.append_stays_greedy
    assert good.atom_free_last_simple

    blocked = samecurve_check(g, [1], 1)
    assert blocked.zero_gamma_power
    assert blocked.append_stays_greedy
    assert not blocked.atom_free_last_simple

    negative = samecurve_check(g, [-1, -2], 1)
    assert not negative.zero_gamma_power

    empty = samecurve_check(g, [], 1)
    assert empty.zero_gamma_power
    assert empty.append_stays_greedy
    assert empty.atom_free_last_simple
    with pytest.raises(ValueError, match="out of range"):
        samecurve_check(g, [], True)


def test_e6_interval_and_word_problem():
    ctx = garside_context(E6)
    assert len(ctx.refl_ids) == 36
    assert len(ctx.matrices) == 833
    assert ctx.ell[ctx.gamma] == 6
    assert gamma_order(ctx) == 12  # the Coxeter number of E6
    rng = random.Random(36)
    for _ in range(40):
        w = random_word(rng, E6, rng.randrange(0, 12))
        assert is_trivial_braid(E6, list(w) + list(inverse_word(w)))
    assert not is_trivial_braid(E6, [1])
