"""Exactness, invariance and sharing checks of the categorical layer: the
sparse integer rank and hom table against the dense reference in
`hom_oracle.py`, the fused twist against the plain cone, minimization
through a non-unit pivot, K0 against the Burau action, hom tables unchanged
by minimize, and shared entries."""

import random
import re
from fractions import Fraction

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from burau.complexes import (
    ProjComplex,
    _int_rank,
    act_complex,
    apply_twist,
    hom_table,
    k0_class,
    minimize,
    projective,
)
from burau.graphs import preset
from burau.matrices import act, basis_vector
from burau.zigzag import Elt, zigzag

from hom_oracle import dense_rank, oracle_hom_table, reference_cone, reference_twist

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
    assert _int_rank(sparse(rows)) == dense_rank(rows)


def test_sparse_rank_edge_cases():
    assert _int_rank([]) == 0
    assert _int_rank([{}, {}]) == 0
    # the non-unit pivot 2 gives way to the unit pivot of the second row
    assert _int_rank([{0: 2, 1: 1}, {0: 1, 1: 1}, {0: 3, 1: 2}]) == 2
    # non-unit pivots only: 2*row2 - 3*row1 and its multiples cancel
    assert _int_rank([{0: 2, 1: 4}, {0: 3, 1: 6}, {0: 6, 1: 12}]) == 1
    assert _int_rank([{0: -3, 2: -2}, {0: 3, 2: 2}]) == 1


def _non_unit_pivot(a):
    """A complex on vertices 1 and 2 (adjacent) that minimizes through the
    pivot 2*e1: u -> t by (2|1), s -> t by 2*e1, s -> w by (1|2), so
    cancelling s, t leaves u -> w with -(1|2)(2|1)/2 = -X2/2."""
    return ProjComplex(
        a,
        ((2, 1, 0), (1, 0, 0), (1, 0, 1), (2, -1, 1)),
        {(0, 2): a.arrow(2, 1), (1, 2): a.term(("e", 1), 2), (1, 3): a.arrow(1, 2)},
    )


def _padded(x, vertex, g0, h0, c):
    """x plus a contractible pair P_v{g0}[h0] -> P_v{g0}[h0 + 1] joined by
    c*e_v, as in acceptance check 7."""
    k = len(x.summands)
    return ProjComplex(
        x.algebra,
        x.summands + ((vertex, g0, h0), (vertex, g0, h0 + 1)),
        x.diff | {(k, k + 1): x.algebra.term(("e", vertex), c)},
    )


def test_minimize_through_a_non_unit_pivot_stays_exact():
    a = zigzag(preset("A2"))
    x = _non_unit_pivot(a)
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


def _scaled(x, factor):
    """x with every differential entry multiplied by factor."""
    a = x.algebra
    return ProjComplex(
        a, x.summands, {pair: a.term(tok, c * factor) for pair, e in x.entries() for tok, c in e.coeffs.items()}
    )


@st.composite
def scaled_pairs(draw):
    """Two complexes over one tildeA3, D4 or K4 algebra: each a twisted
    projective, complex with a Fraction entry or padded projective, or the
    unminimized `_non_unit_pivot` complex."""
    name = draw(st.sampled_from(["tildeA3", "D4", "K4"]))
    g = preset(name)
    a = zigzag(g)

    def one():
        start = draw(st.sampled_from(["projective", "fraction", "padded", "pivot"]))
        if start == "pivot":
            return _non_unit_pivot(a)
        return act_complex(g, draw(_words(name, 4)), _start(a, start, draw(st.integers(1, g.n))))

    return one(), one()


SCALES = st.sampled_from([-1, 2, -3, 6]) | st.builds(
    Fraction, st.sampled_from([1, -1, 3, -4]), st.integers(2, 6)
)


@FEW
@given(scaled_pairs(), SCALES, SCALES)
def test_hom_table_is_unchanged_by_scaling_a_differential(pair, lam, mu):
    """(X, lam*d) is isomorphic to (X, d) by lam^h in homological degree h,
    so scaling x's or y's differential by a non-zero int or Fraction keeps
    every hom dimension: the fact that lets `hom_table` clear denominators
    and rank only integers."""
    x, y = pair
    expected = hom_table(x, y)
    assert hom_table(_scaled(x, lam), y) == expected
    assert hom_table(x, _scaled(y, mu)) == expected
    assert hom_table(_scaled(x, lam), _scaled(y, mu)) == expected


def test_a_complex_stores_int_or_fraction_coefficients():
    """ProjComplex stores a whole Fraction as its int and refuses a bool.
    Terms are shared per algebra and (k, 2) == (k, Fraction(2, 1)), so
    neither may change the coefficient type of a later complex over the
    same algebra."""
    a = zigzag(preset("A2"))
    pad = ((1, 0, 0), (1, 0, 1))
    whole = ProjComplex(a, pad, {(0, 1): Elt({("e", 1): Fraction(2, 1)})})
    assert [(k, type(c)) for k, c in whole._terms] == [(a.codes.code[("e", 1)], int)]
    assert type(whole.diff[(0, 1)].coeffs[("e", 1)]) is int
    for bad in (True, 1.0):
        with pytest.raises(TypeError, match=re.escape(repr(bad))):
            ProjComplex(a, pad, {(0, 1): Elt({("e", 1): bad})})
        with pytest.raises(TypeError):
            a.term(("e", 1), bad)
    later = [
        ProjComplex(a, pad, {(0, 1): a.term(("e", 1), 2)}),
        ProjComplex(a, pad, {(0, 1): a.e(1)}),
        minimize(_padded(projective(a, 2), 1, 0, 0, 2)),
        apply_twist(whole, 2, 1),
    ]
    for x in later:
        assert all(type(c) is int for _, c in x._terms)
        assert all(type(c) is int for _, e in x.entries() for c in e.coeffs.values())
    assert a.term(("e", 1), Fraction(2, 1)) is a.term(("e", 1), 2)


def test_check_d2_sums_the_composites_through_every_summand():
    """In the unminimized cone of P1 twisted by 2, 3 -> 1 -> 0 and
    3 -> 2 -> 0 are (2|1) and -(2|1): d^2 vanishes only as their sum."""
    a = zigzag(preset("A3"))
    cone = reference_cone(act_complex(a.graph, [2], projective(a, 1)), 2, 1)
    cone.check_d2()
    broken = ProjComplex(a, cone.summands, cone.diff | {(3, 2): a.e(2)})
    with pytest.raises(ValueError, match=r"d\^2 != 0 along 3 -> 0$"):
        broken.check_d2()


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
    padded = _padded(x, vertex, g0, h0, c)
    reduced = minimize(padded)
    assert k0_class(reduced) == k0_class(x)
    for p in (projective(a, j) for j in g.vertices()):
        assert hom_table(padded, p) == hom_table(reduced, p) == hom_table(x, p)
        assert hom_table(p, padded) == hom_table(p, reduced) == hom_table(p, x)


def _start(a, start, j):
    """A projective P_j, a complex with a Fraction entry, or P_j padded with
    a contractible pair joined by 2*e_j (a non-minimal complex)."""
    if start == "fraction":
        x = minimize(_non_unit_pivot(a))
        assert any(type(c) is Fraction for _, e in x.entries() for c in e.coeffs.values())
        return x
    x = projective(a, j)
    return _padded(x, j, 1, 0, 2) if start == "padded" else x


@FEW
@given(
    twisted_cases(("tildeA3", "A4", "D4", "K4"), 6),
    st.sampled_from(["projective", "fraction", "padded"]),
    st.integers(1, 4),
    st.sampled_from([1, -1]),
)
def test_fused_twist_equals_the_minimized_plain_cone(case, start, i, sign):
    """Along a random word, then one more twist, every step of apply_twist
    equals minimize of the cone built as a checked ProjComplex: same
    summands in the same order, same differential.  The start is a
    projective, a complex with a Fraction entry, or a non-minimal complex
    with an idempotent entry."""
    g, word, j = case
    x = _start(zigzag(g), start, j)
    for letter in [*reversed(word), sign * i]:
        fused = apply_twist(x, abs(letter), 1 if letter > 0 else -1)
        reference = reference_twist(x, abs(letter), 1 if letter > 0 else -1)
        assert fused == reference
        x = fused


@SETTINGS
@given(
    twisted_cases(("tildeA3", "A4", "D4"), 4),
    st.sampled_from(["projective", "fraction", "padded"]),
)
def test_act_complex_equals_the_reference_twists_letter_by_letter(case, start):
    """act_complex, which twists the whole word on one elimination state,
    equals reference_twist applied letter by letter, rightmost first: same
    summands in the same order, same differential.  A padded start has an
    idempotent entry of its own, which the first letter must cancel along
    with its cone; the empty word returns the start unchanged."""
    g, word, j = case
    x = _start(zigzag(g), start, j)
    expected = x
    for letter in reversed(word):
        expected = reference_twist(expected, abs(letter), 1 if letter > 0 else -1)
    twisted = act_complex(g, word, x)
    assert twisted.summands == expected.summands
    assert twisted.diff == expected.diff
    unchanged = act_complex(g, [], x)
    assert unchanged.summands == x.summands and unchanged.diff == x.diff


def faulty_bases(codes, pair, terms):
    """`codes.bases` with the basis of Hom(P_i, P_j), (i, j) = pair, replaced
    by `terms`, (token, degree) pairs whose degree need not be the token's."""
    (i, j), rows = pair, [list(row) for row in codes.bases]
    rows[i][j] = tuple((codes.code[tok], d) for tok, d in terms)
    return tuple(map(tuple, rows))


@pytest.mark.parametrize("sign", [1, -1])
def test_the_fused_cone_checks_every_entry(monkeypatch, sign):
    """A basis table that gives X1 degree 0, or the reversed arrow as the
    basis of Hom(P1, P2) or Hom(P2, P1), makes apply_twist raise, with the
    message of the ValueError that ProjComplex raises on the same cone, an
    AssertionError: inside the twist the fault is the library's own.  The
    reference cone reads the same faulty table through `hom_terms`, and the
    healthy table is back once the patch ends."""
    a = zigzag(preset("tildeA3"))
    codes = a.codes
    healthy = codes.bases
    if sign == 1:
        arrow = ((1, 2), ("a", 2, 1), "entry 1->0 has token ('a', 2, 1) outside e_2 A e_1")
        loop = "entry 2->0 has token ('x', 1) of degree 2, expected 0"
    else:
        arrow = ((2, 1), ("a", 1, 2), "entry 0->1 has token ('a', 1, 2) outside e_1 A e_2")
        loop = "entry 0->2 has token ('x', 1) of degree 2, expected 0"
    faults = [
        ((1, 1), ((("e", 1), 0), (("x", 1), 0)), 1, loop),
        (arrow[0], ((arrow[1], 1),), 2, arrow[2]),
    ]
    for pair, terms, start, message in faults:
        with monkeypatch.context() as patch:
            patch.setattr(codes, "bases", faulty_bases(codes, pair, terms))
            x = projective(a, start)
            with pytest.raises(ValueError, match=re.escape(message) + "$"):
                reference_cone(x, 1, sign)
            with pytest.raises(AssertionError, match=re.escape(message) + "$"):
                apply_twist(x, 1, sign)
    assert a.codes is codes and codes.bases is healthy
    for start in (1, 2):
        x = projective(a, start)
        assert apply_twist(x, 1, sign) == reference_twist(x, 1, sign)


def test_entries_written_mid_word_are_checked(monkeypatch):
    """A product table that returns e_1 for a product equal to X_1, of
    degree 0 instead of 2, makes the entry written from it fail its check,
    whether the cone or the elimination writes it, and also at a letter
    before the last.  Left unchecked, that e_1 entry would be queued as a
    unit and cancelled, so no check of the final complex would see it."""
    g = preset("tildeA3")
    a = zigzag(g)
    codes = a.codes
    n, code = len(codes.tokens), codes.code
    message = r"entry \d+->\d+ has token \('e', 1\) of degree 0, expected 2$"
    round_trip, loop_unit = (("a", 2, 1), ("a", 1, 2)), (("x", 1), ("e", 1))
    faults = [
        # the round trip (2|1)(1|2) at 1, met where a cone along P1 is glued
        (round_trip, "glue", (2, 1), 1, [3, 1, 2]),
        (round_trip, "glue", (2, -1), -1, [3, -1, -2]),
        # X1 e1, met here where the elimination composes a loop with a unit
        (loop_unit, "eliminate", (2, 1), -1, [3, -1, 2]),
    ]
    for (left, right), site, start, sign, word in faults:
        twisted = apply_twist(projective(a, 1), *start)
        mul = list(codes.mul)
        at = code[left] * n + code[right]
        assert mul[at] == code[("x", 1)]
        mul[at] = code[("e", 1)]
        with monkeypatch.context() as patch:
            patch.setattr(codes, "mul", mul)
            with pytest.raises(AssertionError, match=message) as raised:
                apply_twist(twisted, 1, sign)
            assert raised.traceback[-2].name == site
            # the same product at the second of three letters, read from the right
            with pytest.raises(AssertionError, match=message) as raised:
                act_complex(g, word, projective(a, 1))
            assert raised.traceback[-2].name == site


def test_hom_table_on_non_minimal_inputs_matches_the_dense_oracle():
    """Unminimized cones (with idempotent entries), a complex with a
    Fraction entry, and pairs of them across tildeA3, D4 and K4."""
    rng = random.Random(33)
    for name in ("tildeA3", "D4", "K4"):
        g = preset(name)
        a = zigzag(g)
        letters = [s * v for v in g.vertices() for s in (1, -1)]
        fraction = minimize(_non_unit_pivot(a))
        complexes = [fraction, reference_cone(fraction, 1, 1), _padded(projective(a, 3), 3, 0, 0, 2)]
        for _ in range(4):
            x = act_complex(
                g, [rng.choice(letters) for _ in range(rng.randrange(0, 4))],
                projective(a, rng.randrange(1, g.n + 1)),
            )
            # along a vertex of x, the copy of P_i glued by e_i stays in the cone
            cone = reference_cone(x, x.summands[0][0], rng.choice([1, -1]))
            assert any(("e", x.summands[0][0]) in e.coeffs for _, e in cone.entries())
            complexes += [cone, apply_twist(fraction, rng.randrange(1, g.n + 1), 1)]
        for x in complexes:
            for y in complexes:
                assert hom_table(x, y) == oracle_hom_table(x, y), (name, x, y)


def test_hom_table_over_two_algebras_of_one_graph():
    """Algebras compare by their graph alone, so hom_table takes x and y
    built over two `zigzag(g)` calls.  The second algebra is first used
    through another vertex pair than the first, so codes that followed the
    order of use would differ; the tables must equal the one-algebra
    tables and the dense oracle's."""
    rng = random.Random(34)
    for name in ("tildeA3", "D4", "K4"):
        g = preset(name)
        one, two = zigzag(g), zigzag(g)
        one.hom_terms(1, 1)
        two.hom_terms(g.n, g.n - 1)
        letters = [s * v for v in g.vertices() for s in (1, -1)]
        for _ in range(5):
            words = [[rng.choice(letters) for _ in range(rng.randrange(0, 6))] for _ in range(2)]
            starts = [rng.randrange(1, g.n + 1) for _ in range(2)]
            x1, y1 = (act_complex(g, w, projective(one, i)) for w, i in zip(words, starts))
            x2, y2 = (act_complex(g, w, projective(two, i)) for w, i in zip(words, starts))
            expected = hom_table(x1, y1)
            assert expected == oracle_hom_table(x1, y1), (name, words, starts)
            assert hom_table(x1, y2) == hom_table(x2, y1) == hom_table(x2, y2) == expected
            assert oracle_hom_table(x1, y2) == expected


def test_twisted_complexes_share_their_parts():
    """Entries, stored (code, coefficient) terms, summand triples and index
    pairs of act_complex outputs over one algebra are one instance per
    value."""
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
    terms = [term for x in complexes for term in x._terms]
    assert len({id(term) for term in terms}) <= len(set(terms))
    tables = [hom_table(x, y) for x, y in zip(complexes, complexes[1:])]
    keys = [key for table in tables for key in table]
    assert len({id(key) for key in keys}) <= len(set(keys))


def test_elements_and_algebra_parts_use_ints():
    a = zigzag(preset("A3"))
    assert type(Elt.from_token(("e", 1)).coeffs[("e", 1)]) is int
    assert type(a.e(2).coeffs[("e", 2)]) is int
    assert a.e(1) is a.e(1) and a.arrow(1, 2) is a.term(("a", 1, 2), 1)
