"""Property-based checks that the dual Garside normal form depends only on
the braid, not on how its word is spelled or on how the accumulator holding
it was built."""

from functools import lru_cache

from coxeter_oracle import CoxeterGroup, mat_mul, moved_space_dim
from hypothesis import given, settings
from hypothesis import strategies as st

from burau.garside import garside_context
from burau.graphs import CoxeterGraph, preset

GRAPHS = {
    "A3": preset("A3"),
    "D4": preset("D4"),
    "D5": CoxeterGraph.from_edges(5, [(1, 2, 3), (2, 3, 3), (3, 4, 3), (3, 5, 3)]),
}


def _letters(g):
    return st.integers(1, g.n).flatmap(lambda i: st.sampled_from([i, -i]))


@st.composite
def padded_words(draw):
    """A graph, a random word, and the same word with a trivial braid
    inserted at a random position: a braid relation iji.j^-1 i^-1 j^-1 for
    adjacent i, j, a commutation ij.i^-1 j^-1 for non-adjacent i, j, or a
    cancelling pair."""
    g = GRAPHS[draw(st.sampled_from(sorted(GRAPHS)))]
    word = draw(st.lists(_letters(g), max_size=12))
    cut = draw(st.integers(0, len(word)))
    kind = draw(st.sampled_from(["braid", "commutation", "cancel"]))
    if kind == "braid":
        i, j = draw(st.sampled_from(g.edges()))
        if draw(st.booleans()):
            i, j = j, i
        inserted = [i, j, i, -j, -i, -j]
    elif kind == "commutation":
        far = [
            (i, j)
            for i in g.vertices()
            for j in g.vertices()
            if i != j and not g.adjacent(i, j)
        ]
        i, j = draw(st.sampled_from(far))
        inserted = [i, j, -i, -j]
    else:
        letter = draw(_letters(g))
        inserted = [letter, -letter]
    return g, word, word[:cut] + inserted + word[cut:]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(padded_words())
def test_inserting_a_trivial_braid_keeps_the_normal_form(case):
    g, word, padded = case
    ctx = garside_context(g)
    assert ctx.normal_form(padded) == ctx.normal_form(word)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_a_restored_state_continues_like_the_original(data):
    # a state rebuilt from (k, factors) alone must treat later letters as
    # the state that computed them does
    g, word, _ = data.draw(padded_words())
    more = data.draw(st.lists(_letters(g), max_size=12))
    ctx = garside_context(g)
    state = ctx.new_nf_state(word)
    restored = ctx.restore_nf_state(state.k, state.factors())
    assert restored.result() == state.result()
    for letter in more:
        state.push_letter(letter)
        restored.push_letter(letter)
    assert restored.result() == state.result()


@lru_cache(maxsize=None)
def _oracle_interval(name):
    ctx = garside_context(GRAPHS[name])
    return CoxeterGroup(ctx.graph).interval(ctx.matrices[ctx.gamma])


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_pushing_simples_gives_the_normal_form_of_their_lifts(data):
    # any interval id, the identity and gamma included, pushed after a word
    name = data.draw(st.sampled_from(sorted(GRAPHS)))
    g = GRAPHS[name]
    ctx = garside_context(g)
    word = data.draw(st.lists(_letters(g), max_size=12))
    ids = data.draw(st.lists(st.integers(0, len(ctx.matrices) - 1), max_size=6))
    state = ctx.new_nf_state(word)
    for w in ids:
        state.push_simple(w)
    lifted = list(word) + [letter for w in ids for letter in ctx.simple_lift(w)]
    assert state.result() == ctx.normal_form(lifted)
    factors = state.factors()
    assert ctx.identity not in factors and ctx.gamma not in factors
    oracle = _oracle_interval(name)
    for left, right in zip(factors, factors[1:]):
        for mu in ctx.rdiv[left]:
            cand = mat_mul(ctx.matrices[mu], ctx.matrices[right])
            assert not (
                cand in oracle and moved_space_dim(cand) == ctx.ell[right] + 1
            )
