"""Property-based checks that the dual Garside normal form depends only on
the braid, not on how its word is spelled or on how the accumulator holding
it was built."""

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
