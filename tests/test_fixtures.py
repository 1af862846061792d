"""Bundled witness words: integrity pins and basic registry behavior."""

import hashlib
from importlib import resources

import pytest

from burau.fixtures import (
    D4_MODULI,
    affine_fixture,
    all_fixtures,
    d4_fixture,
    load_affine_words,
    load_d4_words,
)
from burau.graphs import preset, validate_word

AFFINE_SHA256 = "6ce4c989b8ff803744d4966877ce651a4113b8316a6081306e68b15cbbe245dc"
D4_SHA256 = "2bb6409e909376310d500c417bcdc87a51b9a7587fe83ed0a785bf437c166f39"

WORD_A = (3, 3, 4, 3, 2, 1, -3, 4, 3, 2, -1, -1, 4)
WORD_B = (1, 1, -2, 4, 1, -3, 2, -4, 3, 1, 4, 1, -2, -4, -4, 3)

D4_WORD_LENGTHS = {
    6: 78,
    7: 97,
    8: 100,
    9: 168,
    10: 119,
    11: 137,
    12: 78,
    13: 114,
    14: 354,
    15: 143,
    16: 206,
}


def file_digest(name):
    data = resources.files("burau.data").joinpath(name).read_bytes()
    return hashlib.sha256(data).hexdigest()


def test_data_files_are_unchanged():
    assert file_digest("words_affine_a3.json") == AFFINE_SHA256
    assert file_digest("words_d4_modp.json") == D4_SHA256


def test_affine_words_letter_for_letter():
    raw = load_affine_words()
    assert tuple(raw["a"]) == WORD_A
    assert tuple(raw["b"]) == WORD_B
    assert raw["alpha"] == {"conjugator": "a", "generator": 3}
    assert raw["beta"] == {"conjugator": "b", "generator": 2}
    assert len(raw["a_prime"]) == 13
    assert len(raw["b_prime"]) == 20


def test_affine_fixture_contents():
    fx = affine_fixture()
    assert fx.name == "affine-a3"
    assert fx.graph == preset("tildeA3")
    assert fx.witnesses == ((WORD_A, 3), (WORD_B, 2))
    assert fx.ring_label == "Z"

    variant = affine_fixture(variant=True)
    assert variant.name == "affine-a3-variant"
    assert variant.witnesses[0][0] == tuple(load_affine_words()["a_prime"]) != WORD_A
    assert [i for _, i in variant.witnesses] == [3, 2]


def test_d4_words_and_fixtures():
    words = load_d4_words()
    assert sorted(words) == list(D4_MODULI) == list(range(6, 17))
    for p, beta in words.items():
        assert len(beta) == D4_WORD_LENGTHS[p]
        fx = d4_fixture(p)
        assert fx.name == f"d4-mod-{p}"
        assert fx.graph == preset("D4")
        assert fx.witnesses == ((beta, 1),)
        assert fx.ring_label == f"Z/{p}"
    with pytest.raises(KeyError):
        d4_fixture(5)
    with pytest.raises(KeyError):
        d4_fixture(17)


def test_every_bundled_word_is_a_valid_braid_word():
    for fx in all_fixtures():
        for word, vertex in fx.witnesses:
            validate_word(fx.graph, word)
            assert vertex in fx.graph.vertices()


def test_fixture_registry():
    names = [fx.name for fx in all_fixtures()]
    assert names[0] == "affine-a3"
    assert names[1] == "affine-a3-variant"
    assert names[2:] == [f"d4-mod-{p}" for p in range(6, 17)]
    assert len(all_fixtures()) == 13
