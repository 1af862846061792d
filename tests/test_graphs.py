"""Coxeter graph presets, parsing, and word utilities."""

import json

import pytest

from burau.graphs import (
    INF,
    CoxeterGraph,
    commutator_word,
    conjugated_generator,
    graph_from_json,
    graph_json,
    inverse_word,
    load_graph,
    parse_graph,
    preset,
    preset_names,
    validate_vertex,
    validate_word,
    word_from_string,
)


def test_preset_inventory():
    names = preset_names()
    for expected in ["A2", "A3", "A4", "D4", "tildeA2", "tildeA3", "tildeD4",
                     "K4", "K5", "K6", "AE4", "box"]:
        assert expected in names


def test_path_presets_are_paths():
    a4 = preset("A4")
    assert a4.n == 4
    assert a4.edges() == [(1, 2), (2, 3), (3, 4)]
    assert all(a4.labels(i, j) == 3 for i, j in a4.edges())


def test_d4_is_a_star():
    d4 = preset("D4")
    assert d4.n == 4
    assert [j for j in d4.vertices() if d4.adjacent(2, j)] == [1, 3, 4]
    assert d4.labels(1, 3) == 2  # non-adjacent commute


def test_affine_a3_is_a_cycle():
    g = preset("tildeA3")
    assert g.n == 4
    assert sorted(g.edges()) == [(1, 2), (1, 4), (2, 3), (3, 4)]
    assert g.is_simply_laced()


def test_complete_graphs():
    for name, n in [("K4", 4), ("K5", 5), ("K6", 6)]:
        g = preset(name)
        assert g.n == n
        assert len(g.edges()) == n * (n - 1) // 2


def test_unknown_preset_lists_options():
    with pytest.raises(KeyError) as err:
        preset("E8")
    assert "A2" in str(err.value)


def test_from_edges_rejects_bad_input():
    with pytest.raises(ValueError):
        CoxeterGraph.from_edges(3, [(1, 1, 3)])  # loop
    with pytest.raises(ValueError):
        CoxeterGraph.from_edges(3, [(1, 4, 3)])  # vertex out of range
    with pytest.raises(ValueError):
        CoxeterGraph.from_edges(3, [(1, 2, 5)])  # unsupported label
    with pytest.raises(ValueError):
        CoxeterGraph.from_edges(3, [(1, 2, 3), (2, 1, 3)])  # duplicate edge


def test_infinite_label_allowed():
    g = CoxeterGraph.from_edges(2, [(1, 2, INF)])
    assert g.labels(1, 2) == INF
    assert not g.is_simply_laced()


def test_parse_graph_text():
    g = parse_graph("n=3\n1-2:3\n2-3:inf\n")
    assert g.labels(1, 2) == 3
    assert g.labels(2, 3) == INF
    assert g.labels(1, 3) == 2


def test_parse_graph_errors():
    with pytest.raises(ValueError):
        parse_graph("1-2:3")
    with pytest.raises(ValueError):
        parse_graph("n=3\n1:2:3")
    with pytest.raises(ValueError) as err:
        parse_graph("n=2\n1-2:2")  # a missing edge means m = 2
    assert "an edge takes 3 or inf" in str(err.value)


def test_load_graph_from_file(tmp_path):
    path = tmp_path / "square.graph"
    path.write_text("n=4\n1-2:3\n2-3:3\n3-4:3\n1-4:3\n")
    g = load_graph(str(path))
    assert g == preset("tildeA3")
    assert load_graph("D4") == preset("D4")
    with pytest.raises(KeyError):
        load_graph(str(tmp_path / "missing.graph"))


def test_graph_json_round_trip(tmp_path):
    names = preset_names()
    assert len(names) == 12
    for name in names:
        g = preset(name)
        assert graph_from_json(json.loads(json.dumps(graph_json(g)))) == g
    path = tmp_path / "wide.graph"
    path.write_text("n=3\n1-2:3\n2-3:inf\n")
    g = load_graph(str(path))
    blob = graph_json(g)
    assert blob == {"n": 3, "edges": [[1, 2, "3"], [2, 3, "inf"]]}
    assert graph_from_json(json.loads(json.dumps(blob))) == g


def test_validate_word_names_the_bad_position():
    g = preset("A2")
    validate_word(g, [1, -2, 1])
    with pytest.raises(ValueError) as err:
        validate_word(g, [1, 0])
    assert "letter 0 at position 1" in str(err.value)
    with pytest.raises(ValueError):
        validate_word(g, [3])
    with pytest.raises(ValueError) as err:
        validate_word(preset("A3"), [True, -1])
    assert "letter True at position 0" in str(err.value)


def test_validate_vertex_refuses_bools_and_out_of_range():
    g = preset("A3")
    validate_vertex(g, 3)
    for bad in (0, 4, True, 1.0):
        with pytest.raises(ValueError, match="out of range"):
            validate_vertex(g, bad)


def test_word_helpers():
    assert inverse_word([1, -2, 3]) == (-3, 2, -1)
    assert commutator_word([1], [2]) == (1, 2, -1, -2)
    assert conjugated_generator([1, 2], 3) == (1, 2, 3, -2, -1)
    assert word_from_string("1 2 -1") == (1, 2, -1)
    assert word_from_string("1,2,-1") == (1, 2, -1)
    assert word_from_string("") == ()
