"""Coxeter graphs, braid words, and the small preset zoo.

A graph is loop-free with edge labels m in {3, inf}; absent edges mean m = 2.
Vertices are numbered 1..n so braid words can be written exactly as published
index lists (+i for a generator, -i for its inverse).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

INF = float("inf")

BraidWord = tuple[int, ...]


@dataclass(frozen=True)
class CoxeterGraph:
    n: int
    edge_labels: tuple  # ((i, j), m) with i < j, m in {3, INF}

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        seen = set()
        for (i, j), m in self.edge_labels:
            if not (1 <= i < j <= self.n):
                raise ValueError(f"bad edge ({i},{j}) on {self.n} vertices")
            if m != 3 and m != INF:
                raise ValueError(
                    f"unsupported label m={m}; an edge takes 3 or inf "
                    "(a missing edge means m = 2)"
                )
            if (i, j) in seen:
                raise ValueError(f"duplicate edge ({i},{j})")
            seen.add((i, j))

    @staticmethod
    def from_edges(n: int, edges) -> "CoxeterGraph":
        """Edges given as (i, j) pairs (label 3) or (i, j, m) triples."""
        cooked = []
        for e in edges:
            if len(e) == 2:
                i, j, m = e[0], e[1], 3
            else:
                i, j, m = e
            if i > j:
                i, j = j, i
            cooked.append(((i, j), m))
        cooked.sort(key=lambda t: t[0])
        return CoxeterGraph(n, tuple(cooked))

    def labels(self, i: int, j: int):
        """The Coxeter label m_ij (symmetric; 2 when no edge joins i and j)."""
        for v in (i, j):
            if not 1 <= v <= self.n:
                raise ValueError(f"vertex {v} out of range 1..{self.n}")
        if i == j:
            raise ValueError("m_ii is not defined here (graphs are loop-free)")
        key = (i, j) if i < j else (j, i)
        for pair, m in self.edge_labels:
            if pair == key:
                return m
        return 2

    def vertices(self) -> range:
        return range(1, self.n + 1)

    def edges(self) -> list[tuple[int, int]]:
        return [pair for pair, _ in self.edge_labels]

    def adjacent(self, i: int, j: int) -> bool:
        return i != j and self.labels(i, j) != 2

    def is_simply_laced(self) -> bool:
        return all(m == 3 for _, m in self.edge_labels)


_PRESETS: dict[str, tuple[int, list]] = {
    "A2": (2, [(1, 2)]),
    "A3": (3, [(1, 2), (2, 3)]),
    "A4": (4, [(1, 2), (2, 3), (3, 4)]),
    "D4": (4, [(1, 2), (2, 3), (2, 4)]),
    "tildeA2": (3, [(1, 2), (2, 3), (1, 3)]),
    "tildeA3": (4, [(1, 2), (2, 3), (3, 4), (1, 4)]),
    "tildeD4": (5, [(1, 3), (2, 3), (3, 4), (3, 5)]),
    "AE4": (4, [(1, 2), (1, 3), (2, 3), (3, 4)]),
    "box": (4, [(1, 2), (1, 3), (1, 4), (2, 3), (3, 4)]),
    "K4": (4, [(i, j) for i, j in combinations(range(1, 5), 2)]),
    "K5": (5, [(i, j) for i, j in combinations(range(1, 6), 2)]),
    "K6": (6, [(i, j) for i, j in combinations(range(1, 7), 2)]),
}


def preset_names() -> list[str]:
    return sorted(_PRESETS)


def preset(name: str) -> CoxeterGraph:
    try:
        n, edges = _PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}"
        ) from None
    return CoxeterGraph.from_edges(n, edges)


def parse_graph(text: str) -> CoxeterGraph:
    """Parse the plain-text format: first line 'n=<count>', then one
    '<i>-<j>:<m>' line per edge with m in {3, inf}."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("n="):
        raise ValueError("graph text must start with 'n=<count>'")
    n = int(lines[0][2:])
    edges = []
    for ln in lines[1:]:
        try:
            pair, label = ln.split(":")
            i, j = pair.split("-")
            m = INF if label.strip() == "inf" else int(label)
        except ValueError:
            raise ValueError(f"bad edge line {ln!r}; expected '<i>-<j>:<m>'") from None
        edges.append((int(i), int(j), m))
    return CoxeterGraph.from_edges(n, edges)


def load_graph(spec: str) -> CoxeterGraph:
    """Accept a preset name or a path to a graph file."""
    if spec in _PRESETS:
        return preset(spec)
    try:
        with open(spec) as fh:
            return parse_graph(fh.read())
    except FileNotFoundError:
        raise KeyError(
            f"{spec!r} is neither a preset ({', '.join(preset_names())}) "
            "nor a readable graph file"
        ) from None


def graph_json(g: CoxeterGraph) -> dict:
    """The JSON form of a graph: its vertex count and one [i, j, label] list
    per edge, the label "3" or "inf"."""
    return {
        "n": g.n,
        "edges": [
            [i, j, "inf" if m == INF else str(m)] for (i, j), m in g.edge_labels
        ],
    }


def graph_from_json(data: dict) -> CoxeterGraph:
    """The inverse of `graph_json`."""
    edges = [(i, j, INF if m == "inf" else int(m)) for i, j, m in data["edges"]]
    return CoxeterGraph.from_edges(data["n"], edges)


def full_subgraph_obstruction(g: CoxeterGraph):
    """Search for a 4-vertex subset whose full (induced) subgraph is the path
    A4 or the 4-cycle tildeA3, all labels 3.  Returns (vertices, kind) or None.
    """
    for subset in combinations(g.vertices(), 4):
        induced = [
            (a, b) for a, b in combinations(subset, 2) if g.labels(a, b) != 2
        ]
        if any(g.labels(a, b) != 3 for a, b in induced):
            continue
        degree = {v: 0 for v in subset}
        for a, b in induced:
            degree[a] += 1
            degree[b] += 1
        counts = sorted(degree.values())
        if len(induced) == 3 and counts == [1, 1, 2, 2]:
            return (subset, "A4")
        if len(induced) == 4 and counts == [2, 2, 2, 2]:
            return (subset, "tildeA3")
    return None


def validate_word(g: CoxeterGraph, word) -> None:
    """Raise ValueError naming the offending position unless every letter is a
    non-zero index with |letter| <= n.  Booleans are refused, although `bool`
    subclasses `int`."""
    for pos, letter in enumerate(word):
        if (
            not isinstance(letter, int)
            or isinstance(letter, bool)
            or letter == 0
            or abs(letter) > g.n
        ):
            raise ValueError(
                f"letter {letter!r} at position {pos} is not a signed vertex "
                f"index in 1..{g.n}"
            )


def validate_vertex(g: CoxeterGraph, i) -> None:
    """Raise ValueError unless i is a vertex index in 1..n.  Booleans are
    refused, as in `validate_word`."""
    if not isinstance(i, int) or isinstance(i, bool) or not 1 <= i <= g.n:
        raise ValueError(f"vertex {i!r} out of range 1..{g.n}")


def inverse_word(word) -> BraidWord:
    return tuple(-l for l in reversed(word))


def commutator_word(w1, w2) -> BraidWord:
    return tuple(w1) + tuple(w2) + inverse_word(w1) + inverse_word(w2)


def conjugated_generator(w, i: int) -> BraidWord:
    """The word w . sigma_i . w^{-1}."""
    return tuple(w) + (i,) + inverse_word(w)


def word_from_string(text: str) -> BraidWord:
    """Parse '1 2 -1' or '1,2,-1' (empty string means the empty word)."""
    cleaned = text.replace(",", " ").split()
    return tuple(int(tok) for tok in cleaned)
