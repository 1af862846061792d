"""The zigzag algebra of a simply-laced graph, with integer coefficients.

Basis: an idempotent e_i per vertex (degree 0), an arrow (i|j) per ordered
adjacent pair, read as the length-one path from i to j (degree 1), and a loop
X_i per vertex (degree 2).  Every there-and-back path lands on the loop at its
basepoint, (j|i)(i|j) = X_i, all other length-two paths vanish, and loops kill
everything of positive degree.

Products follow map composition for right modules P_i = e_i A: in x*y the
factor y acts first, so y's target vertex must match x's source.  With that
reading, Hom(P_i, P_j) is e_j A e_i and composing module maps is literally
multiplying their algebra elements in the same order.

Coefficients are Python ints.  A `Fraction` appears only where `minimize`
cancels along a non-unit multiple of an idempotent, so every result stays
exact over the rationals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .graphs import CoxeterGraph

# tokens: ("e", i) / ("a", i, j) meaning the path i -> j / ("x", i)

_DEGREE = {"e": 0, "a": 1, "x": 2}


def token_degree(tok) -> int:
    return _DEGREE[tok[0]]


def token_str(tok) -> str:
    kind = tok[0]
    if kind == "e":
        return f"e{tok[1]}"
    if kind == "a":
        return f"({tok[1]}|{tok[2]})"
    return f"X{tok[1]}"


def token_source(tok) -> int:
    return tok[1]


def token_target(tok) -> int:
    return tok[2] if tok[0] == "a" else tok[1]


@lru_cache(maxsize=1 << 12)
def token_mul(x, y):
    """Product x*y of two basis tokens (y first); returns a token or None.
    Each pair is worked out once and then looked up in a bounded table."""
    if token_target(y) != token_source(x):
        return None
    dx, dy = _DEGREE[x[0]], _DEGREE[y[0]]
    if dx + dy > 2:
        return None
    if dx == 0:
        return y
    if dy == 0:
        return x
    # two arrows: i -> j then j -> k survives only as the round trip at i
    if y[1] == x[2]:
        return ("x", y[1])
    return None


class Elt:
    """A linear combination of basis tokens with int coefficients (a
    `Fraction` only after a non-unit pivot in `minimize`).  Treated as
    immutable: arithmetic always builds fresh instances, and complexes share
    one instance per (token, coefficient) through `ZigzagAlgebra.term`."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict | None = None):
        self.coeffs = {
            t: c for t, c in (coeffs or {}).items() if c != 0
        }

    @staticmethod
    def from_token(tok, c=1) -> "Elt":
        return Elt({tok: c})

    @staticmethod
    def zero() -> "Elt":
        return Elt()

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "Elt") -> "Elt":
        acc = dict(self.coeffs)
        for t, c in other.coeffs.items():
            acc[t] = acc.get(t, 0) + c
        return Elt(acc)

    def __mul__(self, other: "Elt") -> "Elt":
        acc: dict = {}
        for tx, cx in self.coeffs.items():
            for ty, cy in other.coeffs.items():
                tok = token_mul(tx, ty)
                if tok is not None:
                    acc[tok] = acc.get(tok, 0) + cx * cy
        return Elt(acc)

    def __eq__(self, other) -> bool:
        return isinstance(other, Elt) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for tok in sorted(self.coeffs, key=token_str):
            c = self.coeffs[tok]
            body = token_str(tok)
            if c == 1:
                piece = body
            elif c == -1:
                piece = f"-{body}"
            else:
                piece = f"{c}*{body}"
            parts.append(piece)
        out = parts[0]
        for piece in parts[1:]:
            out += f" - {piece[1:]}" if piece.startswith("-") else f" + {piece}"
        return out

    __repr__ = __str__


@dataclass(frozen=True)
class ZigzagAlgebra:
    """The algebra of one graph.  It also holds one shared instance per value
    of the immutable parts of complexes built over it (one-token entries,
    summand triples, index pairs and hom table bidegrees), so a kept complex
    costs little more than its index structure.  The tables live exactly as
    long as the algebra; `zigzag` builds a fresh one per call."""

    graph: CoxeterGraph
    _terms: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _tuples: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.graph.n < 2:
            raise ValueError("zigzag algebra needs at least two vertices")
        if not self.graph.is_simply_laced():
            raise ValueError("zigzag algebra requires all labels in {2, 3}")

    def term(self, tok, c=1) -> Elt:
        """The element c*tok, as the one shared instance for (tok, c)."""
        elt = self._terms.get((tok, c))
        if elt is None:
            elt = self._terms[(tok, c)] = Elt({tok: c})
        return elt

    def shared(self, t: tuple) -> tuple:
        """The one shared instance of a summand triple, index pair or
        bidegree."""
        return self._tuples.setdefault(t, t)

    def e(self, i: int) -> Elt:
        return self.term(("e", i))

    def arrow(self, i: int, j: int) -> Elt:
        if not self.graph.adjacent(i, j):
            raise ValueError(f"no arrow ({i}|{j}): vertices are not adjacent")
        return self.term(("a", i, j))

    def loop(self, i: int) -> Elt:
        return self.term(("x", i))

    def hom_basis(self, i: int, j: int) -> list:
        """Basis tokens of e_j A e_i, i.e. of Hom(P_i, P_j)."""
        if i == j:
            return [("e", i), ("x", i)]
        if self.graph.adjacent(i, j):
            return [("a", i, j)]
        return []


def zigzag(g: CoxeterGraph) -> ZigzagAlgebra:
    return ZigzagAlgebra(g)
