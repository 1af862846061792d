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

A basis element is named by a token, a tuple such as ("e", 1), ("a", 1, 2)
or ("x", 1); `Elt` combines tokens.  Each algebra also numbers its tokens:
`ZigzagAlgebra.codes` is a `TokenCodes` table, built once on first use
straight from the graph, that gives every token a small int code with its
degree, source and target, the product of any two codes as one list index,
and the hom bases of all vertex pairs as (code, degree) pairs.  It is the
algebra's one basis table: `hom_basis` and `hom_terms` read it, and the
categorical layer works on its codes.  The codes follow the vertex order
alone, so two algebras of one graph number their tokens alike.

Coefficients are Python ints.  A `Fraction` appears only where `minimize`
cancels along a non-unit multiple of an idempotent, or where a caller
gives one, so every result stays exact over the rationals; `coefficient`
stores a whole Fraction as its int and refuses every other type.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .graphs import CoxeterGraph, validate_vertex

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


def token_mul(x, y):
    """Product x*y of two basis tokens (y first); returns a token or None."""
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


def coefficient(c):
    """c as a stored coefficient: an int, or a Fraction that is not a whole
    number.  Anything else, a bool included, raises TypeError, so equal
    coefficients share one type and one shared instance."""
    if type(c) is not int and type(c) is not Fraction:
        raise TypeError(f"coefficients must be int or Fraction, not {c!r}")
    return c.numerator if c.denominator == 1 else c


class Elt:
    """A linear combination of basis tokens with int coefficients (a
    `Fraction` only after a non-unit pivot in `minimize`).  Treated as
    immutable: arithmetic always builds fresh instances, and a complex's
    entries are one instance per (token, coefficient), `ZigzagAlgebra.term`."""

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
    (code, coefficient) terms, summand triples, index pairs and hom table
    bidegrees), so a kept complex costs little more than its index
    structure, and `codes`, its basis table.  The tables live exactly as
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
        c = coefficient(c)
        elt = self._terms.get((tok, c))
        if elt is None:
            elt = self._terms[(tok, c)] = Elt({tok: c})
        return elt

    def shared(self, t: tuple) -> tuple:
        """The one shared instance of a term, summand triple, index pair or
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

    def hom_terms(self, i: int, j: int) -> tuple:
        """The basis of e_j A e_i, i.e. of Hom(P_i, P_j), as (token,
        degree) pairs read from `codes`."""
        validate_vertex(self.graph, i)
        validate_vertex(self.graph, j)
        tokens = self.codes.tokens
        return tuple((tokens[k], d) for k, d in self.codes.bases[i][j])

    def hom_basis(self, i: int, j: int) -> tuple:
        """Basis tokens of e_j A e_i, i.e. of Hom(P_i, P_j)."""
        return tuple(t for t, _ in self.hom_terms(i, j))

    @cached_property
    def codes(self) -> "TokenCodes":
        """The algebra's basis table, built on first use."""
        return TokenCodes(self.graph)


class TokenCodes:
    """The basis tokens of one graph's algebra numbered 0..N-1, for loops
    that multiply tokens many times.  `tokens[k]` is the token of code k and
    `code` maps a token back; `degree`, `source` and `target` are
    `token_degree`, `token_source` and `token_target` per code; the product
    of codes a*b (b first) is `mul[a * N + b]`, -1 where it is zero; and
    `bases[i][j]` is the basis of Hom(P_i, P_j) as (code, degree) pairs.
    Over vertex pairs (i, j) in order, codes go to e_i and X_i when i = j
    and to (i|j) when i and j are adjacent, so they depend on the graph
    alone."""

    __slots__ = ("tokens", "code", "degree", "source", "target", "mul", "bases")

    def __init__(self, graph: CoxeterGraph):
        vertices = graph.vertices()
        tokens: list = []
        # vertex-indexed from 1, like the graph; row and column 0 are empty
        bases = [[()] * (graph.n + 1) for _ in range(graph.n + 1)]
        for i in vertices:
            for j in vertices:
                if i == j:
                    basis = (("e", i), ("x", i))
                elif graph.adjacent(i, j):
                    basis = (("a", i, j),)
                else:
                    continue
                bases[i][j] = tuple((len(tokens) + k, token_degree(t)) for k, t in enumerate(basis))
                tokens += basis
        n = len(tokens)
        code = {t: k for k, t in enumerate(tokens)}
        mul = [-1] * (n * n)
        for a, x in enumerate(tokens):
            for b, y in enumerate(tokens):
                z = token_mul(x, y)
                if z is not None:
                    mul[a * n + b] = code[z]
        self.tokens, self.code, self.mul = tuple(tokens), code, mul
        self.degree = tuple(token_degree(t) for t in tokens)
        self.source = tuple(token_source(t) for t in tokens)
        self.target = tuple(token_target(t) for t in tokens)
        self.bases = tuple(map(tuple, bases))


def zigzag(g: CoxeterGraph) -> ZigzagAlgebra:
    return ZigzagAlgebra(g)
