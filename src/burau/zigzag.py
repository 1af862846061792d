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
or ("x", 1); `Elt` combines tokens.  For the categorical layer's loops each
algebra also numbers its tokens: `ZigzagAlgebra.codes` is a `TokenCodes`
table, built once on first use from the algebra's own `hom_terms` and
`token_mul`, that gives every token a small int code with its degree,
source and target, the product of any two codes as one list index, and the
hom bases of all vertex pairs as (code, degree) pairs.  The codes follow the
vertex order alone, so two algebras of one graph number their tokens alike.

Coefficients are Python ints.  A `Fraction` appears only where `minimize`
cancels along a non-unit multiple of an idempotent, so every result stays
exact over the rationals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

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
    costs little more than its index structure, and the tables that depend
    on the graph alone: the hom bases of all vertex pairs and, built from
    them, `codes`.  The tables live exactly as long as the algebra; `zigzag`
    builds a fresh one per call."""

    graph: CoxeterGraph
    _terms: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _tuples: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _bases: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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

    def _fill_bases(self, i: int, j: int) -> tuple:
        """Fill the table of hom bases of every vertex pair, on first use,
        and return its entry for (i, j): the tokens of e_j A e_i and the
        same tokens as (token, degree) pairs."""
        bases = self._bases
        vertices = self.graph.vertices()
        for a in vertices:
            for b in vertices:
                if a == b:
                    tokens = (("e", a), ("x", a))
                elif self.graph.adjacent(a, b):
                    tokens = (("a", a, b),)
                else:
                    tokens = ()
                bases[(a, b)] = tokens, tuple((t, token_degree(t)) for t in tokens)
        validate_vertex(self.graph, i)
        validate_vertex(self.graph, j)
        return bases[(i, j)]

    def hom_basis(self, i: int, j: int) -> tuple:
        """Basis tokens of e_j A e_i, i.e. of Hom(P_i, P_j)."""
        return (self._bases.get((i, j)) or self._fill_bases(i, j))[0]

    def hom_terms(self, i: int, j: int) -> tuple:
        """The basis of `hom_basis(i, j)` as (token, degree) pairs."""
        return (self._bases.get((i, j)) or self._fill_bases(i, j))[1]

    @cached_property
    def codes(self) -> "TokenCodes":
        """The algebra's tokens as small ints, built on first use."""
        return TokenCodes(self)


class TokenCodes:
    """The basis tokens of one algebra numbered 0..N-1, for loops that
    multiply tokens many times.  `tokens[k]` is the token of code k and
    `code` maps a token back; `degree`, `source` and `target` are
    `token_degree`, `token_source` and `token_target` per code; the product
    of codes a*b (b first) is `mul[a * N + b]`, -1 where it is zero; and
    `bases[i][j]` is `hom_terms(i, j)` with each token replaced by its
    code.  Codes are handed out in the order of `hom_terms` over vertex
    pairs (i, j) in order, so they depend on the graph alone."""

    __slots__ = ("tokens", "code", "degree", "source", "target", "mul", "bases")

    def __init__(self, algebra: ZigzagAlgebra):
        vertices = algebra.graph.vertices()
        terms = {(i, j): algebra.hom_terms(i, j) for i in vertices for j in vertices}
        code: dict = {}
        for pair in terms.values():
            for tok, _ in pair:
                code.setdefault(tok, len(code))
        tokens = tuple(code)
        n = len(tokens)
        mul = [-1] * (n * n)
        for a, x in enumerate(tokens):
            for b, y in enumerate(tokens):
                z = token_mul(x, y)
                if z is not None:
                    mul[a * n + b] = code[z]
        self.tokens, self.code, self.mul = tokens, code, mul
        self.degree = tuple(token_degree(t) for t in tokens)
        self.source = tuple(token_source(t) for t in tokens)
        self.target = tuple(token_target(t) for t in tokens)
        # vertex-indexed from 1, like the graph; row and column 0 are empty
        self.bases = tuple(
            tuple(
                tuple((code[t], d) for t, d in terms[(i, j)]) if i and j else ()
                for j in range(len(vertices) + 1)
            )
            for i in range(len(vertices) + 1)
        )


def zigzag(g: CoxeterGraph) -> ZigzagAlgebra:
    return ZigzagAlgebra(g)
