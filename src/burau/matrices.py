"""The generalized Burau representation and its sesquilinear pairing.

Two conventions are provided.  The standard form acts on the root basis
alpha_1..alpha_n with diagonal pairing 1+q^2; the dual form (finite
simply-laced graphs only) uses the asymmetric pairing with 1+q on the
diagonal, tuned so that the Coxeter element gamma = sigma_1...sigma_n and
every dual atom act with q-degrees 0 and 1 only.

Matrices are column-convention: column j holds the image of alpha_j, so the
matrix of a word w1 w2 is M(w1) . M(w2) and acting on vectors is plain left
multiplication.  Everything is exact over the chosen coefficient ring.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .graphs import INF, CoxeterGraph, validate_word
from .laurent import ZZ, CoefficientRing, LaurentPoly


@dataclass(frozen=True)
class PairingForm:
    """'standard' or 'dual'.  The dual form carries the vertex order fixing
    gamma; positions in `order` decide which of 1 or q an edge contributes."""

    variant: str
    order: tuple | None = None

    def __post_init__(self) -> None:
        if self.variant not in ("standard", "dual"):
            raise ValueError(f"unknown pairing form {self.variant!r}")

    def position(self, i: int) -> int:
        if self.order is None:
            return i
        return self.order.index(i)


STANDARD = PairingForm("standard")
DUAL = PairingForm("dual")


def form_from_name(name: str) -> PairingForm:
    return {"standard": STANDARD, "dual": DUAL}[name]


def _basis_pairing(
    g: CoxeterGraph, form: PairingForm, ring: CoefficientRing, i: int, j: int
) -> LaurentPoly:
    """The pairing of basis roots <alpha_i, alpha_j> in the given form."""
    m = g.labels(i, j) if i != j else None
    if form.variant == "standard":
        if i == j:
            return LaurentPoly.from_dict(ring, {0: 1, 2: 1})
        if m == 2:
            return LaurentPoly.zero(ring)
        if m == 3:
            return LaurentPoly.q(ring)
        return LaurentPoly.monomial(ring, 1, 2)  # m = infinity
    # dual form
    if m == INF:
        raise ValueError("dual pairing form requires all labels in {2, 3}")
    if i == j:
        return LaurentPoly.from_dict(ring, {0: 1, 1: 1})
    if m == 2:
        return LaurentPoly.zero(ring)
    if form.position(i) < form.position(j):
        return LaurentPoly.one(ring)
    return LaurentPoly.q(ring)


@dataclass(frozen=True)
class BurauVector:
    graph: CoxeterGraph
    ring: CoefficientRing
    coords: tuple  # n LaurentPoly entries, coordinate i-1 belongs to alpha_i

    def __post_init__(self) -> None:
        if len(self.coords) != self.graph.n:
            raise ValueError("coordinate count does not match the graph")

    def coord(self, i: int) -> LaurentPoly:
        return self.coords[i - 1]

    def add(self, other: "BurauVector") -> "BurauVector":
        _check_compat(self, other)
        return BurauVector(
            self.graph,
            self.ring,
            tuple(a + b for a, b in zip(self.coords, other.coords)),
        )

    def scale(self, f: LaurentPoly) -> "BurauVector":
        return BurauVector(self.graph, self.ring, tuple(f * c for c in self.coords))

    def reduce_mod(self, p: int) -> "BurauVector":
        from .laurent import IntegersMod

        return BurauVector(
            self.graph, IntegersMod(p), tuple(c.reduce_mod(p) for c in self.coords)
        )

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coords)

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.coords) + ")"


def _check_compat(x, y) -> None:
    if x.graph != y.graph:
        raise ValueError("graph mismatch")
    if x.ring != y.ring:
        raise ValueError(f"coefficient ring mismatch: {x.ring} vs {y.ring}")


def basis_vector(g: CoxeterGraph, i: int, ring: CoefficientRing = ZZ) -> BurauVector:
    """The root alpha_i as a vector."""
    if not 1 <= i <= g.n:
        raise ValueError(f"vertex {i} out of range 1..{g.n}")
    coords = [LaurentPoly.zero(ring)] * g.n
    coords[i - 1] = LaurentPoly.one(ring)
    return BurauVector(g, ring, tuple(coords))


@lru_cache(maxsize=32)
def gram_matrix(
    g: CoxeterGraph, form: PairingForm = STANDARD, ring: CoefficientRing = ZZ
) -> tuple:
    """The pairings <alpha_i, alpha_j> of all basis roots, as a tuple of rows."""
    return tuple(
        tuple(_basis_pairing(g, form, ring, i, j) for j in g.vertices())
        for i in g.vertices()
    )


def pairing(
    x: BurauVector, y: BurauVector, form: PairingForm = STANDARD
) -> LaurentPoly:
    """Sesquilinear pairing: q-power scalars come out of the first slot
    inverted, <q^a u, q^b v> = q^(b-a) <u, v>."""
    _check_compat(x, y)
    # <x, y> = sum_i bar(x_i) (G y)_i, with G the Gram matrix
    gram_y = [
        LaurentPoly.dot(row, y.coords) for row in gram_matrix(x.graph, form, x.ring)
    ]
    return LaurentPoly.dot([xi.bar() for xi in x.coords], gram_y)


@dataclass(frozen=True)
class BurauMatrix:
    graph: CoxeterGraph
    ring: CoefficientRing
    rows: tuple  # row-major tuple of tuples of LaurentPoly

    def entry(self, i: int, j: int) -> LaurentPoly:
        """Entry in row i, column j (1-based)."""
        return self.rows[i - 1][j - 1]

    def column(self, j: int) -> BurauVector:
        return BurauVector(
            self.graph, self.ring, tuple(row[j - 1] for row in self.rows)
        )

    def mat_mul(self, other: "BurauMatrix") -> "BurauMatrix":
        _check_compat(self, other)
        dot = LaurentPoly.dot
        columns = tuple(zip(*other.rows))
        return BurauMatrix(
            self.graph,
            self.ring,
            tuple(tuple(dot(row, col) for col in columns) for row in self.rows),
        )

    def mat_vec(self, v: BurauVector) -> BurauVector:
        _check_compat(self, v)
        dot = LaurentPoly.dot
        return BurauVector(
            self.graph, self.ring, tuple(dot(row, v.coords) for row in self.rows)
        )

    def reduce_mod(self, p: int) -> "BurauMatrix":
        from .laurent import IntegersMod

        return BurauMatrix(
            self.graph,
            IntegersMod(p),
            tuple(tuple(e.reduce_mod(p) for e in row) for row in self.rows),
        )

    def __str__(self) -> str:
        cells = [[str(e) for e in row] for row in self.rows]
        width = max(len(c) for row in cells for c in row)
        return "\n".join(
            "[ " + "  ".join(c.rjust(width) for c in row) + " ]" for row in cells
        )

    def to_json(self) -> dict:
        return {
            "n": self.graph.n,
            "ring": str(self.ring),
            "rows": [[e.to_json_terms() for e in row] for row in self.rows],
        }


def identity_matrix(g: CoxeterGraph, ring: CoefficientRing = ZZ) -> BurauMatrix:
    one = LaurentPoly.one(ring)
    zero = LaurentPoly.zero(ring)
    return BurauMatrix(
        g,
        ring,
        tuple(
            tuple(one if i == j else zero for j in range(g.n)) for i in range(g.n)
        ),
    )


def is_identity(m: BurauMatrix) -> bool:
    return m == identity_matrix(m.graph, m.ring)


@lru_cache(maxsize=None)
def generator_matrix(
    g: CoxeterGraph,
    i: int,
    sign: int,
    form: PairingForm = STANDARD,
    ring: CoefficientRing = ZZ,
) -> BurauMatrix:
    """Matrix of sigma_i (sign=+1) or its inverse (sign=-1).

    Standard form: sigma_i(alpha_j) = alpha_j - <alpha_i, alpha_j> alpha_i and
    sigma_i^{-1}(alpha_j) = alpha_j - q^{-2} <alpha_j, alpha_i> alpha_i.  The
    dual form replaces the pairing by its 1+q variant and q^{-2} by q^{-1};
    both ways round the generator and its inverse compose to the identity.
    """
    if not 1 <= i <= g.n:
        raise ValueError(f"vertex {i} out of range 1..{g.n}")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    ident = identity_matrix(g, ring)
    rows = [list(row) for row in ident.rows]
    for j in g.vertices():
        if form.variant == "standard":
            coeff = (
                _basis_pairing(g, form, ring, i, j)
                if sign == 1
                else _basis_pairing(g, form, ring, j, i).shift(-2)
            )
        else:
            b = _basis_pairing(g, form, ring, i, j)
            coeff = b if sign == 1 else b.shift(-1)
        rows[i - 1][j - 1] = rows[i - 1][j - 1] - coeff
    return BurauMatrix(g, ring, tuple(tuple(row) for row in rows))


def act(g: CoxeterGraph, word, target, form: PairingForm = STANDARD, ring=None):
    """Left action of a braid word: act([w1, w2], x) = M(w1) . M(w2) . x.

    `target` may be a BurauVector or a BurauMatrix; the result has the same
    kind.  The empty word is the identity.  On a vector each letter changes
    only coordinate i, to the dot product of the generator's row i with the
    vector.
    """
    validate_word(g, word)
    if ring is None:
        ring = target.ring
    if isinstance(target, BurauVector):
        if not word:
            return target
        coords = list(target.coords)
        for letter in reversed(word):
            i = abs(letter)
            m = generator_matrix(g, i, 1 if letter > 0 else -1, form, ring)
            _check_compat(m, target)
            coords[i - 1] = LaurentPoly.dot(m.rows[i - 1], coords)
        return BurauVector(g, ring, tuple(coords))
    if isinstance(target, BurauMatrix):
        acc = word_matrix(g, word, form, ring)
        return acc.mat_mul(target)
    raise TypeError(f"cannot act on {type(target).__name__}")


def word_matrix(
    g: CoxeterGraph, word, form: PairingForm = STANDARD, ring: CoefficientRing = ZZ
) -> BurauMatrix:
    """The matrix of a braid word (identity for the empty word).

    Right multiplication by sigma_i^(+-1), which differs from the identity
    only in row i, is a column update: column j gains column i times the
    generator's entry (i, j), and column i is scaled by the diagonal entry.
    """
    validate_word(g, word)
    dot = LaurentPoly.dot
    one = LaurentPoly.one(ring)
    rows = [list(row) for row in identity_matrix(g, ring).rows]
    for letter in word:
        i = abs(letter) - 1
        gen_row = generator_matrix(g, i + 1, 1 if letter > 0 else -1, form, ring).rows[i]
        updates = [(j, e) for j, e in enumerate(gen_row) if j != i and e.coeffs]
        diagonal = gen_row[i]
        for row in rows:
            a = row[i]
            if not a.coeffs:
                continue
            for j, e in updates:
                row[j] = dot((row[j], a), (one, e))
            row[i] = a * diagonal
    return BurauMatrix(g, ring, tuple(tuple(row) for row in rows))


def spread(m: BurauMatrix) -> int:
    """Top q-degree minus bottom q-degree over all non-zero entries."""
    top = None
    bottom = None
    for row in m.rows:
        for e in row:
            span = e.degree_span()
            if span is None:
                continue
            lo, hi = span
            bottom = lo if bottom is None else min(bottom, lo)
            top = hi if top is None else max(top, hi)
    if top is None:
        raise ValueError("spread is undefined for the zero matrix")
    return top - bottom
