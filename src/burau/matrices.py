"""The generalized Burau representation and its sesquilinear pairing.

Two conventions are provided.  The standard form acts on the root basis
alpha_1..alpha_n with diagonal pairing 1+q^2; the dual form (all labels 3,
finite type or not) uses the asymmetric pairing with 1+q on the diagonal,
tuned so that the Coxeter element gamma = sigma_1...sigma_n and every dual
atom act with q-degrees 0 and 1 only.  Only `gram_matrix` knows the forms.

Matrices are column-convention: column j holds the image of alpha_j, so the
matrix of a word w1 w2 is M(w1) . M(w2) and acting on vectors is plain left
multiplication.  Everything is exact over the chosen coefficient ring.

`word_matrix` applies a generator one way per ring.  Over Z, column j is
`act(g, word, alpha_j, form)`: dense `LaurentPoly` entries, one coordinate
changed per letter by a fused `LaurentPoly.dot`.  Over Z/p the matrix is a
`_PackedMatrix`: its rows of Python ints over one shared lowest exponent,
each int holding an entry's coefficients in fixed-width bit slots
(Kronecker substitution, `_SlotCodec`), with the matrix's spread and its
codec.  A generator is the rank-one update I + e_i (r_i - e_i)^T of the
identity, r_i its row i, so a letter is one step M -> M + (M u) v^T of
`_PackedMatrix.times`, the step the bucket walk in `search` takes for its
reflection lifts.  One slot bound, from the residue sums of the factors'
entries (`_rank_one_factors`), keeps every slot below overflow; each
changed entry is reduced mod p, every slot at once; and a step that leaves
a slot at or above 2^b, b the bit length of p - 1, raises.  Fixed slots
cannot hold the unbounded coefficients over Z, so Z stays dense, and it is
the reference the packed path is tested against.  The packed format stays
in this module: other modules step, fix-test and unpack a `_PackedMatrix`
only through its methods.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .graphs import CoxeterGraph, validate_vertex, validate_word
from .laurent import ZZ, CoefficientRing, IntegersMod, LaurentPoly


@dataclass(frozen=True)
class PairingForm:
    """'standard' or 'dual'.  The dual form is tuned to the Coxeter element
    gamma = sigma_1 ... sigma_n: an edge i - j with i < j contributes 1 to
    <alpha_i, alpha_j> and q to <alpha_j, alpha_i>."""

    variant: str

    def __post_init__(self) -> None:
        if self.variant not in ("standard", "dual"):
            raise ValueError(f"unknown pairing form {self.variant!r}")


STANDARD = PairingForm("standard")
DUAL = PairingForm("dual")


@dataclass(frozen=True)
class BurauVector:
    graph: CoxeterGraph
    ring: CoefficientRing
    coords: tuple  # n LaurentPoly entries, coordinate i-1 belongs to alpha_i

    def __post_init__(self) -> None:
        if len(self.coords) != self.graph.n:
            raise ValueError("coordinate count does not match the graph")

    def scale(self, f: LaurentPoly) -> "BurauVector":
        return BurauVector(self.graph, self.ring, tuple(f * c for c in self.coords))

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.coords) + ")"


def _check_compat(x, y) -> None:
    if x.graph != y.graph:
        raise ValueError("graph mismatch")
    if x.ring != y.ring:
        raise ValueError(f"coefficient ring mismatch: {x.ring} vs {y.ring}")


def basis_vector(g: CoxeterGraph, i: int, ring: CoefficientRing = ZZ) -> BurauVector:
    """The root alpha_i as a vector."""
    validate_vertex(g, i)
    coords = [LaurentPoly.zero(ring)] * g.n
    coords[i - 1] = LaurentPoly.one(ring)
    return BurauVector(g, ring, tuple(coords))


@lru_cache(maxsize=32)
def gram_matrix(
    g: CoxeterGraph, form: PairingForm = STANDARD, ring: CoefficientRing = ZZ
) -> tuple:
    """The pairings <alpha_i, alpha_j> of all basis roots, as a tuple of rows.

    Standard form: 1+q^2 on the diagonal, q for an edge labelled 3 and 2q for
    one labelled inf.  Dual form: 1+q on the diagonal, and an edge i - j with
    i < j gives 1 at (i, j) and q at (j, i).  Non-adjacent roots pair to 0."""
    standard = form.variant == "standard"
    if not standard and not g.is_simply_laced():
        raise ValueError("dual pairing form requires all labels in {2, 3}")
    rows = [[LaurentPoly.zero(ring)] * g.n for _ in g.vertices()]
    for i in range(g.n):
        rows[i][i] = LaurentPoly.from_dict(ring, {0: 1, 2 if standard else 1: 1})
    for (i, j), m in g.edge_labels:
        edge = LaurentPoly.monomial(ring, 1, 1 if m == 3 else 2)
        rows[i - 1][j - 1] = edge if standard else LaurentPoly.one(ring)
        rows[j - 1][i - 1] = edge
    return tuple(tuple(row) for row in rows)


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


@lru_cache(maxsize=None, typed=True)
def generator_matrix(
    g: CoxeterGraph,
    i: int,
    sign: int,
    form: PairingForm = STANDARD,
    ring: CoefficientRing = ZZ,
) -> BurauMatrix:
    """Matrix of sigma_i (sign=+1) or its inverse (sign=-1): the identity
    with row i replaced by e_i - q^s G_i, where G_i is row i of the form's
    Gram matrix and s = 0 for sigma_i.  For sigma_i^{-1}, s = -2 in the
    standard form and s = -1 in the dual form; both ways round the generator
    and its inverse compose to the identity.  In the standard form this says
    sigma_i(alpha_j) = alpha_j - <alpha_i, alpha_j> alpha_i.
    """
    validate_vertex(g, i)
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    s = 0 if sign == 1 else (-2 if form.variant == "standard" else -1)
    rows = list(identity_matrix(g, ring).rows)
    gram_row = gram_matrix(g, form, ring)[i - 1]
    rows[i - 1] = tuple(e - b.shift(s) for e, b in zip(rows[i - 1], gram_row))
    return BurauMatrix(g, ring, tuple(rows))


def act(
    g: CoxeterGraph, word, v: BurauVector, form: PairingForm = STANDARD
) -> BurauVector:
    """Left action of a braid word on a vector: act([w1, w2], v) =
    M(w1) . M(w2) . v, over the vector's ring.  The empty word is the
    identity.  Each letter changes only coordinate i, to the dot product of
    the generator's row i with the vector.
    """
    validate_word(g, word)
    if v.graph != g:
        raise ValueError("graph mismatch")
    if not word:
        return v
    ring = v.ring
    coords = list(v.coords)
    for letter in reversed(word):
        i = abs(letter)
        m = generator_matrix(g, i, 1 if letter > 0 else -1, form, ring)
        coords[i - 1] = LaurentPoly.dot(m.rows[i - 1], coords)
    return BurauVector(g, ring, tuple(coords))


class _SlotCodec:
    """Mod-p Laurent polynomials packed into Python ints (Kronecker
    substitution): the coefficient of q^(low + k) sits in bits
    [k * width, (k + 1) * width) for a shared exponent `low`.

    `reduce` takes a packed value whose slots are at most `bound` back to
    residues 0..p-1, every slot at once, by Barrett reduction in big-int
    arithmetic: with s the bit length of `bound` and m = 2^s // p, the
    estimate (c m) >> s is floor(c / p) or one less, so one masked
    conditional subtraction of p finishes.  `width` leaves room for c m, so
    no slot ever carries into the next, whatever p is.  The slotwise masks
    grow on demand to cover the longest value reduced or checked so far;
    `_excess` has the bits at or above (p - 1).bit_length() of every slot,
    which no reduced slot sets.  A packed matrix keeps `head` empty slots
    below its lowest non-zero slot, room for the downward shifts of
    `_PackedMatrix.times`."""

    __slots__ = (
        "p", "head", "width", "_shift", "_magic", "_bits", "_quotients", "_bias",
        "_tops", "_excess",
    )

    def __init__(self, p: int, bound: int, head: int):
        self.p = p
        self.head = head
        self._shift = bound.bit_length()
        self._magic = (1 << self._shift) // p
        self.width = max((bound * self._magic).bit_length(), p.bit_length() + 1)
        self._cover(1)

    def _cover(self, bits: int) -> None:
        """Size the slotwise masks for values of up to twice `bits` bits."""
        w = self.width
        slots = 2 * -(-bits // w)
        ones = ((1 << (w * slots)) - 1) // ((1 << w) - 1)  # 1 in every slot
        self._bits = w * slots
        self._quotients = ones * ((1 << (w - self._shift)) - 1)
        self._bias = ones * ((1 << (w - 1)) - self.p)
        self._tops = ones << (w - 1)
        self._excess = ones * ((1 << w) - (1 << (self.p - 1).bit_length()))

    def reduce(self, x: int) -> int:
        if x.bit_length() > self._bits:
            self._cover(x.bit_length())
        p = self.p
        x -= ((x * self._magic >> self._shift) & self._quotients) * p
        # every slot is now below 2p; take p off the ones at p or above
        return x - (((x + self._bias) & self._tops) >> (self.width - 1)) * p

    def check(self, x: int) -> None:
        """Raise AssertionError if a slot of `x` has a bit at or above
        (p - 1).bit_length(), which no reduced slot has: the slot bound or
        the reduction is wrong."""
        if x.bit_length() > self._bits:
            self._cover(x.bit_length())
        if x & self._excess:
            raise AssertionError(
                f"a packed slot reached {1 << (self.p - 1).bit_length()} or "
                f"more, above p - 1 = {self.p - 1}: the slot bound or the "
                "reduction is wrong"
            )

    def pack(self, poly: LaurentPoly, low: int) -> int:
        """The polynomial divided by q^low; it must have no term below it."""
        w = self.width
        start = poly.low - low
        return sum(c << (w * (start + k)) for k, c in enumerate(poly.coeffs))

    def unpack(self, x: int, low: int) -> LaurentPoly:
        if x < 0:  # reduced values never are; the loop below would not end
            raise AssertionError(f"negative packed value {x}")
        w = self.width
        mask = (1 << w) - 1
        terms = {}
        e = low
        while x:
            terms[e] = x & mask
            x >>= w
            e += 1
        return LaurentPoly.from_dict(IntegersMod(self.p), terms)

    def low_slot(self, x: int) -> int:
        return ((x & -x).bit_length() - 1) // self.width

    def top_slot(self, x: int) -> int:
        return (x.bit_length() - 1) // self.width


def _rank_one_factors(p: int, factors) -> tuple:
    """(identity, packed): the identity as a `_PackedMatrix`, and the factors
    I + u v^T, given as (u, v) pairs of non-zero vectors of Z/p LaurentPoly
    entries, one pair at least, packed for `_PackedMatrix.times`.  Each
    packed factor is (u, v, offset): u and v list their non-zero entries as
    (index, packed entry), each vector packed from its own lowest exponent,
    so u_a v_b = q^offset U_a V_b.

    One slot bound covers every step.  With S(f) the sum of an entry's
    residues, a slot of a reduced entry of M is at most p - 1, of (M u)_a at
    most (p - 1) sum_k S(u_k), and of an updated entry at most
    (p - 1) (1 + sum_k S(u_k) max_j S(v_j)).  A negative offset shifts
    down, by at most `head` = -(least offset) slots, so the identity starts
    `head` slots up."""

    def low(vec) -> int:
        return min(c.low for c in vec if c.coeffs)

    def pack(vec) -> tuple:
        base = low(vec)
        return tuple((a, codec.pack(c, base)) for a, c in enumerate(vec) if c.coeffs)

    def residue_sum(entry) -> int:
        return sum(entry.coeffs)

    weight = max(
        sum(map(residue_sum, u)) * max(map(residue_sum, v)) for u, v in factors
    )
    head = max([0] + [-low(u) - low(v) for u, v in factors])
    codec = _SlotCodec(p, (p - 1) * (1 + weight), head)
    n = len(factors[0][0])
    one = 1 << head * codec.width
    rows = [[one if a == b else 0 for b in range(n)] for a in range(n)]
    packed = [(pack(u), pack(v), low(u) + low(v)) for u, v in factors]
    return _PackedMatrix(codec, rows, -head, 0), packed


class _PackedMatrix(NamedTuple):
    """A Z/p matrix in packed form: rows of packed entries over one shared
    lowest exponent `low`, whose lowest non-zero slot is slot `head`, with
    the matrix's spread and the codec that packs it.  A value is never
    altered, so values may share rows."""

    codec: _SlotCodec
    rows: list
    low: int
    spread: int

    def times(self, factors) -> "_PackedMatrix":
        """M (I + u_1 v_1^T) (I + u_2 v_2^T) ..., with each (u, v, offset) a
        factor from `_rank_one_factors`, one at least.  Each factor is one
        step M -> M + (M u) v^T, after which the shared exponent is
        renormalised so that the lowest non-zero slot is slot `head`.  The
        rows are copied before the first step, so this value is unchanged.

        After each step the OR of all entries goes through `codec.check`,
        which raises AssertionError on a slot no reduction leaves."""
        codec = self.codec
        width = codec.width
        reduce = codec.reduce
        low = self.low
        rows = [row.copy() for row in self.rows]
        for u, v, offset in factors:
            shift = offset * width
            for row in rows:
                mu = 0
                for k, uk in u:
                    mu += row[k] * uk
                if mu:
                    # M has nothing below slot head, so a downward shift drops nothing
                    mu = mu << shift if shift >= 0 else mu >> -shift
                    for j, vj in v:
                        row[j] = reduce(row[j] + mu * vj)
            support = 0  # the OR of all entries: its lowest and top slots bound them all
            for row in rows:
                for x in row:
                    support |= x
            codec.check(support)
            bottom = codec.low_slot(support)
            move = bottom - codec.head
            if move > 0:
                rows = [[x >> move * width for x in row] for row in rows]
            elif move < 0:
                rows = [[x << -move * width for x in row] for row in rows]
            low += move
        return _PackedMatrix(codec, rows, low, codec.top_slot(support) - bottom)

    def fixing_exponent(self, i: int):
        """(l, sign) if column i is sign q^l alpha_i with sign +1 or -1, as
        `LaurentPoly.signed_q_power` decides, else None.  Only a column with
        one non-zero slot, in row i, is decoded."""
        codec = self.codec
        col = i - 1
        x = self.rows[col][col]
        if not x or codec.low_slot(x) != codec.top_slot(x):
            return None
        if any(row[col] for r, row in enumerate(self.rows) if r != col):
            return None
        return codec.unpack(x, self.low).signed_q_power()

    def unpack(self, g: CoxeterGraph) -> BurauMatrix:
        codec, low = self.codec, self.low
        return BurauMatrix(
            g,
            IntegersMod(codec.p),
            tuple(tuple(codec.unpack(x, low) for x in row) for row in self.rows),
        )


def word_matrix(
    g: CoxeterGraph, word, form: PairingForm = STANDARD, ring: CoefficientRing = ZZ
) -> BurauMatrix:
    """The matrix of a braid word (identity for the empty word).

    Over Z, column j is `act(g, word, alpha_j, form)`.  Over Z/p, right
    multiplication by sigma_i^(+-1) is the rank-one factor
    I + e_i (r_i - e_i)^T, with r_i the generator's row i, looked up once per
    distinct letter; the matrix is a `_PackedMatrix`, stepped once per
    letter and unpacked once, at the end.
    """
    validate_word(g, word)
    if not word:
        return identity_matrix(g, ring)
    if ring.p is None:
        columns = [
            act(g, word, basis_vector(g, j, ring), form).coords for j in g.vertices()
        ]
        return BurauMatrix(g, ring, tuple(zip(*columns)))
    one = LaurentPoly.one(ring)
    zero = LaurentPoly.zero(ring)
    factors = {}
    for letter in word:
        if letter not in factors:
            i = abs(letter)
            sign = 1 if letter > 0 else -1
            gen_row = generator_matrix(g, i, sign, form, ring).rows[i - 1]
            e_i = tuple(one if j == i else zero for j in g.vertices())
            factors[letter] = (e_i, tuple(e - f for e, f in zip(gen_row, e_i)))
    identity, packed = _rank_one_factors(ring.p, list(factors.values()))
    steps = dict(zip(factors, packed))
    return identity.times([steps[x] for x in word]).unpack(g)


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
