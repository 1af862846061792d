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
changed per letter by `laurent.row_step`, a sum of shifted, scaled
coordinates from the terms of the generator's row (`generator_row`); the
curve enumeration in `search` takes the same step.  Over Z/p the matrix is a
`_PackedMatrix`: one Python int per column, over one shared lowest
exponent, in which each entry's coefficients sit in fixed-width bit slots
(Kronecker substitution, `_SlotCodec`) inside the lane of its row, with the
matrix's spread, its lane width and its codec.  A generator is the
rank-one update I + e_i (r_i - e_i)^T of the identity, r_i its row i, so a
letter is one step M -> M + (M u) v^T of `_PackedMatrix.times`, the step
the bucket walk in `search` takes for its reflection lifts: M u is one
big-int product per non-zero u_k, and each column j with v_j non-zero
changes by one product and one reduction.  One slot bound, from the
residue sums of the factors' entries, keeps every slot below overflow;
lanes are widened before a step whose entries would not fit; each changed
column is reduced mod p, every slot at once, and checked once, as it is
written; a step that leaves a slot at p or above raises.  Fixed slots
cannot hold the unbounded coefficients over Z, so Z stays dense, and it is
the reference the packed path is tested against.  The packed format stays
in this module: other modules build packed values only by
`rank_one_factors`, and widen, step, fix-test and unpack them only through
the methods of `_PackedMatrix`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .graphs import CoxeterGraph, validate_vertex, validate_word
from .laurent import ZZ, CoefficientRing, IntegersMod, LaurentPoly, row_step


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


def gram_image(y: BurauVector, form: PairingForm = STANDARD) -> tuple:
    """G y, the form's Gram matrix times y's coordinates: the pairing of any
    x with y is the dot product of bar(x) with it, so a caller that pairs
    one y with many x computes it once."""
    return tuple(
        LaurentPoly.dot(row, y.coords) for row in gram_matrix(y.graph, form, y.ring)
    )


def pairing(
    x: BurauVector, y: BurauVector, form: PairingForm = STANDARD
) -> LaurentPoly:
    """Sesquilinear pairing: q-power scalars come out of the first slot
    inverted, <q^a u, q^b v> = q^(b-a) <u, v>.  It is
    sum_i bar(x_i) (G y)_i, with G y the `gram_image` of y."""
    _check_compat(x, y)
    return LaurentPoly.dot([xi.bar() for xi in x.coords], gram_image(y, form))


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
    """The identity, whose row i is the root alpha_i."""
    rows = tuple(basis_vector(g, i, ring).coords for i in g.vertices())
    return BurauMatrix(g, ring, rows)


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


@lru_cache(maxsize=None, typed=True)
def generator_row(
    g: CoxeterGraph,
    letter: int,
    form: PairingForm = STANDARD,
    ring: CoefficientRing = ZZ,
) -> tuple:
    """Row i of the matrix of sigma_i (letter i) or its inverse (letter -i),
    the one coordinate either changes, as its non-zero terms (j, e, c) with
    j a 0-based column: the new coordinate i of x is the sum of c q^e x_j.
    In both forms every entry is 0 or a monomial (-q^k, or -2q^k for an
    infinite label), but `row_step` takes any row.  Rows are cached per
    (graph, letter, form, ring), as `generator_matrix` is."""
    i = abs(letter)
    row = generator_matrix(g, i, 1 if letter > 0 else -1, form, ring).rows[i - 1]
    return tuple((j, e, c) for j, entry in enumerate(row) for e, c in entry.terms)


def act(
    g: CoxeterGraph, word, v: BurauVector, form: PairingForm = STANDARD
) -> BurauVector:
    """Left action of a braid word on a vector: act([w1, w2], v) =
    M(w1) . M(w2) . v, over the vector's ring.  The empty word is the
    identity.  Each letter changes only coordinate i, by one `row_step`
    with the generator's row i, read once per distinct letter.
    """
    validate_word(g, word)
    if v.graph != g:
        raise ValueError("graph mismatch")
    if not word:
        return v
    ring = v.ring
    rows = {letter: generator_row(g, letter, form, ring) for letter in set(word)}
    coords = list(v.coords)
    for letter in reversed(word):
        coords[abs(letter) - 1] = row_step(rows[letter], coords)
    return BurauVector(g, ring, tuple(coords))


class _SlotCodec:
    """Mod-p Laurent polynomials packed into Python ints (Kronecker
    substitution): the coefficient of q^(low + k) sits in bits
    [k * width, (k + 1) * width) for a shared exponent `low`.  A packed
    matrix lays its entries out in lanes of such slots (`_PackedMatrix`);
    the slot arithmetic below never looks at lanes.

    `reduce` takes a packed value whose slots are at most `bound` back to
    residues 0..p-1, every slot at once, by Barrett reduction in big-int
    arithmetic: with s the bit length of `bound` and m = 2^s // p, the
    estimate (c m) >> s is floor(c / p) or one less, so one masked
    conditional subtraction of p finishes.  `width` leaves room for c m, so
    no slot ever carries into the next, whatever p is.  The slotwise masks
    grow on demand to cover exactly the slots of the longest value reduced
    or checked so far.  `check` tests that every slot of a value is below p,
    exactly, by two tests that together see every way a slot can be wrong.
    A packed matrix keeps `head` empty slots below the lowest non-zero slot
    of every lane, room for the downward shifts of `_PackedMatrix.times`."""

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
        """Size the slotwise masks for the slots of values of `bits` bits."""
        w = self.width
        slots = -(-bits // w)
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
        """Raise AssertionError if a slot of `x` is p or more.  Adding
        2^(width - 1) - p to every slot sets a slot's top bit if the slot is
        at p or above, unless it is so large that the sum carries out of it;
        such a slot has a bit at or above (p - 1).bit_length() (`_excess`),
        which no slot below p has."""
        if x.bit_length() > self._bits:
            self._cover(x.bit_length())
        if (x + self._bias) & self._tops:
            self._refuse(self.p)
        if x & self._excess:
            self._refuse(1 << (self.p - 1).bit_length())

    def _refuse(self, least: int):
        raise AssertionError(
            f"a packed slot reached {least} or more, above p - 1 = "
            f"{self.p - 1}: the slot bound or the reduction is wrong"
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


def rank_one_factors(p: int, factors) -> tuple:
    """(identity, packed): the identity as a `_PackedMatrix`, and the factors
    I + u v^T, given as (u, v) pairs of non-zero vectors of Z/p LaurentPoly
    entries, one pair at least, packed for `_PackedMatrix.times`.  Each
    packed factor is (u, v, offset, growth): u and v list their non-zero
    entries as (index, packed entry), each vector packed from its own lowest
    exponent, so u_a v_b = q^offset U_a V_b; `growth` is the most the step
    can add to a matrix's spread, span(u) + span(v) + offset when that is
    positive, plus -offset when offset is negative (the shift that puts the
    lowest slot back at `head`).

    One slot bound covers every step.  With S(f) the sum of an entry's
    residues, a slot of a reduced entry of M is at most p - 1, of (M u)_a at
    most (p - 1) sum_k S(u_k), and of an updated entry at most
    (p - 1) (1 + sum_k S(u_k) max_j S(v_j)).  A negative offset shifts
    down, by at most `head` = -(least offset) slots, so the identity starts
    `head` slots up in each lane.  Its lanes are the least power of two
    slots wide that takes any one factor."""

    def low(vec) -> int:
        return min(c.low for c in vec if c.coeffs)

    def span(vec) -> int:
        return max(c.low + len(c.coeffs) for c in vec if c.coeffs) - 1 - low(vec)

    def pack(vec) -> tuple:
        base = low(vec)
        return tuple((a, codec.pack(c, base)) for a, c in enumerate(vec) if c.coeffs)

    weight = max(
        sum(sum(c.coeffs) for c in u) * max(sum(c.coeffs) for c in v)
        for u, v in factors
    )
    head = max([0] + [-low(u) - low(v) for u, v in factors])
    codec = _SlotCodec(p, (p - 1) * (1 + weight), head)
    packed = []
    for u, v in factors:
        offset = low(u) + low(v)
        growth = max(span(u) + span(v) + offset, 0) + max(-offset, 0)
        packed.append((pack(u), pack(v), offset, growth))
    need = head + max(growth for *_, growth in packed)
    lane = 1
    while lane <= need:
        lane *= 2
    n = len(factors[0][0])
    columns = tuple(1 << (b * lane + head) * codec.width for b in range(n))
    return _PackedMatrix(codec, columns, -head, 0, lane), packed


def _relayout(columns: list, lane: int, width: int, need: int) -> int:
    """Lay `columns` out again, in place, with lanes of `lane` slots doubled
    until they are wider than `need` slots, and return the new lane."""
    wider = lane
    while wider <= need:
        wider *= 2
    old, new = lane * width, wider * width
    mask = (1 << old) - 1
    n = len(columns)
    columns[:] = [
        sum(((x >> a * old) & mask) << a * new for a in range(n)) for x in columns
    ]
    return wider


class _PackedMatrix(NamedTuple):
    """A Z/p matrix in packed form: one Python int per column, in which
    entry (a, b) of column b sits in lane a, bits [a L w, (a + 1) L w) for
    lanes of L = `lane` slots of the codec's width w.  Every entry is
    packed over one shared lowest exponent `low`, and the lowest non-zero
    slot of the matrix, over all lanes, is slot `head` of its lane; `spread`
    is the matrix's spread, so every lane's content lies in slots
    head..head + spread.  Values are immutable."""

    codec: _SlotCodec
    columns: tuple
    low: int
    spread: int
    lane: int

    def times(self, factors) -> "_PackedMatrix":
        """M (I + u_1 v_1^T) (I + u_2 v_2^T) ..., with each (u, v, offset,
        growth) a factor from `rank_one_factors`, one at least.  Each factor
        is one step M -> M + (M u) v^T: M u = sum_k u_k column_k takes one
        big-int product per non-zero u_k, and each column j with v_j non-zero
        becomes reduce(column_j + (M u) v_j).  After the step the shared
        exponent is renormalised so that the lowest non-zero slot over all
        lanes is slot `head`; the OR of the columns, folded across lanes,
        gives that slot and the spread.  Before the step, if head + spread +
        growth does not fit in a lane, the lanes are laid out again at double
        the width, as often as needed, so no slot crosses into the next lane.

        Each changed column goes through `codec.check` once, as it is
        written, which raises AssertionError on a slot no reduction leaves;
        every other column is the identity's or was checked when it was
        written."""
        codec = self.codec
        width = codec.width
        head = codec.head
        reduce, check = codec.reduce, codec.check
        columns = list(self.columns)
        low, spread, lane = self.low, self.spread, self.lane
        fold = 1 << (len(columns) - 1).bit_length() >> 1  # lanes to fold first
        for u, v, offset, growth in factors:
            if head + spread + growth >= lane:
                lane = _relayout(columns, lane, width, head + spread + growth)
            mu = 0
            for k, uk in u:
                mu += columns[k] * uk
            if offset > 0:
                mu <<= offset * width
            elif offset < 0:
                # no lane has anything below slot head, so this downward
                # shift moves nothing across a lane boundary
                mu >>= -offset * width
            for j, vj in v:
                x = reduce(columns[j] + mu * vj)
                check(x)
                columns[j] = x
            support = 0
            for x in columns:
                support |= x
            bits = lane * width
            half = fold
            while half:  # OR every lane into lane 0
                support |= support >> half * bits
                half >>= 1
            support &= (1 << bits) - 1
            # codec.low_slot and codec.top_slot, inline
            bottom = ((support & -support).bit_length() - 1) // width
            move = bottom - head
            if move > 0:
                columns = [x >> move * width for x in columns]
            elif move < 0:
                columns = [x << -move * width for x in columns]
            low += move
            spread = (support.bit_length() - 1) // width - bottom
        return _PackedMatrix(codec, tuple(columns), low, spread, lane)

    def widened(self, spread: int, factors) -> "_PackedMatrix":
        """This matrix with lanes wide enough that no step by one of
        `factors` from a matrix of spread at most `spread` lays them out
        again, for a caller that keeps its matrices below a spread."""
        need = self.codec.head + spread + max(growth for *_, growth in factors)
        if need < self.lane:
            return self
        columns = list(self.columns)
        lane = _relayout(columns, self.lane, self.codec.width, need)
        return self._replace(columns=tuple(columns), lane=lane)

    def fixing_exponent(self, i: int):
        """(l, sign) if column i is sign q^l alpha_i with sign +1 or -1, as
        `LaurentPoly.signed_q_power` decides, else None.  Only a column that
        equals its lane-i entry, shifted into place, with one non-zero slot,
        is decoded."""
        codec = self.codec
        bits = self.lane * codec.width
        place = (i - 1) * bits
        column = self.columns[i - 1]
        x = (column >> place) & ((1 << bits) - 1)
        if not x or column != x << place or codec.low_slot(x) != codec.top_slot(x):
            return None
        return codec.unpack(x, self.low).signed_q_power()

    def unpack(self, g: CoxeterGraph) -> BurauMatrix:
        codec, low = self.codec, self.low
        bits = self.lane * codec.width
        mask = (1 << bits) - 1
        n = len(self.columns)
        columns = [
            [codec.unpack((x >> a * bits) & mask, low) for a in range(n)]
            for x in self.columns
        ]
        return BurauMatrix(g, IntegersMod(codec.p), tuple(zip(*columns)))


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
    factors = {}
    for letter in dict.fromkeys(word):
        i = abs(letter)
        sign = 1 if letter > 0 else -1
        gen_row = generator_matrix(g, i, sign, form, ring).rows[i - 1]
        e_i = basis_vector(g, i, ring).coords
        factors[letter] = (e_i, tuple(e - f for e, f in zip(gen_row, e_i)))
    identity, packed = rank_one_factors(ring.p, list(factors.values()))
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
