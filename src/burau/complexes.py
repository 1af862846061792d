"""Bounded complexes of graded projectives over a zigzag algebra, with
spherical twists, Gaussian minimization, and bigraded Hom spaces.

A complex stores summands P_i{g}[h] as (vertex, g, h) triples plus a sparse
differential.  Differential entries raise h by one and are homogeneous of
internal degree g_source - g_target, which is the unique convention
compatible with the decategorification rule k0 = sum (-1)^h q^g alpha_i, the
twist anchors k0(twist_i+ P_i) = -q^2 alpha_i and
k0(twist_i+ P_j) = alpha_j - q alpha_i, and with the Euler-characteristic
identity euler_pairing(X, Y) = pairing(k0 X, k0 Y).

The positive twist along P_i glues shifted copies of P_i one homological step
below each summand (the evaluation cone); the negative twist glues them one
step above.  Both minimize the result before returning it.

Every homogeneous element of Hom(P_i, P_j) = e_j A e_i is a scalar times
the unique basis token of its degree, so every differential entry is one
(token, coefficient) term.  Twists and `minimize` work on those terms and
hand out the algebra's shared instances of entries, summand triples and
index pairs (`ZigzagAlgebra.term` and `ZigzagAlgebra.shared`).
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm

from .graphs import CoxeterGraph, validate_vertex, validate_word
from .laurent import ZZ, LaurentPoly
from .matrices import BurauVector
from .zigzag import Elt, ZigzagAlgebra, token_degree, token_mul

class ProjComplex:
    """Summands P_v{g}[h] as (vertex, g, h) triples and a differential
    (src_idx, dst_idx) -> Elt.  Treated as immutable.  The differential is
    kept as two parallel tuples, of index pairs and of entries, in about half
    the memory of a dict (runs keep many complexes): `diff` returns it as a
    fresh dict and `entries()` iterates it."""

    __slots__ = ("algebra", "summands", "_pairs", "_entries")

    def __init__(self, algebra: ZigzagAlgebra, summands: tuple, diff: dict | None = None):
        diff = diff or {}
        for (s, t), e in diff.items():
            vs, gs, hs = summands[s]
            vt, gt, ht = summands[t]
            if ht != hs + 1:
                raise ValueError(f"entry {s}->{t} does not raise h by one")
            if e.is_zero():
                raise ValueError(f"stored zero entry {s}->{t}")
            for tok in e.coeffs:
                src = tok[1]
                dst = tok[2] if tok[0] == "a" else tok[1]
                if src != vs or dst != vt:
                    raise ValueError(
                        f"entry {s}->{t} has token {tok} outside "
                        f"e_{vt} A e_{vs}"
                    )
                if token_degree(tok) != gs - gt:
                    raise ValueError(
                        f"entry {s}->{t} has token {tok} of degree "
                        f"{token_degree(tok)}, expected {gs - gt}"
                    )
        self.algebra = algebra
        self.summands = summands
        self._pairs = tuple(diff)
        self._entries = tuple(diff.values())

    @property
    def diff(self) -> dict:
        return dict(zip(self._pairs, self._entries))

    def entries(self):
        """The differential as ((src_idx, dst_idx), Elt) items."""
        return zip(self._pairs, self._entries)

    def check_d2(self) -> None:
        """Raise unless the differential squares to zero."""
        by_src: dict[int, list] = {}
        for (s, t), e in self.entries():
            by_src.setdefault(s, []).append((t, e))
        for (s, t), e in self.entries():
            acc: dict[int, Elt] = {}
            for u, e2 in by_src.get(t, []):
                prod = e2 * e
                if not prod.is_zero():
                    acc[u] = acc.get(u, Elt.zero()) + prod
            for u, total in acc.items():
                if not total.is_zero():
                    raise ValueError(f"d^2 != 0 along {s} -> {t} -> {u}")

    def shifted(self, dg: int, dh: int) -> "ProjComplex":
        """The shift X{dg}[dh]."""
        moved = tuple((v, g + dg, h + dh) for v, g, h in self.summands)
        return ProjComplex(self.algebra, moved, self.diff)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ProjComplex)
            and self.algebra == other.algebra
            and self.summands == other.summands
            and self.diff == other.diff
        )

    def __str__(self) -> str:
        lines = [
            f"{idx}: P{v}{{{g}}}[{h}]"
            for idx, (v, g, h) in enumerate(self.summands)
        ]
        diff = self.diff
        for (s, t) in sorted(diff):
            lines.append(f"{s} -> {t} : {diff[(s, t)]}")
        return "\n".join(lines) if lines else "(zero complex)"

    __repr__ = __str__


def projective(algebra: ZigzagAlgebra, i: int) -> ProjComplex:
    """P_i placed in bidegree {0}[0] with zero differential."""
    validate_vertex(algebra.graph, i)
    return ProjComplex(algebra, (algebra.shared((i, 0, 0)),), {})


def k0_class(x: ProjComplex) -> BurauVector:
    """Decategorification: each summand P_i{g}[h] contributes (-1)^h q^g to
    the alpha_i coordinate.  Always a vector over Z[q, q^-1]."""
    acc: list[dict[int, int]] = [{} for _ in range(x.algebra.graph.n)]
    for v, g, h in x.summands:
        d = acc[v - 1]
        d[g] = d.get(g, 0) + (-1 if h % 2 else 1)
    coords = tuple(LaurentPoly.from_dict(ZZ, d) for d in acc)
    return BurauVector(x.algebra.graph, ZZ, coords)


def _term(e: Elt) -> tuple:
    """(token, coefficient) of a differential entry, which has one token."""
    ((tok, c),) = e.coeffs.items()
    return tok, c


def minimize(x: ProjComplex) -> ProjComplex:
    """Gaussian elimination: repeatedly cancel the first summand pair, in
    index order, joined by an invertible multiple c*e_i of an idempotent,
    updating the rest of the differential.  Preserves the homotopy type, k0,
    and all Hom tables.  1/c is c itself when c = +-1 and Fraction(1, c)
    otherwise, so the result is exact over Q."""
    algebra = x.algebra
    out: dict[int, dict[int, tuple]] = {}  # s -> t -> (token, coefficient)
    inc: dict[int, dict[int, tuple]] = {}
    units = []  # (s, t) of every entry that was a multiple of e_i when set
    for (s, t), e in x.entries():
        term = _term(e)
        out.setdefault(s, {})[t] = term
        inc.setdefault(t, {})[s] = term
        if term[0][0] == "e":
            units.append((s, t))
    heapify(units)
    alive = set(range(len(x.summands)))

    while units:
        s, t = heappop(units)
        hit = out.get(s, {}).get(t)
        if hit is None or hit[0][0] != "e":
            continue  # cancelled or changed since it was pushed
        c = hit[1]
        cinv = c if c in (1, -1) else Fraction(1, c)
        ins = [(u, a) for u, a in inc[t].items() if u != s]
        outs = [(w, b) for w, b in out[s].items() if w != t]
        for u, (tok_a, ca) in ins:
            row = out[u]
            for w, (tok_b, cb) in outs:
                tok = token_mul(tok_b, tok_a)
                if tok is None:
                    continue
                v = -cb * ca * cinv
                cur = row.get(w)
                if cur is not None:
                    v += cur[1]
                if type(v) is Fraction and v.denominator == 1:
                    v = v.numerator
                if v == 0:
                    del row[w]
                    del inc[w][u]
                    continue
                row[w] = inc.setdefault(w, {})[u] = (tok, v)
                if cur is None and tok[0] == "e":
                    heappush(units, (u, w))
        for dead in (s, t):
            alive.discard(dead)
            for w in out.pop(dead, {}):
                del inc[w][dead]
            for u in inc.pop(dead, {}):
                del out[u][dead]

    keep = sorted(alive)
    renum = {old: new for new, old in enumerate(keep)}
    summands = tuple(x.summands[old] for old in keep)
    diff = {}
    for s, targets in out.items():
        for t, (tok, c) in targets.items():
            diff[algebra.shared((renum[s], renum[t]))] = algebra.term(tok, c)
    return ProjComplex(algebra, summands, diff)


def apply_twist(x: ProjComplex, i: int, sign: int) -> ProjComplex:
    """The spherical twist along P_i (sign=+1) or its inverse (sign=-1),
    returned in minimized form."""
    algebra = x.algebra
    validate_vertex(algebra.graph, i)
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")

    summands = list(x.summands)
    diff = dict(x.entries())
    new_index: dict[tuple, int] = {}
    ei = ("e", i)

    if sign == 1:
        # glue P_i{g + deg y}[h - 1] -> P_j{g}[h] for y in Hom(P_i, P_j)
        for t, (j, g, h) in enumerate(x.summands):
            for y in algebra.hom_basis(i, j):
                new_index[(t, y)] = idx = len(summands)
                summands.append(algebra.shared((i, g + token_degree(y), h - 1)))
                diff[(idx, t)] = algebra.term(y)
        for (t1, t2), e in x.entries():
            tok, c = _term(e)
            for y1 in algebra.hom_basis(i, x.summands[t1][0]):
                y2 = token_mul(tok, y1)
                if y2 is not None:
                    key = (new_index[(t1, y1)], new_index[(t2, y2)])
                    diff[key] = algebra.term(ei, -c)
    else:
        # glue P_j{g}[h] -> P_i{g - deg y}[h + 1] for y in Hom(P_j, P_i)
        for t, (j, g, h) in enumerate(x.summands):
            for y in algebra.hom_basis(j, i):
                new_index[(t, y)] = idx = len(summands)
                summands.append(algebra.shared((i, g - token_degree(y), h + 1)))
                diff[(t, idx)] = algebra.term(y)
        for (t1, t2), e in x.entries():
            tok, c = _term(e)
            for y2 in algebra.hom_basis(x.summands[t2][0], i):
                y1 = token_mul(y2, tok)
                if y1 is not None:
                    key = (new_index[(t1, y1)], new_index[(t2, y2)])
                    diff[key] = algebra.term(ei, -c)

    cone = ProjComplex(algebra, tuple(summands), diff)
    return minimize(cone)


def act_complex(g: CoxeterGraph, word, x: ProjComplex) -> ProjComplex:
    """Apply a braid word by composed twists, rightmost letter first, in the
    same word order as the Burau action."""
    if g != x.algebra.graph:
        raise ValueError("graph mismatch")
    validate_word(g, word)
    for letter in reversed(word):
        x = apply_twist(x, abs(letter), 1 if letter > 0 else -1)
    return x


def _rank(rows) -> int:
    """Exact rank over Q of sparse rows {column: int or Fraction}, by
    fraction-free elimination.  A row holding a Fraction is first scaled to
    integers.  Each row is reduced by its leading column against the pivot
    row of that column: a +-1 pivot takes over the column from a non-unit
    one, against a unit pivot pv the row becomes row - f*pv*prow, and
    otherwise pv*row - f*prow divided by the gcd of its entries."""
    pivots: dict[int, dict] = {}  # leading column -> pivot row
    for row in rows:
        row = {k: v for k, v in row.items() if v}
        if any(type(v) is not int for v in row.values()):
            den = lcm(*(v.denominator for v in row.values()))
            row = {k: int(v * den) for k, v in row.items()}
        while row:
            col = min(row)
            prow = pivots.get(col)
            if prow is None:
                pivots[col] = row
                break
            f, pv = row[col], prow[col]
            if f in (1, -1) and pv not in (1, -1):
                pivots[col] = row
                row, prow, f, pv = prow, row, pv, f
            scaled = pv not in (1, -1)
            if scaled:
                row = {k: pv * v for k, v in row.items()}
                m = f
            else:
                m = f * pv
            for k, v in prow.items():
                nv = row.get(k, 0) - m * v
                if nv:
                    row[k] = nv
                else:
                    del row[k]
            if scaled and row:
                div = gcd(*row.values())
                if div > 1:
                    row = {k: v // div for k, v in row.items()}
    return len(pivots)


def hom_table(x: ProjComplex, y: ProjComplex) -> dict:
    """Cohomology dimensions of the bigraded Hom complex, as a map
    (g, h) -> dim with only positive entries stored.

    The (g, h) component is spanned by algebra maps P_{i_S} -> P_{i_T}
    between summands S of x and T of y with deg + g_T - g_S = g and
    h_T - h_S = h; the differential is f -> d_y f - (-1)^h f d_x.  Each
    block of it becomes sparse integer rows, one per basis map, ranked
    exactly by `_rank`.
    """
    if x.algebra != y.algebra:
        raise ValueError("algebra mismatch")
    algebra = x.algebra

    blocks: dict[tuple, list] = {}  # (g, h) -> [(s, t, tok)]
    position: dict[tuple, int] = {}  # (s, t, tok) -> index in its block
    bases: dict[tuple, list] = {}
    for s, (vs, gs, hs) in enumerate(x.summands):
        for t, (vt, gt, ht) in enumerate(y.summands):
            basis = bases.get((vs, vt))
            if basis is None:
                basis = bases[(vs, vt)] = algebra.hom_basis(vs, vt)
            for tok in basis:
                block = blocks.setdefault((token_degree(tok) + gt - gs, ht - hs), [])
                position[(s, t, tok)] = len(block)
                block.append((s, t, tok))

    y_out: dict[int, list] = {}
    for (t, t2), e in y.entries():
        y_out.setdefault(t, []).append((t2, *_term(e)))
    x_inc: dict[int, list] = {}
    for (s0, s), e in x.entries():
        x_inc.setdefault(s, []).append((s0, *_term(e)))

    ranks: dict[tuple, int] = {}
    for (g, h), basis in blocks.items():
        if (g, h + 1) not in blocks:
            continue
        sgn = -1 if h % 2 == 0 else 1  # the -(-1)^h factor
        rows = []
        for s, t, tok in basis:
            row: dict = {}  # column -> coefficient
            for t2, tok_e, c in y_out.get(t, ()):
                z = token_mul(tok_e, tok)
                if z is not None:
                    col = position[(s, t2, z)]
                    row[col] = row.get(col, 0) + c
            for s0, tok_e, c in x_inc.get(s, ()):
                z = token_mul(tok, tok_e)
                if z is not None:
                    col = position[(s0, t, z)]
                    row[col] = row.get(col, 0) + sgn * c
            rows.append(row)
        ranks[(g, h)] = _rank(rows)

    table: dict[tuple, int] = {}
    for (g, h), basis in blocks.items():
        dim = len(basis) - ranks.get((g, h), 0) - ranks.get((g, h - 1), 0)
        if dim < 0:
            raise AssertionError(f"negative cohomology dimension at {(g, h)}")
        if dim:
            table[algebra.shared((g, h))] = dim
    return table


def total_hom_dim(x: ProjComplex, y: ProjComplex) -> int:
    return sum(hom_table(x, y).values())


def euler_pairing(x: ProjComplex, y: ProjComplex) -> LaurentPoly:
    """Sum of (-1)^h q^g over the Hom table; matches the Burau pairing of the
    k0 classes."""
    acc: dict[int, int] = {}
    for (g, h), dim in hom_table(x, y).items():
        acc[g] = acc.get(g, 0) + (-dim if h % 2 else dim)
    return LaurentPoly.from_dict(ZZ, acc)


def is_spherical(x: ProjComplex) -> bool:
    """True when the endomorphism table is exactly that of a 2-sphere:
    one dimension at (0,0) and one at (2,0)."""
    return hom_table(x, x) == {(0, 0): 1, (2, 0): 1}


def render_hom_table(table: dict) -> str:
    lines = [
        f"({g},{h}): {table[(g, h)]}"
        for g, h in sorted(table)
    ]
    return "\n".join(lines) if lines else "(empty)"
