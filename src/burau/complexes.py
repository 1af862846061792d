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
step above.  Twists and minimization share one elimination state,
`_Elimination`: a differential over summand ids that persist across letters.
`act_complex` loads its complex once, glues each letter's cone onto the live
summands and eliminates, and builds one `ProjComplex` at the end;
`apply_twist` is the one-letter case and `minimize` the zero-letter case.  No
cone is built as a `ProjComplex`, and every entry that a cone or the
elimination writes is checked when it is written, so the result is built
without checking its entries again.

Every homogeneous element of Hom(P_i, P_j) = e_j A e_i is a scalar times
the unique basis token of its degree, so every differential entry is one
term.  A complex stores it as a (code, coefficient) term, where the code
is the token's small int in the algebra's `TokenCodes` table, so a product
of two tokens is one list index.  Twists, the elimination and `hom_table`
read and write those terms; an entry is an `Elt` only at the public
boundary, in the input to `ProjComplex` and in `diff` and `entries()`.
Terms, summand triples and index pairs are shared per algebra
(`ZigzagAlgebra.shared`).

Every entry is checked by one rule, `_check_term`: on the entries a caller
gives `ProjComplex` it raises ValueError, on the entries the library writes
AssertionError.  `hom_table` names a basis map by its two summands and its
degree, packed into one integer column, and builds no row for a map whose
degree is above 2 minus the least degree of an entry, since such a map
composes to zero with every entry (in a minimal complex, every map of
degree 2).  It ranks only integers, by `_int_rank`: where x or y has a
Fraction coefficient, both differentials are first multiplied by the lcm D
of their denominators, which leaves every hom dimension unchanged, since
(X, D*d) is isomorphic to (X, d) by D^h in homological degree h.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm

from .graphs import CoxeterGraph, validate_vertex, validate_word
from .laurent import ZZ, LaurentPoly
from .matrices import BurauVector
from .zigzag import TokenCodes, ZigzagAlgebra, coefficient


def _check_term(summands, s, t, code, c, error: type, codes: TokenCodes) -> None:
    """Raise `error` unless c times the token of `code` may be a
    differential entry from summand s to summand t: it raises h by one, is
    non-zero, and the token lies in e_{v_t} A e_{v_s} with degree g_s - g_t.
    The one check of an entry: `ProjComplex` raises ValueError on the
    entries it is given; `_Elimination` raises AssertionError on the
    entries it writes, whose faults are the library's own.  Messages name
    the token as its tuple."""
    vs, gs, hs = summands[s]
    vt, gt, ht = summands[t]
    if ht != hs + 1:
        raise error(f"entry {s}->{t} does not raise h by one")
    if not c:
        raise error(f"stored zero entry {s}->{t}")
    if codes.source[code] != vs or codes.target[code] != vt:
        raise error(f"entry {s}->{t} has token {codes.tokens[code]} outside e_{vt} A e_{vs}")
    if codes.degree[code] != gs - gt:
        raise error(
            f"entry {s}->{t} has token {codes.tokens[code]} of degree "
            f"{codes.degree[code]}, expected {gs - gt}"
        )


class ProjComplex:
    """Summands P_v{g}[h] as (vertex, g, h) triples and a differential
    (src_idx, dst_idx) -> Elt.  Treated as immutable.  The differential is
    kept as two parallel tuples, of index pairs and of (code, coefficient)
    terms, in about half the memory of a dict (runs keep many complexes):
    `diff` returns it as a fresh dict of Elts and `entries()` iterates it.
    A given summand must have a vertex of the graph and int (not bool) g
    and h, or ValueError names its index; it is stored as the algebra's
    shared triple.  An entry's indices must be ints (not bools) that name
    summands, or ValueError names the entry.  A given coefficient is stored
    through `coefficient`: a whole Fraction as its int, and anything but an
    int or a Fraction raises TypeError."""

    __slots__ = ("algebra", "summands", "_pairs", "_terms")

    def __init__(self, algebra: ZigzagAlgebra, summands: tuple, diff: dict | None = None):
        diff = diff or {}
        codes = algebra.codes
        triples = []
        for index, (v, g, h) in enumerate(summands):
            try:
                validate_vertex(algebra.graph, v)
            except ValueError as err:
                raise ValueError(f"summand {index}: {err}") from None
            if any(not isinstance(x, int) or isinstance(x, bool) for x in (g, h)):
                raise ValueError(f"summand {index} has g = {g!r}, h = {h!r}; both must be ints")
            triples.append(algebra.shared((v, g, h)))
        summands = tuple(triples)
        terms = []
        for (s, t), e in diff.items():
            if any(type(i) is not int or not 0 <= i < len(summands) for i in (s, t)):
                raise ValueError(f"entry {s}->{t}: indices must be ints in 0..{len(summands) - 1}")
            # a zero entry is checked as one zero term; an entry of two
            # tokens fails on one of them, as each degree has one token
            for tok, c in e.coeffs.items() or ((None, 0),):
                code, c = codes.code.get(tok), coefficient(c)
                if code is None and c:
                    raise ValueError(f"entry {s}->{t} has token {tok}, which is not a basis token")
                _check_term(summands, s, t, code, c, ValueError, codes)
            terms.append(algebra.shared((code, c)))
        self.algebra = algebra
        self.summands = summands
        self._pairs = tuple(diff)
        self._terms = tuple(terms)

    @classmethod
    def _written(cls, algebra: ZigzagAlgebra, summands: tuple, pairs: tuple, terms: tuple):
        """The complex with these parallel pairs and terms, every one of
        which passed `_check_term` when it was written."""
        x = cls.__new__(cls)
        x.algebra, x.summands, x._pairs, x._terms = algebra, summands, pairs, terms
        return x

    @property
    def diff(self) -> dict:
        return dict(self.entries())

    def entries(self):
        """The differential as ((src_idx, dst_idx), Elt) items, each Elt the
        algebra's shared instance."""
        term, tokens = self.algebra.term, self.algebra.codes.tokens
        return ((pair, term(tokens[k], c)) for pair, (k, c) in zip(self._pairs, self._terms))

    def check_d2(self) -> None:
        """Raise unless the differential squares to zero: the composites
        s -> t -> u, summed over t, vanish for every s and u.  Each lies in
        the one-token space of its degree, so they add as coefficients."""
        codes = self.algebra.codes
        mul, n = codes.mul, len(codes.tokens)
        by_src: dict[int, list] = {}
        for (s, t), term in zip(self._pairs, self._terms):
            by_src.setdefault(s, []).append((t, term))
        acc: dict[tuple, int] = {}
        for (s, t), (k, c) in zip(self._pairs, self._terms):
            for u, (k2, c2) in by_src.get(t, ()):
                if mul[k2 * n + k] >= 0:
                    acc[s, u] = acc.get((s, u), 0) + c2 * c
        for (s, u), total in acc.items():
            if total:
                raise ValueError(f"d^2 != 0 along {s} -> {u}")

    def shifted(self, dg: int, dh: int) -> "ProjComplex":
        """The shift X{dg}[dh]."""
        moved = tuple((v, g + dg, h + dh) for v, g, h in self.summands)
        return ProjComplex._written(self.algebra, moved, self._pairs, self._terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ProjComplex)
            and self.algebra == other.algebra
            and self.summands == other.summands
            and dict(zip(self._pairs, self._terms)) == dict(zip(other._pairs, other._terms))
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
    return ProjComplex(algebra, ((i, 0, 0),), {})


def k0_class(x: ProjComplex) -> BurauVector:
    """Decategorification: each summand P_i{g}[h] contributes (-1)^h q^g to
    the alpha_i coordinate.  Always a vector over Z[q, q^-1]."""
    acc: list[dict[int, int]] = [{} for _ in range(x.algebra.graph.n)]
    for v, g, h in x.summands:
        d = acc[v - 1]
        d[g] = d.get(g, 0) + (-1 if h % 2 else 1)
    coords = tuple(LaurentPoly.from_dict(ZZ, d) for d in acc)
    return BurauVector(x.algebra.graph, ZZ, coords)


def minimize(x: ProjComplex) -> ProjComplex:
    """Gaussian elimination: repeatedly cancel the first summand pair, in
    index order, joined by an invertible multiple c*e_i of an idempotent,
    updating the rest of the differential.  Preserves the homotopy type, k0,
    and all Hom tables.  1/c is c itself when c = +-1 and Fraction(1, c)
    otherwise, so the result is exact over Q.  The zero-letter case of
    `_Elimination`: load x, eliminate, build."""
    state = _Elimination(x)
    state.eliminate()
    return state.complex()


class _Elimination:
    """A complex under twists and elimination, over summand ids that persist
    until the complex is built.  `summands[k]` is the triple of id k (a dead
    id keeps its triple), `alive` holds the live ids in ascending order,
    out[s][t] = inc[t][s] = (code, coefficient) is the differential, with
    the token as its code in `codes`, and `units` is a heap of the (s, t)
    of every entry that was a multiple of an idempotent when it was written.
    New summands get ids above all existing ones, so the live ids,
    renumbered in order, are the summand indices the same steps would give
    one `ProjComplex` at a time, and units pop in the same order.  Products
    are looked up in `codes.mul`.  Every entry written here, by a cone or by
    the elimination, passes `_check_term` when it is written and raises
    AssertionError if it fails, so no entry of an intermediate complex goes
    unchecked."""

    __slots__ = ("algebra", "codes", "summands", "alive", "out", "inc", "units")

    def __init__(self, x: ProjComplex):
        """Load x, with its own idempotent entries queued as units.  Its
        entries passed their check when x was built."""
        self.algebra = x.algebra
        self.codes = codes = x.algebra.codes
        self.summands = list(x.summands)
        self.alive = dict.fromkeys(range(len(x.summands)))
        out: dict[int, dict[int, tuple]] = {}
        inc: dict[int, dict[int, tuple]] = {}
        units = []
        for (s, t), term in zip(x._pairs, x._terms):
            out.setdefault(s, {})[t] = inc.setdefault(t, {})[s] = term
            if not codes.degree[term[0]]:
                units.append((s, t))
        heapify(units)
        self.out, self.inc, self.units = out, inc, units

    def glue(self, i: int, sign: int) -> None:
        """Write the cone of the spherical twist along P_i (sign=+1) or its
        inverse (sign=-1) onto the live summands.  The positive twist glues
        a copy P_i{g + deg y}[h - 1] -> P_j{g}[h] of P_i one homological
        step below each summand P_j{g}[h] per basis map y in Hom(P_i, P_j),
        the negative twist a copy P_j{g}[h] -> P_i{g - deg y}[h + 1] one
        step above per basis map y in Hom(P_j, P_i); one loop writes both,
        `sign` picking the basis, the copy's bidegree and the direction of
        its map.  The copies of P_i are joined by -c*e_i along each entry
        c*tok."""
        algebra, codes, summands, alive = self.algebra, self.codes, self.summands, self.alive
        out, inc, units = self.out, self.inc, self.units
        degree, mul, n, bases = codes.degree, codes.mul, len(codes.tokens), codes.bases
        entries = [(s, t, k, c) for s, row in out.items() for t, (k, c) in row.items()]

        glued: dict[int, dict] = {}  # live summand -> basis code y -> its copy of P_i
        for t in list(alive):
            j, g, h = summands[t]
            copies = glued[t] = {}
            for y, dy in bases[i][j] if sign == 1 else bases[j][i]:
                copies[y] = s = len(summands)
                summands.append(algebra.shared((i, g + sign * dy, h - sign)))
                alive[s] = None
                a, b = (s, t) if sign == 1 else (t, s)
                _check_term(summands, a, b, y, 1, AssertionError, codes)
                out.setdefault(a, {})[b] = inc.setdefault(b, {})[a] = (y, 1)
                if not degree[y]:
                    heappush(units, (a, b))

        ei = codes.code[("e", i)]
        for t1, t2, k, c in entries:
            term = (ei, -c)
            for y, s in glued[t1 if sign == 1 else t2].items():
                z = mul[k * n + y] if sign == 1 else mul[y * n + k]
                if z >= 0:
                    a, b = (s, glued[t2][z]) if sign == 1 else (glued[t1][z], s)
                    _check_term(summands, a, b, ei, -c, AssertionError, codes)
                    out.setdefault(a, {})[b] = inc.setdefault(b, {})[a] = term
                    heappush(units, (a, b))

    def eliminate(self) -> None:
        """Cancel units in ascending (source, target) order until none is
        left, writing each changed entry back with its check."""
        codes, summands, alive = self.codes, self.summands, self.alive
        out, inc, units = self.out, self.inc, self.units
        degree, mul, n = codes.degree, codes.mul, len(codes.tokens)
        while units:
            s, t = heappop(units)
            hit = out.get(s, {}).get(t)
            if hit is None or degree[hit[0]]:
                continue  # cancelled or changed since it was pushed
            c = hit[1]
            cinv = c if c in (1, -1) else Fraction(1, c)
            ins = [(u, ka, ca) for u, (ka, ca) in inc[t].items() if u != s]
            outs = [(w, kb * n, cb) for w, (kb, cb) in out[s].items() if w != t]
            for u, ka, ca in ins:
                row = out[u]
                for w, kbn, cb in outs:
                    z = mul[kbn + ka]
                    if z < 0:
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
                    _check_term(summands, u, w, z, v, AssertionError, codes)
                    row[w] = inc.setdefault(w, {})[u] = (z, v)
                    if cur is None and not degree[z]:
                        heappush(units, (u, w))
            for dead in (s, t):
                del alive[dead]
                for w in out.pop(dead, {}):
                    del inc[w][dead]
                for u in inc.pop(dead, {}):
                    del out[u][dead]

    def complex(self) -> ProjComplex:
        """The live summands, renumbered in order, and their differential as
        a `ProjComplex` of the algebra's shared instances."""
        shared, summands = self.algebra.shared, self.summands
        renum = {old: new for new, old in enumerate(self.alive)}
        pairs, terms = [], []
        for s, targets in self.out.items():
            for t, term in targets.items():
                pairs.append(shared((renum[s], renum[t])))
                terms.append(shared(term))
        return ProjComplex._written(
            self.algebra, tuple(summands[old] for old in self.alive), tuple(pairs), tuple(terms)
        )


def apply_twist(x: ProjComplex, i: int, sign: int) -> ProjComplex:
    """The spherical twist along P_i (sign=+1) or its inverse (sign=-1),
    returned in minimized form.  The one-letter case of `act_complex`: the
    cone is written straight onto x's differential, in the order its
    differential would have as a `ProjComplex`, and eliminated together with
    x's own idempotent entries."""
    validate_vertex(x.algebra.graph, i)
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return act_complex(x.algebra.graph, (sign * i,), x)


def act_complex(g: CoxeterGraph, word, x: ProjComplex) -> ProjComplex:
    """Apply a braid word by composed twists, rightmost letter first, in the
    same word order as the Burau action.  x is loaded once, each letter's
    cone is glued onto the live summands and eliminated, and one
    `ProjComplex` is built at the end: the same complex, summand order and
    differential as `apply_twist` letter by letter.  The empty word returns
    x's own summands and differential."""
    if g != x.algebra.graph:
        raise ValueError("graph mismatch")
    validate_word(g, word)
    state = _Elimination(x)
    for letter in reversed(word):
        state.glue(abs(letter), 1 if letter > 0 else -1)
        state.eliminate()
    return state.complex()


def _int_rank(rows) -> int:
    """Exact rank of sparse rows {column: non-zero int}, by fraction-free
    elimination; the rows are consumed.  Each row is reduced by its leading
    column against the pivot row of that column: a +-1 pivot takes over the
    column from a non-unit one, against a unit pivot pv the row becomes
    row - f*pv*prow, and otherwise pv*row - f*prow divided by the gcd of
    its entries."""
    pivots: dict[int, dict] = {}  # leading column -> pivot row
    for row in rows:
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
    h_T - h_S = h; the differential is f -> d_y f - (-1)^h f d_x.  A basis
    map has one token per degree, so the map of degree d from summand s to
    summand t is the integer column 3 * (s * |y| + t) + d.  One pass over
    (summand of x, summand of y, basis token) counts each component and
    writes the sparse row of the image of each basis map that has one.  The
    row joins two segments, worked out once per call from the codes'
    product table: the compositions with the entries out of t (they depend
    on t and the token) and with the entries into s (on s and the token).
    A map of degree above 2 minus the least degree of an entry of x or y
    composes to zero with every entry, so it gets no row; in minimal
    complexes, whose entries have degree 1 or 2, that is every map of
    degree 2.  Each component's rows are ranked exactly by `_int_rank`,
    with every coefficient of x and y multiplied by the lcm of their
    denominators, 1 unless one of them is a Fraction.
    """
    if x.algebra != y.algebra:
        raise ValueError("algebra mismatch")
    algebra = x.algebra
    codes = algebra.codes
    degree, mul, bases = codes.degree, codes.mul, codes.bases
    n = len(codes.tokens)
    ny3 = 3 * len(y.summands)
    terms = x._terms + y._terms
    den = lcm(*(c.denominator for _, c in terms if type(c) is not int))
    top = 2 - min((degree[k] for k, _ in terms), default=3)  # the top degree of a map with an image

    y_out: list[list] = [[] for _ in y.summands]  # (3 * far end, code, degree, coefficient)
    for (t, t2), (k, c) in zip(y._pairs, y._terms):
        y_out[t].append((3 * t2, k, degree[k], c if den == 1 else int(c * den)))
    x_inc: list[list] = [[] for _ in x.summands]  # (|y| * 3 * far end, code, degree, coefficient)
    for (s0, s), (k, c) in zip(x._pairs, x._terms):
        x_inc[s].append((ny3 * s0, k, degree[k], c if den == 1 else int(c * den)))

    # y_seg[t][f]: (column less ny3 * s, coefficient) of d_y f for f into t
    y_seg: list[dict] = [{} for _ in y.summands]
    # x_seg[s][f]: (column less 3 * t, coefficient) of f d_x for f out of s
    x_seg: list[dict] = [{} for _ in x.summands]
    counts: dict[tuple, int] = {}  # (g, h) -> number of basis maps
    blocks: dict[tuple, list] = {}  # (g, h) -> rows of the maps with an image
    for s, (vs, gs, hs) in enumerate(x.summands):
        to_y, seg_s, incoming, col_s = bases[vs], x_seg[s], x_inc[s], ny3 * s
        for t, (vt, gt, ht) in enumerate(y.summands):
            terms = to_y[vt]
            if not terms:
                continue
            h, dg = ht - hs, gt - gs
            for f, d in terms:
                key = (d + dg, h)
                counts[key] = counts.get(key, 0) + 1
                if d > top:
                    continue
                ys = y_seg[t].get(f)
                if ys is None:
                    ys = y_seg[t][f] = [
                        (far + d + de, c) for far, k, de, c in y_out[t] if mul[k * n + f] >= 0
                    ]
                xs = seg_s.get(f)
                if xs is None:
                    xs = seg_s[f] = [
                        (far + d + de, c) for far, k, de, c in incoming if mul[f * n + k] >= 0
                    ]
                if not (ys or xs):
                    continue
                # distinct far ends, and no column of d_y f is one of f d_x
                row = {col_s + col: c for col, c in ys}
                col_t, sgn = 3 * t, 1 if h % 2 else -1  # the -(-1)^h factor
                for col, c in xs:
                    row[col + col_t] = sgn * c
                blocks.setdefault(key, []).append(row)

    ranks = {key: _int_rank(rows) for key, rows in blocks.items()}
    table: dict[tuple, int] = {}
    for (g, h), size in counts.items():
        dim = size - ranks.get((g, h), 0) - ranks.get((g, h - 1), 0)
        if dim < 0:
            raise AssertionError(f"negative cohomology dimension at {(g, h)}")
        if dim:
            table[algebra.shared((g, h))] = dim
    return table


def total_hom_dim(x: ProjComplex, y: ProjComplex) -> int:
    return sum(hom_table(x, y).values())


def euler_characteristic(table: dict) -> LaurentPoly:
    """Sum of (-1)^h dim q^g over a hom table."""
    acc: dict[int, int] = {}
    for (g, h), dim in table.items():
        acc[g] = acc.get(g, 0) + (-dim if h % 2 else dim)
    return LaurentPoly.from_dict(ZZ, acc)


def euler_pairing(x: ProjComplex, y: ProjComplex) -> LaurentPoly:
    """The Euler characteristic of the Hom table; matches the Burau pairing
    of the k0 classes."""
    return euler_characteristic(hom_table(x, y))


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
