"""Dense reference for the categorical tests.

Ranks by dense Gaussian elimination over the rationals, and the bigraded Hom
table built from `Elt` products with one dense `Fraction` row per basis map.
This is the straightforward computation that the sparse integer one in
`burau.complexes` must agree with; it shares only the algebra's
multiplication with the library.

`reference_cone` is the spherical twist's cone built the plain way, as a
dict differential checked by `ProjComplex`; `minimize` of it is what the
fused cone of `apply_twist` must equal.
"""

from fractions import Fraction

from burau.complexes import ProjComplex, minimize
from burau.zigzag import Elt, token_degree, token_mul


def reference_cone(x, i: int, sign: int):
    """The unminimized cone of the twist along P_i (sign +1) or its inverse
    (sign -1), as a `ProjComplex`.  Summands and entries come in the order
    x's summands, then one copy of P_i per basis map y (placed at the
    degree the algebra's table gives y), then the e_i entries between
    copies."""
    algebra = x.algebra
    summands = list(x.summands)
    diff = dict(x.diff)
    copy: dict[tuple, int] = {}
    for t, (j, g, h) in enumerate(x.summands):
        ends = (i, j) if sign == 1 else (j, i)
        for y, dy in algebra.hom_terms(*ends):
            copy[(t, y)] = idx = len(summands)
            summands.append((i, g + dy, h - 1) if sign == 1 else (i, g - dy, h + 1))
            diff[(idx, t) if sign == 1 else (t, idx)] = algebra.term(y)
    for (t1, t2), e in x.diff.items():
        ((tok, c),) = e.coeffs.items()
        if sign == 1:
            for y1, _ in algebra.hom_terms(i, x.summands[t1][0]):
                y2 = token_mul(tok, y1)
                if y2 is not None:
                    diff[(copy[(t1, y1)], copy[(t2, y2)])] = algebra.term(("e", i), -c)
        else:
            for y2, _ in algebra.hom_terms(x.summands[t2][0], i):
                y1 = token_mul(y2, tok)
                if y1 is not None:
                    diff[(copy[(t1, y1)], copy[(t2, y2)])] = algebra.term(("e", i), -c)
    return ProjComplex(algebra, tuple(summands), diff)


def reference_twist(x, i: int, sign: int):
    """`minimize` of `reference_cone`."""
    return minimize(reference_cone(x, i, sign))


def dense_rank(rows: list[list]) -> int:
    """Exact rank by Gaussian elimination over Q."""
    rank = 0
    rows = [[Fraction(v) for v in row] for row in rows if any(row)]
    ncols = len(rows[0]) if rows else 0
    col = 0
    while rows and col < ncols:
        pivot = None
        for ridx in range(rank, len(rows)):
            if rows[ridx][col] != 0:
                pivot = ridx
                break
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        prow = rows[rank]
        for ridx in range(rank + 1, len(rows)):
            f = rows[ridx][col]
            if f:
                row = rows[ridx]
                scale = f / pv
                for cidx in range(col, ncols):
                    row[cidx] -= scale * prow[cidx]
        rank += 1
        col += 1
        if rank == len(rows):
            break
    return rank


def oracle_hom_table(x, y) -> dict:
    """(g, h) -> dim of the cohomology of the Hom complex from x to y, with
    differential f -> d_y f - (-1)^h f d_x, positive entries only."""
    algebra = x.algebra
    blocks: dict[tuple, list] = {}
    position: dict[tuple, int] = {}
    for s, (vs, gs, hs) in enumerate(x.summands):
        for t, (vt, gt, ht) in enumerate(y.summands):
            for tok in algebra.hom_basis(vs, vt):
                key = (token_degree(tok) + gt - gs, ht - hs)
                block = blocks.setdefault(key, [])
                position[(s, t, tok)] = len(block)
                block.append((s, t, tok))

    y_out: dict[int, list] = {}
    for (t, t2), e in y.diff.items():
        y_out.setdefault(t, []).append((t2, e))
    x_inc: dict[int, list] = {}
    for (s0, s), e in x.diff.items():
        x_inc.setdefault(s, []).append((s0, e))

    def image(basis_elt, h):
        s, t, tok = basis_elt
        f = Elt.from_token(tok)
        terms: dict[tuple, Fraction] = {}
        for t2, e in y_out.get(t, []):
            for tok2, c in (e * f).coeffs.items():
                key = (s, t2, tok2)
                terms[key] = terms.get(key, 0) + c
        sgn = -1 if h % 2 == 0 else 1
        for s0, e in x_inc.get(s, []):
            for tok2, c in (f * e).coeffs.items():
                key = (s0, t, tok2)
                terms[key] = terms.get(key, 0) + sgn * c
        return terms

    ranks: dict[tuple, int] = {}
    for (g, h), basis in blocks.items():
        target = blocks.get((g, h + 1), [])
        cols = []
        for b in basis:
            vec = [Fraction(0)] * len(target)
            for key, c in image(b, h).items():
                vec[position[key]] += c
            cols.append(vec)
        ranks[(g, h)] = dense_rank(cols) if target else 0

    table: dict[tuple, int] = {}
    for (g, h), basis in blocks.items():
        dim = len(basis) - ranks.get((g, h), 0) - ranks.get((g, h - 1), 0)
        assert dim >= 0
        if dim:
            table[(g, h)] = dim
    return table
