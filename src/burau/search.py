"""Counterexample search harnesses.

Two complementary strategies.  Over the integers, curves (orbit vectors of
the standard Burau action) are enumerated breadth-first from the basis roots,
bucketed by their root at q = 1 and a coefficient-mass key, and scanned for
pairs whose pairing vanishes or is a signed power of q (a modular prefilter
prunes the scan, the exact pairing decides); candidate pairs are then
confirmed categorically.  Over Z/pZ, a seeded random walk in the dual
positive monoid files braids into buckets keyed by canonical length and
spread, watching for words that fix a basis root up to a power of q (or reach
spread zero at positive length); fixing words feed the twist-quotient
verifier, which is also usable standalone on explicit words.

Each walk step multiplies by the dual matrix of a reflection lift
W sigma_j W^-1, which is a rank-one update I + u v^T, so a step costs
M -> M + (M u) v^T instead of a matrix product.  The walk keeps its matrix
mod p packed: one shared lowest exponent and one Python int per entry, with
the coefficients in fixed-width bit slots (Kronecker substitution), so the
update is a few big-int products per row followed by one slotwise reduction
mod p per changed entry; spread and the fix test read bit lengths.  Buckets
that restarts can choose keep each braid's packed matrix and normal-form
state beside its bands, so a restart recomputes nothing.

Everything here is deterministic: the curve search takes no seed, and a walk
is reproducible for a fixed seed.
"""

from __future__ import annotations

import json
import random
from collections import Counter, deque
from dataclasses import dataclass
from functools import lru_cache
from operator import mul
from typing import NamedTuple

from .criteria import (
    CRITERION_TWIST_QUOTIENT,
    KernelCertificate,
    Rejection,
    seal_certificate,
    criterion1,
    criterion2,
)
from .garside import garside_context
from .graphs import (
    CoxeterGraph,
    commutator_word,
    graph_from_json,
    graph_json,
    inverse_word,
    validate_word,
)
from .laurent import ZZ, IntegersMod, LaurentPoly
from .matrices import (
    DUAL,
    STANDARD,
    BurauVector,
    act,
    basis_vector,
    generator_matrix,
    gram_matrix,
    is_identity,
    pairing,
    word_matrix,
)


@dataclass(frozen=True, slots=True)
class CurveRecord:
    """One stored curve: the exact vector, the word that produced it from the
    seed root, and the two keys used to organize the store."""

    coords: tuple  # LaurentPoly coordinates of the curve vector
    witness: tuple
    seed_vertex: int
    root_key: tuple
    length_key: int

    def vector(self, g: CoxeterGraph) -> BurauVector:
        return BurauVector(g, ZZ, self.coords)


def _keys(coords):
    root = []
    mass = 0
    for c in coords:
        root.append(sum(c.coeffs))  # the coordinate at q = 1
        mass += sum(map(abs, c.coeffs))
    return tuple(root), mass


def curve_record(g: CoxeterGraph, word, vertex: int) -> CurveRecord:
    vec = act(g, word, basis_vector(g, vertex))
    root, mass = _keys(vec.coords)
    return CurveRecord(
        coords=vec.coords,
        witness=tuple(word),
        seed_vertex=vertex,
        root_key=root,
        length_key=mass,
    )


class CurveStore:
    """Curve records with exact-vector deduplication and a root-key index."""

    def __init__(self, g: CoxeterGraph):
        self.graph = g
        self.records: list[CurveRecord] = []
        self.by_root: dict[tuple, list[int]] = {}
        self._seen: set[tuple] = set()

    def __len__(self) -> int:
        return len(self.records)

    def insert(self, record: CurveRecord) -> bool:
        """Add the record unless its vector is already stored."""
        key = record.coords
        if key in self._seen:
            return False
        self._seen.add(key)
        self.by_root.setdefault(record.root_key, []).append(len(self.records))
        self.records.append(record)
        return True

    def insert_witness(self, word, vertex: int) -> bool:
        return self.insert(curve_record(self.graph, word, vertex))

    def to_json(self) -> dict:
        return {
            "graph": graph_json(self.graph),
            "records": [
                {
                    "coords": [c.to_json_terms() for c in r.coords],
                    "witness": list(r.witness),
                    "seed_vertex": r.seed_vertex,
                }
                for r in self.records
            ],
        }

    @staticmethod
    def from_json(data: dict) -> "CurveStore":
        """Rebuild each record from its witness and seed vertex; the stored
        coordinates must agree with the rebuilt vector."""
        g = graph_from_json(data["graph"])
        store = CurveStore(g)
        for r in data["records"]:
            record = curve_record(g, r["witness"], r["seed_vertex"])
            coords = tuple(LaurentPoly.from_json_terms(ZZ, t) for t in r["coords"])
            if coords != record.coords:
                raise ValueError(
                    f"stored coordinates of witness {record.witness} at vertex "
                    f"{record.seed_vertex} disagree with its vector"
                )
            store.insert(record)
        return store

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh)

    @staticmethod
    def load(path) -> "CurveStore":
        with open(path) as fh:
            return CurveStore.from_json(json.load(fh))


def enumerate_curves(
    g: CoxeterGraph,
    seeds=None,
    budget: int = 10000,
    max_depth: int | None = None,
) -> CurveStore:
    """Breadth-first orbit enumeration: apply every generator and inverse to
    every stored curve, starting from the seed basis roots, until the record
    budget or the depth cutoff is reached."""
    seeds = list(g.vertices()) if seeds is None else sorted(set(seeds))
    if budget < len(seeds) or budget == 0:
        raise ValueError("budget must cover at least the seed vectors")
    store = CurveStore(g)
    queue = deque()
    for s in seeds:
        rec = curve_record(g, (), s)
        if store.insert(rec):
            queue.append((rec.coords, (), s, 0))
    letters = [sign * j for j in g.vertices() for sign in (1, -1)]
    while queue and len(store) < budget:
        coords, word, s, depth = queue.popleft()
        if max_depth is not None and depth >= max_depth:
            continue
        vec = BurauVector(g, ZZ, coords)
        for letter in letters:
            new_vec = act(g, (letter,), vec)
            root, mass = _keys(new_vec.coords)
            rec = CurveRecord(
                coords=new_vec.coords,
                witness=(letter,) + word,
                seed_vertex=s,
                root_key=root,
                length_key=mass,
            )
            if store.insert(rec):
                queue.append((rec.coords, rec.witness, s, depth + 1))
                if len(store) >= budget:
                    break
    return store


# The pair-scan prefilter evaluates pairings at a fixed point q0 modulo the
# Mersenne prime 2^61 - 1.  Evaluation at a unit is a ring homomorphism from
# Z[q, q^-1] to F_P, so a pairing that vanishes (or is +-q^k) exactly passes
# the filter.  One that does not slips through only if its reduction mod P
# vanishes at q0, which a non-zero reduction of degree span d does at no
# more than d of the P points (Schwartz 1980; Zippel 1979).  The point is a
# constant, so scans are deterministic.
_P = (1 << 61) - 1
_Q0 = 0x1D5C_9A3E_27F4_6B81


def _poly_mod(poly: LaurentPoly, q: int) -> int:
    total = 0
    for c in reversed(poly.coeffs):
        total = (total * q + c) % _P
    return total * pow(q, poly.low, _P) % _P


def _evaluation_points(g: CoxeterGraph, criterion: int) -> tuple:
    """(q, q^-1, G(q)) mod P for each point the criterion evaluates at: q0,
    and q0^2 for criterion 2.  G is the Gram matrix of the standard form."""
    qs = (_Q0,) if criterion == 1 else (_Q0, _Q0 * _Q0 % _P)
    return tuple(
        (
            q,
            pow(q, -1, _P),
            tuple(tuple(_poly_mod(b, q) for b in row) for row in gram_matrix(g)),
        )
        for q in qs
    )


def _modular_images(coords, points) -> tuple:
    """For each point: (x(q^-1), G(q).x(q)) mod P, for the vector x with
    these integer coordinates.  The pairing of x with y evaluates at q to
    the dot product of x's first image with y's second."""
    images = []
    for q, q_inv, gram in points:
        at_q = [_poly_mod(c, q) for c in coords]
        images.append(
            (
                tuple(_poly_mod(c, q_inv) for c in coords),
                tuple(sum(map(mul, row, at_q)) % _P for row in gram),
            )
        )
    return tuple(images)


def _pairing_mod(x_images, y_images) -> tuple:
    """The pairing of two records at each point, mod P."""
    return tuple(
        sum(map(mul, left, right)) % _P
        for (left, _), (_, right) in zip(x_images, y_images)
    )


def find_pairs(
    store: CurveStore,
    criterion: int,
    root_filter=None,
    limit: int | None = None,
) -> list:
    """Scan stored curve pairs for the pairing condition of the chosen
    criterion: exactly zero (1) or a signed power of q (2).  A root filter
    (pair of root keys) restricts the scan to two indexed slices; pairs whose
    witnesses start with the same letter are skipped as redundant
    left-translates of a pair already considered.  `limit` caps the number
    of pairs returned; it must be non-negative, and 0 returns no pairs.

    A prefilter only prunes: each record's coordinates are evaluated once, at
    a fixed point q0 modulo a 61-bit prime, so a pair costs one n-term dot
    product.  Criterion 1 drops a pair whose pairing is non-zero at q0;
    criterion 2 drops it unless p(q0) is non-zero and p(q0^2) = +-p(q0)^2.
    A pair meeting the condition exactly always passes, and every pair that
    passes is decided by the exact `pairing`."""
    if criterion not in (1, 2):
        raise ValueError("criterion must be 1 or 2")
    if limit is not None and limit < 0:
        raise ValueError("limit must be non-negative")
    if limit == 0:
        return []
    g = store.graph
    recs = store.records
    if root_filter is not None:
        k1, k2 = tuple(root_filter[0]), tuple(root_filter[1])
        left = store.by_root.get(k1, [])
        right = store.by_root.get(k2, [])
        if k1 == k2:
            idx_pairs = ((a, b) for ai, a in enumerate(left) for b in left[ai + 1 :])
        else:
            idx_pairs = ((a, b) for a in left for b in right)
    else:
        idx_pairs = (
            (a, b) for a in range(len(recs)) for b in range(a + 1, len(recs))
        )
    points = _evaluation_points(g, criterion)
    images = {}

    def image(index):
        found = images.get(index)
        if found is None:
            found = images[index] = _modular_images(recs[index].coords, points)
        return found

    out = []
    for a, b in idx_pairs:
        r1, r2 = recs[a], recs[b]
        if r1.witness and r2.witness and r1.witness[0] == r2.witness[0]:
            continue
        values = _pairing_mod(image(a), image(b))
        if criterion == 1:
            if values[0]:
                continue
        else:
            at_q0, at_q0_squared = values
            square = at_q0 * at_q0 % _P
            if not at_q0 or at_q0_squared not in (square, _P - square):
                continue
        p = pairing(r1.vector(g), r2.vector(g))
        if criterion == 1:
            hit = p.is_zero()
        else:
            hit = p.signed_q_power() is not None
        if hit:
            out.append((r1, r2))
            if limit is not None and len(out) >= limit:
                break
    return out


def confirm_pair(g: CoxeterGraph, pair, criterion: int):
    """Run the categorical check and the final matrix gate on one pair."""
    r1, r2 = pair
    check = criterion1 if criterion == 1 else criterion2
    return check(r1.witness, r1.seed_vertex, r2.witness, r2.seed_vertex, g)


def _fixing_exponent(column, i: int):
    """If the vector is (+-1) q^l alpha_i, return (l, sign), else None.  The
    sign squares away in the twist conjugation formula, so a signed power
    certifies exactly as much as a plain one; it is recorded, not ignored."""
    if any(not c.is_zero() for j, c in enumerate(column.coords, start=1) if j != i):
        return None
    return column.coords[i - 1].signed_q_power()


def verify_bigelow3(g: CoxeterGraph, beta, i: int, p: int):
    """The mod-p twist-quotient verifier: beta must move alpha_i to q^l
    alpha_i under the dual form mod p, the commutator of beta with sigma_i
    must be a non-trivial braid (Garside word problem), and it must have the
    identity dual matrix mod p.  That matrix is computed once, by the seal,
    and a failure is reported as `commutator-matrix`; a trivial braid has the
    identity matrix in every form, so checking it first changes no outcome.
    The report of the normal-form side conditions and the standard-form
    identity status ride along as diagnostics.  One normal-form state serves
    both: it takes beta, then sigma_i (the report), then beta^-1 sigma_i^-1
    (the word problem)."""
    validate_word(g, beta)
    if p < 2:
        raise ValueError("p must be at least 2")
    ctx = garside_context(g)  # raises NotFiniteType early for bad graphs
    ring = IntegersMod(p)
    image = act(g, beta, basis_vector(g, i, ring), DUAL)
    fixing = _fixing_exponent(image, i)
    if fixing is None:
        return Rejection(
            CRITERION_TWIST_QUOTIENT,
            "fix-vector",
            f"the image of alpha_{i} is {image}, not a signed power of q "
            f"times alpha_{i}",
        )
    exponent, sign = fixing
    beta = tuple(beta)
    kernel = commutator_word(beta, (i,))
    state = ctx.new_nf_state(beta)
    report = state.samecurve_report(i)
    for letter in kernel[len(beta) + 1 :]:
        state.push_letter(letter)
    if state.result().is_trivial():
        return Rejection(
            CRITERION_TWIST_QUOTIENT,
            "trivial-braid",
            "the commutator is the trivial braid, so it certifies nothing",
        )
    standard_identity = is_identity(word_matrix(g, kernel, STANDARD, ring))
    cert = KernelCertificate(
        graph=g,
        criterion=CRITERION_TWIST_QUOTIENT,
        witnesses=((beta, i),),
        kernel_word=kernel,
        ring=ring,
        form=DUAL,
        fix_exponent=exponent,
        diagnostics=(
            ("fix_sign", sign),
            ("samecurve_zero_gamma_power", report.zero_gamma_power),
            ("samecurve_append_stays_greedy", report.append_stays_greedy),
            ("samecurve_atom_free_last_simple", report.atom_free_last_simple),
            ("standard_form_commutator_identity", standard_identity),
        ),
    )
    sealed = seal_certificate(cert)
    if isinstance(sealed, Rejection):
        return Rejection(
            CRITERION_TWIST_QUOTIENT,
            "commutator-matrix",
            f"the commutator word is not in the kernel of the dual form mod {p}",
        )
    return sealed


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
    grow on demand to cover the longest value reduced so far."""

    __slots__ = ("p", "width", "_shift", "_magic", "_bits", "_quotients", "_bias", "_tops")

    def __init__(self, p: int, bound: int):
        self.p = p
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

    def reduce(self, x: int) -> int:
        if x.bit_length() > self._bits:
            self._cover(x.bit_length())
        p = self.p
        x -= ((x * self._magic >> self._shift) & self._quotients) * p
        # every slot is now below 2p; take p off the ones at p or above
        return x - (((x + self._bias) & self._tops) >> (self.width - 1)) * p

    def pack(self, poly: LaurentPoly, low: int) -> int:
        """The polynomial divided by q^low; it must have no term below it."""
        w = self.width
        start = poly.low - low
        return sum(c << (w * (start + k)) for k, c in enumerate(poly.coeffs))

    def unpack(self, x: int, low: int) -> LaurentPoly:
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


class _Band(NamedTuple):
    """One walk step: right multiplication by the dual matrix of a
    reflection lift W sigma_j W^-1, which is I + u v^T with u = M(W) e_j and
    v^T = (row j of M(sigma_j) - e_j^T) M(W^-1).  `u` and `v` list their
    non-zero entries as (index, packed entry), each vector packed from its
    own lowest exponent, so u_a v_b = q^offset U_a V_b."""

    refl: int
    lift: tuple
    u: tuple
    v: tuple
    offset: int


@lru_cache(maxsize=8)
def _walk_bands(g: CoxeterGraph, p: int) -> tuple:
    """(codec, bands), one `_Band` per reflection, built once per (graph, p)
    and shared by every walk.

    Every Hurwitz lift is literally a word W sigma_j W^-1 (a Hurwitz move
    conjugates one such word by another), so its dual matrix is the rank-one
    update I + u v^T; that is checked exactly against `word_matrix` of the
    lift, and a mismatch raises.  A walk step M -> M + (M u) v^T then costs a
    few big-int products per row of packed entries.  The codec's slot bound
    covers one step: an entry of M u sums at most n products of a reduced
    entry with a u entry of at most du terms, and an updated entry adds the
    product of such a sum with a v entry of at most dv terms to a reduced
    entry."""
    ctx = garside_context(g)
    ring = IntegersMod(p)
    one = LaurentPoly.one(ring)
    zero = LaurentPoly.zero(ring)
    factors = []
    for t in ctx.refl_ids:
        lift = ctx.reflection_lifts[t]
        half = len(lift) // 2
        conj, j = lift[:half], lift[half]
        if j < 0 or lift[half + 1 :] != inverse_word(conj):
            raise AssertionError(f"lift {lift} is not a conjugate of a generator")
        u = word_matrix(g, conj, DUAL, ring).column(j).coords
        r = list(generator_matrix(g, j, 1, DUAL, ring).rows[j - 1])
        r[j - 1] -= one
        inverse = word_matrix(g, inverse_word(conj), DUAL, ring)
        v = tuple(LaurentPoly.dot(r, col) for col in zip(*inverse.rows))
        rank_one = tuple(
            tuple((one if a == b else zero) + ua * vb for b, vb in enumerate(v))
            for a, ua in enumerate(u)
        )
        if word_matrix(g, lift, DUAL, ring).rows != rank_one:
            raise AssertionError(f"the matrix of lift {lift} is not I + u v^T")
        factors.append((t, lift, u, v))

    def extent(vec) -> tuple:
        """(lowest exponent, slots from it to the top) over the entries."""
        live = [c for c in vec if c.coeffs]
        low = min(c.low for c in live)
        return low, max(c.low + len(c.coeffs) for c in live) - low

    du = max(extent(u)[1] for _, _, u, _ in factors)
    dv = max(extent(v)[1] for _, _, _, v in factors)
    codec = _SlotCodec(p, g.n * du * dv * (p - 1) ** 3 + p - 1)
    bands = []
    for t, lift, u, v in factors:
        lu, lv = extent(u)[0], extent(v)[0]
        if lu + lv < 0:  # a step must not reach below the shared exponent
            raise AssertionError(f"the rank-one factors of lift {lift} start below q^0")
        bands.append(
            _Band(
                refl=t,
                lift=lift,
                u=tuple((a, codec.pack(c, lu)) for a, c in enumerate(u) if c.coeffs),
                v=tuple((b, codec.pack(c, lv)) for b, c in enumerate(v) if c.coeffs),
                offset=lu + lv,
            )
        )
    return codec, tuple(bands)


def _identity_rows(n: int) -> tuple:
    """The packed identity matrix, over the shared exponent 0."""
    return tuple(tuple(int(a == b) for b in range(n)) for a in range(n))


def _walk_step(codec: _SlotCodec, rows: tuple, low: int, band: _Band) -> tuple:
    """M (I + u v^T) = M + (M u) v^T on a packed matrix: rows of packed
    entries over the shared lowest exponent `low`.  Returns the new rows,
    shared exponent and spread.  The update starts at q^(low + offset) with
    offset >= 0, so only the lowest exponent can rise.  A row whose (M u)
    entry is zero is kept as the same object, so saved states share it."""
    width = codec.width
    reduce = codec.reduce
    offset = band.offset * width
    out = []
    support = 0  # the OR of all entries: its lowest and top slots bound them all
    for row in rows:
        mu = 0
        for k, uk in band.u:
            mu += row[k] * uk
        if mu:
            mu <<= offset
            row = list(row)
            for j, vj in band.v:
                row[j] = reduce(row[j] + mu * vj)
            row = tuple(row)
        out.append(row)
        for x in row:
            support |= x
    bottom = codec.low_slot(support)
    if bottom:
        cut = bottom * width
        out = [tuple(x >> cut for x in row) for row in out]
        low += bottom
    return tuple(out), low, codec.top_slot(support) - bottom


def _packed_fixing_exponent(codec: _SlotCodec, g: CoxeterGraph, rows, low, i: int):
    """`_fixing_exponent` of column i of a packed matrix.  Only columns with
    one non-zero slot, in row i, are decoded and tested."""
    col = i - 1
    x = rows[col][col]
    if not x or codec.low_slot(x) != codec.top_slot(x):
        return None
    if any(row[col] for r, row in enumerate(rows) if r != col):
        return None
    column = tuple(codec.unpack(row[col], low) for row in rows)
    return _fixing_exponent(BurauVector(g, IntegersMod(codec.p), column), i)


# Callers that run many walks keep the results, so results hold tuples where
# JSON has lists (they serialise the same) and share the immutable parts they
# repeat: the graph's edge list, the bucket keys and labels, and the status
# strings.
@lru_cache(maxsize=8)
def _graph_edges(g: CoxeterGraph) -> tuple:
    return tuple(tuple(edge) for edge in graph_json(g)["edges"])


@lru_cache(maxsize=1024)
def _bucket_key(canonical_length: int, spread: int) -> tuple:
    return canonical_length, spread


@lru_cache(maxsize=1024)
def _bucket_label(canonical_length: int, spread: int) -> str:
    return f"{canonical_length},{spread}"


@lru_cache(maxsize=64)
def _rejected_status(clause: str) -> str:
    return f"rejected:{clause}"


# a walk restarts once its spread passes SPREAD_CAP; each bucket keeps at
# most BUCKET_CAPACITY braids
SPREAD_CAP = 8
BUCKET_CAPACITY = 64


def bucket_search(
    g: CoxeterGraph,
    p: int,
    budget: int,
    seed: int,
    target: str = "fix_vector",
    fix_vertex: int | None = None,
) -> dict:
    """Seeded random walk in the dual positive monoid mod p.  Each step
    right-multiplies by a uniformly random reflection band, updates the dual
    matrix incrementally, and files the braid under its (canonical length,
    spread) bucket.  Hits of the chosen target are verified before being
    reported.  A run is reproducible for a fixed seed.  A fix_vector walk
    watches alpha_{fix_vertex} (vertex 1 by default); a spread_zero walk
    takes no fix vertex.

    The matrix is kept packed (`_SlotCodec`) and each step is a rank-one
    update (`_walk_step`).  Once the spread passes SPREAD_CAP the walk
    restarts from a braid saved in the lowest-spread bucket whose spread is
    at most SPREAD_CAP // 2: those buckets keep each braid's bands (its word
    is their lifts), packed matrix, spread and normal form (gamma power and
    factors), so a restart recomputes nothing.  Other buckets only count
    their braids.

    `counters` reports the steps, restarts, fix-vector hits (new words whose
    matrix fixes alpha_i up to a signed power of q, each one verified) and
    their outcomes: certified, or rejected by clause.

    Words, buckets and the manifest's graph edges are tuples in the result;
    they serialise as JSON lists."""
    if budget < 0:
        raise ValueError("budget must be non-negative")
    if target not in ("fix_vector", "spread_zero"):
        raise ValueError("target must be 'fix_vector' or 'spread_zero'")
    if target == "spread_zero" and fix_vertex is not None:
        raise ValueError("a spread_zero walk takes no fix vertex")
    if target == "fix_vector":
        fix_vertex = 1 if fix_vertex is None else fix_vertex
        if not 1 <= fix_vertex <= g.n:
            raise ValueError(f"vertex {fix_vertex} out of range 1..{g.n}")
    ctx = garside_context(g)
    codec, bands = _walk_bands(g, p)
    rng = random.Random(seed)
    restart_spread = SPREAD_CAP // 2
    path: list[_Band] = []  # the braid so far, one band per step
    rows, low, mat_spread = _identity_rows(g.n), 0, 0
    nf = ctx.new_nf_state(())
    # buckets are keyed by (canonical length, spread)
    filed: dict[tuple, int] = {}
    saved: dict[tuple, deque] = {}  # only keys with spread <= restart_spread
    candidates = []
    certificates = []
    seen_hits = set()
    restarts = 0
    rejected = Counter()

    for step in range(budget):
        if mat_spread > SPREAD_CAP:
            restarts += 1
            usable = [k for k, kept in saved.items() if kept]
            if usable:
                key = min(usable, key=lambda k: (k[1], k[0]))
                kept_path, rows, low, mat_spread, k, factors = rng.choice(list(saved[key]))
                path = list(kept_path)
                nf = ctx.restore_nf_state(k, factors)
            else:
                path = []
                rows, low, mat_spread = _identity_rows(g.n), 0, 0
                nf = ctx.new_nf_state(())
        band = bands[rng.randrange(len(bands))]
        path.append(band)
        rows, low, mat_spread = _walk_step(codec, rows, low, band)
        nf.push_simple(band.refl)
        key = _bucket_key(nf.canonical_length(), mat_spread)
        filed[key] = filed.get(key, 0) + 1
        if mat_spread <= restart_spread:
            if key not in saved:
                saved[key] = deque(maxlen=BUCKET_CAPACITY)
            saved[key].append((tuple(path), rows, low, mat_spread, nf.k, tuple(nf.factors())))
        if key[0] == 0:
            continue
        if target == "spread_zero":
            if mat_spread:
                continue
            fixing = None
        else:
            fixing = _packed_fixing_exponent(codec, g, rows, low, fix_vertex)
            if fixing is None:
                continue
        word = tuple(letter for b in path for letter in b.lift)
        if word in seen_hits:
            continue
        seen_hits.add(word)
        if fixing is None:
            candidates.append(
                {"step": step, "word": word, "bucket": key, "status": "spread-zero"}
            )
            continue
        outcome = verify_bigelow3(g, word, fix_vertex, p)
        if isinstance(outcome, KernelCertificate):
            status = "certified"
            certificates.append(outcome)
        else:
            status = _rejected_status(outcome.clause)
            rejected[outcome.clause] += 1
        candidates.append(
            {
                "step": step,
                "word": word,
                "bucket": key,
                "fix_exponent": fixing[0],
                "fix_sign": fixing[1],
                "status": status,
            }
        )
    return {
        "manifest": {
            "graph": {"n": g.n, "edges": _graph_edges(g)},
            "p": p,
            "budget": budget,
            "seed": seed,
            "target": target,
            "fix_vertex": fix_vertex,
            "bucket_capacity": BUCKET_CAPACITY,
            "spread_cap": SPREAD_CAP,
        },
        "candidates": candidates,
        "certificates": [c.to_json() for c in certificates],
        "buckets": {
            _bucket_label(*key): min(count, BUCKET_CAPACITY)
            for key, count in sorted(filed.items())
        },
        "counters": {
            "steps": budget,
            "restarts": restarts,
            "fix_vector_hits": len(candidates) if target == "fix_vector" else 0,
            "certified": len(certificates),
            "rejected": dict(sorted(rejected.items())),
        },
    }
