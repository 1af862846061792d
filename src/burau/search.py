"""Counterexample search harnesses.

Two complementary strategies.  Over the integers, curves (orbit vectors of
the standard Burau action) are enumerated breadth-first from the basis roots,
indexed by their root at q = 1, and scanned for pairs whose pairing vanishes
or is a signed power of q (a modular prefilter prunes the scan, the exact
pairing decides); candidate pairs are then confirmed categorically, from
twisted complexes that each store builds once per record (`TwistMemo`).
Over Z/pZ, a seeded random walk in the dual positive monoid files braids into
buckets keyed by canonical length and spread, watching for words that fix a
basis root up to a power of q; fixing words feed the twist-quotient
verifier, which is also usable standalone on explicit words.

Each walk step multiplies by the dual matrix of a reflection lift
W sigma_j W^-1, which is a rank-one update I + u v^T.  The walk keeps its
matrix mod p as the packed value that `word_matrix` steps mod p
(`matrices._PackedMatrix`): its `times` takes a step M -> M + (M u) v^T in
a few big-int products per row, it carries its spread, and its fix test
decodes only a column that can pass.  Buckets that restarts can choose
keep each braid's packed matrix and normal-form state beside its bands, so
a restart recomputes nothing.

Everything here is deterministic: the curve search takes no seed, and a walk
is reproducible for a fixed seed.
"""

from __future__ import annotations

import json
import random
import weakref
from collections import Counter, deque
from dataclasses import dataclass, field
from functools import lru_cache
from operator import mul
from typing import NamedTuple

from .complexes import ProjComplex, apply_twist, k0_class, projective
from .criteria import (
    CRITERION_BRAID_RELATOR,
    CRITERION_COMMUTATOR,
    CRITERION_TWIST_QUOTIENT,
    KernelCertificate,
    Rejection,
    _pairing_criterion,
    seal_certificate,
)
from .garside import garside_context
from .graphs import (
    CoxeterGraph,
    commutator_word,
    graph_from_json,
    graph_json,
    inverse_word,
    validate_vertex,
    validate_word,
)
from .laurent import ZZ, IntegersMod, LaurentPoly
from .matrices import (
    DUAL,
    STANDARD,
    BurauVector,
    _rank_one_factors,
    act,
    basis_vector,
    gram_matrix,
    is_identity,
    pairing,
    word_matrix,
)
from .zigzag import ZigzagAlgebra, zigzag


@dataclass(frozen=True, slots=True)
class CurveRecord:
    """One stored curve: the exact vector and the word that produced it from
    the seed root.  A record held by a store also holds a weak reference to
    the store's `TwistMemo`, for `confirm_pair`; it takes no part in
    comparisons, and it keeps the memo alive no longer than the store."""

    coords: tuple  # LaurentPoly coordinates of the curve vector
    witness: tuple
    seed_vertex: int
    memo_ref: weakref.ref | None = field(default=None, compare=False, repr=False)

    @property
    def root_key(self) -> tuple:
        """The vector at q = 1, which indexes the store."""
        return tuple(sum(c.coeffs) for c in self.coords)

    def vector(self, g: CoxeterGraph) -> BurauVector:
        return BurauVector(g, ZZ, self.coords)


def curve_record(g: CoxeterGraph, word, vertex: int) -> CurveRecord:
    return CurveRecord(act(g, word, basis_vector(g, vertex)).coords, tuple(word), vertex)


class TwistMemo:
    """The twisted projectives of one store's records, over one zigzag
    algebra: (word, vertex) -> the complex of the word applied to P_vertex.
    A complex is one twist of the complex of its word without the first
    letter, which for a BFS record is its parent's, so each suffix of a
    witness is twisted at most once per memo.  The algebra is built by the
    first twist, so a store, an enumeration or a pair scan over a graph that
    has none (an infinite label, or one vertex) never asks for it.  The
    store owns the memo and its records refer to it weakly, so it is freed
    with the store even where the records are kept."""

    __slots__ = ("graph", "_algebra", "_complexes", "_k0", "__weakref__")

    def __init__(self, g: CoxeterGraph):
        self.graph = g
        self._algebra = None
        self._complexes: dict[tuple, ProjComplex] = {}
        self._k0: dict[tuple, tuple] = {}  # k0 coordinates of checked records

    def __len__(self) -> int:
        """The number of distinct complexes built, untwisted ones included."""
        return len(self._complexes)

    @property
    def algebra(self) -> ZigzagAlgebra:
        """The zigzag algebra of the graph, built on first use."""
        if self._algebra is None:
            self._algebra = zigzag(self.graph)
        return self._algebra

    def twisted(self, record: CurveRecord) -> ProjComplex:
        """The record's witness applied to P_(seed vertex), twisted from the
        longest suffix of the witness already held.  Raises ValueError
        unless the record's coordinates are the k0 class of that complex,
        so a record supplies its stored vector only where its witness makes
        it."""
        word, vertex = key = (record.witness, record.seed_vertex)
        complexes = self._complexes
        for k in range(len(word) + 1):
            x = complexes.get((word[k:], vertex))
            if x is not None:
                break
        else:
            x = complexes[((), vertex)] = projective(self.algebra, vertex)
        validate_word(self.graph, word[:k])
        for k in range(k - 1, -1, -1):
            letter = word[k]
            x = apply_twist(x, abs(letter), 1 if letter > 0 else -1)
            complexes[(word[k:], vertex)] = x
        coords = self._k0.get(key)
        if coords is None:
            coords = self._k0[key] = k0_class(x).coords
        if record.coords != coords:
            raise ValueError(
                f"stored coordinates of witness {record.witness} at vertex "
                f"{record.seed_vertex} are not its vector"
            )
        return x


class CurveStore:
    """Curve records with exact-vector deduplication and a root-key index.
    `memo` holds the twisted projectives that `confirm_pair` builds for the
    store's records; it lives as long as the store."""

    def __init__(self, g: CoxeterGraph):
        self.graph = g
        self.records: list[CurveRecord] = []
        self.by_root: dict[tuple, list[int]] = {}
        self._seen: set[tuple] = set()
        self.memo = TwistMemo(g)
        self._memo_ref = weakref.ref(self.memo)

    def __len__(self) -> int:
        return len(self.records)

    def insert(self, record: CurveRecord) -> bool:
        """Add the record unless its vector is already stored.  The stored
        record refers to this store's memo; this is the one place that sets
        a record's handle."""
        key = record.coords
        if key in self._seen:
            return False
        if record.memo_ref is not self._memo_ref:
            record = CurveRecord(key, record.witness, record.seed_vertex, self._memo_ref)
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


def enumerate_curves(g: CoxeterGraph, budget: int = 10000) -> CurveStore:
    """Breadth-first orbit enumeration: apply every generator and inverse to
    every stored curve, starting from the basis roots, until the store holds
    `budget` records or the orbit is exhausted."""
    if type(budget) is not int:
        raise ValueError("budget must be an int")
    if budget < g.n:
        raise ValueError("budget must cover the basis roots")
    store = CurveStore(g)
    for s in g.vertices():
        store.insert_witness((), s)
    letters = [sign * j for j in g.vertices() for sign in (1, -1)]
    records = store.records  # the BFS queue: records past `head` are unexpanded
    head = 0
    while head < len(records) and len(store) < budget:
        parent = records[head]
        head += 1
        vec, word, s = parent.vector(g), parent.witness, parent.seed_vertex
        for letter in letters:
            rec = CurveRecord(act(g, (letter,), vec).coords, (letter,) + word, s)
            if store.insert(rec) and len(store) >= budget:
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
    if type(criterion) is not int or criterion not in (1, 2):
        raise ValueError("criterion must be 1 or 2")
    if limit is not None and (type(limit) is not int or limit < 0):
        raise ValueError("limit must be a non-negative int")
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
    """Run the categorical check and the final matrix gate on one pair, with
    the outcome `criterion1` or `criterion2` gives on the witness words.

    Each twisted projective comes from the memo of the store that holds the
    record (a fresh memo serves records that no store of `g` holds), so a
    search twists each record once.  The pairing is that of the records'
    stored vectors, each first checked against the k0 class of its complex;
    a record whose witness does not make its vector raises ValueError.  The
    check comes before the pairing is read, so both records are twisted even
    for a pair that the pairing rejects; every `find_pairs` hit passes it."""
    if type(criterion) is not int or criterion not in (1, 2):
        raise ValueError("criterion must be 1 or 2")
    fresh = None
    complexes = []
    for record in pair:
        memo = record.memo_ref and record.memo_ref()
        if memo is None or memo.graph != g:
            if fresh is None:
                fresh = TwistMemo(g)
            memo = fresh
        complexes.append(memo.twisted(record))
    r1, r2 = pair
    return _pairing_criterion(
        CRITERION_COMMUTATOR if criterion == 1 else CRITERION_BRAID_RELATOR,
        g,
        ((r1.witness, r1.seed_vertex), (r2.witness, r2.seed_vertex)),
        pairing(r1.vector(g), r2.vector(g)),
        lambda: complexes,
    )


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
    ring = IntegersMod(p)  # refuses a modulus that is not an int >= 2
    ctx = garside_context(g)  # raises NotFiniteType early for bad graphs
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
    if state.is_trivial():
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


class _Band(NamedTuple):
    """One walk step: right multiplication by the dual matrix of a
    reflection lift W sigma_j W^-1, which is I + u v^T with u = M(W) e_j and
    v^T = -(row j of the dual Gram matrix) M(W^-1).  `factor` is (u, v,
    offset) as `matrices._rank_one_factors` packs it."""

    refl: int
    lift: tuple
    factor: tuple


@lru_cache(maxsize=8, typed=True)
def _walk_bands(g: CoxeterGraph, p: int) -> tuple:
    """(identity, bands): the packed identity matrix that every walk starts
    from, and one `_Band` per reflection, built once per (graph, p) and
    shared by every walk.

    Every Hurwitz lift is literally a word W sigma_j W^-1 (a Hurwitz move
    conjugates one such word by another), so its dual matrix is the rank-one
    update I + u v^T.  That is checked exactly against the lift's matrix
    over Z reduced mod p, which shares no slot arithmetic with the packed
    u and v, and a mismatch raises."""
    ctx = garside_context(g)
    ring = IntegersMod(p)
    one = LaurentPoly.one(ring)
    zero = LaurentPoly.zero(ring)
    lifts = [ctx.reflection_lifts[t] for t in ctx.refl_ids]
    factors = []
    for lift in lifts:
        half = len(lift) // 2
        conj, j = lift[:half], lift[half]
        if j < 0 or lift[half + 1 :] != inverse_word(conj):
            raise AssertionError(f"lift {lift} is not a conjugate of a generator")
        u = word_matrix(g, conj, DUAL, ring).column(j).coords
        # row j of M(sigma_j) - I is minus row j of the dual Gram matrix
        r = [-b for b in gram_matrix(g, DUAL, ring)[j - 1]]
        inverse = word_matrix(g, inverse_word(conj), DUAL, ring)
        v = tuple(LaurentPoly.dot(r, col) for col in zip(*inverse.rows))
        rank_one = tuple(
            tuple((one if a == b else zero) + ua * vb for b, vb in enumerate(v))
            for a, ua in enumerate(u)
        )
        if word_matrix(g, lift, DUAL, ZZ).reduce_mod(p).rows != rank_one:
            raise AssertionError(f"the matrix of lift {lift} is not I + u v^T")
        factors.append((u, v))
    identity, packed = _rank_one_factors(p, factors)
    bands = tuple(
        _Band(t, lift, factor) for t, lift, factor in zip(ctx.refl_ids, lifts, packed)
    )
    return identity, bands


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
    fix_vertex: int = 1,
) -> dict:
    """Seeded random walk in the dual positive monoid mod p.  Each step
    right-multiplies by a uniformly random reflection band, updates the dual
    matrix incrementally, and files the braid under its (canonical length,
    spread) bucket.  Words whose matrix fixes alpha_{fix_vertex} up to a
    signed power of q are verified before being reported.  `target` names
    that test and takes no other value.  A run is reproducible for a fixed
    seed.

    The matrix is kept packed and each step is a rank-one update
    (`matrices._PackedMatrix.times`).  Once the spread passes SPREAD_CAP the
    walk restarts from a braid saved in the lowest-spread bucket whose spread
    is at most SPREAD_CAP // 2: those buckets keep each braid's bands (its
    word is their lifts), packed matrix (with its spread) and normal form
    (gamma power and factors), so a restart recomputes nothing.  Other
    buckets only count their braids.

    `counters` reports the steps, restarts, fix-vector hits (new words whose
    matrix fixes alpha_i up to a signed power of q, each one verified) and
    their outcomes: certified, or rejected by clause.

    Words, buckets and the manifest's graph edges are tuples in the result;
    they serialise as JSON lists."""
    if type(budget) is not int or budget < 0:
        raise ValueError("budget must be a non-negative int")
    if type(seed) is not int:
        raise ValueError("seed must be an int")
    if target != "fix_vector":
        raise ValueError("target must be 'fix_vector'")
    validate_vertex(g, fix_vertex)
    ctx = garside_context(g)
    identity, bands = _walk_bands(g, p)
    rng = random.Random(seed)
    restart_spread = SPREAD_CAP // 2
    path: list[_Band] = []  # the braid so far, one band per step
    matrix = identity
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
        if matrix.spread > SPREAD_CAP:
            restarts += 1
            usable = [k for k, kept in saved.items() if kept]
            if usable:
                key = min(usable, key=lambda k: (k[1], k[0]))
                kept_path, matrix, k, factors = rng.choice(list(saved[key]))
                path = list(kept_path)
                nf = ctx.restore_nf_state(k, factors)
            else:
                path = []
                matrix = identity
                nf = ctx.new_nf_state(())
        band = bands[rng.randrange(len(bands))]
        path.append(band)
        matrix = matrix.times((band.factor,))
        nf.push_simple(band.refl)
        key = _bucket_key(nf.canonical_length(), matrix.spread)
        filed[key] = filed.get(key, 0) + 1
        if matrix.spread <= restart_spread:
            if key not in saved:
                saved[key] = deque(maxlen=BUCKET_CAPACITY)
            saved[key].append((tuple(path), matrix, nf.k, nf.factors()))
        if key[0] == 0:
            continue
        fixing = matrix.fixing_exponent(fix_vertex)
        if fixing is None:
            continue
        word = tuple(letter for b in path for letter in b.lift)
        if word in seen_hits:
            continue
        seen_hits.add(word)
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
            "fix_vector_hits": len(candidates),
            "certified": len(certificates),
            "rejected": dict(sorted(rejected.items())),
        },
    }
