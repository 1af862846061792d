"""Counterexample search harnesses; `criteria` builds what they certify.

Two complementary strategies.  Over the integers, curves (orbit vectors of
the standard Burau action) are enumerated breadth-first from the basis roots,
indexed by their root at q = 1, and scanned for pairs whose pairing vanishes
or is a signed power of q (a modular prefilter prunes the scan, the exact
pairing decides); candidate pairs are then confirmed categorically, from
each record's twisted complex, which its store's `TwistMemo` builds once, by
one `act_complex` from the complex of the longest suffix of the witness held.
A generator changes one coordinate, so a child in the enumeration costs one
coordinate update from the generator's row (`laurent.row_step`), with the
rows read once per enumeration.  Each store keeps a table of its distinct
coordinate values, each under a small int id with one shared `LaurentPoly`
and its value at q = 1, and dedupes vectors by one int key, the coordinate
ids in fixed 32-bit lanes; a child updates one lane of its parent's key.
The scan evaluates each distinct coordinate once per point, packs the right
records' images at q0 mod a prime into fixed-width slots of a few big ints,
so its filter takes a left record against a whole block of right records
in n big-int products and a slotwise reduction; only the pairs it passes
reach the first-letter skip and the exact pairing, the dot product of the
left vector's bar with the right vector's Gram image, each computed at most
once per scan (and, in the confirm, once per record in the store's memo).
Over Z/pZ, a seeded random walk in the dual positive monoid files braids into
buckets keyed by canonical length and spread, watching for words that fix a
basis root up to a power of q; fixing words feed the twist-quotient
verifier, `criteria.verify_bigelow3`.

Each walk step multiplies by the dual matrix of a reflection lift
W sigma_j W^-1, which is a rank-one update I + u v^T.  The walk keeps its
matrix mod p as the packed value that `word_matrix` steps mod p, built by
`matrices.rank_one_factors`: one big int per column, whose `times` takes a
step M -> M + (M u) v^T in one big-int product per non-zero entry of u and
of v and one reduction per changed column.  It carries its spread, its
lanes are wide enough for every spread the walk steps from, and its fix
test decodes only a column that can pass.  Buckets that restarts can choose
keep each braid's packed matrix and normal-form state beside its bands, so
a restart recomputes nothing.

Everything here is deterministic: the curve search takes no seed, and a walk
is reproducible for a fixed seed.
"""

from __future__ import annotations

import json
import random
import struct
import weakref
from collections import Counter, deque
from dataclasses import dataclass, field
from functools import lru_cache
from operator import mul
from typing import NamedTuple

from .complexes import ProjComplex, act_complex, k0_class, projective
from .criteria import (
    KernelCertificate,
    criterion_shape,
    pairing_criterion,
    verify_bigelow3,
)
from .garside import garside_context
from .graphs import (
    CoxeterGraph,
    graph_from_json,
    graph_json,
    inverse_word,
    validate_vertex,
    validate_word,
)
from .laurent import ZZ, IntegersMod, LaurentPoly, row_step
from .matrices import (
    DUAL,
    BurauVector,
    act,
    basis_vector,
    generator_row,
    gram_image,
    gram_matrix,
    rank_one_factors,
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
    algebra: one entry per checked record, under its (witness, seed vertex),
    of the witness's complex, its k0 coordinates, and the `gram_image` of
    the record's vector once a confirm asks for it.  A new record's complex
    is one `act_complex` of the letters that no held entry covers, applied
    to the complex of the longest proper suffix of the witness that the
    memo holds (for a BFS record, its parent's once that is confirmed), else
    to P_(seed vertex).  The algebra is built by the first twist, so a
    store, an enumeration or a pair scan over a graph that has none (an
    infinite label, or one vertex) never asks for it.  The store owns the
    memo and its records refer to it weakly, so it is freed with the store
    even where the records are kept."""

    __slots__ = ("graph", "_algebra", "_entries", "__weakref__")

    def __init__(self, g: CoxeterGraph):
        self.graph = g
        self._algebra = None
        self._entries: dict[tuple, list] = {}  # [complex, k0 coords, gram image]

    def __len__(self) -> int:
        """The number of records twisted, one complex each."""
        return len(self._entries)

    @property
    def algebra(self) -> ZigzagAlgebra:
        """The zigzag algebra of the graph, built on first use."""
        if self._algebra is None:
            self._algebra = zigzag(self.graph)
        return self._algebra

    def twisted(self, record: CurveRecord) -> ProjComplex:
        """The record's witness applied to P_(seed vertex).  Raises
        ValueError unless the record's coordinates are the k0 class of that
        complex, so a record supplies its stored vector only where its
        witness makes it."""
        word, vertex = key = (record.witness, record.seed_vertex)
        entries = self._entries
        entry = entries.get(key)
        if entry is None:
            for k in range(1, len(word) + 1):
                held = entries.get((word[k:], vertex))
                if held is not None:
                    x = held[0]
                    break
            else:
                k, x = len(word), projective(self.algebra, vertex)
            x = act_complex(self.graph, word[:k], x)
            entry = entries[key] = [x, k0_class(x).coords, None]
        if record.coords != entry[1]:
            raise ValueError(
                f"stored coordinates of witness {record.witness} at vertex "
                f"{record.seed_vertex} are not its vector"
            )
        return entry[0]

    def gram_image(self, record: CurveRecord) -> tuple:
        """The `gram_image` of the record's vector, computed once per memo.
        The record must be one that `twisted` has checked: its coordinates
        are the k0 class of its witness's complex, else ValueError."""
        entry = self._entries.get((record.witness, record.seed_vertex))
        if entry is None or entry[1] != record.coords:
            raise ValueError(
                f"the record of witness {record.witness} at vertex "
                f"{record.seed_vertex} has not been checked against its complex"
            )
        if entry[2] is None:
            entry[2] = gram_image(record.vector(self.graph))
        return entry[2]


class CurveStore:
    """Curve records with exact-vector deduplication and a root-key index.
    Its coordinate table maps each distinct coordinate `(low, coeffs)` to a
    small int id, with the one `LaurentPoly` that every record holding it
    shares and its value at q = 1.  A vector's key is one int, its ids in
    fixed 32-bit lanes (coordinate k in bits [32k, 32k + 32)), so dedupe
    hashes one int per record.  The table, and `memo`, the twisted
    projectives that `confirm_pair` builds for the records, live as long as
    the store."""

    def __init__(self, g: CoxeterGraph):
        self.graph = g
        self.records: list[CurveRecord] = []
        self.by_root: dict[tuple, list[int]] = {}
        self._ids: dict[tuple, int] = {}  # (low, coeffs) -> coordinate id
        self._polys: list[LaurentPoly] = []  # id -> the shared coordinate
        self._sums: list[int] = []  # id -> its value at q = 1
        self._lanes = struct.Struct(f"<{g.n}I")  # key <-> its n coordinate ids
        self._keys: list[int] = []  # the key of each record
        self._seen: set[int] = set()
        self.memo = TwistMemo(g)
        self._memo_ref = weakref.ref(self.memo)

    def __len__(self) -> int:
        return len(self.records)

    def _intern(self, c: LaurentPoly) -> int:
        """The id of the coordinate value c, entered in the table if new."""
        i = self._ids.setdefault((c.low, c.coeffs), len(self._polys))
        if i == len(self._polys):
            self._polys.append(c)
            self._sums.append(sum(c.coeffs))
        return i

    def insert(self, record: CurveRecord) -> bool:
        """Add the record unless its vector is already stored.  The stored
        record holds the table's coordinates and refers to this store's
        memo.  A record that is not n coordinates over Z, whose seed vertex
        is not a vertex of the graph, or whose witness is not a word over
        it, raises ValueError, since `from_json` could not load it back."""
        n, coords = self.graph.n, record.coords
        if len(coords) != n or not all(type(c) is LaurentPoly and c.ring == ZZ for c in coords):
            raise ValueError(f"a curve record is {n} coordinates over Z")
        validate_vertex(self.graph, record.seed_vertex)
        validate_word(self.graph, record.witness)
        ids = [self._intern(c) for c in coords]
        key = int.from_bytes(self._lanes.pack(*ids), "little")
        coords = tuple(self._polys[i] for i in ids)
        root = tuple(self._sums[i] for i in ids)
        return self._keep(key, coords, root, record.witness, record.seed_vertex)

    def _keep(
        self, key: int, coords: tuple, root_key: tuple, witness: tuple, vertex: int
    ) -> bool:
        """The one place that keeps a record: unless a vector with this key
        is already stored, build the record from `coords`, the table's
        coordinates for the key, with this store's memo as its handle, and
        index it under `root_key`, which must be its root key."""
        seen = self._seen
        size = len(seen)
        seen.add(key)
        if len(seen) == size:
            return False
        self.by_root.setdefault(root_key, []).append(len(self.records))
        self.records.append(CurveRecord(coords, witness, vertex, self._memo_ref))
        self._keys.append(key)
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
    `budget` records or the orbit is exhausted.

    A letter changes only its own coordinate k, so a child costs one
    `row_step` with the letter's generator row, read once per enumeration,
    one lookup of the new coordinate in the store's coordinate table, and
    one lane update of its parent's key: lane k takes the new coordinate's
    id.  A child equal to its parent is dropped before any lookup, and the
    letter that undoes the witness's first letter is not tried: its child
    is the parent's parent, already stored.  Root keys are read from the
    table's values at q = 1.  Equal coordinates of different records are
    one object (602 distinct values among 10^4 tildeA3 records)."""
    if type(budget) is not int:
        raise ValueError("budget must be an int")
    if budget < g.n:
        raise ValueError("budget must cover the basis roots")
    store = CurveStore(g)
    for s in g.vertices():
        store.insert_witness((), s)
    steps = [
        (letter, abs(letter) - 1, 32 * (abs(letter) - 1), generator_row(g, letter))
        for j in g.vertices()
        for letter in (j, -j)
    ]
    records = store.records  # the BFS queue: records past `head` are unexpanded
    keys, ids, polys, sums = store._keys, store._ids, store._polys, store._sums
    keep, intern, lanes = store._keep, store._intern, store._lanes
    head = 0
    while head < len(records) and len(records) < budget:
        parent = records[head]
        key = keys[head]
        head += 1
        coords, word, s = parent.coords, parent.witness, parent.seed_vertex
        parent_ids = lanes.unpack(key.to_bytes(lanes.size, "little"))
        root = tuple(sums[i] for i in parent_ids)
        undo = -word[0] if word else 0
        for letter, k, shift, row in steps:
            if letter == undo:
                continue
            new = row_step(row, coords)
            old = coords[k]
            if new.low == old.low and new.coeffs == old.coeffs:
                continue  # the letter fixes the parent
            i = ids.get((new.low, new.coeffs))
            if i is None:
                i = intern(new)
            child = coords[:k] + (polys[i],) + coords[k + 1 :]
            child_root = root[:k] + (sums[i],) + root[k + 1 :]
            child_key = key + ((i - parent_ids[k]) << shift)
            if keep(child_key, child, child_root, (letter,) + word, s) and len(records) >= budget:
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
# right records are packed _BLOCK to an int, so a slice paired with itself
# computes at most _BLOCK - 1 slots below a left record's range
_BLOCK = 512


def _poly_mod(poly: LaurentPoly, q: int, q_inv: int) -> int:
    """The polynomial at q mod P, with q_inv = q^-1 mod P: a negative power
    is a power of q_inv, not a fresh modular inverse."""
    total = 0
    for c in reversed(poly.coeffs):
        total = (total * q + c) % _P
    low = poly.low
    return total * (pow(q, low, _P) if low >= 0 else pow(q_inv, -low, _P)) % _P


def _evaluation_points(g: CoxeterGraph, criterion: int) -> tuple:
    """(q, q^-1, G(q)) mod P for each point the criterion evaluates at: q0,
    and q0^2 for criterion 2.  G is the Gram matrix of the standard form."""
    qs = (_Q0,) if criterion == 1 else (_Q0, _Q0 * _Q0 % _P)
    points = []
    for q in qs:
        q_inv = pow(q, -1, _P)
        gram = tuple(tuple(_poly_mod(b, q, q_inv) for b in row) for row in gram_matrix(g))
        points.append((q, q_inv, gram))
    return tuple(points)


def _coordinates_at(records, q: int, q_inv: int) -> list:
    """Each record's coordinates at q mod P, one `_poly_mod` per distinct
    coordinate object: a store's records share one object per coordinate
    value (its coordinate table), so that is one per distinct value."""
    objects = {id(c): c for r in records for c in r.coords}
    at = {k: _poly_mod(c, q, q_inv) for k, c in objects.items()}.__getitem__
    return [tuple(map(at, map(id, r.coords))) for r in records]


def _left_images(records, point) -> list:
    """x(q^-1) mod P at the point, for each record's vector x."""
    q, q_inv, _ = point
    return _coordinates_at(records, q_inv, q)


def _right_images(records, point) -> list:
    """G(q).y(q) mod P at the point, for each record's vector y.  The pairing
    of x with y evaluates at q to the dot product of x's left image with
    y's right image."""
    q, q_inv, gram = point
    return [
        tuple(sum(map(mul, row, at_q)) % _P for row in gram)
        for at_q in _coordinates_at(records, q, q_inv)
    ]


def _slot_width(n: int) -> int:
    """Bits per slot, in whole 64-bit words: room for a sum of n products of
    residues below P, so 128 for n up to 64."""
    return -(-(n * (_P - 1) ** 2).bit_length() // 64) * 64


def _pack_blocks(rights, n: int) -> list:
    """The right images packed for `_passing`: `rights` holds, per
    evaluation point, one image (n residues) per right record, in scan
    order.  The records are cut into blocks of at most _BLOCK, evenly
    sized, and a block is (first position, count, packed), where packed
    holds per point n ints, int i carrying coordinate i of image k in slot
    k, bits [k width, (k + 1) width) with width `_slot_width(n)`."""
    width = _slot_width(n)
    words = width // 64
    m = len(rights[0])
    size = -(-m // -(-m // _BLOCK)) if m else 1  # m over the number of blocks
    blocks = []
    for lo in range(0, m, size):
        packed = []
        for images in rights:
            columns = []
            for column in zip(*images[lo : lo + size]):
                buf = [0] * (len(column) * words)
                buf[::words] = column
                columns.append(int.from_bytes(struct.pack(f"<{len(buf)}Q", *buf), "little"))
            packed.append(tuple(columns))
        blocks.append((lo, min(size, m - lo), packed))
    return blocks


@lru_cache(maxsize=16)
def _slot_masks(n: int, count: int) -> tuple:
    """(width, ones, low, high, folds) for `count` slots of the width for
    n: 1, the low 61 bits and the bits from 61 up of every slot, and the
    number of Mersenne folds that take any slot value to at most 2P - 1."""
    width = _slot_width(n)
    ones = ((1 << width * count) - 1) // ((1 << width) - 1)
    folds, bound = 0, (1 << width) - 1
    while bound >= 2 * _P:
        # 2^61 = 1 mod P, so the bits from 61 up fold onto the low 61 bits
        folds, bound = folds + 1, _P + (bound >> 61)
    return width, ones, ones * _P, ones * ((1 << width - 61) - 1), folds


def _slot_residues(x, packed, count: int) -> tuple:
    """The residues mod P of x . image_k for the `count` images of one
    block at one point: n big-int by small-int products (a slot holds the
    whole sum, so none carries into the next), Mersenne folds under
    slotwise masks that reduce every slot at once, and the slots read off
    in C as explicit little-endian 64-bit words."""
    width, ones, low, high, folds = _slot_masks(len(x), count)
    s = sum(map(mul, x, packed))
    for _ in range(folds):
        s = (s & low) + (s >> 61 & high)
    # a slot is now at most 2P - 1; take P off those at P or above
    s -= ((s + ones) >> 61 & ones) * _P
    words = width // 64
    raw = struct.unpack(f"<{count * words}Q", s.to_bytes(count * width // 8, "little"))
    return raw[::words]


def _passing(xs, blocks, start: int) -> list:
    """The right positions k >= start whose pair with a left record passes
    the filter, ascending; `xs` holds the left record's image at each
    point and `blocks` the right images from `_pack_blocks`.  At one point
    (criterion 1) a pair passes when its value is 0; at two (criterion 2)
    when its value v at q0 is non-zero and its value at q0^2 is +-v^2."""
    passed = []
    for lo, count, packed in blocks:
        if lo + count <= start:
            continue
        first = max(start - lo, 0)
        v1 = _slot_residues(xs[0], packed[0], count)
        if len(xs) == 1:
            k = first - 1
            for _ in range(v1[first:].count(0)):
                k = v1.index(0, k + 1)
                passed.append(lo + k)
        else:
            v2 = _slot_residues(xs[1], packed[1], count)
            passed += [
                lo + k
                for k in range(first, count)
                if (v := v1[k]) and v2[k] in ((sq := v * v % _P), _P - sq)
            ]
    return passed


def find_pairs(
    store: CurveStore,
    criterion: int,
    root_filter=None,
    limit: int | None = None,
) -> list:
    """Scan stored curve pairs for the pairing condition of the chosen
    criterion: exactly zero (1) or a signed power of q (2).  A root filter,
    two root keys (tuples or lists of n ints), restricts the scan to two
    indexed slices; pairs whose witnesses start with the same letter are
    skipped as redundant left-translates of a pair already considered.
    `limit` caps the number of pairs returned; it must be non-negative, and
    0 returns no pairs.

    A prefilter only prunes.  Each distinct coordinate value of the scanned
    records is evaluated once per side, at a fixed point q0 modulo the prime
    P = 2^61 - 1 (at q0^-1 for the left records).  The right images
    are packed, coordinate by coordinate, into ints of up to _BLOCK
    fixed-width slots, so a left record costs n big-int by small-int
    products per block, a few slotwise Mersenne folds that reduce every
    slot mod P at once, and one read of the slots in C.  Criterion 1 drops
    a pair whose pairing is non-zero at q0; criterion 2 drops it unless
    p(q0) is non-zero and p(q0^2) = +-p(q0)^2.  A pair meeting the condition
    exactly always passes, and every pair that passes, unless its first
    letters agree, is decided by the exact pairing, the dot product of the
    left vector's bar with the right vector's `gram_image`, each computed at
    most once per call, in the order left record, then right record."""
    criterion_shape(criterion)  # refuses anything but 1 or 2
    if limit is not None and (type(limit) is not int or limit < 0):
        raise ValueError("limit must be a non-negative int")
    g = store.graph
    if root_filter is not None and not (
        isinstance(root_filter, (tuple, list))
        and all(isinstance(k, (tuple, list)) and all(type(c) is int for c in k) for k in root_filter)
        and [len(k) for k in root_filter] == [g.n, g.n]
    ):
        raise ValueError(f"root_filter must be two root keys of {g.n} ints each")
    if limit == 0:
        return []
    recs = store.records
    if root_filter is None:
        left = right = range(len(recs))
    else:
        k1, k2 = map(tuple, root_filter)
        left = store.by_root.get(k1, [])
        right = left if k1 == k2 else store.by_root.get(k2, [])
    # a slice paired with itself visits each unordered pair once
    triangle = left is right
    points = _evaluation_points(g, criterion)
    lefts = list(zip(*(_left_images([recs[a] for a in left], pt) for pt in points)))
    rights = [_right_images([recs[b] for b in right], pt) for pt in points]
    blocks = _pack_blocks(rights, g.n)
    images = [None] * len(right)  # gram_image of each right record, once
    out = []
    for pos, a in enumerate(left):
        passed = _passing(lefts[pos], blocks, pos + 1 if triangle else 0)
        r1 = recs[a]
        letter = r1.witness[:1]
        bar_x = None
        for k in passed:
            r2 = recs[right[k]]
            if letter and r2.witness[:1] == letter:
                continue
            if bar_x is None:
                bar_x = [c.bar() for c in r1.coords]
            y = images[k]
            if y is None:
                y = images[k] = gram_image(r2.vector(g))
            p = LaurentPoly.dot(bar_x, y)
            if p.is_zero() if criterion == 1 else p.signed_q_power() is not None:
                out.append((r1, r2))
                if limit is not None and len(out) >= limit:
                    return out
    return out


def confirm_pair(g: CoxeterGraph, pair, criterion: int):
    """Run the categorical check and the final matrix gate on one pair, with
    the outcome `criterion1` or `criterion2` gives on the witness words.

    Each twisted projective comes from the memo of the store that holds the
    record (a fresh memo serves records that no store of `g` holds), which
    keeps one complex per record, so a search twists each record once.  The
    pairing is that of the records' stored vectors, each first checked
    against the k0 class of its complex; a record whose witness does not
    make its vector raises ValueError.  The check comes before the pairing
    is read, so both records are twisted even for a pair that the pairing
    rejects; every `find_pairs` hit passes it.  The pairing is the dot
    product of the first vector's bar with the second's Gram image, which
    the memo keeps in the second record's entry.  A criterion other than 1
    or 2, or not two records, raises before any twist."""
    shape = criterion_shape(criterion)
    if len(pair) != 2:
        raise ValueError(f"a pair is two records, not {len(pair)}")
    fresh = TwistMemo(g)
    memos = []
    for record in pair:
        memo = record.memo_ref and record.memo_ref()
        if memo is None or memo.graph != g:
            memo = fresh
        memos.append(memo)
    complexes = [memo.twisted(record) for memo, record in zip(memos, pair)]
    r1, r2 = pair
    witnesses = ((r1.witness, r1.seed_vertex), (r2.witness, r2.seed_vertex))
    p = LaurentPoly.dot([c.bar() for c in r1.coords], memos[1].gram_image(r2))
    return pairing_criterion(shape, g, witnesses, p, lambda: complexes)


class _Band(NamedTuple):
    """One walk step: right multiplication by the dual matrix of a
    reflection lift W sigma_j W^-1, which is I + u v^T with u = M(W) e_j and
    v^T = -(row j of the dual Gram matrix) M(W^-1).  `factor` is (u, v,
    offset, growth) as `matrices.rank_one_factors` packs it."""

    refl: int
    lift: tuple
    factor: tuple


@lru_cache(maxsize=8, typed=True)
def _walk_bands(g: CoxeterGraph, p: int) -> tuple:
    """(identity, bands): the packed identity matrix that every walk starts
    from, and one `_Band` per reflection, built once per (graph, p) and
    shared by every walk.  The identity's lanes are widened once for every
    spread up to SPREAD_CAP, above which a walk restarts, so no walk step
    has to lay its matrix out again.

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
    identity, packed = rank_one_factors(p, factors)
    identity = identity.widened(SPREAD_CAP, packed)
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

    The matrix is kept packed, one big int per column, and each step is a
    rank-one update that changes only the columns where v is non-zero
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
