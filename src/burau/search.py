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

Everything here is deterministic: the curve search takes no seed, and a walk
is reproducible for a fixed seed.
"""

from __future__ import annotations

import json
import random
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from operator import mul

from .criteria import (
    CRITERION_TWIST_QUOTIENT,
    KernelCertificate,
    Rejection,
    seal_certificate,
    criterion1,
    criterion2,
    graph_json,
)
from .garside import garside_context, is_trivial_braid, samecurve_check
from .graphs import INF, CoxeterGraph, commutator_word, validate_word
from .laurent import ZZ, IntegersMod, LaurentPoly
from .matrices import (
    DUAL,
    STANDARD,
    BurauVector,
    act,
    basis_vector,
    gram_matrix,
    identity_matrix,
    is_identity,
    pairing,
    spread,
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
                    "root_key": list(r.root_key),
                    "length_key": r.length_key,
                }
                for r in self.records
            ],
        }

    @staticmethod
    def from_json(data: dict) -> "CurveStore":
        gj = data["graph"]
        edges = [
            (i, j, INF if m == "inf" else int(m)) for i, j, m in gj["edges"]
        ]
        g = CoxeterGraph.from_edges(gj["n"], edges)
        store = CurveStore(g)
        for r in data["records"]:
            store.insert(
                CurveRecord(
                    coords=tuple(
                        LaurentPoly.from_json_terms(ZZ, t) for t in r["coords"]
                    ),
                    witness=tuple(r["witness"]),
                    seed_vertex=r["seed_vertex"],
                    root_key=tuple(r["root_key"]),
                    length_key=r["length_key"],
                )
            )
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
    skip_common_prefix: bool = True,
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
        if (
            skip_common_prefix
            and r1.witness
            and r2.witness
            and r1.witness[0] == r2.witness[0]
        ):
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
    identity status ride along as diagnostics."""
    validate_word(g, beta)
    if p < 2:
        raise ValueError("p must be at least 2")
    garside_context(g)  # raises NotFiniteType early for bad graphs
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
    if is_trivial_braid(g, kernel):
        return Rejection(
            CRITERION_TWIST_QUOTIENT,
            "trivial-braid",
            "the commutator is the trivial braid, so it certifies nothing",
        )
    report = samecurve_check(g, beta, i)
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


@dataclass(frozen=True)
class BucketKey:
    """Walk position descriptor: number of simples in the normal form and
    spread of the dual Burau matrix mod p."""

    canonical_length: int
    spread: int

    def __post_init__(self) -> None:
        if self.canonical_length < 0 or self.spread < 0:
            raise ValueError("bucket keys are non-negative")


@lru_cache(maxsize=8)
def _walk_bands(g: CoxeterGraph, p: int) -> tuple:
    """(reflection, lift word, dual matrix of the lift mod p) per reflection,
    built once per (graph, p) and shared by every walk."""
    ctx = garside_context(g)
    ring = IntegersMod(p)
    lifts = ctx.reflection_lifts
    return tuple(
        (t, lifts[t], word_matrix(g, lifts[t], DUAL, ring)) for t in ctx.refl_ids
    )


def bucket_search(
    g: CoxeterGraph,
    p: int,
    budget: int,
    seed: int,
    target: str = "fix_vector",
    fix_vertex: int = 1,
    bucket_capacity: int = 64,
    spread_cap: int = 8,
) -> dict:
    """Seeded random walk in the dual positive monoid mod p.  Each step
    right-multiplies by a uniformly random reflection band, updates the dual
    matrix incrementally, and files the braid under its (canonical length,
    spread) bucket.  Hits of the chosen target are verified before being
    reported.  A run is reproducible for a fixed seed."""
    if budget < 0:
        raise ValueError("budget must be non-negative")
    if target not in ("fix_vector", "spread_zero"):
        raise ValueError("target must be 'fix_vector' or 'spread_zero'")
    if target == "fix_vector" and not 1 <= fix_vertex <= g.n:
        raise ValueError(f"vertex {fix_vertex} out of range 1..{g.n}")
    ctx = garside_context(g)
    ring = IntegersMod(p)
    bands = _walk_bands(g, p)
    rng = random.Random(seed)
    word: list[int] = []
    mat = identity_matrix(g, ring)
    nf = ctx.new_nf_state(word)
    buckets: dict[BucketKey, deque] = {}
    candidates = []
    certificates = []
    seen_hits = set()

    def restart():
        nonlocal word, mat, nf, mat_spread
        keys = sorted(buckets, key=lambda k: (k.spread, k.canonical_length))
        usable = [k for k in keys if k.spread <= spread_cap // 2 and buckets[k]]
        if usable:
            key = usable[0]
            word = list(rng.choice(list(buckets[key])))
        else:
            word = []
        mat = word_matrix(g, word, DUAL, ring)
        mat_spread = spread(mat)
        nf = ctx.new_nf_state(word)

    mat_spread = 0  # the identity matrix
    for step in range(budget):
        if mat_spread > spread_cap:
            restart()
        t, lift, band = bands[rng.randrange(len(bands))]
        word.extend(lift)
        mat = mat.mat_mul(band)
        nf.push_simple(t)
        mat_spread = spread(mat)
        key = BucketKey(nf.canonical_length(), mat_spread)
        buckets.setdefault(key, deque(maxlen=bucket_capacity)).append(tuple(word))
        if key.canonical_length == 0:
            continue
        if target == "spread_zero":
            if key.spread == 0 and tuple(word) not in seen_hits:
                seen_hits.add(tuple(word))
                candidates.append(
                    {
                        "step": step,
                        "word": list(word),
                        "bucket": [key.canonical_length, key.spread],
                        "status": "spread-zero",
                    }
                )
        else:
            fixing = _fixing_exponent(mat.column(fix_vertex), fix_vertex)
            if fixing is None or tuple(word) in seen_hits:
                continue
            seen_hits.add(tuple(word))
            outcome = verify_bigelow3(g, tuple(word), fix_vertex, p)
            entry = {
                "step": step,
                "word": list(word),
                "bucket": [key.canonical_length, key.spread],
                "fix_exponent": fixing[0],
                "fix_sign": fixing[1],
            }
            if isinstance(outcome, KernelCertificate):
                entry["status"] = "certified"
                certificates.append(outcome)
            else:
                entry["status"] = f"rejected:{outcome.clause}"
            candidates.append(entry)
    return {
        "manifest": {
            "graph": graph_json(g),
            "p": p,
            "budget": budget,
            "seed": seed,
            "target": target,
            "fix_vertex": fix_vertex if target == "fix_vector" else None,
            "bucket_capacity": bucket_capacity,
            "spread_cap": spread_cap,
        },
        "candidates": candidates,
        "certificates": [c.to_json() for c in certificates],
        "buckets": {
            f"{k.canonical_length},{k.spread}": len(v)
            for k, v in sorted(
                buckets.items(), key=lambda kv: (kv[0].canonical_length, kv[0].spread)
            )
        },
    }
