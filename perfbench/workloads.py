"""The four benchmark workloads, each a run a user of `burau` makes.

Every workload has the same shape:

* `setup()` is what a fresh process pays before any work: building graphs,
  loading fixtures, `zigzag()` and `garside_context()` (both caches start
  empty in a new process, which is how every CLI call starts);
* `inputs(ctx, seed)` builds the seeded work list and a dict of notes about
  it; it is not timed;
* `run_pass(ctx, work, record)` does the work once through the public API
  and calls `record(start, end)` once per timed unit.  With `record=None`
  (the traced pass and its untraced reference) every call runs once and
  nothing is timed;
* `check(ctx, work, outcomes)` is the correctness gate for one pass: it
  returns the number of units checked and a list of failure messages;
* `summary(outcomes)` is the semantic part of the output, hashed into the
  run's result digest.
"""

from __future__ import annotations

import hashlib
import json
import random
from time import perf_counter

D5_EDGES = ((1, 2, 3), (2, 3, 3), (3, 4, 3), (3, 5, 3))


def digest(summary) -> str:
    blob = json.dumps(summary, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _timed(record, fn, *args):
    if record is None:
        return fn(*args)
    start = perf_counter()
    out = fn(*args)
    record(start, perf_counter())
    return out


def _fresh_gate(cert) -> bool:
    from burau.criteria import KernelCertificate, verify_kernel_word

    return isinstance(cert, KernelCertificate) and cert.verified and verify_kernel_word(cert)


def _outcome_summary(out):
    from burau.criteria import KernelCertificate

    if isinstance(out, KernelCertificate):
        return {
            "criterion": out.criterion,
            "kernel_word": list(out.kernel_word),
            "ring": str(out.ring),
            "total_hom_dim": out.total_hom_dim,
            "fix_exponent": out.fix_exponent,
            "verified": out.verified,
        }
    return {"rejected": out.clause}


class VerifyFixtures:
    """All 13 bundled certificates, on the path `burau verify all` takes:
    criterion 1 on the two affine fixtures, the twist-quotient verifier on
    D4 mod p for p = 6..16.  The corpus is fixed, so the seed is unused."""

    name = "verify_fixtures"
    setup_covers = "import; all_fixtures() (tildeA3, D4, both word files); garside_context(D4); zigzag(tildeA3)"
    units = "one fixture: criterion1 or verify_bigelow3"
    # digest of the 13 certificates (kernel words, rings, hom dimensions,
    # fixing exponents) at the commit that introduced the benchmark
    expected_digest = "13b48801240f194584137f11a134b981d8bc5a3ec9f13eb1764d9e714e235284"
    walk_bands = 0

    def setup(self):
        from burau.fixtures import all_fixtures
        from burau.garside import garside_context
        from burau.graphs import preset
        from burau.zigzag import zigzag

        fixtures = all_fixtures()
        garside_context(preset("D4"))
        zigzag(preset("tildeA3"))
        return {"fixtures": fixtures}

    def inputs(self, ctx, seed):
        return ctx["fixtures"], {}

    def run_pass(self, ctx, work, record):
        from burau.criteria import criterion1
        from burau.search import verify_bigelow3

        outcomes = []
        for fx in work:
            if fx.graph_name == "tildeA3":
                (w1, i1), (w2, i2) = fx.witnesses
                out = _timed(record, criterion1, w1, i1, w2, i2, fx.graph)
            else:
                ((beta, i),) = fx.witnesses
                p = int(fx.ring_label.split("/")[1])
                out = _timed(record, verify_bigelow3, fx.graph, beta, i, p)
            outcomes.append((fx.name, out))
        return outcomes

    def check(self, ctx, work, outcomes):
        failures = [
            f"{name}: certificate missing or fails the fresh matrix gate"
            for name, out in outcomes
            if not _fresh_gate(out)
        ]
        if digest(self.summary(outcomes)) != self.expected_digest:
            failures.append("the certificates differ from the bundled ones")
        return len(outcomes), failures

    def summary(self, outcomes):
        return [[name, _outcome_summary(out)] for name, out in outcomes]


# Slice pairs of the tildeA3 curve store at budget 10^4 (plus the two
# witness records): (root key, root key, exact hits, certificates).  The
# acceptance slice holds the bundled affine pair.  The pool holds every slice
# pair whose roots are orthogonal at q = 1 and whose product of sizes lies in
# 8000..16000, so seeds draw scans of comparable size.  Hits and certificate
# counts are exact outputs at this commit and are part of the gate.
ACCEPTANCE_SLICE = ((1, 0, 0, -1), (0, 0, -1, 1), 1064, 1)
SLICE_POOL = (
    ((1, -2, 1, -1), (-2, 2, -2, 1), 216, 0),
    ((1, -1, 1, -2), (-2, 1, -2, 2), 140, 0),
    ((2, -1, 1, -1), (2, -2, 1, -2), 254, 0),
    ((-1, 1, -2, 1), (1, -2, 2, -2), 186, 0),
    ((1, -1, 1, -2), (2, -1, 2, -2), 156, 0),
    ((-1, 1, -1, 2), (-2, 1, -2, 2), 144, 0),
    ((-2, 1, -1, 1), (2, -2, 1, -2), 246, 0),
    ((-1, 1, -1, 2), (2, -1, 2, -2), 176, 0),
    ((0, 1, -1, 1), (-2, 2, -1, 2), 150, 0),
    ((1, -1, 2, -1), (1, -2, 2, -2), 212, 0),
    ((1, 0, 1, -1), (2, -2, 2, -1), 159, 0),
    ((0, -1, 1, -1), (-2, 2, -1, 2), 173, 0),
    ((-1, 0, -1, 1), (2, -2, 2, -1), 176, 0),
    ((-1, 1, 0, 1), (-1, 2, -2, 2), 192, 0),
    ((0, 0, -1, 0), (-1, 2, -2, 2), 121, 0),
    ((1, -1, 0, -1), (-1, 2, -2, 2), 190, 0),
    ((0, 0, 1, 0), (-1, 2, -2, 2), 164, 0),
    ((1, 0, 1, -1), (-2, 2, -2, 1), 203, 0),
    ((0, 0, 0, -1), (-2, 1, -2, 2), 191, 0),
    ((1, -1, 1, 0), (-2, 1, -2, 2), 112, 0),
    ((0, 0, 0, 1), (-2, 1, -2, 2), 246, 0),
    ((0, 1, -1, 1), (2, -2, 1, -2), 234, 0),
    ((0, 0, 0, -1), (2, -1, 2, -2), 209, 0),
    ((-1, 0, -1, 1), (-2, 2, -2, 1), 219, 0),
    ((-1, 1, -1, 0), (-2, 1, -2, 2), 84, 0),
    ((1, -1, 1, 0), (2, -1, 2, -2), 156, 0),
    ((0, 0, 0, 1), (2, -1, 2, -2), 272, 0),
    ((-1, 1, -1, 0), (2, -1, 2, -2), 120, 0),
    ((1, 0, 0, 0), (-2, 2, -1, 2), 222, 0),
)


class CurveSearch:
    """The acceptance-scale curve search over Z on tildeA3: enumerate 10^4
    curves, insert the witness words, scan the acceptance slice and one
    seeded slice pair for criterion 1, and confirm every hit.  The timed
    units are the acceptance slice's confirm_pair calls, each called once."""

    name = "curve_search"
    setup_covers = "import; preset(tildeA3); affine_fixture(); zigzag(tildeA3)"
    units = "one confirm_pair on an acceptance-slice hit"
    walk_bands = 0

    def setup(self):
        from burau.fixtures import affine_fixture
        from burau.graphs import preset
        from burau.zigzag import zigzag

        g = preset("tildeA3")
        fx = affine_fixture()
        zigzag(g)
        return {"graph": g, "witnesses": fx.witnesses}

    def inputs(self, ctx, seed):
        seeded = random.Random(seed).choice(SLICE_POOL)
        return (ACCEPTANCE_SLICE, seeded), {"seeded_slice": [list(seeded[0]), list(seeded[1])]}

    def run_pass(self, ctx, work, record):
        from burau.search import confirm_pair, enumerate_curves, find_pairs

        g = ctx["graph"]
        store = enumerate_curves(g, budget=10**4)
        for word, vertex in ctx["witnesses"]:
            store.insert_witness(word, vertex)
        outcomes = []
        for k1, k2, _, _ in work:
            pairs = find_pairs(store, 1, root_filter=(k1, k2))
            if (k1, k2) == ACCEPTANCE_SLICE[:2]:
                confirmed = [(pr, _timed(record, confirm_pair, g, pr, 1)) for pr in pairs]
            else:
                # the seeded slice's hits are slower to confirm and vary in
                # number, so timing them would tie op_p50_ms to the seed
                confirmed = [(pr, confirm_pair(g, pr, 1)) for pr in pairs]
            outcomes.append(((k1, k2), confirmed))
        return outcomes

    def check(self, ctx, work, outcomes):
        from burau.criteria import KernelCertificate
        from burau.matrices import pairing

        g = ctx["graph"]
        bundled = {(tuple(w), i) for w, i in ctx["witnesses"]}
        failures = []
        units = 0
        for slice_, (_, confirmed) in zip(work, outcomes):
            k1, k2, hits, certs = slice_
            units += 1 + len(confirmed)
            if len(confirmed) != hits:
                failures.append(f"slice {k1} x {k2}: {len(confirmed)} hits, expected {hits}")
            found = 0
            for (r1, r2), out in confirmed:
                if not pairing(r1.vector(g), r2.vector(g)).is_zero():
                    failures.append(f"hit {r1.witness} x {r2.witness} has non-zero pairing")
                if isinstance(out, KernelCertificate):
                    found += 1
                    if not _fresh_gate(out):
                        failures.append(f"certificate for {r1.witness} fails the gate")
            if found != certs:
                failures.append(f"slice {k1} x {k2}: {found} certificates, expected {certs}")
            if slice_ == ACCEPTANCE_SLICE and not any(
                {(r1.witness, r1.seed_vertex), (r2.witness, r2.seed_vertex)} == bundled
                and _fresh_gate(out)
                for (r1, r2), out in confirmed
            ):
                failures.append("the bundled affine pair was not found and certified")
        return units, failures

    def summary(self, outcomes):
        return [
            [
                [list(k1), list(k2)],
                [
                    [list(r1.witness), r1.seed_vertex, list(r2.witness), r2.seed_vertex,
                     _outcome_summary(out)]
                    for (r1, r2), out in confirmed
                ],
            ]
            for (k1, k2), confirmed in outcomes
        ]


# Result digests of bucket_walk at the commit that introduced the benchmark,
# by seed: each pins every walk's candidates (step, word, status) and
# certificates.  Seeds outside this table get the per-candidate checks only.
BUCKET_WALK_DIGESTS = {
    1: "59c87059a6a086f1b2e57592641bf7aadd75b4733e122dc304fd72073c573d1e",
    2: "1278d4a5618442dca9daa5e2e368d2009d5c65fb5f36e5199674f7db67cd0183",
    3: "bfc4c26c761a63d636fa2d62783401b0cbf7675d3ee8cf514468e0a3fcaf604c",
    4: "b1d667d3384ea624982cb713c26c3564954f1e32441997142bdf8d5c2d73de11",
    5: "fe854c0e097fc6e65417cc39904ea1ea9b43c9b4d39f1911bb84530a74ef8328",
    6: "c865b812d28093751fb19498a442e288db124c3e150e8e03ec4a2304471c18d3",
    7: "247c0331507e7fb248641e9c88b0d54d90230f3fec515e2beb629b88ec9a249b",
    8: "d61ef2ac4155e4078e550fba556f52f97e4d14d00d4dd9c4a082d844b7d881d1",
    9: "7034567263db413c69e75311b1201e2b11a91e93f40c4e429f2d642152d9d14e",
    10: "aeda3651032aceb72c7756f0e7a7de177805fead05346c1a67ad54cf6d4cfa9c",
    11: "44b884a59ee92a23c40273244eed6214e765b1c7ffff506feebc04bc5c55f76e",
    12: "e4e975541e299c647e398fb7d5918a2e561bb032c84577bb2c32ffaf0a20aa66",
    13: "381fe1caaafeac6f2ae65673b03443ea55c581137366436f6ea6a0ce7e17981f",
    14: "a091af4c1fa968f23920b5a4444cba8811f0feeaf8c02fe0aceb5b775a8889d4",
    15: "9eae87810f4878a7a1f048395a5cb343aff22cc7c7a1c185e0643b78255360f0",
    16: "06399c4f364968c5573a39b31e3322de7bb625cb826e6be8ca868b51e858d97f",
    17: "5c2eeaca962a473a3ec5f46d375558f5f70353ea6739418c7732d9bc013cfd58",
    18: "2dbc78adf757e025a2d02efe6eb68dc49d86b02f7b856cb8aa685b4171ae28f1",
    19: "d6a3edfc77e23c744ce3e79e738fd59f1cf3cce1ff34675c006f0b0fcc0cac61",
    20: "b05ba9685ce819a2b65c0e4399af356b279ece427ac46216f786e7cc189bc0c5",
    21: "a1be7c04ba3fe5ac1db9be85e7f165cf308d0debc98dd8fd2e237d2834f815db",
    22: "225bca53ca0668cab214389cab9f80dd07d266fe85969971955ac294ddf3ab31",
    23: "2749cd99eb4e880e7d0c26390bed120155fa81d6032e5922f55e95429cac150c",
    24: "8bc73c7031af388aa7c704acb31fb3596a076279c29592df16db5c6a7b5e8ec0",
    25: "549284896ea720a63b6477752881dfd1c8bacda71c541db5e28d701e46176b61",
    26: "6a8ace5226c68de6732a0c4fd708d2cc27f16eca0924c453039d2cac3acc27c9",
    27: "60ff21064543d47c3c32ab2cd82d9cc88fe323ce44cd6650de1bc5d75492994a",
    28: "b4b42cba95150b929aa00934259f5e9e3837cba7040d719877ee01bd94a3ad29",
    29: "9eb8dbc1921addbdc62333b342ec475263227650c10e490de5061a89b1813747",
    30: "f21e2ff4f5314d80bfbea6e2e8e340b4c8b4b95e09cbe5bc79745aa6890ae413",
    31: "a0b1677db0362aef84f3d910b382d1ccdb39929cb06faafbbefb74b62aba2c25",
    32: "d45c3451e35193296a377b4cbfafe9f5cbaccdccf3a3b45a7aabc99941110050",
}


def _signed_power_of_basis(column, i, ring) -> tuple[int, int] | None:
    """(l, sign) if the vector is sign * q^l alpha_i, else None."""
    if any(not c.is_zero() for j, c in enumerate(column.coords, start=1) if j != i):
        return None
    mono = column.coords[i - 1].as_monomial()
    if mono is None:
        return None
    exponent, coeff = mono
    signs = [s for s in (1, -1) if coeff == ring.normalize(s)]
    return (exponent, signs[0]) if signs else None


class BucketWalk:
    """Seeded `bucket_search` walks on D5 mod 5 with target fix_vector: the
    seed draws one walk seed per slice, and each slice is one call."""

    name = "bucket_walk"
    setup_covers = "import; D5 graph; garside_context(D5)"
    units = "one bucket_search call of 200 steps on one walk seed"
    slices = 64
    steps = 200
    p = 5
    fix_vertex = 1

    def setup(self):
        from burau.garside import garside_context
        from burau.graphs import CoxeterGraph

        g = CoxeterGraph.from_edges(5, list(D5_EDGES))
        ctx = garside_context(g)
        self.walk_bands = len(ctx.refl_ids)
        return {"graph": g}

    def inputs(self, ctx, seed):
        rng = random.Random(seed)
        return (seed, [rng.randrange(2**31) for _ in range(self.slices)]), {}

    def run_pass(self, ctx, work, record):
        from burau.search import bucket_search

        g = ctx["graph"]
        _, walk_seeds = work
        return [
            _timed(record, bucket_search, g, self.p, self.steps, s, "fix_vector", self.fix_vertex)
            for s in walk_seeds
        ]

    def _candidate_failure(self, g, entry) -> str | None:
        """Re-derive one candidate from fresh matrices of its word: the fix
        test, and for a rejection the clause's own condition.  A trivial
        braid has the identity matrix over Z[q, q^-1] too, not only mod p."""
        from burau.graphs import inverse_word
        from burau.laurent import ZZ, IntegersMod
        from burau.matrices import DUAL, is_identity, word_matrix

        ring = IntegersMod(self.p)
        i = self.fix_vertex
        word = tuple(entry["word"])
        column = word_matrix(g, word, DUAL, ring).column(i)
        if _signed_power_of_basis(column, i, ring) != (entry["fix_exponent"], entry["fix_sign"]):
            return f"candidate {word}: fix test disagrees with a fresh word_matrix"
        kernel = word + (i,) + inverse_word(word) + (-i,)
        identity_mod_p = is_identity(word_matrix(g, kernel, DUAL, ring))
        status = entry["status"]
        if status == "rejected:commutator-matrix":
            ok = not identity_mod_p
        elif status == "rejected:trivial-braid":
            ok = identity_mod_p and is_identity(word_matrix(g, kernel, DUAL, ZZ))
        else:
            ok = status == "certified" and identity_mod_p
        return None if ok else f"candidate {word}: status {status} disagrees with fresh matrices"

    def check(self, ctx, work, outcomes):
        from burau.criteria import KernelCertificate, verify_kernel_word
        from burau.search import verify_bigelow3

        g = ctx["graph"]
        failures = []
        for run in outcomes:
            for entry in run["candidates"]:
                failure = self._candidate_failure(g, entry)
                if failure:
                    failures.append(failure)
            for entry in run["certificates"]:
                ((word, vertex),) = [(tuple(w["word"]), w["vertex"]) for w in entry["witnesses"]]
                cert = verify_bigelow3(g, word, vertex, self.p)
                if not (
                    entry["verified"] is True
                    and isinstance(cert, KernelCertificate)
                    and verify_kernel_word(cert)
                    and tuple(entry["kernel_word"]) == cert.kernel_word
                ):
                    failures.append(f"walk certificate for {word} fails the fresh gate")
            certified = sum(c["status"] == "certified" for c in run["candidates"])
            if certified != len(run["certificates"]):
                failures.append("certified candidates and certificates disagree")
        seed, _ = work
        pinned = BUCKET_WALK_DIGESTS.get(seed)
        if pinned is not None and digest(self.summary(outcomes)) != pinned:
            failures.append(f"seed {seed}: the walks differ from the pinned result")
        return len(outcomes), failures

    def summary(self, outcomes):
        return [
            [
                [[c["step"], c["word"], c["status"]] for c in run["candidates"]],
                [c["kernel_word"] for c in run["certificates"]],
            ]
            for run in outcomes
        ]


class TwistHom:
    """Seeded random word pairs on tildeA3: twist two projectives, then the
    hom table.  Unbanded draws are heavy-tailed, so a pair is kept only when
    the product of its two summand counts lies in a fixed band; rejected
    draws are counted."""

    name = "twist_hom"
    setup_covers = "import; preset(tildeA3); zigzag(tildeA3)"
    units = "one word pair: act_complex on both projectives, then hom_table"
    walk_bands = 0
    pairs = 200
    lengths = (10, 14)
    band = (300, 900)

    def setup(self):
        from burau.graphs import preset
        from burau.zigzag import zigzag

        g = preset("tildeA3")
        return {"graph": g, "algebra": zigzag(g)}

    def _word(self, rng, g):
        letters = [s * v for v in g.vertices() for s in (1, -1)]
        word = []
        length = rng.randint(*self.lengths)
        while len(word) < length:
            x = rng.choice(letters)
            if not word or word[-1] != -x:
                word.append(x)
        return tuple(word)

    def inputs(self, ctx, seed):
        from burau.complexes import act_complex, projective

        g, algebra = ctx["graph"], ctx["algebra"]
        rng = random.Random(seed)
        kept = []
        rejected = 0
        while len(kept) < self.pairs:
            w1, w2 = self._word(rng, g), self._word(rng, g)
            i1, i2 = rng.randint(1, g.n), rng.randint(1, g.n)
            n1 = len(act_complex(g, w1, projective(algebra, i1)).summands)
            n2 = len(act_complex(g, w2, projective(algebra, i2)).summands)
            if self.band[0] <= n1 * n2 <= self.band[1]:
                kept.append((w1, i1, w2, i2))
            else:
                rejected += 1
        return kept, {"rejected_draws": rejected}

    def run_pass(self, ctx, work, record):
        from burau.complexes import act_complex, hom_table, projective

        g, algebra = ctx["graph"], ctx["algebra"]
        outcomes = []
        def unit(w1, i1, w2, i2):
            x = act_complex(g, w1, projective(algebra, i1))
            y = act_complex(g, w2, projective(algebra, i2))
            return x, y, hom_table(x, y)

        return [_timed(record, unit, *pair) for pair in work]

    def check(self, ctx, work, outcomes):
        from burau.complexes import k0_class
        from burau.laurent import ZZ, LaurentPoly
        from burau.matrices import act, basis_vector, pairing

        g = ctx["graph"]
        failures = []
        for (w1, i1, w2, i2), (x, y, table) in zip(work, outcomes):
            # each complex decategorifies to the Burau image of its projective
            if k0_class(x) != act(g, w1, basis_vector(g, i1)) or k0_class(y) != act(
                g, w2, basis_vector(g, i2)
            ):
                failures.append(f"pair {w1},{i1} / {w2},{i2}: K0 class != Burau action")
                continue
            # euler_pairing(x, y), evaluated on the table the timed call
            # returned instead of a second hom_table
            acc: dict = {}
            for (gdeg, h), dim in table.items():
                acc[gdeg] = acc.get(gdeg, 0) + (-dim if h % 2 else dim)
            if LaurentPoly.from_dict(ZZ, acc) != pairing(k0_class(x), k0_class(y)):
                failures.append(f"pair {w1},{i1} / {w2},{i2}: Euler pairing != k0 pairing")
        return len(outcomes), failures

    def summary(self, outcomes):
        return [
            [len(x.summands), len(y.summands), sorted([g, h, d] for (g, h), d in table.items())]
            for x, y, table in outcomes
        ]


WORKLOADS = {w.name: w for w in (VerifyFixtures(), CurveSearch(), BucketWalk(), TwistHom())}
