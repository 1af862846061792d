"""End-to-end acceptance checks, one test per numbered criterion.

Every test prints a single summary line, "ACCEPTANCE <n> PASS <label>" or
"ACCEPTANCE <n> FAIL <label>", so a verbose run doubles as a checklist.
Failures carry the offending clause in the assertion message.  Every
comparison in this file is exact equality; nothing carries a tolerance.
"""

import json
import random
import time

from coxeter_oracle import CoxeterGroup, mat_mul, moved_space_dim

from burau.complexes import (
    ProjComplex,
    act_complex,
    euler_pairing,
    hom_table,
    is_spherical,
    k0_class,
    minimize,
    projective,
    total_hom_dim,
)
from burau.criteria import (
    KernelCertificate,
    verify_kernel_word,
)
from burau.fixtures import affine_fixture, d4_fixture
from burau.garside import garside_context, interval, is_trivial_braid
from burau.graphs import conjugated_generator, inverse_word, preset
from burau.laurent import ZZ, IntegersMod, LaurentPoly
from burau.matrices import (
    DUAL,
    STANDARD,
    BurauVector,
    act,
    basis_vector,
    generator_matrix,
    is_identity,
    pairing,
    spread,
    word_matrix,
)
from burau.search import (
    bucket_search,
    confirm_pair,
    curve_record,
    enumerate_curves,
    find_pairs,
    verify_bigelow3,
)
from burau.zigzag import zigzag

# Regression value for the bigraded hom table between the two twisted
# projectives of the affine 4-cycle witness pair (criteria 2 and 3).  The
# total dimension is 60.
HOM_TABLE_REGRESSION = {
    (-7, 5): 1, (-7, 6): 1,
    (-5, 3): 1, (-5, 4): 3, (-5, 5): 2,
    (-3, 2): 3, (-3, 3): 5, (-3, 4): 2,
    (-1, 0): 1, (-1, 1): 4, (-1, 2): 5, (-1, 3): 2,
    (1, -1): 2, (1, 0): 5, (1, 1): 4, (1, 2): 1,
    (3, -2): 2, (3, -1): 5, (3, 0): 3,
    (5, -3): 2, (5, -2): 3, (5, -1): 1,
    (7, -4): 1, (7, -3): 1,
}

# Recorded fixing data for the D4 words mod p: beta sends alpha_1 to
# sign * q^l * alpha_1 under the dual form.  The sign rides along as a
# recorded diagnostic; it squares away in the commutator, so the
# certifying power of the word is unchanged.
D4_FIXING = {
    6: (-6, 1),
    7: (-7, 1),
    8: (-9, -1),
    9: (-12, 1),
    10: (-9, -1),
    11: (-10, 1),
    12: (-5, 1),
    13: (-12, 1),
    14: (-34, 1),
    15: (-11, 1),
    16: (-15, -1),
}

RELATION_PRESETS = ["A2", "A3", "A4", "D4", "tildeA2", "tildeA3", "K4"]

# (reflection count, interval size) for the finite presets.
GARSIDE_SIZES = {"A2": (3, 5), "A3": (6, 14), "D4": (12, 50)}


def _finish(capsys, number, label, failures):
    status = "FAIL" if failures else "PASS"
    with capsys.disabled():
        print(f"\nACCEPTANCE {number} {status} {label}")
    assert not failures, "\n".join(failures)


def _random_word(rng, g, length):
    return [rng.choice([1, -1]) * rng.randrange(1, g.n + 1) for _ in range(length)]


def _random_vector(rng, g):
    coords = []
    for _ in range(g.n):
        terms = {
            rng.randrange(-3, 4): rng.randrange(-4, 5)
            for _ in range(rng.randrange(0, 3))
        }
        coords.append(LaurentPoly.from_dict(ZZ, terms))
    return BurauVector(g, ZZ, tuple(coords))


def test_criterion_1_affine_commutator_in_standard_kernel(capsys):
    failures = []
    fx = affine_fixture()
    g = fx.graph
    (a, i1), (b, i2) = fx.witnesses
    started = time.perf_counter()
    alpha = conjugated_generator(a, i1)
    beta = conjugated_generator(b, i2)
    commutator = alpha + beta + inverse_word(alpha) + inverse_word(beta)
    matrix = word_matrix(g, commutator, STANDARD, ZZ)
    value = pairing(
        act(g, a, basis_vector(g, i1)), act(g, b, basis_vector(g, i2))
    )
    elapsed = time.perf_counter() - started
    if g.n != 4:
        failures.append(f"witness graph has n={g.n}, expected 4")
    if not is_identity(matrix):
        failures.append("commutator is not the identity standard matrix over Z")
    if not value.is_zero():
        failures.append(f"pairing of the twisted roots is {value}, expected 0")
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.3f}s is not under the 1 s budget")
    _finish(
        capsys, 1,
        "affine commutator: identity standard matrix and vanishing pairing",
        failures,
    )


def test_criterion_2_categorical_hom_table_regression(capsys):
    failures = []
    fx = affine_fixture()
    g = fx.graph
    (a, i1), (b, i2) = fx.witnesses
    algebra = zigzag(g)
    started = time.perf_counter()
    x = act_complex(g, a, projective(algebra, i1))
    y = act_complex(g, b, projective(algebra, i2))
    table = hom_table(x, y)
    total = total_hom_dim(x, y)
    elapsed = time.perf_counter() - started
    if total < 1:
        failures.append("total hom dimension is 0, the pair looks trivial")
    if total != 60:
        failures.append(f"total hom dimension is {total}, recorded value is 60")
    if table != HOM_TABLE_REGRESSION:
        failures.append("bigraded hom table drifted from the recorded value")
    if elapsed >= 600.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds the 10 min budget")
    _finish(
        capsys, 2,
        "twisted projectives on the affine 4-cycle have the recorded hom table",
        failures,
    )


def test_criterion_3_variant_words_give_the_same_evidence(capsys):
    failures = []
    fx = affine_fixture(variant=True)
    g = fx.graph
    (a, i1), (b, i2) = fx.witnesses
    started = time.perf_counter()
    alpha = conjugated_generator(a, i1)
    beta = conjugated_generator(b, i2)
    commutator = alpha + beta + inverse_word(alpha) + inverse_word(beta)
    if not is_identity(word_matrix(g, commutator, STANDARD, ZZ)):
        failures.append("variant commutator is not the identity standard matrix")
    value = pairing(
        act(g, a, basis_vector(g, i1)), act(g, b, basis_vector(g, i2))
    )
    if not value.is_zero():
        failures.append(f"variant pairing is {value}, expected 0")
    algebra = zigzag(g)
    x = act_complex(g, a, projective(algebra, i1))
    y = act_complex(g, b, projective(algebra, i2))
    table = hom_table(x, y)
    if total_hom_dim(x, y) < 1:
        failures.append("variant total hom dimension is 0")
    if table != HOM_TABLE_REGRESSION:
        failures.append("variant hom table differs from the recorded value")
    elapsed = time.perf_counter() - started
    if elapsed >= 600.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds the 10 min budget")
    _finish(
        capsys, 3,
        "variant words repeat the identity, pairing, and hom checks",
        failures,
    )


def test_criterion_4_d4_mod_p_twist_quotients(capsys):
    failures = []
    g = preset("D4")
    for p in range(6, 17):
        started = time.perf_counter()
        fx = d4_fixture(p)
        ((beta, i),) = fx.witnesses
        ring = IntegersMod(p)
        exponent, sign = D4_FIXING[p]
        image = act(g, beta, basis_vector(g, i, ring), DUAL)
        wanted = basis_vector(g, i, ring).scale(
            LaurentPoly.from_dict(ring, {exponent: sign})
        )
        if image != wanted:
            failures.append(
                f"p={p}: image of alpha_{i} is {image}, recorded value is "
                f"{'-' if sign < 0 else ''}q^{exponent} alpha_{i}"
            )
        kernel = tuple(beta) + (i,) + inverse_word(tuple(beta)) + (-i,)
        if not is_identity(word_matrix(g, kernel, DUAL, ring)):
            failures.append(f"p={p}: commutator dual matrix mod {p} is not the identity")
        if is_trivial_braid(g, kernel):
            failures.append(f"p={p}: commutator is the trivial braid")
        cert = verify_bigelow3(g, beta, i, p)
        if not isinstance(cert, KernelCertificate) or not cert.verified:
            failures.append(f"p={p}: verifier rejected the bundled word: {cert}")
        else:
            diagnostics = dict(cert.diagnostics)
            if cert.fix_exponent != exponent:
                failures.append(
                    f"p={p}: fixing exponent {cert.fix_exponent}, recorded {exponent}"
                )
            if diagnostics["fix_sign"] != sign:
                failures.append(
                    f"p={p}: fixing sign {diagnostics['fix_sign']}, recorded {sign}"
                )
            if diagnostics["standard_form_commutator_identity"] is not True:
                failures.append(
                    f"p={p}: standard-form identity status changed from recorded True"
                )
        elapsed = time.perf_counter() - started
        if elapsed >= 60.0:
            failures.append(f"p={p}: runtime {elapsed:.1f}s exceeds the 1 min budget")
    _finish(
        capsys, 4,
        "D4 mod-p quotients: fixing power, dual kernel, non-trivial braid, p=6..16",
        failures,
    )


def test_criterion_5_relations_hold_for_both_forms(capsys):
    failures = []
    for name in RELATION_PRESETS:
        g = preset(name)
        for form in (STANDARD, DUAL):
            tag = f"{name}/{form.variant}"
            for i in g.vertices():
                if not is_identity(word_matrix(g, [i, -i], form, ZZ)):
                    failures.append(f"{tag}: sigma_{i} inverse fails on the right")
                if not is_identity(word_matrix(g, [-i, i], form, ZZ)):
                    failures.append(f"{tag}: sigma_{i} inverse fails on the left")
            for i, j in g.edges():
                if word_matrix(g, [i, j, i], form, ZZ) != word_matrix(
                    g, [j, i, j], form, ZZ
                ):
                    failures.append(f"{tag}: braid relation fails on edge ({i},{j})")
            for i in g.vertices():
                for j in g.vertices():
                    if i < j and g.labels(i, j) == 2:
                        if word_matrix(g, [i, j], form, ZZ) != word_matrix(
                            g, [j, i], form, ZZ
                        ):
                            failures.append(f"{tag}: generators {i},{j} do not commute")
        for i in g.vertices():
            m = generator_matrix(g, i, 1, STANDARD, ZZ)
            ints = [[e.evaluate(-1) for e in row] for row in m.rows]
            n = g.n
            square = [
                [sum(ints[r][k] * ints[k][c] for k in range(n)) for c in range(n)]
                for r in range(n)
            ]
            if square != [[1 if r == c else 0 for c in range(n)] for r in range(n)]:
                failures.append(f"{name}: sigma_{i} at q=-1 does not square to 1")
    _finish(
        capsys, 5,
        "braid, inverse, and q=-1 relations hold on the preset graphs",
        failures,
    )


def test_criterion_6_pairing_properties(capsys):
    failures = []
    rng = random.Random(60)
    graphs = [preset(name) for name in ("A2", "A3", "D4", "tildeA3")]
    checked = 0
    for g in graphs:
        for _ in range(250):
            x = _random_vector(rng, g)
            y = _random_vector(rng, g)
            letter = rng.choice([1, -1]) * rng.randrange(1, g.n + 1)
            if pairing(act(g, [letter], x), act(g, [letter], y)) != pairing(x, y):
                failures.append(
                    f"invariance fails on {g.n}-vertex graph, letter {letter}, "
                    f"x={x}, y={y}"
                )
                break
            checked += 1
    if not failures and checked != 1000:
        failures.append(f"only {checked} invariance cases ran, expected 1000")
    for g in (preset("A3"), preset("D4")):
        for _ in range(100):
            x = _random_vector(rng, g)
            y = _random_vector(rng, g)
            f = LaurentPoly.from_dict(ZZ, {rng.randrange(-2, 3): rng.randrange(-3, 4)})
            h = LaurentPoly.from_dict(ZZ, {rng.randrange(-2, 3): rng.randrange(-3, 4)})
            if pairing(x.scale(f), y.scale(h)) != f.bar() * h * pairing(x, y):
                failures.append(f"sesquilinearity fails for f={f}, h={h}")
                break
    q2 = LaurentPoly.from_dict(ZZ, {2: 1})
    for g in (preset("A3"), preset("D4")):
        for _ in range(100):
            x = _random_vector(rng, g)
            y = _random_vector(rng, g)
            if pairing(y, x) != q2 * pairing(x, y).bar():
                failures.append(f"duality fails for x={x}, y={y}")
                break
    _finish(
        capsys, 6,
        "pairing is sesquilinear, action-invariant, and satisfies duality",
        failures,
    )


def test_criterion_7_decategorification_suite(capsys):
    failures = []
    rng = random.Random(70)
    names = ["A3", "D4", "tildeA3"]

    for name in names:
        g = preset(name)
        algebra = zigzag(g)
        for _ in range(30):
            w = _random_word(rng, g, rng.randrange(0, 7))
            i = rng.randrange(1, g.n + 1)
            x = act_complex(g, w, projective(algebra, i))
            if k0_class(x) != act(g, w, basis_vector(g, i)):
                failures.append(f"{name}: K0 class of word {w} at P_{i} is off")

    for name in names:
        g = preset(name)
        algebra = zigzag(g)
        for _ in range(8):
            x = act_complex(
                g, _random_word(rng, g, 4),
                projective(algebra, rng.randrange(1, g.n + 1)),
            )
            y = act_complex(
                g, _random_word(rng, g, 4),
                projective(algebra, rng.randrange(1, g.n + 1)),
            )
            if euler_pairing(x, y) != pairing(k0_class(x), k0_class(y)):
                failures.append(f"{name}: Euler pairing disagrees with the K0 pairing")
                break

    for name in ("A3", "D4"):
        g = preset(name)
        algebra = zigzag(g)
        for _ in range(6):
            x = act_complex(
                g, _random_word(rng, g, 4),
                projective(algebra, rng.randrange(1, g.n + 1)),
            )
            y = act_complex(
                g, _random_word(rng, g, 4),
                projective(algebra, rng.randrange(1, g.n + 1)),
            )
            forward = hom_table(x, y)
            backward = hom_table(y, x)
            if forward != {(2 - gd, -hd): dim for (gd, hd), dim in backward.items()}:
                failures.append(f"{name}: hom duality (g,h) <-> (2-g,-h) fails")
                break

    spherical_checked = 0
    for name, count in zip(names, (34, 33, 33)):
        g = preset(name)
        algebra = zigzag(g)
        for _ in range(count):
            w = _random_word(rng, g, rng.randrange(0, 7))
            i = rng.randrange(1, g.n + 1)
            if not is_spherical(act_complex(g, w, projective(algebra, i))):
                failures.append(f"{name}: act_complex({w}, P_{i}) is not spherical")
            else:
                spherical_checked += 1
    if not failures and spherical_checked != 100:
        failures.append(f"only {spherical_checked} sphericality cases ran")

    g = preset("A3")
    algebra = zigzag(g)
    probes = [projective(algebra, i) for i in g.vertices()]
    for _ in range(6):
        x = act_complex(
            g, _random_word(rng, g, 5),
            projective(algebra, rng.randrange(1, g.n + 1)),
        )
        if minimize(x) != x:
            failures.append("minimize is not stable on an already minimal complex")
        vertex = rng.randrange(1, g.n + 1)
        k = len(x.summands)
        padded = ProjComplex(
            algebra,
            x.summands + ((vertex, 5, 0), (vertex, 5, 1)),
            dict(x.diff) | {(k, k + 1): algebra.e(vertex)},
        )
        reduced = minimize(padded)
        if k0_class(reduced) != k0_class(x):
            failures.append("minimize changed the K0 class")
        if any(
            hom_table(reduced, pr) != hom_table(x, pr)
            or hom_table(pr, reduced) != hom_table(pr, x)
            for pr in probes
        ):
            failures.append("minimize changed a hom table against a projective")
    _finish(
        capsys, 7,
        "K0, Euler pairing, hom duality, sphericality, and minimize invariance",
        failures,
    )


def test_criterion_8_garside_suite(capsys):
    failures = []
    for name, (refl_count, interval_size) in GARSIDE_SIZES.items():
        g = preset(name)
        ctx = garside_context(g)
        if len(ctx.refl_ids) != refl_count:
            failures.append(
                f"{name}: {len(ctx.refl_ids)} reflections, expected {refl_count}"
            )
        # the whole group by brute force, and reflection length as the rank
        # of (matrix - identity), independent of the context's bookkeeping
        group = CoxeterGroup(g)
        gamma = group.fold(ctx.gamma_word)
        oracle = {
            m
            for m in group.elements
            if moved_space_dim(m) + moved_space_dim(mat_mul(group.inverse(m), gamma))
            == ctx.n
        }
        if set(ctx.matrices) != oracle or len(ctx.matrices) != len(oracle):
            failures.append(f"{name}: interval disagrees with the brute-force oracle")
        if len(oracle) != interval_size:
            failures.append(
                f"{name}: interval size {len(oracle)}, expected {interval_size}"
            )
        if spread(word_matrix(g, ctx.gamma_word, DUAL, ZZ)) != 0:
            failures.append(f"{name}: the Coxeter element has non-zero dual spread")
        for s in interval(g):
            if s.length and spread(word_matrix(g, s.lift, DUAL, ZZ)) > 1:
                failures.append(f"{name}: lift of {s} has dual spread above 1")

    ctx = garside_context(preset("D4"))
    mismatched = [
        (a, b)
        for a in range(len(ctx.matrices))
        for b in range(len(ctx.matrices))
        if ctx.left_divides(a, b) != ctx.right_divides(a, b)
    ]
    if mismatched:
        failures.append(
            f"D4: left and right divisibility disagree on {len(mismatched)} "
            "interval pairs"
        )

    rng = random.Random(80)
    graphs = [preset(name) for name in ("A2", "A3", "D4")]
    trivial_checked = 0
    for k in range(500):
        g = graphs[k % len(graphs)]
        w = _random_word(rng, g, rng.randrange(0, 9))
        if not is_trivial_braid(g, tuple(w) + inverse_word(tuple(w))):
            failures.append(f"word problem calls w.w^-1 non-trivial for w={w}")
            break
        trivial_checked += 1
    if not failures and trivial_checked != 500:
        failures.append(f"only {trivial_checked} trivial words ran, expected 500")
    for g in graphs:
        if is_trivial_braid(g, [1]):
            failures.append(f"word problem calls sigma_1 trivial on {g.n} vertices")
    _finish(
        capsys, 8,
        "interval sizes, divisibility symmetry, word problem, and lift spreads",
        failures,
    )


def test_criterion_9_search_soundness(capsys):
    failures = []
    g = preset("A3")
    run = bucket_search(g, 2, 1300, seed=1)
    again = bucket_search(g, 2, 1300, seed=1)
    if json.dumps(run, sort_keys=True) != json.dumps(again, sort_keys=True):
        failures.append("fixed-seed single-worker bucket run is not bit-reproducible")
    if len(run["certificates"]) != 1:
        failures.append(
            f"bucket run emitted {len(run['certificates'])} certificates, expected 1"
        )
    for entry in run["certificates"]:
        if entry["verified"] is not True:
            failures.append("bucket search emitted an unsealed certificate")
        ((word, vertex),) = [
            (tuple(w["word"]), w["vertex"]) for w in entry["witnesses"]
        ]
        cert = verify_bigelow3(g, word, vertex, run["manifest"]["p"])
        if not isinstance(cert, KernelCertificate):
            failures.append(f"re-running the verifier rejected the hit: {cert}")
        elif not verify_kernel_word(cert):
            failures.append("a bucket certificate fails the final matrix gate")
        elif tuple(entry["kernel_word"]) != cert.kernel_word:
            failures.append("emitted kernel word differs from the recomputed one")

    affine = preset("tildeA3")
    fx = affine_fixture()
    (a, i1), (b, i2) = fx.witnesses
    started = time.perf_counter()
    store = enumerate_curves(affine, budget=10**4)
    store.insert_witness(a, i1)
    store.insert_witness(b, i2)
    ra = curve_record(affine, a, i1)
    rb = curve_record(affine, b, i2)
    pairs = find_pairs(store, 1, root_filter=(ra.root_key, rb.root_key))
    hits = [
        pr
        for pr in pairs
        if {(pr[0].witness, pr[0].seed_vertex), (pr[1].witness, pr[1].seed_vertex)}
        == {(tuple(a), i1), (tuple(b), i2)}
    ]
    if len(store) < 10**4:
        failures.append(f"curve store holds {len(store)} records, expected 10^4")
    if not hits:
        failures.append("the seeded witness pair was not found in the curve store")
    else:
        cert = confirm_pair(affine, hits[0], 1)
        if not isinstance(cert, KernelCertificate) or not cert.verified:
            failures.append(f"the seeded pair did not certify: {cert}")
        elif not verify_kernel_word(cert):
            failures.append("the curve-search certificate fails the final matrix gate")
    elapsed = time.perf_counter() - started
    if elapsed >= 60.0:
        failures.append(f"desk-scale run took {elapsed:.1f}s, budget is 1 min")
    _finish(
        capsys, 9,
        "search certificates verify, runs reproduce, and the seeded pair is found",
        failures,
    )
