"""Curve enumeration, pair scanning, the mod-p verifier, and bucket walks."""

import hashlib
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from burau.criteria import KernelCertificate, Rejection, verify_kernel_word
from burau.fixtures import affine_fixture, d4_fixture
from burau.garside import NotFiniteType, _NFState, samecurve_check
from burau.graphs import CoxeterGraph, inverse_word, preset
from burau.laurent import IntegersMod
from burau.matrices import (
    DUAL,
    identity_matrix,
    is_identity,
    pairing,
    spread,
    word_matrix,
)
from burau.search import (
    CurveStore,
    _fixing_exponent,
    _identity_rows,
    _packed_fixing_exponent,
    _walk_bands,
    _walk_step,
    bucket_search,
    confirm_pair,
    curve_record,
    enumerate_curves,
    find_pairs,
    verify_bigelow3,
)

D4_FIX_DATA = {6: (-6, 1), 11: (-10, 1), 16: (-15, -1)}


def test_curve_record_of_empty_word_is_the_basis_root():
    g = preset("A3")
    rec = curve_record(g, (), 2)
    assert rec.witness == ()
    assert rec.seed_vertex == 2
    assert rec.root_key == (0, 1, 0)
    assert rec.length_key == 1
    assert str(rec.vector(g)) == "(0, 1, 0)"


def test_record_keys_are_recomputable_from_the_witness():
    g = preset("tildeA3")
    store = enumerate_curves(g, budget=60)
    for rec in store.records:
        again = curve_record(g, rec.witness, rec.seed_vertex)
        assert again.coords == rec.coords
        assert again.root_key == rec.root_key
        assert again.length_key == rec.length_key


def test_enumerate_single_seed_depth_one():
    store = enumerate_curves(preset("A2"), seeds=[1], budget=5, max_depth=1)
    assert [r.witness for r in store.records] == [(), (1,), (-1,), (2,), (-2,)]
    # the depth cutoff caps the orbit even with budget to spare
    capped = enumerate_curves(preset("A2"), seeds=[1], budget=500, max_depth=1)
    assert len(capped) == 5


def test_enumeration_is_a_prefix_of_a_larger_run():
    g = preset("tildeA3")
    small = enumerate_curves(g, budget=40)
    large = enumerate_curves(g, budget=90)
    assert len(small) == 40
    assert len(large) == 90
    assert large.records[:40] == small.records


def test_budget_must_cover_the_seeds():
    g = preset("A3")
    with pytest.raises(ValueError):
        enumerate_curves(g, budget=2)
    with pytest.raises(ValueError):
        enumerate_curves(g, budget=0)


def test_store_keeps_one_record_per_vector():
    store = enumerate_curves(preset("A2"), budget=30, max_depth=2)
    keys = [r.coords for r in store.records]
    assert len(set(keys)) == len(keys)
    # sigma_1 sigma_1^-1 moves nothing, so alpha_1 is already stored
    assert not store.insert_witness((1, -1), 1)
    assert len(store) == len(keys)


def test_find_pairs_on_basis_roots():
    store = enumerate_curves(preset("A3"), budget=3, max_depth=0)
    orthogonal = find_pairs(store, 1)
    assert [(r1.seed_vertex, r2.seed_vertex) for r1, r2 in orthogonal] == [(1, 3)]
    crossing = find_pairs(store, 2)
    assert [(r1.seed_vertex, r2.seed_vertex) for r1, r2 in crossing] == [
        (1, 2),
        (2, 3),
    ]
    with pytest.raises(ValueError):
        find_pairs(store, 3)


def test_find_pairs_skips_common_first_letters():
    # both witnesses start with sigma_2, so the pair is a left-translate of
    # ((1,), 1), ((-3,), 3); it is skipped although its pairing vanishes
    g = preset("A3")
    store = CurveStore(g)
    assert store.insert_witness((2, 1), 1)
    assert store.insert_witness((2, -3), 3)
    r1, r2 = store.records
    assert pairing(r1.vector(g), r2.vector(g)).is_zero()
    assert find_pairs(store, 1) == []


def test_find_pairs_respects_limit_and_root_filter():
    g = preset("tildeA3")
    store = enumerate_curves(g, budget=120)
    fx = affine_fixture()
    (a, i1), (b, i2) = fx.witnesses
    store.insert_witness(a, i1)
    store.insert_witness(b, i2)
    ra = curve_record(g, a, i1)
    rb = curve_record(g, b, i2)
    assert ra.root_key == (1, 0, 0, -1)
    assert rb.root_key == (0, 0, -1, 1)
    pairs = find_pairs(store, 1, root_filter=(ra.root_key, rb.root_key))
    assert any(
        r1.witness == a and r2.witness == b for r1, r2 in pairs
    ) or any(r1.witness == b and r2.witness == a for r1, r2 in pairs)
    just_one = find_pairs(store, 1, limit=1)
    assert len(just_one) <= 1


def test_find_pairs_limit_zero_returns_nothing_and_negative_is_refused():
    store = enumerate_curves(preset("A3"), budget=60)
    assert len(find_pairs(store, 1, limit=1)) == 1
    assert find_pairs(store, 1, limit=0) == []
    with pytest.raises(ValueError):
        find_pairs(store, 1, limit=-1)


def _visited_pairs(store, root_filter=None):
    """The pairs find_pairs visits, in its order: both slices of the root
    filter (or the whole store), minus pairs whose witnesses share a first
    letter."""
    recs = store.records
    if root_filter is None:
        pairs = [(a, b) for a in range(len(recs)) for b in range(a + 1, len(recs))]
    elif root_filter[0] == root_filter[1]:
        left = store.by_root.get(root_filter[0], [])
        pairs = [(a, b) for i, a in enumerate(left) for b in left[i + 1 :]]
    else:
        left = store.by_root.get(root_filter[0], [])
        right = store.by_root.get(root_filter[1], [])
        pairs = [(a, b) for a in left for b in right]
    return [
        (recs[a], recs[b])
        for a, b in pairs
        if not (
            recs[a].witness
            and recs[b].witness
            and recs[a].witness[0] == recs[b].witness[0]
        )
    ]


def _exact_scan(store, criterion, root_filter=None):
    """The reference: the exact pairing on every visited pair."""
    g = store.graph
    out = []
    for r1, r2 in _visited_pairs(store, root_filter):
        p = pairing(r1.vector(g), r2.vector(g))
        if p.is_zero() if criterion == 1 else p.signed_q_power() is not None:
            out.append((r1, r2))
    return out


# (graph, budget, root filters): a slice pair rich in criterion-1 hits, one
# rich in criterion-2 hits, and a slice paired with itself
EXACT_SCAN_CASES = [
    (
        "tildeA3",
        100,
        [
            ((0, 0, -1, 0), (1, 0, 0, 0)),
            ((0, 1, 0, 0), (1, 0, 0, 0)),
            ((1, 0, 0, 0), (1, 0, 0, 0)),
        ],
    ),
    (
        "A3",
        60,
        [((0, -1, 1), (1, -1, 0)), ((-1, 0, 0), (0, 1, 0)), ((0, 1, 0), (0, 1, 0))],
    ),
]


@pytest.mark.parametrize("name,budget,filters", EXACT_SCAN_CASES)
def test_find_pairs_equals_an_exact_scan(name, budget, filters):
    store = enumerate_curves(preset(name), budget=budget)
    for criterion in (1, 2):
        for root_filter in [None] + filters:
            expected = _exact_scan(store, criterion, root_filter)
            if root_filter in (None, filters[criterion - 1]):
                assert len(expected) > 3, (criterion, root_filter)
            for limit in (None, 1, 3):
                got = find_pairs(store, criterion, root_filter=root_filter, limit=limit)
                assert got == expected[:limit], (criterion, root_filter, limit)


def test_prefilter_at_q_equal_one_passes_every_pair_and_changes_nothing(monkeypatch):
    # At q0 = 1 the filter sees only the roots at q = 1.  On a slice pair
    # whose roots are orthogonal there (criterion 1), or pair to +-1
    # (criterion 2), every visited pair passes the filter, so the exact
    # pairing alone must produce the same list as the real evaluation point.
    store = enumerate_curves(preset("tildeA3"), budget=300)
    calls = []

    def counting_pairing(x, y):
        calls.append(None)
        return pairing(x, y)

    monkeypatch.setattr("burau.search.pairing", counting_pairing)
    for criterion, root_filter, hits in (
        (1, ((-1, 0, -1, 1), (0, 0, 0, 1)), 60),
        (2, ((-1, 0, -1, 1), (-1, 1, 0, 1)), 66),
    ):
        visited = _visited_pairs(store, root_filter)
        calls.clear()
        expected = find_pairs(store, criterion, root_filter=root_filter)
        assert len(expected) == hits
        assert len(calls) < len(visited)  # the real point prunes
        with monkeypatch.context() as patched:
            patched.setattr("burau.search._Q0", 1)
            calls.clear()
            got = find_pairs(store, criterion, root_filter=root_filter)
            assert len(calls) == len(visited)
        assert got == expected


def test_confirm_pair_produces_a_verified_certificate():
    g = preset("tildeA3")
    fx = affine_fixture()
    (a, i1), (b, i2) = fx.witnesses
    pair = (curve_record(g, a, i1), curve_record(g, b, i2))
    cert = confirm_pair(g, pair, 1)
    assert isinstance(cert, KernelCertificate)
    assert cert.verified
    assert cert.total_hom_dim == 60
    # a basis pair that fails the hom clause comes back as a rejection
    bad = (curve_record(g, (), 1), curve_record(g, (), 3))
    out = confirm_pair(g, bad, 1)
    assert isinstance(out, Rejection)


def test_store_json_round_trip(tmp_path):
    store = enumerate_curves(preset("tildeA3"), budget=50)
    path = tmp_path / "curves.json"
    store.save(path)
    loaded = CurveStore.load(path)
    assert loaded.graph == store.graph
    assert loaded.records == store.records
    assert loaded.by_root == store.by_root
    assert len(loaded) == 50


def test_store_json_rebuilds_the_keys_and_refuses_edited_coords():
    store = enumerate_curves(preset("tildeA3"), budget=50)
    data = store.to_json()
    assert all(set(r) == {"coords", "witness", "seed_vertex"} for r in data["records"])
    # keys in the file are not read: an edited root key changes no index
    data["records"][7]["root_key"] = [9, 9, 9, 9]
    data["records"][7]["length_key"] = 0
    loaded = CurveStore.from_json(data)
    assert loaded.records == store.records
    assert loaded.by_root == store.by_root
    assert (9, 9, 9, 9) not in loaded.by_root
    # coordinates that disagree with the witness are refused
    exponent, coefficient = data["records"][7]["coords"][0][0]
    data["records"][7]["coords"][0][0] = [exponent, coefficient + 1]
    with pytest.raises(ValueError, match="disagree"):
        CurveStore.from_json(data)


def test_verify_bigelow3_certifies_the_bundled_words():
    for p, (exponent, sign) in D4_FIX_DATA.items():
        fx = d4_fixture(p)
        (beta, i) = fx.witnesses[0]
        cert = verify_bigelow3(fx.graph, beta, i, p)
        assert isinstance(cert, KernelCertificate), (p, cert)
        assert cert.verified
        assert cert.fix_exponent == exponent
        diag = dict(cert.diagnostics)
        assert diag["fix_sign"] == sign
        assert diag["standard_form_commutator_identity"] is True
        assert cert.kernel_word == beta + (i,) + inverse_word(beta) + (-i,)
        assert cert.ring == IntegersMod(p)
        assert cert.form is DUAL
        assert verify_kernel_word(cert)


def test_verify_bigelow3_pushes_each_letter_once(monkeypatch):
    # one normal-form state takes beta, sigma_i (the samecurve report), then
    # beta^-1 sigma_i^-1 (the word problem)
    pushed = []
    push_letter = _NFState.push_letter

    def counting_push(state, letter):
        pushed.append(letter)
        push_letter(state, letter)

    fx = d4_fixture(16)
    (beta, i) = fx.witnesses[0]
    report = samecurve_check(fx.graph, beta, i)
    monkeypatch.setattr(_NFState, "push_letter", counting_push)
    cert = verify_bigelow3(fx.graph, beta, i, 16)
    assert isinstance(cert, KernelCertificate)
    assert len(pushed) == 2 * len(beta) + 2 == 414
    diag = dict(cert.diagnostics)
    assert diag["samecurve_zero_gamma_power"] == report.zero_gamma_power
    assert diag["samecurve_append_stays_greedy"] == report.append_stays_greedy
    assert diag["samecurve_atom_free_last_simple"] == report.atom_free_last_simple


def test_verify_bigelow3_rejections_and_errors():
    g = preset("D4")
    empty = verify_bigelow3(g, (), 1, 7)
    assert isinstance(empty, Rejection)
    assert empty.clause == "trivial-braid"
    moved = verify_bigelow3(g, (2,), 1, 7)
    assert isinstance(moved, Rejection)
    assert moved.clause == "fix-vector"
    with pytest.raises(ValueError):
        verify_bigelow3(g, (1,), 1, 1)
    with pytest.raises(NotFiniteType):
        verify_bigelow3(preset("tildeA3"), (1,), 1, 7)


def test_verify_bigelow3_reports_a_failed_seal_as_commutator_matrix(monkeypatch):
    # the seal is the only matrix gate; its failure keeps the clause name
    # that walk results use
    def failing_seal(cert):
        return Rejection(cert.criterion, "verification", "synthetic failure")

    monkeypatch.setattr("burau.search.seal_certificate", failing_seal)
    fx = d4_fixture(7)
    (beta, i) = fx.witnesses[0]
    out = verify_bigelow3(fx.graph, beta, i, 7)
    assert isinstance(out, Rejection)
    assert out.clause == "commutator-matrix"


def test_bucket_search_is_deterministic_and_sound():
    g = preset("A3")
    result = bucket_search(g, 2, 1300, seed=1)
    again = bucket_search(g, 2, 1300, seed=1)
    assert json.dumps(result, sort_keys=True) == json.dumps(again, sort_keys=True)

    statuses = {}
    for c in result["candidates"]:
        statuses[c["status"]] = statuses.get(c["status"], 0) + 1
    assert statuses == {"rejected:trivial-braid": 20, "certified": 1}
    assert len(result["certificates"]) == 1

    cert = result["certificates"][0]
    assert cert["verified"] is True
    assert cert["fix_exponent"] == 6
    assert cert["diagnostics"]["fix_sign"] == 1
    # recompute the kernel matrix from scratch: the final soundness gate
    m = word_matrix(g, cert["kernel_word"], DUAL, IntegersMod(2))
    assert is_identity(m)

    # rejected candidates re-reject with the same clause
    for entry in result["candidates"][:8]:
        outcome = verify_bigelow3(g, tuple(entry["word"]), 1, 2)
        if entry["status"] == "certified":
            assert isinstance(outcome, KernelCertificate)
        else:
            assert isinstance(outcome, Rejection)
            assert entry["status"] == f"rejected:{outcome.clause}"


def test_bucket_search_prefix_property():
    g = preset("A3")
    long_run = bucket_search(g, 2, 400, seed=5)
    short_run = bucket_search(g, 2, 200, seed=5)
    early = [c for c in long_run["candidates"] if c["step"] < 200]
    assert early == short_run["candidates"]


def test_bucket_search_spread_zero_target():
    # hits for this target are stochastic and rare, so the assertions cover
    # the walk mechanics and the hit invariant rather than demanding a find
    g = preset("A2")
    result = bucket_search(g, 3, 600, seed=4, target="spread_zero")
    assert result["manifest"]["fix_vertex"] is None
    assert result["certificates"] == []
    summary = result["buckets"]
    assert summary, "the walk should have filed braids into buckets"
    for key in summary:
        length, sp = (int(part) for part in key.split(","))
        assert length >= 0 and sp >= 0
    ring = IntegersMod(3)
    for entry in result["candidates"]:
        length, sp = entry["bucket"]
        assert entry["status"] == "spread-zero"
        assert length > 0 and sp == 0
        assert spread(word_matrix(g, entry["word"], DUAL, ring)) == 0


def test_bucket_search_zero_budget_and_errors():
    g = preset("A2")
    empty = bucket_search(g, 5, 0, seed=0)
    assert empty["candidates"] == []
    assert empty["certificates"] == []
    with pytest.raises(ValueError):
        bucket_search(g, 5, -1, seed=0)
    with pytest.raises(ValueError):
        bucket_search(g, 5, 10, seed=0, target="orbit")
    with pytest.raises(ValueError):
        bucket_search(g, 5, 10, seed=0, fix_vertex=9)
    with pytest.raises(ValueError, match="no fix vertex"):
        bucket_search(g, 5, 10, seed=0, target="spread_zero", fix_vertex=1)
    with pytest.raises(NotFiniteType):
        bucket_search(preset("tildeA2"), 5, 10, seed=0)


def test_bucket_search_counters_account_for_every_candidate():
    result = bucket_search(preset("A3"), 2, 1300, seed=1)
    counters = result["counters"]
    assert counters == {
        "steps": 1300,
        "restarts": 72,
        "fix_vector_hits": 21,
        "certified": 1,
        "rejected": {"trivial-braid": 20},
    }
    hits = counters["fix_vector_hits"]
    assert hits == counters["certified"] + sum(counters["rejected"].values())
    assert hits == len(result["candidates"])
    assert counters["certified"] == len(result["certificates"])
    spread_run = bucket_search(preset("A2"), 3, 600, seed=4, target="spread_zero")
    assert spread_run["counters"]["fix_vector_hits"] == 0
    assert spread_run["counters"]["steps"] == 600


WALK_GRAPHS = {
    "A3": preset("A3"),
    "D4": preset("D4"),
    "D5": CoxeterGraph.from_edges(5, [(1, 2, 3), (2, 3, 3), (3, 4, 3), (3, 5, 3)]),
}
WALK_MODULI = (2, 3, 6, 7, 16, 257, 2**31 - 1)


@st.composite
def band_walks(draw):
    """A graph, a modulus, a sequence of band indices and a vertex to fix."""
    name = draw(st.sampled_from(sorted(WALK_GRAPHS)))
    g = WALK_GRAPHS[name]
    p = draw(st.sampled_from(WALK_MODULI))
    _, bands = _walk_bands(g, p)
    steps = draw(st.lists(st.integers(0, len(bands) - 1), min_size=1, max_size=24))
    return name, p, steps, draw(st.integers(1, g.n))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(band_walks())
@example(("A3", 2, [2], 1))  # sigma_3 fixes alpha_1: a fix-test hit
@example(("D4", 257, [3, 2, 3], 1))
def test_packed_walk_steps_match_matrix_products(case):
    # the packed rank-one step against full products of lift matrices
    name, p, steps, i = case
    g = WALK_GRAPHS[name]
    ring = IntegersMod(p)
    codec, bands = _walk_bands(g, p)
    rows, low = _identity_rows(g.n), 0
    mat = identity_matrix(g, ring)
    for index in steps:
        band = bands[index]
        rows, low, packed_spread = _walk_step(codec, rows, low, band)
        mat = mat.mat_mul(word_matrix(g, band.lift, DUAL, ring))
        assert tuple(tuple(codec.unpack(x, low) for x in row) for row in rows) == mat.rows
        assert packed_spread == spread(mat)
        assert _packed_fixing_exponent(codec, g, rows, low, i) == _fixing_exponent(
            mat.column(i), i
        )


# sha256 of the JSON of `bucket_search(graph, p, 600, 3, target)` without its
# counters, recorded from the walk that multiplied full matrices of
# LaurentPoly entries and replayed each restart word from scratch
PINNED_WALKS = {
    ("A3", 2, "fix_vector"): "e2619b6a6c68e84306e68abfc083dff6d8a84fac90484023eb9b43ab8f445df1",
    ("A3", 2, "spread_zero"): "242904d66cd8aae20b36da0977b9615068dce73d440de1223c00b4906034828b",
    ("A3", 6, "fix_vector"): "a93f651c777c87d1947cd17e511288cabf3d9a27339b67a9eb2574a54686dff1",
    ("A3", 6, "spread_zero"): "f1249d9402798827fc415e0803f8926cc8b089326f9af4f4cfb5696ac8a1d949",
    ("A3", 257, "fix_vector"): "db3c65a9cbdc3a01380a84d765fedbf68dae330cd17d7971fbb0c3aa9d720dd0",
    ("A3", 257, "spread_zero"): "9f47af2299ef087a2a8cc76c2853f972cfc4eba762aeab32688c0528b30a92f5",
    ("D4", 2, "fix_vector"): "33919a7f8afb4b66429872846c1a130ac8f1b32250c1f0b5d7b81856cb7075cd",
    ("D4", 2, "spread_zero"): "fb950fac90149c2b50079f6cf4aad948cc29a794419a3edb23b7d915ad708d27",
    ("D4", 6, "fix_vector"): "6584018a94a74edb250bcd0d8fcbd85b11f0401dd6fb8b7f852c9b23c39ad9d2",
    ("D4", 6, "spread_zero"): "3b1562a9d06ba2bb4b04ac2c64945e10c4cfb0e710370797c9690cc9d12a4972",
    ("D4", 257, "fix_vector"): "ca6bbd57ca41acdd7faa5c6087653787af3df73f863c5f2481b06794039e6abc",
    ("D4", 257, "spread_zero"): "a96ce8a880bb1b05d78679f6a712de2bdf7b014ef72aabfca7566e577e84bbd2",
    ("D5", 2, "fix_vector"): "d1454674b9eb1385e478103ab8fef4a45173251d35c453ab8c7ede444fc7d0f4",
    ("D5", 2, "spread_zero"): "80c8e28efd6eea80a205eda3cffb9d6b08c6e0a060ccde20c1390dc673b984d3",
    ("D5", 6, "fix_vector"): "1a66bb5930e7c0785e6155c750f6b6e0cb67d2479ff6fbf379d032e668edc1c0",
    ("D5", 6, "spread_zero"): "ee43e4d94491194e57330a97551cf01ff2778421cbb8b3e8ab10ae2535ea1160",
    ("D5", 257, "fix_vector"): "f302f9412a5aa24bef3405be5cda92102baa835501dd5533aaa06063a31f15f7",
    ("D5", 257, "spread_zero"): "49da4408fb2bbadfd7ea315d8e2e2662b64ff9825852cef5d48e82d2dc5248f4",
}


@pytest.mark.parametrize("name,p,target", sorted(PINNED_WALKS))
def test_bucket_search_reproduces_pinned_walks(name, p, target):
    result = bucket_search(WALK_GRAPHS[name], p, 600, 3, target=target)
    del result["counters"]
    blob = json.dumps(result, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == PINNED_WALKS[(name, p, target)]
