"""Curve enumeration, pair scanning, the mod-p verifier, and bucket walks."""

import json

import pytest

from burau.criteria import KernelCertificate, Rejection, verify_kernel_word
from burau.fixtures import affine_fixture, d4_fixture
from burau.garside import NotFiniteType
from burau.graphs import inverse_word, preset
from burau.laurent import IntegersMod
from burau.matrices import DUAL, is_identity, pairing, spread, word_matrix
from burau.search import (
    BucketKey,
    CurveStore,
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
    g = preset("A3")
    store = CurveStore(g)
    assert store.insert_witness((2, 1), 1)
    assert store.insert_witness((2, -3), 3)
    assert find_pairs(store, 1) == []
    kept = find_pairs(store, 1, skip_common_prefix=False)
    assert len(kept) == 1


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


def test_bucket_key_validation():
    BucketKey(0, 0)
    with pytest.raises(ValueError):
        BucketKey(-1, 0)
    with pytest.raises(ValueError):
        BucketKey(0, -2)


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
    with pytest.raises(NotFiniteType):
        bucket_search(preset("tildeA2"), 5, 10, seed=0)
