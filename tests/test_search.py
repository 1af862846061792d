"""Curve enumeration, pair scanning, the mod-p verifier, and bucket walks."""

import dataclasses
import hashlib
import inspect
import json
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import burau.search as search_module
from burau.complexes import act_complex, projective
from burau.criteria import (
    KernelCertificate,
    Rejection,
    criterion1,
    criterion2,
    verify_kernel_word,
)
from burau.fixtures import affine_fixture, d4_fixture
from burau.garside import NotFiniteType, _NFState, samecurve_check
from burau.graphs import INF, CoxeterGraph, inverse_word, preset
from burau.laurent import ZZ, IntegersMod, LaurentPoly
from burau.matrices import (
    DUAL,
    _SlotCodec,
    identity_matrix,
    is_identity,
    pairing,
    spread,
    word_matrix,
)
from burau.search import (
    CurveRecord,
    CurveStore,
    _fixing_exponent,
    _walk_bands,
    bucket_search,
    confirm_pair,
    curve_record,
    enumerate_curves,
    find_pairs,
    verify_bigelow3,
)
from burau.zigzag import zigzag

D4_FIX_DATA = {6: (-6, 1), 11: (-10, 1), 16: (-15, -1)}


def test_curve_record_of_empty_word_is_the_basis_root():
    g = preset("A3")
    rec = curve_record(g, (), 2)
    assert rec.witness == ()
    assert rec.seed_vertex == 2
    assert rec.root_key == (0, 1, 0)
    assert str(rec.vector(g)) == "(0, 1, 0)"


def test_record_keys_are_recomputable_from_the_witness():
    g = preset("tildeA3")
    store = enumerate_curves(g, budget=60)
    for rec in store.records:
        again = curve_record(g, rec.witness, rec.seed_vertex)
        assert again.coords == rec.coords
        assert again.root_key == rec.root_key


def test_curve_record_stores_three_fields_and_computes_its_root_key():
    g = preset("tildeA3")
    # three value fields, plus a weak handle on the store's twist memo that
    # takes no part in comparisons
    fields = [f.name for f in dataclasses.fields(CurveRecord) if f.compare]
    assert fields == ["coords", "witness", "seed_vertex"]
    assert [f.name for f in dataclasses.fields(CurveRecord)][3:] == ["memo_ref"]
    store = enumerate_curves(g, budget=60)
    for rec in store.records:
        assert rec.root_key == tuple(c.evaluate(1) for c in rec.coords)
    # the store indexes every record exactly once, under its root key
    indexed = sorted(i for slice_ in store.by_root.values() for i in slice_)
    assert indexed == list(range(len(store)))
    for key, slice_ in store.by_root.items():
        assert all(store.records[i].root_key == key for i in slice_)


def test_enumerate_is_breadth_first_from_the_basis_roots():
    # every basis root first, then each letter applied to alpha_1 in turn
    store = enumerate_curves(preset("A2"), budget=6)
    assert [r.witness for r in store.records] == [(), (), (1,), (-1,), (2,), (-2,)]
    assert [r.seed_vertex for r in store.records] == [1, 2, 1, 1, 1, 1]


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


def test_enumerate_budget_must_be_an_int():
    g = preset("A3")
    # 10.5 would store 11 records; a bool or a string is not a count either
    for budget in (True, 10.5, "10"):
        with pytest.raises(ValueError, match="int"):
            enumerate_curves(g, budget=budget)
    assert len(enumerate_curves(g, budget=10)) == 10


def test_enumerate_curves_takes_only_a_graph_and_a_budget():
    assert list(inspect.signature(enumerate_curves).parameters) == ["g", "budget"]
    for extra in ({"seeds": [1]}, {"max_depth": 1}):
        with pytest.raises(TypeError):
            enumerate_curves(preset("A2"), budget=5, **extra)


def test_store_keeps_one_record_per_vector():
    store = enumerate_curves(preset("A2"), budget=30)
    keys = [r.coords for r in store.records]
    assert len(set(keys)) == len(keys)
    # sigma_1 sigma_1^-1 moves nothing, so alpha_1 is already stored
    assert not store.insert_witness((1, -1), 1)
    assert len(store) == len(keys)


def test_find_pairs_on_basis_roots():
    store = enumerate_curves(preset("A3"), budget=3)
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


def test_find_pairs_refuses_a_criterion_that_is_not_an_int():
    store = enumerate_curves(preset("A3"), budget=60)
    # True equals 1 and would run criterion 1
    for criterion in (True, 1.0, "1"):
        with pytest.raises(ValueError, match="criterion must be 1 or 2"):
            find_pairs(store, criterion)


def test_find_pairs_refuses_a_limit_that_is_not_an_int():
    store = enumerate_curves(preset("A3"), budget=60)
    # 2.5 would return 3 pairs, True 1 pair
    for limit in (2.5, True, "2"):
        with pytest.raises(ValueError, match="limit must be a non-negative int"):
            find_pairs(store, 1, limit=limit)


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


def test_confirm_pair_refuses_an_unknown_criterion():
    g = preset("tildeA3")
    (a, i1), (b, i2) = affine_fixture().witnesses
    pair = (curve_record(g, a, i1), curve_record(g, b, i2))
    # a criterion other than 1 or 2 is refused, not run as criterion 2,
    # which would reject this pair on its braid relator or its pairing
    for criterion in ("1", 3):
        with pytest.raises(ValueError, match="criterion must be 1 or 2"):
            confirm_pair(g, pair, criterion)


def test_confirm_pair_refuses_a_bool_criterion():
    g = preset("tildeA3")
    (a, i1), (b, i2) = affine_fixture().witnesses
    pair = (curve_record(g, a, i1), curve_record(g, b, i2))
    # True equals 1, and used to certify this pair as criterion 1
    with pytest.raises(ValueError, match="criterion must be 1 or 2"):
        confirm_pair(g, pair, True)


def _same_outcome(a, b) -> bool:
    if isinstance(a, KernelCertificate):
        return isinstance(b, KernelCertificate) and a.to_json() == b.to_json()
    return isinstance(a, Rejection) and a == b


@pytest.mark.parametrize("name,budget", [("tildeA3", 60), ("A3", 40), ("D4", 60)])
def test_confirm_pair_matches_the_criteria_on_the_words(name, budget):
    g = preset(name)
    store = enumerate_curves(g, budget=budget)
    if name == "tildeA3":  # a pair that certifies, beside the rejections
        for word, vertex in affine_fixture().witnesses:
            store.insert_witness(word, vertex)
    certified = 0
    for criterion, check in ((1, criterion1), (2, criterion2)):
        pairs = find_pairs(store, criterion)
        assert pairs
        for r1, r2 in pairs:
            got = confirm_pair(g, (r1, r2), criterion)
            want = check(r1.witness, r1.seed_vertex, r2.witness, r2.seed_vertex, g)
            assert _same_outcome(got, want), (r1.witness, r2.witness)
            certified += isinstance(got, KernelCertificate)
    assert certified == (name == "tildeA3")
    # every complex the memo holds is the one built from scratch
    algebra = zigzag(g)
    held = store.memo._complexes
    assert held
    for (word, vertex), x in held.items():
        assert x == act_complex(g, word, projective(algebra, vertex))


def test_confirm_pair_twists_each_suffix_once_per_store(monkeypatch):
    g = preset("tildeA3")
    store = enumerate_curves(g, budget=120)
    pairs = find_pairs(store, 1)
    twists = []
    real = search_module.apply_twist
    monkeypatch.setattr(
        search_module, "apply_twist", lambda x, i, sign: twists.append(i) or real(x, i, sign)
    )
    for pair in pairs:
        confirm_pair(g, pair, 1)
    suffixes = {
        (r.witness[k:], r.seed_vertex)
        for pair in pairs
        for r in pair
        for k in range(len(r.witness) + 1)
    }
    assert len(store.memo) == len(suffixes)
    assert len(twists) == sum(1 for word, _ in suffixes if word)
    # confirming them again twists nothing
    before = len(twists)
    for pair in pairs:
        confirm_pair(g, pair, 1)
    assert len(twists) == before


def test_confirm_pair_refuses_a_record_whose_coords_are_not_its_vector():
    g = preset("tildeA3")
    (a, i1), (b, i2) = affine_fixture().witnesses
    real = curve_record(g, a, i1)
    other = curve_record(g, b, i2)
    # the coordinates of one witness under the word of another: the stored
    # vector would supply the pairing, so the record is refused
    forged = CurveRecord(other.coords, real.witness, real.seed_vertex)
    with pytest.raises(ValueError, match="not its vector"):
        confirm_pair(g, (forged, other), 1)
    # the same inside a store, after the memo has checked the real record
    store = CurveStore(g)
    store.insert(real)
    store.insert(other)
    r1, r2 = store.records
    assert isinstance(confirm_pair(g, (r1, r2), 1), KernelCertificate)
    bumped = (real.coords[0] + LaurentPoly.one(ZZ),) + real.coords[1:]
    assert store.insert(CurveRecord(bumped, real.witness, real.seed_vertex))
    with pytest.raises(ValueError, match="not its vector"):
        confirm_pair(g, (store.records[-1], r2), 1)


def test_the_twist_memo_is_freed_with_its_store():
    g = preset("tildeA3")
    store = enumerate_curves(g, budget=120)
    for word, vertex in affine_fixture().witnesses:
        store.insert_witness(word, vertex)
    pairs = find_pairs(store, 1)
    outcomes = [confirm_pair(g, pair, 1) for pair in pairs]
    assert len(store.memo) > 0
    memo = weakref.ref(store.memo)
    algebra = weakref.ref(store.memo.algebra)
    del store
    # the kept pairs and outcomes hold the memo only weakly
    assert memo() is None
    assert algebra() is None
    # a kept pair still confirms, from a fresh memo, to the same outcome
    assert all(
        _same_outcome(confirm_pair(g, pair, 1), out)
        for pair, out in zip(pairs[:5] + pairs[-5:], outcomes[:5] + outcomes[-5:])
    )
    assert any(isinstance(out, KernelCertificate) for out in outcomes)


@pytest.mark.parametrize(
    "g", [CoxeterGraph.from_edges(3, [(1, 2, INF), (2, 3, 3)]), CoxeterGraph.from_edges(1, [])]
)
def test_a_store_needs_no_zigzag_algebra_until_a_confirm(tmp_path, g):
    # the standard form takes an infinite label and one vertex, the zigzag
    # algebra neither: enumerating, scanning and saving a store build no
    # algebra, and only a confirm, which twists, refuses the graph
    budget = 40 if g.n > 1 else 1
    store = enumerate_curves(g, budget=budget)
    assert len(store) == budget
    pairs = find_pairs(store, 1)
    assert len(pairs) == (29 if g.n > 1 else 0)
    assert len(store.memo) == 0
    path = tmp_path / "store.json"
    store.save(path)
    assert CurveStore.load(path).records == store.records
    if pairs:
        with pytest.raises(ValueError, match="zigzag algebra"):
            confirm_pair(g, pairs[0], 1)


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
    loaded = CurveStore.from_json(data)
    assert loaded.records == store.records
    assert loaded.by_root == store.by_root
    assert (9, 9, 9, 9) not in loaded.by_root
    # coordinates that disagree with the witness are refused
    exponent, coefficient = data["records"][7]["coords"][0][0]
    data["records"][7]["coords"][0][0] = [exponent, coefficient + 1]
    with pytest.raises(ValueError, match="disagree"):
        CurveStore.from_json(data)
    # an exponent must be an int: a float or a JSON boolean is refused, not truncated
    for bad in (exponent + 0.5, float(exponent), True):
        data["records"][7]["coords"][0][0] = [bad, coefficient]
        with pytest.raises(TypeError, match="exponents"):
            CurveStore.from_json(data)
    # a seed vertex must be an index, not a JSON boolean
    data["records"][7]["coords"][0][0] = [exponent, coefficient]
    CurveStore.from_json(data)
    data["records"][0]["seed_vertex"] = True
    with pytest.raises(ValueError, match="out of range"):
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
    # beta^-1 sigma_i^-1 (the word problem), whose answer is read off the
    # state without building the factors' lifts
    pushed = []
    push_letter = _NFState.push_letter

    def counting_push(state, letter):
        pushed.append(letter)
        push_letter(state, letter)

    def no_result(state):
        raise AssertionError("the verifier built a GarsideNF")

    fx = d4_fixture(16)
    (beta, i) = fx.witnesses[0]
    report = samecurve_check(fx.graph, beta, i)
    monkeypatch.setattr(_NFState, "push_letter", counting_push)
    monkeypatch.setattr(_NFState, "result", no_result)
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


def test_bucket_search_zero_budget_and_errors():
    g = preset("A2")
    empty = bucket_search(g, 5, 0, seed=0)
    assert empty["candidates"] == []
    assert empty["certificates"] == []
    with pytest.raises(ValueError):
        bucket_search(g, 5, -1, seed=0)
    with pytest.raises(ValueError):
        bucket_search(g, 5, 10, seed=0, fix_vertex=9)
    with pytest.raises(ValueError, match="out of range"):
        bucket_search(g, 5, 10, seed=0, fix_vertex=True)
    with pytest.raises(NotFiniteType):
        bucket_search(preset("tildeA2"), 5, 10, seed=0)


def test_bucket_search_budget_must_be_an_int():
    g = preset("A2")
    # True would run one step and write "budget": true; 2.5 would fail in range()
    for budget in (True, 2.5, "10"):
        with pytest.raises(ValueError, match="int"):
            bucket_search(g, 5, budget, seed=0)
    assert bucket_search(g, 5, 10, seed=0)["counters"]["steps"] == 10


def test_bucket_search_seed_must_be_an_int():
    g = preset("A2")
    # random.Random takes any hashable seed, and the manifest would record it
    for seed in ("abc", 1.5, True, None):
        with pytest.raises(ValueError, match="seed must be an int"):
            bucket_search(g, 5, 10, seed)
    assert bucket_search(g, 5, 10, 3)["manifest"]["seed"] == 3


def test_bucket_search_has_one_target_in_fifth_place():
    g = preset("A3")
    for target in ("orbit", "spread_zero"):
        with pytest.raises(ValueError, match="target"):
            bucket_search(g, 2, 10, 0, target)
    # the positional call (target fifth, fix vertex sixth) is the default run,
    # and the manifest still names both
    default = bucket_search(g, 2, 1300, 1)
    assert bucket_search(g, 2, 1300, 1, "fix_vector", 1) == default
    assert default["manifest"]["target"] == "fix_vector"
    assert default["manifest"]["fix_vertex"] == 1
    # every candidate is a verified fix-vector hit
    assert default["candidates"]
    assert default["counters"]["fix_vector_hits"] == len(default["candidates"])
    for c in default["candidates"]:
        assert c["status"] == "certified" or c["status"].startswith("rejected:")


def test_float_moduli_are_refused_even_when_an_equal_int_is_cached():
    # 5.0 hashes equal to the cached modulus 5; the typed caches keep them apart
    verify_bigelow3(preset("D4"), (1, 2), 1, 5)
    with pytest.raises(ValueError, match="modulus"):
        verify_bigelow3(preset("D4"), (1, 2), 1, 5.0)
    bucket_search(preset("A3"), 5, 20, 1)
    with pytest.raises(ValueError, match="modulus"):
        bucket_search(preset("A3"), 5.0, 20, 1)


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
    matrix, bands = _walk_bands(g, p)
    mat = identity_matrix(g, ring)
    for index in steps:
        band = bands[index]
        matrix = matrix.times((band.factor,))
        # over Z, so the reference shares no slot arithmetic with the walk
        mat = mat.mat_mul(word_matrix(g, band.lift, DUAL, ZZ).reduce_mod(p))
        assert matrix.unpack(g) == mat
        assert matrix.spread == spread(mat)
        assert matrix.fixing_exponent(i) == _fixing_exponent(mat.column(i), i)


@pytest.mark.parametrize("name,p", [("A3", 2), ("D4", 257), ("D5", 7)])
def test_a_packed_step_leaves_its_receiver_unchanged(name, p):
    # restart snapshots share their rows with the walk, so two children of
    # one value must both leave it as it was
    g = WALK_GRAPHS[name]
    identity, bands = _walk_bands(g, p)
    prefix = bands[1:4]
    receiver = identity.times([band.factor for band in prefix])
    rows = [row.copy() for row in receiver.rows]
    low, receiver_spread = receiver.low, receiver.spread
    word = tuple(letter for band in prefix for letter in band.lift)
    for band in (bands[0], bands[-1]):
        child = receiver.times((band.factor,))
        assert receiver.rows == rows
        assert (receiver.low, receiver.spread) == (low, receiver_spread)
        lifted = word + band.lift
        assert child.unpack(g) == word_matrix(g, lifted, DUAL, ZZ).reduce_mod(p)


def _reduce_without_correction(self, x):
    # `_SlotCodec.reduce` without its conditional subtraction: slots of up
    # to 2p - 1 are left behind
    if x.bit_length() > self._bits:
        self._cover(x.bit_length())
    return x - ((x * self._magic >> self._shift) & self._quotients) * self.p


def test_walk_bands_refuse_a_faulty_slot_reduction(monkeypatch):
    # the mod-p matrices the bands are built from take the faulty steps, and
    # the step's slot check stops them before the band comparison
    monkeypatch.setattr(_SlotCodec, "reduce", _reduce_without_correction)
    _walk_bands.cache_clear()
    try:
        with pytest.raises(AssertionError, match="packed slot reached 8 or more, above p - 1 = 4"):
            _walk_bands(WALK_GRAPHS["D5"], 5)
    finally:
        _walk_bands.cache_clear()


def test_walk_bands_refuse_a_band_whose_v_is_wrong(monkeypatch):
    # v is built from row j of the dual Gram matrix; a wrong entry there
    # leaves every slot reduced, so only the comparison of I + u v^T with
    # the lift's matrix over Z can see it
    real = search_module.gram_matrix

    def corrupted(g, form, ring):
        rows = [list(row) for row in real(g, form, ring)]
        rows[0][0] = rows[0][0] + LaurentPoly.one(ring)
        return tuple(tuple(row) for row in rows)

    monkeypatch.setattr(search_module, "gram_matrix", corrupted)
    _walk_bands.cache_clear()
    try:
        with pytest.raises(AssertionError, match="is not I \\+ u v\\^T"):
            _walk_bands(WALK_GRAPHS["D5"], 5)
    finally:
        _walk_bands.cache_clear()


@pytest.mark.parametrize("p", [5, 257])
def test_bucket_search_refuses_a_faulty_slot_reduction(monkeypatch, p):
    monkeypatch.setattr(_SlotCodec, "reduce", _reduce_without_correction)
    _walk_bands.cache_clear()
    try:
        with pytest.raises(AssertionError, match="packed slot"):
            bucket_search(WALK_GRAPHS["A3"], p, 2000, 1)
    finally:
        _walk_bands.cache_clear()


def test_walk_steps_refuse_a_faulty_slot_reduction(monkeypatch):
    # the bands are built on the correct reduction, and the gate of a hit
    # fails the test if reached, so the error comes from a step the walk
    # itself takes on the faulty one
    g = WALK_GRAPHS["A3"]
    _walk_bands(g, 5)

    def gate_reached(*args):
        pytest.fail("the slot check of a walk step should have raised first")

    monkeypatch.setattr(search_module, "verify_bigelow3", gate_reached)
    monkeypatch.setattr(_SlotCodec, "reduce", _reduce_without_correction)
    with pytest.raises(AssertionError, match="packed slot reached 8 or more, above p - 1 = 4"):
        bucket_search(g, 5, 2000, 1)


# sha256 of the JSON of `bucket_search(graph, p, 600, 3, target)` without its
# counters, recorded from the walk that multiplied full matrices of
# LaurentPoly entries and replayed each restart word from scratch
PINNED_WALKS = {
    ("A3", 2, "fix_vector"): "e2619b6a6c68e84306e68abfc083dff6d8a84fac90484023eb9b43ab8f445df1",
    ("A3", 6, "fix_vector"): "a93f651c777c87d1947cd17e511288cabf3d9a27339b67a9eb2574a54686dff1",
    ("A3", 257, "fix_vector"): "db3c65a9cbdc3a01380a84d765fedbf68dae330cd17d7971fbb0c3aa9d720dd0",
    ("D4", 2, "fix_vector"): "33919a7f8afb4b66429872846c1a130ac8f1b32250c1f0b5d7b81856cb7075cd",
    ("D4", 6, "fix_vector"): "6584018a94a74edb250bcd0d8fcbd85b11f0401dd6fb8b7f852c9b23c39ad9d2",
    ("D4", 257, "fix_vector"): "ca6bbd57ca41acdd7faa5c6087653787af3df73f863c5f2481b06794039e6abc",
    ("D5", 2, "fix_vector"): "d1454674b9eb1385e478103ab8fef4a45173251d35c453ab8c7ede444fc7d0f4",
    ("D5", 6, "fix_vector"): "1a66bb5930e7c0785e6155c750f6b6e0cb67d2479ff6fbf379d032e668edc1c0",
    ("D5", 257, "fix_vector"): "f302f9412a5aa24bef3405be5cda92102baa835501dd5533aaa06063a31f15f7",
}


@pytest.mark.parametrize("name,p,target", sorted(PINNED_WALKS))
def test_bucket_search_reproduces_pinned_walks(name, p, target):
    result = bucket_search(WALK_GRAPHS[name], p, 600, 3, target=target)
    del result["counters"]
    blob = json.dumps(result, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == PINNED_WALKS[(name, p, target)]
