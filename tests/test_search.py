"""Curve enumeration, pair scanning, the mod-p verifier, and bucket walks."""

import dataclasses
import gc
import hashlib
import inspect
import json
import random
import tracemalloc
import weakref
from collections import Counter
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import burau.search as search_module
from burau.complexes import act_complex, projective
from burau.criteria import (
    KernelCertificate,
    Rejection,
    _fixing_exponent,
    criterion1,
    criterion2,
    verify_kernel_word,
)
from burau.fixtures import affine_fixture, d4_fixture
from burau.garside import NotFiniteType, _NFState, samecurve_check
from burau.graphs import INF, CoxeterGraph, inverse_word, preset, preset_names
from burau.laurent import ZZ, IntegersMod, LaurentPoly
from burau.matrices import (
    DUAL,
    _SlotCodec,
    act,
    gram_matrix,
    identity_matrix,
    is_identity,
    pairing,
    spread,
    word_matrix,
)
from burau.search import (
    _P,
    _Q0,
    SPREAD_CAP,
    CurveRecord,
    CurveStore,
    _walk_bands,
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


def _reference_enumeration(g, budget):
    """The enumeration as first written, the reference for `enumerate_curves`:
    each child is a full `act` of its letter on the parent's vector, kept
    through `CurveStore.insert`.  Also returns the position, among the 2n
    letters, of the letter whose child filled the budget (None when the
    orbit ran out first)."""
    store = CurveStore(g)
    for s in g.vertices():
        store.insert_witness((), s)
    letters = [sign * j for j in g.vertices() for sign in (1, -1)]
    head = 0
    while head < len(store.records) and len(store) < budget:
        parent = store.records[head]
        head += 1
        vec, word, s = parent.vector(g), parent.witness, parent.seed_vertex
        for position, letter in enumerate(letters):
            rec = CurveRecord(act(g, (letter,), vec).coords, (letter,) + word, s)
            if store.insert(rec) and len(store) >= budget:
                return store, position
    return store, None


REFERENCE_GRAPHS = {name: preset(name) for name in preset_names()}
REFERENCE_GRAPHS["inf"] = CoxeterGraph.from_edges(
    4, [(1, 2, INF), (2, 3, 3), (3, 4, INF)]
)


@pytest.mark.parametrize("name", sorted(REFERENCE_GRAPHS))
def test_enumeration_matches_the_act_reference(name):
    # one row step per child, children equal to their parent dropped, root
    # keys derived from the parent's and shared coordinates: the same store
    # as a full act per child, also when the budget stops partway through a
    # parent's children
    g = REFERENCE_GRAPHS[name]
    for budget in (g.n + 3, 250 + g.n, 709):
        want, position = _reference_enumeration(g, budget)
        assert position is not None and position < 2 * g.n - 1, (budget, position)
        got = enumerate_curves(g, budget)
        assert [(r.coords, r.witness, r.seed_vertex) for r in got.records] == [
            (r.coords, r.witness, r.seed_vertex) for r in want.records
        ]
        assert got.records == want.records
        assert got.by_root == want.by_root
        assert list(got.by_root) == list(want.by_root)
        assert all(r.memo_ref() is got.memo for r in got.records)
        assert all(r.memo_ref() is want.memo for r in want.records)
        # each record is built from its key and its parent chain when read,
        # and kept: the vector and the word agree, and one index gives one
        # object
        for index, r in enumerate(got.records):
            assert r == curve_record(g, r.witness, r.seed_vertex)
            assert got.records[index] is r


def test_a_witness_inserted_after_the_enumeration_is_kept_as_given(tmp_path):
    # the curve search inserts the affine pair after the BFS: such a record
    # has no parent in the store, so its word is kept, not rebuilt, and it
    # is indexed, scanned and saved as any other record
    g = preset("tildeA3")
    store = enumerate_curves(g, budget=300)
    witnesses = affine_fixture().witnesses
    for word, vertex in witnesses:
        assert store.insert_witness(word, vertex)
        index = len(store) - 1
        record = store.records[index]
        assert (record.witness, record.seed_vertex) == (tuple(word), vertex)
        assert record == curve_record(g, word, vertex)
        assert record.memo_ref() is store.memo
        assert store.by_root[record.root_key][-1] == index
        assert store.records[-1] is record
    (a, i1), (b, i2) = witnesses
    ra, rb = store.records[-2:]
    assert (ra, rb) in find_pairs(store, 1, root_filter=(ra.root_key, rb.root_key))
    path = tmp_path / "store.json"
    store.save(path)
    loaded = CurveStore.load(path)
    assert loaded.records == store.records
    assert loaded.by_root == store.by_root
    assert [(r.witness, r.seed_vertex) for r in loaded.records[-2:]] == [(a, i1), (b, i2)]


def test_an_enumeration_holds_at_most_200_bytes_per_record():
    # the store keeps a key, a parent index and a letter per record, and
    # builds no record until one is read
    g = preset("tildeA3")
    budget = 5 * 10**4
    gc.collect()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        store = enumerate_curves(g, budget)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert len(store) == budget
    assert held / budget <= 200, held / budget


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


def test_store_insert_refuses_a_malformed_record():
    # a record that is not n coordinates over Z, whose seed vertex is not
    # a vertex, or whose witness is not a word over the graph, is refused
    # before it reaches the coordinate table: a short record would
    # otherwise share the key of a full one whose missing lanes hold id 0,
    # and a scan of the store would fail on it; a bad witness would be
    # saved, and from_json, which rebuilds each record from its witness,
    # would fail to load it
    g = preset("tildeA3")
    coords = curve_record(g, (1, -2), 3).coords
    store = CurveStore(g)
    store.insert_witness((), 1)
    before = (list(store.records), dict(store.by_root), list(store._polys))
    cases = [
        (CurveRecord(coords[:3], (1, -2), 3), "4 coordinates over Z"),
        (CurveRecord(coords + coords[:1], (1, -2), 3), "4 coordinates over Z"),
        (CurveRecord(tuple(c.reduce_mod(5) for c in coords), (1, -2), 3), "4 coordinates over Z"),
        (CurveRecord((0, 1, 0, 0), (), 2), "4 coordinates over Z"),
        (CurveRecord(coords, (1, -2), 0), "out of range"),
        (CurveRecord(coords, (1, -2), 5), "out of range"),
        (CurveRecord(coords, (1, -2), True), "out of range"),
        (CurveRecord(coords, (9,), 3), "letter 9 at position 0 is not a signed vertex index"),
        (CurveRecord(coords, (1, 0), 3), "letter 0 at position 1"),
        (CurveRecord(coords, (1, True), 3), "letter True at position 1"),
    ]
    for record, message in cases:
        with pytest.raises(ValueError, match=message):
            store.insert(record)
    assert (store.records, store.by_root, store._polys) == before
    assert store.insert(CurveRecord(coords, (1, -2), 3))
    assert find_pairs(store, 2) == _exact_scan(store, 2)
    assert CurveStore.from_json(store.to_json()).records == store.records


def test_enumeration_state_belongs_to_its_store(monkeypatch):
    # nothing carries over from one enumeration to the next: the same number
    # of row steps each time, and no coordinate table shared between stores
    g = preset("tildeA3")
    steps = []
    real = search_module.row_terms
    monkeypatch.setattr(
        search_module, "row_terms", lambda row, coords: steps.append(1) or real(row, coords)
    )
    counts, stores = [], []
    for _ in range(2):
        steps.clear()
        stores.append(enumerate_curves(g, 2000))
        counts.append(len(steps))
    assert counts[0] == counts[1] > 2000
    first, second = stores
    assert first.records == second.records
    assert first._ids == second._ids and first._ids is not second._ids
    assert first._polys == second._polys and first._polys is not second._polys
    assert first._sums is not second._sums
    assert not CurveStore(g)._ids


def test_find_pairs_evaluates_each_distinct_coordinate_once_per_point(monkeypatch):
    # per evaluation point q: the Gram entries at q, each distinct coordinate
    # value of the left slice at q^-1 and each of the right slice at q
    g = preset("tildeA3")
    store = enumerate_curves(g, budget=400)
    calls = Counter()
    real = search_module._poly_mod
    monkeypatch.setattr(
        search_module,
        "_poly_mod",
        lambda poly, q, q_inv: calls.update([(poly.low, poly.coeffs, q)]) or real(poly, q, q_inv),
    )

    def values(positions, q):
        return Counter(
            {(c.low, c.coeffs, q) for a in positions for c in store.records[a].coords}
        )

    everything = range(len(store))
    filters = [None, ((0, 0, -1, 0), (1, 0, 0, 0)), ((1, 0, 0, 0), (1, 0, 0, 0))]
    for criterion in (1, 2):
        for root_filter in filters:
            calls.clear()
            find_pairs(store, criterion, root_filter=root_filter)
            if root_filter is None:
                left = right = everything
            else:
                left, right = (store.by_root[k] for k in root_filter)
            expected = Counter()
            for q in (_Q0,) if criterion == 1 else (_Q0, _Q0 * _Q0 % _P):
                expected.update(
                    (b.low, b.coeffs, q) for row in gram_matrix(g) for b in row
                )
                expected += values(left, pow(q, -1, _P)) + values(right, q)
            assert calls == expected, (criterion, root_filter)
            if root_filter is None:
                assert sum(calls.values()) < len(store) * g.n


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


def test_find_pairs_refuses_a_malformed_root_filter():
    store = enumerate_curves(preset("tildeA3"), budget=120)
    key = (1, 0, 0, -1)
    # one key used to raise IndexError; keys of length 3 and the string 'ab'
    # used to scan nothing, and three keys to scan the first two
    for root_filter in ((key,), ((1, 0, 0), (1, 0, 0)), "ab", (key, key, key)):
        with pytest.raises(ValueError, match="root_filter must be two root keys of 4 ints"):
            find_pairs(store, 1, root_filter=root_filter)
    assert find_pairs(store, 1, root_filter=[list(key), key]) == find_pairs(
        store, 1, root_filter=(key, key)
    )


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
# rich in criterion-2 hits, and a slice paired with itself; "inf" is the
# graph with infinite labels, whose edge entries are -2q^(+-1)
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
    (
        "D4",
        100,
        [
            ((1, -1, 0, 0), (0, -1, 1, 0)),
            ((0, 1, 0, 0), (0, 0, 0, -1)),
            ((0, 1, 0, 0), (0, 1, 0, 0)),
        ],
    ),
    (
        "inf",
        100,
        [
            ((0, 0, 1, 0), (1, 0, 0, 0)),
            ((0, 1, 0, 0), (0, 0, 1, 0)),
            ((0, 1, 0, 0), (0, 1, 0, 0)),
        ],
    ),
]


@pytest.mark.parametrize("name,budget,filters", EXACT_SCAN_CASES)
def test_find_pairs_equals_an_exact_scan(name, budget, filters):
    store = enumerate_curves(REFERENCE_GRAPHS[name], budget=budget)
    for criterion in (1, 2):
        for root_filter in [None] + filters:
            expected = _exact_scan(store, criterion, root_filter)
            if root_filter in (None, filters[criterion - 1]):
                assert len(expected) > 3, (criterion, root_filter)
            for limit in (None, 1, 3):
                got = find_pairs(store, criterion, root_filter=root_filter, limit=limit)
                assert got == expected[:limit], (criterion, root_filter, limit)


def _per_pair_filter(xs, rights, start):
    """The reference filter: each pair's value at each point as its own
    n-term dot product mod P."""
    out = []
    for k in range(start, len(rights[0])):
        v = sum(map(mul, xs[0], rights[0][k])) % _P
        if len(xs) == 1:
            if not v:
                out.append(k)
        elif v and sum(map(mul, xs[1], rights[1][k])) % _P in (v * v % _P, _P - v * v % _P):
            out.append(k)
    return out


def _adversarial_images(rng, n, m, points):
    """Per point, m right images of n residues: all P - 1, all 0, the two
    alternating, and draws from the extremes; a left record's images; and,
    at two points, some right images tuned so that the criterion-2 test
    passes (v2 = +-v1^2) or fails by one."""
    extremes = (0, 1, 2, _P - 2, _P - 1, 1 << 60)

    def image(kind):
        if kind == 0:
            return (_P - 1,) * n
        if kind == 1:
            return (0,) * n
        if kind == 2:
            return tuple((_P - 1) * (i % 2) for i in range(n))
        return tuple(rng.choice(extremes) for _ in range(n))

    rights = [[image(rng.randrange(5)) for _ in range(m)] for _ in points]
    xs = tuple(image(rng.choice((0, 0, 2, 3, 4))) for _ in points)
    if len(points) == 2 and any(xs[1]):
        j = next(i for i, c in enumerate(xs[1]) if c)
        for k in range(0, m, 3):
            v = sum(map(mul, xs[0], rights[0][k])) % _P
            target = (rng.choice((1, -1)) * v * v + (k % 2)) % _P
            y = [0] * n
            y[j] = target * pow(xs[1][j], -1, _P) % _P
            rights[1][k] = tuple(y)
    return xs, rights


def test_a_slot_holds_the_largest_sum_at_the_largest_n_for_its_width():
    # n products of residues below P fit 128 bits up to n = 64
    assert search_module._slot_width(64) == 128
    assert search_module._slot_width(65) == 192
    for n in (64, 65):
        top = (_P - 1,) * n
        # full slots beside an empty one, and a pair whose sum is exactly P
        rights = [[top, (0,) * n, top, (1,) + (0,) * (n - 2) + (1,)]]
        ((lo, count, (packed,)),) = search_module._pack_blocks(rights, n)
        for left in (top, (1,) * (n - 1) + (_P - 1,)):
            got = search_module._slot_residues(left, packed, count)
            assert got == tuple(sum(map(mul, left, y)) % _P for y in rights[0])
        assert got[3] == 0


@pytest.mark.parametrize("n", [1, 4, 64, 65])
@pytest.mark.parametrize("points", [1, 2])
def test_packed_filter_equals_the_per_pair_filter(n, points):
    rng = random.Random(n * 10 + points)
    block = search_module._BLOCK
    passed = failed = 0
    for m in (0, 1, 7, 60, 60, 60, block, block + 3):
        xs, rights = _adversarial_images(rng, n, m, range(points))
        blocks = search_module._pack_blocks(rights, n)
        assert sum(count for _, count, _ in blocks) == m
        # from the start of the range, as for two distinct slices, and
        # from inside it, as for a slice paired with itself
        for start in sorted({0, 1, m // 2, block - 1, block, block + 1, m}):
            if start > m:
                continue
            got = search_module._passing(xs, blocks, start)
            assert got == _per_pair_filter(xs, rights, start), (m, start)
            if start == 0:
                passed += len(got)
                failed += m - len(got)
    # the adversarial draws reach both outcomes
    assert passed and failed


def _decisions(monkeypatch):
    """Patch the exact decision, is_zero (criterion 1) and signed_q_power
    (criterion 2), to log each call; returns the log."""
    calls = []
    for method in ("is_zero", "signed_q_power"):
        real = getattr(LaurentPoly, method)
        monkeypatch.setattr(
            LaurentPoly,
            method,
            lambda self, real=real, method=method: calls.append(method) or real(self),
        )
    return calls


def test_find_pairs_decides_exactly_the_pairs_the_per_pair_filter_passes(monkeypatch):
    g = preset("tildeA3")
    store = enumerate_curves(g, budget=150)
    missing = (9, 9, 9, 9)
    filters = [
        None,
        ((0, 0, -1, 0), (1, 0, 0, 0)),  # two distinct slices
        ((1, 0, 0, 0), (1, 0, 0, 0)),  # a slice paired with itself
        (missing, (1, 0, 0, 0)),  # an empty left range
        ((1, 0, 0, 0), missing),  # an empty right range
    ]
    expected = {
        (c, f): _exact_scan(store, c, f) for c in (1, 2) for f in filters
    }
    calls = _decisions(monkeypatch)
    ids = range(g.n)  # each record's coordinates, evaluated by themselves
    for criterion in (1, 2):
        points = search_module._evaluation_points(g, criterion)
        for root_filter in filters:
            visited = _visited_pairs(store, root_filter)
            reference = [
                (r1, r2)
                for r1, r2 in visited
                if _per_pair_filter(
                    [search_module._left_images(r1.coords, [ids], pt)[0] for pt in points],
                    [search_module._right_images(r2.coords, [ids], pt) for pt in points],
                    0,
                )
            ]
            calls.clear()
            got = find_pairs(store, criterion, root_filter=root_filter)
            assert len(calls) == len(reference), (criterion, root_filter)
            assert got == expected[criterion, root_filter]
            if root_filter and missing in root_filter:
                assert got == [] and not visited
            for limit in (1, 2):
                assert find_pairs(
                    store, criterion, root_filter=root_filter, limit=limit
                ) == got[:limit]


def test_prefilter_at_q_equal_one_passes_every_pair_and_changes_nothing(monkeypatch):
    # At q0 = 1 the filter sees only the roots at q = 1.  On a slice pair
    # whose roots are orthogonal there (criterion 1), or pair to +-1
    # (criterion 2), every visited pair passes the filter, so the exact
    # decision alone must produce the same list as the real evaluation
    # point.  That decision is the exact pairing's is_zero (criterion 1) or
    # signed_q_power (criterion 2), called once per pair that reaches it.
    store = enumerate_curves(preset("tildeA3"), budget=300)
    calls = _decisions(monkeypatch)
    for criterion, root_filter, hits in (
        (1, ((-1, 0, -1, 1), (0, 0, 0, 1)), 60),
        (2, ((-1, 0, -1, 1), (-1, 1, 0, 1)), 66),
    ):
        decision = ("is_zero", "signed_q_power")[criterion - 1]
        visited = _visited_pairs(store, root_filter)
        calls.clear()
        expected = find_pairs(store, criterion, root_filter=root_filter)
        assert len(expected) == hits
        assert set(calls) == {decision}
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


def test_confirm_pair_refuses_anything_but_two_records_before_twisting():
    g = preset("tildeA3")
    store = enumerate_curves(g, budget=40)
    records = store.records[20:23]
    before = len(store.memo)
    for count in (0, 1, 3):
        with pytest.raises(ValueError, match=f"a pair is two records, not {count}"):
            confirm_pair(g, tuple(records[:count]), 1)
    assert len(store.memo) == before


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
    # the memo holds one complex per distinct record confirmed
    records = {(r.witness, r.seed_vertex) for pair in pairs for r in pair}
    assert len(store.memo) == len(records)


# BFS records of three graphs, by (witness, seed vertex), for the memo's
# property test: every suffix of a stored witness is a stored witness
MEMO_RECORDS = {
    name: {(r.witness, r.seed_vertex): r for r in enumerate_curves(preset(name), 200).records}
    for name in ("tildeA3", "A4", "D4")
}


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_the_memo_twists_only_the_letters_no_held_record_covers(data):
    name = data.draw(st.sampled_from(sorted(MEMO_RECORDS)))
    records = MEMO_RECORDS[name]
    g = preset(name)
    # a few records with the records of their witnesses' suffixes, in any
    # order, so children come before parents, a record comes again, and
    # the tail that is cut off leaves some parents unconfirmed
    picked = data.draw(st.lists(st.sampled_from(sorted(records)), min_size=1, max_size=6))
    family = [records[(w[k:], v)] for w, v in picked for k in range(len(w) + 1)]
    order = data.draw(st.permutations(family))
    order = order[: data.draw(st.integers(1, len(order)))]
    memo = search_module.TwistMemo(g)
    words = []  # the word of each act_complex call the memo makes
    real = search_module.act_complex
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            search_module, "act_complex", lambda g, word, x: words.append(word) or real(g, word, x)
        )
        held = set()
        for r in order:
            word, vertex = key = (r.witness, r.seed_vertex)
            before = len(words)
            x = memo.twisted(r)
            if key in held:
                assert len(words) == before
            else:
                # the letters in front of the longest proper suffix held
                k = next(
                    (k for k in range(1, len(word) + 1) if (word[k:], vertex) in held), len(word)
                )
                assert words[before:] == [word[:k]]
                held.add(key)
            assert x == act_complex(g, word, projective(memo.algebra, vertex))
            assert len(memo) == len(held)
    # coordinates that are not the witness's vector are refused: the first
    # try finds the witness's complex held or twists it, the second finds
    # it held
    r = records[data.draw(st.sampled_from(sorted(records)))]
    bumped = (r.coords[0] + LaurentPoly.one(ZZ),) + r.coords[1:]
    forged = CurveRecord(bumped, r.witness, r.seed_vertex)
    for _ in range(2):
        with pytest.raises(ValueError, match="not its vector"):
            memo.twisted(forged)
        with pytest.raises(ValueError, match="has not been checked"):
            memo.gram_image(forged)


def test_confirm_pair_refuses_a_record_whose_coords_are_not_its_vector(monkeypatch):
    g = preset("tildeA3")
    (a, i1), (b, i2) = affine_fixture().witnesses
    real = curve_record(g, a, i1)
    other = curve_record(g, b, i2)
    images = []  # the pairing is read from a Gram image, so none may be built
    real_image = search_module.gram_image
    monkeypatch.setattr(
        search_module, "gram_image", lambda y: images.append(y) or real_image(y)
    )
    # the coordinates of one witness under the word of another: the stored
    # vector would supply the pairing, so the record is refused
    forged = CurveRecord(other.coords, real.witness, real.seed_vertex)
    for pair in ((forged, other), (other, forged)):
        with pytest.raises(ValueError, match="not its vector"):
            confirm_pair(g, pair, 1)
    assert images == []
    # the same inside a store, after the memo has checked the real record
    store = CurveStore(g)
    store.insert(real)
    store.insert(other)
    r1, r2 = store.records
    assert isinstance(confirm_pair(g, (r1, r2), 1), KernelCertificate)
    assert len(images) == 1
    bumped = (real.coords[0] + LaurentPoly.one(ZZ),) + real.coords[1:]
    assert store.insert(CurveRecord(bumped, real.witness, real.seed_vertex))
    for pair in ((store.records[-1], r1), (r1, store.records[-1])):
        with pytest.raises(ValueError, match="not its vector"):
            confirm_pair(g, pair, 1)
    assert len(images) == 1
    # nor does the memo hand out the image of a record it has not checked
    with pytest.raises(ValueError, match="has not been checked"):
        store.memo.gram_image(store.records[-1])


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


def test_the_memo_gram_images_are_freed_with_their_store(monkeypatch):
    class Image(list):  # a list, unlike a tuple, takes weak references
        pass

    images = []  # a weak reference to each image the memo builds
    real_image = search_module.gram_image

    def image_of(y):
        image = Image(real_image(y))
        images.append(weakref.ref(image))
        return image

    g = preset("tildeA3")
    store = enumerate_curves(g, budget=120)
    pairs = find_pairs(store, 1)
    monkeypatch.setattr(search_module, "gram_image", image_of)  # after the scan's own
    outcomes = [confirm_pair(g, pair, 1) for pair in pairs]
    # one image per distinct right record, each kept while the store lives
    assert len(images) == len({(r2.witness, r2.seed_vertex) for _, r2 in pairs})
    assert all(image() is not None for image in images)
    del store
    assert all(image() is None for image in images)
    assert len(outcomes) == len(pairs)


@pytest.mark.parametrize("criterion", [1, 2])
def test_a_pair_whose_store_is_dropped_confirms_as_with_its_store(criterion):
    g = preset("tildeA3")
    store = enumerate_curves(g, budget=120)
    for word, vertex in affine_fixture().witnesses:
        store.insert_witness(word, vertex)
    pairs = find_pairs(store, criterion)
    assert pairs
    alive = [confirm_pair(g, pair, criterion) for pair in pairs]
    assert len(store.memo) > 0
    del store
    assert all(r.memo_ref() is None for pair in pairs for r in pair)
    dropped = [confirm_pair(g, pair, criterion) for pair in pairs]
    assert all(_same_outcome(a, b) for a, b in zip(alive, dropped))
    if criterion == 1:
        assert any(isinstance(out, KernelCertificate) for out in dropped)


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
    # a repeated exponent is refused, even where the last of the two terms
    # is the right one and a merge would have matched the witness
    terms = data["records"][7]["coords"][0]
    terms[0] = [exponent, coefficient]
    data["records"][7]["coords"][0] = [[exponent, coefficient + 5]] + terms
    with pytest.raises(ValueError, match=f"exponent {exponent} appears more than once"):
        CurveStore.from_json(data)
    # a seed vertex must be an index, not a JSON boolean
    data["records"][7]["coords"][0] = terms
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

    monkeypatch.setattr("burau.criteria.seal_certificate", failing_seal)
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
    # restart snapshots share their columns with the walk, so two children
    # of one value must both leave it as it was
    g = WALK_GRAPHS[name]
    identity, bands = _walk_bands(g, p)
    prefix = bands[1:4]
    receiver = identity.times([band.factor for band in prefix])
    columns = list(receiver.columns)
    low, receiver_spread, lane = receiver.low, receiver.spread, receiver.lane
    word = tuple(letter for band in prefix for letter in band.lift)
    for band in (bands[0], bands[-1]):
        child = receiver.times((band.factor,))
        assert list(receiver.columns) == columns
        assert (receiver.low, receiver.spread, receiver.lane) == (low, receiver_spread, lane)
        lifted = word + band.lift
        assert child.unpack(g) == word_matrix(g, lifted, DUAL, ZZ).reduce_mod(p)


@pytest.mark.parametrize("name,p", [("A3", 2), ("D4", 257), ("D5", 5)])
def test_walk_matrices_keep_the_lanes_of_the_walk_identity(name, p):
    # a walk steps only from matrices of spread at most SPREAD_CAP, and the
    # identity's lanes were widened for that, so no step lays them out again
    identity, bands = _walk_bands(WALK_GRAPHS[name], p)
    rng = random.Random(25)
    matrix = identity
    for _ in range(1000):
        if matrix.spread > SPREAD_CAP:
            matrix = identity
        matrix = matrix.times((rng.choice(bands).factor,))
        assert matrix.lane == identity.lane


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
        with pytest.raises(AssertionError, match="packed slot reached 5 or more, above p - 1 = 4"):
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


def _walk_on_a_faulty_reduction(monkeypatch, p):
    # the bands are built on the correct reduction, and the gate of a hit
    # fails the test if reached, so the error comes from a step the walk
    # itself takes on the faulty one
    g = WALK_GRAPHS["A3"]
    _walk_bands(g, p)

    def gate_reached(*args):
        pytest.fail("the slot check of a walk step should have raised first")

    monkeypatch.setattr(search_module, "verify_bigelow3", gate_reached)
    monkeypatch.setattr(_SlotCodec, "reduce", _reduce_without_correction)
    bucket_search(g, p, 2000, 1)


def test_walk_steps_refuse_a_faulty_slot_reduction(monkeypatch):
    with pytest.raises(AssertionError, match="packed slot reached 5 or more, above p - 1 = 4"):
        _walk_on_a_faulty_reduction(monkeypatch, 5)


def test_walk_steps_refuse_a_faulty_slot_reduction_just_above_a_power_of_two(monkeypatch):
    # at 257 a slot left in 257..511 has no bit at or above 2^9, so only the
    # exact test of each changed column sees it
    with pytest.raises(AssertionError, match="packed slot reached 257 or more, above p - 1 = 256"):
        _walk_on_a_faulty_reduction(monkeypatch, 257)


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
