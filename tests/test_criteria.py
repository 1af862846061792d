"""Certificate-producing kernel criteria and their rejection clauses."""

from dataclasses import replace

import pytest

from burau.complexes import act_complex, hom_table, projective
from burau.criteria import (
    CRITERION_BRAID_RELATOR,
    CRITERION_COMMUTATOR,
    CRITERION_TWIST_QUOTIENT,
    KernelCertificate,
    Rejection,
    criterion1,
    criterion2,
    pairing_condition,
    seal_certificate,
    verify_bigelow3,
    verify_kernel_word,
)
from burau.fixtures import D4_MODULI, affine_fixture, d4_fixture
from burau.graphs import INF, CoxeterGraph, conjugated_generator, inverse_word, preset
from burau.laurent import ZZ, LaurentPoly
from burau.matrices import STANDARD
from burau.zigzag import zigzag


def test_twisted_generator_word_shape():
    assert conjugated_generator((2, -3), 1) == (2, -3, 1, 3, -2)
    assert conjugated_generator((), 4) == (4,)


def test_criterion1_rejects_on_pairing():
    out = criterion1((), 1, (), 2, preset("A2"))
    assert isinstance(out, Rejection)
    assert (out.criterion, out.clause) == (CRITERION_COMMUTATOR, "pairing")
    assert "q" in out.detail


@pytest.mark.parametrize(
    "criterion, terms, expected",
    [
        (CRITERION_COMMUTATOR, {}, (True, None)),
        (CRITERION_COMMUTATOR, {1: 1}, (False, None)),
        (CRITERION_BRAID_RELATOR, {}, (False, None)),
        (CRITERION_BRAID_RELATOR, {0: 1}, (True, 0)),
        (CRITERION_BRAID_RELATOR, {-2: -1}, (True, -2)),
        (CRITERION_BRAID_RELATOR, {0: 2}, (False, None)),
        (CRITERION_BRAID_RELATOR, {1: 1, 2: 1}, (False, None)),
    ],
)
def test_pairing_condition_gives_the_normalizing_shift(criterion, terms, expected):
    assert pairing_condition(criterion, LaurentPoly.from_dict(ZZ, terms)) == expected


@pytest.mark.parametrize("check", [criterion1, criterion2])
def test_a_pairing_rejection_twists_nothing(monkeypatch, check):
    # the pairing is tested before either projective is twisted, so a graph
    # with an infinite label, which has no zigzag algebra, still gets its
    # pairing rejection, and a pairing rejection elsewhere builds no complex
    g = CoxeterGraph.from_edges(3, [(1, 2, INF), (2, 3, 3)])
    out = check((), 1, (), 2, g)
    assert isinstance(out, Rejection)
    assert out.clause == "pairing"
    assert "2*q" in out.detail
    monkeypatch.setattr("burau.criteria.zigzag", lambda g: pytest.fail("twisted"))
    out = check((1, 2), 1, (), 2, preset("A3"))
    assert isinstance(out, Rejection)
    assert out.clause == "pairing"


def test_criterion1_rejects_on_hom():
    out = criterion1((), 1, (), 3, preset("A3"))
    assert isinstance(out, Rejection)
    assert (out.criterion, out.clause) == (CRITERION_COMMUTATOR, "hom")


def test_criterion2_rejects_adjacent_pair_on_hom():
    out = criterion2((), 1, (), 2, preset("A2"))
    assert isinstance(out, Rejection)
    assert (out.criterion, out.clause) == (CRITERION_BRAID_RELATOR, "hom")


def test_criterion2_rejects_equal_vertices_on_pairing():
    out = criterion2((), 1, (), 1, preset("A2"))
    assert isinstance(out, Rejection)
    assert (out.criterion, out.clause) == (CRITERION_BRAID_RELATOR, "pairing")
    assert "q^2 + 1" in out.detail


def test_criterion2_rejects_zero_pairing():
    out = criterion2((), 1, (), 3, preset("A3"))
    assert isinstance(out, Rejection)
    assert (out.criterion, out.clause) == (CRITERION_BRAID_RELATOR, "pairing")


def test_affine_pair_is_certified():
    fx = affine_fixture()
    (a, i1), (b, i2) = fx.witnesses
    cert = criterion1(a, i1, b, i2, fx.graph)
    assert isinstance(cert, KernelCertificate)
    assert cert.verified
    assert cert.pairing == "0"
    assert cert.total_hom_dim == 60
    assert len(cert.kernel_word) == 2 * (2 * len(a) + 1) + 2 * (2 * len(b) + 1)
    t1 = conjugated_generator(a, i1)
    t2 = conjugated_generator(b, i2)
    assert cert.kernel_word == t1 + t2 + inverse_word(t1) + inverse_word(t2)
    assert verify_kernel_word(cert)


def test_variant_pair_gives_the_same_evidence():
    base = affine_fixture()
    variant = affine_fixture(variant=True)
    cert_base = criterion1(*base.witnesses[0], *base.witnesses[1], base.graph)
    cert_variant = criterion1(
        *variant.witnesses[0], *variant.witnesses[1], variant.graph
    )
    assert isinstance(cert_variant, KernelCertificate)
    assert cert_variant.verified
    assert cert_variant.hom_table == cert_base.hom_table
    assert cert_variant.total_hom_dim == cert_base.total_hom_dim == 60


def test_acceptance_is_left_translation_invariant():
    fx = affine_fixture()
    (a, i1), (b, i2) = fx.witnesses
    reference = criterion1(a, i1, b, i2, fx.graph)
    for prefix in [(1,), (-4, 2)]:
        shifted = criterion1(prefix + a, i1, prefix + b, i2, fx.graph)
        assert isinstance(shifted, KernelCertificate)
        assert shifted.verified
        assert shifted.pairing == reference.pairing
        assert shifted.hom_table == reference.hom_table


def test_tampered_certificate_fails_the_gate():
    fx = affine_fixture()
    (a, i1), (b, i2) = fx.witnesses
    cert = criterion1(a, i1, b, i2, fx.graph)
    tampered = replace(cert, kernel_word=(1,))
    assert not verify_kernel_word(tampered)
    out = seal_certificate(tampered)
    assert isinstance(out, Rejection)
    assert out.clause == "verification"


@pytest.mark.parametrize("p", D4_MODULI)
def test_d4_certificate_with_one_kernel_letter_flipped_fails_the_gate(p):
    # the gate of a D4 certificate is a packed mod-p word_matrix
    (beta, i), = d4_fixture(p).witnesses
    cert = verify_bigelow3(preset("D4"), beta, i, p)
    assert isinstance(cert, KernelCertificate) and cert.verified
    assert verify_kernel_word(cert)
    word = list(cert.kernel_word)
    middle = len(word) // 2
    word[middle] = -word[middle]
    tampered = replace(cert, kernel_word=tuple(word))
    assert not verify_kernel_word(tampered)
    out = seal_certificate(tampered)
    assert isinstance(out, Rejection)
    assert (out.criterion, out.clause) == (CRITERION_TWIST_QUOTIENT, "verification")


def test_braid_relator_word_seals_when_pairing_is_a_q_power():
    # sigma_1 and sigma_2 on A2 pair to q, so the relator word of the two
    # twists lands on the identity matrix even though criterion2 would
    # reject the pair on the hom clause.
    g = preset("A2")
    algebra = zigzag(g)
    table = hom_table(
        act_complex(g, (), projective(algebra, 1)),
        act_complex(g, (), projective(algebra, 2)),
    )
    cert = KernelCertificate(
        graph=g,
        criterion=CRITERION_BRAID_RELATOR,
        witnesses=(((), 1), ((), 2)),
        kernel_word=(1, 2, 1, -2, -1, -2),
        ring=ZZ,
        form=STANDARD,
        pairing="q",
        normalizing_shift=1,
        hom_table=tuple(sorted(table.items())),
    )
    sealed = seal_certificate(cert)
    assert isinstance(sealed, KernelCertificate)
    assert sealed.verified
    # the total is read off the table, so no certificate can disagree with it
    assert sealed.total_hom_dim == sum(table.values())
    with pytest.raises(AttributeError):
        sealed.total_hom_dim = 0


def test_criterion2_accepts_when_hom_exceeds_one(monkeypatch):
    # no search reaches this path on the bundled graphs, so a stubbed hom
    # table of total dimension 2 stands in for the categorical check
    monkeypatch.setattr(
        "burau.criteria.hom_table", lambda x, y: {(0, 0): 1, (1, -1): 1}
    )
    cert = criterion2((), 1, (), 2, preset("A2"))
    assert isinstance(cert, KernelCertificate)
    assert cert.criterion == CRITERION_BRAID_RELATOR
    assert cert.kernel_word == (1, 2, 1, -2, -1, -2)
    assert cert.pairing == "q"
    assert cert.normalizing_shift == 1
    assert cert.total_hom_dim == 2
    assert cert.verified
    assert verify_kernel_word(cert)


def test_certificate_field_invariants():
    g = preset("A2")
    with pytest.raises(ValueError):
        KernelCertificate(
            graph=g,
            criterion=CRITERION_COMMUTATOR,
            witnesses=(),
            kernel_word=(),
            ring=ZZ,
            form=STANDARD,
            pairing="0",
            hom_table=(),
        )
    with pytest.raises(ValueError):
        KernelCertificate(
            graph=g,
            criterion=CRITERION_COMMUTATOR,
            witnesses=(),
            kernel_word=(1,),
            ring=ZZ,
            form=STANDARD,
        )
    with pytest.raises(ValueError):
        KernelCertificate(
            graph=g,
            criterion=CRITERION_TWIST_QUOTIENT,
            witnesses=(),
            kernel_word=(1,),
            ring=ZZ,
            form=STANDARD,
        )
    with pytest.raises(ValueError):
        KernelCertificate(
            graph=g,
            criterion="resolvent",
            witnesses=(),
            kernel_word=(1,),
            ring=ZZ,
            form=STANDARD,
        )


def test_certificate_json_schema():
    fx = affine_fixture()
    (a, i1), (b, i2) = fx.witnesses
    cert = criterion1(a, i1, b, i2, fx.graph)
    blob = cert.to_json()
    assert blob["accepted"] is True
    assert blob["criterion"] == CRITERION_COMMUTATOR
    assert blob["graph"]["n"] == 4
    assert blob["witnesses"][0] == {"word": list(a), "vertex": i1}
    assert blob["form"] == "standard"
    assert blob["ring"] == str(ZZ)
    assert blob["verified"] is True
    assert all("," in key for key in blob["hom_table"])
    assert sum(blob["hom_table"].values()) == blob["total_hom_dim"]


def test_rejection_json_and_str():
    out = criterion1((), 1, (), 2, preset("A2"))
    blob = out.to_json()
    assert blob["accepted"] is False
    assert blob["clause"] == "pairing"
    assert str(out).startswith("rejected [commutator/pairing]")
