"""Kernel-detection criteria producing checkable certificates.

Two criteria for pairs of twisted generators: when the q-deformed pairing of
the two curve vectors vanishes, the corresponding twists commute inside the
Burau image, so their group commutator maps to the identity matrix; when the
pairing is a signed power of q, the twists satisfy the braid relation and the
relator word maps to the identity.  In both cases non-triviality of the braid
itself is certified categorically, by a non-zero (respectively more than
one-dimensional) space of morphisms between the twisted projective complexes.

A third certificate shape, the twist quotient, is produced by the search
module for the mod-p dual form; its verification logic lives there since it
leans on the Garside word problem, but the certificate type is shared.

Every certificate carries a `verified` flag that is set by actually
recomputing the Burau matrix of the kernel word and comparing with the
identity.  Nothing downstream trusts a certificate whose flag is false.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .complexes import act_complex, hom_table, projective
from .graphs import (
    CoxeterGraph,
    commutator_word,
    conjugated_generator,
    graph_json,
    inverse_word,
)
from .laurent import ZZ, CoefficientRing
from .matrices import (
    STANDARD,
    PairingForm,
    act,
    basis_vector,
    is_identity,
    pairing,
    word_matrix,
)
from .zigzag import zigzag

CRITERION_COMMUTATOR = "commutator"
CRITERION_BRAID_RELATOR = "braid-relator"
CRITERION_TWIST_QUOTIENT = "twist-quotient"


@dataclass(frozen=True, slots=True)
class Rejection:
    """A named reason why a candidate failed a criterion."""

    criterion: str
    clause: str
    detail: str

    def to_json(self) -> dict:
        return {
            "accepted": False,
            "criterion": self.criterion,
            "clause": self.clause,
            "detail": self.detail,
        }

    def __str__(self) -> str:
        return f"rejected [{self.criterion}/{self.clause}]: {self.detail}"


@dataclass(frozen=True)
class KernelCertificate:
    """Evidence that a braid word lies in the kernel of a Burau form.

    `witnesses` holds the defining words: two (word, vertex) pairs for the
    pairing criteria, one for the twist quotient.  `pairing` and the hom data
    are present for the pairing criteria; `fix_exponent` (the l with
    beta(alpha_i) = q^l alpha_i) for the twist quotient.  `diagnostics` is a
    tuple of (key, value) pairs recorded for the reader, never consumed.
    """

    graph: CoxeterGraph
    criterion: str
    witnesses: tuple
    kernel_word: tuple
    ring: CoefficientRing
    form: PairingForm
    pairing: str | None = None
    normalizing_shift: int | None = None
    hom_table: tuple | None = None
    total_hom_dim: int | None = None
    fix_exponent: int | None = None
    diagnostics: tuple = ()
    verified: bool = False

    def __post_init__(self) -> None:
        if not self.kernel_word:
            raise ValueError("kernel word must be non-empty")
        if self.criterion in (CRITERION_COMMUTATOR, CRITERION_BRAID_RELATOR):
            if self.pairing is None or self.hom_table is None:
                raise ValueError(
                    f"{self.criterion} certificates need pairing and hom evidence"
                )
        elif self.criterion == CRITERION_TWIST_QUOTIENT:
            if self.fix_exponent is None:
                raise ValueError(
                    "twist-quotient certificates need the fixing exponent"
                )
        else:
            raise ValueError(f"unknown criterion {self.criterion!r}")

    def to_json(self) -> dict:
        return {
            "accepted": True,
            "graph": graph_json(self.graph),
            "criterion": self.criterion,
            "witnesses": [
                {"word": list(word), "vertex": vertex}
                for word, vertex in self.witnesses
            ],
            "kernel_word": list(self.kernel_word),
            "ring": str(self.ring),
            "form": self.form.variant,
            "pairing": self.pairing,
            "normalizing_shift": self.normalizing_shift,
            "hom_table": None
            if self.hom_table is None
            else {f"{gg},{hh}": dim for (gg, hh), dim in self.hom_table},
            "total_hom_dim": self.total_hom_dim,
            "fix_exponent": self.fix_exponent,
            "diagnostics": dict(self.diagnostics),
            "verified": self.verified,
        }


def verify_kernel_word(cert: KernelCertificate) -> bool:
    """Recompute the Burau matrix of the certificate's kernel word over its
    own ring and form, and compare with the identity.  The final gate."""
    m = word_matrix(cert.graph, cert.kernel_word, cert.form, cert.ring)
    return is_identity(m)


def seal_certificate(cert: KernelCertificate):
    if verify_kernel_word(cert):
        return replace(cert, verified=True)
    return Rejection(
        cert.criterion,
        "verification",
        "kernel word does not map to the identity matrix",
    )


# the one rejection of every orthogonal pair without morphisms; a search
# keeps one per candidate pair, so they share this instance
_NO_MORPHISMS = Rejection(
    CRITERION_COMMUTATOR,
    "hom",
    "no morphisms between the twisted projectives: the commutator "
    "is the trivial braid for categorical reasons",
)


def _pairing_criterion(criterion: str, w1, i1: int, w2, i2: int, g: CoxeterGraph):
    """The body of both pairing criteria; `criterion` picks the pairing test,
    the hom threshold and the kernel word."""
    commutator = criterion == CRITERION_COMMUTATOR
    p = pairing(act(g, w1, basis_vector(g, i1)), act(g, w2, basis_vector(g, i2)))
    if commutator:
        shift = None
        if not p.is_zero():
            return Rejection(criterion, "pairing", f"pairing is {p}, expected 0")
    else:
        power = p.signed_q_power()
        if power is None:
            return Rejection(
                criterion, "pairing", f"pairing is {p}, expected a signed power of q"
            )
        shift = power[0]
    algebra = zigzag(g)
    table = hom_table(
        act_complex(g, w1, projective(algebra, i1)),
        act_complex(g, w2, projective(algebra, i2)),
    )
    total = sum(table.values())
    if commutator and total == 0:
        return _NO_MORPHISMS
    if not commutator and total <= 1:
        return Rejection(
            criterion,
            "hom",
            f"total hom dimension is {total}, expected more than 1: the "
            "relator word is the trivial braid for categorical reasons",
        )
    t1 = conjugated_generator(w1, i1)
    t2 = conjugated_generator(w2, i2)
    if commutator:
        kernel = commutator_word(t1, t2)
    else:
        kernel = t1 + t2 + t1 + inverse_word(t2) + inverse_word(t1) + inverse_word(t2)
    cert = KernelCertificate(
        graph=g,
        criterion=criterion,
        witnesses=((tuple(w1), i1), (tuple(w2), i2)),
        kernel_word=kernel,
        ring=ZZ,
        form=STANDARD,
        pairing=str(p),
        normalizing_shift=shift,
        hom_table=tuple(sorted(table.items())),
        total_hom_dim=total,
    )
    return seal_certificate(cert)


def criterion1(w1, i1: int, w2, i2: int, g: CoxeterGraph):
    """Orthogonal curves: accept when the pairing of the two curve vectors is
    exactly zero and the twisted projectives still see each other (non-zero
    total hom dimension).  The kernel word is the commutator of the twists."""
    return _pairing_criterion(CRITERION_COMMUTATOR, w1, i1, w2, i2, g)


def criterion2(w1, i1: int, w2, i2: int, g: CoxeterGraph):
    """Once-intersecting curves: accept when the pairing is exactly a signed
    power of q (the power records the normalizing shift) and the total hom
    dimension exceeds one.  The kernel word is the braid-relator word of the
    two twists."""
    return _pairing_criterion(CRITERION_BRAID_RELATOR, w1, i1, w2, i2, g)
