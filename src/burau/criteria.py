"""Kernel-detection criteria: every certificate shape is built, sealed and
named here.

Two criteria for pairs of twisted generators (numbered by `criterion_shape`):
when the q-deformed pairing of the two curve vectors vanishes, the
corresponding twists commute inside the Burau image, so their group
commutator maps to the identity matrix; when the pairing is a signed power
of q, the twists satisfy the braid relation and the relator word maps to the
identity.  In both cases non-triviality of the braid itself is certified
categorically, by a non-zero (respectively more than one-dimensional) space
of morphisms between the twisted projective complexes.  `criterion1` and
`criterion2` compute the pairing and the complexes from the words; the curve
search's `confirm_pair` hands the same body, `pairing_criterion`, the ones
its store has already built.  The third shape, the twist quotient over Z/p,
is built by `verify_bigelow3` on the dual Garside word problem.

Every certificate carries a `verified` flag that is set by actually
recomputing the Burau matrix of the kernel word and comparing with the
identity.  Nothing downstream trusts a certificate whose flag is false.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .complexes import act_complex, hom_table, projective
from .garside import garside_context
from .graphs import (
    CoxeterGraph,
    commutator_word,
    conjugated_generator,
    graph_json,
    inverse_word,
    validate_word,
)
from .laurent import ZZ, CoefficientRing, IntegersMod
from .matrices import (
    DUAL,
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


def criterion_shape(criterion: int) -> str:
    """The shape of criterion 1 or 2; anything else, True too, raises ValueError."""
    if type(criterion) is not int or criterion not in (1, 2):
        raise ValueError("criterion must be 1 or 2")
    return CRITERION_COMMUTATOR if criterion == 1 else CRITERION_BRAID_RELATOR


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


def pairing_criterion(criterion: str, g: CoxeterGraph, witnesses, p, complexes):
    """The body of both pairing criteria.  `witnesses` holds the two
    (word, vertex) pairs, `p` is the exact pairing of their curve vectors
    and `complexes()` returns their two twisted projectives, called only
    once the pairing has passed; `criterion`, a `criterion_shape`, picks
    the pairing test, the hom threshold and the kernel word."""
    commutator = criterion == CRITERION_COMMUTATOR
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
    table = hom_table(*complexes())
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
    (w1, i1), (w2, i2) = witnesses
    t1 = conjugated_generator(w1, i1)
    t2 = conjugated_generator(w2, i2)
    if commutator:
        kernel = commutator_word(t1, t2)
    else:
        kernel = t1 + t2 + t1 + inverse_word(t2) + inverse_word(t1) + inverse_word(t2)
    cert = KernelCertificate(
        graph=g,
        criterion=criterion,
        witnesses=witnesses,
        kernel_word=kernel,
        ring=ZZ,
        form=STANDARD,
        pairing=str(p),
        normalizing_shift=shift,
        hom_table=tuple(sorted(table.items())),
        total_hom_dim=total,
    )
    return seal_certificate(cert)


def _word_evidence(g: CoxeterGraph, w1, i1: int, w2, i2: int) -> tuple:
    """(witnesses, pairing, complexes) for `pairing_criterion`, computed
    from the words alone: the pairing of the two acted roots, and a callable
    that twists the two projectives only when the pairing test asks."""

    def complexes():
        algebra = zigzag(g)
        return (
            act_complex(g, w1, projective(algebra, i1)),
            act_complex(g, w2, projective(algebra, i2)),
        )

    return (
        ((tuple(w1), i1), (tuple(w2), i2)),
        pairing(act(g, w1, basis_vector(g, i1)), act(g, w2, basis_vector(g, i2))),
        complexes,
    )


def criterion1(w1, i1: int, w2, i2: int, g: CoxeterGraph):
    """Orthogonal curves: accept when the pairing of the two curve vectors is
    exactly zero and the twisted projectives still see each other (non-zero
    total hom dimension).  The kernel word is the commutator of the twists."""
    return pairing_criterion(criterion_shape(1), g, *_word_evidence(g, w1, i1, w2, i2))


def criterion2(w1, i1: int, w2, i2: int, g: CoxeterGraph):
    """Once-intersecting curves: accept when the pairing is exactly a signed
    power of q (the power records the normalizing shift) and the total hom
    dimension exceeds one.  The kernel word is the braid-relator word of the
    two twists."""
    return pairing_criterion(criterion_shape(2), g, *_word_evidence(g, w1, i1, w2, i2))


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
    identity status ride along as diagnostics.  One normal-form state serves
    both: it takes beta, then sigma_i (the report), then beta^-1 sigma_i^-1
    (the word problem)."""
    validate_word(g, beta)
    ring = IntegersMod(p)  # refuses a modulus that is not an int >= 2
    ctx = garside_context(g)  # raises NotFiniteType early for bad graphs
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
    state = ctx.new_nf_state(beta)
    report = state.samecurve_report(i)
    for letter in kernel[len(beta) + 1 :]:
        state.push_letter(letter)
    if state.is_trivial():
        return Rejection(
            CRITERION_TWIST_QUOTIENT,
            "trivial-braid",
            "the commutator is the trivial braid, so it certifies nothing",
        )
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
