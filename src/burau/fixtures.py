"""Bundled counterexample word lists.

The kernel-element witnesses live in two JSON data files shipped with the
package: the affine A3 conjugator words (with the variant lists produced by
an independent run) and one word per modulus p from 6 to 16 for the D4 case.
They are loaded verbatim; nothing in the package regenerates them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from .graphs import CoxeterGraph, preset
from .laurent import ZZ, CoefficientRing, IntegersMod

D4_MODULI = tuple(range(6, 17))


def _load(filename: str) -> dict:
    path = resources.files("burau.data").joinpath(filename)
    return json.loads(path.read_text())


def load_affine_words() -> dict:
    """Raw affine A3 word lists: a, b, a_prime, b_prime plus the twist
    descriptors (which conjugator goes with which generator)."""
    return _load("words_affine_a3.json")


def load_d4_words() -> dict[int, tuple]:
    """The D4 witness word for each modulus, keyed by integer p."""
    raw = _load("words_d4_modp.json")
    return {int(p): tuple(entry["beta"]) for p, entry in raw.items()}


@dataclass(frozen=True)
class Fixture:
    """One named counterexample: the graph, the witness words and the ring
    it lives over."""

    name: str
    graph: CoxeterGraph
    graph_name: str
    witnesses: tuple
    ring: CoefficientRing

    @property
    def ring_label(self) -> str:
        return str(self.ring)


def affine_fixture(variant: bool = False) -> Fixture:
    raw = load_affine_words()
    suffix = "_prime" if variant else ""
    return Fixture(
        name="affine-a3-variant" if variant else "affine-a3",
        graph=preset("tildeA3"),
        graph_name="tildeA3",
        witnesses=tuple(
            (tuple(raw[raw[twist]["conjugator"] + suffix]), raw[twist]["generator"])
            for twist in ("alpha", "beta")
        ),
        ring=ZZ,
    )


def d4_fixture(p: int) -> Fixture:
    if p not in D4_MODULI:
        raise KeyError(
            f"no fixture for p={p}; available p: {D4_MODULI[0]}..{D4_MODULI[-1]}"
        )
    return Fixture(
        name=f"d4-mod-{p}",
        graph=preset("D4"),
        graph_name="D4",
        witnesses=((load_d4_words()[p], 1),),
        ring=IntegersMod(p),
    )


def all_fixtures() -> list[Fixture]:
    out = [affine_fixture(False), affine_fixture(True)]
    out.extend(d4_fixture(p) for p in D4_MODULI)
    return out
