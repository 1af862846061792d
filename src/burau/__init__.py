"""Exact Burau representations of Artin-Tits groups, their categorical
counterparts, and kernel-element search.

The API lives in the submodules; the package re-exports only the names the
README's examples use.  It loads the same modules as the command line."""

from . import garside, search  # noqa: F401
from .complexes import act_complex, hom_table, projective
from .criteria import criterion1
from .fixtures import affine_fixture
from .graphs import preset
from .laurent import ZZ
from .matrices import STANDARD, is_identity, word_matrix
from .zigzag import zigzag

__version__ = "0.1.0"

__all__ = [
    "STANDARD",
    "ZZ",
    "act_complex",
    "affine_fixture",
    "criterion1",
    "hom_table",
    "is_identity",
    "preset",
    "projective",
    "word_matrix",
    "zigzag",
]
