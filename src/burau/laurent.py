"""Exact Laurent polynomials in one variable q.

Coefficients live in ZZ, QQ, or ZZ/p (p >= 2, composite allowed).  Nothing in
this module ever divides by a coefficient, so non-field moduli are safe; the
only inversions happen in `evaluate`, which checks invertibility first.

Polynomials are immutable and canonical: no zero coefficients are stored and
mod-p coefficients are reduced to representatives 0..p-1.  Equality is
therefore plain structural comparison, which the rest of the library leans on
(kernel certificates assert exact matrix identity, never closeness).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd


@dataclass(frozen=True)
class CoefficientRing:
    """One of ZZ ("Z"), QQ ("Q"), or ZZ/pZZ ("mod" with modulus p)."""

    kind: str
    p: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("Z", "Q", "mod"):
            raise ValueError(f"unknown coefficient ring kind {self.kind!r}")
        if self.kind == "mod":
            if self.p is None or self.p < 2:
                raise ValueError("modulus must be an integer >= 2")
        elif self.p is not None:
            raise ValueError("only modular rings carry a modulus")

    def normalize(self, c):
        if self.kind == "mod":
            if not isinstance(c, int):
                raise TypeError(f"mod-{self.p} coefficients must be integers")
            return c % self.p
        if self.kind == "Q":
            if isinstance(c, (int, Fraction)):
                return Fraction(c)
            raise TypeError("rational coefficients must be int or Fraction")
        if not isinstance(c, int):
            raise TypeError("integer coefficients must be int")
        return c

    def is_unit(self, c) -> bool:
        c = self.normalize(c)
        if self.kind == "Z":
            return c in (1, -1)
        if self.kind == "Q":
            return c != 0
        return gcd(c, self.p) == 1

    def invert(self, c):
        c = self.normalize(c)
        if not self.is_unit(c):
            raise ZeroDivisionError(f"{c} is not invertible in {self}")
        if self.kind == "mod":
            return pow(c, -1, self.p)
        if self.kind == "Q":
            return 1 / c
        return c  # +-1 are self-inverse

    def __str__(self) -> str:
        if self.kind == "mod":
            return f"Z/{self.p}"
        return {"Z": "Z", "Q": "Q"}[self.kind]


ZZ = CoefficientRing("Z")
QQ = CoefficientRing("Q")


def IntegersMod(p: int) -> CoefficientRing:
    return CoefficientRing("mod", p)


def _check_same_ring(x: "LaurentPoly", y: "LaurentPoly") -> None:
    if x.ring != y.ring:
        raise ValueError(f"coefficient ring mismatch: {x.ring} vs {y.ring}")


@dataclass(frozen=True)
class LaurentPoly:
    """A sparse Laurent polynomial, stored as (exponent, coefficient) pairs
    sorted by descending exponent."""

    ring: CoefficientRing
    terms: tuple

    @staticmethod
    def from_dict(ring: CoefficientRing, coeffs: dict) -> "LaurentPoly":
        cleaned = []
        for e, c in coeffs.items():
            c = ring.normalize(c)
            if c != 0:
                cleaned.append((int(e), c))
        cleaned.sort(key=lambda t: -t[0])
        return LaurentPoly(ring, tuple(cleaned))

    @staticmethod
    def zero(ring: CoefficientRing) -> "LaurentPoly":
        return LaurentPoly(ring, ())

    @staticmethod
    def const(ring: CoefficientRing, c) -> "LaurentPoly":
        return LaurentPoly.from_dict(ring, {0: c})

    @staticmethod
    def one(ring: CoefficientRing) -> "LaurentPoly":
        return LaurentPoly.const(ring, 1)

    @staticmethod
    def monomial(ring: CoefficientRing, e: int, c=1) -> "LaurentPoly":
        return LaurentPoly.from_dict(ring, {e: c})

    @staticmethod
    def q(ring: CoefficientRing) -> "LaurentPoly":
        return LaurentPoly.monomial(ring, 1)

    # ---- ring arithmetic -------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        _check_same_ring(self, other)
        acc = dict(self.terms)
        for e, c in other.terms:
            acc[e] = acc.get(e, 0) + c
        return LaurentPoly.from_dict(self.ring, acc)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly.from_dict(self.ring, {e: -c for e, c in self.terms})

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        _check_same_ring(self, other)
        acc: dict = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = e1 + e2
                acc[e] = acc.get(e, 0) + c1 * c2
        return LaurentPoly.from_dict(self.ring, acc)

    def scale(self, c) -> "LaurentPoly":
        return LaurentPoly.from_dict(self.ring, {e: c * v for e, v in self.terms})

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by q^k."""
        return LaurentPoly(self.ring, tuple((e + k, c) for e, c in self.terms))

    def bar(self) -> "LaurentPoly":
        """The involution q -> q^{-1} (used by the sesquilinear pairing)."""
        return LaurentPoly(self.ring, tuple(reversed([(-e, c) for e, c in self.terms])))

    # ---- inspection ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self == LaurentPoly.one(self.ring)

    def coeff(self, e: int):
        for ee, c in self.terms:
            if ee == e:
                return c
        return self.ring.normalize(0)

    def degree_span(self) -> tuple[int, int] | None:
        """(min exponent, max exponent) of the support, or None when zero."""
        if not self.terms:
            return None
        return (self.terms[-1][0], self.terms[0][0])

    def as_monomial(self):
        """Return (exponent, coefficient) if the support is a single term."""
        if len(self.terms) == 1:
            return self.terms[0]
        return None

    def signed_q_power(self):
        """Return (exponent, sign) if self is sign * q^exponent with sign +1
        or -1, else None.  +1 is tried first, so over Z/2 the sign is 1."""
        mono = self.as_monomial()
        if mono is not None:
            exponent, coeff = mono
            for sign in (1, -1):
                if coeff == self.ring.normalize(sign):
                    return exponent, sign
        return None

    def evaluate(self, q0):
        """Substitute q := q0.  q0 must be invertible whenever negative
        exponents occur."""
        q0 = self.ring.normalize(q0)
        has_negative = any(e < 0 for e, _ in self.terms)
        if has_negative and not self.ring.is_unit(q0):
            raise ZeroDivisionError(f"q0={q0} has no inverse in {self.ring}")
        inv = self.ring.invert(q0) if has_negative else None
        total = self.ring.normalize(0)
        for e, c in self.terms:
            base = q0 if e >= 0 else inv
            total = self.ring.normalize(total + c * base ** abs(e))
        return total

    def reduce_mod(self, p: int) -> "LaurentPoly":
        if self.ring != ZZ:
            raise ValueError("reduce_mod starts from integer coefficients")
        return LaurentPoly.from_dict(IntegersMod(p), dict(self.terms))

    # ---- text and JSON forms ---------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks: list[str] = []
        for e, c in self.terms:
            negative = c < 0
            mag = -c if negative else c
            if e == 0:
                body = str(mag)
            else:
                base = "q" if e == 1 else f"q^{e}"
                body = base if mag == 1 else f"{mag}*{base}"
            if not chunks:
                chunks.append(f"-{body}" if negative else body)
            else:
                chunks.append(f"- {body}" if negative else f"+ {body}")
        return " ".join(chunks)

    _TOKEN = re.compile(r"\s*([+-]|\*|\d+(?:/\d+)?|q(?:\^-?\d+)?)")

    @staticmethod
    def parse(text: str, ring: CoefficientRing = ZZ) -> "LaurentPoly":
        """Inverse of str(): accepts e.g. '-q^2 + 1', '3*q^-1', '0'."""
        s = text.strip()
        if not s:
            raise ValueError("empty polynomial string")
        tokens: list[str] = []
        pos = 0
        while pos < len(s):
            m = LaurentPoly._TOKEN.match(s, pos)
            if m is None:
                raise ValueError(f"cannot tokenize {text!r} at offset {pos}")
            tokens.append(m.group(1))
            pos = m.end()
        acc: dict[int, object] = {}
        i = 0
        while i < len(tokens):
            sign = 1
            while i < len(tokens) and tokens[i] in "+-":
                if tokens[i] == "-":
                    sign = -sign
                i += 1
            coeff = None
            exp = None
            if i < len(tokens) and tokens[i][0].isdigit():
                cs = tokens[i]
                coeff = Fraction(cs) if "/" in cs else int(cs)
                i += 1
                if i < len(tokens) and tokens[i] == "*":
                    i += 1
            if i < len(tokens) and tokens[i].startswith("q"):
                t = tokens[i]
                exp = int(t[2:]) if "^" in t else 1
                i += 1
            if coeff is None and exp is None:
                raise ValueError(f"dangling operator in {text!r}")
            c = coeff if coeff is not None else 1
            e = exp if exp is not None else 0
            acc[e] = acc.get(e, 0) + sign * c
        return LaurentPoly.from_dict(ring, acc)

    def to_json_terms(self) -> list:
        """Terms as [exponent, coefficient] lists, descending exponent."""
        return [[e, str(c) if isinstance(c, Fraction) else c] for e, c in self.terms]

    @staticmethod
    def from_json_terms(ring: CoefficientRing, terms) -> "LaurentPoly":
        acc: dict[int, object] = {}
        for e, c in terms:
            acc[int(e)] = Fraction(c) if isinstance(c, str) else c
        return LaurentPoly.from_dict(ring, acc)
