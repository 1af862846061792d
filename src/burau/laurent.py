"""Exact Laurent polynomials in one variable q.

Coefficients live in ZZ or ZZ/p (p >= 2, composite allowed).  Nothing in
this module ever divides by a coefficient, so non-field moduli are safe; the
only inversion is of q0 in `evaluate`, which refuses a q0 with no inverse.

Polynomials are immutable and dense: a polynomial is its ring, its lowest
exponent `low`, and the tuple `coeffs` of the coefficients of q^low, q^(low+1),
... up to the top exponent.  The form is canonical: the first and last
coefficients are non-zero, coefficients are normalised (ints over ZZ,
representatives 0..p-1 over ZZ/p), and zero is (ring, 0, ()).  Equality and
hashing are therefore plain structural comparison, which the rest of the
library leans on (kernel certificates assert exact matrix identity, never
closeness).

Arithmetic works on coefficient lists and reduces mod p once per output
coefficient.  `LaurentPoly.dot` accumulates a whole sum of products in one
buffer, so a matrix entry is built without intermediate polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache


@dataclass(frozen=True)
class CoefficientRing:
    """ZZ ("Z") when the modulus `p` is None, else ZZ/pZZ ("Z/p")."""

    p: int | None = None

    def __post_init__(self) -> None:
        if self.p is not None and (type(self.p) is not int or self.p < 2):
            raise ValueError(f"modulus must be an integer >= 2, not {self.p!r}")

    def normalize(self, c: int) -> int:
        if type(c) is not int:
            raise TypeError(f"coefficients over {self} must be int, not {c!r}")
        return c if self.p is None else c % self.p

    def __str__(self) -> str:
        return "Z" if self.p is None else f"Z/{self.p}"


ZZ = CoefficientRing()


@lru_cache(maxsize=None, typed=True)
def IntegersMod(p: int) -> CoefficientRing:
    # one object per modulus, so the ring checks in the arithmetic below
    # usually succeed on identity
    return CoefficientRing(p)


def _check_ring(ring: CoefficientRing, other: CoefficientRing) -> None:
    if other is not ring and other != ring:
        raise ValueError(f"coefficient ring mismatch: {ring} vs {other}")


def _check_exponent(e) -> None:
    if type(e) is not int:
        raise TypeError(f"exponents must be int, not {e!r}")


def _canonical(ring: CoefficientRing, low: int, buf: list) -> "LaurentPoly":
    """The polynomial sum_k buf[k] q^(low + k).  `buf` holds int
    coefficients that are not yet reduced; each is reduced once here."""
    if ring.p is not None:
        p = ring.p
        buf = [c % p for c in buf]
    end = len(buf)
    while end and not buf[end - 1]:
        end -= 1
    if not end:
        return LaurentPoly(ring, 0, ())
    start = 0
    while not buf[start]:
        start += 1
    return LaurentPoly(ring, low + start, tuple(buf[start:end]))


@dataclass(frozen=True, slots=True)
class LaurentPoly:
    """A dense Laurent polynomial sum_k coeffs[k] q^(low + k).

    `coeffs` holds normalised coefficients whose first and last entries are
    non-zero; zero is (ring, 0, ()).  The constructor trusts its arguments:
    build polynomials from outside values with `from_dict`, `monomial` or
    `from_json_terms`, which check and normalise them."""

    ring: CoefficientRing
    low: int
    coeffs: tuple

    @staticmethod
    def from_dict(ring: CoefficientRing, coeffs: dict) -> "LaurentPoly":
        cleaned = {}
        for e, c in coeffs.items():
            _check_exponent(e)
            c = ring.normalize(c)
            if c != 0:
                cleaned[e] = c
        if not cleaned:
            return LaurentPoly(ring, 0, ())
        low = min(cleaned)
        buf = [ring.normalize(0)] * (max(cleaned) - low + 1)
        for e, c in cleaned.items():
            buf[e - low] = c
        return LaurentPoly(ring, low, tuple(buf))

    @staticmethod
    def zero(ring: CoefficientRing) -> "LaurentPoly":
        return LaurentPoly(ring, 0, ())

    @staticmethod
    def one(ring: CoefficientRing) -> "LaurentPoly":
        return LaurentPoly.monomial(ring, 0)

    @staticmethod
    def monomial(ring: CoefficientRing, e: int, c=1) -> "LaurentPoly":
        _check_exponent(e)
        c = ring.normalize(c)
        if c == 0:
            return LaurentPoly(ring, 0, ())
        return LaurentPoly(ring, e, (c,))

    @property
    def terms(self) -> tuple:
        """The non-zero terms as (exponent, coefficient) pairs, descending."""
        low = self.low
        return tuple(
            (low + k, c)
            for k, c in reversed(tuple(enumerate(self.coeffs)))
            if c
        )

    # ---- ring arithmetic -------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        ring = self.ring
        _check_ring(ring, other.ring)
        a, b = self.coeffs, other.coeffs
        if not a:
            return other
        if not b:
            return self
        la, lb = self.low, other.low
        low = min(la, lb)
        buf = [0] * (max(la + len(a), lb + len(b)) - low)
        buf[la - low : la - low + len(a)] = a
        for k, c in enumerate(b, lb - low):
            buf[k] += c
        return _canonical(ring, low, buf)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __neg__(self) -> "LaurentPoly":
        p = self.ring.p
        if p is None:
            coeffs = tuple(-c for c in self.coeffs)
        else:
            coeffs = tuple(-c % p for c in self.coeffs)
        return LaurentPoly(self.ring, self.low, coeffs)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        return LaurentPoly.dot((self,), (other,))

    @staticmethod
    def dot(xs, ys) -> "LaurentPoly":
        """The sum of x_k * y_k over paired entries of two equally long,
        non-empty sequences, accumulated in one coefficient buffer and
        normalised once.  Every entry must be over the same ring."""
        ring = None
        live = []
        low = high = 0
        for x, y in zip(xs, ys, strict=True):
            if ring is None:
                ring = x.ring
            elif x.ring is not ring:
                _check_ring(ring, x.ring)
            if y.ring is not ring:
                _check_ring(ring, y.ring)
            a, b = x.coeffs, y.coeffs
            if a and b:
                lo = x.low + y.low
                hi = lo + len(a) + len(b) - 1
                if not live:
                    low, high = lo, hi
                else:
                    if lo < low:
                        low = lo
                    if hi > high:
                        high = hi
                live.append((lo, a, b))
        if ring is None:
            raise ValueError("dot needs at least one pair of polynomials")
        if not live:
            return LaurentPoly(ring, 0, ())
        buf = [0] * (high - low)
        for lo, a, b in live:
            if len(a) > len(b):
                a, b = b, a
            for i, c in enumerate(a, lo - low):
                if c:
                    for j, d in enumerate(b, i):
                        buf[j] += c * d
        return _canonical(ring, low, buf)

    def scale(self, c) -> "LaurentPoly":
        c = self.ring.normalize(c)
        return _canonical(self.ring, self.low, [c * v for v in self.coeffs])

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by q^k."""
        if not self.coeffs:
            return self
        return LaurentPoly(self.ring, self.low + k, self.coeffs)

    def bar(self) -> "LaurentPoly":
        """The involution q -> q^{-1} (used by the sesquilinear pairing)."""
        if not self.coeffs:
            return self
        return LaurentPoly(
            self.ring, 1 - self.low - len(self.coeffs), self.coeffs[::-1]
        )

    # ---- inspection ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree_span(self) -> tuple[int, int] | None:
        """(min exponent, max exponent) of the support, or None when zero."""
        if not self.coeffs:
            return None
        return (self.low, self.low + len(self.coeffs) - 1)

    def as_monomial(self):
        """Return (exponent, coefficient) if the support is a single term."""
        if len(self.coeffs) == 1:
            return (self.low, self.coeffs[0])
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
        """Substitute q := q0 (Horner's rule).  q0 must be invertible
        whenever negative exponents occur: +-1 over ZZ, a unit over ZZ/p."""
        ring = self.ring
        p = ring.p
        q0 = ring.normalize(q0)
        if p is not None:
            try:
                factor = pow(q0, self.low, p)
            except ValueError:  # pow's refusal of a non-unit to a negative power
                raise ZeroDivisionError(f"q0={q0} has no inverse in {ring}") from None
        elif self.low < 0 and q0 not in (1, -1):
            raise ZeroDivisionError(f"q0={q0} has no inverse in {ring}")
        else:
            factor = q0 ** abs(self.low)  # q0 = +-1 is its own inverse when low < 0
        total = 0
        for c in reversed(self.coeffs):
            total = ring.normalize(total * q0 + c)
        return ring.normalize(total * factor)

    def reduce_mod(self, p: int) -> "LaurentPoly":
        if self.ring != ZZ:
            raise ValueError("reduce_mod starts from integer coefficients")
        return _canonical(IntegersMod(p), self.low, list(self.coeffs))

    # ---- text and JSON forms ---------------------------------------------

    def __str__(self) -> str:
        if not self.coeffs:
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

    def to_json_terms(self) -> list:
        """Terms as [exponent, coefficient] lists, descending exponent."""
        return [[e, c] for e, c in self.terms]

    @staticmethod
    def from_json_terms(ring: CoefficientRing, terms) -> "LaurentPoly":
        for e, _ in terms:
            _check_exponent(e)  # before a dict merges a float key into an equal int
        return LaurentPoly.from_dict(ring, dict(terms))
