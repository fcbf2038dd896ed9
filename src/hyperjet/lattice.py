"""Exact arithmetic of numerical divisor classes and their blow-up twists.

Classes live in the rank-2 lattice with basis A/mu, (mu/gamma)B.  The
intersection form in this basis is off-diagonal: (a1,b1).(a2,b2) =
a1*b2 + a2*b1, so D^2 = 2ab and, with trivial canonical class, chi(D) = ab.
Python integers are arbitrary precision, so overflow cannot silently wrap.
"""

from __future__ import annotations

from typing import NamedTuple


class DivisorClass(NamedTuple("DivisorClass", [("a", int), ("b", int)])):
    """Integer pair (a, b): coefficients of A/mu and (mu/gamma)B.

    A tuple, so it hashes in C.  Like every value type of the package that
    checks its fields, it subclasses the NamedTuple of its fields and checks
    them in `__new__`."""

    __slots__ = ()

    def __new__(cls, a: int, b: int) -> "DivisorClass":
        if not isinstance(a, int) or not isinstance(b, int):
            raise TypeError("divisor class coefficients must be integers")
        return tuple.__new__(cls, (a, b))

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        return DivisorClass(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return DivisorClass(self.a - other.a, self.b - other.b)

    def __rmul__(self, n: int) -> "DivisorClass":
        return DivisorClass(n * self.a, n * self.b)

    def __mul__(self, n: object) -> "DivisorClass":
        # a tuple's `*` would repeat the pair
        raise TypeError("a divisor class is scaled on the left: n * D")

    def to_pair(self) -> tuple[int, int]:
        return (self.a, self.b)

    def to_json(self) -> dict:
        return {"a": self.a, "b": self.b}


def intersect(d1: DivisorClass, d2: DivisorClass) -> int:
    """Intersection number a1*b2 + a2*b1."""
    return d1.a * d2.b + d2.a * d1.b


def chi(d: DivisorClass) -> int:
    """Euler characteristic a*b; equals D^2/2 since the canonical class is trivial."""
    return d.a * d.b


def is_ample(d: DivisorClass) -> bool:
    """Ample iff both coordinates are positive."""
    return d.a > 0 and d.b > 0


def h0_ample(d: DivisorClass) -> int:
    """h^0 of an ample class: equals chi = a*b.  Rejects non-ample input."""
    if not is_ample(d):
        raise ValueError(f"h0_ample requires an ample class, got ({d.a},{d.b})")
    return chi(d)


class BlowupClass(NamedTuple("BlowupClass", [("base", DivisorClass), ("exc", tuple)])):
    """Pullback minus exceptional multiples: pi*(base) - sum(exc[i] * E_i)."""

    __slots__ = ()

    def __new__(cls, base: DivisorClass, exc: tuple[int, ...]) -> "BlowupClass":
        if not all(isinstance(c, int) for c in exc):
            raise TypeError("exceptional coefficients must be integers")
        return tuple.__new__(cls, (base, exc))

    def to_json(self) -> dict:
        return {"base": self.base.to_json(), "exc": list(self.exc)}


def blowup_intersect(x: BlowupClass, y: BlowupClass) -> int:
    """Intersection on the blow-up: base.base - sum of exceptional products.

    Encodes pi*D.E_i = 0 and E_i.E_j = -delta_ij.
    """
    if len(x.exc) != len(y.exc):
        raise ValueError(
            f"exceptional arity mismatch: {len(x.exc)} vs {len(y.exc)}"
        )
    return intersect(x.base, y.base) - sum(c * d for c, d in zip(x.exc, y.exc))


def jet_condition_count(t: int) -> int:
    """Number of linear conditions imposed by vanishing to order t: t(t+1)/2."""
    if t < 0:
        raise ValueError("order must be non-negative")
    return t * (t + 1) // 2


def interpolating_divisor_exists(d: DivisorClass, orders: tuple[int, ...]) -> bool:
    """Dimension count for a member of |d| vanishing to the given orders.

    True iff h^0(d) strictly exceeds the total number of conditions; equality
    is not enough to guarantee a section.
    """
    if not is_ample(d):
        raise ValueError("interpolation count is only asserted for ample classes")
    if any(t < 1 for t in orders):
        raise ValueError("vanishing orders must be positive")
    return h0_ample(d) > sum(jet_condition_count(t) for t in orders)
