"""The seven types of hyperelliptic (bielliptic) surfaces.

A hyperelliptic surface is a quotient (A x B)/G of a product of elliptic
curves; the Bagnera-de Franchis classification gives exactly seven types,
distinguished by the group G and the multiplicities of the singular fibres
of the fibration over P^1.  Numerical divisor classes form a rank-2 lattice
with basis A/mu and (mu/gamma)B, where mu is the lcm of the singular-fibre
multiplicities and gamma = |G|.  All classes in this package are written as
integer pairs (a, b) in that basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .lattice import DivisorClass

# Fibre kinds used both for catalog classes and for incidence blocks.
SINGULAR_A = "singular-A"      # reduced singular fibre, minimal class (1, 0)
INTERMEDIATE_A = "intermediate-A"  # singular fibre m*(A/mu), 1 < m <= mu/2
FULL_A = "full-A"              # general fibre A = (mu, 0)
B_FIBRE = "B"                  # fibre of the second fibration, (0, gamma/mu)


@dataclass(frozen=True)
class SurfaceType:
    """One row of the classification: group, singular multiplicities, mu, gamma."""

    type_id: int
    group_name: str
    singular_multiplicities: tuple[int, ...]
    mu: int
    gamma: int

    def __post_init__(self) -> None:
        if self.mu != math.lcm(*self.singular_multiplicities):
            raise ValueError(
                f"type {self.type_id}: mu={self.mu} is not the lcm of "
                f"{self.singular_multiplicities}"
            )
        if self.gamma % self.mu != 0:
            raise ValueError(f"type {self.type_id}: mu must divide gamma")

    @property
    def b_fibre_coeff(self) -> int:
        """Second coordinate of the class of a fibre B, i.e. gamma/mu."""
        return self.gamma // self.mu

    @property
    def has_unit_b_class(self) -> bool:
        """True iff (0, 1) is effective, i.e. mu == gamma (odd types)."""
        return self.mu == self.gamma

    @property
    def intermediate_fibre_coeffs(self) -> tuple[int, ...]:
        """Coefficients m of singular fibres m*(A/mu) with 1 < m <= mu/2.

        Nonempty exactly for types 3, 4 and 7.
        """
        coeffs = {self.mu // m for m in self.singular_multiplicities}
        return tuple(sorted(c for c in coeffs if c > 1))

    def to_json(self) -> dict:
        classes = [
            {"class": list(cls.to_pair()), "kind": kind}
            for cls, kind in fibre_classes(self)
        ]
        return {
            "type_id": self.type_id,
            "group": self.group_name,
            "multiplicities": list(self.singular_multiplicities),
            "mu": self.mu,
            "gamma": self.gamma,
            "fibre_classes": classes,
        }


_CATALOG = (
    SurfaceType(1, "Z2", (2, 2, 2, 2), 2, 2),
    SurfaceType(2, "Z2xZ2", (2, 2, 2, 2), 2, 4),
    SurfaceType(3, "Z4", (2, 4, 4), 4, 4),
    SurfaceType(4, "Z4xZ2", (2, 4, 4), 4, 8),
    SurfaceType(5, "Z3", (3, 3, 3), 3, 3),
    SurfaceType(6, "Z3xZ3", (3, 3, 3), 3, 9),
    SurfaceType(7, "Z6", (2, 3, 6), 6, 6),
)


def catalog() -> tuple[SurfaceType, ...]:
    """All seven surface types, in type order."""
    return _CATALOG


def surface(type_id: int) -> SurfaceType:
    """Look up a surface type by its id in 1..7."""
    if not 1 <= type_id <= 7:
        raise ValueError(f"surface type id must be in 1..7, got {type_id}")
    return _CATALOG[type_id - 1]


def fibre_classes(s: SurfaceType) -> tuple[tuple[DivisorClass, str], ...]:
    """Curve classes of fibres that positivity checks intersect against.

    Returns the minimal singular fibre class (1, 0) (which bounds every
    singular fibre m*(A/mu) from below), the full fibre A = (mu, 0), and the
    fibre B = (0, gamma/mu).  B itself is always effective; only its
    submultiples may fail to be.
    """
    return (
        (DivisorClass(1, 0), SINGULAR_A),
        (DivisorClass(s.mu, 0), FULL_A),
        (DivisorClass(0, s.b_fibre_coeff), B_FIBRE),
    )
