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

from .lattice import DivisorClass

# Fibre kinds used both for catalog classes and for incidence blocks.
SINGULAR_A = "singular-A"      # reduced singular fibre, minimal class (1, 0)
INTERMEDIATE_A = "intermediate-A"  # singular fibre m*(A/mu), 1 < m <= mu/2
FULL_A = "full-A"              # general fibre A = (mu, 0)
B_FIBRE = "B"                  # fibre of the second fibration, (0, gamma/mu)


class SurfaceType:
    """One row of the classification: group, singular multiplicities, mu, gamma.

    A plain class, not a tuple: it computes its derived per-type values once,
    when it is made, and two types are equal only if they are one object
    (the catalog's)."""

    __slots__ = ("type_id", "group_name", "singular_multiplicities", "mu", "gamma",
                 "b_fibre_coeff", "has_unit_b_class", "intermediate_fibre_coeffs",
                 "a_fibres", "fresh_fibres")

    def __init__(self, type_id: int, group_name: str,
                 singular_multiplicities: tuple[int, ...], mu: int, gamma: int) -> None:
        if mu != math.lcm(*singular_multiplicities):
            raise ValueError(
                f"type {type_id}: mu={mu} is not the lcm of {singular_multiplicities}"
            )
        if gamma % mu != 0:
            raise ValueError(f"type {type_id}: mu must divide gamma")
        self.type_id = type_id
        self.group_name = group_name
        self.singular_multiplicities = singular_multiplicities
        self.mu = mu
        self.gamma = gamma
        # second coordinate of the class of a fibre B, i.e. gamma/mu
        self.b_fibre_coeff = gamma // mu
        # (0, 1) is effective iff mu == gamma (odd types)
        self.has_unit_b_class = mu == gamma
        # the m of the singular fibres m*(A/mu) with 1 < m <= mu/2: types 3, 4, 7
        coeffs = {mu // m for m in singular_multiplicities}
        self.intermediate_fibre_coeffs = tuple(sorted(c for c in coeffs if c > 1))
        # the (kind, coefficient) pairs an A-block may carry, minimal first: the
        # minimal singular fibre (1, 0), each intermediate fibre, then A = (mu, 0)
        inter = tuple((INTERMEDIATE_A, m) for m in self.intermediate_fibre_coeffs)
        self.a_fibres = ((SINGULAR_A, 1), *inter, (FULL_A, mu))
        # each of `fibre_classes` as a fibre through no point: (points, kind,
        # coefficient), the class being coefficient*(1, 0), or *(0, 1) for B
        self.fresh_fibres = tuple(
            ((), kind, cls.b if kind == B_FIBRE else cls.a) for cls, kind in fibre_classes(self)
        )

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
