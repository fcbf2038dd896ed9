from fractions import Fraction
from math import lcm

import pytest

from hyperjet.lattice import DivisorClass, intersect
from hyperjet.surfaces import (
    B_FIBRE,
    FULL_A,
    SINGULAR_A,
    SurfaceType,
    catalog,
    fibre_classes,
    surface,
)


def is_vertical_effective(s: SurfaceType, b: int) -> bool:
    """Whether the vertical class (0, b) is effective.

    (0, b) = b*(mu/gamma)*B is effective iff b*(mu/gamma) is a non-negative
    integer, i.e. b >= 0 and gamma divides b*mu.
    """
    return b >= 0 and (b * s.mu) % s.gamma == 0


def test_catalog_has_seven_types_in_order():
    types = catalog()
    assert len(types) == 7
    assert [s.type_id for s in types] == list(range(1, 8))


def test_gamma_and_mu_pairs():
    assert {(s.type_id, s.gamma) for s in catalog()} == {
        (1, 2), (2, 4), (3, 4), (4, 8), (5, 3), (6, 9), (7, 6)
    }
    assert {(s.type_id, s.mu) for s in catalog()} == {
        (1, 2), (2, 2), (3, 4), (4, 4), (5, 3), (6, 3), (7, 6)
    }


def test_mu_is_lcm_of_multiplicities():
    for s in catalog():
        assert s.mu == lcm(*s.singular_multiplicities)


def test_mu_over_gamma_values_and_parity():
    for s in catalog():
        ratio = Fraction(s.mu, s.gamma)
        assert ratio in (Fraction(1), Fraction(1, 2), Fraction(1, 3))
        assert (ratio == 1) == (s.type_id % 2 == 1)


def test_table_rows_one_and_seven():
    s1, s7 = surface(1), surface(7)
    assert s1.singular_multiplicities == (2, 2, 2, 2)
    assert (s1.mu, s1.gamma) == (2, 2)
    assert s7.singular_multiplicities == (2, 3, 6)
    assert (s7.mu, s7.gamma) == (6, 6)


def test_group_names():
    assert [s.group_name for s in catalog()] == [
        "Z2", "Z2xZ2", "Z4", "Z4xZ2", "Z3", "Z3xZ3", "Z6"
    ]


def test_vertical_effectivity():
    assert not is_vertical_effective(surface(2), 1)
    assert is_vertical_effective(surface(1), 1)
    assert is_vertical_effective(surface(6), 3)
    assert not is_vertical_effective(surface(6), 2)
    assert not is_vertical_effective(surface(1), -1)
    for s in catalog():
        assert is_vertical_effective(s, 0)


def test_fibre_classes_examples():
    assert fibre_classes(surface(1)) == (
        (DivisorClass(1, 0), SINGULAR_A),
        (DivisorClass(2, 0), FULL_A),
        (DivisorClass(0, 1), B_FIBRE),
    )
    # B = 2*(B/2) in the type-2 basis; cross-check (1,0).(0,2) = 2
    t2 = fibre_classes(surface(2))
    assert t2[2][0] == DivisorClass(0, 2)
    assert intersect(DivisorClass(1, 0), DivisorClass(0, 2)) == 2
    t5 = fibre_classes(surface(5))
    assert t5 == (
        (DivisorClass(1, 0), SINGULAR_A),
        (DivisorClass(3, 0), FULL_A),
        (DivisorClass(0, 1), B_FIBRE),
    )


def test_minimal_fibres_intersect_positively():
    for s in catalog():
        classes = dict((kind, cls) for cls, kind in fibre_classes(s))
        assert intersect(classes[SINGULAR_A], classes[B_FIBRE]) > 0


def test_b_fibre_always_effective():
    for s in catalog():
        assert is_vertical_effective(s, s.b_fibre_coeff)


def test_intermediate_fibre_coefficients():
    expected = {1: (), 2: (), 3: (2,), 4: (2,), 5: (), 6: (), 7: (2, 3)}
    for s in catalog():
        assert s.intermediate_fibre_coeffs == expected[s.type_id]
        for m in s.intermediate_fibre_coeffs:
            assert 1 < m <= s.mu // 2


def test_unit_b_class_only_on_odd_types():
    for s in catalog():
        assert s.has_unit_b_class == (s.type_id % 2 == 1)
        assert s.has_unit_b_class == is_vertical_effective(s, 1)


def test_surface_lookup_bounds():
    with pytest.raises(ValueError):
        surface(0)
    with pytest.raises(ValueError):
        surface(8)


def test_catalog_json_shape():
    row = surface(3).to_json()
    assert row["type_id"] == 3
    assert row["multiplicities"] == [2, 4, 4]
    assert row["mu"] == 4 and row["gamma"] == 4
    assert {fc["kind"] for fc in row["fibre_classes"]} == {
        SINGULAR_A, FULL_A, B_FIBRE
    }
