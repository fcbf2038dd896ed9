import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperjet.lattice import (
    BlowupClass,
    DivisorClass,
    blowup_intersect,
    chi,
    h0_ample,
    intersect,
    interpolating_divisor_exists,
    is_ample,
    jet_condition_count,
)
from oracle_helpers import blowup_add, blowup_square, blowup_sub

coord = st.integers(min_value=-50, max_value=50)
classes = st.builds(DivisorClass, coord, coord)


@pytest.mark.parametrize("k", range(0, 9))
def test_square_of_diagonal_class(k):
    d = DivisorClass(k + 2, k + 2)
    assert intersect(d, d) == 2 * (k + 2) ** 2


@pytest.mark.parametrize("alpha,beta", [(1, 1), (2, 5), (7, 3)])
def test_pairing_with_four_four(alpha, beta):
    assert intersect(DivisorClass(alpha, beta), DivisorClass(4, 4)) == 4 * (alpha + beta)


def test_basis_normalization():
    assert intersect(DivisorClass(1, 0), DivisorClass(0, 1)) == 1


def test_chi_examples():
    assert chi(DivisorClass(4, 4)) == 16
    assert chi(DivisorClass(5, 0)) == 0
    assert chi(DivisorClass(3, 5)) == 15


def test_is_ample_examples():
    for k in range(0, 9):
        assert is_ample(DivisorClass(k + 2, k + 2))
    assert not is_ample(DivisorClass(1, 0))
    assert not is_ample(DivisorClass(-1, 5))


def test_h0_ample_examples():
    assert h0_ample(DivisorClass(4, 4)) == 16
    assert h0_ample(DivisorClass(1, 1)) == 1
    assert h0_ample(DivisorClass(2, 3)) == 6
    with pytest.raises(ValueError):
        h0_ample(DivisorClass(1, 0))


def test_blowup_square_case_instance():
    # k = 2, weights (1,1,1): M^2 = 2*(k+2)^2 - sum (k_i+1)^2 = 32 - 12 = 20
    m = BlowupClass(DivisorClass(4, 4), (2, 2, 2))
    assert blowup_square(m) == 20


def test_pullback_orthogonal_to_exceptional():
    pullback = BlowupClass(DivisorClass(3, 7), (0, 0))
    exc_only = BlowupClass(DivisorClass(0, 0), (2, 5))
    assert blowup_intersect(pullback, exc_only) == 0


def test_blowup_arity_mismatch():
    with pytest.raises(ValueError):
        blowup_intersect(
            BlowupClass(DivisorClass(1, 1), (1,)),
            BlowupClass(DivisorClass(1, 1), (1, 2)),
        )


def test_m_equals_n_plus_f_componentwise():
    m = BlowupClass(DivisorClass(4, 4), (3, 2))
    f = BlowupClass(DivisorClass(1, 0), (1, 0))
    n = blowup_sub(m, f)
    assert blowup_add(n, f) == m
    assert n.base == DivisorClass(3, 4)
    assert n.exc == (2, 2)


def test_jet_condition_count():
    assert jet_condition_count(5) == 15
    assert jet_condition_count(0) == 0
    assert jet_condition_count(4) == 10
    with pytest.raises(ValueError):
        jet_condition_count(-1)


def test_interpolating_divisor_exists():
    d = DivisorClass(4, 4)
    assert interpolating_divisor_exists(d, (5,))           # 16 > 15
    assert interpolating_divisor_exists(d, (4, 2))         # 16 > 13
    assert interpolating_divisor_exists(d, (3, 3, 2))      # 16 > 15
    assert not interpolating_divisor_exists(d, (5, 1))     # 16 > 16 fails
    with pytest.raises(ValueError):
        interpolating_divisor_exists(DivisorClass(4, 0), (2,))


@given(classes, classes)
def test_intersect_symmetric(d1, d2):
    assert intersect(d1, d2) == intersect(d2, d1)


@given(classes, classes, classes, coord, coord)
def test_intersect_bilinear(d1, d2, d3, x, y):
    left = intersect(x * d1 + y * d2, d3)
    assert left == x * intersect(d1, d3) + y * intersect(d2, d3)


@given(classes)
def test_self_intersection_is_twice_chi(d):
    assert intersect(d, d) == 2 * chi(d)


@given(st.integers(min_value=1, max_value=50), st.integers(min_value=1, max_value=50))
def test_h0_equals_chi_on_ample(a, b):
    d = DivisorClass(a, b)
    assert h0_ample(d) == chi(d)


@given(classes, classes)
def test_blowup_with_no_exceptional_part_agrees(d1, d2):
    assert blowup_intersect(
        BlowupClass(d1, ()), BlowupClass(d2, ())
    ) == intersect(d1, d2)
