from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperjet.lattice import DivisorClass
from hyperjet.nonfibre import max_multiplicity
from oracle_helpers import (
    CurveCandidate,
    enumerate_admissible,
    genus_admissible,
    max_single_multiplicity,
)


def test_single_multiplicity_examples():
    assert genus_admissible(CurveCandidate(DivisorClass(4, 4), (6,)))      # 30 <= 32
    assert not genus_admissible(CurveCandidate(DivisorClass(4, 4), (7,)))  # 42 > 32


def test_zero_one_vectors_always_admissible():
    for cls in (DivisorClass(1, 1), DivisorClass(4, 4), DivisorClass(2, 3)):
        for mults in product((0, 1), repeat=4):
            if any(mults):
                assert genus_admissible(CurveCandidate(cls, mults))


def test_unit_class_pairs():
    assert genus_admissible(CurveCandidate(DivisorClass(1, 1), (2, 1)))      # 2 <= 2
    assert not genus_admissible(CurveCandidate(DivisorClass(1, 1), (2, 2)))  # 4 > 2


@pytest.mark.parametrize(
    "cls,expected",
    [
        ((4, 4), 6), ((4, 3), 5), ((4, 2), 4), ((4, 1), 3), ((3, 3), 4),
        ((3, 2), 4), ((3, 1), 3), ((2, 2), 3), ((2, 1), 2), ((1, 1), 2),
        ((1, 2), 2), ((2, 4), 4),
    ],
)
def test_max_single_multiplicity_table(cls, expected):
    a, b = cls
    assert max_multiplicity(2 * a * b) == expected


def test_max_single_multiplicity_against_linear_scan():
    for a in range(1, 7):
        for b in range(1, 7):
            bound = 2 * a * b
            expected = max(m for m in range(1, 100) if m * (m - 1) <= bound)
            assert max_multiplicity(bound) == expected
            # the oracle's own closed form, which the bounded oracle uses
            assert max_single_multiplicity(DivisorClass(a, b)) == expected
            for cap in range(1, expected + 2):
                assert max_multiplicity(bound, cap) == min(expected, cap)


def test_max_single_multiplicity_monotone_in_product():
    # the bound depends on the class only through alpha*beta
    values = [max_multiplicity(2 * ab) for ab in range(1, 30)]
    assert values == sorted(values)


def test_enumerate_admissible_small_example():
    out = enumerate_admissible(DivisorClass(1, 1), 2, 2)
    assert out == [(1, 0), (1, 1), (2, 0), (2, 1)]


def test_enumerate_admissible_four_four_pairs():
    out = enumerate_admissible(DivisorClass(4, 4), 2, 6)
    assert (6, 2) in out
    assert (5, 4) in out
    assert (6, 3) not in out


def test_enumerate_admissible_trivial():
    assert enumerate_admissible(DivisorClass(2, 3), 1, 1) == [(1,)]


@pytest.mark.parametrize("a,b,r,cap", [(1, 1, 3, 3), (2, 2, 2, 4), (3, 2, 3, 4), (4, 4, 2, 6)])
def test_enumerate_matches_brute_force(a, b, r, cap):
    cls = DivisorClass(a, b)
    brute = sorted(
        vec
        for vec in product(range(cap + 1), repeat=r)
        if vec[0] >= 1
        and all(vec[i] >= vec[i + 1] for i in range(r - 1))
        and sum(m * (m - 1) for m in vec) <= 2 * a * b
    )
    assert enumerate_admissible(cls, r, cap) == brute


@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=5),
    st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=5),
)
def test_admissibility_definition(a, b, mults):
    if not any(mults):
        mults = mults + [1]
    cand = CurveCandidate(DivisorClass(a, b), tuple(mults))
    assert genus_admissible(cand) == (
        sum(m * (m - 1) for m in mults) <= 2 * a * b
    )


def test_candidate_validation():
    with pytest.raises(ValueError):
        CurveCandidate(DivisorClass(1, 1), (0, 0))
    with pytest.raises(ValueError):
        CurveCandidate(DivisorClass(1, 1), (-1, 2))
