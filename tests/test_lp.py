import random
from fractions import Fraction
from itertools import product

from hyperjet import lp


def test_sum_of_constraints_valid():
    sys_ = lp.system(
        ["x", "y"],
        [({"x": 1}, lp.GE, 1), ({"y": 1}, lp.GE, 1)],
        ({"x": 1, "y": 1}, lp.GE, 2),
    )
    res = lp.entails(sys_)
    assert res.status == lp.VALID
    assert lp.verify_witness(sys_, res.witness)


def test_interpolation_pair_implication():
    sys_ = lp.system(
        ["s", "m1", "m2"],
        [
            ({"s": 1}, lp.GE, 0),
            ({"m1": 1}, lp.GE, 0),
            ({"m2": 1}, lp.GE, 0),
            ({"s": 4, "m1": -4, "m2": -2}, lp.GE, 0),
            ({"s": 4, "m1": -2, "m2": -4}, lp.GE, 0),
        ],
        ({"s": 3, "m1": -2, "m2": -2}, lp.GE, 0),
    )
    res = lp.entails(sys_)
    assert res.status == lp.VALID
    assert lp.verify_witness(sys_, res.witness)


def test_overstrong_claim_rejected_with_counterexample():
    sys_ = lp.system(
        ["s", "m1"],
        [({"s": 1}, lp.GE, 6), ({"s": 4, "m1": -5}, lp.GE, 0), ({"m1": 1}, lp.GE, 0)],
        ({"s": 1, "m1": -2}, lp.GE, 0),
    )
    res = lp.entails(sys_)
    assert res.status == lp.COUNTEREXAMPLE
    point = tuple(res.counterexample[v] for v in sys_.variables)
    assert all(c.holds_at(point) for c in sys_.constraints)
    assert not sys_.target.holds_at(point)


def test_infeasible_system_is_vacuously_valid():
    sys_ = lp.system(
        ["x"],
        [({"x": 1}, lp.GE, 1), ({"x": -1}, lp.GE, 0)],
        ({"x": 1}, lp.GE, 100),
    )
    assert lp.entails(sys_).status == lp.VACUOUSLY_VALID


def test_strict_handling():
    valid = lp.system(["x"], [({"x": 1}, lp.GT, 0)], ({"x": 1}, lp.GE, 0))
    assert lp.entails(valid).status == lp.VALID
    boundary = lp.system(["x"], [({"x": 1}, lp.GE, 0)], ({"x": 1}, lp.GT, 0))
    res = lp.entails(boundary)
    assert res.status == lp.COUNTEREXAMPLE
    assert res.counterexample["x"] == 0
    shifted = lp.system(["x"], [({"x": 1}, lp.GE, 1)], ({"x": 1}, lp.GT, 0))
    assert lp.entails(shifted).status == lp.VALID


def test_equality_constraint_and_target():
    sys_ = lp.system(
        ["x", "y"],
        [({"x": 1, "y": 1}, lp.EQ, 4), ({"x": 1, "y": -1}, lp.EQ, 0)],
        ({"x": 1}, lp.EQ, 2),
    )
    assert lp.entails(sys_).status == lp.VALID
    sys2 = lp.system(
        ["x", "y"],
        [({"x": 1, "y": 1}, lp.EQ, 4)],
        ({"x": 1}, lp.EQ, 2),
    )
    assert lp.entails(sys2).status == lp.COUNTEREXAMPLE


def test_unbounded_direction_yields_counterexample():
    sys_ = lp.system(
        ["x", "y"],
        [({"x": 1}, lp.GE, 0), ({"y": 1}, lp.GE, 0)],
        ({"x": 1, "y": -1}, lp.GE, 0),
    )
    res = lp.entails(sys_)
    assert res.status == lp.COUNTEREXAMPLE


def test_rational_coefficients():
    sys_ = lp.system(
        ["x"],
        [({"x": Fraction(2, 3)}, lp.GE, Fraction(1, 2))],
        ({"x": 1}, lp.GE, Fraction(3, 4)),
    )
    assert lp.entails(sys_).status == lp.VALID


def test_determinism():
    sys_ = lp.system(
        ["s", "m1", "m2"],
        [
            ({"s": 1}, lp.GE, 6),
            ({"m1": 1}, lp.GE, 0),
            ({"m2": 1}, lp.GE, 0),
            ({"s": 4, "m1": -4, "m2": -2}, lp.GE, 0),
        ],
        ({"s": 2, "m1": -2, "m2": -1}, lp.GE, 0),
    )
    r1, r2 = lp.entails(sys_), lp.entails(sys_)
    assert r1 == r2


def test_json_round_trip():
    sys_ = lp.system(
        ["x", "y"],
        [({"x": 1, "y": Fraction(1, 2)}, lp.GT, 1)],
        ({"x": 2, "y": 1}, lp.GT, 2),
    )
    again = lp.LinearSystem.from_json(sys_.to_json())
    assert again == sys_
    assert lp.entails(again).status == lp.VALID


def _random_system(rng, nvars, ncons):
    names = [f"x{i}" for i in range(nvars)]
    cons = []
    for _ in range(ncons):
        terms = {n: rng.randint(-8, 8) for n in names}
        cons.append((terms, rng.choice([lp.GE, lp.GE, lp.GT]), rng.randint(-8, 8)))
    target = ({n: rng.randint(-8, 8) for n in names}, rng.choice([lp.GE, lp.GT]),
              rng.randint(-8, 8))
    return lp.system(names, cons, target)


def _box_agrees(sys_, lo=-4, hi=4):
    """No integer point in the box may satisfy the constraints yet violate the target."""
    for point in product(range(lo, hi + 1), repeat=len(sys_.variables)):
        frac_point = tuple(Fraction(x) for x in point)
        if all(c.holds_at(frac_point) for c in sys_.constraints):
            if not sys_.target.holds_at(frac_point):
                return False
    return True


def test_randomized_agreement_with_box_enumeration():
    rng = random.Random(20240811)
    checked_valid = 0
    for trial in range(120):
        nvars = rng.randint(1, 3)
        sys_ = _random_system(rng, nvars, rng.randint(1, 4))
        res = lp.entails(sys_)
        if res.status in (lp.VALID, lp.VACUOUSLY_VALID):
            assert _box_agrees(sys_), f"trial {trial}: oracle Valid but box violation"
            if res.status == lp.VALID:
                assert lp.verify_witness(sys_, res.witness)
                checked_valid += 1
        else:
            point = tuple(res.counterexample[v] for v in sys_.variables)
            assert all(c.holds_at(point) for c in sys_.constraints)
            assert not sys_.target.holds_at(point)
    assert checked_valid >= 5


def test_equality_target_has_a_witness_per_half():
    hyps = [({"x": 1, "y": 1}, lp.EQ, 4), ({"x": 1, "y": -1}, lp.EQ, 0)]
    eq = lp.system(["x", "y"], hyps, ({"x": 1}, lp.EQ, 2))
    res = lp.entails(eq)
    assert res.status == lp.VALID
    ge = lp.system(["x", "y"], hyps, ({"x": 1}, lp.GE, 2))
    le = lp.system(["x", "y"], hyps, ({"x": -1}, lp.GE, -2))
    assert lp.verify_witness(ge, res.witness)
    assert lp.verify_witness(le, res.reverse_witness)
    assert not lp.verify_witness(le, res.witness)
    # one half's witness does not prove an equality target
    assert not lp.verify_witness(eq, res.witness)
    obj = res.to_json()
    assert obj["witness"] and obj["reverse_witness"]
    assert "reverse_witness" not in lp.entails(ge).to_json()
