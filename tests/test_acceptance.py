"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line with its measured quantities; the
module is self-contained and runs on a laptop in a couple of minutes.
"""

import random
import time
from fractions import Fraction
from itertools import product

import pytest

from hyperjet import lp, nonfibre, tables
from hyperjet.configurations import classify, enumerate_configurations
from hyperjet.engine import (
    build_correction,
    build_twist,
    certify_r1,
    default_base,
    iter_certificates,
)
from hyperjet.lattice import (
    DivisorClass,
    chi,
    h0_ample,
    intersect,
    is_ample,
)
from hyperjet.surfaces import catalog, surface
from oracle_helpers import check_bounded, naive_bounded_checks

K_RANGE = range(2, 9)
TIME_BUDGET_SWEEP = 300.0


@pytest.fixture(scope="module")
def main_sweep():
    """Criterion 2's full run, shared with criterion 7."""
    t0 = time.time()
    label_counts: dict[tuple[int, str], int] = {}
    total = failed = 0
    for s in catalog():
        for k in K_RANGE:
            for cert in iter_certificates(s, k):
                total += 1
                failed += not cert.passed
                key = (s.type_id, cert.label)
                label_counts[key] = label_counts.get(key, 0) + 1
    return {
        "elapsed": time.time() - t0,
        "total": total,
        "failed": failed,
        "label_counts": label_counts,
    }


def test_criterion_1_table_reproduction():
    t0 = time.time()
    rows = tables.bounded_curve_rows()
    problems = tables.diff_tables(rows, tables.golden_bounded_curve_rows())
    elapsed = time.time() - t0
    assert problems == []
    assert [r["max_mult"] for r in rows] == [6, 5, 4, 3, 4, 4, 3, 3, 2, 2]
    assert [r["auto_bound"] for r in rows] == [4, 3, 3, 2, 3, 2, 2, 2, 1, 1]
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS: 10/10 rows match golden in {elapsed:.3f}s")


def test_criterion_2_main_theorem_verification(main_sweep):
    assert main_sweep["failed"] == 0
    assert main_sweep["elapsed"] < TIME_BUDGET_SWEEP
    print(
        f"\nACCEPTANCE 2 PASS: {main_sweep['total']} certificates, "
        f"0 failures, {main_sweep['elapsed']:.1f}s (types 1-7, k 2-8)"
    )


def test_criterion_3_single_point_path():
    for k in range(0, 9):
        cert = certify_r1(k, surface(1))
        assert cert.passed
        nef, big = cert.checks
        lsq = intersect(cert.base, cert.base)
        assert lsq == 2 * (k + 2) ** 2
        assert nef.value == 0  # threshold k+2 met exactly by min(a, b) = k+2
        assert big.value == lsq - (k + 2) ** 2
    print("\nACCEPTANCE 3 PASS: single-point certificates exact for k in 0..8")


def test_criterion_4_lattice_properties():
    rng = random.Random(90125)
    for _ in range(10_000):
        a1, b1, a2, b2 = (rng.randint(-40, 40) for _ in range(4))
        d1, d2 = DivisorClass(a1, b1), DivisorClass(a2, b2)
        assert intersect(d1, d2) == intersect(d2, d1)
        x, y = rng.randint(-5, 5), rng.randint(-5, 5)
        assert intersect(x * d1 + y * d2, d2) == x * intersect(d1, d2) + y * intersect(d2, d2)
        assert intersect(d1, d1) == 2 * chi(d1)
        if is_ample(d1):
            assert h0_ample(d1) == chi(d1)
    print("\nACCEPTANCE 4 PASS: 10000 random pairs satisfy all lattice identities")


def test_criterion_5_bounded_oracle_agreement():
    """check_bounded equals an independent naive enumerator, r <= 4, cap 6.

    Types 1 and 3 at k in {2, 3} exercise every case label on configurations
    with at most four points; agreement is exact set equality of
    (class, assignment, value, verdict) tuples over all (alpha, beta) <= (4, 4).
    """
    compared = 0
    for tid in (1, 3):
        s = surface(tid)
        for k in (2, 3):
            for cfg in enumerate_configurations(k, s):
                if cfg.r < 2 or cfg.r > 4:
                    continue
                out = classify(cfg, s)
                base = default_base(k)
                divisor = build_twist(k, cfg.weights, base)
                strict = out.label not in ("I", "IIIa", "SingM-a")
                if strict:
                    _, divisor = build_correction(cfg, out, s, divisor)
                expected = naive_bounded_checks(cfg, divisor, strict, box=4, cap=6)
                got = {
                    (c.alpha, c.beta, c.mults, c.value, c.passed)
                    for c in check_bounded(cfg, out, s, base, cap=6)
                }
                assert got == expected, (tid, k, cfg.to_json())
                compared += 1
    print(f"\nACCEPTANCE 5 PASS: bounded enumerations match the naive oracle "
          f"on {compared} configurations")


def _box_scan_violations(sys_: lp.LinearSystem) -> int:
    """Integer scan of the unbounded-regime box: s in [6,60], m_i in [0,48]."""
    import numpy as np

    names = sys_.variables
    assert names[0] == "s"
    grids = [np.arange(6, 61)] + [np.arange(0, 49)] * (len(names) - 1)
    mesh = np.meshgrid(*grids, indexing="ij", sparse=True)

    def evaluate(c: lp.Constraint):
        total = np.zeros((1,) * len(names))
        for coeff, axis in zip(c.coeffs, mesh):
            if coeff != 0:
                total = total + float(coeff) * axis
        return total

    feasible = np.ones((1,) * len(names), dtype=bool)
    for c in sys_.constraints:
        lhs = evaluate(c)
        feasible = feasible & (lhs > float(c.bound) if c.rel == lp.GT else lhs >= float(c.bound))
    lhs = evaluate(sys_.target)
    holds = lhs > float(sys_.target.bound) if sys_.target.rel == lp.GT else lhs >= float(sys_.target.bound)
    return int((feasible & ~holds).sum())


def test_criterion_6_lp_oracle_agreement():
    # (a) every implication instance generated for k in 2..8, against the box
    systems: dict[str, lp.LinearSystem] = {}
    for k in K_RANGE:
        for label in ("I", "IIa", "IIb", "IIIa", "IIIb", "IV", "SingM-a", "SingM-b"):
            report = nonfibre.check_unbounded(label, k, default_base(k), True)
            assert report.passed
            for fact in report.facts:
                if fact.system is not None:
                    systems[fact.name] = fact.system
                    res = lp.entails(fact.system)
                    assert res.status == lp.VALID
                    assert lp.verify_witness(fact.system, res.witness)
    assert len(systems) >= 8
    for name, sys_ in systems.items():
        assert _box_scan_violations(sys_) == 0, name

    # (b) randomized systems against exhaustive small-box enumeration
    rng = random.Random(424242)
    valid_seen = 0
    for _ in range(120):
        nvars = rng.randint(1, 5)
        names = [f"x{i}" for i in range(nvars)]
        cons = [
            ({n: rng.randint(-8, 8) for n in names}, rng.choice([lp.GE, lp.GT]),
             rng.randint(-8, 8))
            for _ in range(rng.randint(1, 4))
        ]
        target = (
            {n: rng.randint(-8, 8) for n in names},
            rng.choice([lp.GE, lp.GT]),
            rng.randint(-8, 8),
        )
        sys_ = lp.system(names, cons, target)
        res = lp.entails(sys_)
        if res.is_valid:
            for point in product(range(-4, 5), repeat=nvars):
                fp = tuple(Fraction(v) for v in point)
                if all(c.holds_at(fp) for c in sys_.constraints):
                    assert sys_.target.holds_at(fp)
            if res.status == lp.VALID:
                assert lp.verify_witness(sys_, res.witness)
                valid_seen += 1
        else:
            point = tuple(res.counterexample[v] for v in sys_.variables)
            assert all(c.holds_at(point) for c in sys_.constraints)
            assert not sys_.target.holds_at(point)
    assert valid_seen >= 5
    print(f"\nACCEPTANCE 6 PASS: {len(systems)} battery implications box-checked; "
          f"120 randomized systems agree ({valid_seen} with verified witnesses)")


def test_criterion_7_even_type_gating(main_sweep):
    bad = {
        key: count
        for key, count in main_sweep["label_counts"].items()
        if key[0] in (2, 4, 6) and key[1] in ("IIb", "IIIb", "SingM-b")
    }
    assert bad == {}
    print("\nACCEPTANCE 7 PASS: types 2, 4, 6 carry zero IIb/IIIb/SingM-b labels")


def test_criterion_8_negative_control():
    witnesses = 0
    for k in (2, 3):
        base = DivisorClass(k + 1, k + 2)
        found = []
        for cert in iter_certificates(surface(1), k, base):
            if cert.passed:
                continue
            for c in cert.checks:
                if c.kind == "fibre" and not c.passed:
                    found.append(("fibre", cert.label, c.curve, c.value))
            if cert.nonfibre_report:
                for cell in cert.nonfibre_report.bounded:
                    if not cell.passed:
                        found.append(
                            ("curve", cert.label, (cell.alpha, cell.beta),
                             cell.witness, cell.min_value)
                        )
        assert found, f"no failure witness for base {base} at k={k}"
        witnesses += len(found)
    print(f"\nACCEPTANCE 8 PASS: deficient base (k+1,k+2) yields {witnesses} "
          f"explicit fibre/curve failure witnesses for k in {{2,3}}")


def test_criterion_9_monotonicity():
    t0 = time.time()
    total = failed = 0
    for s in catalog():
        for k in K_RANGE:
            for cert in iter_certificates(s, k, DivisorClass(k + 3, k + 3)):
                total += 1
                failed += not cert.passed
    elapsed = time.time() - t0
    assert failed == 0
    assert elapsed < TIME_BUDGET_SWEEP
    print(
        f"\nACCEPTANCE 9 PASS: base (k+3,k+3) re-verifies {total} certificates, "
        f"0 failures, {elapsed:.1f}s"
    )
