"""Positivity of the twisted classes against curves that are not fibres.

For a curve C = (alpha, beta) with alpha, beta >= 1 passing through the
configuration points with multiplicities m_i, the required inequality is
M.C~ >= 0 (nef cases) or N.C~ > 0 (ample cases), where C~ = pi*C - sum m_i E_i
is the strict transform.  The target is the class the engine checks, M or
N = M - F, paired with C~: writing it as pi*(base - corr) - sum c_i E_i, the
target value is

    (base - corr).C  -  sum c_i * m_i,

so a report depends only on the label, the sorted c_i, corr, base, k and
whether the heavy fibres share a point.

Two regimes cover all candidates:

* bounded (alpha <= 4 and beta <= 4): direct enumeration over all
  genus-admissible multiplicity assignments; certificates record, per class,
  the exact minimum of the target and the assignment attaining it (a
  knapsack over the genus budget sum m_i(m_i-1) <= 2*alpha*beta);

* unbounded (alpha > 4 or beta > 4, hence alpha + beta >= 6): the target is
  decomposed as sum_i (k_i - 1)(s - m_i) + core with s = alpha + beta, and
  the core is certified by a fixed battery of exact linear implications
  (driven by intersection bounds against auxiliary divisors of class (4,4)
  with prescribed multiplicities) plus one closed-form quadratic fact for
  three or more points of multiplicity >= 4.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt
from typing import NamedTuple

from . import lp
from .lattice import (
    BlowupClass,
    DivisorClass,
    blowup_intersect,
    h0_ample,
    intersect,
    interpolating_divisor_exists,
    jet_condition_count,
)

BOUNDED_MAX = 4          # bounded regime: alpha <= 4 and beta <= 4
UNBOUNDED_MIN_SUM = 6    # alpha > 4 or beta > 4 forces alpha + beta >= 6
AUX_CLASS = DivisorClass(4, 4)  # auxiliary interpolating divisors live in |(4,4)|


# ---------------------------------------------------------------------------
# Bounded regime, extremal form: exact minimum per class via genus knapsack
# ---------------------------------------------------------------------------

def max_multiplicity(budget: int, cap: int | None = None) -> int:
    """Largest multiplicity m of one point within a genus budget: m(m-1) <= budget, m <= cap."""
    # m(m-1) <= budget  <=>  (2m-1)^2 <= 4*budget + 1
    m = (1 + isqrt(4 * budget + 1)) // 2
    return m if cap is None else min(m, cap)


_MAX_BUDGET = 2 * BOUNDED_MAX * BOUNDED_MAX
# multiplicity cost under the genus bound, for each multiplicity the box allows
_COST = [v * (v - 1) for v in range(max_multiplicity(_MAX_BUDGET) + 1)]
# the budgets 2*alpha*beta of the bounded classes
_CELL_BUDGETS = sorted({2 * a * b for a in range(1, BOUNDED_MAX + 1)
                        for b in range(1, BOUNDED_MAX + 1)})
_ZERO = DivisorClass(0, 0)


@lru_cache(maxsize=None)
def _knapsack_rows(coefs: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The DP rows after the items `coefs`: the best value per budget 0..32,
    and the last item's best multiplicity per budget.

    Memoized per prefix, so coefficient vectors that share a prefix share its rows.
    """
    if not coefs:
        return (0,) * (_MAX_BUDGET + 1), ()
    prev = _knapsack_rows(coefs[:-1])[0]
    coef = coefs[-1]
    best, choice = [], []
    for budget in range(_MAX_BUDGET + 1):
        top, top_v = -1, 0
        for v, cost in enumerate(_COST):
            if cost > budget:
                break
            cand = coef * v + prev[budget - cost]
            if cand > top:
                top, top_v = cand, v
        best.append(top)
        choice.append(top_v)
    return tuple(best), tuple(choice)


def _knapsack(coefs: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """max of sum(coef_i * m_i) under sum m_i(m_i-1) <= budget, per budget.

    Returns (best value per budget 0..32, witness assignment per budget).
    """
    choices = [_knapsack_rows(coefs[:i + 1])[1] for i in range(len(coefs))]
    witnesses = []
    for budget in range(_MAX_BUDGET + 1):
        rem = budget
        vec = [0] * len(coefs)
        for i in range(len(coefs) - 1, -1, -1):
            v = choices[i][rem]
            vec[i] = v
            rem -= _COST[v]
        witnesses.append(tuple(vec))
    return _knapsack_rows(coefs)[0], tuple(witnesses)


@lru_cache(maxsize=None)
def _assignment_maxima(coefs: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The knapsack's maxima and witnesses, each witness cross-checked once per budget.

    A bounded cell's value is intersect(base - corr, (alpha, beta)) less the
    maximum at its budget 2*alpha*beta; pairing its twisted class with the
    witness's strict transform gives the same intersect term less the
    witness's sum(coef_i * m_i).  The cell agrees with that pairing exactly
    when the witness attains the maximum, which depends only on the
    coefficients and the budget, so it is checked here: on the blow-up of a
    zero base, the pairing is minus the witness's sum.
    """
    maxima, witnesses = _knapsack(coefs)
    twisted = BlowupClass(_ZERO, coefs)
    for budget in _CELL_BUDGETS:
        transform = BlowupClass(_ZERO, witnesses[budget])
        if blowup_intersect(twisted, transform) != -maxima[budget]:
            raise AssertionError("extremal bounded check failed cross-check")
    return maxima, witnesses


class BoundedCellCheck(NamedTuple):
    """Exact minimum of the target over one class (alpha, beta)."""

    alpha: int
    beta: int
    min_value: int
    witness: tuple[int, ...]  # multiplicities in sorted-coefficient order
    strict: bool

    @property
    def passed(self) -> bool:
        return self.min_value > 0 if self.strict else self.min_value >= 0

    def to_json(self) -> dict:
        return {
            "class": [self.alpha, self.beta],
            "min_value": self.min_value,
            "witness_mults": list(self.witness),
            "relation": ">" if self.strict else ">=",
            "pass": self.passed,
        }


@lru_cache(maxsize=None)
def bounded_cells(
    coefs: tuple[int, ...], corr: DivisorClass, base: DivisorClass, strict: bool
) -> tuple[BoundedCellCheck, ...]:
    """Extremal bounded checks for sorted coefficient multiset `coefs`.

    Memoized: neither the label nor k enters the cells, so reports that
    differ only in those share one tuple.  The binding assignments are
    cross-checked through the blow-up pairing once per coefficient vector
    and budget, where the knapsack is memoized (`_assignment_maxima`).
    """
    maxima, witnesses = _assignment_maxima(coefs)
    reduced = base - corr
    cells = []
    for alpha in range(1, BOUNDED_MAX + 1):
        for beta in range(1, BOUNDED_MAX + 1):
            budget = 2 * alpha * beta
            value = intersect(reduced, DivisorClass(alpha, beta)) - maxima[budget]
            cells.append(BoundedCellCheck(alpha, beta, value, witnesses[budget], strict))
    return tuple(cells)


# ---------------------------------------------------------------------------
# Unbounded regime: linear-implication battery
# ---------------------------------------------------------------------------


class ImplicationCheck(NamedTuple):
    name: str
    description: str
    system: lp.LinearSystem | None
    status: str
    witness_json: dict | None
    passed: bool

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "system": self.system.to_json() if self.system else None,
            "status": self.status,
            "result": self.witness_json,
            "pass": self.passed,
        }


def _lp_fact(name: str, description: str, sys_: lp.LinearSystem) -> ImplicationCheck:
    res = lp.entails(sys_)
    return ImplicationCheck(
        name, description, sys_, res.status, res.to_json(), res.is_valid
    )


def _arith_fact(name: str, description: str, values: dict, ok: bool) -> ImplicationCheck:
    return ImplicationCheck(
        name, description, None, "valid" if ok else "failed", values, ok
    )


def _mvars(n: int) -> list[str]:
    return [f"m{i}" for i in range(1, n + 1)]


def _base_system(n: int, extra, target) -> lp.LinearSystem:
    names = ["s"] + _mvars(n)
    cons = [({"s": 1}, lp.GE, UNBOUNDED_MIN_SUM)]
    cons += [({m: 1}, lp.GE, 0) for m in _mvars(n)]
    cons += extra
    return lp.system(names, cons, target)


@lru_cache(maxsize=None)
def implication_battery() -> dict[str, ImplicationCheck]:
    """The shared, configuration-independent linear implications.

    Variables: s = alpha + beta and the multiplicities of the points under
    discussion; every system includes s >= 6 and m_i >= 0.  The intersection
    constraints come from members of |(4,4)| with prescribed multiplicities:
    5 at one point; 4 and 2 at two points; 3, 3 and 2 at three points.
    """
    facts = {}
    facts["drop-rule"] = _lp_fact(
        "drop-rule",
        "a point of multiplicity at most 3 satisfies s >= 2m",
        _base_system(1, [({"m1": -1}, lp.GE, -3)], ({"s": 1, "m1": -2}, lp.GE, 0)),
    )
    facts["point-bound"] = _lp_fact(
        "point-bound",
        "4s >= 5m gives s >= m (weight-padding premise)",
        _base_system(1, [({"s": 4, "m1": -5}, lp.GE, 0)], ({"s": 1, "m1": -1}, lp.GE, 0)),
    )
    facts["single-survivor"] = _lp_fact(
        "single-survivor",
        "one large point: 4s >= 5m gives 2s >= 2m",
        _base_system(1, [({"s": 4, "m1": -5}, lp.GE, 0)], ({"s": 2, "m1": -2}, lp.GE, 0)),
    )
    facts["pair-symmetric"] = _lp_fact(
        "pair-symmetric",
        "two large points, symmetric interpolation: 3s >= 2m1 + 2m2",
        _base_system(
            2,
            [
                ({"s": 4, "m1": -4, "m2": -2}, lp.GE, 0),
                ({"s": 4, "m1": -2, "m2": -4}, lp.GE, 0),
            ],
            ({"s": 3, "m1": -2, "m2": -2}, lp.GE, 0),
        ),
    )
    facts["pair-with-helper"] = _lp_fact(
        "pair-with-helper",
        "large point plus a point on the corrected fibre: 2s >= 2m1 + m2",
        _base_system(
            2,
            [({"s": 4, "m1": -4, "m2": -2}, lp.GE, 0)],
            ({"s": 2, "m1": -2, "m2": -1}, lp.GE, 0),
        ),
    )
    facts["triple-restore"] = _lp_fact(
        "triple-restore",
        "two large points with a restored fibre point: 3s >= 2m1 + 2m2 + m3",
        _base_system(
            3,
            [({"s": 4, "m1": -3, "m2": -3, "m3": -2}, lp.GE, 0)],
            ({"s": 3, "m1": -2, "m2": -2, "m3": -1}, lp.GE, 0),
        ),
    )
    facts["single-survivor-strict"] = _lp_fact(
        "single-survivor-strict",
        "one large point, strict: 4s >= 5m gives 2s > 2m",
        _base_system(1, [({"s": 4, "m1": -5}, lp.GE, 0)], ({"s": 2, "m1": -2}, lp.GT, 0)),
    )
    facts["pair-strict"] = _lp_fact(
        "pair-strict",
        "two large points, strict via m_i >= 4: 3s > 2m1 + 2m2",
        _base_system(
            2,
            [
                ({"m1": 1}, lp.GE, 4),
                ({"m2": 1}, lp.GE, 4),
                ({"s": 4, "m1": -4, "m2": -2}, lp.GE, 0),
                ({"s": 4, "m1": -2, "m2": -4}, lp.GE, 0),
            ],
            ({"s": 3, "m1": -2, "m2": -2}, lp.GT, 0),
        ),
    )
    facts["shared-point-strict"] = _lp_fact(
        "shared-point-strict",
        "the shared point contributes a full s > 0 term",
        lp.system(["s"], [({"s": 1}, lp.GE, UNBOUNDED_MIN_SUM)], ({"s": 1}, lp.GT, 0)),
    )
    for fact in facts.values():
        if not fact.passed:
            raise AssertionError(f"battery implication {fact.name} is not valid")
    return facts


def survivor_chain_fact() -> ImplicationCheck:
    """Closed-form fact for three or more points of multiplicity >= 4.

    The quadratic chain linearizes to (3r - 8) * 4r >= 0; with p(r) =
    12r^2 - 32r, exact arithmetic gives p(3) = 12 > 0 and forward difference
    p(r+1) - p(r) = 24r - 20 >= 52 > 0 for r >= 3, so p(r) >= 12 for every
    integer r >= 3 and the combined bound is strict.
    """
    coeff_identity = (4 * -2 - 0, 4 * 1 - 1) == (-8, 3)  # 4(r-2) - r == 3r - 8
    p3 = (3 * 3 - 8) * (4 * 3)
    diff_at_3 = 24 * 3 - 20
    ok = coeff_identity and p3 == 12 and p3 > 0 and diff_at_3 > 0 and 24 > 0
    return _arith_fact(
        "survivor-chain",
        "(3r-8)(4r) >= 12 > 0 for all integer r >= 3 "
        "(base value 12, increasing differences)",
        {"p(3)": p3, "difference_at_3": diff_at_3, "coefficient_identity": coeff_identity},
        ok,
    )


def interpolation_facts() -> tuple[ImplicationCheck, ...]:
    """Existence of the auxiliary divisors in |AUX_CLASS| by dimension count."""
    specs = (
        ("interp-single", (5,), "multiplicity 5 at one point"),
        ("interp-pair", (4, 2), "multiplicities 4,2 at two points"),
        ("interp-triple", (3, 3, 2), "multiplicities 3,3,2 at three points"),
    )
    h0 = h0_ample(AUX_CLASS)
    out = []
    for name, orders, desc in specs:
        conditions = sum(jet_condition_count(t) for t in orders)
        out.append(_arith_fact(name, f"{desc} ({h0} > {conditions})",
                               {"h0": h0, "conditions": conditions},
                               interpolating_divisor_exists(AUX_CLASS, orders)))
    return tuple(out)


# Per regime, keyed by which heavy fibres are corrected (A, B): the battery
# facts it relies on, the survivor-pattern branches they cover, and the bonus
# premise that makes an ample bound strict.  "off-fibre survivors" counts
# points of multiplicity >= 4 whose coefficient offset is +1; points on
# corrected fibres only ever need point-bound.
_NEF_FACTS = ("drop-rule", "point-bound", "single-survivor", "pair-symmetric")
_AMPLE_FACTS = ("drop-rule", "point-bound", "pair-with-helper", "triple-restore")
_SHARED_FACTS = (
    "drop-rule", "point-bound", "single-survivor-strict", "pair-strict", "shared-point-strict"
)
_NEF_BRANCHES = (
    ("0 large points", ("drop-rule",)),
    ("1 large point", ("single-survivor", "drop-rule")),
    ("2 large points", ("pair-symmetric", "drop-rule")),
    ("3+ large points", ("survivor-chain", "drop-rule")),
)
_AMPLE_BRANCHES = (
    ("0 large points off the corrected fibre", ("drop-rule", "point-bound")),
    ("1 large point off the corrected fibre", ("pair-with-helper", "drop-rule", "point-bound")),
    ("2 large points off the corrected fibre", ("triple-restore", "drop-rule", "point-bound")),
    ("3+ large points", ("survivor-chain", "drop-rule", "point-bound")),
)
_SHARED_BRANCHES = (
    ("0 large points off the corrected fibres", ("shared-point-strict", "drop-rule", "point-bound")),
    ("1 large point off the corrected fibres", ("single-survivor-strict", "drop-rule", "point-bound")),
    ("2 large points off the corrected fibres", ("pair-strict", "drop-rule", "point-bound")),
    ("3+ large points", ("survivor-chain", "drop-rule", "point-bound")),
)
_REGIMES = {
    (False, False): (_NEF_FACTS, _NEF_BRANCHES, None),
    (True, False): (
        _AMPLE_FACTS,
        _AMPLE_BRANCHES,
        ("bonus-alpha", "alpha >= 1 makes the assembled bound strict"),
    ),
    (False, True): (
        _AMPLE_FACTS,
        _AMPLE_BRANCHES,
        ("bonus-beta", "beta >= 1 makes the assembled bound strict"),
    ),
    (True, True): (_SHARED_FACTS, _SHARED_BRANCHES, None),
}


class UnboundedReport(NamedTuple):
    facts: tuple[ImplicationCheck, ...]
    premises: tuple[ImplicationCheck, ...]
    branches: tuple[tuple[str, tuple[str, ...]], ...]
    passed: bool

    def to_json(self) -> dict:
        return {
            "facts": [f.to_json() for f in self.facts],
            "premises": [p.to_json() for p in self.premises],
            "branches": [
                {"pattern": name, "facts": list(used)} for name, used in self.branches
            ],
            "pass": self.passed,
        }


@lru_cache(maxsize=None)
def check_unbounded(
    corrected: tuple[bool, bool], k: int, base: DivisorClass, shared_exists: bool
) -> UnboundedReport:
    """Assemble the unbounded-regime evidence for one set of corrected fibres.

    `corrected` says whether the heavy A-fibre and the heavy B-fibre are
    subtracted (A, B); it picks the battery facts, the bonus premise and the
    branches.  When both are, the shared-point premise checks
    `shared_exists`, which is read only then.  Memoized: every report with
    the same corrected fibres, k, base and, when both are corrected, shared
    point holds the same object.
    """
    fact_names, branches, bonus = _REGIMES[corrected]
    battery = implication_battery()
    facts = [battery[name] for name in fact_names]
    facts.append(survivor_chain_fact())
    facts.extend(interpolation_facts())

    premises = [
        _arith_fact(
            "regime-split",
            "alpha > 4 or beta > 4 forces alpha + beta >= 6; "
            "alpha, beta <= 4 is covered by the bounded enumeration",
            {"threshold": UNBOUNDED_MIN_SUM},
            (BOUNDED_MAX + 1) + 1 >= UNBOUNDED_MIN_SUM,
        ),
        _arith_fact(
            "base-margin",
            "both base coordinates are at least k+2, so the reduction for "
            "the standard base applies",
            {"base": [base.a, base.b], "needed": k + 2},
            base.a >= k + 2 and base.b >= k + 2,
        ),
    ]
    if bonus is not None:
        premises.append(_arith_fact(*bonus, {"lower_bound": 1}, True))
    if all(corrected):
        premises.append(
            _arith_fact(
                "shared-point-exists",
                "the heavy fibres share a configuration point",
                {"shared": shared_exists},
                shared_exists,
            )
        )

    passed = all(f.passed for f in facts) and all(p.passed for p in premises)
    return UnboundedReport(tuple(facts), tuple(premises), branches, passed)


# ---------------------------------------------------------------------------
# Combined report, cached by arithmetic content
# ---------------------------------------------------------------------------


class NonFibreReport(NamedTuple):
    key: str
    label: str
    bounded: tuple[BoundedCellCheck, ...]
    unbounded: UnboundedReport
    passed: bool

    def to_json(self) -> dict:
        return {
            "key": self.key,
            "label": self.label,
            "bounded": [c.to_json() for c in self.bounded],
            "unbounded": self.unbounded.to_json(),
            "pass": self.passed,
        }


@lru_cache(maxsize=None)
def analyse(
    label: str, coefs: tuple[int, ...], corr: tuple[int, int], base: DivisorClass, k: int,
    shared: bool,
) -> NonFibreReport:
    """Non-fibre report for the checked class M or N; the report cache itself.

    The checked class is pi*(base - corr) - sum c_i E_i: `coefs` are the c_i
    sorted, which the engine reads from the skeleton's core, and `corr` is
    F's base (fa, fb), (0, 0) for M.  `shared` says whether the heavy fibres
    share a point.  Memoized by these arithmetic contents, one report each.
    """
    corrected = (corr[0] > 0, corr[1] > 0)
    bounded = bounded_cells(coefs, DivisorClass(*corr), base, any(corrected))
    unbounded = check_unbounded(corrected, k, base, shared and all(corrected))
    passed = all(c.passed for c in bounded) and unbounded.passed
    key = f"{label}|{','.join(map(str, coefs))}|corr{corr}|base{base.to_pair()}|k{k}"
    return NonFibreReport(key, label, bounded, unbounded, passed)
