"""Positivity of the twisted classes against curves that are not fibres.

For a curve C = (alpha, beta) with alpha, beta >= 1 passing through the
configuration points with multiplicities m_i, the required inequality is
M.C~ >= 0 (nef cases) or N.C~ > 0 (ample cases), where C~ = pi*C - sum m_i E_i
is the strict transform.  The target is the class the engine checks, M or
N = M - F, paired with C~: writing it as pi*(base - corr) - sum c_i E_i, the
target value is

    (base - corr).C  -  sum c_i * m_i,

so a report depends only on the label, the sorted c_i, corr, base and k.

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

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

from . import lp
from .configurations import (
    CASE_I,
    CASE_IIA,
    CASE_IIB,
    CASE_IIIA,
    CASE_IIIB,
    CASE_IV,
    NORIMATSU_LABELS,
    SING_M_A,
    SING_M_B,
    Classification,
)
from .lattice import (
    BlowupClass,
    DivisorClass,
    blowup_intersect,
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


@lru_cache(maxsize=None)
def _assignment_maxima(coefs: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """max of sum(coef_i * m_i) under sum m_i(m_i-1) <= budget, per budget.

    Returns (best value per budget 0..32, witness assignment per budget).
    """
    n = len(coefs)
    best = [[0] * (_MAX_BUDGET + 1) for _ in range(n + 1)]
    choice = [[0] * (_MAX_BUDGET + 1) for _ in range(n)]
    for i in range(n):
        for budget in range(_MAX_BUDGET + 1):
            top, top_v = -1, 0
            for v, cost in enumerate(_COST):
                if cost > budget:
                    break
                cand = coefs[i] * v + best[i][budget - cost]
                if cand > top:
                    top, top_v = cand, v
            best[i + 1][budget] = top
            choice[i][budget] = top_v
    witnesses = []
    for budget in range(_MAX_BUDGET + 1):
        rem = budget
        vec = [0] * n
        for i in range(n - 1, -1, -1):
            v = choice[i][rem]
            vec[i] = v
            rem -= _COST[v]
        witnesses.append(tuple(vec))
    return tuple(best[n]), tuple(witnesses)


@dataclass(frozen=True, slots=True)
class BoundedCellCheck:
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


def bounded_cells(
    coefs: tuple[int, ...], corr: DivisorClass, base: DivisorClass, strict: bool
) -> tuple[BoundedCellCheck, ...]:
    """Extremal bounded checks for sorted coefficient multiset `coefs`."""
    maxima, witnesses = _assignment_maxima(coefs)
    cells = []
    for alpha in range(1, BOUNDED_MAX + 1):
        for beta in range(1, BOUNDED_MAX + 1):
            budget = 2 * alpha * beta
            const = intersect(base - corr, DivisorClass(alpha, beta))
            value = const - maxima[budget]
            witness = witnesses[budget]
            # cross-check the binding assignment through the blow-up pairing
            twisted = BlowupClass(base - corr, coefs)
            transform = BlowupClass(DivisorClass(alpha, beta), witness)
            if blowup_intersect(twisted, transform) != value:
                raise AssertionError("extremal bounded check failed cross-check")
            cells.append(BoundedCellCheck(alpha, beta, value, witness, strict))
    return tuple(cells)


# ---------------------------------------------------------------------------
# Unbounded regime: linear-implication battery
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ImplicationCheck:
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
    return ImplicationCheck(
        "survivor-chain",
        "(3r-8)(4r) >= 12 > 0 for all integer r >= 3 "
        "(base value 12, increasing differences)",
        None,
        "valid" if ok else "failed",
        {"p(3)": p3, "difference_at_3": diff_at_3, "coefficient_identity": coeff_identity},
        ok,
    )


def interpolation_facts() -> tuple[ImplicationCheck, ...]:
    """Existence of the auxiliary divisors in |(4,4)| by dimension count."""
    specs = (
        ("interp-single", (5,), "multiplicity 5 at one point (16 > 15)"),
        ("interp-pair", (4, 2), "multiplicities 4,2 at two points (16 > 13)"),
        ("interp-triple", (3, 3, 2), "multiplicities 3,3,2 at three points (16 > 15)"),
    )
    out = []
    for name, orders, desc in specs:
        ok = interpolating_divisor_exists(AUX_CLASS, orders)
        conditions = sum(jet_condition_count(t) for t in orders)
        out.append(
            ImplicationCheck(
                name,
                desc,
                None,
                "valid" if ok else "failed",
                {"h0": 16, "conditions": conditions},
                ok,
            )
        )
    return tuple(out)


# Facts each label relies on, and the survivor-pattern branches they cover.
# "off-fibre survivors" counts points of multiplicity >= 4 whose coefficient
# offset is +1; points on corrected fibres only ever need point-bound.
_LABEL_FACTS = {
    CASE_I: ("drop-rule", "point-bound", "single-survivor", "pair-symmetric"),
    CASE_IIIA: ("drop-rule", "point-bound", "single-survivor", "pair-symmetric"),
    SING_M_A: ("drop-rule", "point-bound", "single-survivor", "pair-symmetric"),
    CASE_IIA: ("drop-rule", "point-bound", "pair-with-helper", "triple-restore"),
    CASE_IIIB: ("drop-rule", "point-bound", "pair-with-helper", "triple-restore"),
    CASE_IV: ("drop-rule", "point-bound", "pair-with-helper", "triple-restore"),
    SING_M_B: ("drop-rule", "point-bound", "pair-with-helper", "triple-restore"),
    CASE_IIB: (
        "drop-rule",
        "point-bound",
        "single-survivor-strict",
        "pair-strict",
        "shared-point-strict",
    ),
}

_LABEL_BONUS = {
    CASE_IIA: ("bonus-alpha", "alpha >= 1 makes the assembled bound strict"),
    CASE_IIIB: ("bonus-beta", "beta >= 1 makes the assembled bound strict"),
    CASE_IV: ("bonus-beta", "beta >= 1 makes the assembled bound strict"),
    SING_M_B: ("bonus-beta", "beta >= 1 makes the assembled bound strict"),
}

_BRANCHES = {
    "nef": (
        ("0 large points", ("drop-rule",)),
        ("1 large point", ("single-survivor", "drop-rule")),
        ("2 large points", ("pair-symmetric", "drop-rule")),
        ("3+ large points", ("survivor-chain", "drop-rule")),
    ),
    "ample": (
        ("0 large points off the corrected fibre", ("drop-rule", "point-bound")),
        ("1 large point off the corrected fibre", ("pair-with-helper", "drop-rule", "point-bound")),
        ("2 large points off the corrected fibre", ("triple-restore", "drop-rule", "point-bound")),
        ("3+ large points", ("survivor-chain", "drop-rule", "point-bound")),
    ),
    "ample-shared": (
        ("0 large points off the corrected fibres", ("shared-point-strict", "drop-rule", "point-bound")),
        ("1 large point off the corrected fibres", ("single-survivor-strict", "drop-rule", "point-bound")),
        ("2 large points off the corrected fibres", ("pair-strict", "drop-rule", "point-bound")),
        ("3+ large points", ("survivor-chain", "drop-rule", "point-bound")),
    ),
}


@dataclass(frozen=True, slots=True)
class UnboundedReport:
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


def _arith_fact(name: str, description: str, values: dict, ok: bool) -> ImplicationCheck:
    return ImplicationCheck(
        name, description, None, "valid" if ok else "failed", values, ok
    )


@lru_cache(maxsize=None)
def check_unbounded(
    label: str, k: int, base: DivisorClass, shared_exists: bool
) -> UnboundedReport:
    """Assemble the unbounded-regime evidence for one case label.

    Memoized: every report of a label, k, base and shared point holds the
    same object.
    """
    battery = implication_battery()
    facts = [battery[name] for name in _LABEL_FACTS[label]]
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
    if label in _LABEL_BONUS:
        name, desc = _LABEL_BONUS[label]
        premises.append(_arith_fact(name, desc, {"lower_bound": 1}, True))
    if label == CASE_IIB:
        premises.append(
            _arith_fact(
                "shared-point-exists",
                "the heavy fibres share a configuration point",
                {"shared": shared_exists},
                shared_exists,
            )
        )

    if label in (CASE_I, CASE_IIIA, SING_M_A):
        branches = _BRANCHES["nef"]
    elif label == CASE_IIB:
        branches = _BRANCHES["ample-shared"]
    else:
        branches = _BRANCHES["ample"]

    passed = all(f.passed for f in facts) and all(p.passed for p in premises)
    return UnboundedReport(tuple(facts), tuple(premises), branches, passed)


# ---------------------------------------------------------------------------
# Combined report, cached by arithmetic content
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class NonFibreReport:
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
def _report_for_key(
    label: str,
    coefs: tuple[int, ...],
    corr_pair: tuple[int, int],
    base_pair: tuple[int, int],
    k: int,
    shared_exists: bool,
) -> NonFibreReport:
    strict = label in NORIMATSU_LABELS
    base = DivisorClass(*base_pair)
    corr = DivisorClass(*corr_pair)
    bounded = bounded_cells(coefs, corr, base, strict)
    unbounded = check_unbounded(label, k, base, shared_exists)
    passed = all(c.passed for c in bounded) and unbounded.passed
    key = f"{label}|{','.join(map(str, coefs))}|corr{corr_pair}|base{base_pair}|k{k}"
    return NonFibreReport(key, label, bounded, unbounded, passed)


def analyse(
    cls: Classification, checked: BlowupClass, base: DivisorClass, k: int
) -> NonFibreReport:
    """Non-fibre report for the checked class M or N (cached by arithmetic content).

    `checked` is pi*(base - corr) - sum c_i E_i; the report reads the sorted
    c_i and corr = base - checked.base.
    """
    return _report_for_key(
        cls.label,
        tuple(sorted(checked.exc)),
        (base - checked.base).to_pair(),
        base.to_pair(),
        k,
        cls.shared_point is not None,
    )
