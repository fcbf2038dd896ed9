"""Exact rational linear-implication oracle.

Decides whether a system of linear constraints over the rationals entails a
target inequality, by Fourier-Motzkin elimination with exact Fraction
arithmetic.  Every derived row carries its provenance (non-negative
multipliers over the input rows), so a Valid answer comes with an explicit
Farkas witness: a non-negative combination of the hypotheses that dominates
the target.  Witnesses are re-verified by direct arithmetic before being
returned.  No floating point is used anywhere.

Relations: constraints and targets use ">=", ">" or "==".  Strictness is
tracked through combinations (a combination is strict iff it uses a strict
row with positive multiplier).  An "==" target is decided as its ">=" half
and its "<=" half (the negated target as ">="); a Valid answer carries the
witness of the first and, as `reverse_witness`, of the second, each checked
against the system with that half as its target.  An infeasible hypothesis
system is reported as "vacuously_valid" with an infeasibility certificate,
never as "valid".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, floor
from typing import Iterable

GE = ">="
GT = ">"
EQ = "=="

_RELATIONS = (GE, GT, EQ)

Number = int | Fraction


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
    raise TypeError(f"not an exact rational: {x!r}")


@dataclass(frozen=True, slots=True)
class Constraint:
    """coeffs . x  REL  bound"""

    coeffs: tuple[Fraction, ...]
    rel: str
    bound: Fraction

    def __post_init__(self) -> None:
        if self.rel not in _RELATIONS:
            raise ValueError(f"unknown relation {self.rel!r}")

    def evaluate(self, point: tuple[Fraction, ...]) -> Fraction:
        return sum(c * v for c, v in zip(self.coeffs, point, strict=True))

    def holds_at(self, point: tuple[Fraction, ...]) -> bool:
        lhs = self.evaluate(point)
        if self.rel == GE:
            return lhs >= self.bound
        if self.rel == GT:
            return lhs > self.bound
        return lhs == self.bound

    def to_json(self) -> dict:
        return {
            "coeffs": [str(c) for c in self.coeffs],
            "rel": self.rel,
            "bound": str(self.bound),
        }


def make_constraint(
    variables: tuple[str, ...], terms: dict[str, Number], rel: str, bound: Number
) -> Constraint:
    unknown = set(terms) - set(variables)
    if unknown:
        raise ValueError(f"unknown variables {sorted(unknown)}")
    coeffs = tuple(_frac(terms.get(v, 0)) for v in variables)
    return Constraint(coeffs, rel, _frac(bound))


@dataclass(frozen=True, slots=True)
class LinearSystem:
    variables: tuple[str, ...]
    constraints: tuple[Constraint, ...]
    target: Constraint

    def __post_init__(self) -> None:
        if not self.variables:
            raise ValueError("system needs at least one variable")
        if not all(isinstance(v, str) for v in self.variables):
            raise ValueError("variable names must be strings")
        n = len(self.variables)
        if len(set(self.variables)) != n:
            raise ValueError("variable names must be distinct")
        for c in (*self.constraints, self.target):
            if len(c.coeffs) != n:
                raise ValueError("coefficient arity mismatch")

    def to_json(self) -> dict:
        return {
            "variables": list(self.variables),
            "constraints": [c.to_json() for c in self.constraints],
            "target": self.target.to_json(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "LinearSystem":
        """Parse `to_json` output; malformed input raises ValueError."""
        if not isinstance(obj, dict):
            raise ValueError("a linear system must be a JSON object")

        def items(o: dict, key: str) -> list:
            if not isinstance(o[key], list):
                raise TypeError(f"{key!r} must be a list")
            return o[key]

        def parse(c: dict) -> Constraint:
            return Constraint(
                tuple(_frac(x) for x in items(c, "coeffs")), c["rel"], _frac(c["bound"])
            )

        try:
            return cls(
                tuple(items(obj, "variables")),
                tuple(parse(c) for c in items(obj, "constraints")),
                parse(obj["target"]),
            )
        except KeyError as exc:
            raise ValueError(f"linear system is missing the key {exc}") from None
        except TypeError as exc:
            raise ValueError(f"malformed linear system: {exc}") from None


def system(
    variables: Iterable[str],
    constraints: Iterable[tuple[dict[str, Number], str, Number]],
    target: tuple[dict[str, Number], str, Number],
) -> LinearSystem:
    """Convenience builder from {var: coeff} dictionaries."""
    vs = tuple(variables)
    cs = tuple(make_constraint(vs, t, r, b) for t, r, b in constraints)
    return LinearSystem(vs, cs, make_constraint(vs, *target))


# ---------------------------------------------------------------------------
# Fourier-Motzkin core
# ---------------------------------------------------------------------------

# A row is coeffs . x >= bound (strict if flagged), with provenance:
# multipliers over source keys.  Source keys are (index, sign) for input
# constraints (sign -1 is the flipped half of an equality) and "neg-target".


@dataclass
class _Row:
    coeffs: tuple[Fraction, ...]
    bound: Fraction
    strict: bool
    prov: dict = field(default_factory=dict)

    def scaled(self, f: Fraction) -> "_Row":
        return _Row(
            tuple(c * f for c in self.coeffs),
            self.bound * f,
            self.strict,
            {k: v * f for k, v in self.prov.items()},
        )

    def plus(self, other: "_Row") -> "_Row":
        prov = dict(self.prov)
        for k, v in other.prov.items():
            prov[k] = prov.get(k, Fraction(0)) + v
        return _Row(
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs)),
            self.bound + other.bound,
            self.strict or other.strict,
            prov,
        )


def _source_rows(sys_: LinearSystem, include_neg_target: bool) -> list[_Row]:
    rows: list[_Row] = []
    for i, c in enumerate(sys_.constraints):
        if c.rel in (GE, GT):
            rows.append(_Row(c.coeffs, c.bound, c.rel == GT, {(i, 1): Fraction(1)}))
        else:  # equality: both halves
            rows.append(_Row(c.coeffs, c.bound, False, {(i, 1): Fraction(1)}))
            rows.append(
                _Row(
                    tuple(-x for x in c.coeffs),
                    -c.bound,
                    False,
                    {(i, -1): Fraction(1)},
                )
            )
    if include_neg_target:
        t = sys_.target
        # negation of (c.x >= d) is -c.x > -d; negation of (c.x > d) is -c.x >= -d
        rows.append(
            _Row(
                tuple(-x for x in t.coeffs),
                -t.bound,
                t.rel == GE,
                {"neg-target": Fraction(1)},
            )
        )
    return rows


def _dedup(rows: list[_Row]) -> list[_Row]:
    """Keep, per coefficient vector, only the strongest bound."""
    best: dict[tuple[Fraction, ...], _Row] = {}
    order: list[tuple[Fraction, ...]] = []
    for r in rows:
        key = r.coeffs
        cur = best.get(key)
        if cur is None:
            best[key] = r
            order.append(key)
        elif (r.bound, r.strict) > (cur.bound, cur.strict):
            best[key] = r
    return [best[k] for k in order]


def _ground_contradiction(row: _Row) -> bool:
    if any(c != 0 for c in row.coeffs):
        return False
    if row.strict:
        return row.bound >= 0  # 0 > b fails iff b >= 0
    return row.bound > 0  # 0 >= b fails iff b > 0


def _eliminate(
    rows: list[_Row], nvars: int
) -> tuple[_Row | None, list[list[_Row]]]:
    """Run FM over all variables in declared order.

    Returns (contradiction row or None, per-stage row snapshots).  The
    snapshot at index j holds the rows available before eliminating
    variable j; snapshots[nvars] holds the final ground rows.
    """
    snapshots: list[list[_Row]] = []
    current = _dedup(rows)
    for j in range(nvars):
        snapshots.append(current)
        pos = [r for r in current if r.coeffs[j] > 0]
        neg = [r for r in current if r.coeffs[j] < 0]
        zero = [r for r in current if r.coeffs[j] == 0]
        new_rows = list(zero)
        for rp in pos:
            for rn in neg:
                combined = rp.scaled(-rn.coeffs[j]).plus(rn.scaled(rp.coeffs[j]))
                new_rows.append(combined)
        current = _dedup(new_rows)
        for r in current:
            if _ground_contradiction(r):
                snapshots.append(current)
                return r, snapshots
    snapshots.append(current)
    for r in current:
        if _ground_contradiction(r):
            return r, snapshots
    return None, snapshots


def _pick_value(
    lower: tuple[Fraction, bool] | None, upper: tuple[Fraction, bool] | None
) -> Fraction:
    """Deterministic value inside the interval, preferring small integers."""
    if lower is None and upper is None:
        return Fraction(0)
    if lower is not None and upper is None:
        lo, strict = lower
        v = Fraction(ceil(lo))
        if v == lo and strict:
            v += 1
        return v
    if lower is None and upper is not None:
        hi, strict = upper
        v = Fraction(floor(hi))
        if v == hi and strict:
            v -= 1
        return v
    (lo, lo_strict), (hi, hi_strict) = lower, upper
    c = Fraction(ceil(lo))
    if c == lo and lo_strict:
        c += 1
    if c < hi or (c == hi and not hi_strict):
        return c
    return (lo + hi) / 2


def _back_substitute(
    snapshots: list[list[_Row]], nvars: int
) -> tuple[Fraction, ...]:
    values: list[Fraction | None] = [None] * nvars
    for j in range(nvars - 1, -1, -1):
        lower: tuple[Fraction, bool] | None = None
        upper: tuple[Fraction, bool] | None = None
        for r in snapshots[j]:
            cj = r.coeffs[j]
            if cj == 0:
                continue
            rest = r.bound
            for i in range(j + 1, nvars):
                rest -= r.coeffs[i] * values[i]
            bnd = rest / cj
            if cj > 0:
                if lower is None or (bnd, r.strict) > lower:
                    lower = (bnd, r.strict)
            else:
                if upper is None or (bnd, not r.strict) < (upper[0], not upper[1]):
                    upper = (bnd, r.strict)
        values[j] = _pick_value(lower, upper)
    return tuple(v for v in values)  # type: ignore[misc]


# ---------------------------------------------------------------------------
# Results and witnesses
# ---------------------------------------------------------------------------

VALID = "valid"
VACUOUSLY_VALID = "vacuously_valid"
COUNTEREXAMPLE = "counterexample"


@dataclass(frozen=True, slots=True)
class EntailmentResult:
    status: str
    witness: tuple[tuple[object, Fraction], ...] | None = None
    counterexample: dict[str, Fraction] | None = None
    # for an "==" target, the witness of its "<=" half
    reverse_witness: tuple[tuple[object, Fraction], ...] | None = None

    @property
    def is_valid(self) -> bool:
        return self.status in (VALID, VACUOUSLY_VALID)

    def to_json(self) -> dict:
        obj: dict = {"status": self.status}
        for name in ("witness", "reverse_witness"):
            witness = getattr(self, name)
            if witness is not None:
                obj[name] = [
                    {"constraint": i, "direction": sign, "multiplier": str(m)}
                    for (i, sign), m in witness
                ]
        if self.counterexample is not None:
            obj["counterexample"] = {v: str(x) for v, x in self.counterexample.items()}
        return obj


def verify_witness(sys_: LinearSystem, witness) -> bool:
    """Re-check a Farkas witness by pure arithmetic.

    The witness must be a non-negative combination of constraint rows whose
    coefficient vector equals the target's and whose combined bound reaches
    the target bound (strictly, or through a strict row, when the target is
    strict).  An equality target needs a witness per half, so it is False;
    check each half against the system with that half as its target.
    """
    t = sys_.target
    if t.rel == EQ:
        return False
    n = len(sys_.variables)
    total = [Fraction(0)] * n
    bound = Fraction(0)
    has_strict = False
    for key, mult in witness:
        if mult < 0:
            return False
        i, sign = key
        c = sys_.constraints[i]
        if sign == -1 and c.rel != EQ:
            return False
        for j in range(n):
            total[j] += sign * mult * c.coeffs[j]
        bound += sign * mult * c.bound
        if c.rel == GT and mult > 0:
            has_strict = True
    if tuple(total) != t.coeffs:
        return False
    if t.rel == GT:
        return bound > t.bound or (bound == t.bound and has_strict)
    return bound >= t.bound


def _witness_from_contradiction(row: _Row) -> tuple | None:
    """Normalize a contradiction row's provenance into a Farkas witness."""
    mu = row.prov.get("neg-target", Fraction(0))
    if mu <= 0:
        return None
    entries = []
    for key, mult in row.prov.items():
        if key == "neg-target" or mult == 0:
            continue
        entries.append((key, mult / mu))
    entries.sort(key=lambda e: (e[0][0], -e[0][1]))
    return tuple(entries)


def entails(sys_: LinearSystem) -> EntailmentResult:
    """Decide whether the constraints entail the target over the rationals."""
    if sys_.target.rel == EQ:
        ge = LinearSystem(
            sys_.variables,
            sys_.constraints,
            Constraint(sys_.target.coeffs, GE, sys_.target.bound),
        )
        le = LinearSystem(
            sys_.variables,
            sys_.constraints,
            Constraint(
                tuple(-c for c in sys_.target.coeffs), GE, -sys_.target.bound
            ),
        )
        r1 = entails(ge)
        if not r1.is_valid:
            return r1
        r2 = entails(le)
        if not r2.is_valid:
            return r2
        if VACUOUSLY_VALID in (r1.status, r2.status):
            return r1 if r1.status == VACUOUSLY_VALID else r2
        return EntailmentResult(VALID, witness=r1.witness, reverse_witness=r2.witness)

    nvars = len(sys_.variables)

    # Feasibility of the hypotheses alone.
    contradiction, _ = _eliminate(_source_rows(sys_, False), nvars)
    if contradiction is not None:
        entries = tuple(
            sorted(
                ((k, m) for k, m in contradiction.prov.items() if m != 0),
                key=lambda e: (e[0][0], -e[0][1]),
            )
        )
        return EntailmentResult(VACUOUSLY_VALID, witness=entries)

    contradiction, snapshots = _eliminate(_source_rows(sys_, True), nvars)
    if contradiction is not None:
        witness = _witness_from_contradiction(contradiction)
        if witness is None or not verify_witness(sys_, witness):
            raise AssertionError("internal error: unverifiable Farkas witness")
        return EntailmentResult(VALID, witness=witness)

    point = _back_substitute(snapshots, nvars)
    assignment = dict(zip(sys_.variables, point))
    if not all(c.holds_at(point) for c in sys_.constraints) or sys_.target.holds_at(
        point
    ):
        raise AssertionError("internal error: invalid counterexample point")
    return EntailmentResult(COUNTEREXAMPLE, counterexample=assignment)
