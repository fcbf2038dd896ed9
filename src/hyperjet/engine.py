"""Certificates: the case-by-case positivity checks behind jet ampleness.

For the base class L = (k+2, k+2) (or a caller-supplied class in control
modes) and a classified configuration, the engine builds the twisted class
M = pi*L - sum (k_i + 1)E_i, the SNC correction F and residual N = M - F in
the corrected cases, and verifies exactly the inequalities each case needs:

* Kawamata-Viehweg cases (single point, no heavy fibre, heavy full or
  intermediate fibre): M is nef (every fibre check >= 0, non-fibre curves
  delegated to the non-fibre checker) and big (M^2 > 0);

* Norimatsu cases (heavy minimal fibre and/or heavy B-fibre): N is ample by
  the Nakai-Moishezon criterion (N^2 > 0 and every curve check > 0), with F
  recorded as simple normal crossings by axiom.

The single-point case uses the unit lower bound on the Seshadri constant of
(1,1) as a recorded axiom: nef follows from min(a, b) >= k+2 and bigness
from L^2 - (k+2)^2 > 0.  All arithmetic is exact.

Once per skeleton, for all types, heavy-kind variants and bases, the structure
memo (`JetConfiguration.validate`) keeps its `Core`: M's exceptional vector and,
for each set of corrected fibres it allows, F's and N's, their block sums, sorted
vectors and sums of squares.  The skeleton table holds each entry's core, and a
certificate pays only for what differs between certificates:

* no memo lookup in a sweep: `iter_certificates` walks the table and
  certifies each entry and its heavy-kind variants from the entry's core,
  with the case label `configurations.case_label` reads off it; `verify` of
  one configuration makes one, as `classify` checks the configuration and
  hands the core on in the `Classification`.  `_classes` picks the residual
  of the corrected fibres;
* M, F and N, memoized by value, and the non-fibre report of the checked
  class, which `_classes` asks of the report cache (`nonfibre.analyse`);
* the square 2ab less the sum of squares and each block's fibre value, c*b
  (d*a for a B-fibre) less the block's sum, each interned as a record by its
  value, strictness, divisor and fibre (an `ABlock`, or a B-block's (points,
  kind, coefficient)); the fresh fibres' records are one memoized tuple per
  type, checked base, strictness and divisor, and the single point's are one
  memoized pair per k and base;
* the verdict: a record decides its own once, when it is made, so a
  certificate's reads the report's and its records' verdicts;
* a `Certificate` of what it cannot derive: k, the vanishing theorem and the
  axioms follow from the configuration, N and the label.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, NamedTuple

from . import nonfibre
from .configurations import (
    ABlock,
    R1,
    Core,
    JetConfiguration,
    Residual,
    _interned,
    _walk,
    case_label,
    classify,
)
from .lattice import BlowupClass, DivisorClass, intersect
from .surfaces import B_FIBRE, SINGULAR_A, SurfaceType

KAWAMATA_VIEHWEG = "KawamataViehweg"
NORIMATSU = "Norimatsu"
SESHADRI_UNIT_BOUND = 1  # axiom: the Seshadri constant of (1,1) is at least 1


def default_base(k: int) -> DivisorClass:
    return DivisorClass(k + 2, k + 2)


class CheckRecord(NamedTuple("CheckRecord", [
    ("kind", str),  # "square" | "fibre" | "nef-threshold" | "bigness"
    ("value", int),
    ("strict", bool),
    ("divisor", str | None),
    ("curve", tuple[int, int] | None),
    ("block", tuple[int, ...] | None),
    ("fibre", str | None),
    ("text", str | None),
    ("passed", bool),
])):
    """One inequality of a certificate: value > 0 (strict) or value >= 0.

    Square and fibre checks name the checked divisor ("M" or "N") and, for a
    fibre, its kind; their description is rendered from these fields.  The
    single-point checks carry their text as built.  The verdict is decided
    once, when the record is made: `__new__` takes every field but `passed`.
    """

    __slots__ = ()

    def __new__(
        cls, kind: str, value: int, strict: bool, divisor: str | None = None,
        curve: tuple[int, int] | None = None, block: tuple[int, ...] | None = None,
        fibre: str | None = None, text: str | None = None,
    ) -> "CheckRecord":
        passed = value > 0 if strict else value >= 0
        return tuple.__new__(cls, (kind, value, strict, divisor, curve, block, fibre, text, passed))

    def __getnewargs__(self) -> tuple:
        return self[:-1]

    @property
    def description(self) -> str:
        if self.kind == "square":
            return f"{self.divisor}^2"
        if self.kind == "fibre":
            if self.block:
                where = f"{self.fibre} fibre through {list(self.block)}"
            else:
                where = f"fresh {self.fibre} fibre"
            return f"{self.divisor}.C~ for {where}"
        return self.text

    def to_json(self) -> dict:
        obj = {
            "kind": self.kind,
            "description": self.description,
            "value": self.value,
            "relation": ">" if self.strict else ">=",
            "bound": 0,
            "pass": self.passed,
        }
        if self.curve is not None:
            obj["curve_class"] = list(self.curve)
        if self.block is not None:
            obj["block"] = list(self.block)
        return obj


_SESHADRI_AXIOM = {
    "axiom": "seshadri-unit-lower-bound",
    "statement": "eps((1,1), x) >= 1 at every point",
    "bound": SESHADRI_UNIT_BOUND,
}


class Certificate:
    """One configuration's certificate, holding only what its case computed.

    k, the vanishing theorem, the SNC axiom and the Seshadri axiom follow from
    the configuration, N and the label: a case that corrects a fibre has N,
    rests on Norimatsu's vanishing and records F as SNC by axiom; the single
    point rests on the Seshadri axiom.

    A plain class, not a tuple: an instance can be weakly referenced and its
    `__init__` replaced, which the benchmark's tracer does to count the
    certificates alive.
    """

    def __init__(
        self, surface_type: int, base: DivisorClass, config: JetConfiguration, label: str,
        m_class: BlowupClass, f_class: BlowupClass | None, n_class: BlowupClass | None,
        checks: tuple[CheckRecord, ...], nonfibre_report: nonfibre.NonFibreReport | None,
        passed: bool,
    ) -> None:
        self.surface_type = surface_type
        self.base = base
        self.config = config
        self.label = label
        self.m_class = m_class
        self.f_class = f_class
        self.n_class = n_class
        self.checks = checks
        self.nonfibre_report = nonfibre_report
        self.passed = passed

    def __eq__(self, other: object) -> bool:
        if type(other) is not Certificate:
            return NotImplemented
        return vars(self) == vars(other)

    __hash__ = None  # equal by value, and mutable

    @property
    def k(self) -> int:
        return self.config.k

    @property
    def snc_axiom(self) -> bool:
        return self.n_class is not None

    @property
    def vanishing_theorem(self) -> str:
        return KAWAMATA_VIEHWEG if self.n_class is None else NORIMATSU

    @property
    def seshadri_axiom(self) -> dict | None:
        return dict(_SESHADRI_AXIOM) if self.label == R1 else None

    def to_json(self) -> dict:
        return {
            "surface_type": self.surface_type,
            "k": self.k,
            "base": list(self.base.to_pair()),
            "config": self.config.to_json(),
            "label": self.label,
            "vanishing_theorem": self.vanishing_theorem,
            "m_class": self.m_class.to_json(),
            "f_class": self.f_class.to_json() if self.f_class else None,
            "n_class": self.n_class.to_json() if self.n_class else None,
            "checks": [c.to_json() for c in self.checks],
            "nonfibre_ref": self.nonfibre_report.key if self.nonfibre_report else None,
            "snc_axiom": self.snc_axiom,
            "seshadri_axiom": self.seshadri_axiom,
            "pass": self.passed,
        }


@lru_cache(maxsize=None)
def _blowup(a: int, b: int, exc: tuple[int, ...]) -> BlowupClass:
    """pi*(a, b) - sum exc_i E_i, memoized by value: equal classes are one object."""
    return BlowupClass(DivisorClass(a, b), exc)


def _classes(
    cfg: JetConfiguration, label: str, core: Core, s: SurfaceType, base: DivisorClass
) -> tuple[BlowupClass, BlowupClass | None, BlowupClass | None, Residual,
           nonfibre.NonFibreReport]:
    """M, the SNC correction F, N = M - F, the checked class's residual and its
    non-fibre report, from the structure's core.  F corrects the heavy A-fibre
    when it is the minimal (singular) one and, where (0,1) is effective, the
    heavy B-block's fibre if any; a case with neither has F = N = None and its
    report checks M."""
    heavy = core.heavy_a
    corr_a = heavy is not None and cfg.a_blocks[heavy].kind == SINGULAR_A
    corr_b = s.has_unit_b_class and core.heavy_b is not None
    res = core.residual(corr_a, corr_b)
    fa, fb = cfg.a_blocks[heavy].fibre_coeff if corr_a else 0, s.b_fibre_coeff if corr_b else 0
    shared = corr_b and core.shared_point is not None
    report = nonfibre.analyse(label, res.coefs, (fa, fb), base, cfg.k, shared)
    m_class = _blowup(base.a, base.b, core.exc)
    if res.f_exc is None:
        return m_class, None, None, res, report
    n_class = _blowup(base.a - fa, base.b - fb, res.exc)
    return m_class, _blowup(fa, fb, res.f_exc), n_class, res, report


@lru_cache(maxsize=None)
def _square_record(value: int, strict: bool, divisor: str) -> CheckRecord:
    """One record per distinct square check: equal checks are one object."""
    return CheckRecord("square", value, strict, divisor)


def certify_fibres(
    divisor: BlowupClass, res: Residual, cfg: JetConfiguration, s: SurfaceType,
    strict: bool, what: str,
) -> list[CheckRecord]:
    """Intersect `divisor` (residual `res`) with the transform of every possible fibre.

    Fibres through configuration points are exactly the incidence blocks,
    each with its own class; fresh fibres through no point are checked with
    each catalog class.  Intersections with larger singular fibres through
    the same points only increase, so the minimal class is the binding one.
    A fibre (c, d) through a block's points, each once, has strict transform
    pi*(c, d) - sum_{i in block} E_i: with the divisor's base (a, b), the
    pairing is c*b + d*a less the block's sum."""
    a, b, bq = divisor.base.a, divisor.base.b, s.b_fibre_coeff
    checks = [
        _fibre_record(ab.fibre_coeff * b - total, strict, what, ab)
        for ab, total in zip(cfg.a_blocks, res.a_sums)
    ]
    checks += [
        _fibre_record(bq * a - total, strict, what, (bb, B_FIBRE, bq))
        for bb, total in zip(cfg.b_blocks, res.b_sums)
    ]
    checks += _fresh_records(s.fresh_fibres, a, b, strict, what)
    return checks


@lru_cache(maxsize=None)
def _fresh_records(
    fibres: tuple[tuple[tuple[()], str, int], ...], a: int, b: int, strict: bool, what: str
) -> tuple[CheckRecord, ...]:
    """The records of a type's fresh fibres (`SurfaceType.fresh_fibres`) against a
    class of base (a, b): one tuple per type, checked base, strictness and divisor."""
    records = []
    for fibre in fibres:
        _, kind, c = fibre
        records.append(_fibre_record(c * (a if kind == B_FIBRE else b), strict, what, fibre))
    return tuple(records)


@lru_cache(maxsize=None)
def _fibre_record(
    value: int, strict: bool, divisor: str, fibre: tuple[tuple[int, ...], str, int]
) -> CheckRecord:
    """One record per distinct fibre check: equal checks are one object.

    `fibre` is (points, kind, coefficient), as an `ABlock` is: the class is
    coefficient*(0, 1) for a B-fibre and coefficient*(1, 0) otherwise, one
    tuple per value through the package's interner."""
    points, kind, c = fibre
    curve = _interned((0, c) if kind == B_FIBRE else (c, 0))
    return CheckRecord("fibre", value, strict, divisor, curve, points, kind)


def certify_r1(
    k: int, s: SurfaceType, base: DivisorClass | None = None
) -> Certificate:
    """Single-point certificate, valid for every k >= 0.

    It is `verify` of the single-point configuration, which fills in the
    default base and, through the structure check, rejects k < 0.
    """
    return verify(JetConfiguration(k, (k + 1,), (ABlock((0,), SINGULAR_A, 1),), ((0,),)), s, base)


@lru_cache(maxsize=None)
def _r1_checks(needed: int, base: DivisorClass) -> tuple[CheckRecord, CheckRecord]:
    """The single point's nef-threshold and bigness records against `base`, for
    the twist coefficient `needed` = k+2: one pair per value, for every type.

    Nef: the Seshadri constant of (1,1) is at least 1 (axiom), and the base
    dominates min(a,b)*(1,1) plus a nef vertical class, so the nef threshold
    of the blow-up twist is at least min(a, b).  Big: L^2 - (k+2)^2 > 0.
    """
    available = min(base.a, base.b) * SESHADRI_UNIT_BOUND
    nef = CheckRecord("nef-threshold", available - needed, False, text=(
        f"Seshadri lower bound min(a,b) = {available} against twist coefficient {needed}"
    ))
    lsq = intersect(base, base)
    big = CheckRecord("bigness", lsq - needed * needed, True,
                      text=f"L^2 - (k+2)^2 = {lsq} - {needed * needed}")
    return nef, big


def externally_certified_k1(s: SurfaceType) -> dict:
    """k = 1 is not computed here: (3,3) is very ample on every type."""
    return {
        "surface_type": s.type_id,
        "k": 1,
        "status": "externally-certified",
        "statement": "a class of type (3,3) is very ample on every "
        "hyperelliptic surface, which is exactly 1-jet ampleness",
    }


def verify(
    cfg: JetConfiguration, s: SurfaceType, base: DivisorClass | None = None
) -> Certificate:
    """Full certificate for one configuration: `classify` checks it and reads
    its structure's core, from which `_certify` builds the certificate."""
    if base is None:
        base = default_base(cfg.k)
    cls = classify(cfg, s)
    return _certify(cfg, s, base, cls.core, cls.label)


def _certify(
    cfg: JetConfiguration, s: SurfaceType, base: DivisorClass, core: Core, label: str
) -> Certificate:
    """The certificate of a well-formed configuration on type s, from its
    structure's core and its case label."""
    if label == R1:
        nef, big = checks = _r1_checks(cfg.k + 2, base)
        m_class = _blowup(base.a, base.b, core.exc)
        return Certificate(s.type_id, base, cfg, R1, m_class, None, None, checks, None,
                           nef.passed and big.passed)
    m_class, f_class, n_class, res, report = _classes(cfg, label, core, s, base)
    strict = n_class is not None
    checked, what = (n_class, "N") if strict else (m_class, "M")
    checks = [_square_record(2 * checked.base.a * checked.base.b - res.square, True, what)]
    checks += certify_fibres(checked, res, cfg, s, strict, what)
    passed = report.passed and all([c.passed for c in checks])
    return Certificate(s.type_id, base, cfg, label, m_class, f_class, n_class,
                       tuple(checks), report, passed)


class SweepSummary:
    """The running count of a sweep's certificates: total, failed and per label."""

    def __init__(self) -> None:
        self.total = 0
        self.failed = 0
        self.label_counts: dict[str, int] = {}

    def merge(self, tally: dict[str, list[int]]) -> None:
        """Add a [count, failed] tally per label."""
        for label, (count, failed) in tally.items():
            self.total += count
            self.failed += failed
            self.label_counts[label] = self.label_counts.get(label, 0) + count

    @property
    def all_passed(self) -> bool:
        return self.failed == 0

    def to_json(self) -> dict:
        return {
            "total": self.total,
            "failed": self.failed,
            "label_counts": dict(sorted(self.label_counts.items())),
            "pass": self.all_passed,
        }


def iter_certificates(
    s: SurfaceType, k: int, base: DivisorClass | None = None, part: slice | None = None
) -> Iterator[Certificate]:
    """The certificate of every configuration `enumerate_configurations` yields
    for one (type, k), each equal to its `verify`.

    `part` restricts them to a slice of k's skeleton table, as
    `enumerate_configurations` takes it.  The table's entries are checked
    when it is built, so each certificate is made from its entry's core,
    with no memo lookup and no `classify`.
    """
    if base is None:
        base = default_base(k)
    for cfg, core in _walk(k, s, part):
        yield _certify(cfg, s, base, core, case_label(cfg.a_blocks, core, s))


def iter_reports(
    s: SurfaceType, k: int, base: DivisorClass | None = None, part: slice | None = None
) -> Iterator[nonfibre.NonFibreReport]:
    """The non-fibre report of every enumerated configuration but the single point.

    Each checks the class `verify` checks, N when the case corrects a fibre
    and M otherwise, without the fibre checks or the certificate around them.
    """
    if base is None:
        base = default_base(k)
    for cfg, core in _walk(k, s, part):
        label = case_label(cfg.a_blocks, core, s)
        if label != R1:
            yield _classes(cfg, label, core, s, base)[-1]
