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
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Iterator

from . import nonfibre
from .configurations import (
    ABlock,
    R1,
    Classification,
    JetConfiguration,
    classify,
    enumerate_configurations,
)
from .lattice import BlowupClass, DivisorClass, intersect
from .surfaces import B_FIBRE, SINGULAR_A, SurfaceType, fibre_classes

KAWAMATA_VIEHWEG = "KawamataViehweg"
NORIMATSU = "Norimatsu"
SESHADRI_UNIT_BOUND = 1  # axiom: the Seshadri constant of (1,1) is at least 1


def default_base(k: int) -> DivisorClass:
    return DivisorClass(k + 2, k + 2)


@dataclass(frozen=True, slots=True)
class CheckRecord:
    """One inequality of a certificate: value > 0 (strict) or value >= 0.

    Square and fibre checks name the checked divisor ("M" or "N") and, for a
    fibre, its kind; their description is rendered from these fields.  The
    single-point checks carry their text as built.
    """

    kind: str  # "square" | "fibre" | "nef-threshold" | "bigness"
    value: int
    strict: bool
    divisor: str | None = None
    curve: tuple[int, int] | None = None
    block: tuple[int, ...] | None = None
    fibre: str | None = None
    text: str | None = None

    @property
    def passed(self) -> bool:
        return self.value > 0 if self.strict else self.value >= 0

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


@dataclass(frozen=True)
class Certificate:
    surface_type: int
    k: int
    base: DivisorClass
    config: JetConfiguration
    label: str
    vanishing_theorem: str
    m_class: BlowupClass
    f_class: BlowupClass | None
    n_class: BlowupClass | None
    checks: tuple[CheckRecord, ...]
    nonfibre_report: nonfibre.NonFibreReport | None
    snc_axiom: bool
    seshadri_axiom: dict | None
    passed: bool

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


def build_twist(
    k: int, weights: tuple[int, ...], base: DivisorClass | None = None
) -> BlowupClass:
    """M = pi*base - sum (k_i + 1) E_i."""
    if base is None:
        base = default_base(k)
    return BlowupClass(base, tuple(w + 1 for w in weights))


def build_correction(
    cfg: JetConfiguration, cls: Classification, s: SurfaceType, m_class: BlowupClass
) -> tuple[BlowupClass, BlowupClass] | tuple[None, None]:
    """The SNC correction F (strict transforms of the corrected fibres) and N = M - F.

    The heavy A-fibre is corrected when it is the minimal (singular) one, and
    the heavy B-fibre whenever there is one; a case with neither gets (None, None).
    """
    corr_a = cls.heavy_a is not None and cfg.a_blocks[cls.heavy_a].kind == SINGULAR_A
    if not corr_a and cls.heavy_b is None:
        return None, None
    fibre, exc = DivisorClass(0, 0), [0] * cfg.r
    if corr_a:
        ab = cfg.a_blocks[cls.heavy_a]
        fibre += DivisorClass(ab.fibre_coeff, 0)
        for p in ab.points:
            exc[p] += 1
    if cls.heavy_b is not None:
        fibre += DivisorClass(0, s.b_fibre_coeff)
        for p in cfg.b_blocks[cls.heavy_b]:
            exc[p] += 1
    f_class = BlowupClass(fibre, tuple(exc))
    return f_class, m_class - f_class


def certify_square(cls_: BlowupClass, strict: bool, what: str) -> CheckRecord:
    return _square_record(cls_.square(), strict, what)


@lru_cache(maxsize=None)
def _square_record(value: int, strict: bool, divisor: str) -> CheckRecord:
    """One record per distinct square check: equal checks are one object."""
    return CheckRecord("square", value, strict, divisor)


def certify_fibres(
    divisor: BlowupClass,
    cfg: JetConfiguration,
    s: SurfaceType,
    strict: bool,
    what: str,
) -> list[CheckRecord]:
    """Intersect `divisor` with the transform of every possible fibre.

    Fibres through configuration points are exactly the incidence blocks,
    each with its own class; fresh fibres through no point are checked with
    each catalog class.  Intersections with larger singular fibres through
    the same points only increase, so the minimal class is the binding one.

    A fibre (a, b) through the block's points, each once, has strict
    transform pi*(a, b) - sum_{i in block} E_i, so the pairing is
    base.a*b + a*base.b - sum_{i in block} exc[i].
    """
    bq = s.b_fibre_coeff
    fibres = [((ab.fibre_coeff, 0), ab.points, ab.kind) for ab in cfg.a_blocks]
    fibres += [((0, bq), bb, B_FIBRE) for bb in cfg.b_blocks]
    fibres += _fresh_fibres(s)
    base, exc = divisor.base, divisor.exc
    return [
        _fibre_record(
            base.a * b + a * base.b - sum(exc[i] for i in block), strict, what,
            (a, b), block, kind,
        )
        for (a, b), block, kind in fibres
    ]


@lru_cache(maxsize=None)
def _fresh_fibres(s: SurfaceType) -> tuple[tuple[tuple[int, int], tuple, str], ...]:
    """(curve, no block, kind) of each catalog fibre class of a type."""
    return tuple((curve.to_pair(), (), kind) for curve, kind in fibre_classes(s))


@lru_cache(maxsize=None)
def _fibre_record(
    value: int,
    strict: bool,
    divisor: str,
    curve: tuple[int, int],
    block: tuple[int, ...],
    fibre: str,
) -> CheckRecord:
    """One record per distinct fibre check: equal checks are one object."""
    return CheckRecord("fibre", value, strict, divisor, curve, block, fibre)


def certify_r1(
    k: int, s: SurfaceType, base: DivisorClass | None = None
) -> Certificate:
    """Single-point certificate, valid for every k >= 0.

    Nef: the Seshadri constant of (1,1) is at least 1 (axiom), and the base
    dominates min(a,b)*(1,1) plus a nef vertical class, so the nef threshold
    of the blow-up twist is at least min(a, b); the twist coefficient is
    k+2.  Big: L^2 - (k+2)^2 > 0.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    if base is None:
        base = default_base(k)
    cfg = JetConfiguration(k, (k + 1,), (ABlock((0,), SINGULAR_A, 1),), ((0,),))
    m_class = build_twist(k, cfg.weights, base)
    needed = k + 2
    available = min(base.a, base.b) * SESHADRI_UNIT_BOUND
    nef = CheckRecord(
        "nef-threshold",
        available - needed,
        False,
        text=f"Seshadri lower bound min(a,b) = {available} against twist "
        f"coefficient {needed}",
    )
    lsq = intersect(base, base)
    big = CheckRecord(
        "bigness",
        lsq - needed * needed,
        True,
        text=f"L^2 - (k+2)^2 = {lsq} - {needed * needed}",
    )
    return Certificate(
        surface_type=s.type_id,
        k=k,
        base=base,
        config=cfg,
        label=R1,
        vanishing_theorem=KAWAMATA_VIEHWEG,
        m_class=m_class,
        f_class=None,
        n_class=None,
        checks=(nef, big),
        nonfibre_report=None,
        snc_axiom=False,
        seshadri_axiom={
            "axiom": "seshadri-unit-lower-bound",
            "statement": "eps((1,1), x) >= 1 at every point",
            "bound": SESHADRI_UNIT_BOUND,
        },
        passed=nef.passed and big.passed,
    )


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
    """Full certificate for one configuration."""
    if base is None:
        base = default_base(cfg.k)
    cls = classify(cfg, s)
    if cls.label == R1:
        return replace(certify_r1(cfg.k, s, base), config=cfg)
    m_class = build_twist(cfg.k, cfg.weights, base)
    f_class, n_class = build_correction(cfg, cls, s, m_class)
    strict = n_class is not None
    checked, what = (n_class, "N") if strict else (m_class, "M")

    checks = [certify_square(checked, True, what)]
    checks.extend(certify_fibres(checked, cfg, s, strict, what))
    report = nonfibre.analyse(cls, checked, base, cfg.k)
    passed = all(c.passed for c in checks) and report.passed
    return Certificate(
        surface_type=s.type_id,
        k=cfg.k,
        base=base,
        config=cfg,
        label=cls.label,
        vanishing_theorem=NORIMATSU if strict else KAWAMATA_VIEHWEG,
        m_class=m_class,
        f_class=f_class,
        n_class=n_class,
        checks=tuple(checks),
        nonfibre_report=report,
        snc_axiom=strict,
        seshadri_axiom=None,
        passed=passed,
    )


@dataclass
class SweepSummary:
    total: int = 0
    failed: int = 0
    label_counts: dict = field(default_factory=dict)

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
    s: SurfaceType,
    k: int,
    base: DivisorClass | None = None,
    part: slice | None = None,
) -> Iterator[Certificate]:
    """Certificates for every enumerated configuration of one (type, k).

    `part` restricts them to a slice of k's skeleton table, as
    `enumerate_configurations` takes it.
    """
    for cfg in enumerate_configurations(k, s, part=part):
        yield verify(cfg, s, base)


def iter_reports(
    s: SurfaceType,
    k: int,
    base: DivisorClass | None = None,
    part: slice | None = None,
) -> Iterator[nonfibre.NonFibreReport]:
    """The non-fibre report of every enumerated configuration but the single point.

    Each checks the class `verify` checks, N when the case corrects a fibre
    and M otherwise, without the fibre checks or the certificate around them.
    """
    if base is None:
        base = default_base(k)
    for cfg in enumerate_configurations(k, s, part=part):
        cls = classify(cfg, s)
        if cls.label != R1:
            m_class = build_twist(k, cfg.weights, base)
            _, n_class = build_correction(cfg, cls, s, m_class)
            yield nonfibre.analyse(cls, m_class if n_class is None else n_class, base, k)
