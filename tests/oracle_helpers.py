"""Independent brute-force oracles used to cross-check the package.

The incidence, classification and naive bounded oracles are written from
first principles, without reusing the package's enumeration, classifier or
closed forms, so that agreement is a real check and not a tautology.  The fully materialized bounded checks
(`check_bounded`) evaluate every genus-admissible assignment directly, the
reference for the package's extremal knapsack cells.  The genus-bound
oracles (`genus_admissible`, `max_single_multiplicity`,
`enumerate_admissible`) filter the multiplicity vectors it evaluates.

The generic certificate path (`build_twist`, `build_correction`,
`certify_square`, `certify_fibres`) builds M, F and N as `BlowupClass`
objects from the configuration, with the class arithmetic only tests use
(`blowup_add`, `blowup_sub`, `blowup_square`), and pairs them through
`blowup_intersect`;
it is the reference for the engine's closed forms over the skeleton's
residuals.  Its records are interned through the engine's own record
caches, so equal checks are one object on both paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import isqrt
from typing import Iterator

from hyperjet.configurations import (
    ABlock,
    CASE_I,
    CASE_IIA,
    CASE_IIB,
    CASE_IIIA,
    CASE_IIIB,
    CASE_IV,
    R1,
    SING_M_A,
    SING_M_B,
    Classification,
    JetConfiguration,
    _structure_to_blocks,
    incidence_structures,
    is_heavy,
    weight_partitions,
)
from hyperjet.engine import CheckRecord, _fibre_record, _square_record, default_base
from hyperjet.lattice import BlowupClass, DivisorClass, blowup_intersect, intersect
from hyperjet.nonfibre import BOUNDED_MAX
from hyperjet.surfaces import (
    B_FIBRE,
    FULL_A,
    INTERMEDIATE_A,
    SINGULAR_A,
    SurfaceType,
    fibre_classes,
)


@dataclass(frozen=True)
class CurveCandidate:
    """A class (alpha, beta) with multiplicities at labeled points."""

    cls: DivisorClass
    mults: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(m < 0 for m in self.mults):
            raise ValueError("multiplicities must be non-negative")
        if not any(m > 0 for m in self.mults):
            raise ValueError("at least one multiplicity must be positive")


def genus_admissible(c: CurveCandidate) -> bool:
    """The genus bound: True iff sum m_i(m_i - 1) <= 2*alpha*beta.

    C has normalisation of genus at least 1 (it dominates the elliptic
    base), while the genus formula bounds its genus from above by
    C^2/2 + 1 - sum m_i(m_i-1)/2.
    """
    return sum(m * (m - 1) for m in c.mults) <= 2 * c.cls.a * c.cls.b


def max_single_multiplicity(cls: DivisorClass) -> int:
    """Largest m with m(m-1) <= 2*alpha*beta."""
    if cls.a < 1 or cls.b < 1:
        raise ValueError("requires alpha >= 1 and beta >= 1")
    bound = 2 * cls.a * cls.b
    # m^2 - m - bound <= 0  <=>  m <= (1 + sqrt(1 + 4*bound)) / 2
    m = (1 + isqrt(1 + 4 * bound)) // 2
    while m * (m - 1) > bound:
        m -= 1
    return m


def enumerate_admissible(
    cls: DivisorClass, r: int, cap: int
) -> list[tuple[int, ...]]:
    """All non-increasing admissible vectors of length r, entries <= cap, m_1 >= 1.

    Output is in ascending lexicographic order and equals the brute-force
    filter of the full box intersected with non-increasing vectors.
    """
    if r < 1 or cap < 1:
        raise ValueError("need r >= 1 and cap >= 1")
    budget = 2 * cls.a * cls.b
    out: list[tuple[int, ...]] = []
    vec: list[int] = []

    def rec(pos: int, prev: int, used: int) -> None:
        if pos == r:
            out.append(tuple(vec))
            return
        lo = 1 if pos == 0 else 0
        for m in range(lo, prev + 1):
            cost = m * (m - 1)
            if used + cost > budget:
                break
            vec.append(m)
            rec(pos + 1, m, used + cost)
            vec.pop()

    rec(0, cap, 0)
    return out


def set_partitions(n):
    """All set partitions of range(n)."""
    if n == 0:
        yield []
        return
    parts = [[0]]

    def rec(i):
        if i == n:
            yield [tuple(b) for b in parts]
            return
        for b in parts:
            b.append(i)
            yield from rec(i + 1)
            b.pop()
        parts.append([i])
        yield from rec(i + 1)
        parts.pop()

    yield from rec(1)


def labeled_incidence_pairs(r):
    """All (a_partition, b_partition) pairs with pairwise intersections <= 1."""
    for a_part in set_partitions(r):
        for b_part in set_partitions(r):
            if all(
                len(set(ab) & set(bb)) <= 1 for ab in a_part for bb in b_part
            ):
                yield a_part, b_part


def pair_to_matrix(weights, a_part, b_part):
    """Incidence matrix of a labeled pair (rows = a-blocks, cols = b-blocks)."""
    col_of = {}
    for j, bb in enumerate(b_part):
        for p in bb:
            col_of[p] = j
    rows = []
    for ab in a_part:
        row = [0] * len(b_part)
        for p in ab:
            row[col_of[p]] = weights[p]
        rows.append(tuple(row))
    return tuple(rows)


def exact_canonical(matrix):
    """True canonical form under row/column permutations (small matrices only).

    Minimum over all row permutations of the column-sorted matrix; complete,
    unlike the package's fast fixpoint normal form, so it decides isomorphism.
    """
    from itertools import permutations

    rows = [tuple(r) for r in matrix]
    best = None
    for perm in set(permutations(rows)):
        cols = sorted(zip(*perm), reverse=True)
        m = tuple(zip(*cols)) if cols else tuple(() for _ in perm)
        if best is None or m < best:
            best = m
    return best


def labeled_structures_canonicalized(weights):
    """Exact canonical forms of every labeled incidence pair for a weight vector."""
    out = set()
    for a_part, b_part in labeled_incidence_pairs(len(weights)):
        out.add(exact_canonical(pair_to_matrix(weights, a_part, b_part)))
    return out


def per_type_configurations(
    k: int, s: SurfaceType, r_max: int | None = None
) -> Iterator[JetConfiguration]:
    """The enumeration as a loop per type: label every matrix for this type.

    The reference for the package's enumeration, which labels each matrix
    once per k for all types; both must yield equal configurations in the
    same order.
    """
    if r_max is None:
        r_max = k + 1
    yield JetConfiguration(k, (k + 1,), (ABlock((0,), SINGULAR_A, 1),), ((0,),))
    for r in range(2, r_max + 1):
        for weights in weight_partitions(k + 1):
            if len(weights) != r:
                continue
            for matrix in incidence_structures(weights):
                w, a_pts, b_blocks = _structure_to_blocks(matrix)
                heavy = [
                    i for i, pts in enumerate(a_pts)
                    if is_heavy(sum(w[p] for p in pts), k)
                ]
                if not heavy:
                    options = [(-1, SINGULAR_A, 1)]
                else:
                    hi = heavy[0]
                    options = [(hi, SINGULAR_A, 1)]
                    options += [
                        (hi, INTERMEDIATE_A, m) for m in s.intermediate_fibre_coeffs
                    ]
                    options.append((hi, FULL_A, s.mu))
                for hidx, kind, coeff in options:
                    a_blocks = tuple(
                        ABlock(pts, kind if i == hidx else SINGULAR_A,
                               coeff if i == hidx else 1)
                        for i, pts in enumerate(a_pts)
                    )
                    yield JetConfiguration(k, w, a_blocks, b_blocks)


def threshold_classification(
    cfg: JetConfiguration, s: SurfaceType
) -> tuple[str, int | None, int | None, int | None]:
    """(label, heavy A-block, heavy B-block, shared point), from the threshold rules.

    Block weights are compared with (k+1)/2 as fractions.  An A-block above
    it picks the case by its fibre kind.  B-blocks count only where the
    B-fibre class is (0,1): without a heavy A-block, a B-block above the
    threshold is case IV; with one, the first B-block at or above it that
    meets the heavy A-block makes the b-variant.
    """
    if len(cfg.weights) == 1:
        return R1, None, None, None
    half = Fraction(cfg.k + 1, 2)
    a_mass = [sum(cfg.weights[p] for p in ab.points) for ab in cfg.a_blocks]
    b_mass = []
    if s.b_fibre_coeff == 1:
        b_mass = [sum(cfg.weights[p] for p in bb) for bb in cfg.b_blocks]
    heavy_a = [i for i, m in enumerate(a_mass) if m > half]
    if not heavy_a:
        heavy_b = [j for j, m in enumerate(b_mass) if m > half]
        return (CASE_IV, None, heavy_b[0], None) if heavy_b else (CASE_I, None, None, None)
    (i,) = heavy_a
    plain, with_b = {
        SINGULAR_A: (CASE_IIA, CASE_IIB),
        INTERMEDIATE_A: (SING_M_A, SING_M_B),
        FULL_A: (CASE_IIIA, CASE_IIIB),
    }[cfg.a_blocks[i].kind]
    for j, m in enumerate(b_mass):
        common = set(cfg.a_blocks[i].points) & set(cfg.b_blocks[j])
        if m >= half and common:
            (point,) = common
            return with_b, i, j, point
    return plain, i, None, None


def blowup_add(x: BlowupClass, y: BlowupClass) -> BlowupClass:
    """x + y, componentwise."""
    if len(x.exc) != len(y.exc):
        raise ValueError("exceptional arity mismatch")
    return BlowupClass(x.base + y.base, tuple(c + d for c, d in zip(x.exc, y.exc)))


def blowup_sub(x: BlowupClass, y: BlowupClass) -> BlowupClass:
    """x - y, componentwise."""
    if len(x.exc) != len(y.exc):
        raise ValueError("exceptional arity mismatch")
    return BlowupClass(x.base - y.base, tuple(c - d for c, d in zip(x.exc, y.exc)))


def blowup_square(x: BlowupClass) -> int:
    """x.x on the blow-up."""
    return blowup_intersect(x, x)


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
    return f_class, blowup_sub(m_class, f_class)


def certify_square(cls_: BlowupClass, strict: bool, what: str) -> CheckRecord:
    """The square check of a class, through the blow-up pairing."""
    return _square_record(blowup_square(cls_), strict, what)


def certify_fibres(
    divisor: BlowupClass, cfg: JetConfiguration, s: SurfaceType, strict: bool, what: str
) -> list[CheckRecord]:
    """The fibre checks of `divisor`, each the blow-up pairing with a strict transform.

    Every A-block and B-block with its own fibre class, each point once, then
    each catalog class through no point: the engine's order.
    """
    fibres = [((ab.fibre_coeff, 0), ab.points, ab.kind) for ab in cfg.a_blocks]
    fibres += [((0, s.b_fibre_coeff), bb, B_FIBRE) for bb in cfg.b_blocks]
    fibres += [(curve.to_pair(), (), kind) for curve, kind in fibre_classes(s)]
    checks = []
    for curve, block, kind in fibres:
        indicator = tuple(int(i in block) for i in range(cfg.r))
        value = blowup_intersect(divisor, BlowupClass(DivisorClass(*curve), indicator))
        coeff = curve[1] if kind == B_FIBRE else curve[0]
        record = _fibre_record(value, strict, what, (block, kind, coeff))
        assert (record.curve, record.block, record.fibre) == (curve, block, kind)
        checks.append(record)
    return checks


def naive_bounded_checks(cfg: JetConfiguration, twisted: BlowupClass, strict: bool,
                         box: int = 4, cap: int = 6):
    """Brute-force bounded-regime checks against an explicitly given divisor.

    Enumerates every multiplicity assignment in the full box, filters by the
    genus bound, and evaluates the intersection with the strict transform
    through the blow-up pairing only.
    """
    out = set()
    for alpha in range(1, box + 1):
        for beta in range(1, box + 1):
            budget = 2 * alpha * beta
            for mults in product(range(cap + 1), repeat=cfg.r):
                if not any(mults):
                    continue
                if sum(m * (m - 1) for m in mults) > budget:
                    continue
                value = blowup_intersect(
                    twisted, BlowupClass(DivisorClass(alpha, beta), mults)
                )
                passed = value > 0 if strict else value >= 0
                out.add((alpha, beta, mults, value, passed))
    return out


def knapsack_from_scratch(coefs: tuple[int, ...], max_budget: int = 32):
    """The genus knapsack as one full DP table per vector, no row shared.

    max of sum(coef_i * m_i) under sum m_i(m_i-1) <= budget, for every budget
    0..max_budget, with the witness the package's rule picks: each item's
    smallest multiplicity that attains its row's best value, read back from
    the last item.  Returns (best value per budget, witness per budget).
    """
    costs = []
    while len(costs) * (len(costs) - 1) <= max_budget:
        costs.append(len(costs) * (len(costs) - 1))
    best = [[0] * (max_budget + 1)]
    choice = []
    for coef in coefs:
        row, picks = [], []
        for budget in range(max_budget + 1):
            options = [(coef * v + best[-1][budget - c], v)
                       for v, c in enumerate(costs) if c <= budget]
            top = max(value for value, _ in options)
            row.append(top)
            picks.append(min(v for value, v in options if value == top))
        best.append(row)
        choice.append(picks)
    witnesses = []
    for budget in range(max_budget + 1):
        vec, rem = [0] * len(coefs), budget
        for i in reversed(range(len(coefs))):
            vec[i] = choice[i][rem]
            rem -= costs[vec[i]]
        witnesses.append(tuple(vec))
    return tuple(best[-1]), tuple(witnesses)


def point_offsets(
    cfg: JetConfiguration, cls: Classification, s: SurfaceType
) -> tuple[tuple[int, ...], DivisorClass]:
    """Per-point coefficient offsets and the correction class subtracted from L.

    Derived from the case label alone, independently of the engine's
    correction divisor: the checked class is pi*(L - corr) - sum (k_i + c_i)E_i
    with c_i = +1 off the heavy fibres, 0 on them, and -1 at the point shared
    by two corrected fibres.
    """
    label = cls.label
    q = s.b_fibre_coeff
    offsets = [1] * cfg.r
    if label in (CASE_I, CASE_IIIA, SING_M_A):
        return tuple(offsets), DivisorClass(0, 0)
    if label == CASE_IIA:
        for p in cfg.a_blocks[cls.heavy_a].points:
            offsets[p] = 0
        return tuple(offsets), DivisorClass(1, 0)
    if label == CASE_IIB:
        for p in cfg.a_blocks[cls.heavy_a].points:
            offsets[p] = 0
        for p in cfg.b_blocks[cls.heavy_b]:
            offsets[p] = 0
        offsets[cls.shared_point] = -1
        return tuple(offsets), DivisorClass(1, q)
    if label in (CASE_IIIB, SING_M_B, CASE_IV):
        for p in cfg.b_blocks[cls.heavy_b]:
            offsets[p] = 0
        return tuple(offsets), DivisorClass(0, q)
    raise ValueError(f"label {label} has no non-fibre checks")


def target_inequality(
    cfg: JetConfiguration,
    cls: Classification,
    candidate: CurveCandidate,
    s: SurfaceType,
    base: DivisorClass,
) -> int:
    """Exact value of the case inequality for one curve candidate.

    Computed in closed form and cross-checked against the blow-up
    intersection of the corrected class with the strict transform.
    """
    if candidate.cls.a <= 0 or candidate.cls.b <= 0:
        raise ValueError("non-fibre candidates have alpha > 0 and beta > 0")
    if len(candidate.mults) != cfg.r:
        raise ValueError("multiplicity arity mismatch")
    offsets, corr = point_offsets(cfg, cls, s)
    coefs = tuple(k + c for k, c in zip(cfg.weights, offsets))
    value = intersect(base - corr, candidate.cls) - sum(
        c * m for c, m in zip(coefs, candidate.mults)
    )
    twisted = BlowupClass(base - corr, coefs)
    transform = BlowupClass(candidate.cls, candidate.mults)
    if value != blowup_intersect(twisted, transform):
        raise AssertionError("closed form disagrees with blow-up intersection")
    return value


def _distinct_permutations(items: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    pool = sorted(items)
    n = len(pool)
    used = [False] * n
    cur: list[int] = []

    def rec() -> Iterator[tuple[int, ...]]:
        if len(cur) == n:
            yield tuple(cur)
            return
        prev: int | None = None
        for i in range(n):
            if used[i] or pool[i] == prev:
                continue
            prev = pool[i]
            used[i] = True
            cur.append(pool[i])
            yield from rec()
            cur.pop()
            used[i] = False

    yield from rec()


@dataclass(frozen=True)
class BoundedCheck:
    alpha: int
    beta: int
    mults: tuple[int, ...]
    value: int
    strict: bool
    passed: bool


def check_bounded(
    cfg: JetConfiguration,
    cls: Classification,
    s: SurfaceType,
    base: DivisorClass,
    cap: int | None = None,
) -> list[BoundedCheck]:
    """Every bounded-regime check, fully materialized.

    For each class (alpha, beta) in the 4x4 box and every genus-admissible
    assignment of multiplicities to the labeled points, evaluates the target
    directly.  No reduction lemmas are involved.
    """
    strict = cls.label in (CASE_IIA, CASE_IIB, CASE_IIIB, CASE_IV, SING_M_B)
    out: list[BoundedCheck] = []
    for alpha in range(1, BOUNDED_MAX + 1):
        for beta in range(1, BOUNDED_MAX + 1):
            ccls = DivisorClass(alpha, beta)
            this_cap = cap if cap is not None else max_single_multiplicity(ccls)
            for vec in enumerate_admissible(ccls, cfg.r, this_cap):
                for assignment in _distinct_permutations(vec):
                    cand = CurveCandidate(ccls, assignment)
                    if not genus_admissible(cand):
                        continue
                    value = target_inequality(cfg, cls, cand, s, base)
                    passed = value > 0 if strict else value >= 0
                    out.append(
                        BoundedCheck(alpha, beta, assignment, value, strict, passed)
                    )
    return out
