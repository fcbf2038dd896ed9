"""Independent brute-force oracles used to cross-check the package.

The incidence and naive bounded oracles are written from first principles,
without reusing the package's enumeration or closed forms, so that agreement
is a real check and not a tautology.  The fully materialized bounded checks
(`check_bounded`) evaluate every genus-admissible assignment directly, the
reference for the package's extremal knapsack cells.  The genus-bound
oracles (`genus_admissible`, `max_single_multiplicity`,
`enumerate_admissible`) filter the multiplicity vectors it evaluates.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    NORIMATSU_LABELS,
    SING_M_A,
    SING_M_B,
    Classification,
    JetConfiguration,
    _structure_to_blocks,
    incidence_structures,
    is_heavy,
    weight_partitions,
)
from hyperjet.lattice import BlowupClass, DivisorClass, blowup_intersect, intersect
from hyperjet.nonfibre import BOUNDED_MAX
from hyperjet.surfaces import FULL_A, INTERMEDIATE_A, SINGULAR_A, SurfaceType


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
    strict = cls.label in NORIMATSU_LABELS
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
