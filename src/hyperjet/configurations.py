"""Jet-weight partitions, fibre incidence patterns, and case classification.

A configuration for k-jet verification is a weight vector (k_1, ..., k_r)
with sum k+1 together with the incidence pattern of the r points: which
points share a fibre of the first fibration (blocks tagged by fibre kind)
and which share a fibre of the second.  Points are abstract; two distinct
points lie on at most one common fibre pair, so a block of the A-side and a
block of the B-side meet in at most one point.

Configurations are enumerated up to weight-preserving relabeling of points.
An incidence pattern is encoded as a matrix (rows = A-blocks, columns =
B-blocks, at most one point per cell, entries = weights); representatives
are deduplicated by a deterministic fixpoint normal form under row/column
permutations.  Equal normal forms are always genuinely isomorphic; a few
isomorphic patterns may survive as distinct representatives, which only
makes the checked set larger.

Classification against the threshold (k+1)/2, compared as integers: a
block of weight sum w is heavy when 2w > k+1; the B-side is additionally
tested non-strictly (2w >= k+1) when a heavy A-side block is present.  On
surfaces where (0,1) is not an effective class (even types), B-blocks never
classify as heavy.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .surfaces import (
    FULL_A,
    INTERMEDIATE_A,
    SINGULAR_A,
    SurfaceType,
)

# Case labels.
R1 = "R1"
CASE_I = "I"
CASE_IIA = "IIa"
CASE_IIB = "IIb"
CASE_IIIA = "IIIa"
CASE_IIIB = "IIIb"
CASE_IV = "IV"
SING_M_A = "SingM-a"
SING_M_B = "SingM-b"

# Labels proved via Kawamata-Viehweg (M nef and big); the rest go through
# Norimatsu (N = M - F ample, F an SNC correction).
KAWAMATA_VIEHWEG_LABELS = frozenset({R1, CASE_I, CASE_IIIA, SING_M_A})
NORIMATSU_LABELS = frozenset({CASE_IIA, CASE_IIB, CASE_IIIB, CASE_IV, SING_M_B})


@dataclass(frozen=True, slots=True)
class ABlock:
    """Points sharing one fibre of the first fibration, with the fibre's kind."""

    points: tuple[int, ...]
    kind: str
    fibre_coeff: int  # first coordinate of the fibre class: 1, m, or mu

    def to_json(self) -> dict:
        return {
            "points": list(self.points),
            "kind": self.kind,
            "fibre_coeff": self.fibre_coeff,
        }


@dataclass(frozen=True, slots=True)
class JetConfiguration:
    k: int
    weights: tuple[int, ...]
    a_blocks: tuple[ABlock, ...]
    b_blocks: tuple[tuple[int, ...], ...]

    @property
    def r(self) -> int:
        return len(self.weights)

    def validate(self) -> None:
        if self.k < 0:
            raise ValueError("k must be non-negative")
        if any(w < 1 for w in self.weights):
            raise ValueError("weights must be positive")
        if any(
            self.weights[i] < self.weights[i + 1] for i in range(self.r - 1)
        ):
            raise ValueError("weights must be non-increasing")
        if sum(self.weights) != self.k + 1:
            raise ValueError(
                f"weights must sum to k+1={self.k + 1}, got {sum(self.weights)}"
            )
        shared = _block_structure(
            self.r, tuple(ab.points for ab in self.a_blocks), self.b_blocks
        )
        for i, ab in enumerate(self.a_blocks):
            if ab.kind not in (SINGULAR_A, INTERMEDIATE_A, FULL_A):
                raise ValueError(f"unknown A-block kind {ab.kind!r}")
            if ab.kind == SINGULAR_A and ab.fibre_coeff != 1:
                raise ValueError("singular-A blocks carry fibre class (1,0)")
            if ab.kind != SINGULAR_A and ab.fibre_coeff < 2:
                raise ValueError("non-minimal fibre coefficient must be >= 2")
            if i == shared:
                raise ValueError("an A-block and a B-block share at most one point")

    def weight_of(self, points: tuple[int, ...]) -> int:
        return sum(self.weights[i] for i in points)

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "weights": list(self.weights),
            "a_blocks": [b.to_json() for b in self.a_blocks],
            "b_blocks": [list(b) for b in self.b_blocks],
        }


@lru_cache(maxsize=None)
def _block_structure(
    r: int,
    a_points: tuple[tuple[int, ...], ...],
    b_blocks: tuple[tuple[int, ...], ...],
) -> int:
    """Check that both block lists partition range(r); memoized per structure.

    Returns the first A-block with a B-block sharing two points with it, or
    len(a_points) if there is none; `validate` raises for that block only
    after the kind checks of the blocks before it, and of itself, pass.
    """
    pts = set(range(r))
    for blocks in (a_points, b_blocks):
        seen: set[int] = set()
        for blk in blocks:
            if not blk:
                raise ValueError("empty incidence block")
            if len(set(blk)) != len(blk):
                raise ValueError("an incidence block lists a point twice")
            if set(blk) & seen:
                raise ValueError("incidence blocks must be disjoint")
            seen.update(blk)
        if seen != pts:
            raise ValueError("incidence blocks must cover all points")
    # The blocks partition the points, so an A-block and a B-block share
    # at most one point exactly when no cell (A-block, B-block) holds two.
    row = {p: i for i, blk in enumerate(a_points) for p in blk}
    cells: set[tuple[int, int]] = set()
    shared = len(a_points)
    for j, bb in enumerate(b_blocks):
        for p in bb:
            cell = (row[p], j)
            if cell in cells:
                shared = min(shared, row[p])
            cells.add(cell)
    return shared


def is_heavy(weight: int, k: int) -> bool:
    """A block of this weight sum strictly exceeds the threshold (k+1)/2."""
    return 2 * weight > k + 1


@dataclass(frozen=True, slots=True)
class Classification:
    label: str
    heavy_a: int | None = None  # index into cfg.a_blocks
    heavy_b: int | None = None  # index into cfg.b_blocks
    shared_point: int | None = None  # unique point in the heavy pair, if any


def classify(cfg: JetConfiguration, s: SurfaceType) -> Classification:
    """Assign a configuration to its proof case.  Total and deterministic.

    Validates the configuration.  A single point is R1 at every k >= 0; any
    other configuration requires k >= 2: 1-jet ampleness of (3,3) is
    certified externally, so k = 1 never reaches the case analysis.
    """
    cfg.validate()
    for ab in cfg.a_blocks:
        if ab.kind == INTERMEDIATE_A and ab.fibre_coeff not in s.intermediate_fibre_coeffs:
            raise ValueError(
                f"type {s.type_id} has no intermediate fibre with coefficient "
                f"{ab.fibre_coeff}"
            )
        if ab.kind == FULL_A and ab.fibre_coeff != s.mu:
            raise ValueError(f"full fibre class on type {s.type_id} is ({s.mu},0)")
    if cfg.r == 1:
        return Classification(R1)
    if cfg.k < 2:
        raise ValueError(
            "classification requires k >= 2 (k = 1 is certified externally "
            "via very ampleness of type (3,3))"
        )

    k, weight_of = cfg.k, cfg.weight_of
    heavy_a_idxs = [
        i for i, ab in enumerate(cfg.a_blocks) if is_heavy(weight_of(ab.points), k)
    ]
    if len(heavy_a_idxs) > 1:
        raise AssertionError("two disjoint heavy blocks would exceed the total weight")
    heavy_a = heavy_a_idxs[0] if heavy_a_idxs else None

    if not s.has_unit_b_class:
        # (0,1) is not effective: B-fibres have class (0, gamma/mu) with
        # gamma/mu >= 2 and can never become critical, so B-blocks are
        # ignored and the b-variant labels do not occur.
        if heavy_a is None:
            return Classification(CASE_I)
        return Classification(_a_label(cfg.a_blocks[heavy_a].kind, False), heavy_a)

    if heavy_a is None:
        strict_heavy_b = [
            j for j, bb in enumerate(cfg.b_blocks) if is_heavy(weight_of(bb), k)
        ]
        if len(strict_heavy_b) > 1:
            raise AssertionError("two disjoint heavy B-blocks cannot occur")
        if strict_heavy_b:
            return Classification(CASE_IV, None, strict_heavy_b[0], None)
        return Classification(CASE_I)

    s_points = set(cfg.a_blocks[heavy_a].points)
    weak_heavy_b = [
        j for j, bb in enumerate(cfg.b_blocks) if 2 * weight_of(bb) >= k + 1
    ]
    if not weak_heavy_b:
        return Classification(_a_label(cfg.a_blocks[heavy_a].kind, False), heavy_a)
    sharing = [j for j in weak_heavy_b if s_points & set(cfg.b_blocks[j])]
    if not sharing:
        # 2 sum(S) > k+1 and 2 sum(T) >= k+1 force S and T to meet
        raise AssertionError("heavy A- and B-blocks must share a point")
    heavy_b = sharing[0]
    shared = sorted(s_points & set(cfg.b_blocks[heavy_b]))
    if len(shared) != 1:
        raise AssertionError("heavy blocks share exactly one point")
    return Classification(
        _a_label(cfg.a_blocks[heavy_a].kind, True), heavy_a, heavy_b, shared[0]
    )


def _a_label(kind: str, with_heavy_b: bool) -> str:
    if kind == SINGULAR_A:
        return CASE_IIB if with_heavy_b else CASE_IIA
    if kind == INTERMEDIATE_A:
        return SING_M_B if with_heavy_b else SING_M_A
    return CASE_IIIB if with_heavy_b else CASE_IIIA


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def weight_partitions(total: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """Non-increasing positive partitions of total, descending lexicographic."""
    if max_part is None:
        max_part = total
    if total == 0:
        yield ()
        return
    for first in range(min(total, max_part), 0, -1):
        for rest in weight_partitions(total - first, first):
            yield (first,) + rest


def _multiset_block_partitions(ms: tuple[int, ...]) -> list[tuple[tuple[int, ...], ...]]:
    """Partitions of a weight multiset into blocks, as canonical sorted tuples."""
    results: set[tuple[tuple[int, ...], ...]] = set()
    items = sorted(ms, reverse=True)
    blocks: list[list[int]] = []

    def rec(idx: int) -> None:
        if idx == len(items):
            results.add(
                tuple(
                    sorted((tuple(sorted(b, reverse=True)) for b in blocks), reverse=True)
                )
            )
            return
        x = items[idx]
        seen: set[tuple[int, ...]] = set()
        for i, b in enumerate(blocks):
            key = tuple(sorted(b, reverse=True))
            if key in seen:
                continue
            seen.add(key)
            blocks[i] = b + [x]
            rec(idx + 1)
            blocks[i] = b
        blocks.append([x])
        rec(idx + 1)
        blocks.pop()

    rec(0)
    return sorted(results, reverse=True)


def _normal_form(rows: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """Fixpoint of row/column descending sorts; key for isomorphism dedup."""
    m = [list(r) for r in rows]
    for _ in range(12):
        m.sort(reverse=True)
        cols = sorted(zip(*m), reverse=True)
        m2 = [list(row) for row in zip(*cols)]
        if m2 == m:
            break
        m = m2
    return tuple(tuple(r) for r in m)


def incidence_structures(weights: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Deduplicated incidence matrices for a non-increasing weight vector.

    Rows are A-blocks, columns are B-blocks; a nonzero entry is the weight of
    the unique point in that cell.  During generation, columns whose current
    content coincides are interchangeable and only one representative is
    extended, which prunes most of the labeled search space.
    """
    out: set[tuple[tuple[int, ...], ...]] = set()
    for ablocks in _multiset_block_partitions(weights):
        points = [(ri, w) for ri, blk in enumerate(ablocks) for w in blk]
        cols: list[tuple[tuple[int, int], ...]] = []
        col_rows: list[set[int]] = []

        def emit() -> None:
            q = len(cols)
            rows = []
            for ri in range(len(ablocks)):
                row = [0] * q
                for ci in range(q):
                    for rj, w in cols[ci]:
                        if rj == ri:
                            row[ci] = w
                rows.append(tuple(row))
            out.add(_normal_form(tuple(rows)))

        def rec(i: int) -> None:
            if i == len(points):
                emit()
                return
            ri, w = points[i]
            seen: set[tuple[tuple[int, int], ...]] = set()
            for ci in range(len(cols)):
                if ri in col_rows[ci] or cols[ci] in seen:
                    continue
                seen.add(cols[ci])
                cols[ci] = cols[ci] + ((ri, w),)
                col_rows[ci].add(ri)
                rec(i + 1)
                col_rows[ci].remove(ri)
                cols[ci] = cols[ci][:-1]
            cols.append(((ri, w),))
            col_rows.append({ri})
            rec(i + 1)
            col_rows.pop()
            cols.pop()

        rec(0)
    return tuple(sorted(out, reverse=True))


def _structure_to_blocks(
    matrix: tuple[tuple[int, ...], ...]
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """Label the points of a matrix: weights non-increasing, then row, then column."""
    cells = [
        (i, j, w)
        for i, row in enumerate(matrix)
        for j, w in enumerate(row)
        if w != 0
    ]
    cells.sort(key=lambda c: (-c[2], c[0], c[1]))
    weights = tuple(c[2] for c in cells)
    index = {(i, j): p for p, (i, j, _) in enumerate(cells)}
    a_blocks = tuple(
        tuple(sorted(index[(i, j)] for j, w in enumerate(row) if w != 0))
        for i, row in enumerate(matrix)
    )
    ncols = len(matrix[0]) if matrix else 0
    b_blocks = tuple(
        tuple(sorted(index[(i, j)] for i, row in enumerate(matrix) if row[j] != 0))
        for j in range(ncols)
    )
    return weights, a_blocks, b_blocks


@lru_cache(maxsize=None)
def _skeletons(k: int) -> tuple[tuple[JetConfiguration, int | None], ...]:
    """Every labeled matrix of k with its heavy A-row, shared by all seven types.

    One entry per matrix: the configuration with every A-block singular and
    the index of its heavy A-block (None if no A-block is heavy).  The single
    point comes first, then the matrices by point count, weight vector and
    matrix, so a cap on the point count is a prefix.  Weight tuples, blocks
    and singular A-blocks are interned: equal ones are one object.
    """
    pool: dict = {}

    def intern(x):
        return pool.setdefault(x, x)

    def singular(pts: tuple[int, ...]) -> ABlock:
        return intern(ABlock(intern(pts), SINGULAR_A, 1))

    single = JetConfiguration(k, intern((k + 1,)), (singular((0,)),), (intern((0,)),))
    table: list[tuple[JetConfiguration, int | None]] = [(single, None)]
    for r in range(2, k + 2):
        for weights in weight_partitions(k + 1):
            if len(weights) != r:
                continue
            for matrix in incidence_structures(weights):
                w, a_pts, b_pts = _structure_to_blocks(matrix)
                heavy = next(
                    (i for i, pts in enumerate(a_pts)
                     if is_heavy(sum(w[p] for p in pts), k)),
                    None,
                )
                cfg = JetConfiguration(
                    k,
                    intern(w),
                    intern(tuple(singular(pts) for pts in a_pts)),
                    intern(tuple(intern(pts) for pts in b_pts)),
                )
                table.append((cfg, heavy))
    return tuple(table)


def skeleton_count(k: int, r_max: int) -> int:
    """The number of entries of k's skeleton table with at most r_max points."""
    return bisect_right(_skeletons(k), r_max, key=lambda entry: entry[0].r)


def enumerate_configurations(
    k: int, s: SurfaceType, r_max: int | None = None, part: slice | None = None
) -> Iterator[JetConfiguration]:
    """All configurations for k on surface type s, in deterministic order.

    Weight vectors are the partitions of k+1 (zero weights never occur); the
    single-point configuration comes first.  Every block is tagged with the
    minimal singular fibre class except a heavy A-side block, which ranges
    over the type's possible fibre kinds: the checks of a block against a
    larger fibre class are implied by the checks against (1,0), so only the
    heavy block's kind can change the outcome.  The all-singular
    configurations are built once per k and shared by every type.

    `part`, a slice of k's skeleton table, restricts the enumeration to the
    configurations of those entries; consecutive slices of the first
    `skeleton_count(k, r_max)` entries enumerate the whole scope in order.
    """
    if k < 2:
        raise ValueError(
            "enumeration requires k >= 2 (k = 1 is certified externally)"
        )
    if r_max is None:
        r_max = k + 1
    if not 1 <= r_max <= k + 1:
        raise ValueError(f"r_max must be in 1..{k + 1}")

    variants = [(INTERMEDIATE_A, m) for m in s.intermediate_fibre_coeffs]
    variants.append((FULL_A, s.mu))
    table = _skeletons(k)
    for cfg, heavy in table if part is None else table[part]:
        if cfg.r > r_max:
            return
        yield cfg
        if heavy is not None:
            blocks = cfg.a_blocks
            points = blocks[heavy].points
            for kind, coeff in variants:
                a_blocks = (
                    blocks[:heavy] + (ABlock(points, kind, coeff),) + blocks[heavy + 1:]
                )
                yield JetConfiguration(k, cfg.weights, a_blocks, cfg.b_blocks)
