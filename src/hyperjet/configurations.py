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
permutations.  The fixpoint starts by sorting the rows, so it is computed
once per distinct row-sorted matrix, however many times the generator
emits one.  Equal normal forms are always genuinely isomorphic; a few
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
from typing import Iterator, NamedTuple

from .surfaces import INTERMEDIATE_A, SINGULAR_A, SurfaceType

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


class ABlock(NamedTuple):
    """Points sharing one fibre of the first fibration, with the fibre's kind.

    A tuple, so it hashes in C: the engine interns fibre checks and a bundle
    keys its text by A-block."""

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

    def validate(self) -> Core:
        """The structure's memoized core; raise ValueError unless it is well formed.

        Only the structure is checked; `classify` checks the fibre kinds.
        """
        return _structure(
            self.k, self.weights, tuple([ab.points for ab in self.a_blocks]), self.b_blocks
        )

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "weights": list(self.weights),
            "a_blocks": [b.to_json() for b in self.a_blocks],
            "b_blocks": [list(b) for b in self.b_blocks],
        }


@dataclass(frozen=True, slots=True)
class Residual:
    """The exceptional side of M = pi*L - sum (k_i + 1)E_i or of N = M - F, whatever
    the base L and the type: with the class's base (a, b), its square is 2ab -
    `square`, its pairing with a fibre (c, d) through a block cb + da - the block's sum."""

    f_exc: tuple[int, ...] | None  # F's exceptional vector; None for M
    exc: tuple[int, ...]  # the class's: k_i + 1, less F's
    a_sums: tuple[int, ...]  # exc summed over each A-block
    b_sums: tuple[int, ...]  # and over each B-block
    coefs: tuple[int, ...]  # exc sorted, as the non-fibre report reads it
    square: int  # sum of exc_i^2


@dataclass(frozen=True, slots=True)
class Core(Residual):
    """The structure memo's record, whatever the type: M's residual, the heavy
    blocks, and N's residual for each set of corrected fibres the structure
    allows (None where it allows none)."""

    heavy_a: int | None  # the A-block with 2w > k+1
    heavy_b: int | None  # with heavy_a, the first B-block with 2w >= k+1 meeting it; else 2w > k+1
    shared_point: int | None  # the point heavy_a and heavy_b share
    n_a: Residual | None  # the heavy A-fibre corrected
    n_b: Residual | None  # the heavy B-fibre corrected
    n_ab: Residual | None  # both

    def residual(self, corr_a: bool, corr_b: bool) -> Residual:
        return (self, self.n_a, self.n_b, self.n_ab)[corr_a + 2 * corr_b]


def is_heavy(weight: int, k: int) -> bool:
    """A block of this weight sum strictly exceeds the threshold (k+1)/2."""
    return 2 * weight > k + 1


@lru_cache(maxsize=None)
def _structure(
    k: int,
    weights: tuple[int, ...],
    a_points: tuple[tuple[int, ...], ...],
    b_blocks: tuple[tuple[int, ...], ...],
) -> Core:
    """Check the weights and blocks, find the heavy ones, and compute the
    core, its residuals' tuples interned; memoized per structure, so once per
    skeleton for all seven types, every heavy-kind variant and every base."""
    if k < 0:
        raise ValueError("k must be non-negative")
    if any(w < 1 for w in weights):
        raise ValueError("weights must be positive")
    if any(weights[i] < weights[i + 1] for i in range(len(weights) - 1)):
        raise ValueError("weights must be non-increasing")
    if sum(weights) != k + 1:
        raise ValueError(f"weights must sum to k+1={k + 1}, got {sum(weights)}")
    pts = set(range(len(weights)))
    for blocks in (a_points, b_blocks):
        seen: set[int] = set()
        for blk in blocks:
            if not blk:
                raise ValueError("empty incidence block")
            points = set(blk)
            if len(points) != len(blk):
                raise ValueError("an incidence block lists a point twice")
            if not seen.isdisjoint(points):
                raise ValueError("incidence blocks must be disjoint")
            seen |= points
        if seen != pts:
            raise ValueError("incidence blocks must cover all points")
    # The blocks partition the points, so an A-block and a B-block share at
    # most one point exactly when each B-block's points lie on distinct A-blocks.
    row = {p: i for i, blk in enumerate(a_points) for p in blk}
    if any(len({row[p] for p in bb}) < len(bb) for bb in b_blocks):
        raise ValueError("an A-block and a B-block share at most one point")

    a_weights = [sum([weights[p] for p in blk]) for blk in a_points]
    b_weights = [sum([weights[p] for p in bb]) for bb in b_blocks]
    heavy_a = [i for i, w in enumerate(a_weights) if is_heavy(w, k)]
    if len(heavy_a) > 1:
        raise AssertionError("two disjoint heavy blocks would exceed the total weight")
    strict_b = [j for j, w in enumerate(b_weights) if is_heavy(w, k)]
    if len(strict_b) > 1:
        raise AssertionError("two disjoint heavy B-blocks cannot occur")
    heavy, strict = heavy_a[0] if heavy_a else None, strict_b[0] if strict_b else None
    weak_heavy_b = [j for j, w in enumerate(b_weights) if 2 * w >= k + 1]
    # a strict heavy B-block is also weak: without a weak one, strict is None
    heavy_b, shared_point = strict, None
    if heavy is not None and weak_heavy_b:
        s_points = set(a_points[heavy])
        sharing = [j for j in weak_heavy_b if s_points & set(b_blocks[j])]
        if not sharing:
            # 2 sum(S) > k+1 and 2 sum(T) >= k+1 force S and T to meet
            raise AssertionError("heavy A- and B-blocks must share a point")
        shared = sorted(s_points & set(b_blocks[sharing[0]]))
        if len(shared) != 1:
            raise AssertionError("heavy blocks share exactly one point")
        heavy_b, shared_point = sharing[0], shared[0]

    def residual(*corrected: tuple[int, ...]) -> tuple:
        # each corrected fibre passes once through each of its points
        f = [0] * len(weights)
        for blk in corrected:
            for p in blk:
                f[p] += 1
        exc = _interned(tuple([w + 1 - c for w, c in zip(weights, f)]))
        sums = [tuple([sum([exc[p] for p in blk]) for blk in bs]) for bs in (a_points, b_blocks)]
        return (_interned(tuple(f)) if corrected else None, exc, *map(_interned, sums),
                _interned(tuple(sorted(exc))), sum([e * e for e in exc]))

    def n(*corrected: tuple[int, ...] | None) -> Residual | None:
        return None if None in corrected else Residual(*residual(*corrected))

    a_blk = None if heavy is None else a_points[heavy]
    b_blk = None if heavy_b is None else b_blocks[heavy_b]
    return Core(*residual(), heavy, heavy_b, shared_point, n(a_blk), n(b_blk), n(a_blk, b_blk))


@lru_cache(maxsize=None, typed=True)
def _interned(value):
    """The first value equal to `value` and of its type: the package's one interner.

    Typed, because an `ABlock` equals the plain tuple of its fields."""
    return value


class Classification(NamedTuple):
    label: str
    heavy_a: int | None = None  # index into cfg.a_blocks
    heavy_b: int | None = None  # index into cfg.b_blocks
    shared_point: int | None = None  # unique point in the heavy pair, if any
    core: Core | None = None  # the structure's, as `classify` read it


def classify(cfg: JetConfiguration, s: SurfaceType) -> Classification:
    """Assign a configuration to its proof case.  Total and deterministic.

    Validates the configuration.  A single point is R1 at every k >= 0; any
    other configuration requires k >= 2: 1-jet ampleness of (3,3) is
    certified externally, so k = 1 never reaches the case analysis.  The
    heavy blocks come from the structure memo; the type adds which A-fibres
    exist (`SurfaceType.a_fibres`) and whether B-blocks count.  The result
    carries the core, so a certificate looks its structure up once.
    """
    st = cfg.validate()
    for ab in cfg.a_blocks:
        if (ab.kind, ab.fibre_coeff) not in s.a_fibres:
            raise ValueError(
                f"type {s.type_id} has no {ab.kind} fibre with coefficient {ab.fibre_coeff}"
            )
    if cfg.r == 1:
        return Classification(R1, None, None, None, st)
    if cfg.k < 2:
        raise ValueError(
            "classification requires k >= 2 (k = 1 is certified externally "
            "via very ampleness of type (3,3))"
        )
    # Where (0,1) is not effective, B-fibres have class (0, gamma/mu) with
    # gamma/mu >= 2 and can never become critical, so B-blocks are ignored
    # and the b-variant labels and IV do not occur.
    if st.heavy_a is None:
        if s.has_unit_b_class and st.heavy_b is not None:
            return Classification(CASE_IV, None, st.heavy_b, None, st)
        return Classification(CASE_I, None, None, None, st)
    kind = cfg.a_blocks[st.heavy_a].kind
    if not s.has_unit_b_class or st.heavy_b is None:
        return Classification(_a_label(kind, False), st.heavy_a, None, None, st)
    return Classification(_a_label(kind, True), st.heavy_a, st.heavy_b, st.shared_point, st)


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
    # `rec` refers to itself through its closure, and to `results`; unbroken,
    # that cycle and the set outlive the call, since the CLI runs without the
    # cycle collector (`cli.main`)
    del rec
    return sorted(results, reverse=True)


def _normal_form(m: list[list[int]]) -> tuple[tuple[int, ...], ...]:
    """Fixpoint of row/column descending sorts; key for isomorphism dedup.

    Sorts the rows of `m` in place.  The first step sorts the rows, so the
    result depends only on the multiset of rows: `incidence_structures` calls
    it once per distinct row-sorted matrix."""
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
    extended, which prunes most of the labeled search space.  The matrix is
    built in place, one cell per placed point.  Each emitted matrix has its
    rows sorted once, and only a row-sorted matrix not yet seen for this
    weight vector is brought to its normal form (at k 7, about one emit in
    five).
    """
    out: set[tuple[tuple[int, ...], ...]] = set()
    row_sorted: set[tuple[tuple[int, ...], ...]] = set()
    for ablocks in _multiset_block_partitions(weights):
        points = [(ri, w) for ri, blk in enumerate(ablocks) for w in blk]
        cols: list[tuple[tuple[int, int], ...]] = []
        # the matrix so far, wide enough for a column per point
        grid = [[0] * len(points) for _ in ablocks]

        def emit() -> None:
            n = len(cols)
            key = tuple(sorted([tuple(row[:n]) for row in grid], reverse=True))
            if key not in row_sorted:
                row_sorted.add(key)
                out.add(_normal_form(list(map(list, key))))

        def rec(i: int) -> None:
            if i == len(points):
                emit()
                return
            ri, w = points[i]
            row = grid[ri]
            seen: set[tuple[tuple[int, int], ...]] = set()
            for ci in range(len(cols)):
                # a taken cell: the column already meets this A-block
                if row[ci] or cols[ci] in seen:
                    continue
                seen.add(cols[ci])
                cols[ci] = cols[ci] + ((ri, w),)
                row[ci] = w
                rec(i + 1)
                row[ci] = 0
                cols[ci] = cols[ci][:-1]
            cols.append(((ri, w),))
            row[len(cols) - 1] = w
            rec(i + 1)
            row[len(cols) - 1] = 0
            cols.pop()

        rec(0)
        # `rec` refers to itself through its closure, and through `emit` to
        # every key in `row_sorted`; unbroken, that cycle and the keys outlive
        # the call, since the CLI runs without the cycle collector (`cli.main`)
        del rec, emit
    return tuple(sorted(out, reverse=True))


def _structure_to_blocks(
    matrix: tuple[tuple[int, ...], ...]
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """Label the points of a matrix: weights non-increasing, then row, then column."""
    cells = sorted((-w, i, j) for i, row in enumerate(matrix) for j, w in enumerate(row) if w)
    a_blocks: list[list[int]] = [[] for _ in matrix]
    b_blocks: list[list[int]] = [[] for _ in (matrix[0] if matrix else ())]
    # points are numbered in order, so each block lists its points sorted
    for p, (_, i, j) in enumerate(cells):
        a_blocks[i].append(p)
        b_blocks[j].append(p)
    weights = tuple([-c[0] for c in cells])
    return weights, tuple(map(tuple, a_blocks)), tuple(map(tuple, b_blocks))


@lru_cache(maxsize=None)
def _skeletons(k: int) -> tuple[tuple[JetConfiguration, ...], tuple[int | None, ...]]:
    """Every labeled matrix of k with its heavy A-row, shared by all seven types.

    One entry per matrix: the configuration with every A-block singular and,
    in the second tuple, the index of its heavy A-block (None if no A-block
    is heavy).  The single point comes first, then the matrices by point
    count, weight vector and matrix, so a cap on the point count is a prefix.
    Weight tuples, blocks and singular A-blocks are interned (`_interned`),
    for every k: equal ones are one object.
    """
    def singular(pts: tuple[int, ...]) -> ABlock:
        return _interned(ABlock(_interned(pts), SINGULAR_A, 1))

    point = _interned((0,))
    single = JetConfiguration(
        k, _interned((k + 1,)), _interned((singular(point),)), _interned((point,))
    )
    table, heavy = [single], [None]
    # the partitions by length, each length in descending order (the sort
    # is stable), after the single point (k+1,)
    for weights in sorted(weight_partitions(k + 1), key=len)[1:]:
        for matrix in incidence_structures(weights):
            w, a_pts, b_pts = _structure_to_blocks(matrix)
            a_pts = _interned(tuple([_interned(pts) for pts in a_pts]))
            cfg = JetConfiguration(
                k,
                _interned(w),
                _interned(tuple([singular(pts) for pts in a_pts])),
                _interned(tuple([_interned(pts) for pts in b_pts])),
            )
            table.append(cfg)
            # the first call of `cfg.validate()`, with the interned A-point
            # tuple: the memo keeps that call's key
            heavy.append(_structure(k, cfg.weights, a_pts, cfg.b_blocks).heavy_a)
    return tuple(table), tuple(heavy)


def skeleton_count(k: int, r_max: int) -> int:
    """The number of entries of k's skeleton table with at most r_max points."""
    return bisect_right(_skeletons(k)[0], r_max, key=lambda cfg: cfg.r)


def enumerate_configurations(
    k: int, s: SurfaceType, *, part: slice | None = None
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
    configurations of those entries; the first `skeleton_count(k, r_max)`
    entries are those of at most r_max points, and consecutive slices of
    them enumerate that scope in order.
    """
    if k < 2:
        raise ValueError("enumeration requires k >= 2 (k = 1 is certified externally)")
    configs, heavies = _skeletons(k)
    part = slice(None) if part is None else part
    for cfg, heavy in zip(configs[part], heavies[part]):
        yield cfg
        if heavy is not None:
            blocks = cfg.a_blocks
            points = blocks[heavy].points
            for kind, coeff in s.a_fibres[1:]:
                variant = _interned(ABlock(points, kind, coeff))
                a_blocks = blocks[:heavy] + (variant,) + blocks[heavy + 1:]
                yield JetConfiguration(k, cfg.weights, a_blocks, cfg.b_blocks)
