import hashlib
import json
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

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
    JetConfiguration,
    _normal_form,
    _skeletons,
    classify,
    enumerate_configurations,
    incidence_structures,
    skeleton_count,
    weight_partitions,
)
from hyperjet.surfaces import FULL_A, INTERMEDIATE_A, SINGULAR_A, catalog, surface
from oracle_helpers import (
    labeled_structures_canonicalized,
    per_type_configurations,
    threshold_classification,
)


def cfg_of(k, weights, a_specs, b_blocks):
    """a_specs: list of (points, kind, coeff)."""
    return JetConfiguration(
        k,
        tuple(weights),
        tuple(ABlock(tuple(p), kind, coeff) for p, kind, coeff in a_specs),
        tuple(tuple(b) for b in b_blocks),
    )


def singletons(r):
    return [(i,) for i in range(r)]


def test_weight_partitions_k2():
    assert list(weight_partitions(3)) == [(3,), (2, 1), (1, 1, 1)]


def test_enumeration_weight_multisets_and_r_range():
    cfgs = list(enumerate_configurations(2, surface(1)))
    assert {c.weights for c in cfgs} == {(3,), (2, 1), (1, 1, 1)}
    assert {c.r for c in cfgs} == {1, 2, 3}


def test_three_incidence_patterns_for_two_points():
    # same-A/diff-B, diff-A/same-B, diff-A/diff-B; same-A/same-B excluded
    assert len(incidence_structures((2, 1))) == 3


def test_enumeration_is_deterministic():
    a = [c.to_json() for c in enumerate_configurations(3, surface(3))]
    b = [c.to_json() for c in enumerate_configurations(3, surface(3))]
    assert a == b


@pytest.mark.parametrize("k", [2, 3, 4])
def test_structures_match_independent_labeled_generator(k):
    # compare up to true isomorphism: the package's fast normal form may keep
    # more than one representative per class, but must miss none
    from oracle_helpers import exact_canonical

    for weights in weight_partitions(k + 1):
        if len(weights) < 2:
            continue
        mine = {exact_canonical(m) for m in incidence_structures(weights)}
        assert mine == labeled_structures_canonicalized(weights), weights


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_enumeration_matches_the_per_type_loop(k):
    # the shared per-k table yields what labeling every matrix per type did
    for s in catalog():
        assert list(enumerate_configurations(k, s)) == list(
            per_type_configurations(k, s)
        ), s.type_id


def test_point_cap_matches_the_per_type_loop():
    for s in catalog():
        for r_max in range(1, 6):
            part = slice(0, skeleton_count(4, r_max))
            assert list(enumerate_configurations(4, s, part=part)) == list(
                per_type_configurations(4, s, r_max)
            ), (s.type_id, r_max)


def test_classify_r1():
    cfg = cfg_of(4, (5,), [((0,), SINGULAR_A, 1)], [(0,)])
    assert classify(cfg, surface(1)).label == R1


def test_classify_case_i_singletons():
    cfg = cfg_of(2, (1, 1, 1), [(p, SINGULAR_A, 1) for p in singletons(3)],
                 singletons(3))
    assert classify(cfg, surface(1)).label == CASE_I


def test_classify_case_iia():
    # all weights 1, two on one singular fibre: A-sum 2 > 3/2, every B-block light
    cfg = cfg_of(
        2, (1, 1, 1),
        [((0, 1), SINGULAR_A, 1), ((2,), SINGULAR_A, 1)],
        singletons(3),
    )
    out = classify(cfg, surface(1))
    assert out.label == CASE_IIA
    assert out.heavy_a == 0 and out.heavy_b is None


def test_classify_case_iib_with_heavy_point():
    # weights (2,1) on one singular fibre: the weight-2 point alone makes its
    # B-fibre weight-sum 2 >= 3/2, so the non-strict B threshold fires
    cfg = cfg_of(2, (2, 1), [((0, 1), SINGULAR_A, 1)], singletons(2))
    out = classify(cfg, surface(1))
    assert out.label == CASE_IIB
    assert out.shared_point == 0


def test_classify_case_iib_spec_instance():
    # k=3, weights (2,1,1); points 0,1 on a singular fibre (sum 3 > 2);
    # points 1,2 on a B fibre (sum 2 >= 2).  The singleton fibre through the
    # weight-2 point also reaches the non-strict threshold; the classifier
    # picks the first qualifying block, and either pairing certifies.
    cfg = cfg_of(
        3, (2, 1, 1),
        [((0, 1), SINGULAR_A, 1), ((2,), SINGULAR_A, 1)],
        [(0,), (1, 2)],
    )
    out = classify(cfg, surface(1))
    assert out.label == CASE_IIB
    assert out.heavy_a == 0
    assert sum(cfg.weights[p] for p in cfg.b_blocks[out.heavy_b]) >= Fraction(4, 2)
    assert out.shared_point in cfg.a_blocks[0].points
    assert out.shared_point in cfg.b_blocks[out.heavy_b]


def test_classify_case_iii_variants():
    # pure IIIa needs every B-block strictly below (k+1)/2, so all weights 1
    cfg_a = cfg_of(
        3, (1, 1, 1, 1),
        [((0, 1, 2), FULL_A, 2), ((3,), SINGULAR_A, 1)],
        singletons(4),
    )
    assert classify(cfg_a, surface(1)).label == CASE_IIIA
    # a heavy-weight point's B-fibre reaches the non-strict threshold: IIIb
    cfg_b = cfg_of(
        3, (2, 1, 1),
        [((0, 1), FULL_A, 2), ((2,), SINGULAR_A, 1)],
        [(0,), (1, 2)],
    )
    assert classify(cfg_b, surface(1)).label == CASE_IIIB


def test_classify_case_iv():
    cfg = cfg_of(
        3, (2, 1, 1),
        [(p, SINGULAR_A, 1) for p in singletons(3)],
        [(0, 1), (2,)],
    )
    out = classify(cfg, surface(1))
    assert out.label == CASE_IV
    assert out.heavy_b == 0 and out.heavy_a is None


def test_classify_intermediate_cases_on_type_three():
    cfg_a = cfg_of(
        3, (1, 1, 1, 1),
        [((0, 1, 2), INTERMEDIATE_A, 2), ((3,), SINGULAR_A, 1)],
        singletons(4),
    )
    assert classify(cfg_a, surface(3)).label == SING_M_A
    cfg_b = cfg_of(
        3, (2, 1, 1),
        [((0, 1), INTERMEDIATE_A, 2), ((2,), SINGULAR_A, 1)],
        [(0,), (1, 2)],
    )
    assert classify(cfg_b, surface(3)).label == SING_M_B
    with pytest.raises(ValueError):
        classify(cfg_a, surface(1))  # type 1 has no intermediate fibres


def test_even_types_never_get_b_variants():
    for tid in (2, 4, 6):
        s = surface(tid)
        for k in (2, 3):
            labels = {classify(cfg, s).label for cfg in enumerate_configurations(k, s)}
            assert labels <= {R1, CASE_I, CASE_IIA, CASE_IIIA, SING_M_A}


def test_classification_total_on_enumeration():
    for tid in (1, 2, 3, 7):
        s = surface(tid)
        for k in (2, 3, 4):
            for cfg in enumerate_configurations(k, s):
                out = classify(cfg, s)
                assert out.label in (
                    R1, CASE_I, CASE_IIA, CASE_IIB, CASE_IIIA, CASE_IIIB,
                    CASE_IV, SING_M_A, SING_M_B,
                )


def test_classify_matches_the_threshold_oracle():
    for s in catalog():
        for k in range(2, 7):
            for cfg in enumerate_configurations(k, s):
                out = classify(cfg, s)
                got = (out.label, out.heavy_a, out.heavy_b, out.shared_point)
                assert got == threshold_classification(cfg, s), (s.type_id, cfg)


def test_label_coverage_type_one_k3():
    labels = {
        classify(cfg, surface(1)).label
        for cfg in enumerate_configurations(3, surface(1))
    }
    assert labels == {R1, CASE_I, CASE_IIA, CASE_IIB, CASE_IIIA, CASE_IIIB, CASE_IV}


def test_label_coverage_intermediate_types():
    labels3 = {
        classify(cfg, surface(3)).label
        for cfg in enumerate_configurations(3, surface(3))
    }
    assert SING_M_A in labels3 and SING_M_B in labels3
    labels4 = {
        classify(cfg, surface(4)).label
        for cfg in enumerate_configurations(3, surface(4))
    }
    assert SING_M_A in labels4 and SING_M_B not in labels4


def test_rejects_low_k():
    cfg = cfg_of(1, (1, 1), [(p, SINGULAR_A, 1) for p in singletons(2)],
                 singletons(2))
    with pytest.raises(ValueError, match="externally"):
        classify(cfg, surface(1))
    with pytest.raises(ValueError):
        list(enumerate_configurations(1, surface(1)))


def test_validation_errors():
    with pytest.raises(ValueError, match="sum"):
        cfg_of(2, (2, 2), [(p, SINGULAR_A, 1) for p in singletons(2)],
               singletons(2)).validate()
    with pytest.raises(ValueError, match="share at most one"):
        cfg_of(2, (2, 1), [((0, 1), SINGULAR_A, 1)], [(0, 1)]).validate()
    with pytest.raises(ValueError, match="share at most one"):
        # the doubly shared pair is A-block 1 with B-block 2
        cfg_of(3, (1, 1, 1, 1),
               [((0,), SINGULAR_A, 1), ((1, 2), SINGULAR_A, 1), ((3,), SINGULAR_A, 1)],
               [(0,), (3,), (1, 2)]).validate()
    with pytest.raises(ValueError, match="non-increasing"):
        cfg_of(2, (1, 2), [(p, SINGULAR_A, 1) for p in singletons(2)],
               singletons(2)).validate()
    with pytest.raises(ValueError, match="cover"):
        cfg_of(2, (2, 1), [((0,), SINGULAR_A, 1)], singletons(2)).validate()
    with pytest.raises(ValueError, match="twice"):
        cfg_of(2, (2, 1), [((0, 0, 1), SINGULAR_A, 1)], singletons(2)).validate()
    with pytest.raises(ValueError, match="share at most one"):
        # validate checks only the structure, whatever the blocks' kinds
        cfg_of(2, (2, 1), [((0, 1), "smooth-A", 1)], [(0, 1)]).validate()
    with pytest.raises(ValueError, match="type 1 has no smooth-A fibre"):
        classify(cfg_of(2, (2, 1), [((0, 1), "smooth-A", 1)], singletons(2)), surface(1))


# The (kind, coefficient) pairs each type's A-blocks may carry, written out
# from the singular multiplicities: (1,0), m*(A/mu) for 1 < m <= mu/2, (mu,0).
A_FIBRES_BY_HAND = {
    1: {(SINGULAR_A, 1), (FULL_A, 2)},
    2: {(SINGULAR_A, 1), (FULL_A, 2)},
    3: {(SINGULAR_A, 1), (INTERMEDIATE_A, 2), (FULL_A, 4)},
    4: {(SINGULAR_A, 1), (INTERMEDIATE_A, 2), (FULL_A, 4)},
    5: {(SINGULAR_A, 1), (FULL_A, 3)},
    6: {(SINGULAR_A, 1), (FULL_A, 3)},
    7: {(SINGULAR_A, 1), (INTERMEDIATE_A, 2), (INTERMEDIATE_A, 3), (FULL_A, 6)},
}


@pytest.mark.parametrize("tid", range(1, 8))
def test_classify_accepts_exactly_the_types_a_fibres(tid):
    # k=2, weights (2,1), one A-block holding both points
    candidates = [(SINGULAR_A, 1), (SINGULAR_A, 2), ("smooth-A", 1)]
    candidates += [(INTERMEDIATE_A, m) for m in (1, 2, 3)]
    candidates += [(FULL_A, m) for m in range(2, 7)]
    accepted = set()
    for kind, coeff in candidates:
        cfg = cfg_of(2, (2, 1), [((0, 1), kind, coeff)], singletons(2))
        try:
            classify(cfg, surface(tid))
        except ValueError:
            continue
        accepted.add((kind, coeff))
    assert accepted == A_FIBRES_BY_HAND[tid]


def test_invalid_configuration_raises_on_every_validation():
    # the block checks are memoized per structure; their rejections are not
    for cfg, message in (
        (cfg_of(2, (2, 1), [((0, 1), SINGULAR_A, 1)], [(0, 1)]), "share at most one"),
        (cfg_of(2, (2, 1), [((0,), SINGULAR_A, 1)], singletons(2)), "cover"),
    ):
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                cfg.validate()


def test_heavy_kind_options_per_type():
    # k=2, weights (2,1) on one shared A-block: the heavy block ranges over
    # the type's fibre kinds
    def kinds(tid):
        out = set()
        for cfg in enumerate_configurations(2, surface(tid)):
            for ab in cfg.a_blocks:
                if sum(cfg.weights[p] for p in ab.points) > Fraction(3, 2):
                    out.add((ab.kind, ab.fibre_coeff))
        return out

    assert kinds(1) == {(SINGULAR_A, 1), (FULL_A, 2)}
    assert kinds(3) == {(SINGULAR_A, 1), (INTERMEDIATE_A, 2), (FULL_A, 4)}
    assert kinds(7) == {(SINGULAR_A, 1), (INTERMEDIATE_A, 2), (INTERMEDIATE_A, 3),
                        (FULL_A, 6)}


def test_r_max_cap():
    cfgs = list(enumerate_configurations(4, surface(1), part=slice(0, skeleton_count(4, 2))))
    assert {c.r for c in cfgs} == {1, 2}
    # the removed r_max is not silently read as a part
    with pytest.raises(TypeError):
        enumerate_configurations(4, surface(1), 2)


@st.composite
def weighted_incidence_matrices(draw):
    """At most 5x5; each cell is empty (0) or holds one point of weight 1..3."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    row = st.lists(st.integers(0, 3), min_size=cols, max_size=cols)
    return draw(st.lists(row, min_size=rows, max_size=rows))


@given(weighted_incidence_matrices())
def test_normal_form_ignores_row_order(matrix):
    # `incidence_structures` normalises only one matrix per multiset of rows
    expected = _normal_form([list(row) for row in matrix])
    for perm in set(permutations(map(tuple, matrix))):
        assert _normal_form([list(row) for row in perm]) == expected


# sha256 of each k's skeleton table, every entry as [configuration JSON,
# heavy A-row (None for the single point)], encoded by json.dumps with sorted keys
SKELETON_DIGESTS = {
    2: (11, "3b418e191385f032642f73bb3cfdd70cbb544e23b2e7598c0b47120e9a86710c"),
    3: (36, "1d1799bee055caccf7b319167ac03fb74b5d6707cc041567c2e842b7a7c8bb0a"),
    4: (106, "d4c8ebc2bd60451ad370c573a037338cde743d01005641f3ca312b594df55b81"),
    5: (348, "f103d0a5acfe4bb30911deb55f3e8a4e359ff5d055d9c2a354a37b334e0cf761"),
    6: (1103, "3afedc140e139ea7fc646f28d417e04561acca4120a5c34f8db3939119f6115c"),
    7: (3696, "127ecbd5649f291d2a3d4fd3288a85ab0775bcdb94102052c24377879747aea8"),
}


@pytest.mark.parametrize("k", sorted(SKELETON_DIGESTS))
def test_skeleton_tables_are_pinned(k):
    """The labelled skeleton tables, order and heavy rows included, do not change
    when the way they are built does.  Each heavy row is read from the entry's
    core; the single point's block is heavy, but it has no heavy-kind variants."""
    configs, cores = _skeletons(k)
    heavy = [None if c.r == 1 else core.heavy_a for c, core in zip(configs, cores)]
    text = json.dumps([[c.to_json(), h] for c, h in zip(configs, heavy)], sort_keys=True)
    assert (len(configs), hashlib.sha256(text.encode()).hexdigest()) == SKELETON_DIGESTS[k]
