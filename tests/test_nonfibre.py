from functools import lru_cache

import pytest

from hyperjet import lp, nonfibre
from hyperjet.configurations import (
    ABlock,
    CASE_I,
    JetConfiguration,
    _skeletons,
    classify,
)
from hyperjet.engine import (
    default_base,
    iter_certificates,
    verify,
)
from hyperjet.lattice import BlowupClass, DivisorClass
from hyperjet.surfaces import SINGULAR_A, surface
from oracle_helpers import (
    CurveCandidate,
    build_correction,
    build_twist,
    check_bounded,
    knapsack_from_scratch,
    naive_bounded_checks,
    point_offsets,
    target_inequality,
)


def cfg_of(k, weights, a_specs, b_blocks):
    return JetConfiguration(
        k,
        tuple(weights),
        tuple(ABlock(tuple(p), kind, coeff) for p, kind, coeff in a_specs),
        tuple(tuple(b) for b in b_blocks),
    )


def singletons(r):
    return [(i,) for i in range(r)]


CASE_I_CFG = cfg_of(2, (1, 1, 1), [(p, SINGULAR_A, 1) for p in singletons(3)],
                    singletons(3))
CASE_IIA_CFG = cfg_of(
    2, (1, 1, 1), [((0, 1), SINGULAR_A, 1), ((2,), SINGULAR_A, 1)], singletons(3)
)
CASE_IIB_CFG = cfg_of(
    3, (2, 1, 1), [((0, 1), SINGULAR_A, 1), ((2,), SINGULAR_A, 1)],
    [(0,), (1, 2)],
)
CASE_IV_CFG = cfg_of(
    3, (2, 1, 1), [(p, SINGULAR_A, 1) for p in singletons(3)], [(0, 1), (2,)]
)


def test_target_case_i_example():
    s = surface(1)
    out = classify(CASE_I_CFG, s)
    cand = CurveCandidate(DivisorClass(1, 1), (1, 1, 1))
    # (sum k_i + 1)(alpha+beta) - sum (k_i+1) m_i = 4*2 - 2*3 = 2
    assert target_inequality(CASE_I_CFG, out, cand, s, default_base(2)) == 2


def test_target_rejects_fibre_like_candidates():
    s = surface(1)
    out = classify(CASE_I_CFG, s)
    with pytest.raises(ValueError):
        target_inequality(
            CASE_I_CFG, out, CurveCandidate(DivisorClass(1, 0), (1, 1, 1)), s,
            default_base(2),
        )


def test_target_matches_engine_divisor():
    """Closed-form target equals pairing with the engine-built M or N."""
    s = surface(1)
    for cfg in (CASE_I_CFG, CASE_IIA_CFG, CASE_IIB_CFG, CASE_IV_CFG):
        out = classify(cfg, s)
        base = default_base(cfg.k)
        divisor = build_twist(cfg.k, cfg.weights, base)
        if out.label != CASE_I:
            _, divisor = build_correction(cfg, out, s, divisor)
        offsets, corr = point_offsets(cfg, out, s)
        rebuilt = BlowupClass(
            base - corr, tuple(k + c for k, c in zip(cfg.weights, offsets))
        )
        assert rebuilt == divisor
        for mults in ((1, 0, 0), (2, 1, 0), (1, 1, 1), (3, 1, 1)):
            cand = CurveCandidate(DivisorClass(2, 2), mults)
            value = target_inequality(cfg, out, cand, s, base)
            from hyperjet.lattice import blowup_intersect

            assert value == blowup_intersect(
                divisor, BlowupClass(cand.cls, mults)
            )


@pytest.mark.parametrize("cfg", [CASE_I_CFG, CASE_IIA_CFG, CASE_IIB_CFG, CASE_IV_CFG])
def test_check_bounded_matches_naive_oracle(cfg):
    s = surface(1)
    out = classify(cfg, s)
    base = default_base(cfg.k)
    divisor = build_twist(cfg.k, cfg.weights, base)
    strict = out.label != CASE_I
    if strict:
        _, divisor = build_correction(cfg, out, s, divisor)
    expected = naive_bounded_checks(cfg, divisor, strict)
    got = {
        (c.alpha, c.beta, c.mults, c.value, c.passed)
        for c in check_bounded(cfg, out, s, base, cap=6)
    }
    assert got == expected


def test_bounded_cells_agree_with_full_enumeration():
    s = surface(1)
    for cfg in (CASE_I_CFG, CASE_IIA_CFG, CASE_IIB_CFG, CASE_IV_CFG):
        out = classify(cfg, s)
        base = default_base(cfg.k)
        full = check_bounded(cfg, out, s, base)
        report = verify(cfg, s, base).nonfibre_report
        by_cell = {}
        for chk in full:
            key = (chk.alpha, chk.beta)
            by_cell[key] = min(by_cell.get(key, chk.value), chk.value)
        assert len(report.bounded) == 16
        for cell in report.bounded:
            assert cell.min_value == by_cell[(cell.alpha, cell.beta)]


def test_bounded_cross_check_rejects_a_witness_short_of_its_maximum(monkeypatch):
    coefs, corr, base = (2, 3, 3), DivisorClass(0, 0), default_base(2)
    expected = nonfibre.bounded_cells(coefs, corr, base, False)
    # fresh memos, so the knapsack runs again; monkeypatch restores the shared ones
    for name in ("_assignment_maxima", "bounded_cells"):
        fresh = lru_cache(maxsize=None)(getattr(nonfibre, name).__wrapped__)
        monkeypatch.setattr(nonfibre, name, fresh)
    assert nonfibre.bounded_cells(coefs, corr, base, False) == expected
    nonfibre.bounded_cells.cache_clear()
    nonfibre._assignment_maxima.cache_clear()
    knapsack = nonfibre._knapsack

    def one_short(coefs):
        # every witness now falls one short of the maximum reported beside it
        maxima, witnesses = knapsack(coefs)
        return tuple(m + 1 for m in maxima), witnesses

    monkeypatch.setattr(nonfibre, "_knapsack", one_short)
    with pytest.raises(AssertionError, match="^extremal bounded check failed cross-check$"):
        nonfibre.bounded_cells(coefs, corr, base, False)


def test_prefix_shared_knapsack_matches_a_from_scratch_dp():
    """Every coefficient vector a k 2..6 sweep can hand the report: M's and
    each N's sorted exceptional vector, over the skeletons' cores."""
    vectors = set()
    for k in range(2, 7):
        for cfg in _skeletons(k)[0]:
            core = cfg.validate()
            vectors.update(res.coefs for res in (core, core.n_a, core.n_b, core.n_ab) if res)
    assert len(vectors) >= 101  # the distinct vectors the sweep's reports read
    for coefs in sorted(vectors):
        maxima, witnesses = nonfibre._knapsack(coefs)
        assert (maxima, witnesses) == knapsack_from_scratch(coefs), coefs
        for budget, witness in enumerate(witnesses):
            assert sum(m * (m - 1) for m in witness) <= budget
            assert sum(c * m for c, m in zip(coefs, witness)) == maxima[budget]


def test_bounded_reproduces_table_row_x():
    # class (1,1) admits the assignment (2,1); all its checks pass for k >= 2
    s = surface(1)
    out = classify(CASE_IIB_CFG, s)
    checks = check_bounded(CASE_IIB_CFG, out, s, default_base(3))
    row_x = [c for c in checks if (c.alpha, c.beta) == (1, 1) and sorted(c.mults, reverse=True)[:2] == [2, 1]]
    assert row_x and all(c.passed for c in row_x)


def test_bounded_reproduces_table_row_i():
    # class (4,4) pairs (6,2) and (5,4) appear among the checked assignments
    s = surface(1)
    out = classify(CASE_IIA_CFG, s)
    checks = check_bounded(CASE_IIA_CFG, out, s, default_base(2))
    shapes = {
        tuple(sorted((m for m in c.mults if m), reverse=True))
        for c in checks
        if (c.alpha, c.beta) == (4, 4)
    }
    assert (6, 2) in shapes and (5, 4) in shapes and (6, 3) not in shapes
    assert all(c.passed for c in checks)


def test_battery_implications_all_valid_with_witnesses():
    battery = nonfibre.implication_battery()
    expected = {
        "drop-rule", "point-bound", "single-survivor", "pair-symmetric",
        "pair-with-helper", "triple-restore", "single-survivor-strict",
        "pair-strict", "shared-point-strict",
    }
    assert set(battery) == expected
    for fact in battery.values():
        assert fact.passed
        if fact.system is not None and fact.status == lp.VALID:
            res = lp.entails(fact.system)
            assert res.status == lp.VALID
            assert lp.verify_witness(fact.system, res.witness)


def test_survivor_chain_fact():
    fact = nonfibre.survivor_chain_fact()
    assert fact.passed
    assert fact.witness_json["p(3)"] == 12


def test_interpolation_facts(monkeypatch):
    facts = {f.name: f for f in nonfibre.interpolation_facts()}
    assert facts["interp-single"].witness_json == {"h0": 16, "conditions": 15}
    assert facts["interp-pair"].witness_json == {"h0": 16, "conditions": 13}
    assert facts["interp-triple"].witness_json == {"h0": 16, "conditions": 15}
    assert all(f.passed for f in facts.values())
    # h0 is computed from the auxiliary class, not recorded as a literal
    monkeypatch.setattr(nonfibre, "AUX_CLASS", DivisorClass(5, 5))
    facts = {f.name: f for f in nonfibre.interpolation_facts()}
    assert facts["interp-single"].witness_json == {"h0": 25, "conditions": 15}


# Each label's unbounded regime, from the paper's case list: the battery facts
# it uses, the premises beyond the regime split and base margin, and the
# survivor patterns of its branches.
_NEF = (
    ("drop-rule", "point-bound", "single-survivor", "pair-symmetric"),
    (),
    ("0 large points", "1 large point", "2 large points", "3+ large points"),
)
_AMPLE_FACTS = ("drop-rule", "point-bound", "pair-with-helper", "triple-restore")
_AMPLE_PATTERNS = (
    "0 large points off the corrected fibre",
    "1 large point off the corrected fibre",
    "2 large points off the corrected fibre",
    "3+ large points",
)
UNBOUNDED_REGIMES = {
    "I": _NEF,
    "IIIa": _NEF,
    "SingM-a": _NEF,
    "IIa": (_AMPLE_FACTS, ("bonus-alpha",), _AMPLE_PATTERNS),
    "IIIb": (_AMPLE_FACTS, ("bonus-beta",), _AMPLE_PATTERNS),
    "IV": (_AMPLE_FACTS, ("bonus-beta",), _AMPLE_PATTERNS),
    "SingM-b": (_AMPLE_FACTS, ("bonus-beta",), _AMPLE_PATTERNS),
    "IIb": (
        ("drop-rule", "point-bound", "single-survivor-strict", "pair-strict",
         "shared-point-strict"),
        ("shared-point-exists",),
        (
            "0 large points off the corrected fibres",
            "1 large point off the corrected fibres",
            "2 large points off the corrected fibres",
            "3+ large points",
        ),
    ),
}


def test_unbounded_report_per_label():
    seen = set()
    for type_id in (1, 3, 7):
        for k in range(2, 5):
            for cert in iter_certificates(surface(type_id), k):
                if cert.nonfibre_report is None:
                    continue
                facts, premises, patterns = UNBOUNDED_REGIMES[cert.label]
                rep = cert.nonfibre_report.unbounded
                assert rep.passed, (type_id, k, cert.label)
                assert tuple(f.name for f in rep.facts) == (
                    *facts, "survivor-chain", "interp-single", "interp-pair",
                    "interp-triple",
                ), cert.label
                assert tuple(p.name for p in rep.premises) == (
                    "regime-split", "base-margin", *premises,
                ), cert.label
                assert tuple(name for name, _ in rep.branches) == patterns, cert.label
                seen.add(cert.label)
    assert seen == set(UNBOUNDED_REGIMES)


def test_unbounded_margin_fails_for_deficient_base():
    rep = nonfibre.check_unbounded((False, False), 2, DivisorClass(3, 4), False)
    assert not rep.passed
    margin = [p for p in rep.premises if p.name == "base-margin"][0]
    assert not margin.passed


def test_regimes_cover_all_candidate_classes():
    # bounded handles max(alpha, beta) <= 4; everything else has
    # max(alpha, beta) >= 5 and hence alpha + beta >= 6
    for alpha in range(1, 40):
        for beta in range(1, 40):
            bounded = max(alpha, beta) <= nonfibre.BOUNDED_MAX
            unbounded = alpha + beta >= nonfibre.UNBOUNDED_MIN_SUM
            assert bounded or unbounded
            if not bounded:
                assert max(alpha, beta) >= 5


def test_reports_are_cached_by_arithmetic_content():
    out = classify(CASE_I_CFG, surface(1))
    m_class = build_twist(2, CASE_I_CFG.weights, default_base(2))
    coefs = tuple(sorted(m_class.exc))
    r1 = nonfibre.analyse(out.label, coefs, (0, 0), default_base(2), 2, False)
    r2 = nonfibre.analyse(out.label, coefs, (0, 0), DivisorClass(4, 4), 2, False)
    assert r1 is r2


def test_iv_and_iiib_share_their_unbounded_half():
    # IV and IIIb both correct the B-fibre only; IIIb has a shared point, IV
    # none, and the unbounded half reads the shared point only when both
    # fibres are corrected
    first = {}
    for cert in iter_certificates(surface(1), 4):
        if cert.label in ("IV", "IIIb"):
            first.setdefault(cert.label, cert.nonfibre_report)
    assert first["IV"].unbounded is first["IIIb"].unbounded


@pytest.mark.parametrize("type_id", range(1, 8))
def test_report_keys_match_oracle_offsets(type_id):
    """Every certificate's report key, rebuilt from the oracle's offsets.

    The engine hands `analyse` the class it checks (M or N); the oracle
    derives the coefficients and the correction from the case label alone.
    """
    s = surface(type_id)
    for k in range(2, 6):
        base = default_base(k)
        for cert in iter_certificates(s, k):
            if cert.nonfibre_report is None:
                continue
            cls = classify(cert.config, s)
            offsets, corr = point_offsets(cert.config, cls, s)
            coefs = sorted(w + c for w, c in zip(cert.config.weights, offsets))
            key = (
                f"{cls.label}|{','.join(map(str, coefs))}|corr{corr.to_pair()}"
                f"|base{base.to_pair()}|k{k}"
            )
            assert cert.nonfibre_report.key == key, cert.config
