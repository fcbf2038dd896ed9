import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hyperjet import cli, nonfibre
from hyperjet.configurations import (
    ABlock,
    CASE_I,
    CASE_IIB,
    CASE_IV,
    JetConfiguration,
    classify,
    weight_partitions,
)
from hyperjet.engine import (
    KAWAMATA_VIEHWEG,
    NORIMATSU,
    certify_r1,
    default_base,
    externally_certified_k1,
    iter_certificates,
    verify,
)
from hyperjet.lattice import BlowupClass, DivisorClass, blowup_intersect
from hyperjet.surfaces import FULL_A, SINGULAR_A, surface
from oracle_helpers import (
    blowup_add,
    build_correction,
    build_twist,
    certify_fibres,
    certify_square,
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


def test_build_twist_examples():
    assert build_twist(2, (1, 1, 1)) == BlowupClass(DivisorClass(4, 4), (2, 2, 2))
    assert build_twist(2, (3,)) == BlowupClass(DivisorClass(4, 4), (4,))
    assert build_twist(4, (2, 2, 1)) == BlowupClass(DivisorClass(6, 6), (3, 3, 2))


def test_build_correction_case_iia_example():
    # k=2, weights (2,1), the weight-2 point alone on the heavy singular fibre
    # would put its B-fibre at the non-strict threshold, so force the pure
    # IIa shape with unit weights instead and check the documented instance
    # through a hand-built classification on weights (2,1).
    cfg = cfg_of(2, (2, 1), [((0,), SINGULAR_A, 1), ((1,), SINGULAR_A, 1)],
                 singletons(2))
    from hyperjet.configurations import Classification, CASE_IIA

    cls = Classification(CASE_IIA, heavy_a=0)
    f, n = build_correction(cfg, cls, surface(1), build_twist(cfg.k, cfg.weights))
    assert n == BlowupClass(DivisorClass(3, 4), (2, 2))
    assert blowup_add(f, n) == build_twist(2, (2, 1))


def test_build_correction_case_iv_example():
    cfg = cfg_of(2, (2, 1), [((0,), SINGULAR_A, 1), ((1,), SINGULAR_A, 1)],
                 [(0,), (1,)])
    from hyperjet.configurations import Classification

    cls = Classification(CASE_IV, heavy_b=0)
    f, n = build_correction(cfg, cls, surface(1), build_twist(cfg.k, cfg.weights))
    assert n == BlowupClass(DivisorClass(4, 3), (2, 2))
    assert blowup_add(f, n) == build_twist(2, (2, 1))


def test_build_correction_case_iib_shared_point_gains_one():
    cfg = cfg_of(
        3, (2, 1, 1), [((0, 1), SINGULAR_A, 1), ((2,), SINGULAR_A, 1)],
        [(0,), (1, 2)],
    )
    out = classify(cfg, surface(1))
    assert out.label == CASE_IIB
    m = build_twist(3, cfg.weights, default_base(3))
    f, n = build_correction(cfg, out, surface(1), m)
    assert blowup_add(f, n) == build_twist(3, (2, 1, 1))
    # the shared point's residual coefficient drops to k_p - 1
    assert n.exc[out.shared_point] == cfg.weights[out.shared_point] - 1


def test_build_correction_subtracts_from_the_given_twist():
    cfg = cfg_of(
        3, (2, 1, 1), [((0, 1), SINGULAR_A, 1), ((2,), SINGULAR_A, 1)],
        [(0,), (1, 2)],
    )
    out = classify(cfg, surface(1))
    m = build_twist(3, cfg.weights, DivisorClass(7, 6))
    f, n = build_correction(cfg, out, surface(1), m)
    assert blowup_add(f, n) == m


def test_build_correction_is_none_for_uncorrected_cases():
    cfg = cfg_of(2, (1, 1, 1), [(p, SINGULAR_A, 1) for p in singletons(3)],
                 singletons(3))
    out = classify(cfg, surface(1))
    assert out.label == CASE_I
    assert build_correction(
        cfg, out, surface(1), build_twist(cfg.k, cfg.weights)
    ) == (None, None)


@pytest.mark.parametrize("k", range(0, 9))
def test_certify_r1_exact_values(k):
    cert = certify_r1(k, surface(1))
    assert cert.passed
    nef, big = cert.checks
    assert nef.kind == "nef-threshold"
    assert nef.value == 0  # available min(a,b) = k+2 meets the threshold exactly
    assert big.value == 2 * (k + 2) ** 2 - (k + 2) ** 2 == (k + 2) ** 2
    assert cert.vanishing_theorem == KAWAMATA_VIEHWEG
    assert cert.seshadri_axiom["bound"] == 1


def test_certify_r1_smallest_instance():
    cert = certify_r1(0, surface(5))
    big = cert.checks[1]
    assert big.value == 8 - 4
    assert cert.passed


@pytest.mark.parametrize("base", [None, DivisorClass(5, 6)])
def test_certify_r1_is_verify_of_the_single_point(base):
    for type_id in (1, 6):
        s = surface(type_id)
        for k in range(0, 4):
            single = cfg_of(k, (k + 1,), [((0,), SINGULAR_A, 1)], [(0,)])
            assert certify_r1(k, s, base) == verify(single, s, base), (type_id, k)


def test_certify_r1_rejects_negative_k():
    with pytest.raises(ValueError, match="k must be non-negative"):
        certify_r1(-1, surface(1))


def test_certify_square_instances():
    m = build_twist(2, (1, 1, 1))
    rec = certify_square(m, True, "M")
    assert rec.value == 20 and rec.passed
    n = BlowupClass(DivisorClass(3, 4), (2, 2))
    rec = certify_square(n, True, "N")
    assert rec.value == 16 and rec.passed


@pytest.mark.parametrize("k", range(2, 9))
def test_square_never_degenerates(k):
    # sum (k_i+1)^2 < 2(k+2)^2 for every weight partition of k+1
    for weights in weight_partitions(k + 1):
        assert sum((w + 1) ** 2 for w in weights) < 2 * (k + 2) ** 2


def test_fibre_chain_case_i_instance():
    # k=3, two weight-1 points sharing a singular fibre: M.C~ = 5 - 4 = 1
    cfg = cfg_of(
        3, (1, 1, 1, 1),
        [((0, 1), SINGULAR_A, 1), ((2,), SINGULAR_A, 1), ((3,), SINGULAR_A, 1)],
        singletons(4),
    )
    out = classify(cfg, surface(1))
    assert out.label == CASE_I
    m = build_twist(3, cfg.weights)
    checks = certify_fibres(m, cfg, surface(1), strict=False, what="M")
    through_pair = [c for c in checks if c.block == (0, 1) and c.curve == (1, 0)]
    assert through_pair[0].value == 1 and through_pair[0].passed


def test_fibre_chain_case_iia_heavy_block():
    cfg = cfg_of(
        2, (1, 1, 1), [((0, 1), SINGULAR_A, 1), ((2,), SINGULAR_A, 1)],
        singletons(3),
    )
    out = classify(cfg, surface(1))
    f, n = build_correction(cfg, out, surface(1), build_twist(cfg.k, cfg.weights))
    checks = certify_fibres(n, cfg, surface(1), strict=True, what="N")
    heavy = [c for c in checks if c.block == (0, 1)][0]
    # k+2 - sum of heavy-block weights = 4 - 2 = 2 > 0
    assert heavy.value == 2 and heavy.passed


def test_fibre_chain_case_iib_heavy_blocks():
    # k=3, weights (2,1,1); heavy singular block {0,1}; the classifier picks
    # the singleton fibre of the weight-2 point as the heavy B-block
    cfg = cfg_of(
        3, (2, 1, 1), [((0, 1), SINGULAR_A, 1), ((2,), SINGULAR_A, 1)],
        [(0,), (1, 2)],
    )
    out = classify(cfg, surface(1))
    assert out.label == CASE_IIB and out.shared_point == 0
    _, n = build_correction(cfg, out, surface(1), build_twist(cfg.k, cfg.weights))
    checks = certify_fibres(n, cfg, surface(1), strict=True, what="N")
    heavy_a = [c for c in checks if c.block == (0, 1)][0]
    # closed form: (k+2) - sum of heavy-block weights = 5 - 3 = 2
    assert heavy_a.value == 2 and heavy_a.passed
    heavy_b = [c for c in checks if c.block == tuple(cfg.b_blocks[out.heavy_b])][0]
    # closed form: (k+2) - weight on the heavy B-fibre = 5 - 2 = 3
    assert heavy_b.value == 3 and heavy_b.passed


def test_fibre_chain_case_iiia_heavy_full_fibre():
    from hyperjet.configurations import CASE_IIIA

    cfg = cfg_of(
        3, (1, 1, 1, 1),
        [((0, 1, 2), FULL_A, 2), ((3,), SINGULAR_A, 1)],
        singletons(4),
    )
    out = classify(cfg, surface(1))
    assert out.label == CASE_IIIA
    m = build_twist(3, cfg.weights)
    checks = certify_fibres(m, cfg, surface(1), strict=False, what="M")
    heavy = [c for c in checks if c.block == (0, 1, 2)][0]
    # closed form: 2(k+2) - sum (k_i+1) over the block = 10 - 6 = 4 (> 2)
    assert heavy.value == 4 and heavy.passed


def test_fibre_chain_case_iiib_heavy_b_fibre():
    from hyperjet.configurations import CASE_IIIB
    from hyperjet.surfaces import FULL_A

    cfg = cfg_of(
        3, (2, 1, 1), [((0, 1), FULL_A, 2), ((2,), SINGULAR_A, 1)],
        [(0,), (1, 2)],
    )
    out = classify(cfg, surface(1))
    assert out.label == CASE_IIIB
    _, n = build_correction(cfg, out, surface(1), build_twist(cfg.k, cfg.weights))
    checks = certify_fibres(n, cfg, surface(1), strict=True, what="N")
    heavy_b = [c for c in checks if c.block == tuple(cfg.b_blocks[out.heavy_b])][0]
    # closed form: (k+2) - weight on the heavy B-fibre
    expected = 5 - sum(cfg.weights[p] for p in cfg.b_blocks[out.heavy_b])
    assert heavy_b.value == expected and heavy_b.passed


def test_fibre_chain_case_iv_boundary_value():
    # k=3, heavy B-block {0,1} (weights 2+1), singular block {1,2} with unit
    # weights at the boundary (k+1)/2: the shared point makes the value exactly 1
    cfg = cfg_of(
        3, (2, 1, 1),
        [((0,), SINGULAR_A, 1), ((1, 2), SINGULAR_A, 1)],
        [(0, 1), (2,)],
    )
    out = classify(cfg, surface(1))
    assert out.label == CASE_IV
    f, n = build_correction(cfg, out, surface(1), build_twist(cfg.k, cfg.weights))
    checks = certify_fibres(n, cfg, surface(1), strict=True, what="N")
    boundary = [c for c in checks if c.block == (1, 2)][0]
    assert boundary.value == 1 and boundary.passed


def test_light_block_checks_dominated_by_minimal_class():
    """Retagging a light block with a larger fibre class only adds slack.

    This is what makes it sound to enumerate light blocks with the minimal
    singular class only: for the same divisor, the check value of a block
    grows with its fibre-class coefficient.
    """
    s = surface(7)
    for k in (2, 3):
        for cert in iter_certificates(s, k):
            if cert.label == "R1":
                continue
            divisor = cert.n_class if cert.n_class is not None else cert.m_class
            for ab in cert.config.a_blocks:
                values = {}
                for coeff in (1, 2, 3, s.mu):
                    mults = tuple(
                        1 if i in set(ab.points) else 0
                        for i in range(cert.config.r)
                    )
                    values[coeff] = blowup_intersect(
                        divisor, BlowupClass(DivisorClass(coeff, 0), mults)
                    )
                assert values[1] <= values[2] <= values[3] <= values[s.mu]


def test_fibre_closed_form_matches_blowup_pairing():
    """Every recorded fibre value and square equals the blow-up pairing it stands for."""
    for type_id in range(1, 8):
        for k in range(2, 5):
            for cert in iter_certificates(surface(type_id), k):
                divisor = cert.n_class if cert.n_class is not None else cert.m_class
                r = cert.config.r
                for check in cert.checks:
                    if check.kind == "square":
                        assert check.value == blowup_intersect(divisor, divisor)
                    if check.kind != "fibre":
                        continue
                    indicator = tuple(int(i in check.block) for i in range(r))
                    transform = BlowupClass(DivisorClass(*check.curve), indicator)
                    assert check.value == blowup_intersect(divisor, transform)


@pytest.mark.parametrize(
    "type_id, ks, base",
    [(t, range(2, 6), None) for t in range(1, 8)]
    + [(t, range(2, 4), DivisorClass(3, 4)) for t in range(1, 8)],
)
def test_certificates_match_the_generic_path(type_id, ks, base):
    """Each certificate equals the one the generic `BlowupClass` path assembles.

    The engine reads the exceptional vectors, block sums, sorted vectors and
    sums of squares from the skeleton's core; the oracle builds M, F and N
    from the configuration and pairs them through `blowup_intersect`.
    """
    s = surface(type_id)
    for k in ks:
        expected_base = default_base(k) if base is None else base
        for cert in iter_certificates(s, k, base):
            cfg = cert.config
            cls = classify(cfg, s)
            m = build_twist(k, cfg.weights, expected_base)
            assert cert.m_class == m
            if cls.label == "R1":
                continue
            f, n = build_correction(cfg, cls, s, m)
            assert (cert.f_class, cert.n_class) == (f, n)
            strict = n is not None
            checked, what = (n, "N") if strict else (m, "M")
            square = certify_square(checked, True, what)
            assert square.value == blowup_intersect(checked, checked)
            checks = (square, *certify_fibres(checked, cfg, s, strict, what))
            assert cert.checks == checks
            corr = (expected_base.a - checked.base.a, expected_base.b - checked.base.b)
            report = nonfibre.analyse(cls.label, tuple(sorted(checked.exc)), corr,
                                      expected_base, k, cls.shared_point is not None)
            assert cert.nonfibre_report is report
            assert report.key.split("|")[1] == ",".join(map(str, sorted(checked.exc)))
            assert cert.vanishing_theorem == (NORIMATSU if strict else KAWAMATA_VIEHWEG)
            assert cert.passed == (all(c.passed for c in checks) and report.passed)


def test_equal_fibre_checks_are_one_record():
    # the first three blocks, (0, 1), (2,) and (3,), are the same in both
    singular = [((0, 1), SINGULAR_A, 1), ((2,), SINGULAR_A, 1), ((3,), SINGULAR_A, 1)]
    a = cfg_of(3, (1, 1, 1, 1), singular, singletons(4))
    b = cfg_of(3, (1, 1, 1, 1), singular, [(0, 2), (1,), (3,)])
    m = build_twist(3, a.weights)
    first = certify_fibres(m, a, surface(1), strict=False, what="M")
    again = certify_fibres(m, b, surface(1), strict=False, what="M")
    for x, y in zip(first[:3], again[:3]):
        assert x == y and x is y
    # records that differ only in strictness or in the checked divisor do not
    strict = certify_fibres(m, a, surface(1), strict=True, what="M")
    named = certify_fibres(m, a, surface(1), strict=False, what="N")
    for x, y, z in zip(first, strict, named):
        assert x.value == y.value == z.value
        assert x != y and x is not y and y.strict
        assert x != z and x is not z and z.divisor == "N"


def test_verify_pipeline_type1_k2_all_pass():
    for cert in iter_certificates(surface(1), 2):
        assert cert.passed, cert.to_json()
        if cert.f_class is not None:
            assert blowup_add(cert.n_class, cert.f_class) == cert.m_class
        nef = cert.label in ("R1", "I", "IIIa", "SingM-a")
        tag = KAWAMATA_VIEHWEG if nef else NORIMATSU
        assert cert.vanishing_theorem == tag


def test_verify_even_type_has_no_b_variant_labels():
    labels = {cert.label for cert in iter_certificates(surface(2), 3)}
    assert labels.isdisjoint({"IIb", "IIIb", "SingM-b"})


def test_negative_control_finds_failure():
    failures = [
        cert
        for cert in iter_certificates(surface(1), 2, DivisorClass(3, 4))
        if not cert.passed
    ]
    assert failures
    witnessed = False
    for cert in failures:
        witnessed = witnessed or any(not c.passed for c in cert.checks)
        if cert.nonfibre_report and not cert.nonfibre_report.passed:
            witnessed = True
    assert witnessed


def test_externally_certified_k1():
    record = externally_certified_k1(surface(4))
    assert record["k"] == 1
    assert record["status"] == "externally-certified"


def test_verify_r1_any_k():
    cases = (
        (JetConfiguration(0, (1,), (ABlock((0,), SINGULAR_A, 1),), ((0,),)), 6),
        # a single point on a full fibre (coefficient mu = 4 on type 3)
        (JetConfiguration(2, (3,), (ABlock((0,), FULL_A, 4),), ((0,),)), 3),
    )
    for cfg, type_id in cases:
        cert = verify(cfg, surface(type_id))
        assert cert.label == "R1" and cert.passed
        assert cert.config == cfg


def test_certificate_json_shape():
    cert = next(iter_certificates(surface(3), 2))
    obj = cert.to_json()
    assert obj["surface_type"] == 3
    assert obj["vanishing_theorem"] in (KAWAMATA_VIEHWEG, NORIMATSU)
    assert isinstance(obj["checks"], list) and obj["checks"]
    assert obj["pass"] is True


def test_equal_square_checks_are_one_record():
    # two incidence patterns of one weight vector: the same M, so the same M^2
    singular = [((0, 1), SINGULAR_A, 1), ((2,), SINGULAR_A, 1), ((3,), SINGULAR_A, 1)]
    a = cfg_of(3, (1, 1, 1, 1), singular, singletons(4))
    b = cfg_of(3, (1, 1, 1, 1), singular, [(0, 2), (1,), (3,)])
    first, again = verify(a, surface(1)), verify(b, surface(1))
    assert first.checks[0].kind == again.checks[0].kind == "square"
    assert first.checks[0] is again.checks[0]
    m = build_twist(3, a.weights)
    assert certify_square(m, True, "M") is certify_square(build_twist(3, b.weights), True, "M")
    # records that differ only in strictness or in the checked divisor do not
    assert certify_square(m, False, "M") is not certify_square(m, True, "M")
    assert certify_square(m, True, "N") is not certify_square(m, True, "M")


CORE_PROBE = """
import contextlib, io, json
from hyperjet import cli, configurations, engine
from hyperjet.surfaces import surface

# the caches engine defines, not those it imports (`configurations._interned`)
caches = {name: f for name, f in vars(engine).items()
          if hasattr(f, "cache_info") and f.__module__ == engine.__name__}
sweep = ["verify", "--types", "all", "--k", "2..5"]
runs = []
for _ in range(2):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(sweep) == 0
    infos = {"memo": configurations._structure.cache_info()}
    infos.update((name, f.cache_info()) for name, f in caches.items())
    runs.append({name: [info.misses, info.currsize] for name, info in infos.items()})
held = {"_fibre_record": set(), "_square_record": set(), "_blowup": set()}
for t in range(1, 8):
    for k in range(2, 6):
        for cert in engine.iter_certificates(surface(t), k):
            for check in cert.checks:
                if check.kind in ("fibre", "square"):
                    held["_" + check.kind + "_record"].add(id(check))
            held["_blowup"].update(map(id, (cert.m_class, cert.f_class, cert.n_class)))
held["_blowup"].discard(id(None))
skeletons = sum(configurations.skeleton_count(k, k + 1) for k in range(2, 6))
print(json.dumps({"runs": runs, "held": {n: len(v) for n, v in held.items()},
                  "skeletons": skeletons}))
"""


def test_one_core_per_skeleton():
    """A serial sweep keeps one structure-memo entry, its core, per skeleton-table entry.

    Run in a fresh interpreter, so the caches hold only this sweep.  A second
    sweep of the same scope misses no cache.  The engine's caches intern the
    checks and classes the certificates hold, one entry per distinct value,
    and none but the fibre checks' has more entries than the memo: at k 2..5
    the certificates hold 1,129 distinct fibre checks, against 501 skeletons.
    """
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run([sys.executable, "-c", CORE_PROBE], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src}, check=True)
    got = json.loads(out.stdout)
    first, second = got["runs"]
    assert got["skeletons"] == 11 + 36 + 106 + 348
    assert first["memo"] == [got["skeletons"], got["skeletons"]]
    assert second == first
    for name, held in got["held"].items():
        assert first[name][1] == held, name
    for name, (_, size) in first.items():
        if name not in ("memo", "_fibre_record"):
            assert size <= first["memo"][1], name


HITS_PROBE = """
import contextlib, io, json
from hyperjet import cli, configurations
out = io.StringIO()
with contextlib.redirect_stdout(out):
    assert cli.main(["verify", "--types", "all", "--k", "2..5", "--format", "json"]) == 0
info = configurations._structure.cache_info()
print(json.dumps({"hits": info.hits, "certificates": json.loads(out.getvalue())["total"]}))
"""


def test_one_structure_lookup_per_certificate():
    """A serial sweep looks each certificate's structure up in the memo at most once.

    Run in a fresh interpreter, so the memo's hits are this sweep's: building
    the skeleton tables only misses, and `classify` hands the core it read to
    the rest of `verify`.
    """
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run([sys.executable, "-c", HITS_PROBE], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src}, check=True)
    got = json.loads(out.stdout)
    assert got["certificates"] == 5201
    assert 0 < got["hits"] <= got["certificates"]


def assert_verdicts(cert):
    """Each record's stored verdict and the certificate's agree with the values."""
    for check in cert.checks:
        assert check.passed == (check.value > 0 if check.strict else check.value >= 0)
        assert check.to_json()["pass"] is check.passed
    report = cert.nonfibre_report
    assert cert.passed == (all(c.passed for c in cert.checks)
                           and (report is None or report.passed))
    assert cert.to_json()["pass"] is cert.passed


def test_stored_verdicts_match_the_values():
    """Records decide their verdict once, when interned; so does a certificate.

    Every record a k 2..5 sweep holds, and every certificate of the negative
    control `--class 3,4 --k 2`, whose deficient base fails checks by design.
    """
    for type_id in range(1, 8):
        for k in range(2, 6):
            for cert in iter_certificates(surface(type_id), k):
                assert_verdicts(cert)
    control = cli.build_run_config(["negative-control", "--class", "3,4", "--k", "2"])
    certs = [cert for task in cli._tasks(control, False)
             for cert in iter_certificates(task.surface, task.k, task.base, task.part)]
    for cert in certs:
        assert_verdicts(cert)
    assert certs and not any(cert.passed for cert in certs)
    verdicts = {c.passed for cert in certs for c in cert.checks}
    assert verdicts == {False, True}
