"""Output checks for hyperjet runs, written apart from the package.

Nothing here imports ``hyperjet``.  Each check recomputes what a certificate
claims from the configuration it records, using the method's own rules:

* the twist M = pi*L - sum (k_i + 1) E_i, and M = N + F where a correction
  F (the strict transforms of the heavy fibres) is recorded;
* every fibre value with the intersection form a1*b2 + a2*b1 - sum exc*mult,
  and each pass flag against its relation;
* the case label, re-derived with the integer test 2w > k+1;
* every non-fibre report: present before its first use, its bounded cells
  attained by their witnesses, their minima brute-forced on a seeded sample,
  and every Farkas witness of the unbounded regime re-combined;
* the closing summary against a tally of the certificate lines;
* coverage: every configuration orbit, found by a brute-force canonical
  form, has a representative in the bundle.

Every check function returns a list of problems; an empty list means the
output passed.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import permutations, product

# The seven types: (mu, gamma, multiplicities of the singular fibres).
SURFACES = {
    1: (2, 2, (2, 2, 2, 2)),
    2: (2, 4, (2, 2, 2, 2)),
    3: (4, 4, (2, 4, 4)),
    4: (4, 8, (2, 4, 4)),
    5: (3, 3, (3, 3, 3)),
    6: (3, 9, (3, 3, 3)),
    7: (6, 6, (2, 3, 6)),
}
SINGULAR, INTERMEDIATE, FULL = "singular-A", "intermediate-A", "full-A"
NORIMATSU = frozenset({"IIa", "IIb", "IIIb", "IV", "SingM-b"})
LABELS = frozenset({"R1", "I", "IIa", "IIb", "IIIa", "IIIb", "IV", "SingM-a", "SingM-b"})
B_VARIANTS = frozenset({"IIb", "IIIb", "SingM-b"})
BOUNDED_MAX = 4
MAX_ORBIT_K = 5  # the brute-force orbit oracle is affordable up to this k


def intermediate_coeffs(type_id: int) -> tuple[int, ...]:
    """Classes m of the singular fibres m*(A/mu) with 1 < m (types 3, 4, 7)."""
    mu, _, mults = SURFACES[type_id]
    return tuple(sorted({mu // m for m in mults} - {1}))


def b_coeff(type_id: int) -> int:
    mu, gamma, _ = SURFACES[type_id]
    return gamma // mu


def odd_type(type_id: int) -> bool:
    """(0, 1) is effective, so B-fibres can be heavy."""
    mu, gamma, _ = SURFACES[type_id]
    return mu == gamma


# ---------------------------------------------------------------------------
# Classification and the classes it implies
# ---------------------------------------------------------------------------


def a_label(kind: str, with_b: bool) -> str:
    if kind == SINGULAR:
        return "IIb" if with_b else "IIa"
    if kind == INTERMEDIATE:
        return "SingM-b" if with_b else "SingM-a"
    return "IIIb" if with_b else "IIIa"


def classify(type_id: int, k: int, weights, a_blocks, b_blocks):
    """(label, heavy A index, heavy B index, shared point) by 2w > k+1."""
    if len(weights) == 1:
        return "R1", None, None, None

    def weight(points):
        return sum(weights[p] for p in points)

    heavy_a = [i for i, ab in enumerate(a_blocks) if 2 * weight(ab["points"]) > k + 1]
    if len(heavy_a) > 1:
        raise ValueError("two heavy A-blocks")
    if not odd_type(type_id):
        if not heavy_a:
            return "I", None, None, None
        return a_label(a_blocks[heavy_a[0]]["kind"], False), heavy_a[0], None, None
    if not heavy_a:
        heavy_b = [j for j, bb in enumerate(b_blocks) if 2 * weight(bb) > k + 1]
        if heavy_b:
            return "IV", None, heavy_b[0], None
        return "I", None, None, None
    ha = heavy_a[0]
    s_points = set(a_blocks[ha]["points"])
    weak_b = [j for j, bb in enumerate(b_blocks) if 2 * weight(bb) >= k + 1]
    if not weak_b:
        return a_label(a_blocks[ha]["kind"], False), ha, None, None
    sharing = [j for j in weak_b if s_points & set(b_blocks[j])]
    if not sharing:
        raise ValueError("heavy A- and B-blocks do not meet")
    shared = s_points & set(b_blocks[sharing[0]])
    if len(shared) != 1:
        raise ValueError("heavy blocks share more than one point")
    return a_label(a_blocks[ha]["kind"], True), ha, sharing[0], shared.pop()


def correction(type_id, cfg, label, ha, hb):
    """F as (base pair, exc list): the heavy fibres' strict transforms."""
    r = len(cfg["weights"])
    fa = fb = 0
    exc = [0] * r
    if label in ("IIa", "IIb"):
        block = cfg["a_blocks"][ha]
        fa = block["fibre_coeff"]
        for p in block["points"]:
            exc[p] += 1
    if label in ("IIb", "IIIb", "SingM-b", "IV"):
        fb = b_coeff(type_id)
        for p in cfg["b_blocks"][hb]:
            exc[p] += 1
    return (fa, fb), exc


def report_arithmetic(type_id, cfg, label, ha, hb, shared):
    """Sorted point coefficients and the correction class of the non-fibre target."""
    weights = cfg["weights"]
    offsets = [1] * len(weights)
    q = b_coeff(type_id)
    if label in ("I", "IIIa", "SingM-a"):
        corr = (0, 0)
    elif label == "IIa":
        for p in cfg["a_blocks"][ha]["points"]:
            offsets[p] = 0
        corr = (1, 0)
    elif label == "IIb":
        for p in cfg["a_blocks"][ha]["points"]:
            offsets[p] = 0
        for p in cfg["b_blocks"][hb]:
            offsets[p] = 0
        offsets[shared] = -1
        corr = (1, q)
    else:
        for p in cfg["b_blocks"][hb]:
            offsets[p] = 0
        corr = (0, q)
    return tuple(sorted(w + c for w, c in zip(weights, offsets))), corr


def pair(d) -> tuple[int, int]:
    return d["a"], d["b"]


def dot(x: tuple[int, int], y: tuple[int, int]) -> int:
    return x[0] * y[1] + y[0] * x[1]


def square(cls) -> int:
    return dot(pair(cls["base"]), pair(cls["base"])) - sum(e * e for e in cls["exc"])


def passes(value: int, relation: str) -> bool:
    return value > 0 if relation == ">" else value >= 0


# ---------------------------------------------------------------------------
# Non-fibre reports
# ---------------------------------------------------------------------------


def genus_vectors(n: int, budget: int):
    """Every multiplicity vector of length n with sum m(m-1) <= budget."""
    if n == 0:
        yield ()
        return
    m = 0
    while m * (m - 1) <= budget:
        for rest in genus_vectors(n - 1, budget - m * (m - 1)):
            yield (m,) + rest
        m += 1


def brute_minima(coefs, corr, base) -> dict[tuple[int, int], int]:
    """Exact minimum of the target over every genus-admissible vector, per cell."""
    vectors = [
        (sum(m * (m - 1) for m in v), sum(c * m for c, m in zip(coefs, v)))
        for v in genus_vectors(len(coefs), 2 * BOUNDED_MAX * BOUNDED_MAX)
    ]
    twisted = (base[0] - corr[0], base[1] - corr[1])
    out = {}
    for alpha in range(1, BOUNDED_MAX + 1):
        for beta in range(1, BOUNDED_MAX + 1):
            budget = 2 * alpha * beta
            best = max(value for cost, value in vectors if cost <= budget)
            out[(alpha, beta)] = dot(twisted, (alpha, beta)) - best
    return out


def check_farkas(fact: dict) -> str | None:
    """Re-combine a recorded Farkas witness; None when it proves the target."""
    sys_, result = fact["system"], fact["result"]
    rows = sys_["constraints"]
    target = sys_["target"]
    n = len(sys_["variables"])
    total = [Fraction(0)] * n
    bound = Fraction(0)
    strict = False
    for entry in result.get("witness") or ():
        mult = Fraction(entry["multiplier"])
        sign = entry["direction"]
        row = rows[entry["constraint"]]
        if mult < 0 or sign not in (1, -1) or (sign == -1 and row["rel"] != "=="):
            return f"{fact['name']}: bad witness entry {entry}"
        for j in range(n):
            total[j] += sign * mult * Fraction(row["coeffs"][j])
        bound += sign * mult * Fraction(row["bound"])
        strict = strict or (row["rel"] == ">" and mult > 0)
    status = result.get("status")
    if status == "vacuously_valid":
        ok = all(t == 0 for t in total) and (bound > 0 or (bound == 0 and strict))
    elif status == "valid":
        if total != [Fraction(c) for c in target["coeffs"]]:
            return f"{fact['name']}: witness does not reproduce the target"
        t_bound = Fraction(target["bound"])
        if target["rel"] == ">":
            ok = bound > t_bound or (bound == t_bound and strict)
        else:
            ok = bound >= t_bound
    else:
        return f"{fact['name']}: status {status!r} is not a proof"
    return None if ok else f"{fact['name']}: witness bound falls short"


class ReportChecker:
    """Checks each non-fibre report once per arithmetic content."""

    def __init__(self, brute_keys: set[str]):
        self.brute_keys = brute_keys
        self.facts_ok: dict[str, str | None] = {}
        self.content: dict[str, tuple] = {}

    def check(self, report: dict, label, coefs, corr, base, k) -> list[str]:
        key = report["key"]
        content = (label, coefs, corr, base, k)
        if key in self.content:
            if self.content[key] != content:
                return [f"report {key} is shared by different arithmetic"]
            return []
        self.content[key] = content
        problems = []
        if report["label"] != label:
            problems.append(f"report {key} has label {report['label']}, certificate {label}")
        relation = ">" if label in NORIMATSU else ">="
        twisted = (base[0] - corr[0], base[1] - corr[1])
        cells = {tuple(c["class"]): c for c in report["bounded"]}
        if sorted(cells) != [
            (a, b) for a in range(1, BOUNDED_MAX + 1) for b in range(1, BOUNDED_MAX + 1)
        ]:
            problems.append(f"report {key}: bounded cells do not cover the 4x4 box")
            return problems
        minima = brute_minima(coefs, corr, base) if key in self.brute_keys else None
        cells_pass = True
        for (alpha, beta), cell in cells.items():
            wit = cell["witness_mults"]
            if len(wit) != len(coefs) or any(m < 0 for m in wit):
                problems.append(f"report {key} cell {(alpha, beta)}: bad witness")
                continue
            if sum(m * (m - 1) for m in wit) > 2 * alpha * beta:
                problems.append(f"report {key} cell {(alpha, beta)}: witness exceeds the genus bound")
            value = dot(twisted, (alpha, beta)) - sum(c * m for c, m in zip(coefs, wit))
            if value != cell["min_value"]:
                problems.append(f"report {key} cell {(alpha, beta)}: witness gives {value}, recorded {cell['min_value']}")
            if minima is not None and minima[(alpha, beta)] != cell["min_value"]:
                problems.append(f"report {key} cell {(alpha, beta)}: minimum is {minima[(alpha, beta)]}, recorded {cell['min_value']}")
            if cell["relation"] != relation or cell["pass"] != passes(cell["min_value"], relation):
                problems.append(f"report {key} cell {(alpha, beta)}: wrong relation or pass flag")
            cells_pass = cells_pass and cell["pass"]
        unbounded = report["unbounded"]
        unbounded_pass = True
        for fact in unbounded["facts"]:
            if fact["system"] is not None:
                fkey = json.dumps(fact, sort_keys=True)
                if fkey not in self.facts_ok:
                    self.facts_ok[fkey] = check_farkas(fact)
                if self.facts_ok[fkey] is not None:
                    problems.append(f"report {key}: {self.facts_ok[fkey]}")
            elif fact["status"] != "valid":
                problems.append(f"report {key}: fact {fact['name']} is {fact['status']}")
            unbounded_pass = unbounded_pass and fact["pass"]
        for premise in unbounded["premises"]:
            if premise["name"] == "base-margin":
                res = premise["result"]
                if tuple(res["base"]) != base or res["needed"] != k + 2:
                    problems.append(f"report {key}: base-margin records the wrong base")
                if premise["pass"] != (min(base) >= k + 2):
                    problems.append(f"report {key}: base-margin pass flag is wrong")
            unbounded_pass = unbounded_pass and premise["pass"]
        if unbounded["pass"] != unbounded_pass:
            problems.append(f"report {key}: unbounded pass flag is wrong")
        if report["pass"] != (cells_pass and unbounded_pass):
            problems.append(f"report {key}: pass flag is wrong")
        return problems


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


def check_config(type_id: int, k: int, cfg: dict) -> list[str]:
    weights = cfg["weights"]
    r = len(weights)
    if cfg["k"] != k or sum(weights) != k + 1 or any(w < 1 for w in weights):
        return ["weights do not partition k+1"]
    if any(weights[i] < weights[i + 1] for i in range(r - 1)):
        return ["weights are not non-increasing"]
    a_sets = [set(ab["points"]) for ab in cfg["a_blocks"]]
    b_sets = [set(bb) for bb in cfg["b_blocks"]]
    for blocks in (a_sets, b_sets):
        if any(not b for b in blocks) or sum(len(b) for b in blocks) != r:
            return ["blocks do not partition the points"]
        if set().union(*blocks) != set(range(r)):
            return ["blocks do not partition the points"]
    if any(len(a & b) > 1 for a in a_sets for b in b_sets):
        return ["an A-block and a B-block share two points"]
    mu = SURFACES[type_id][0]
    for ab in cfg["a_blocks"]:
        kind, coeff = ab["kind"], ab["fibre_coeff"]
        ok = (
            (kind == SINGULAR and coeff == 1)
            or (kind == INTERMEDIATE and coeff in intermediate_coeffs(type_id))
            or (kind == FULL and coeff == mu)
        )
        if not ok:
            return [f"A-block kind {kind} with class ({coeff},0) is not on type {type_id}"]
    return []


def check_r1(cert: dict) -> list[str]:
    k = cert["k"]
    a, b = pair(cert["m_class"]["base"])
    expected = {"nef-threshold": min(a, b) - (k + 2), "bigness": 2 * a * b - (k + 2) ** 2}
    got = {c["kind"]: c for c in cert["checks"]}
    if sorted(got) != sorted(expected) or len(cert["checks"]) != 2:
        return ["R1 certificate does not carry the nef and bigness checks"]
    problems = []
    for kind, value in expected.items():
        c = got[kind]
        if c["value"] != value or c["pass"] != passes(value, c["relation"]):
            problems.append(f"R1 {kind} check is wrong")
    if got["bigness"]["relation"] != ">" or got["nef-threshold"]["relation"] != ">=":
        problems.append("R1 relations are wrong")
    if cert["vanishing_theorem"] != "KawamataViehweg" or cert["nonfibre_ref"] is not None:
        problems.append("R1 certificate records the wrong method")
    if cert["pass"] != all(c["pass"] for c in cert["checks"]):
        problems.append("pass flag is wrong")
    return problems


def check_certificate(cert: dict, reports: dict, checker: ReportChecker) -> list[str]:
    type_id, k, cfg = cert["surface_type"], cert["k"], cert["config"]
    if type_id not in SURFACES:
        return [f"unknown surface type {type_id}"]
    problems = check_config(type_id, k, cfg)
    if problems:
        return problems
    base = tuple(cert["base"])
    if base != (k + 2, k + 2):
        return [f"base {base} is not (k+2, k+2)"]
    weights = cfg["weights"]
    m_class = cert["m_class"]
    if pair(m_class["base"]) != base or m_class["exc"] != [w + 1 for w in weights]:
        return ["M is not pi*L - sum (k_i + 1) E_i"]
    try:
        label, ha, hb, shared = classify(type_id, k, weights, cfg["a_blocks"], cfg["b_blocks"])
    except ValueError as exc:
        return [f"configuration cannot be classified: {exc}"]
    if cert["label"] != label:
        return [f"label {cert['label']} should be {label}"]
    if label in B_VARIANTS and not odd_type(type_id):
        return [f"label {label} on even type {type_id}"]
    if label == "R1":
        return check_r1(cert)
    strict = label in NORIMATSU
    if cert["vanishing_theorem"] != ("Norimatsu" if strict else "KawamataViehweg"):
        problems.append("wrong vanishing theorem")
    if cert["snc_axiom"] != strict:
        problems.append("wrong SNC axiom flag")
    if strict:
        f_base, f_exc = correction(type_id, cfg, label, ha, hb)
        f_class, n_class = cert["f_class"], cert["n_class"]
        if f_class is None or n_class is None:
            return problems + ["missing correction F or residual N"]
        if pair(f_class["base"]) != f_base or f_class["exc"] != f_exc:
            problems.append("F is not the sum of the heavy fibres' strict transforms")
        m_base = pair(m_class["base"])
        n_base, f_cb = pair(n_class["base"]), pair(f_class["base"])
        if (n_base[0] + f_cb[0], n_base[1] + f_cb[1]) != m_base or [
            n + f for n, f in zip(n_class["exc"], f_class["exc"])
        ] != m_class["exc"]:
            problems.append("M = N + F does not hold")
        checked = n_class
    else:
        if cert["f_class"] is not None or cert["n_class"] is not None:
            problems.append("a nef case records a correction")
        checked = m_class
    relation = ">" if strict else ">="
    checks = cert["checks"]
    if not checks or checks[0]["kind"] != "square":
        return problems + ["the first check is not the square"]
    sq = square(checked)
    if checks[0]["value"] != sq or checks[0]["relation"] != ">" or checks[0]["pass"] != (sq > 0):
        problems.append("square check is wrong")
    q = b_coeff(type_id)
    mu = SURFACES[type_id][0]
    expected = sorted(
        [((ab["fibre_coeff"], 0), tuple(ab["points"])) for ab in cfg["a_blocks"]]
        + [((0, q), tuple(bb)) for bb in cfg["b_blocks"]]
        + [((1, 0), ()), ((mu, 0), ()), ((0, q), ())]
    )
    fibres = checks[1:]
    got = sorted((tuple(c.get("curve_class", ())), tuple(c.get("block", ()))) for c in fibres)
    if got != expected:
        problems.append("fibre checks do not cover every block and fresh fibre")
    c_base, c_exc = pair(checked["base"]), checked["exc"]
    for c in fibres:
        if c["kind"] != "fibre" or c["relation"] != relation or c["bound"] != 0:
            problems.append("fibre check has the wrong kind or relation")
            continue
        block = set(c.get("block", ()))
        value = dot(c_base, tuple(c["curve_class"])) - sum(
            e for i, e in enumerate(c_exc) if i in block
        )
        if c["value"] != value:
            problems.append(f"fibre value {c['value']} should be {value}")
        if c["pass"] != passes(c["value"], relation):
            problems.append("fibre pass flag is wrong")
    ref = cert["nonfibre_ref"]
    report = reports.get(ref)
    if report is None:
        return problems + [f"non-fibre report {ref} is not written before its first use"]
    report["_used"] = True
    coefs, corr = report_arithmetic(type_id, cfg, label, ha, hb, shared)
    problems += checker.check(report, label, coefs, corr, base, k)
    if cert["pass"] != (all(c["pass"] for c in checks) and report["pass"]):
        problems.append("pass flag is wrong")
    return problems


# ---------------------------------------------------------------------------
# Configuration orbits by brute force
# ---------------------------------------------------------------------------


def weight_partitions(total: int, largest: int | None = None):
    largest = total if largest is None else largest
    if total == 0:
        yield ()
        return
    for first in range(min(total, largest), 0, -1):
        for rest in weight_partitions(total - first, first):
            yield (first,) + rest


def set_partitions(n: int) -> list[tuple[int, ...]]:
    """Every set partition of range(n), as a sorted tuple of block bitmasks."""
    out = []

    def rec(i, blocks):
        if i == n:
            out.append(tuple(sorted(blocks)))
            return
        for j in range(len(blocks)):
            blocks[j] |= 1 << i
            rec(i + 1, blocks)
            blocks[j] &= ~(1 << i)
        blocks.append(1 << i)
        rec(i + 1, blocks)
        blocks.pop()

    rec(0, [])
    return out


def _relabel(mask: int, perm: tuple[int, ...]) -> int:
    out = 0
    i = 0
    while mask:
        if mask & 1:
            out |= 1 << perm[i]
        mask >>= 1
        i += 1
    return out


class OrbitOracle:
    """Incidence orbits of every weight vector, by exhaustive labeling.

    A labeled structure is a pair of set partitions (A-blocks, B-blocks) of
    the points in which an A-block and a B-block share at most one point.
    Two are the same orbit when a permutation of equally weighted points maps
    one onto the other.  Every labeled structure is listed; the first of each
    orbit names it, and all its images under the weight-preserving
    permutations are marked as seen.
    """

    def __init__(self):
        self._cache: dict[tuple[int, ...], tuple[dict, list]] = {}

    def orbits(self, weights: tuple[int, ...]) -> tuple[dict, list]:
        """(labeled structure -> orbit index, per-orbit A-block masks)."""
        if weights in self._cache:
            return self._cache[weights]
        n = len(weights)
        classes = [[i for i in range(n) if weights[i] == w] for w in sorted(set(weights))]
        perms = []
        for choice in product(*(permutations(c) for c in classes)):
            perm = [0] * n
            for cls, image in zip(classes, choice):
                for src, dst in zip(cls, image):
                    perm[src] = dst
            perms.append(tuple(perm))
        parts = set_partitions(n)
        index: dict = {}
        reps: list = []
        for a in parts:
            for b in parts:
                if any((x & y) & ((x & y) - 1) for x in a for y in b):
                    continue
                if (a, b) in index:
                    continue
                for perm in perms:
                    image = (
                        tuple(sorted(_relabel(x, perm) for x in a)),
                        tuple(sorted(_relabel(y, perm) for y in b)),
                    )
                    index[image] = len(reps)
                reps.append(a)
        self._cache[weights] = (index, reps)
        return index, reps

    def kinds(self, type_id: int, k: int, weights, a_masks) -> list[tuple]:
        """Fibre kinds the heavy A-block can take; [()] when there is none."""
        heavy = any(
            2 * sum(w for i, w in enumerate(weights) if mask >> i & 1) > k + 1
            for mask in a_masks
        )
        if not heavy:
            return [()]
        mu = SURFACES[type_id][0]
        return (
            [((SINGULAR, 1),)]
            + [((INTERMEDIATE, m),) for m in intermediate_coeffs(type_id)]
            + [((FULL, mu),)]
        )

    def expected(self, type_id: int, k: int) -> set[tuple]:
        """Every configuration orbit of one (type, k), the single point included."""
        out = {("R1",)}
        for weights in weight_partitions(k + 1):
            if len(weights) < 2:
                continue
            _, reps = self.orbits(weights)
            for idx, a_masks in enumerate(reps):
                for kind in self.kinds(type_id, k, weights, a_masks):
                    out.add((weights, idx, kind))
        return out


def _mask(points) -> int:
    m = 0
    for p in points:
        m |= 1 << p
    return m


def check_coverage(configs_by_scope: dict, oracle: OrbitOracle) -> list[str]:
    """Every orbit of each (type, k) with k <= MAX_ORBIT_K has a representative."""
    problems = []
    for (type_id, k), configs in sorted(configs_by_scope.items()):
        if k > MAX_ORBIT_K:
            continue
        covered = set()
        for cfg in configs:
            weights = tuple(cfg["weights"])
            if len(weights) == 1:
                covered.add(("R1",))
                continue
            index, _ = oracle.orbits(weights)
            key = (
                tuple(sorted(_mask(ab["points"]) for ab in cfg["a_blocks"])),
                tuple(sorted(_mask(bb) for bb in cfg["b_blocks"])),
            )
            heavy = [
                (ab["kind"], ab["fibre_coeff"])
                for ab in cfg["a_blocks"]
                if 2 * sum(weights[p] for p in ab["points"]) > k + 1
            ]
            if key not in index:
                problems.append(f"type {type_id} k={k}: {key} is no incidence structure")
                continue
            covered.add((weights, index[key], tuple(heavy)))
        missing = oracle.expected(type_id, k) - covered
        if missing:
            problems.append(f"type {type_id} k={k}: {len(missing)} configuration orbits have no certificate")
    return problems


# ---------------------------------------------------------------------------
# Whole outputs
# ---------------------------------------------------------------------------


def check_summary(summary: dict, certs: int, failed: int, labels: dict) -> list[str]:
    problems = []
    if summary.get("total") != certs:
        problems.append(f"summary total {summary.get('total')} but {certs} certificate lines")
    if summary.get("failed") != failed:
        problems.append(f"summary failed {summary.get('failed')} but {failed} failing lines")
    if summary.get("label_counts") != labels:
        problems.append("summary label counts differ from the certificate lines")
    if summary.get("pass") != (failed == 0):
        problems.append("summary pass flag is wrong")
    return problems


def check_bundle(lines, types, k_range, seed: int, oracle: OrbitOracle | None = None,
                 brute_samples: int = 6) -> tuple[list[str], dict]:
    """Check a whole bundle given as an iterable of JSON lines.

    Returns (problems, tally) where tally holds the certificate count, the
    failed count and the label counts of the certificate lines.
    """
    problems: list[str] = []
    records = [json.loads(line) for line in lines]
    if not records or records[0].get("kind") != "header":
        return ["bundle does not start with a header"], {}
    run = records[0].get("run", {})
    if run.get("types") != list(types) or run.get("k") != list(k_range):
        problems.append(f"header scope {run} is not the requested one")
    if records[-1].get("kind") != "summary":
        return problems + ["bundle does not end with a summary"], {}
    rng = random.Random(seed)
    report_keys = sorted(r["key"] for r in records if r.get("kind") == "nonfibre_report")
    brute = set(rng.sample(report_keys, min(brute_samples, len(report_keys))))
    checker = ReportChecker(brute)
    reports: dict[str, dict] = {}
    labels: dict[str, int] = {}
    scopes: dict[tuple[int, int], list] = {}
    certs = failed = 0
    for rec in records[1:-1]:
        kind = rec.get("kind")
        if kind == "nonfibre_report":
            if rec["key"] in reports:
                problems.append(f"report {rec['key']} is written twice")
            reports[rec["key"]] = rec
            continue
        if kind != "certificate":
            problems.append(f"unexpected record kind {kind!r}")
            continue
        certs += 1
        failed += not rec["pass"]
        labels[rec["label"]] = labels.get(rec["label"], 0) + 1
        scopes.setdefault((rec["surface_type"], rec["k"]), []).append(rec["config"])
        for p in check_certificate(rec, reports, checker):
            problems.append(f"type {rec['surface_type']} k={rec['k']} {rec['config']['weights']}: {p}")
        if len(problems) > 20:
            return problems + ["(stopped after 20 problems)"], {}
    if any("_used" not in r for r in reports.values()):
        problems.append("a non-fibre report is never used")
    expected_scopes = {(t, k) for t in types for k in range(k_range[0], k_range[1] + 1)}
    if set(scopes) != expected_scopes:
        problems.append("the certificates do not cover every (type, k) in scope")
    labels = dict(sorted(labels.items()))
    problems += check_summary(records[-1], certs, failed, labels)
    problems += check_coverage(scopes, oracle or OrbitOracle())
    return problems, {"total": certs, "failed": failed, "label_counts": labels}


def check_sweep_summary(summary: dict, types, k_range, oracle: OrbitOracle | None = None
                        ) -> list[str]:
    """Checks on the printed summary of a run that writes no bundle."""
    problems = []
    labels = summary.get("label_counts", {})
    total = summary.get("total", 0)
    if summary.get("failed") != 0 or summary.get("pass") is not True:
        problems.append(f"{summary.get('failed')} certificates failed")
    if set(labels) - LABELS:
        problems.append(f"unknown labels {sorted(set(labels) - LABELS)}")
    if sum(labels.values()) != total:
        problems.append("label counts do not add up to the total")
    ks = range(k_range[0], k_range[1] + 1)
    if labels.get("R1") != len(types) * len(ks):
        problems.append(f"{labels.get('R1')} R1 certificates, expected one per (type, k)")
    if not any(odd_type(t) for t in types) and set(labels) & (B_VARIANTS | {"IV"}):
        problems.append("b-variant labels on even types")
    oracle = oracle or OrbitOracle()
    # orbits are counted exactly where affordable; above that, one per (type, k)
    floor = sum(
        len(oracle.expected(t, k)) if k <= MAX_ORBIT_K else 1 for t in types for k in ks
    )
    if total < floor:
        problems.append(f"total {total} is below the {floor} independently counted orbits")
    return problems
