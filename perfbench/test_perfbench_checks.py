"""Tests for the benchmark's output checks, including outputs they must reject."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import checks

ROOT = Path(__file__).resolve().parent.parent
TYPES = [1, 2, 3, 7]
K_RANGE = [2, 3]


@pytest.fixture(scope="module")
def records(tmp_path_factory) -> list[dict]:
    out = tmp_path_factory.mktemp("bundle") / "b.jsonl"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(
        [sys.executable, "-m", "hyperjet.cli", "verify", "--types", ",".join(map(str, TYPES)),
         "--k", "2..3", "--out", str(out)],
        check=True, env=env, cwd=ROOT, capture_output=True,
    )
    return [json.loads(line) for line in out.read_text().splitlines()]


def problems_of(records: list[dict]) -> list[str]:
    lines = [json.dumps(r) for r in records]
    return checks.check_bundle(lines, TYPES, K_RANGE, seed=7, brute_samples=100)[0]


def first(records, pred) -> int:
    return next(i for i, r in enumerate(records) if pred(r))


def edited(records, index, fn) -> list[dict]:
    out = json.loads(json.dumps(records))
    fn(out[index])
    return out


def test_bundle_from_the_cli_passes(records):
    assert problems_of(records) == []


def test_flipped_fibre_value_is_rejected(records):
    i = first(records, lambda r: r.get("kind") == "certificate" and r["label"] != "R1")

    def flip(cert):
        cert["checks"][1]["value"] += 1

    assert any("fibre value" in p for p in problems_of(edited(records, i, flip)))


def test_flipped_fibre_pass_flag_is_rejected(records):
    i = first(records, lambda r: r.get("kind") == "certificate" and r["label"] != "R1")

    def flip(cert):
        cert["checks"][1]["pass"] = not cert["checks"][1]["pass"]

    assert any("pass flag" in p for p in problems_of(edited(records, i, flip)))


def test_wrong_label_is_rejected(records):
    i = first(records, lambda r: r.get("kind") == "certificate" and r["label"] == "IIa")

    def relabel(cert):
        cert["label"] = "I"

    assert any("should be IIa" in p for p in problems_of(edited(records, i, relabel)))


def test_even_types_take_no_b_variant():
    cfg = {"k": 2, "weights": [2, 1],
           "a_blocks": [{"points": [0, 1], "kind": "singular-A", "fibre_coeff": 1}],
           "b_blocks": [[0], [1]]}
    label = checks.classify(2, 2, cfg["weights"], cfg["a_blocks"], cfg["b_blocks"])[0]
    assert label == "IIa"  # on the odd type 1 the weak B-block makes it IIb
    assert checks.classify(1, 2, cfg["weights"], cfg["a_blocks"], cfg["b_blocks"])[0] == "IIb"


def test_dropped_report_line_is_rejected(records):
    i = first(records, lambda r: r.get("kind") == "nonfibre_report")
    dropped = records[:i] + records[i + 1:]
    assert any("before its first use" in p for p in problems_of(dropped))


def test_report_after_its_first_use_is_rejected(records):
    i = first(records, lambda r: r.get("kind") == "nonfibre_report")
    moved = records[:i] + records[i + 1:i + 2] + [records[i]] + records[i + 2:]
    assert any("before its first use" in p for p in problems_of(moved))


def test_wrong_bounded_minimum_is_rejected(records):
    i = first(records, lambda r: r.get("kind") == "nonfibre_report")

    def lower(report):
        report["bounded"][0]["min_value"] -= 1

    assert any("cell" in p for p in problems_of(edited(records, i, lower)))


def test_bounded_minimum_brute_force():
    # one point of coefficient 3 against (1, 1) with base (4, 4):
    # 8 - 3m is least at m = 2, the largest with m(m - 1) <= 2
    minima = checks.brute_minima((3,), (0, 0), (4, 4))
    assert minima[(1, 1)] == 8 - 3 * 2


def test_tampered_farkas_witness_is_rejected(records):
    i = first(records, lambda r: r.get("kind") == "nonfibre_report")

    def tamper(report):
        fact = next(f for f in report["unbounded"]["facts"] if f["system"] is not None)
        fact["result"]["witness"][0]["multiplier"] = "1/1000"

    assert any("witness" in p for p in problems_of(edited(records, i, tamper)))


def test_summary_must_match_the_lines(records):
    def bump(summary):
        summary["total"] += 1

    assert any("summary total" in p for p in problems_of(edited(records, -1, bump)))


def test_dropped_certificate_leaves_an_orbit_uncovered(records):
    i = first(records, lambda r: r.get("kind") == "certificate" and r["label"] == "I")
    dropped = records[:i] + records[i + 1:]
    dropped[-1] = dict(dropped[-1], total=dropped[-1]["total"] - 1)
    dropped[-1]["label_counts"] = dict(dropped[-1]["label_counts"])
    dropped[-1]["label_counts"]["I"] -= 1
    problems = problems_of(dropped)
    assert any("have no certificate" in p for p in problems)


def test_orbit_counts():
    # exact incidence orbits, the single point included: 10 at k = 2, 91 at k = 4
    oracle = checks.OrbitOracle()
    for k, expected in ((2, 10), (4, 91)):
        orbits = 1 + sum(
            len(oracle.orbits(w)[1]) for w in checks.weight_partitions(k + 1) if len(w) > 1
        )
        assert orbits == expected


def test_sweep_summary_checks():
    oracle = checks.OrbitOracle()
    labels = {"R1": 2, "I": 100, "IIa": 50}
    good = {"total": 152, "failed": 0, "pass": True, "label_counts": labels}
    assert checks.check_sweep_summary(good, [1], [2, 3], oracle) == []
    failed = {**good, "failed": 1, "pass": False}
    assert checks.check_sweep_summary(failed, [1], [2, 3], oracle)
    short = dict(good, total=10, label_counts={"R1": 2, "I": 8})
    assert any("independently counted" in p
               for p in checks.check_sweep_summary(short, [1], [2, 3], oracle))
    no_r1 = dict(good, label_counts={"I": 102, "IIa": 50})
    assert any("R1" in p for p in checks.check_sweep_summary(no_r1, [1], [2, 3], oracle))
