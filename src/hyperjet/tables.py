"""Reference tables: the surface catalog and the bounded-curve bound table.

Both tables ship as golden JSON data files; the functions here recompute
them from first principles (the catalog from the type data, the curve table
from the genus bound) and diff computed against golden, so any drift
between the code and the reference values is a hard failure.
"""

from __future__ import annotations

import json
from importlib import resources

from .nonfibre import max_multiplicity
from .surfaces import catalog

_ROMAN = ("i", "ii", "iii", "iv", "v", "vi", "vii", "viii", "ix", "x")


def _load(name: str) -> dict:
    path = resources.files("hyperjet.data").joinpath(name)
    return json.loads(path.read_text())


def golden_catalog_rows() -> list[dict]:
    return _load("surface_catalog.json")["rows"]


def catalog_rows() -> list[dict]:
    return [s.to_json() for s in catalog()]


def bounded_curve_rows() -> list[dict]:
    """Multiplicity-bound table for classes (alpha, beta) with both <= 4.

    Per row: the largest single multiplicity allowed by the genus bound, the
    largest multiplicity for which the per-point inequality holds
    automatically (floor of (alpha+beta)/2), the (m1, m2) pairs with m1
    above that bound and m2 maximal under the remaining genus budget, and
    the bound on any further multiplicity.
    """
    rows = []
    classes = [
        (a, b) for a in range(4, 0, -1) for b in range(a, 0, -1)
    ]
    for idx, (a, b) in enumerate(classes):
        budget = 2 * a * b
        max_mult = max_multiplicity(budget)
        auto = (a + b) // 2
        pairs = []
        extra = 0
        for m1 in range(max_mult, auto, -1):
            m2 = max_multiplicity(budget - m1 * (m1 - 1), m1)
            pairs.append([m1, m2])
            residual = budget - m1 * (m1 - 1) - m2 * (m2 - 1)
            extra = max(extra, max_multiplicity(residual, m2))
        row_classes = [[a, b]] if a == b else [[a, b], [b, a]]
        rows.append(
            {
                "row": _ROMAN[idx],
                "classes": row_classes,
                "max_mult": max_mult,
                "auto_bound": auto,
                "pairs": pairs,
                "extra_bound": extra,
            }
        )
    return rows


def golden_bounded_curve_rows() -> list[dict]:
    return _load("bounded_curve_table.json")["rows"]


def diff_tables(computed: list[dict], golden: list[dict]) -> list[str]:
    """Human-readable discrepancies between two row lists (empty = match)."""
    problems = []
    if len(computed) != len(golden):
        problems.append(f"row count {len(computed)} != {len(golden)}")
    for crow, grow in zip(computed, golden):
        keys = sorted(set(crow) | set(grow))
        for key in keys:
            if crow.get(key) != grow.get(key):
                tag = crow.get("row") or crow.get("type_id")
                problems.append(
                    f"row {tag}: {key}: computed {crow.get(key)!r} "
                    f"!= golden {grow.get(key)!r}"
                )
    return problems


def render_curve_table(rows: list[dict]) -> str:
    header = f"{'row':<5}{'class':<18}{'max m':>6}{'auto':>6}  {'(m1,m2) pairs':<22}{'m_i, i>2':>9}"
    lines = [header, "-" * len(header)]
    for r in rows:
        cls = " or ".join(f"({a},{b})" for a, b in r["classes"])
        pairs = ", ".join(f"({m1},{m2})" for m1, m2 in r["pairs"])
        lines.append(
            f"{r['row']:<5}{cls:<18}{r['max_mult']:>6}{r['auto_bound']:>6}"
            f"  {pairs:<22}{'<= ' + str(r['extra_bound']):>9}"
        )
    return "\n".join(lines)


def render_catalog(rows: list[dict]) -> str:
    header = (
        f"{'type':<6}{'group':<8}{'multiplicities':<16}{'mu':>4}{'gamma':>7}"
        f"  {'fibre classes':<30}"
    )
    lines = [header, "-" * len(header)]
    for r in rows:
        mults = ",".join(map(str, r["multiplicities"]))
        fibres = "  ".join(
            f"{fc['kind']}:({fc['class'][0]},{fc['class'][1]})"
            for fc in r["fibre_classes"]
        )
        lines.append(
            f"{r['type_id']:<6}{r['group']:<8}{mults:<16}{r['mu']:>4}"
            f"{r['gamma']:>7}  {fibres:<30}"
        )
    return "\n".join(lines)
