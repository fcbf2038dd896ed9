"""README's memory table: what a serial `verify --out` sweep keeps, row by row.

Run from the repository root, with the k range to sweep (default 2..6):

    PYTHONPATH=src python tests/memory_table.py 2..8

It sweeps all seven types in this process under `tracemalloc` with 12
frames, takes a snapshot after a garbage collection, and prints each row's
count and MB (10^6 bytes) as a line of README's table, then the interner's
size.  A trace counts for a row when the innermost of its frames that lies
in a listed function, or on a listed line, is in the row's function or on
one of its lines; a listed line wins over the function it lies in.  The
listed lines are those where a memoized call's cache key is built, in the
function that calls it (each row's calls in `ROWS`).  It exits non-zero if
a listed function or call is missing or a row holds nothing, so a rename
that would leave the table without its method fails where CI runs this.
Not a pytest module: under tracemalloc the sweep at k 2..6 takes about
25 s on a 2-CPU VM.
"""

from __future__ import annotations

import ast
import contextlib
import gc
import inspect
import io
import sys
import tempfile
import textwrap
import tracemalloc
from pathlib import Path

from hyperjet import cli, configurations, engine, nonfibre
from hyperjet.configurations import ABlock
from hyperjet.surfaces import SINGULAR_A

NFRAMES = 12

# row: (the functions whose traces it counts, the (caller, callee) calls whose
# lines it counts)
ROWS = {
    "skeleton table": ([configurations._skeletons], []),
    "structure memo": (
        [configurations._structure, configurations.JetConfiguration.validate],
        [(configurations._skeletons, "_structure")],
    ),
    "fibre check records": ([engine._fibre_record, engine.certify_fibres], []),
    "fresh-fibre records": ([engine._fresh_records], []),
    "report cache": ([nonfibre.analyse], [(engine._classes, "analyse")]),
    "bounded-cell memo": (
        [nonfibre.bounded_cells, nonfibre._assignment_maxima, nonfibre._knapsack],
        [(nonfibre.analyse, "bounded_cells")],
    ),
    "knapsack prefix rows": ([nonfibre._knapsack_rows], [(nonfibre._knapsack, "_knapsack_rows")]),
    "fragment cache": ([cli._fragment, cli._config_text], []),
}


def _span(fn) -> tuple[str, range]:
    """The file and the lines of `fn`'s definition."""
    fn = inspect.unwrap(fn)
    lines, start = inspect.getsourcelines(fn)
    return fn.__code__.co_filename, range(start, start + len(lines))


def _call_lines(caller, callee: str) -> tuple[str, set[int]]:
    """The lines of every call of `callee` in `caller`'s definition."""
    filename, span = _span(caller)
    tree = ast.parse(textwrap.dedent(inspect.getsource(inspect.unwrap(caller))))
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name == callee:
                lines.update(range(span.start + node.lineno - 1, span.start + node.end_lineno))
    if not lines:
        raise SystemExit(f"{caller.__qualname__} does not call {callee}")
    return filename, lines


def _cache(fn) -> dict:
    """The entries of an unbounded `lru_cache`, key to result."""
    return next(o for o in gc.get_referents(fn) if type(o) is dict and o is not vars(fn))


def attribute(snapshot: tracemalloc.Snapshot) -> dict[str, int]:
    """Bytes per row."""
    functions, lines = [], {}
    for row, (fns, calls) in ROWS.items():
        functions += [(*_span(fn), row) for fn in fns]
        for caller, callee in calls:
            filename, at = _call_lines(caller, callee)
            lines.update(((filename, n), row) for n in at)
    sizes = dict.fromkeys(ROWS, 0)
    for trace in snapshot.traces:
        for frame in reversed(trace.traceback):  # innermost first
            row = lines.get((frame.filename, frame.lineno))
            if row is None:
                row = next((r for f, span, r in functions
                            if f == frame.filename and frame.lineno in span), None)
            if row is not None:
                sizes[row] += trace.size
                break
    return sizes


def counts(ks: range) -> dict[str, str]:
    """What each row holds, read from the caches after the sweep."""
    cores = _cache(configurations._structure).values()
    residuals = sum(r is not None for c in cores for r in (c.n_a, c.n_b, c.n_ab))
    records = _cache(engine._fibre_record).values()
    cells = sum(isinstance(o, tuple) and o and isinstance(o[0], nonfibre.BoundedCellCheck)
                for o in cli._encoded)
    n = "{:,}".format
    return {
        "skeleton table": f"{n(sum(len(configurations._skeletons(k)[0]) for k in ks))} matrices",
        "structure memo": f"{n(len(cores))} cores, {n(residuals)} N residuals",
        "fibre check records": f"{n(len(records))} records and "
                               f"{len({id(r.curve) for r in records})} fibre classes",
        "fresh-fibre records": f"{n(engine._fresh_records.cache_info().currsize)} tuples",
        "report cache": f"{n(nonfibre.analyse.cache_info().currsize)} reports",
        "bounded-cell memo": f"{n(nonfibre.bounded_cells.cache_info().currsize)} cell tuples "
                             f"and the knapsack's witnesses for "
                             f"{n(nonfibre._assignment_maxima.cache_info().currsize)} "
                             "coefficient vectors",
        "knapsack prefix rows": f"{n(nonfibre._knapsack_rows.cache_info().currsize)} prefixes",
        "fragment cache": f"{n(len(cli._fragments))} texts ({n(cells)} of them cell tuples)",
    }


def main(argv: list[str]) -> int:
    krange = argv[0] if argv else "2..6"
    lo, hi = cli._parse_krange(krange)
    with tempfile.TemporaryDirectory() as tmp:
        tracemalloc.start(NFRAMES)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["verify", "--types", "all", "--k", krange,
                             "--out", str(Path(tmp) / "bundle.jsonl")])
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
        tracemalloc.stop()
    if code != 0:
        raise SystemExit(f"the sweep exited with {code}")
    sizes, held = attribute(snapshot), counts(range(lo, hi + 1))
    print(f"| kept | k {krange} |\n|---|---|")
    for row in ROWS:
        print(f"| {row} | {held[row]}, {sizes[row] / 1e6:.2f} MB |")
    interned = _cache(configurations._interned).values()
    heavy = sum(isinstance(v, ABlock) and v.kind != SINGULAR_A for v in interned)
    print(f"\ninterner: {len(interned):,} values, {heavy:,} of them heavy-kind A-blocks")
    empty = [row for row, size in sizes.items() if size == 0]
    if empty:
        raise SystemExit(f"rows that hold nothing: {empty}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
