"""Command-line front end: verification sweeps, reference tables, LP queries.

Subcommands:
    verify            certificates for all configurations over types x k
    table             recompute the bounded-curve table and diff the golden copy
    matrix            bounded-regime check matrices, one per distinct non-fibre
                      report of the configurations in scope
    catalog           recompute the surface catalog and diff the golden copy
    negative-control  verify with a caller-supplied base class; succeeds when
                      at least one explicit failure witness is found
    lp-check          ad-hoc exact linear-implication query from a JSON file

Certificate bundles are JSON Lines: a header object, one object per
certificate, each distinct non-fibre report once (before its first use),
and a closing summary.  Identical runs produce byte-identical bundles.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import re
import sys
from pathlib import Path
from typing import IO, Callable, Iterator, NamedTuple

from . import configurations, engine, lp, nonfibre, tables
from .configurations import JetConfiguration
from .lattice import DivisorClass
from .surfaces import SurfaceType, surface

SCHEMA_VERSION = "1"


class RunConfig(NamedTuple):
    mode: str
    surface_types: tuple[int, ...] = tuple(range(1, 8))
    k_min: int = 2
    k_max: int = 2
    r_max: int | None = None
    base_class: tuple[int, int] | None = None
    out: str | None = None
    fmt: str = "text"
    jobs: int = 1
    system_path: str | None = None

    def validate(self) -> None:
        if any(t not in range(1, 8) for t in self.surface_types):
            raise ConfigError("surface types must be in 1..7")
        if self.k_min > self.k_max:
            raise ConfigError("empty k range")
        if self.k_min < 2:  # the modes without --k keep the default, 2
            raise ConfigError(
                "k must be at least 2 (k = 1 is certified externally via "
                "very ampleness of type (3,3); see externally_certified_k1)"
            )
        if self.r_max is not None and self.r_max < 1:
            raise ConfigError("r-max must be positive")
        if self.jobs < 1:
            raise ConfigError("jobs must be positive")
        if self.out == "":
            raise ConfigError("out must be a path, not empty")
        if self.mode == "negative-control" and self.base_class is None:
            raise ConfigError("negative-control requires --class a,b")


class ConfigError(ValueError):
    pass


def _parse_types(text: str) -> tuple[int, ...]:
    if text.strip() == "all":
        return tuple(range(1, 8))
    try:
        return tuple(sorted({int(t) for t in text.split(",")}))
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse types {text!r}") from None


def _parse_krange(text: str) -> tuple[int, int]:
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = text.split("..")
            return int(lo), int(hi)
        return int(text), int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse k range {text!r}") from None


def _parse_class(text: str) -> tuple[int, int]:
    try:
        a, b = (int(x) for x in text.split(","))
        return a, b
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"cannot parse class {text!r} (expected a,b)"
        ) from None


def _config_args(path: str) -> list[str]:
    """Each `key = value` line of a config file as the argument `--key=value`.

    A `#` at the start of a line or after whitespace starts a comment.
    """
    args = []
    for raw in Path(path).read_text().splitlines():
        line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0]
        if not line.strip():
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep or not re.fullmatch(r"[\w-]+", key):
            raise ConfigError(f"config line {raw!r} is not key = value")
        if key == "config":
            raise ConfigError("a config file cannot name another config file")
        args.append(f"--{key}={value}")
    return args


def build_run_config(argv: list[str]) -> RunConfig:
    """The run `argv` asks for; a config file's lines go before its flags, so flags win."""
    parser = _make_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "config"):
        at = argv.index(args.mode) + 1
        args = parser.parse_args(argv[:at] + _config_args(args.config) + argv[at:])
    fields = vars(args)
    fields.pop("config", None)
    if "k" in fields:
        fields["k_min"], fields["k_max"] = fields.pop("k")
    cfg = RunConfig(**fields)
    cfg.validate()
    return cfg


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _dump(obj: object) -> str:
    return _ENCODER.encode(obj)


# skeleton-table entries per task: a process holds, and a `--jobs` worker
# sends, a bounded slice of a (type, k) at a time
SHARD_SKELETONS = 128


class Task(NamedTuple):
    """A slice of k's skeleton table for one type: the unit of every sweep."""

    surface: SurfaceType  # with k, base and part: what `engine.iter_certificates` takes
    k: int
    base: DivisorClass | None
    part: slice
    lines: bool  # whether to make bundle text


def _tasks(cfg: RunConfig, lines: bool) -> list[Task]:
    """Each (type, k) in scope as consecutive slices of at most SHARD_SKELETONS entries.

    The slices end at the point cap, clamped per k.  Each k's skeleton table
    is built here, so `--jobs` workers forked afterwards inherit it instead
    of building it again.
    """
    base = DivisorClass(*cfg.base_class) if cfg.base_class else None
    return [
        Task(surface(t), k, base, slice(start, min(start + SHARD_SKELETONS, count)), lines)
        for t in cfg.surface_types
        for k in range(cfg.k_min, cfg.k_max + 1)
        for count in [configurations.skeleton_count(k, min(cfg.r_max or k + 1, k + 1))]
        for start in range(0, count, SHARD_SKELETONS)
    ]


# The text of each fragment of a bundle line this process has encoded in the
# current run, keyed by the id of the object it encodes.  `_encoded` holds
# those objects, so that no id is reused while its text is kept; a list beside
# the texts, not a pair per entry, is 0.2 MB less at k <= 6 (4,208 texts).
# Both are emptied at the start of every run (before any worker forks, so
# every worker starts with nothing).  Each value given to `_fragment` is one
# object per value: check records, classes, reports' cell tuples and unbounded
# halves through the engine's and the report cache's memos, weight and block
# tuples and A-blocks through `configurations._interned`, and labels,
# theorems and report keys as the strings the engine shares.
_fragments: dict[int, str] = {}
_encoded: list[object] = []

# the keys of the reports whose lines this process has made in the current run
_sent: set[str] = set()


def _fragment(obj: object) -> str:
    """`obj` encoded once per run: its `to_json()`, the list of its cells' for a
    report's bounded cells, or itself."""
    text = _fragments.get(id(obj))
    if text is None:
        value = obj.to_json() if hasattr(obj, "to_json") else obj
        if isinstance(obj, tuple) and obj and isinstance(obj[0], nonfibre.BoundedCellCheck):
            value = [cell.to_json() for cell in obj]
        text = _fragments[id(obj)] = _dump(value)
        _encoded.append(obj)
    return text


def _config_text(config: JetConfiguration) -> str:
    """`_dump(config.to_json())`, from the fragments of its blocks and weights.

    The seven types share k's skeleton configurations, and a heavy-kind
    variant is built anew for each type, but the blocks and weight tuples
    they are made of are few: those are what a run keeps.
    """
    a_blocks = ",".join([_fragment(block) for block in config.a_blocks])
    return (
        f'{{"a_blocks":[{a_blocks}],"b_blocks":{_fragment(config.b_blocks)},'
        f'"k":{config.k},"weights":{_fragment(config.weights)}}}'
    )


def _json_bool(flag: bool) -> str:
    return "true" if flag else "false"


def _certificate_line(cert: engine.Certificate) -> str:
    """`_dump({"kind": "certificate", **cert.to_json()}) + "\\n"`, from cached fragments."""
    report = cert.nonfibre_report
    a, b = cert.base.to_pair()
    checks = ",".join([_fragment(check) for check in cert.checks])
    seshadri = cert.seshadri_axiom
    return (
        f'{{"base":[{a},{b}],"checks":[{checks}],"config":{_config_text(cert.config)},'
        f'"f_class":{_fragment(cert.f_class)},"k":{cert.k},'
        f'"kind":"certificate","label":{_fragment(cert.label)},'
        f'"m_class":{_fragment(cert.m_class)},"n_class":{_fragment(cert.n_class)},'
        f'"nonfibre_ref":{_fragment(report.key if report else None)},'
        f'"pass":{_json_bool(cert.passed)},'
        f'"seshadri_axiom":{"null" if seshadri is None else _dump(seshadri)},'
        f'"snc_axiom":{_json_bool(cert.snc_axiom)},"surface_type":{cert.surface_type},'
        f'"vanishing_theorem":{_fragment(cert.vanishing_theorem)}}}\n'
    )


def _report_line(report: nonfibre.NonFibreReport) -> str:
    """`_dump({"kind": "nonfibre_report", **report.to_json()}) + "\\n"`, from cached fragments.

    Reports share their halves: the bounded cells by coefficient vector,
    correction, base and strictness, and the unbounded half by corrected
    fibres, k, base and, when both fibres are corrected, shared point.
    """
    return (
        f'{{"bounded":{_fragment(report.bounded)},"key":{_fragment(report.key)},'
        f'"kind":"nonfibre_report","label":{_fragment(report.label)},'
        f'"pass":{_json_bool(report.passed)},"unbounded":{_fragment(report.unbounded)}}}\n'
    )


Part = str | tuple[str, str]
Tally = dict[str, list[int]]
Result = tuple[Tally, list[Part]]


def _task_certs(task: Task) -> Result:
    """A task's tally, a [count, failed] per label, and its bundle text.

    Text is made only for a bundle.  A report comes as (key, line), before
    the certificate line that uses it, the first time this process uses it
    in the run; every line ends in a newline.  Tasks run in order in each
    process, so the first task to use a report always carries its line.
    """
    tally: Tally = {}
    parts: list[Part] = []
    for cert in engine.iter_certificates(task.surface, task.k, task.base, task.part):
        counts = tally.get(cert.label)
        if counts is None:
            counts = tally[cert.label] = [0, 0]
        counts[0] += 1
        counts[1] += not cert.passed
        if not task.lines:
            continue
        report = cert.nonfibre_report
        if report and report.key not in _sent:
            _sent.add(report.key)
            parts.append((report.key, _report_line(report)))
        parts.append(_certificate_line(cert))
    return tally, parts


def _write(stream: IO[str], parts: list[Part], seen: set[str]) -> list[str]:
    """Write a task's parts to the bundle and flush them; the keys of the reports written.

    A report line whose key is in `seen`, the reports already in the bundle,
    is skipped; the keys of the others join `seen`.
    """
    keys = []
    for part in parts:
        if isinstance(part, str):
            stream.write(part)
        elif part[0] not in seen:
            seen.add(part[0])
            keys.append(part[0])
            stream.write(part[1])
    stream.flush()
    return keys


def _owners(tasks: list[Task], jobs: int) -> list[int]:
    """The worker of each task under `--jobs`: units dealt round-robin in task order.

    A unit is a distinct (k, part.start), one slice of k's skeleton table.
    Numbered from 0 as they first appear, unit n goes to worker n mod
    `jobs`, with its task for every type, so the reports the types share at
    those skeletons are analysed in one process.
    """
    units: dict[tuple[int, int], int] = {}
    return [units.setdefault((t.k, t.part.start), len(units) % jobs) for t in tasks]


# a worker's next task: given the keys of the reports other workers have
# written since its last turn, its tally and the keys of the reports it wrote
Turn = Callable[[list[str]], tuple[Tally, list[str]]]


@contextlib.contextmanager
def _worker(tasks: list[Task], stream: IO[str] | None) -> Iterator[Turn]:
    """A forked process running `_task_certs` over `tasks`, writing their text itself.

    For each task in order, the child sends its tally as soon as it has it,
    then, with a bundle, waits for its turn.  Calling the turn reads that
    tally first, so a task that raised raises again here; it then sends the
    keys of the reports that other workers have written, and the child
    writes the task's text to `stream` (`_write`: it shares the bundle's
    file offset, and a report already there is skipped), flushes it, and
    sends back the keys it wrote.  The parent never sees the text.  The
    child stops at the first task or write that raises, sending the
    exception instead, and ends in `os._exit`, so it never flushes a buffer
    it inherited.  Leaving the context reaps it, killing it first if the
    parent stops before its last turn.
    """
    # imported here, so that a serial run does not load them
    import pickle
    import signal

    results_read, results_write = os.pipe()
    turns_read, turns_write = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: never returns
        code = 1
        try:
            os.close(results_read)
            os.close(turns_write)
            with os.fdopen(results_write, "wb") as out, os.fdopen(turns_read, "rb") as go:

                def send(message: tuple[bool, object]) -> None:
                    out.write(pickle.dumps(message, pickle.HIGHEST_PROTOCOL))
                    out.flush()

                seen: set[str] = set()
                try:
                    for task in tasks:
                        tally, parts = _task_certs(task)
                        send((True, tally))
                        if stream:
                            seen.update(pickle.load(go))
                            send((True, _write(stream, parts, seen)))
                        del tally, parts  # before the next task makes its own
                    code = 0
                except Exception as exc:
                    send((False, exc))
        finally:
            os._exit(code)
    os.close(results_write)
    os.close(turns_read)

    def receive():
        try:
            ok, value = pickle.load(results)
        except (EOFError, pickle.UnpicklingError):
            raise ChildProcessError(
                f"--jobs worker {pid} ended before its last turn"
            ) from None
        if not ok:
            raise value
        return value

    def turn(written: list[str]) -> tuple[Tally, list[str]]:
        tally = receive()
        if not stream:
            return tally, []
        turns.write(pickle.dumps(written, pickle.HIGHEST_PROTOCOL))
        turns.flush()
        return tally, receive()

    try:
        with os.fdopen(results_read, "rb") as results, os.fdopen(turns_write, "wb") as turns:
            yield turn
    except BaseException:
        os.kill(pid, signal.SIGKILL)  # busy with a task, or blocked on a pipe
        raise
    finally:
        os.waitpid(pid, 0)


def _iter_sweep(cfg: RunConfig, stream: IO[str] | None) -> Iterator[Tally]:
    """The tally of each task, in order, with its text written to `stream` (if any).

    A serial run maps `_task_certs` over the tasks and writes each task's
    text as it comes.  With `--jobs`, each worker that `_owners` plans (at
    most one per unit) runs its own tasks and writes their text itself,
    when the parent gives it the turn, in task order: the parent holds no
    text, only the keys of the reports each worker wrote, which it passes on
    to the others.  A worker that gets ahead waits for its turn.
    """
    _sent.clear()
    _fragments.clear()
    _encoded.clear()
    tasks = _tasks(cfg, stream is not None)
    owners = _owners(tasks, cfg.jobs)
    jobs = max(owners, default=0) + 1
    if jobs == 1:
        seen: set[str] = set()
        for task in tasks:
            tally, parts = _task_certs(task)
            if stream:
                _write(stream, parts, seen)
            del parts  # a task's whole text: free it before the next
            yield tally
        return
    nonfibre.implication_battery()  # built once, for every worker to inherit
    with contextlib.ExitStack() as stack:
        turns = [
            stack.enter_context(_worker([t for t, o in zip(tasks, owners) if o == w], stream))
            for w in range(jobs)
        ]
        written: list[str] = []  # the keys of the reports in the bundle, in order
        since = [0] * jobs  # how many of them each worker has been told of
        for owner in owners:
            tally, keys = turns[owner](written[since[owner]:])
            written += keys
            since[owner] = len(written)
            yield tally


def _run_config_json(cfg: RunConfig) -> dict:
    return {
        "mode": cfg.mode,
        "types": list(cfg.surface_types),
        "k": [cfg.k_min, cfg.k_max],
        "r_max": cfg.r_max,
        "base_class": list(cfg.base_class) if cfg.base_class else None,
    }


def run_verify(cfg: RunConfig, stream: IO[str] | None) -> engine.SweepSummary:
    """Sweep `cfg`'s scope; its summary, with the bundle written to `stream` (if any).

    With `--jobs`, forked workers write the certificate and report lines to
    the bundle's file themselves, so a bundle must then be a file (a
    descriptor): an in-memory stream raises ValueError before any fork.  The
    header is flushed before the workers fork, so that none of them
    inherits it unwritten.
    """
    if stream and cfg.jobs > 1:
        try:
            stream.fileno()
        except (AttributeError, io.UnsupportedOperation):
            raise ValueError("a --jobs bundle must be a file: its workers write to it") from None
    summary = engine.SweepSummary()
    if stream:
        header = {"kind": "header", "schema_version": SCHEMA_VERSION}
        stream.write(_dump({**header, "run": _run_config_json(cfg)}) + "\n")
        stream.flush()
    # closed on the way out, so that a run that stops early also ends the workers
    with contextlib.closing(_iter_sweep(cfg, stream)) as tallies:
        for tally in tallies:
            summary.merge(tally)
    if stream:
        closing = {"kind": "summary", "schema_version": SCHEMA_VERSION}
        stream.write(_dump({**closing, **summary.to_json()}) + "\n")
    return summary


def _cmd_verify(cfg: RunConfig, negative: bool) -> int:
    with open(cfg.out, "w") if cfg.out else contextlib.nullcontext() as stream:
        summary = run_verify(cfg, stream)
    payload = {"run": _run_config_json(cfg), **summary.to_json()}
    if negative:
        payload["failure_witness_found"] = summary.failed > 0
    if cfg.fmt == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(f"certificates: {summary.total}")
        for label, count in sorted(summary.label_counts.items()):
            print(f"  {label:<8} {count}")
        print(f"failed: {summary.failed}")
        if negative:
            print(
                "failure witness found"
                if summary.failed
                else "no failure witness found"
            )
    if negative:
        return 0 if summary.failed > 0 else 1
    return 0 if summary.all_passed else 1


def _emit(cfg: RunConfig, text: str, ok: bool) -> int:
    if cfg.out:
        Path(cfg.out).write_text(text + "\n")
    print(text)
    return 0 if ok else 1


def _cmd_matrix(cfg: RunConfig) -> int:
    """Full bounded-regime check matrices, once per distinct non-fibre report."""
    reports = {}
    for task in _tasks(cfg, False):
        for report in engine.iter_reports(task.surface, task.k, task.base, task.part):
            reports.setdefault(report.key, report)
    rows = [
        {"key": r.key, "label": r.label, "pass": r.passed,
         "cells": [c.to_json() for c in r.bounded]}
        for r in reports.values()
    ]
    if cfg.fmt == "json":
        text = json.dumps(
            {"schema_version": SCHEMA_VERSION, "matrices": rows}, sort_keys=True,
            indent=2,
        )
    else:
        lines = []
        for r in rows:
            lines.append(f"{r['key']}  [{'pass' if r['pass'] else 'FAIL'}]")
            for c in r["cells"]:
                a, b = c["class"]
                lines.append(
                    f"  ({a},{b}): min {c['min_value']:>4} {c['relation']} 0 "
                    f"at mults {c['witness_mults']}"
                    + ("" if c["pass"] else "  <-- FAIL")
                )
        text = "\n".join(lines)
    return _emit(cfg, text, all(r["pass"] for r in rows))


def _cmd_golden(cfg: RunConfig, computed: list[dict], golden: list[dict],
                render) -> int:
    """Recomputed table against its golden copy."""
    problems = tables.diff_tables(computed, golden)
    if cfg.fmt == "json":
        out = {
            "schema_version": SCHEMA_VERSION,
            "rows": computed,
            "golden_match": not problems,
            "problems": problems,
        }
        text = json.dumps(out, sort_keys=True, indent=2)
    else:
        text = render(computed)
        text += "\n" + (
            "golden copy: match"
            if not problems
            else "golden copy: MISMATCH\n" + "\n".join(problems)
        )
    return _emit(cfg, text, not problems)


def _cmd_lp_check(cfg: RunConfig) -> int:
    if cfg.system_path in (None, "-"):
        payload = json.load(sys.stdin)
    else:
        payload = json.loads(Path(cfg.system_path).read_text())
    sys_ = lp.LinearSystem.from_json(payload)
    result = lp.entails(sys_)
    out = {
        "schema_version": SCHEMA_VERSION,
        "system": sys_.to_json(),
        **result.to_json(),
    }
    return _emit(cfg, json.dumps(out, sort_keys=True, indent=2), result.is_valid)


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ConfigError, so they exit 2 with a JSON error record."""

    def error(self, message: str):
        raise ConfigError(message)


def _make_parser() -> argparse.ArgumentParser:
    arguments = {
        "--types": dict(dest="surface_types", metavar="TYPES", type=_parse_types,
                        help="comma list of types in 1..7, or 'all'"),
        "--k": dict(type=_parse_krange, help="k range, e.g. 2..5 or 3"),
        "--r-max": dict(dest="r_max", type=int, help="cap on the number of points"),
        "--class": dict(dest="base_class", metavar="CLASS", type=_parse_class,
                        help="base class a,b, e.g. 5,5"),
        "--jobs": dict(type=int, help="worker processes"),
        "--out": dict(help="output path"),
        "--format": dict(dest="fmt", choices=("text", "json")),
        "--config": dict(help="file of key = value lines, each read as its flag, "
                              "before the flags given here"),
        "system_path": dict(metavar="system", nargs="?", default="-",
                            help="JSON file with variables/constraints/target ('-' = stdin)"),
    }
    sweep = ("--types", "--k", "--r-max", "--class")
    # flags are spelled in full; a flag not given leaves its RunConfig default
    options = {"allow_abbrev": False, "argument_default": argparse.SUPPRESS}
    parser = _Parser(
        prog="hyperjet",
        description="exact jet-ampleness certificates on hyperelliptic surfaces",
        **options,
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode, help, names in (
        ("verify", "verify all configurations", (*sweep, "--jobs", "--format")),
        ("negative-control", "verify with a deficient base class",
         (*sweep, "--jobs", "--format")),
        ("table", "bounded-curve table vs golden copy", ("--format",)),
        ("matrix", "bounded-regime check matrices", (*sweep, "--format")),
        ("catalog", "surface catalog vs golden copy", ("--format",)),
        ("lp-check", "exact linear implication query (prints JSON)", ("system_path",)),
    ):
        p = sub.add_parser(mode, help=help, **options)
        for name in (*names, "--out", "--config"):
            p.add_argument(name, **arguments[name])
    return parser


def _run(cfg: RunConfig) -> int:
    """Run the mode `cfg` names; its exit status."""
    if cfg.mode == "verify":
        return _cmd_verify(cfg, negative=False)
    if cfg.mode == "negative-control":
        return _cmd_verify(cfg, negative=True)
    if cfg.mode == "matrix":
        return _cmd_matrix(cfg)
    if cfg.mode == "table":
        return _cmd_golden(
            cfg, tables.bounded_curve_rows(), tables.golden_bounded_curve_rows(),
            tables.render_curve_table,
        )
    if cfg.mode == "catalog":
        return _cmd_golden(
            cfg, tables.catalog_rows(), tables.golden_catalog_rows(),
            tables.render_catalog,
        )
    return _cmd_lp_check(cfg)


def main(argv: list[str] | None = None) -> int:
    """Run the command line `argv` (by default the process's); its exit status.

    A run makes no reference cycles (a test checks this), so it runs without
    the cycle collector: `main` turns it off, which `--jobs` workers inherit,
    collects the parser's cycles once, and restores the caller's setting on
    every way out.  As the process's entry (`argv` None), it also freezes
    every object the run kept, so that the interpreter's collections at exit
    do not walk the tables and caches.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        cfg = build_run_config(sys.argv[1:] if argv is None else argv)
        # argparse leaves its parsers in reference cycles (about 330 objects),
        # all made since the collector went off: a young collection frees them
        gc.collect(0)
        code = _run(cfg)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        # the reader of stdout is gone: end quietly, with the status a shell
        # reports for a process that SIGPIPE (13) ended; the interpreter's
        # last flush of stdout then goes nowhere instead of failing again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 128 + 13
    except (ConfigError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(
            json.dumps(
                {"error": {"type": type(exc).__name__, "message": str(exc)}},
                sort_keys=True,
            ),
            file=sys.stderr,
        )
        return 2
    finally:
        if enabled:
            gc.enable()
        if argv is None:
            gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
