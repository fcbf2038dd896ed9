import argparse
import contextlib
import errno
import gc
import hashlib
import io
import json
import os
import re
import select
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from hyperjet import cli, configurations, engine, nonfibre
from hyperjet.cli import main
from hyperjet.configurations import (
    ABlock,
    JetConfiguration,
    enumerate_configurations,
    skeleton_count,
)
from hyperjet.lattice import BlowupClass
from hyperjet.surfaces import surface


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_reports_precede_use(lines):
    """Every referenced non-fibre report appears exactly once, before first use."""
    seen = set()
    for line in lines:
        obj = json.loads(line)
        if obj["kind"] == "nonfibre_report":
            assert obj["key"] not in seen
            seen.add(obj["key"])
        elif obj["kind"] == "certificate" and obj["nonfibre_ref"]:
            assert obj["nonfibre_ref"] in seen


def inline_worker(tasks, stream):
    """A stand-in for `cli._worker` that runs each task in this process at its turn.

    It writes the task's text at the turn, as a forked worker does, so the
    bundle is still written in task order.
    """
    pending, seen = iter(tasks), set()

    def turn(written):
        tally, parts = cli._task_certs(next(pending))
        seen.update(written)
        return tally, cli._write(stream, parts, seen) if stream else []

    return contextlib.nullcontext(turn)


def record_forks(monkeypatch):
    """The pids of the processes forked from here on, in a list that grows."""
    pids, fork = [], os.fork

    def recorded():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recorded)
    return pids


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):  # no such child: it was waited for
            os.waitpid(pid, os.WNOHANG)


def test_catalog_text(capsys):
    code, out, _ = run_cli(capsys, "catalog")
    assert code == 0
    assert "golden copy: match" in out
    assert "Z3xZ3" in out


def test_table_text_and_json(capsys):
    code, out, _ = run_cli(capsys, "table")
    assert code == 0 and "golden copy: match" in out
    code, out, _ = run_cli(capsys, "table", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["golden_match"] is True
    assert len(payload["rows"]) == 10


def test_verify_small_run(capsys, tmp_path):
    bundle = tmp_path / "certs.jsonl"
    code, out, _ = run_cli(
        capsys, "verify", "--types", "1", "--k", "2", "--out", str(bundle)
    )
    assert code == 0
    assert "failed: 0" in out
    lines = bundle.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["kind"] == "header" and header["schema_version"] == "1"
    kinds = [json.loads(line)["kind"] for line in lines]
    assert "certificate" in kinds and "nonfibre_report" in kinds
    summary = json.loads(lines[-1])
    assert summary["kind"] == "summary" and summary["pass"] is True
    cert_lines = [json.loads(l) for l in lines if json.loads(l)["kind"] == "certificate"]
    assert summary["total"] == len(cert_lines)
    assert_reports_precede_use(lines)


def test_verify_bundles_are_byte_identical(capsys, tmp_path):
    b1, b2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    run_cli(capsys, "verify", "--types", "3", "--k", "2..3", "--out", str(b1))
    run_cli(capsys, "verify", "--types", "3", "--k", "2..3", "--out", str(b2))
    assert b1.read_bytes() == b2.read_bytes()


def test_bundle_bytes_are_pinned(capsys, tmp_path):
    # sha256 of these bundles as made by encoding each `Certificate.to_json`
    # dict whole; they do not depend on PYTHONHASHSEED
    pinned = {
        ("verify", "--types", "all", "--k", "2..4"):
            "fad663a259d5ebd9bd37aff1ef8a9902d0d218d7c293e3c224231ee9932f0d27",
        ("verify", "--types", "all", "--k", "2..6"):
            "4108cc8edad62b33b5039dfccd682b7395c53c1fee4418b722b69296cd2449b8",
        ("negative-control", "--types", "all", "--k", "2..4", "--class", "3,4"):
            "925fc3b2c5a8f2491e526c6dc50f3113a8d80011593c07e46ecc312746085beb",
    }
    bundle = tmp_path / "bundle.jsonl"
    for argv, digest in pinned.items():
        run_cli(capsys, *argv, "--out", str(bundle))
        assert hashlib.sha256(bundle.read_bytes()).hexdigest() == digest, argv


def test_bundle_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    src = str(Path(__file__).resolve().parent.parent / "src")
    for seed in ("0", "12345"):
        bundle = tmp_path / f"seed{seed}.jsonl"
        subprocess.run(
            [sys.executable, "-m", "hyperjet.cli", "verify", "--types", "all",
             "--k", "2..4", "--out", str(bundle)],
            capture_output=True, check=True,
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
        )
        assert hashlib.sha256(bundle.read_bytes()).hexdigest() == (
            "fad663a259d5ebd9bd37aff1ef8a9902d0d218d7c293e3c224231ee9932f0d27"
        ), seed


def test_certificate_lines_match_the_reference_encoding():
    scopes = [
        cli.RunConfig("verify", k_max=4),
        cli.RunConfig("verify", k_max=4, base_class=(3, 4)),
        cli.RunConfig("verify", k_max=4, r_max=2),
    ]
    count = r1 = 0
    for cfg in scopes:
        for task in cli._tasks(cfg, True):
            lines = [part for part in cli._task_certs(task)[1] if isinstance(part, str)]
            certs = engine.iter_certificates(task.surface, task.k, task.base, task.part)
            for line, cert in zip(lines, certs, strict=True):
                assert line == cli._dump({"kind": "certificate", **cert.to_json()}) + "\n"
                count += 1
                r1 += cert.seshadri_axiom is not None
    assert count > 3000  # 1,808 certificates in each of the first two scopes
    assert r1 == 3 * 7 * 3  # the single point (R1) of each type and k, in each scope


def test_report_lines_match_the_reference_encoding():
    for base in (None, (3, 4)):
        cfg = cli.RunConfig("verify", k_max=5, base_class=base)
        reports = {r.key: r for task in cli._tasks(cfg, False)
                   for r in engine.iter_reports(task.surface, task.k, task.base, task.part)}
        bundle = io.StringIO()
        cli.run_verify(cfg, bundle)
        lines = [line for line in bundle.getvalue().splitlines(keepends=True)
                 if line.startswith('{"bounded":')]
        assert len(lines) == len(reports) > 200, base  # 257 at either base
        for line in lines:
            report = reports[json.loads(line)["key"]]
            reference = {"kind": "nonfibre_report", **report.to_json()}
            assert line == cli._dump(reference) + "\n"
        # the class (3, 4) is below k+2 for every k: each report fails base-margin
        margins = [p.passed for r in reports.values() for p in r.unbounded.premises
                   if p.name == "base-margin"]
        assert len(margins) == len(reports)
        assert all(margins) if base is None else not any(margins)


def test_verify_json_summary(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--types", "2", "--k", "2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["run"]["types"] == [2]


def test_negative_control_exit_codes(capsys):
    code, out, _ = run_cli(
        capsys, "negative-control", "--types", "1", "--k", "2", "--class", "3,4"
    )
    assert code == 0
    assert "failure witness found" in out
    code, _, _ = run_cli(
        capsys, "negative-control", "--types", "1", "--k", "2", "--class", "4,4"
    )
    assert code == 1  # the standard class admits no failure witness


def test_negative_control_requires_class(capsys):
    code, _, err = run_cli(capsys, "negative-control", "--types", "1", "--k", "2")
    assert code == 2
    assert json.loads(err)["error"]["type"] == "ConfigError"


def test_rejects_k_below_two(capsys):
    for argv in (
        ("verify", "--types", "1", "--k", "1"),
        ("matrix", "--k", "1"),
        ("matrix", "--k", "-1"),  # an empty scope: nothing to check, not a pass
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ConfigError", argv
        assert "externally" in error["message"], argv


def test_lp_check_valid_and_counterexample(capsys, tmp_path):
    valid = {
        "variables": ["x", "y"],
        "constraints": [
            {"coeffs": ["1", "0"], "rel": ">=", "bound": "1"},
            {"coeffs": ["0", "1"], "rel": ">=", "bound": "1"},
        ],
        "target": {"coeffs": ["1", "1"], "rel": ">=", "bound": "2"},
    }
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(valid))
    code, out, _ = run_cli(capsys, "lp-check", str(path))
    assert code == 0
    assert json.loads(out)["status"] == "valid"

    invalid = dict(valid, target={"coeffs": ["1", "1"], "rel": ">=", "bound": "3"})
    path.write_text(json.dumps(invalid))
    code, out, _ = run_cli(capsys, "lp-check", str(path))
    assert code == 1
    assert json.loads(out)["status"] == "counterexample"


def test_config_file(capsys, tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("types = 5\nk = 2..2\nformat = json\n# comment\n")
    code, out, _ = run_cli(capsys, "verify", "--config", str(conf))
    assert code == 0
    payload = json.loads(out)
    assert payload["run"]["types"] == [5]
    # a `#` starts a comment only at the start of a line or after whitespace
    bundle = tmp_path / "run#2.jsonl"
    conf.write_text(f"types = 5\nout = {bundle}\njobs = 1  # serial\n")
    code, _, err = run_cli(capsys, "verify", "--config", str(conf))
    assert code == 0, err
    assert json.loads(bundle.read_text().splitlines()[-1])["kind"] == "summary"


def test_flags_override_config_file(capsys, tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("types = 5\nk = 2\n")
    code, out, _ = run_cli(
        capsys, "verify", "--config", str(conf), "--types", "6", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["run"]["types"] == [6]


def test_invalid_inputs_are_machine_readable(capsys, tmp_path):
    code, _, err = run_cli(capsys, "verify", "--types", "9", "--k", "2")
    assert code == 2
    assert json.loads(err)["error"]
    code, _, err = run_cli(capsys, "verify", "--types", "1", "--k", "nope")
    assert code == 2
    code, _, err = run_cli(capsys, "lp-check", str(tmp_path / "missing.json"))
    assert code == 2
    # malformed systems are input errors (exit 2), not failed implications
    target = {"coeffs": ["1"], "rel": ">=", "bound": "0"}
    system = {"variables": ["x"], "constraints": [], "target": target}
    path = tmp_path / "bad.json"
    for payload in (
        {"variables": ["x"], "constraints": []},
        dict(system, target=dict(target, coeffs=[1.5])),
        dict(system, target=dict(target, bound="1/0")),
        dict(system, target=dict(target, coeffs="1")),
        dict(system, target=dict(target, coeffs=[True])),
        [system],
        # a name that is not a string would be printed as one, or fail to hash
        dict(system, variables=[1]),
        dict(system, variables=[["x"]]),
        # a repeated name would let the counterexample keep only one column
        {"variables": ["x", "x"],
         "constraints": [{"coeffs": ["1", "0"], "rel": ">=", "bound": "5"}],
         "target": {"coeffs": ["0", "1"], "rel": ">=", "bound": "0"}},
    ):
        path.write_text(json.dumps(payload))
        code, _, err = run_cli(capsys, "lp-check", str(path))
        assert code == 2, payload
        assert json.loads(err)["error"]["type"] == "ValueError"
    conf = tmp_path / "typo.conf"
    conf.write_text("r_max = 2\n")
    code, _, err = run_cli(
        capsys, "verify", "--types", "1", "--k", "2..3", "--config", str(conf)
    )
    assert code == 2
    assert "r_max" in json.loads(err)["error"]["message"]
    # errors that argparse catches: a JSON error record too, not usage text
    for argv in (("--jobs", "x"), ("--r-max", "x"), ("--format", "xml"), ("--bogus",),
                 ("--class", "-3,5"),  # -3,5 reads as a flag: write --class=-3,5
                 ("--out", "")):  # an empty path would write no bundle
        code, out, err = run_cli(capsys, "verify", "--types", "1", "--k", "2", *argv)
        assert code == 2 and out == "", argv
        assert json.loads(err)["error"]["type"] == "ConfigError", argv
    for key, value in (("jobs", "x"), ("r-max", "x"), ("out", ""), ("config", "x")):
        conf.write_text(f"{key} = {value}\n")
        code, _, err = run_cli(
            capsys, "verify", "--types", "1", "--k", "2", "--config", str(conf)
        )
        assert code == 2
        assert key in json.loads(err)["error"]["message"]


def test_config_keys_are_accepted_exactly_where_their_flags_are(capsys, tmp_path):
    system = tmp_path / "sys.json"
    target = {"coeffs": ["1"], "rel": ">=", "bound": "0"}
    system.write_text(json.dumps({"variables": ["x"], "constraints": [], "target": target}))
    scopes = {
        "verify": ("--types", "1", "--k", "2"),
        "negative-control": ("--types", "1", "--k", "2", "--class", "3,4"),
        "table": (),
        "matrix": ("--types", "1", "--k", "2"),
        "catalog": (),
        "lp-check": (str(system),),
    }
    values = {"types": "1", "k": "2", "r-max": "1", "class": "3,4", "jobs": "1",
              "format": "json", "out": str(tmp_path / "out.txt"), "typ": "1"}
    conf = tmp_path / "key.conf"
    rejected = set()
    for mode, scope in scopes.items():
        for key, value in values.items():
            flag_code, _, _ = run_cli(capsys, mode, *scope, f"--{key}", value)
            conf.write_text(f"{key} = {value}\n")
            code, out, err = run_cli(capsys, mode, *scope, "--config", str(conf))
            assert (code == 2) == (flag_code == 2), (mode, key, err)
            if code == 2:
                assert out == "" and key in json.loads(err)["error"]["message"]
                rejected.add((mode, key))
    sweep = {"types", "k", "r-max", "class"}
    assert rejected == {(mode, key) for mode, keys in (
        ("verify", {"typ"}),  # flags and keys are spelled in full
        ("negative-control", {"typ"}),
        ("table", sweep | {"jobs", "typ"}),
        ("matrix", {"jobs", "typ"}),
        ("catalog", sweep | {"jobs", "typ"}),
        ("lp-check", sweep | {"jobs", "format", "typ"}),  # it always prints JSON
    ) for key in keys}


def test_readme_command_lines_use_the_flags_of_each_mode():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## Command line\n")[1].split("\n#")[0]
    parser = cli._make_parser()
    commands = [line for line in section.splitlines() if line.startswith("hyperjet ")]
    assert len(commands) >= 8
    for line in commands:
        parser.parse_args(shlex.split(line, comments=True)[1:])  # raises on a bad flag
    # the table of each mode's flags is the parser's, and so is each --help
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    declared = {mode: {flag for action in p._actions for flag in action.option_strings}
                - {"-h", "--help"} for mode, p in subparsers.choices.items()}
    documented = {}
    for row in section.splitlines():
        if row.startswith("| `"):
            modes, flags = row.split("|")[1:3]
            for mode in re.findall(r"`([\w-]+)`", modes):
                documented[mode] = set(re.findall(r"`(--[\w-]+)`", flags))
    assert documented == declared
    for mode, flags in declared.items():
        listed = re.findall(r"^  (--[\w-]+)", subparsers.choices[mode].format_help(), re.M)
        assert set(listed) == flags, mode


def test_closed_stdout_ends_the_run_quietly(tmp_path):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = src
    missing = str(tmp_path / "missing" / "certs.jsonl")
    for unbuffered in ({}, {"PYTHONUNBUFFERED": "1"}):
        for argv, status in ((["catalog"], 141),
                             (["verify", "--types", "1", "--k", "2"], 141),
                             (["verify", "--types", "1", "--k", "2", "--out", missing], 2)):
            read, write = os.pipe()
            os.close(read)  # the reader is gone before the run starts
            try:
                proc = subprocess.run([sys.executable, "-m", "hyperjet.cli", *argv],
                                      stdout=write, stderr=subprocess.PIPE,
                                      env={**env, **unbuffered}, timeout=120)
            finally:
                os.close(write)
            assert proc.returncode == status, (unbuffered, argv, proc.stderr)
            if status == 141:  # as a shell reports SIGPIPE, with nothing on stderr
                assert proc.stderr == b"", (unbuffered, argv)
            else:  # a bundle file that cannot be written is still an input error
                assert json.loads(proc.stderr)["error"]["type"] == "FileNotFoundError"


def test_a_run_makes_no_reference_cycles():
    # with none, the collector has nothing to find, and `main` runs without it
    cfg = cli.build_run_config(["verify", "--types", "all", "--k", "2..5"])
    gc.collect()  # the parser's own cycles stay outside the measurement
    enabled, flags, garbage = gc.isenabled(), gc.get_debug(), gc.garbage[:]
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    gc.garbage.clear()
    try:
        # earlier tests may have cached the k 2..5 tables: build them anew
        for total in range(3, 7):
            for weights in configurations.weight_partitions(total):
                configurations.incidence_structures(weights)
        cli.run_verify(cfg, io.StringIO())
        gc.collect()
        left = sorted({type(obj).__name__ for obj in gc.garbage})
        assert not gc.garbage, f"{len(gc.garbage)} objects in cycles, of types {left}"
    finally:
        gc.set_debug(flags)
        gc.garbage[:] = garbage
        if enabled:
            gc.enable()


def test_main_leaves_no_reference_cycles(capsys):
    # the parser's cycles included: `main` collects them before the run
    enabled, flags, garbage = gc.isenabled(), gc.get_debug(), gc.garbage[:]
    gc.collect()
    gc.disable()  # no collection between `main` and the one below
    try:
        assert main(["verify", "--types", "1", "--k", "2"]) == 0
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.garbage.clear()
        gc.collect()
        left = sorted({type(obj).__name__ for obj in gc.garbage})
        assert not gc.garbage, f"{len(gc.garbage)} objects in cycles, of types {left}"
    finally:
        gc.set_debug(flags)
        gc.garbage[:] = garbage
        if enabled:
            gc.enable()
    capsys.readouterr()


def test_main_leaves_the_collector_as_it_found_it(capsys):
    def closed_stdout_catalog():
        # the reader of stdout is gone: `main` ends quietly with status 141
        read, write = os.pipe()
        os.close(read)
        stdout, sys.stdout = sys.stdout, os.fdopen(write, "w")
        try:
            return main(["catalog"])
        finally:
            sys.stdout.close()
            sys.stdout = stdout

    runs = (
        (lambda: main(["verify", "--types", "1", "--k", "2"]), 0),
        (lambda: main(["verify", "--types", "9"]), 2),
        (closed_stdout_catalog, 141),
    )
    enabled = gc.isenabled()
    try:
        for on in (True, False):
            gc.enable() if on else gc.disable()
            for run, status in runs:
                frozen = gc.get_freeze_count()
                assert run() == status
                assert gc.isenabled() == on and gc.get_freeze_count() == frozen, status
    finally:
        gc.enable() if enabled else gc.disable()
    capsys.readouterr()
    # as the process's entry, `main` freezes what the run kept before it returns
    script = (
        "import gc, sys\n"
        "from hyperjet.cli import main\n"
        "sys.argv = ['hyperjet', 'verify', '--types', '1', '--k', '2']\n"
        "code = main()\n"
        "print(code, gc.isenabled(), gc.get_freeze_count() > 0, file=sys.stderr)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.stderr.split() == ["0", "True", "True"], proc.stderr


def test_matrix_dump(capsys):
    code, out, _ = run_cli(capsys, "matrix", "--types", "1", "--k", "2")
    assert code == 0
    assert "(4,4): min" in out and "FAIL" not in out
    code, out, _ = run_cli(capsys, "matrix", "--types", "1", "--k", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["matrices"] and all(
        len(m["cells"]) == 16 for m in payload["matrices"]
    )
    # the bytes `table --matrix` printed before the dump became its own mode
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "7ce0fa665552a69bcc7b66f7afd3ad4bc795020f59851f43da790e0283117614"
    )


def test_matrix_config_file_matches_its_flags(capsys, tmp_path):
    conf = tmp_path / "matrix.conf"
    conf.write_text("types = 1\nk = 2\nformat = json\n")
    code, from_file, err = run_cli(capsys, "matrix", "--config", str(conf))
    assert code == 0, err
    code, from_flags, _ = run_cli(capsys, "matrix", "--types", "1", "--k", "2",
                                  "--format", "json")
    assert code == 0 and from_file == from_flags


def test_table_matrix_builds_no_certificates(capsys, monkeypatch):
    calls = []
    certify_fibres = engine.certify_fibres

    def counted(*args, **kwargs):
        calls.append(args)
        return certify_fibres(*args, **kwargs)

    monkeypatch.setattr(engine, "certify_fibres", counted)
    code, out, _ = run_cli(
        capsys, "matrix", "--types", "all", "--k", "2..4", "--format", "json"
    )
    assert code == 0 and calls == []
    # the output as written when the matrices were read off whole certificates
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "d58d5c02ebba8cfb42f5f94ecc59b00854663d5cee43110c343741c09f00e688"
    )
    run_cli(capsys, "verify", "--types", "1", "--k", "2")
    assert calls  # the counter sees the certificate path


def test_jobs_are_capped_at_the_unit_count(capsys, monkeypatch):
    workers = []

    def counted(tasks, stream):
        workers.append(tasks)
        return inline_worker(tasks, stream)

    monkeypatch.setattr(cli, "_worker", counted)
    for types in ("1", "1,2"):  # one unit, k 2, shared by the types: the serial path
        code, _, _ = run_cli(capsys, "verify", "--types", types, "--k", "2", "--jobs", "8")
        assert code == 0 and workers == [], types
    for types in ("1", "1,2"):  # two units, k 2 and k 3
        workers.clear()
        code, _, _ = run_cli(
            capsys, "verify", "--types", types, "--k", "2..3", "--jobs", "8"
        )
        assert code == 0 and len(workers) == 2, types
        assert [{t.k for t in tasks} for tasks in workers] == [{2}, {3}], types


def test_owners_deal_each_unit_to_one_worker_round_robin():
    tasks = cli._tasks(cli.RunConfig("verify", k_max=6), False)
    # units in task order: the (k, slice start) pairs of the first type
    units = list(dict.fromkeys((t.k, t.part.start) for t in tasks))
    assert len(tasks) == 7 * len(units) and len(units) > 3
    for jobs in (1, 2, 3, len(units) + 1):
        plan = {}
        for task, owner in zip(tasks, cli._owners(tasks, jobs), strict=True):
            # every type's slice of a unit goes to the same worker
            assert plan.setdefault((task.k, task.part.start), owner) == owner, jobs
        assert [plan[unit] for unit in units] == [i % jobs for i in range(len(units))]


def test_serial_run_calls_the_task_function_once_per_task(monkeypatch):
    calls = []
    task_certs = cli._task_certs

    def counted(task):
        calls.append(task)
        return task_certs(task)

    monkeypatch.setattr(cli, "_task_certs", counted)
    cfg = cli.RunConfig("verify", k_max=3)
    cli.run_verify(cfg, io.StringIO())
    # the function each --jobs worker also runs per task, which the
    # benchmark's tracer counts
    assert len(calls) == len(cli._tasks(cfg, True))


def test_serial_bundle_encodes_each_report_once(capsys, tmp_path, monkeypatch):
    encoded, checks, configs, blocks, tuples, classes, unbounded, cells = ([] for _ in range(8))
    # a report line is made by `cli._report_line`, not `NonFibreReport.to_json`
    report_line, dump = cli._report_line, cli._dump

    def counted(report):
        encoded.append(report.key)
        return report_line(report)

    def counted_dump(obj):
        if isinstance(obj, tuple):  # block lists and weight vectors
            tuples.append(obj)
        return dump(obj)

    def counting(cls, into, key):
        to_json = cls.to_json

        def wrapper(obj):
            into.append(key(obj))
            return to_json(obj)

        monkeypatch.setattr(cls, "to_json", wrapper)

    monkeypatch.setattr(cli, "_report_line", counted)
    monkeypatch.setattr(cli, "_dump", counted_dump)
    counting(engine.CheckRecord, checks, id)
    counting(JetConfiguration, configs, id)
    counting(ABlock, blocks, lambda b: b)
    counting(BlowupClass, classes, lambda c: c)
    counting(nonfibre.UnboundedReport, unbounded, id)
    counting(nonfibre.BoundedCellCheck, cells, id)
    monkeypatch.setattr(cli, "_worker", inline_worker)
    bundle = tmp_path / "certs.jsonl"
    # serially, then through in-process workers: one cache for the whole run,
    # so the fibre records that types 1 and 3 share at each k are encoded once
    for jobs in ("1", "2"):
        for counts in (encoded, checks, configs, blocks, tuples, classes, unbounded, cells):
            counts.clear()
        code, _, _ = run_cli(capsys, "verify", "--types", "1,3", "--k", "2..5",
                             "--jobs", jobs, "--out", str(bundle))
        assert code == 0
        written = [line for line in bundle.read_text().splitlines()
                   if '"kind":"nonfibre_report"' in line]
        assert len(encoded) == len(set(encoded)) == len(written), jobs
        assert checks and len(checks) == len(set(checks)), jobs
        # a configuration's text is made from its A-blocks, its B-block
        # tuple and its weight tuple, each encoded once per distinct value
        assert configs == [], jobs
        assert blocks and len(blocks) == len(set(blocks)), jobs
        assert tuples and len(tuples) == len(set(tuples)), jobs
        assert classes and len(classes) == len(set(classes)), jobs
        # one unbounded half per label, k and shared point, not one per report
        assert unbounded and len(unbounded) == len(set(unbounded)) < len(written) / 4, jobs
        # each distinct tuple of bounded cells once, though reports share them:
        # a cell belongs to one tuple, so each cell is encoded once
        assert cells and len(cells) == len(set(cells)) < 16 * len(written), jobs


FRAGMENT_PROBE = """
import contextlib, io, json, sys
from hyperjet import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["verify", "--types", "all", "--k", "2..6", "--out", sys.argv[1]]) == 0
texts = list(cli._fragments.values())
print(json.dumps({"entries": len(texts), "texts": len(set(texts))}))
"""


def test_every_fragment_text_is_encoded_once(tmp_path):
    """A serial run's fragment cache holds no text twice.

    The cache is keyed by identity, so this holds when every value a bundle
    line encodes is one object per value.  Run in a fresh interpreter, so
    the interned values are this run's.
    """
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run([sys.executable, "-c", FRAGMENT_PROBE, str(tmp_path / "certs.jsonl")],
                         capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
                         check=True)
    got = json.loads(out.stdout)
    assert got["entries"] == got["texts"] > 4000, got


def test_cli_import_leaves_multiprocessing_unloaded():
    probe = "import sys, hyperjet.cli; print('multiprocessing' in sys.modules)"
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src}, check=True)
    assert out.stdout.strip() == "False"


def test_parallel_jobs_match_serial(capsys, tmp_path):
    # k = 5 has 348 skeletons: each (type, 5) is three shards
    assert skeleton_count(5, 6) > 2 * cli.SHARD_SKELETONS
    b1, b2 = tmp_path / "serial.jsonl", tmp_path / "par.jsonl"
    for argv in (
        ("verify", "--types", "1,2", "--k", "2..3"),
        ("verify", "--types", "1,7", "--k", "2..5"),
        ("verify", "--types", "1,7", "--k", "2..5", "--r-max", "3"),
        ("negative-control", "--types", "1,7", "--k", "2..5", "--class", "3,4"),
    ):
        run_cli(capsys, *argv, "--out", str(b1))
        run_cli(capsys, *argv, "--jobs", "2", "--out", str(b2))
        assert b1.read_bytes() == b2.read_bytes(), argv


def test_runs_in_one_process_start_with_fresh_encoders(capsys, tmp_path, monkeypatch):
    # a report sent in one run must be sent again in the next, whichever path
    argv = ("verify", "--types", "1,7", "--k", "2..5")
    serial, inline, forked = (tmp_path / f"{n}.jsonl" for n in range(3))
    run_cli(capsys, *argv, "--out", str(serial))
    with monkeypatch.context() as m:
        m.setattr(cli, "_worker", inline_worker)
        run_cli(capsys, *argv, "--jobs", "2", "--out", str(inline))
    run_cli(capsys, *argv, "--jobs", "2", "--out", str(forked))
    assert serial.read_bytes() == inline.read_bytes() == forked.read_bytes()
    assert_reports_precede_use(serial.read_text().splitlines())


def test_a_failing_task_in_a_worker_ends_the_run_as_serially(capsys, tmp_path, monkeypatch):
    forked = record_forks(monkeypatch)
    task_certs = cli._task_certs

    def failing(task):  # forked workers inherit it
        if (task.surface.type_id, task.k) == (2, 3):
            raise ValueError("no certificates for type 2 at k 3")
        if (task.surface.type_id, task.k) == (2, 4):  # the next task: a serial run stops before it
            time.sleep(60)
        return task_certs(task)

    monkeypatch.setattr(cli, "_task_certs", failing)
    bundles = []
    for jobs in ("1", "2"):
        bundles.append(tmp_path / f"jobs{jobs}.jsonl")
        start = time.monotonic()
        code, out, err = run_cli(capsys, "verify", "--types", "1,2", "--k", "2..4",
                                 "--jobs", jobs, "--out", str(bundles[-1]))
        # the other worker, busy with the next task, is killed, not waited for
        assert time.monotonic() - start < 30, jobs
        assert code == 2 and out == "", jobs
        assert json.loads(err) == {"error": {
            "type": "ValueError", "message": "no certificates for type 2 at k 3"}}, jobs
    # the tasks before the failing one, written once each, the header once
    assert bundles[0].read_bytes() == bundles[1].read_bytes()
    assert bundles[1].read_text().count('"kind":"header"') == 1
    assert len(forked) == 2
    assert_reaped(forked)


def test_no_worker_outlives_a_run(capsys, tmp_path, monkeypatch):
    forked = record_forks(monkeypatch)
    argv = ("verify", "--types", "1,7", "--k", "2..5", "--jobs", "3")
    code, _, _ = run_cli(capsys, *argv, "--out", str(tmp_path / "certs.jsonl"))
    assert code == 0 and len(forked) == 3
    assert_reaped(forked)
    # a bundle that takes no bytes: the header's flush fails, before any fork
    forked.clear()
    code, _, err = run_cli(capsys, *argv, "--out", "/dev/full")
    assert code == 2 and json.loads(err)["error"]["type"] == "OSError"
    assert forked == []
    # a worker's own write that fails, after the header and other tasks' text
    write, parent = cli._write, os.getpid()

    def full(stream, parts, seen):  # forked workers inherit it
        if os.getpid() != parent and '"k":4' in parts[-1]:
            raise OSError(errno.ENOSPC, "No space left on device")
        return write(stream, parts, seen)

    monkeypatch.setattr(cli, "_write", full)
    code, _, err = run_cli(capsys, *argv, "--out", str(tmp_path / "full.jsonl"))
    assert code == 2 and json.loads(err) == {"error": {
        "type": "OSError", "message": "[Errno 28] No space left on device"}}
    assert len(forked) == 3
    assert_reaped(forked)
    assert (tmp_path / "full.jsonl").read_text().count('"kind":"certificate"') > 0


def reader_of(limit):
    """A process that reads `limit` bytes of what is written to it, then leaves.

    A pipe to another process: the bundle's --jobs workers, forked from this
    one, then hold no read end of it, so once the reader has left every
    write to it fails with EPIPE.
    """
    probe = f"import sys; sys.stdin.buffer.read({limit})"
    return subprocess.Popen([sys.executable, "-c", probe], stdin=subprocess.PIPE, text=True)


def test_a_parent_that_stops_early_reaps_its_workers(monkeypatch):
    forked = record_forks(monkeypatch)
    cfg = cli.RunConfig("verify", surface_types=(1, 7), k_max=5, jobs=2)
    for limit in (100, 300_000):  # in the header, or after some tasks
        forked.clear()
        reader = reader_of(limit)
        try:
            with pytest.raises(BrokenPipeError) as caught:
                cli.run_verify(cfg, reader.stdin)
            assert len(forked) == 2, limit
            assert_reaped(forked)  # while the exception holds the frames it unwound
            assert caught.value.errno == errno.EPIPE
        finally:
            assert reader.wait(timeout=60) == 0
            with contextlib.suppress(BrokenPipeError):
                reader.stdin.close()


def test_a_jobs_bundle_must_be_a_file(monkeypatch):
    forked = record_forks(monkeypatch)
    cfg = cli.RunConfig("verify", surface_types=(1, 7), k_max=5, jobs=2)
    stream = io.StringIO()
    with pytest.raises(ValueError, match="must be a file"):
        cli.run_verify(cfg, stream)
    assert forked == [] and stream.getvalue() == ""
    assert cli.run_verify(cfg, None).all_passed and len(forked) == 2  # no bundle: no file


def test_the_parent_of_a_jobs_run_gets_no_text(capsys, tmp_path, monkeypatch):
    """Workers write their text to the bundle; their pipes carry tallies and keys."""
    received, fdopen, parent = [], os.fdopen, os.getpid()

    class Counted:
        def __init__(self, f):
            self.f = f

        def read(self, n=-1):
            data = self.f.read(n)
            received.append(len(data))
            return data

        def readline(self):
            data = self.f.readline()
            received.append(len(data))
            return data

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

    def counted(fd, mode="r", *args, **kwargs):
        f = fdopen(fd, mode, *args, **kwargs)
        return Counted(f) if mode == "rb" and os.getpid() == parent else f

    monkeypatch.setattr(os, "fdopen", counted)
    argv = ("verify", "--types", "1,7", "--k", "2..5")
    serial, forked = tmp_path / "serial.jsonl", tmp_path / "forked.jsonl"
    run_cli(capsys, *argv, "--out", str(serial))
    assert received == []
    code, _, _ = run_cli(capsys, *argv, "--jobs", "2", "--out", str(forked))
    assert code == 0 and len(received) > 0
    assert sum(received) < 64 * 1024 and forked.stat().st_size > 1024 * 1024
    assert forked.read_bytes() == serial.read_bytes()
    # a worker that raises in its write turn: its own exception ends the run
    write = cli._write

    def failing(stream, parts, seen):  # forked workers inherit it
        if os.getpid() != parent and '"surface_type":7' in parts[-1]:
            raise ValueError("cannot write type 7")
        return write(stream, parts, seen)

    monkeypatch.setattr(cli, "_write", failing)
    code, out, err = run_cli(capsys, *argv, "--jobs", "2", "--out", str(forked))
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": {"type": "ValueError", "message": "cannot write type 7"}}


def test_a_closed_stdout_ends_a_jobs_run_and_its_workers():
    # the bundle goes to stdout, whose reader leaves after the header; a
    # pipe end that only the CLI and its workers hold is at EOF once all
    # of them have exited
    src = str(Path(__file__).resolve().parent.parent / "src")
    held, kept = os.pipe()
    proc = subprocess.Popen(
        [sys.executable, "-m", "hyperjet.cli", "verify", "--types", "1,7", "--k", "2..5",
         "--jobs", "2", "--out", "/dev/stdout"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, pass_fds=(kept,),
        env={**os.environ, "PYTHONPATH": src},
    )
    os.close(kept)
    try:
        assert json.loads(proc.stdout.readline())["kind"] == "header"
        proc.stdout.close()
        assert proc.wait(timeout=120) == 128 + 13
        assert proc.stderr.read() == b""
        # no worker left: not even a moment's wait for the held end's EOF
        assert select.select([held], [], [], 0)[0] == [held] and os.read(held, 1) == b""
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
        os.close(held)


def test_shards_concatenate_to_the_whole_enumeration():
    for type_id in (1, 7):
        s = surface(type_id)
        for r_max in range(1, 7):
            cfg = cli.RunConfig("verify", surface_types=(type_id,), k_min=5, k_max=5,
                                r_max=r_max)
            shards = cli._tasks(cfg, False)
            sizes = [t.part.stop - t.part.start for t in shards]
            assert all(0 < n <= cli.SHARD_SKELETONS for n in sizes), (r_max, sizes)
            sharded = [c for t in shards for c in enumerate_configurations(5, s, part=t.part)]
            whole = slice(0, skeleton_count(5, r_max))
            assert sharded == list(enumerate_configurations(5, s, part=whole)), r_max
        assert len(shards) == 3


def test_r_max_above_k_plus_one_is_capped_per_k(capsys, tmp_path):
    bundle = tmp_path / "capped.jsonl"
    code, _, err = run_cli(
        capsys, "verify", "--types", "1", "--k", "2..4", "--r-max", "4",
        "--out", str(bundle),
    )
    assert code == 0, err
    records = [json.loads(line) for line in bundle.read_text().splitlines()]
    summary = records[-1]
    assert summary["kind"] == "summary" and summary["pass"] is True
    certs = [r for r in records if r["kind"] == "certificate"]
    assert summary["total"] == len(certs)
    assert {len(c["config"]["weights"]) for c in certs} == {1, 2, 3, 4}
    code, _, err = run_cli(capsys, "matrix", "--types", "1", "--k", "2..4", "--r-max", "4")
    assert code == 0, err
