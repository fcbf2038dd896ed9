import argparse
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from hyperjet import cli, engine, nonfibre
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


class InlinePool:
    """A stand-in for `cli.Pool` that runs the tasks in this process."""

    def __init__(self, processes):
        self.processes = processes

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def imap(self, fn, items):
        return map(fn, items)


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
            lines = [part for part in cli._task(task, {}) if isinstance(part, str)]
            certs = engine.iter_certificates(*cli._scope(task))
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
                   for r in engine.iter_reports(*cli._scope(task))}
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
    code, _, err = run_cli(capsys, "verify", "--types", "1", "--k", "1")
    assert code == 2
    assert "externally" in json.loads(err)["error"]["message"]


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


def test_jobs_are_capped_at_the_task_count(capsys, monkeypatch):
    sizes = []

    class SizedPool(InlinePool):
        def __init__(self, processes):
            sizes.append(processes)

    monkeypatch.setattr(cli, "Pool", SizedPool)
    code, _, _ = run_cli(capsys, "verify", "--types", "1", "--k", "2", "--jobs", "8")
    assert code == 0 and sizes == []  # one task: the serial path
    code, _, _ = run_cli(
        capsys, "verify", "--types", "1", "--k", "2..3", "--jobs", "8"
    )
    assert code == 0 and sizes == [2]


def test_serial_bundle_encodes_each_report_once(capsys, tmp_path, monkeypatch):
    encoded, checks, configs, blocks, tuples, classes, unbounded = ([] for _ in range(7))
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
    monkeypatch.setattr(cli, "Pool", InlinePool)
    bundle = tmp_path / "certs.jsonl"
    # serially, then through the in-process pool: one cache for the whole run,
    # so the fibre records that types 1 and 3 share at each k are encoded once
    for jobs in ("1", "2"):
        for counts in (encoded, checks, configs, blocks, tuples, classes, unbounded):
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
        m.setattr(cli, "Pool", InlinePool)
        run_cli(capsys, *argv, "--jobs", "2", "--out", str(inline))
    run_cli(capsys, *argv, "--jobs", "2", "--out", str(forked))
    assert serial.read_bytes() == inline.read_bytes() == forked.read_bytes()
    assert_reports_precede_use(serial.read_text().splitlines())


def test_shards_concatenate_to_the_whole_enumeration():
    for type_id in (1, 7):
        s = surface(type_id)
        for r_max in range(1, 7):
            cfg = cli.RunConfig("verify", surface_types=(type_id,), k_min=5, k_max=5,
                                r_max=r_max)
            shards = cli._tasks(cfg, False)
            sizes = [t.part.stop - t.part.start for t in shards]
            assert all(0 < n <= cli.SHARD_SKELETONS for n in sizes), (r_max, sizes)
            sharded = [c for t in shards
                       for c in enumerate_configurations(5, s, r_max, t.part)]
            assert sharded == list(enumerate_configurations(5, s, r_max)), r_max
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
