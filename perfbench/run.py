"""Benchmark of hyperjet's certificate sweep, run the way users run it.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Each timed operation is one fresh ``hyperjet verify`` process started through
the CLI entry point, from launch to exit with its verdict.  Every process of
the program runs on one CPU, beside a low-priority reference load that
measures how fast that CPU runs meanwhile (see reference.py); the untraced
times are expressed at the reference's nominal speed.  With ``--trace 0``
the run reports the end-to-end metrics; with ``--trace 1`` it alternates
untraced and traced invocations and reports the per-layer metrics (see
tracer.py).  Every run checks the program's outputs with checks.py after the
clock stops.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, where attempted and failed
count certificates.  See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
from reference import CpuReference, ReferenceFailed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-out"
TRACER = Path(__file__).resolve().parent / "tracer.py"
TYPES = tuple(range(1, 8))
SETUP_SAMPLES = 20  # at least this many per run
SETUP_BATCH = 4
CLI = "import sys; from hyperjet.cli import main; sys.exit(main())"
# Everything a run pays before its first certificate: interpreter start,
# the package import, and the shared LP implication battery.
SETUP_PROBE = (
    "import hyperjet.cli\n"
    "from hyperjet import nonfibre\n"
    "getattr(nonfibre, 'implication_battery', lambda: None)()\n"
)
MB = 1 << 20
LAUNCH_TIMEOUT_S = 120  # a run must end within 180 s
TRACE_PAIRS = 3  # untraced/traced pairs of a traced run
PAGE = os.sysconf("SC_PAGE_SIZE")
# The program's processes and the reference run on the last CPU the
# benchmark may use; the benchmark's own process keeps to the others.
CPUS = sorted(os.sched_getaffinity(0))
BENCH_CPU = CPUS[-1]


@dataclass(frozen=True)
class Workload:
    k_max: int
    jobs: int
    bundle: bool

    def argv(self, out: Path | None) -> list[str]:
        argv = ["verify", "--types", "all", "--k", f"2..{self.k_max}", "--format", "json"]
        if out is not None:
            argv += ["--out", str(out)]
        if self.jobs > 1:
            argv += ["--jobs", str(self.jobs)]
        return argv


WORKLOADS = {
    "sweep": Workload(k_max=6, jobs=1, bundle=False),
    "bundle": Workload(k_max=6, jobs=1, bundle=True),
    "parallel": Workload(k_max=6, jobs=2, bundle=True),
}

END_TO_END = {"verdict_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "configurations.enumerate_s": "s",
    "configurations.configs": "count",
    "configurations.classify_s": "s",
    "configurations.classify_calls": "count",
    "configurations.validate_calls": "count",
    "engine.verify_s": "s",
    "engine.verify_self_s": "s",
    "engine.certify_fibres_s": "s",
    "engine.fibre_checks": "count",
    "lattice.blowup_intersect_calls": "count",
    "nonfibre.analyse_s": "s",
    "nonfibre.analyse_calls": "count",
    "nonfibre.reports_distinct": "count",
    "nonfibre.report_reuse": "ratio",
    "nonfibre.cold_s": "s",
    "nonfibre.warm_s": "s",
    "lp.entails_s": "s",
    "lp.entails_calls": "count",
    "cli.import_s": "s",
    "cli.serialize_s": "s",
    "cli.write_s": "s",
    "cli.bundle_bytes": "bytes",
    "cli.bundle_records": "count",
    "cli.tasks": "count",
    "cli.task_max_s": "s",
    "cli.task_max_share": "ratio",
    "cli.result_bytes": "bytes",
    "cli.parent_wait_s": "s",
    "cli.parent_cpu_s": "s",
    "cli.worker_cpu_s": "s",
    "cli.task_peak_certs": "count",
    "cli.self_s": "s",
    "trace.verdict_s": "s",
    "trace.startup_s": "s",
    "trace.exit_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


SERIALIZE = ("engine.to_json", "nonfibre.to_json", "engine.summary_to_json", "cli.dump")


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# One process: wall time, CPU of it and its children, peak memory
# ---------------------------------------------------------------------------


def _tree_rss(pid: int) -> int:
    """Resident bytes of pid and all its descendants, read from /proc."""
    total, todo = 0, [pid]
    while todo:
        p = todo.pop()
        try:
            with open(f"/proc/{p}/statm") as f:
                total += int(f.read().split()[1]) * PAGE
            for tid in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{tid}/children") as f:
                    todo.extend(int(c) for c in f.read().split())
        except (OSError, ValueError, IndexError):
            continue
    return total


@dataclass(frozen=True)
class Invocation:
    start: float  # time.perf_counter() at launch; CLOCK_MONOTONIC, shared by processes
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    code: int
    stdout: str
    stderr: str


def launch(argv: list[str], work: Path) -> Invocation:
    """Run one process to its end, on ``BENCH_CPU`` with every child it forks.

    CPU and the largest single-process peak come from wait4, which covers
    the process and every child it reaped (pool workers included).  A thread
    samples the summed RSS of the live process tree every 20 ms, so that a
    run with several processes reports their combined peak.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    out_path, err_path = work / "stdout.txt", work / "stderr.txt"
    peak = [0]
    done = threading.Event()
    own_cpus = os.sched_getaffinity(0)
    with open(out_path, "w") as out, open(err_path, "w") as err:
        os.sched_setaffinity(0, {BENCH_CPU})  # the child inherits it
        try:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        finally:
            os.sched_setaffinity(0, own_cpus)

        def sample() -> None:
            while not done.wait(0.02):
                peak[0] = max(peak[0], _tree_rss(proc.pid))
                if time.perf_counter() - start > LAUNCH_TIMEOUT_S:
                    proc.kill()
                    return

        sampler = threading.Thread(target=sample, daemon=True)
        sampler.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            wall = time.perf_counter() - start
            done.set()
            sampler.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if wall > LAUNCH_TIMEOUT_S:
            raise BenchError(f"{argv[-1]!r} ran past {LAUNCH_TIMEOUT_S} s and was killed")
    rss = max(usage.ru_maxrss * 1024, peak[0]) / MB
    return Invocation(
        start, wall, usage.ru_utime + usage.ru_stime, rss, proc.returncode,
        out_path.read_text(), err_path.read_text(),
    )


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-c", CLI, *args]


def run_cli(args: list[str], work: Path) -> Invocation:
    inv = launch(cli_argv(args), work)
    if inv.code != 0:
        raise BenchError(f"hyperjet {' '.join(args)} exited {inv.code}: {inv.stderr[-2000:]}")
    return inv


def summary_of(inv: Invocation) -> dict:
    try:
        return json.loads(inv.stdout)
    except json.JSONDecodeError as exc:
        raise BenchError(f"verify printed no JSON summary: {exc}") from None


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Output checks (made after the clock stops)
# ---------------------------------------------------------------------------


def check_bundle_file(path: Path, wl: Workload, seed: int, oracle, types=TYPES,
                      k_range=None) -> dict:
    k_range = k_range or [2, wl.k_max]
    with open(path) as f:
        problems, tally = checks.check_bundle(f, list(types), k_range, seed, oracle)
    if problems:
        raise BenchError("bundle check failed: " + "; ".join(problems[:5]))
    return tally


def check_sweep(summaries: list[dict], wl: Workload, seed: int, work: Path, oracle) -> None:
    for summary in summaries:
        problems = checks.check_sweep_summary(summary, TYPES, [2, wl.k_max], oracle)
        if problems:
            raise BenchError("summary check failed: " + "; ".join(problems[:5]))
    # the sweep writes no bundle: certify one seeded (type, k) of its scope in full
    rng = random.Random(seed)
    t, k = rng.choice(TYPES), rng.randint(2, checks.MAX_ORBIT_K)
    path = work / "sample.jsonl"
    run_cli(["verify", "--types", str(t), "--k", str(k), "--format", "json",
             "--out", str(path)], work)
    check_bundle_file(path, wl, seed, oracle, types=(t,), k_range=[k, k])


def check_bundle_run(path: Path, invs: list[Invocation], hashes: list[str], wl: Workload,
                     seed: int, work: Path, oracle) -> None:
    if len(set(hashes)) != 1:
        raise BenchError("repeated invocations wrote different bundles")
    tally = check_bundle_file(path, wl, seed, oracle)
    for inv in invs:
        printed = summary_of(inv)
        if {k: printed.get(k) for k in tally} != tally:
            raise BenchError("printed summary differs from the bundle")
    if wl.jobs > 1:
        # the serial bundle of the same scope, made anew from this checkout
        serial = work / "serial.jsonl"
        run_cli(Workload(wl.k_max, 1, True).argv(serial), work)
        if sha256(serial) != hashes[0]:
            raise BenchError("the --jobs bundle differs from the serial bundle")


# ---------------------------------------------------------------------------
# Untraced run: end-to-end metrics
# ---------------------------------------------------------------------------


def setup_sample(work: Path) -> Invocation:
    inv = launch([sys.executable, "-c", SETUP_PROBE], work)
    if inv.code != 0:
        raise BenchError(f"set-up probe exited {inv.code}: {inv.stderr[-2000:]}")
    return inv


def at_reference_speed(inv: Invocation, ref: CpuReference) -> tuple[float, float]:
    """(wall, CPU) seconds of an invocation at the reference's nominal speed.

    The wall time leaves out the CPU time the reference took meanwhile on
    the CPU they share.
    """
    end = inv.start + inv.wall_s
    factor = ref.factor(inv.start, end)
    return (inv.wall_s - ref.cpu_used(inv.start, end)) * factor, inv.cpu_s * factor


def run_untraced(wl: Workload, seed: int, seconds: int, work: Path) -> tuple[dict, int, int]:
    """Verdicts until the run length is used, set-up samples spread among them.

    A burst of load from outside lasts seconds, so set-up is sampled in
    batches before each invocation and after the last, not all at once.
    The reference runs beside all of them and is stopped before the checks.
    """
    bundle = work / "bundle.jsonl" if wl.bundle else None
    setups: list[Invocation] = []
    invs, hashes = [], []
    ref = CpuReference(BENCH_CPU, work / "reference.json")
    try:
        setup_sample(work)  # warm-up: compiles the package's bytecode once
        while True:
            setups += [setup_sample(work) for _ in range(SETUP_BATCH)]
            invs.append(run_cli(wl.argv(bundle), work))
            if bundle is not None:
                hashes.append(sha256(bundle))
            # the run length counts verdict time only; stop before overrunning it
            measured = sum(i.wall_s for i in invs)
            if measured + statistics.median(i.wall_s for i in invs) > seconds:
                break
        setups += [setup_sample(work)
                   for _ in range(max(SETUP_BATCH, SETUP_SAMPLES - len(setups)))]
    finally:
        ref.stop()
    oracle = checks.OrbitOracle()
    summaries = [summary_of(i) for i in invs]
    if bundle is None:
        check_sweep(summaries, wl, seed, work, oracle)
    else:
        check_bundle_run(bundle, invs, hashes, wl, seed, work, oracle)
    verdicts, cpus = zip(*(at_reference_speed(i, ref) for i in invs))
    factors = [ref.factor(i.start, i.start + i.wall_s) for i in invs]
    print(f"{len(invs)} invocations: wall as measured "
          f"{' '.join(f'{i.wall_s:.3f}' for i in invs)} s, CPU speed "
          f"{' '.join(f'{f:.3f}' for f in factors)} of nominal, at nominal speed "
          f"{' '.join(f'{v:.3f}' for v in verdicts)} s")
    metrics = {
        "verdict_s": statistics.median(verdicts),
        "setup_s": statistics.median(at_reference_speed(i, ref)[0] for i in setups),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": statistics.median(i.peak_rss_mb for i in invs),
    }
    attempted = sum(s["total"] for s in summaries)
    failed = sum(s["failed"] for s in summaries)
    return metrics, attempted, failed


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics
# ---------------------------------------------------------------------------


def load_trace(trace_dir: Path) -> tuple[dict, list[dict]]:
    main = json.loads((trace_dir / "main.json").read_text())
    workers = []
    for path in sorted(trace_dir.glob("worker-*.jsonl")):
        spans, last = [], {}
        for line in path.read_text().splitlines():
            last = json.loads(line)
            spans += last["spans"]
        workers.append({"spans": spans, "counts": last.get("counts", {}),
                        "peak_certs": last.get("peak_certs", 0)})
    return main, workers


def span_times(spans: list) -> tuple[dict, dict, dict]:
    """Per name: busy time (outermost spans only), self time, span count."""
    parent = {s[0]: s[1] for s in spans}
    name_of = {s[0]: s[2] for s in spans}
    child_time: dict[int, float] = {}
    for sid, pid, _, start, end in spans:
        child_time[pid] = child_time.get(pid, 0.0) + (end - start)
    busy: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    for sid, pid, name, start, end in spans:
        dur = end - start
        calls[name] = calls.get(name, 0) + 1
        own[name] = own.get(name, 0.0) + dur - child_time.get(sid, 0.0)
        up = pid
        while up and name_of.get(up) != name:
            up = parent.get(up, 0)
        if not up:
            busy[name] = busy.get(name, 0.0) + dur
    return busy, own, calls


def layer_metrics(main: dict, workers: list[dict], traced: Invocation, overhead_s: float) -> dict:
    procs = [main] + workers
    busy: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    for proc in procs:
        b, o, c = span_times(proc["spans"])
        for src, dst in ((b, busy), (o, own), (c, calls), (proc["counts"], counts)):
            for name, value in src.items():
                dst[name] = dst.get(name, 0) + value
    main_busy, main_own, _ = span_times(main["spans"])
    tasks = [e - s for proc in procs for _, _, n, s, e in proc["spans"] if n == "cli.task"]
    cold, warm = "nonfibre.analyse.cold", "nonfibre.analyse"
    distinct = calls.get(cold, 0)
    analyse_calls = distinct + calls.get(warm, 0)
    root = next(s for s in main["spans"] if s[2] == "cli.main")
    # with --jobs 1 the (type, k) tasks run inside the CLI process
    inline_task_cpu = main["counts"].get("cli.task_cpu_s", 0.0)
    return {
        "configurations.enumerate_s": busy.get("configurations.enumerate", 0.0),
        "configurations.configs": counts.get("configurations.enumerate", 0),
        "configurations.classify_s": busy.get("configurations.classify", 0.0),
        "configurations.classify_calls": calls.get("configurations.classify", 0),
        "configurations.validate_calls": counts.get("configurations.validate_calls", 0),
        "engine.verify_s": busy.get("engine.verify", 0.0),
        "engine.verify_self_s": own.get("engine.verify", 0.0),
        "engine.certify_fibres_s": busy.get("engine.certify_fibres", 0.0),
        "engine.fibre_checks": counts.get("engine.fibre_checks", 0),
        "lattice.blowup_intersect_calls": counts.get("lattice.blowup_intersect_calls", 0),
        "nonfibre.analyse_s": busy.get(cold, 0.0) + busy.get(warm, 0.0),
        "nonfibre.analyse_calls": analyse_calls,
        "nonfibre.reports_distinct": distinct,
        "nonfibre.report_reuse": analyse_calls / distinct if distinct else 0.0,
        "nonfibre.cold_s": busy.get(cold, 0.0),
        "nonfibre.warm_s": busy.get(warm, 0.0),
        "lp.entails_s": busy.get("lp.entails", 0.0),
        "lp.entails_calls": calls.get("lp.entails", 0),
        "cli.import_s": main["import_s"],
        "cli.serialize_s": sum(busy.get(n, 0.0) for n in SERIALIZE),
        "cli.write_s": busy.get("cli.write", 0.0),
        "cli.bundle_bytes": counts.get("cli.bundle_bytes", 0),
        "cli.bundle_records": counts.get("cli.bundle_records", 0),
        "cli.tasks": len(tasks),
        "cli.task_max_s": max(tasks, default=0.0),
        "cli.task_max_share": max(tasks) / sum(tasks) if tasks else 0.0,
        "cli.result_bytes": counts.get("cli.result_bytes", 0),
        "cli.parent_wait_s": main_busy.get("cli.sweep", 0.0),
        "cli.parent_cpu_s": main["self_cpu_s"] - inline_task_cpu,
        "cli.worker_cpu_s": main["children_cpu_s"] + inline_task_cpu,
        "cli.task_peak_certs": max(p["peak_certs"] for p in procs),
        "cli.self_s": main_own.get("cli.main", 0.0),
        "trace.verdict_s": traced.wall_s,
        "trace.startup_s": root[3] - traced.start,
        "trace.exit_s": traced.start + traced.wall_s - root[4],
        "trace.overhead_s": overhead_s,
        "trace.spans": sum(len(p["spans"]) for p in procs),
    }


def run_traced(wl: Workload, seed: int, work: Path, name: str) -> tuple[dict, int, int]:
    """Untraced and traced invocations in alternating pairs.

    The overhead is the median over the pairs of traced minus untraced wall
    time; the layers are those of the traced invocation of median wall time.
    """
    oracle = checks.OrbitOracle()
    bundle = work / "bundle.jsonl" if wl.bundle else None
    trace_root = WORK / f"trace-{name}"
    shutil.rmtree(trace_root, ignore_errors=True)
    setup_sample(work)  # warm-up, as untraced
    invs, hashes, pairs = [], [], []
    for i in range(TRACE_PAIRS):
        traced_argv = [sys.executable, str(TRACER), str(trace_root / str(i)), *wl.argv(bundle)]
        pair = {}
        for traced in (False, True) if i % 2 == 0 else (True, False):
            argv = traced_argv if traced else cli_argv(wl.argv(bundle))
            inv = launch(argv, work)
            if inv.code != 0:
                raise BenchError(f"{argv[1]} exited {inv.code}: {inv.stderr[-2000:]}")
            pair[traced] = inv
            invs.append(inv)
            if bundle is not None:
                hashes.append(sha256(bundle))
        pairs.append(pair)
    if bundle is None:
        check_sweep([summary_of(i) for i in invs], wl, seed, work, oracle)
    else:
        check_bundle_run(bundle, invs, hashes, wl, seed, work, oracle)
    by_wall = sorted(range(TRACE_PAIRS), key=lambda i: pairs[i][True].wall_s)
    middle = by_wall[TRACE_PAIRS // 2]
    main, workers = load_trace(trace_root / str(middle))
    if main["absent"]:
        print("absent from the package, not traced: " + ", ".join(main["absent"]))
    overhead_s = statistics.median(p[True].wall_s - p[False].wall_s for p in pairs)
    metrics = layer_metrics(main, workers, pairs[middle][True], overhead_s)
    summaries = [summary_of(i) for i in invs]
    return metrics, sum(s["total"] for s in summaries), sum(s["failed"] for s in summaries)


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hyperjet" / "cli.py").is_file():
        print(f"no hyperjet sources under {SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    if len(CPUS) > 1:
        os.sched_setaffinity(0, set(CPUS[:-1]))
    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            metrics, attempted, failed = run_traced(wl, args.seed, work, args.workload)
            units = PER_LAYER
        else:
            metrics, attempted, failed = run_untraced(wl, args.seed, args.seconds, work)
            units = END_TO_END
        correct = True
    except (BenchError, ReferenceFailed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, unit in units.items():
        print(f"{args.workload:<9} {name:<32} {metrics[name]:>16.6f} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
