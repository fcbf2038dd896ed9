"""Run the hyperjet CLI with a span recorded at each layer boundary.

    python3 perfbench/tracer.py OUT_DIR verify --types all --k 2..6 ...

The wrappers live here, not in the package: each names a module-level
function (or a method) by import path, looks it up at run time and replaces
every binding of that object inside the ``hyperjet`` modules.  A name that no
longer exists is listed as absent in the trace instead of failing the run.

Spans (name, start, end, parent) stay in memory.  The CLI process writes its
spans, counters and resource usage to OUT_DIR/main.json when ``main`` returns.
Worker processes of ``--jobs`` (forked, so they inherit the wrappers) start
an empty trace and append their spans to OUT_DIR/worker-<pid>.jsonl after
every (type, k) task, since pool workers are terminated without exit hooks.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pickle
import resource
import sys
import time
import weakref
from pathlib import Path

clock = time.perf_counter


def cpu_seconds(who: int) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


class Tracer:
    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.absent: list[str] = []
        self._reset()

    def _reset(self) -> None:
        self.spans: list[tuple] = []  # (id, parent id, name, start, end)
        self.stack = [0]
        self.counts: dict[str, int] = {}
        self.report_keys: set = set()
        self.live_certs = 0
        self.peak_certs = 0
        self.last_id = 0

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def track(self, obj) -> None:
        """Count obj as a live certificate until it is collected."""
        self.live_certs += 1
        self.peak_certs = max(self.peak_certs, self.live_certs)
        weakref.finalize(obj, self._release).atexit = False

    def _release(self) -> None:
        self.live_certs -= 1

    def enter(self) -> int:
        self.last_id += 1
        sid = self.last_id
        self.stack.append(sid)
        return sid

    def leave(self, sid: int, name: str, start: float) -> None:
        end = clock()
        self.stack.pop()
        self.spans.append((sid, self.stack[-1], name, start, end))

    # -- wrappers ----------------------------------------------------------

    def span(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.enter()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.leave(sid, name, start)
            if after is not None:
                after(result, start, args)
            return result

        return wrapper

    def generator(self, name: str, fn, after=None):
        """One span per item drawn from the generator fn returns."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                sid = self.enter()
                start = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.leave(sid, name, start)
                self.count(name)
                if after is not None:
                    after(item, args)
                yield item

        return wrapper

    def counter(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self, target: str, make) -> None:
        """Replace `module:attr[.attr]` everywhere the package binds it."""
        module_name, _, path = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.absent.append(target)
            return
        wrapped = make(original)
        if isinstance(owner, type):
            setattr(owner, attr, wrapped)
            return
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("hyperjet"):
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapped)

    # -- output ------------------------------------------------------------

    def flush_worker(self) -> None:
        path = self.out_dir / f"worker-{os.getpid()}.jsonl"
        with open(path, "a") as f:
            f.write(json.dumps({
                "spans": self.spans,
                "counts": self.counts,
                "peak_certs": self.peak_certs,
            }) + "\n")
        self.spans = []

    def dump_main(self, extra: dict) -> None:
        payload = {
            "spans": self.spans,
            "counts": self.counts,
            "peak_certs": self.peak_certs,
            "absent": self.absent,
            "self_cpu_s": cpu_seconds(resource.RUSAGE_SELF),
            **extra,
        }
        (self.out_dir / "main.json").write_text(json.dumps(payload))


class _TimedFile:
    """A file the CLI writes to; write, flush and close are spans.

    For the bundle file it also counts lines and, at close, bytes.
    """

    def __init__(self, tracer: Tracer, f, bundle: bool):
        self._tracer, self._f, self._bundle = tracer, f, bundle

    def _timed(self, method, *args):
        sid = self._tracer.enter()
        start = clock()
        try:
            return method(*args)
        finally:
            self._tracer.leave(sid, "cli.write", start)

    def write(self, text: str):
        if self._bundle:
            self._tracer.count("cli.bundle_records", text.count("\n"))
        return self._timed(self._f.write, text)

    def flush(self):
        return self._timed(self._f.flush)

    def close(self):
        self._timed(self._f.close)
        if self._bundle:
            self._tracer.count("cli.bundle_bytes", os.path.getsize(self._f.name))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def __getattr__(self, name):
        return getattr(self._f, name)


def install_all(tracer: Tracer) -> None:
    main_pid = os.getpid()

    def sweep_item(item, args):
        # what a worker ships to the parent, sized outside the wait span
        if getattr(args[0], "jobs", 1) > 1:
            sid = tracer.enter()
            start = clock()
            tracer.count("cli.result_bytes", len(pickle.dumps(item, pickle.HIGHEST_PROTOCOL)))
            tracer.leave(sid, "trace.measure", start)

    def task(fn):
        spanned = tracer.span("cli.task", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cpu = time.process_time()
            try:
                return spanned(*args, **kwargs)
            finally:
                tracer.count("cli.task_cpu_s", time.process_time() - cpu)
                if os.getpid() != main_pid:
                    tracer.flush_worker()

        return wrapper

    def fibre_count(result, start, args):
        tracer.count("engine.fibre_checks", len(result))

    def report_seen(report, start, args):
        key = getattr(report, "key", id(report))
        cold = key not in tracer.report_keys
        tracer.report_keys.add(key)
        sid, parent, name, s, e = tracer.spans[-1]
        tracer.spans[-1] = (sid, parent, "nonfibre.analyse.cold" if cold else name, s, e)

    def certificate_init(init):
        def wrapper(self, *args, **kwargs):
            init(self, *args, **kwargs)
            tracer.track(self)

        return functools.wraps(init)(wrapper)

    def certificate_setstate(self, state):
        # unpickling (the --jobs parent) builds certificates without __init__
        self.__dict__.update(state)
        tracer.track(self)

    def traced_open(file, mode="r", *args, **kwargs):
        f = open(file, mode, *args, **kwargs)
        return _TimedFile(tracer, f, True) if "w" in mode or "a" in mode else f

    cli = importlib.import_module("hyperjet.cli")
    cli.open = traced_open
    install = tracer.install
    install("hyperjet.cli:main", lambda f: tracer.span("cli.main", f))
    install("hyperjet.cli:_iter_sweep", lambda f: tracer.generator("cli.sweep", f, sweep_item))
    install("hyperjet.cli:_task_certs", task)
    install("hyperjet.cli:_dump", lambda f: tracer.span("cli.dump", f))
    install("hyperjet.configurations:enumerate_configurations",
            lambda f: tracer.generator("configurations.enumerate", f))
    install("hyperjet.configurations:classify", lambda f: tracer.span("configurations.classify", f))
    install("hyperjet.configurations:JetConfiguration.validate",
            lambda f: tracer.counter("configurations.validate_calls", f))
    install("hyperjet.engine:verify", lambda f: tracer.span("engine.verify", f))
    install("hyperjet.engine:certify_fibres",
            lambda f: tracer.span("engine.certify_fibres", f, fibre_count))
    install("hyperjet.engine:Certificate.__init__", certificate_init)
    certificate = getattr(importlib.import_module("hyperjet.engine"), "Certificate", None)
    if certificate is not None and not hasattr(certificate, "__setstate__"):
        certificate.__setstate__ = certificate_setstate
    install("hyperjet.engine:Certificate.to_json", lambda f: tracer.span("engine.to_json", f))
    install("hyperjet.engine:SweepSummary.to_json",
            lambda f: tracer.span("engine.summary_to_json", f))
    install("hyperjet.lattice:blowup_intersect",
            lambda f: tracer.counter("lattice.blowup_intersect_calls", f))
    install("hyperjet.nonfibre:analyse", lambda f: tracer.span("nonfibre.analyse", f, report_seen))
    install("hyperjet.nonfibre:NonFibreReport.to_json",
            lambda f: tracer.span("nonfibre.to_json", f))
    install("hyperjet.lp:entails", lambda f: tracer.span("lp.entails", f))
    os.register_at_fork(after_in_child=tracer._reset)


def main(argv: list[str]) -> int:
    out_dir = Path(argv[0])
    out_dir.mkdir(parents=True, exist_ok=True)
    # a launcher (such as a pyenv shim) may have left CPU time here already
    children_before = cpu_seconds(resource.RUSAGE_CHILDREN)
    start = clock()
    import hyperjet.cli  # noqa: F401  (timed: the package import)

    import_s = clock() - start
    tracer = Tracer(out_dir)
    install_all(tracer)
    sys.stdout = _TimedFile(tracer, sys.stdout, False)
    code = 1
    try:
        code = sys.modules["hyperjet.cli"].main(argv[1:])
    finally:
        workers = cpu_seconds(resource.RUSAGE_CHILDREN) - children_before
        tracer.dump_main({"import_s": import_s, "children_cpu_s": workers, "exit_code": code})
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
