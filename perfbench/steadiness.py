"""Two sets of benchmark runs of the same code, interleaved run by run.

    python3 perfbench/steadiness.py --runs 5

Reads BENCHMARK.json, then for each round runs every workload once in set A
and once in set B, each for the run length BENCHMARK.json gives (which set goes first alternates by round), each run with
its own seed.  For every end-to-end metric of every workload it prints the
median and quartiles of each set and of both together, the spread (the
distance between the quartiles as a share of the median) and the shift of
B's median against A's, beside the metric's bound.  Every metric must keep
both within its bound.  The bounds in BENCHMARK.json were set from this
output.  Raw results go to
.perfbench-out/steadiness.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(bench: dict, workload: str, seed: int) -> dict:
    argv = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, quartile distance / median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5, help="runs per set and workload")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    results: dict = {w: {"A": [], "B": []} for w in workloads}
    seed = args.first_seed
    for rnd in range(args.runs):
        order = ("A", "B") if rnd % 2 == 0 else ("B", "A")
        for w in workloads:
            for side in order:
                res = run_once(bench, w, seed)
                res["seed"] = seed
                results[w][side].append(res)
                seed += 1
                vals = " ".join(f"{k}={v['value']:.4f}" for k, v in res["metrics"].items())
                print(f"round {rnd} {w:<9} {side} seed {res['seed']:<3} {vals}", flush=True)
    out = ROOT / ".perfbench-out"
    out.mkdir(exist_ok=True)
    (out / "steadiness.json").write_text(json.dumps(results, indent=1))

    print()
    print(f"{'workload':<9} {'metric':<12} {'set':<4} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>7} {'shift':>7} {'bound':>6}")
    steady = True
    for w in workloads:
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sets = {s: [r["metrics"][name]["value"] for r in results[w][s]] for s in "AB"}
            sets["AB"] = sets["A"] + sets["B"]
            med_a = statistics.median(sets["A"])
            shift = (statistics.median(sets["B"]) - med_a) / med_a
            for s in ("A", "B", "AB"):
                med, q1, q3, sp = spread(sets[s])
                print(f"{w:<9} {name:<12} {s:<4} {med:>10.4f} {q1:>10.4f} {q3:>10.4f} "
                      f"{sp:>7.1%} {shift if s == 'B' else 0:>7.1%} {bound:>6.0%}")
            _, _, _, sp = spread(sets["AB"])
            ok = abs(shift) <= bound and sp <= bound
            steady = steady and ok
        shares = {s: {r["failed"] / r["attempted"] for r in results[w][s]} for s in "AB"}
        print(f"{w:<9} failed share per run: A {sorted(shares['A'])} B {sorted(shares['B'])}")
    print("steady within the bounds" if steady else "NOT steady within the bounds")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
