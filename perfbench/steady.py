"""Steadiness check: run each workload N times and report the spread.

    python3 perfbench/steady.py --runs 10 [--sets 2]

Runs the command in BENCHMARK.json once per (run, workload), each time
with a new seed (SEED_BASE, SEED_BASE + 1, ...), alternating the workload order from one run to the next.
For every end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, (q3 - q1) /
median, next to the metric's bound; every spread must stay within it.
With ``--sets 2`` it repeats the whole set with fresh seeds and also
prints how far the second median moved from the first, which must stay
within the bound in either direction.  Results are
written to ``perfbench/out/steady-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: The first run's seed; the README's figures were made from it.
SEED_BASE = 9000


def run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["process_s"] = elapsed
    return result


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    sets = []
    for s in range(args.sets):
        results: dict[str, list[dict]] = {w: [] for w in names}
        for i in range(args.runs):
            order = names if (i + s) % 2 == 0 else names[::-1]
            seed = SEED_BASE + s * args.runs + i
            for w in order:
                r = run_once(spec, w, seed)
                results[w].append(r)
                vals = " ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items())
                print(f"set {s + 1} run {i + 1:2d} {w:16s} seed {seed}: correct={r['correct']} "
                      f"failed={r['failed']}/{r['attempted']} {vals} ({r['process_s']:.1f} s)",
                      file=sys.stderr, flush=True)
        sets.append(results)

    report = {"runs": args.runs, "sets": [], "run_seconds": spec["run_seconds"]}
    print(f"\n{'workload':16s} {'metric':14s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
          f"{'spread':>7s} {'bound':>6s} {'spread/bound':>12s}")
    ok = True
    for s, results in enumerate(sets):
        summary = {}
        for w in names:
            runs = results[w]
            shares = {r["failed"] / r["attempted"] for r in runs}
            summary[w] = {"correct": all(r["correct"] for r in runs),
                          "failed_shares": sorted(shares), "metrics": {}}
            ok &= summary[w]["correct"] and len(shares) == 1
            for name, bound in bounds.items():
                st = summarise([r["metrics"][name]["value"] for r in runs])
                st["bound"] = bound
                summary[w]["metrics"][name] = st
                ok &= st["spread"] <= bound
                print(f"{w:16s} {name:14s} {st['median']:10.4f} {st['q1']:10.4f} {st['q3']:10.4f} "
                      f"{st['spread']:7.3f} {bound:6.2f} {st['spread'] / bound:12.2f}"
                      + ("" if s == 0 else "  (set 2)"))
        report["sets"].append(summary)
    if len(sets) == 2:
        print(f"\n{'workload':16s} {'metric':14s} {'median 1':>10s} {'median 2':>10s} {'change':>7s} {'bound':>6s}")
        for w in names:
            for name, bound in bounds.items():
                a = report["sets"][0][w]["metrics"][name]["median"]
                b = report["sets"][1][w]["metrics"][name]["median"]
                ok &= abs(b - a) / a <= bound
                print(f"{w:16s} {name:14s} {a:10.4f} {b:10.4f} {(b - a) / a:+7.3f} {bound:6.2f}")
            ok &= report["sets"][0][w]["failed_shares"] == report["sets"][1][w]["failed_shares"]
    report["steady"] = ok
    print(f"\nsteady: {ok}")
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps({"report": report, "raw": sets}, indent=1))
    print(f"wrote {path.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
