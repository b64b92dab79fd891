"""Run the benchmark over every workload and summarise its spread.

    python3 perfbench/collect.py [--runs N] [--first-seed S] [--workload NAME ...]
                                 [--seconds S] [--trace] [--out FILE]

Each run is `run.py --workload NAME --seed S+i --seconds S --trace 0`,
one at a time, with seeds S, S+1, ...; --seconds defaults to
BENCHMARK.json's run_seconds.  For every end-to-end metric it prints the
median of the runs' values, their quartiles from
statistics.quantiles(n=4), and the spread (q3 - q1) / median next to
the metric's bound.  --trace adds one traced run per workload at seed S.
--out writes all of it, with every run's result line, as JSON.
"""

import argparse
import json
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.rstrip("\n").split("\n")
    meta = next(json.loads(ln[5:]) for ln in lines if ln.startswith("meta "))
    return json.loads(lines[-1]), meta


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=1)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seconds", type=int, default=BENCH["run_seconds"])
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out")
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # subprocess.run kills its child
    names = args.workload or [w["name"] for w in BENCH["workloads"]]
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    report = {"seconds": args.seconds, "first_seed": args.first_seed, "workloads": {}}
    for name in names:
        runs, metas = [], []
        for i in range(args.runs):
            line, meta = run_once(name, args.first_seed + i, args.seconds, False)
            runs.append(line)
            metas.append(meta)
            print(f"{name} seed {args.first_seed + i}: "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in line["metrics"].items())
                  + f" attempted={line['attempted']} failed={line['failed']}", flush=True)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        entry = {"runs": runs, "meta": metas, "fail_ratio": failed / attempted, "metrics": {}}
        print(f"== {name}: fail_ratio {failed}/{attempted}")
        for key, bound in bounds.items():
            vals = [r["metrics"][key]["value"] for r in runs if key in r["metrics"]]
            unit = runs[0]["metrics"][key]["unit"]
            if len(vals) < 2:
                entry["metrics"][key] = {"median": vals[0] if vals else None, "unit": unit}
                print(f"   {key:12s} {vals[0] if vals else float('nan'):.6g} {unit}")
                continue
            st = dict(spread(vals), unit=unit, bound=bound)
            entry["metrics"][key] = st
            print(f"   {key:12s} median {st['median']:.6g} {unit}  q1 {st['q1']:.6g}  "
                  f"q3 {st['q3']:.6g}  spread {st['spread']:.3f} (bound {bound}, "
                  f"{'ok' if st['spread'] < bound / 3 else 'WIDE'})", flush=True)
        if args.trace:
            line, meta = run_once(name, args.first_seed, args.seconds, True)
            entry["trace"] = {"seed": args.first_seed, "line": line, "meta": meta}
            for key, m in line["metrics"].items():
                print(f"   {key:30s} {m['value']:.6g} {m['unit']}")
        report["workloads"][name] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
