"""Benchmark of the quadfactor CLI: one workload, measured end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program under test is the `src/` tree next to
this directory, imported without installation.  Every sample is a
fresh single-threaded Python process (worker.py), spawned one at a time,
that imports `quadfactor.cli` and calls `cli.main` with the workload's
arguments, its stdout going to a file.  Samples repeat until the next
one would end after S seconds (at least one runs).  Each sample's
output is checked against the workload's pins or oracle outside the
timed region.

With --trace 0 the last stdout line reports the end-to-end metrics:
    wall_s       cli.main call to output flushed
    cpu_s        user + sys CPU of the sample process (and the children
                 it reaped) during the cli.main call
    work_per_s   input size / wall_s (units per workload in README.md)
    peak_rss_mb  peak RSS of the sample process, in 2^20 bytes
    setup_s      process spawn to `import quadfactor.cli` done, over
                 SETUP_PROBES import-only processes plus every sample
Times are seconds on a reference core: each sample's measured time,
less the time of its speed probes, times the speed the probes saw
(probe.py).  On a shared machine the core's speed changes by up to a
factor of two with other tenants' load; the probes take that out.
Every value is the median over the run's samples; the printed report
adds the quartiles, the sample count, the median measured (unscaled)
time and the median speed.
With --trace 1 samples alternate untraced and traced, and the last line
reports the per-layer metrics of spans.py (medians over the traced
samples) plus trace.overhead_s, the median over traced samples of the
traced wall_s minus the measured wall_s of the untraced sample before
it (both unscaled).  Spans of each traced sample go to
.perfbench/spans-<workload>-seed<N>-<i>.json.

Failed samples (non-zero exit, wrong output, or traced output differing
from untraced output) are counted in `failed`; fail_ratio is printed.
Exit code 0 when the run completed, even with failed samples; 2 when it
could not run at all (no `src/` tree, bad arguments).
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_PROBES = 9
SAMPLE_TIMEOUT_S = 150.0

END_TO_END = {"wall_s": "s", "cpu_s": "s", "work_per_s": "units/s",
              "peak_rss_mb": "MB", "setup_s": "s"}


def _clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _tail(values, higher_is_better):
    """(p, value): the highest percentile with ten samples beyond it, at the worse end."""
    if len(values) < 11:
        return None
    ordered = sorted(values, reverse=higher_is_better)
    return int(100 * (len(values) - 10) / len(values)), ordered[-11]


def machine_meta(seed):
    """Python, CPU and load of the host the run is on, for reading results later."""
    meta = {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "loadavg_start": list(os.getloadavg()),
            "seed": seed, "cpu_model": "unknown", "caches": {}}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    meta["cpu_model"] = line.split(":", 1)[1].strip()
                    break
        cache = Path("/sys/devices/system/cpu/cpu0/cache")
        for idx in sorted(cache.glob("index*")):
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            meta["caches"][f"L{level}-{kind}"] = (idx / "size").read_text().strip()
    except OSError:
        pass
    return meta


def _spawn(mode, argv, result_path, stdout):
    """Run one worker; returns (t_spawn, exit code, rusage, result dict or None)."""
    cmd = [sys.executable, "-I", str(HERE / "worker.py"), mode, str(SRC),
           str(result_path), *argv]
    t_spawn = _clock()
    proc = subprocess.Popen(cmd, stdout=stdout, stdin=subprocess.DEVNULL)
    timer = threading.Timer(SAMPLE_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, ru = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        res = json.loads(Path(result_path).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        res = None
    return t_spawn, proc.returncode, ru, res


class Run:
    """Samples of one workload at one seed."""

    def __init__(self, name, seed, tiny=False):
        import workloads
        self.name, self.seed = name, seed
        self.case = workloads.WORKLOADS[name](seed, tiny)
        self.tmp = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
        self.setup = []
        self.plain = []    # per-sample end-to-end values
        self.traced = []   # per-sample layer metrics
        self.trace_overheads = []
        self.problems = []
        self.attempted = 0
        self.failed = 0
        self._verified = {}   # output sha256 -> problems

    def probe_setup(self, k):
        out = self.tmp / "setup.json"
        for i in range(k + 1):
            t_spawn, code, _, res = _spawn("setup", [], out, subprocess.DEVNULL)
            if code != 0 or res is None or "error" in res:
                raise RuntimeError(f"import-only worker failed: {res}")
            if i:  # the first one fills the bytecode cache
                self.add_setup(t_spawn, res)

    def add_setup(self, t_spawn, res):
        probe_wall, _ = probe.overhead(res["probes"], 0, t_spawn, res["t_ready"])
        measured = res["t_ready"] - t_spawn - probe_wall
        self.setup.append(measured * probe.speed(res["probes"], 0))

    def sample(self, mode):
        """One measured process, checked and recorded."""
        i = self.attempted
        self.attempted += 1
        out_path = self.tmp / f"out-{i}.txt"
        res_path = (WORK / f"spans-{self.name}-seed{self.seed}-{i}.json" if mode == "trace"
                    else self.tmp / f"res-{i}.json")
        with open(out_path, "wb") as fh:
            t_spawn, code, ru, res = _spawn(mode, self.case.argv, res_path, fh)
        data = out_path.read_bytes()
        out_path.unlink()
        digest = hashlib.sha256(data).hexdigest()
        if code != 0 or res is None or "error" in res or res.get("exit") != 0:
            problems = [f"worker exit {code}, result {res and res.get('error', res.get('exit'))}"]
        else:
            if digest not in self._verified:
                self._verified[digest] = self.case.check(data.decode("utf-8"))
            problems = list(self._verified[digest])
            if len(self._verified) > 1:
                problems.append("output differs between samples")
        if problems:
            self.failed += 1
            self.problems.extend(f"sample {i} ({mode}): {p}" for p in problems)
            return
        if mode == "trace":
            layers = dict(res["layers"], **{"cli.output_bytes": len(data)})
            self.traced.append(layers)
            if self.plain:
                self.trace_overheads.append(res["wall_s"] - self.plain[-1]["measured_wall_s"])
        else:
            self.add_setup(t_spawn, res)
            probe_wall, probe_cpu = probe.overhead(res["probes"], 1, *res["t_main"])
            wall = res["wall_s"] - probe_wall
            speed = probe.speed(res["probes"], 1)
            self.plain.append({"wall_s": wall * speed,
                               "cpu_s": (res["cpu_s"] - probe_cpu) * speed,
                               "work_per_s": self.case.size / (wall * speed),
                               "peak_rss_mb": ru.ru_maxrss / 1024.0,
                               "measured_wall_s": wall, "speed": speed})

    def measure(self, seconds, trace):
        """Sample until the next sample would end past `seconds`."""
        modes = ("plain", "trace") if trace else ("plain",)
        start = _clock()
        durations = []
        while True:
            for mode in modes:
                t0 = _clock()
                self.sample(mode)
                durations.append(_clock() - t0)
            step = statistics.median(durations) * len(modes)
            if _clock() - start + step > seconds:
                return

    def end_to_end(self):
        out = {}
        for key, unit in END_TO_END.items():
            vals = self.setup if key == "setup_s" else [s[key] for s in self.plain]
            if vals:
                out[key] = {"value": statistics.median(vals), "unit": unit, "n": len(vals),
                            "q": _quartiles(vals), "tail": _tail(vals, key == "work_per_s")}
        if self.plain:
            for key in ("measured_wall_s", "speed"):
                out["wall_s"][key] = statistics.median(s[key] for s in self.plain)
        return out

    def per_layer(self):
        out = {}
        if not self.trace_overheads:
            return out
        for key in self.traced[0]:
            vals = [t[key] for t in self.traced]
            out[key] = {"value": statistics.median(vals), "unit": layer_unit(key)}
        out["trace.overhead_s"] = {"value": statistics.median(self.trace_overheads),
                                   "unit": "s"}
        return out


def layer_unit(key):
    """Unit of a per-layer metric, read off its name."""
    if key.endswith(("_s", ".s")):
        return "s"
    if key.endswith("_ratio"):
        return "ratio"
    if key.endswith("_bytes"):
        return "bytes"
    return "count"


def measure(name, seed, seconds, trace, tiny=False, setup_probes=SETUP_PROBES):
    """Run one workload; returns (result line dict, report dict)."""
    WORK.mkdir(exist_ok=True)
    meta = machine_meta(seed)
    run = Run(name, seed, tiny)
    try:
        run.probe_setup(setup_probes)
        run.measure(seconds, trace)
    finally:
        for p in run.tmp.iterdir():
            p.unlink()
        run.tmp.rmdir()
    if trace:
        metrics = run.per_layer()
    else:
        metrics = run.end_to_end()
    line = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
            "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()}}
    report = {"workload": name, "argv": run.case.argv, "size": run.case.size, "meta": meta,
              "metrics": metrics, "fail_ratio": run.failed / run.attempted,
              "problems": run.problems, "traced_samples": len(run.traced)}
    return line, report


def print_report(report, out=sys.stdout):
    print(f"workload {report['workload']}: quadfactor {' '.join(report['argv'])}", file=out)
    print("meta " + json.dumps(report["meta"], sort_keys=True), file=out)
    for key, m in report["metrics"].items():
        extra = ""
        if "n" in m:
            extra = f"  (median of {m['n']}; q1 {m['q'][0]:.6g}, q3 {m['q'][1]:.6g}"
            if m["tail"]:
                extra += f", p{m['tail'][0]} {m['tail'][1]:.6g}"
            extra += ")"
        if "speed" in m:
            extra += f"; measured {m['measured_wall_s']:.6g} s at speed {m['speed']:.4g}"
        print(f"  {key:30s} {m['value']:.6g} {m['unit']}{extra}", file=out)
    print(f"  {'fail_ratio':30s} {report['fail_ratio']:.6g} ratio", file=out)
    for p in report["problems"]:
        print(f"  FAILED {p}", file=out)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so the running sample is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "quadfactor" / "cli.py").is_file():
        print(f"error: no quadfactor source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    line, report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(report)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
