"""One measured process: import quadfactor.cli, run one CLI command, report.

Usage: python3 -I worker.py MODE SRC RESULT [CLI ARGS...]

MODE is `setup` (import only), `plain` or `trace`.  SRC is the source
tree to import quadfactor from, RESULT the JSON file the timings go to.
The command's stdout is whatever stdout the parent gave this process.

Clock values are CLOCK_MONOTONIC, which is system-wide, so the parent
can subtract its own spawn time from `t_ready`.

In `setup` and `plain` mode the process also measures the speed of the
core it runs on (see probe.py): PROBE_BRACKET probes right before the
import, right after it and right after `cli.main`, and one probe every
probe.PERIOD_S of CPU time in between, from a SIGPROF handler.  Each probe
is recorded as [phase, start, end, thread CPU seconds]; phase 0 is the
setup (spawn to `t_ready` and the bracket after it), phase 1 the
`cli.main` call (and the bracket after it).  `trace` mode runs no probes.
"""

import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import probe  # noqa: E402

PROBE_BRACKET = 8


def _clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _cpu():
    return sum(ru.ru_utime + ru.ru_stime
               for ru in map(resource.getrusage, (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)))


def main():
    mode, src, result_path = sys.argv[1:4]
    argv = sys.argv[4:]
    sampler = probe.Sampler() if mode in ("setup", "plain") else None
    if sampler:
        sampler.run(PROBE_BRACKET)
        sampler.start()
    sys.path.insert(0, src)
    import quadfactor.cli as cli
    t_ready = _clock()
    if sampler:
        sampler.stop()
        sampler.run(PROBE_BRACKET)

    import json
    res = {"t_ready": t_ready}
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        res["error"] = f"quadfactor imported from {cli.__file__}, not {src}"
    elif mode == "setup":
        pass
    elif mode == "plain":
        sampler.phase = 1
        sampler.start()
        c0 = _cpu()
        t0 = _clock()
        res["exit"] = cli.main(argv)
        sys.stdout.flush()
        t1 = _clock()
        c1 = _cpu()
        sampler.stop()
        res.update(t_main=[t0, t1], wall_s=t1 - t0, cpu_s=c1 - c0)
        sampler.run(PROBE_BRACKET)
    elif mode == "trace":
        import quadfactor
        import spans
        rec = spans.Recorder()
        saved = spans.install(quadfactor, rec)
        try:
            t0 = _clock()
            res["exit"] = cli.main(argv)
            sys.stdout.flush()
            res["wall_s"] = _clock() - t0
        finally:
            not_restored = spans.uninstall(saved)
        if not_restored:
            res["error"] = f"attributes not restored: {not_restored}"
        res["layers"] = spans.layer_metrics(rec, res["wall_s"])
        res["spans"] = [s.as_dict() for s in rec.spans]
        res["counters"] = rec.counters
    else:
        res["error"] = f"unknown mode {mode!r}"
    if sampler:
        res["probes"] = sampler.probes
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(res, fh)
    return 1 if "error" in res else 0


if __name__ == "__main__":
    sys.exit(main())
