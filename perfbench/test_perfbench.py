"""The benchmark's own tests: a tiny-size pass over every workload.

    python3 -m pytest perfbench -q
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import probe  # noqa: E402
import quadfactor  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from quadfactor import arith, cli  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = list(workloads.WORKLOADS)


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCH["workloads"]] == NAMES
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END
    for m in BENCH["per_layer"]:
        assert m["unit"] == run.layer_unit(m["name"]), m


@pytest.mark.parametrize("tiny", [False, True])
def test_every_census_seed_gives_an_admissible_b(tiny):
    x = workloads.CENSUS_X[tiny]
    for seed in range(3000):
        b = workloads.census_b(seed, x)
        assert arith.validate_b(b).b == b
        assert 29 * x // 60 <= -b <= 31 * x // 60


@pytest.mark.parametrize("name", NAMES)
def test_tiny_untraced_run_reports_every_end_to_end_metric(name):
    line, report = run.measure(name, 7, 0, False, tiny=True, setup_probes=1)
    assert report["problems"] == []
    assert (line["correct"], line["failed"]) == (True, 0) and line["attempted"] >= 1
    assert set(line["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in line["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_tiny_traced_run_reports_every_layer_metric(name):
    line, report = run.measure(name, 7, 0, True, tiny=True, setup_probes=1)
    # a traced sample whose stdout differs from the untraced one fails the run
    assert report["problems"] == []
    assert line["correct"] and line["attempted"] == 2
    m = {k: v["value"] for k, v in line["metrics"].items()}
    assert set(m) == {p["name"] for p in BENCH["per_layer"]}
    # self times along the blocking path cover the traced wall time
    assert 0 <= m["trace.wall_s"] - m["trace.self_sum_s"] < 2e-3
    assert m["cli.self_s"] > 0 and m["cli.output_bytes"] > 0


@pytest.mark.parametrize("name", NAMES)
def test_traced_and_untraced_stdout_are_byte_identical(name, tmp_path):
    argv = workloads.WORKLOADS[name](3, True).argv
    outs = []
    for mode in ("plain", "trace"):
        with open(tmp_path / mode, "wb") as fh:
            _, code, _, res = run._spawn(mode, argv, tmp_path / f"{mode}.json", fh)
        assert code == 0 and res["exit"] == 0
        outs.append((tmp_path / mode).read_bytes())
    assert outs[0] == outs[1] and outs[0]


def test_speed_is_the_mean_rate_of_the_probes_of_a_phase():
    ref = probe.REF_S
    probes = [[1, 0.0, 0.5, 2 * ref], [1, 1.0, 1.25, 2 * ref], [1, 2.0, 2.5, ref],
              [1, 3.0, 3.5, ref], [0, 0.0, 9.0, 100 * ref]]
    assert probe.speed(probes, 1) == pytest.approx(0.75)
    assert probe.speed(probes, 0) == pytest.approx(0.01)
    assert probe.overhead(probes, 1, 1.0, 3.0) == (pytest.approx(0.75), pytest.approx(3 * ref))


def test_plain_sample_is_probed_during_setup_and_call(tmp_path):
    argv = workloads.WORKLOADS["stormer"](1, True).argv
    with open(tmp_path / "out", "wb") as fh:
        t_spawn, code, _, res = run._spawn("plain", argv, tmp_path / "res.json", fh)
    assert code == 0 and res["exit"] == 0
    t0, t1 = res["t_main"]
    setup = [p for p in res["probes"] if p[0] == 0]
    call = [p for p in res["probes"] if p[0] == 1]
    assert len(setup) >= 2 * worker.PROBE_BRACKET and len(call) >= worker.PROBE_BRACKET
    assert all(t_spawn < p[1] < p[2] < t0 and p[3] > 0 for p in setup)
    assert all(t0 <= p[1] < p[2] and p[3] > 0 for p in call)
    assert sum(1 for p in call if p[2] > t1) == worker.PROBE_BRACKET


MUTATIONS = {
    "chebyshev-t2": lambda t: t.replace(",8978,", ",8979,"),
    "census-mixed": lambda t: "\n".join(t.split("\n")[:1] + t.split("\n")[2:]),
    "stormer": lambda t: t.replace("[1, 2, 3,", "[1, 3,"),
}


@pytest.mark.parametrize("name", NAMES)
def test_checks_reject_a_wrong_output(name, tmp_path):
    case = workloads.WORKLOADS[name](5, True)
    with open(tmp_path / "out", "wb") as fh:
        run._spawn("plain", case.argv, tmp_path / "res.json", fh)
    text = (tmp_path / "out").read_text(encoding="utf-8")
    assert case.check(text) == []
    bad = MUTATIONS[name](text)
    assert bad != text
    assert case.check(bad)
    assert case.check("garbage\n")


def test_recorder_restores_attributes_and_accounts_self_time():
    before = {(m, a): getattr(getattr(quadfactor, m), a) for m, a, _, _ in spans.PROBES}
    rec = spans.Recorder()
    saved = spans.install(quadfactor, rec)
    try:
        assert all(getattr(getattr(quadfactor, m), a) is not fn for (m, a), fn in before.items())
        with contextlib.redirect_stdout(io.StringIO()) as buf:
            assert cli.main(["density", "--b", "-2", "--x", "500"]) == 0
    finally:
        assert spans.uninstall(saved) == []
    assert all(getattr(getattr(quadfactor, m), a) is fn for (m, a), fn in before.items())
    assert buf.getvalue().startswith("x,rho,ratio\n")
    root = next(s for s in rec.spans if s.name == "cli.main")
    selfs = rec.self_times()
    assert sum(selfs[i] for i in rec.subtree(root.id)) == pytest.approx(root.busy, abs=1e-9)
    gen = next(s for s in rec.spans if s.name == "sieve.sieve_range")
    assert gen.parent == next(s.id for s in rec.spans if s.name == "primitive.rho")
    assert rec.counters["sieve.sieve_range.items"] == 500
    assert rec.counters["primitive.prefix_terms"] == 2


def test_run_fails_without_a_source_tree(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "stormer",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
