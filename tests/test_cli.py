import json
import math
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import quadfactor
from quadfactor import arith, cli, stats
from quadfactor.errors import PreconditionViolatedError
from quadfactor.svg import render_svg

from conftest import naive_new_primes


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_density_csv(capsys):
    code, out, _ = run(capsys, "density", "--b", "1", "--x", "100", "--checkpoints", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,rho,ratio"
    assert len(lines) == 5
    last = lines[-1].split(",")
    assert last[0] == "100" and last[1] == "70"  # definitional oracle count


def test_density_json_and_svg(capsys):
    code, out, _ = run(capsys, "density", "--b", "1", "--x", "50", "--format", "json")
    assert code == 0
    d = json.loads(out)
    assert d["rho"] == 34 and d["x"] == 50  # definitional oracle count
    code, out, _ = run(capsys, "density", "--b", "1", "--x", "50",
                       "--checkpoints", "5", "--format", "svg")
    assert code == 0
    assert "<polyline" in out and "stroke-dasharray" in out
    assert "0.693147" in out  # dashed reference at log 2


def test_census_output(capsys):
    code, out, _ = run(capsys, "census", "--b", "1", "--x", "10")
    assert code == 0
    assert out.splitlines() == ["n", "3", "7", "8"]
    code, out, _ = run(capsys, "census", "--b", "1", "--x", "10", "--format", "json")
    assert json.loads(out)["non_primitive"] == [3, 7, 8]


def _csv_reference(rows, header):
    # the per-cell writer that cli._csv must match byte for byte
    return "".join(",".join(f"{v:.12g}" if type(v) is float else str(v) for v in row) + "\n"
                   for row in [header, *rows])


def test_csv_matches_per_cell_formatting():
    floats = [1e16, 1e-7, -0.0, 0.1 + 0.2, 2.0 ** 60, math.inf, -math.inf, math.nan, 1.0]
    ints = [2 ** 70, 0, 1, -7, 10 ** 16, 2 ** 60, 123456789012345678, -(2 ** 70), 42]
    strs = ["2^1 5^2", "", "%s", "100%", "7^2", "x", "-0", "inf", "%(k)s"]
    rows = list(zip(floats, ints, strs))
    header = ["f", "i", "s"]
    want = _csv_reference(rows, header)
    assert cli._csv(rows, header) == want
    assert want.splitlines()[1:4] == ["1e+16,1180591620717411303424,2^1 5^2", "1e-07,0,", "-0,1,%s"]
    assert cli._csv([], header) == "f,i,s\n"
    # columns in another order, and one-column rows as census passes them
    swapped = [(i, s, f) for f, i, s in rows]
    assert cli._csv(swapped, ["i", "s", "f"]) == _csv_reference(swapped, ["i", "s", "f"])
    assert cli._csv(zip(ints), ["n"]) == _csv_reference(zip(ints), ["n"])


def test_csv_chunk_edges():
    c = cli._CHUNK
    for count in (0, 1, c - 1, c, c + 1, 2 * c + 1):
        rows = [[k, k / 7, f"s{k}"] for k in range(count)]
        want = _csv_reference(rows, ["k", "q", "s"])
        assert cli._csv(rows, ["k", "q", "s"]) == want, count
        assert cli._csv((r for r in rows), ["k", "q", "s"]) == want, count
        assert want.count("\n") == count + 1


@pytest.mark.parametrize("b", [1, -2, 7, -75001])
def test_census_csv_matches_definitional_oracle(capsys, b):
    x = 3000
    code, out, _ = run(capsys, "census", "--b", str(b), "--x", str(x))
    assert code == 0
    non = [n for n, new in enumerate(naive_new_primes(b, x), 1) if not new]
    assert out == "n\n" + "".join(f"{n}\n" for n in non)


def test_chebyshev_csv_header(capsys):
    code, out, _ = run(capsys, "chebyshev", "--b", "1", "--x", "100")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,K,log_Qx,sum_S,sum_Sprime,s,sprime,t,u"
    fields = lines[1].split(",")
    assert fields[0] == "100"
    assert abs(float(fields[2]) - (float(fields[3]) + float(fields[4]))) < 1e-6


def test_nx_and_windows(capsys):
    code, out, _ = run(capsys, "nx", "--b", "1", "--x", "5")
    assert code == 0
    assert out.splitlines() == ["p,count", "13,2", "37,1", "41,1"]
    code, out, _ = run(capsys, "nx", "--b", "1", "--x", "5", "--windows")
    assert out.splitlines()[0] == "v,V,x_over_log_v"
    assert out.splitlines()[1].startswith("10,2,")


def test_chowla_and_mertens(capsys):
    code, out, _ = run(capsys, "chowla-todd", "--x", "10")
    assert code == 0
    assert out.splitlines()[1] == "10,2,0.2"
    code, out, _ = run(capsys, "mertens", "--x", "10", "--format", "json")
    d = json.loads(out)
    assert d["sum"] == pytest.approx(1.176190476190, rel=1e-9)


def test_chowla_todd_checkpoints_in_one_pass(capsys, monkeypatch):
    calls = []
    primes_upto = arith.primes_upto
    monkeypatch.setattr(arith, "primes_upto", lambda n: calls.append(n) or primes_upto(n))
    code, out, _ = run(capsys, "chowla-todd", "--x", "3000", "--checkpoints", "7")
    assert code == 0 and len(calls) == 1
    monkeypatch.undo()
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [int(m) for m, _, _ in rows] == [429, 857, 1286, 1714, 2143, 2571, 3000]
    for m, count, ratio in rows:
        c, r = stats.chowla_todd_density(int(m))
        assert [count, ratio] == [str(c), f"{r:.12g}"]


@pytest.mark.slow
def test_chowla_and_mertens_memory_bounded_at_1e8():
    # Both stream one segmented prime sieve, so at x = 10^8 they fit in a
    # 128 MB address space; a list of the 5.76M primes below 10^8 does not.
    # The limit is set in the child only.
    limit = 128 << 20

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    for sub in ("mertens", "chowla-todd"):
        out = subprocess.run([sys.executable, "-m", "quadfactor.cli", sub, "--x", "100000000"],
                             capture_output=True, text=True, preexec_fn=cap, timeout=600,
                             cwd=Path(quadfactor.__file__).parent.parent)
        assert out.returncode == 0 and out.stderr == "", (sub, out.stderr)
        assert out.stdout.splitlines()[1].startswith("100000000,"), sub


def test_x_past_the_cap_refused_before_any_table():
    # Unchecked, each argv builds a table of about x entries first (a prime
    # flag array of sqrt(x) bytes, a set of x checkpoints) and dies of
    # MemoryError; x is checked against the sieve cap before that.  The
    # children run in a 128 MB address space with a timeout.
    limit = 128 << 20

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    big = str(10 ** 20)
    for argv, x in ((["mertens", "--x", big], big),
                    (["chowla-todd", "--x", big], big),
                    (["density", "--b", "1", "--x", big, "--checkpoints", big], big),
                    (["mertens", "--x", "1000000000"], "1000000000")):
        out = subprocess.run([sys.executable, "-m", "quadfactor.cli", *argv],
                             capture_output=True, text=True, preexec_fn=cap, timeout=60,
                             cwd=Path(quadfactor.__file__).parent.parent)
        assert (out.returncode, out.stdout, out.stderr) == (
            2, "", f"computation error: x = {x} exceeds the cap 999999999\n"), argv


def test_segment_size_rejected_by_every_subcommand(capsys):
    # the segment length is fixed (sieve.SEGMENT); no subcommand takes it
    for argv in (["density", "--b", "1", "--x", "20"], ["census", "--b", "1", "--x", "20"],
                 ["chebyshev", "--b", "1", "--x", "20"], ["nx", "--b", "1", "--x", "20"],
                 ["sieve", "--b", "1", "--x", "20"], ["chowla-todd", "--x", "100"],
                 ["mertens", "--x", "100"], ["constants"], ["stormer", "--bound", "6"]):
        code, out, err = run(capsys, *argv, "--segment-size", "7")
        assert code == 1 and "--segment-size" in err and out == "", argv


def test_constants_json(capsys):
    code, out, _ = run(capsys, "constants")
    d = json.loads(out)
    assert d["sigma"] == pytest.approx(1.202468, abs=1e-6)
    assert d["theta"] == pytest.approx(1.766249, abs=1e-6)
    assert d["beta"] == pytest.approx(1.52383, abs=1e-5)
    assert d["lower_bound"] > 0.5324 and d["upper_bound"] < 0.905
    assert d["conjectural_sigma_quoted"] == 1.4416


def test_stormer_json(capsys):
    code, out, _ = run(capsys, "stormer", "--bound", "6")
    d = json.loads(out)
    assert d == {"B": 6, "solutions": [1, 2, 3, 7], "max_n": 7, "truncated_Ds": []}


def test_stormer_help_names_period_bound(capsys):
    # --digit-cap also fixes pass 1's quotient bound, which alone leaves
    # D unsettled at B = 101 under the default
    code, out, _ = run(capsys, "stormer", "--help")
    text = " ".join(out.split())
    assert code == 0
    assert "period bound" in text and "--digit-cap 101000 settles every D" in text


def test_sieve_dump(capsys):
    code, out, _ = run(capsys, "sieve", "--b", "1", "--x", "8")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,sign,factors,cofactor"
    assert lines[7] == "7,1,2^1 5^2,1"
    assert lines[6] == "6,1,,37"  # no factor below the limit 18


def test_exit_codes(capsys):
    code, _, err = run(capsys, "density", "--b", "-4", "--x", "10")
    assert code == 2 and "square" in err
    code, _, err = run(capsys, "density", "--b", "1")
    assert code == 1
    code, _, _ = run(capsys, "stormer", "--bound", "2")
    assert code == 2  # precondition violation surfaces as computation error
    for argv in (["stormer", "--bound", "14", "--kmax", "-5"],
                 ["stormer", "--bound", "14", "--kmax", "0"],
                 ["stormer", "--bound", "14", "--digit-cap", "-1"],
                 ["stormer", "--bound", "14", "--digit-cap", "0"],
                 ["density", "--b", "1", "--x", "100", "--checkpoints", "0"],
                 ["density", "--b", "1", "--x", "100", "--checkpoints", "-3"],
                 ["chowla-todd", "--x", "100", "--checkpoints", "0"],
                 ["chowla-todd", "--x", "100", "--checkpoints", "-3"],
                 ["chowla-todd", "--x", "1"],
                 ["chowla-todd", "--x", "-5"],
                 ["chebyshev", "--b", "1", "--x", "100", "--K", "nan"],
                 ["chebyshev", "--b", "1", "--x", "100", "--K", "inf"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("computation error:"), argv
    # a bad x is reported as such, not as the sieve's internal index range
    for argv in (["census", "--b", "1", "--x", "0"],
                 ["census", "--b", "1", "--x", "-5"],
                 ["sieve", "--b", "1", "--x", "0"],
                 ["density", "--b", "1", "--x", "0"]):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", "computation error: x must be >= 1\n"), argv
    # the cap names the largest n sieved: x, or 2x - 1 for nx's range [x, 2x)
    for argv, n in ((["density", "--b", "1", "--x", "1000000000"], 1000000000),
                    (["census", "--b", "1", "--x", "1000000000"], 1000000000),
                    (["chebyshev", "--b", "1", "--x", "1000000000"], 1000000000),
                    (["sieve", "--b", "1", "--x", "1000000000"], 1000000000),
                    (["nx", "--b", "1", "--x", "600000000"], 1199999999)):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (
            2, "", f"computation error: n = {n} exceeds the cap 999999999\n"), argv
    assert cli.main(["--help"]) == 0
    for sub in ("density", "census", "chebyshev", "nx", "chowla-todd",
                "mertens", "constants", "stormer", "sieve"):
        assert cli.main([sub, "--help"]) == 0


def test_out_errors(tmp_path, capsys):
    # an unwritable path is a usage error; a computation error writes no file
    for out in (tmp_path, tmp_path / "missing" / "x.csv"):
        code, stdout, err = run(capsys, "density", "--b", "1", "--x", "10", "--out", str(out))
        assert code == 1 and stdout == "" and "Traceback" not in err, out
        assert err.startswith(f"error: cannot write {out}: "), err
    bad = tmp_path / "bad.csv"
    assert run(capsys, "density", "--b", "-4", "--x", "10", "--out", str(bad))[0] == 2
    assert not bad.exists()


def test_checkpoint_grid_saturates_at_x():
    assert cli._checkpoint_grid(100, 10 ** 12) == list(range(1, 101))
    for x in (1, 2, 7, 100, 399):
        for n in (x, x + 1, 3 * x + 4):
            assert cli._checkpoint_grid(x, n) == list(range(1, x + 1)), (x, n)


def test_checkpoint_grid_rises_strictly_to_x():
    # the n evenly spaced marks, deduplicated, clamped to >= 1 and closed at x
    def even(x, n):
        return sorted({max(1, round(i * x / n)) for i in range(1, n + 1)} | {x})

    pairs = [(x, n) for x in range(2, 201) for n in range(2, x + 1)]
    rng = random.Random(2024)
    for _ in range(1000):  # x up to 10^9
        pairs.append((rng.randrange(1000, 10 ** 9), rng.randrange(2, 1000)))
    for _ in range(200):  # steps x / n just above 1
        x = rng.randrange(201, 5000)
        pairs.append((x, rng.randrange(x // 2, x + 1)))
    for x, n in pairs:
        assert cli._checkpoint_grid(x, n) == even(x, n), (x, n)


def test_threads_env_ignored(capsys, monkeypatch):
    monkeypatch.delenv("QFL_THREADS", raising=False)
    code, want, _ = run(capsys, "density", "--b", "1", "--x", "100")
    assert code == 0 and want.splitlines()[1].split(",")[1] == "70"
    monkeypatch.setenv("QFL_THREADS", "junk")
    assert run(capsys, "density", "--b", "1", "--x", "100") == (0, want, "")


def test_out_file_and_thread_determinism(tmp_path, capsys):
    base = ["chebyshev", "--b", "1", "--x", "2000"]
    blobs = []
    for threads in (1, 4, 16):
        p = tmp_path / f"t{threads}.csv"
        assert cli.main(base + ["--threads", str(threads), "--out", str(p)]) == 0
        blobs.append(p.read_bytes())
    capsys.readouterr()
    assert blobs[0] == blobs[1] == blobs[2]
    assert blobs[0].endswith(b"\n") and b"\r" not in blobs[0]


def test_nx_json_uses_symbol_keys(capsys):
    code, out, _ = run(capsys, "nx", "--b", "1", "--x", "5", "--format", "json")
    d = json.loads(out)
    assert d["N_total"] == 4
    assert d["counts"]["13"] == 2


def test_svg_renderer_contract():
    svg = render_svg([(1.0, 0.5), (2.0, 0.7)], math.log(2.0), "density", "rho/x")
    assert svg.count("<circle") == 2
    assert "stroke-dasharray" in svg and "0.693147" in svg
    with pytest.raises(PreconditionViolatedError):
        render_svg([], math.log(2.0), "density", "rho/x")
