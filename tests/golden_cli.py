"""Byte-identity check of the command-line output over a fixed set of argvs.

Usage: python3 tests/golden_cli.py TREE > golden.txt

TREE is a source tree holding src/quadfactor.  Every case runs
quadfactor.cli.main in this one process and prints one line,
"<sha1> <argv>", where the SHA-1 covers the exit code, stdout and stderr;
the last line is the case count and the SHA-1 of all the lines before
it.  Run it on two trees and diff the outputs: a change that keeps every
byte of the CLI gives the same file.  Stdlib only; pytest does not
collect it.
"""

import contextlib
import hashlib
import io
import sys
from pathlib import Path

BS = (1, -2, 15, 2 ** 30, -75001, 999999, 7, -3, 2 ** 31, -(2 ** 31 - 1))
XS = (2, 100, 65535, 65536, 65537)  # the segment edges around 2^16
KS = ("2.5", "50")  # chebyshev's K besides the default 4
FORMATS = {
    "density": ("csv", "json", "svg"),
    "census": ("csv", "json"),
    "chebyshev": ("csv", "json"),
    "nx": ("csv", "json"),
    "sieve": ("csv",),
}
SUBCOMMANDS = ("density", "census", "chebyshev", "nx", "chowla-todd", "mertens",
               "constants", "stormer", "sieve")
BENCHMARK = (  # the argvs of the perfbench workloads
    ["census", "--b", "-73600", "--x", "150000"],
    ["chebyshev", "--b", "1", "--x", "100000", "--K", "4", "--threads", "2"],
    ["stormer", "--bound", "74"],
)


def cases():
    for b in BS:
        for x in XS:
            for cmd, fmts in FORMATS.items():
                for fmt in fmts:
                    yield [cmd, "--b", str(b), "--x", str(x), "--format", fmt]
            for fmt in FORMATS["nx"]:
                yield ["nx", "--b", str(b), "--x", str(x), "--windows", "--format", fmt]
            for K in KS:  # the t/u split of S' at Kx
                for fmt in FORMATS["chebyshev"]:
                    yield ["chebyshev", "--b", str(b), "--x", str(x), "--K", K, "--format", fmt]
    for x in XS:
        for fmt in ("csv", "json"):
            yield ["chowla-todd", "--x", str(x), "--checkpoints", "3", "--format", fmt]
            yield ["mertens", "--x", str(x), "--format", fmt]
    yield ["density", "--b", "1", "--x", "65537", "--checkpoints", "7"]
    yield ["chebyshev", "--b", "7", "--x", "100", "--K", "2.5"]
    yield ["chebyshev", "--b", "1", "--x", "128", "--K", "3.1328125"]  # Kx = 401, an S' prime
    yield ["chebyshev", "--b", "1", "--x", "1000", "--K", "1e308"]  # Kx overflows to inf
    yield ["constants"]
    yield ["stormer", "--bound", "14"]
    yield ["sieve", "--b", "-4", "--x", "10"]  # -b a square: exit 2
    for cmd in ("census", "chebyshev", "sieve"):  # n past the sieve cap: exit 2
        yield [cmd, "--b", "1", "--x", "1000000000"]
    yield ["density", "--b", "1"]  # missing --x: exit 1
    yield ["--help"]
    for cmd in SUBCOMMANDS:
        yield [cmd, "--help"]
    # checkpoint grids with steps x / n just above 1, and a short one
    yield ["density", "--b", "1", "--x", "1000", "--checkpoints", "999"]
    yield ["density", "--b", "7", "--x", "3", "--checkpoints", "2", "--format", "json"]
    for fmt in ("csv", "json"):
        yield ["chowla-todd", "--x", "5000", "--checkpoints", "4999", "--format", fmt]
    yield ["stormer", "--bound", "40"]
    yield from BENCHMARK


def run(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    blob = f"{code}\n{out.getvalue()}\0{err.getvalue()}"
    return hashlib.sha1(blob.encode("utf-8")).hexdigest()


def main(tree):
    sys.path.insert(0, str(Path(tree).resolve() / "src"))
    from quadfactor import cli
    total, count = hashlib.sha1(), 0
    for argv in cases():
        line = f"{run(cli.main, argv)} {' '.join(argv)}\n"
        sys.stdout.write(line)
        sys.stdout.flush()
        total.update(line.encode("utf-8"))
        count += 1
    print(f"total {count} cases {total.hexdigest()}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: golden_cli.py TREE")
    main(sys.argv[1])
