"""Command-line front end.

Subcommands, one per report the library computes:

  density      rho_b(x) and rho_b(x)/x at checkpoints (csv/json/svg)
  census       indices n <= x whose n^2 + b has no primitive divisor
  chebyshev    log Q_x and its exponent-weighted split at 2x and Kx
  nx           N_x(p) histogram over p >= 2x, or V_x window sums
  chowla-todd  density of m <= x with P+(m) > 2 sqrt(m)
  mertens      sum of 1/p over primes p < x
  constants    sigma, theta, alpha, beta and the density bounds (json)
  stormer      all n with n^2 + 1 smooth below a bound (json)
  sieve        raw factorization dump of n^2 + b for n <= x

CSV output is comma-separated, LF-terminated, headered, floats with 12
significant digits, so identical runs diff clean.  Exit codes: 0 ok,
1 usage error, 2 computation error.
"""

import argparse
import io
import json
import math
import sys
from itertools import chain, islice
from typing import Iterable, List, Optional, Sequence

from . import arith, constants, primitive, sieve, stats, stormer
from .errors import CapExceededError, Error, PreconditionViolatedError
from .svg import render_svg


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


_CHUNK = 4096  # rows rendered by one % format


def _csv(rows: Iterable[Sequence], header: List[str]) -> str:
    """The header line and one line per row, as CSV text.

    A float cell is written with 12 significant digits, any other cell
    as str().  The row format comes from the first row's cell types, so
    every column must hold one type; each chunk of _CHUNK rows is then
    rendered by one % format, with no Python code run per cell.
    """
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    rows = iter(rows)
    chunk = list(islice(rows, _CHUNK))
    if chunk:
        fmt = ",".join(["%.12g" if type(v) is float else "%s" for v in chunk[0]]) + "\n"
    while chunk:
        buf.write(fmt * len(chunk) % tuple(chain.from_iterable(chunk)))
        chunk = list(islice(rows, _CHUNK))
    return buf.getvalue()


def _capped(x: int) -> int:
    """x, or CapExceededError past the sieve cap, before any table of size x is built."""
    if x >= sieve.HI_CAP:
        raise CapExceededError(f"x = {x} exceeds the cap {sieve.HI_CAP - 1}")
    return x


def _checkpoint_grid(x: int, n: int) -> List[int]:
    if n < 1:
        raise PreconditionViolatedError("checkpoints must be >= 1")
    n = min(n, max(x, 1))  # n >= x marks every index 1..x
    if n == 1:
        return [x]
    _capped(x)  # before a set of up to x marks
    marks = sorted({max(1, round(i * x / n)) for i in range(1, n + 1)})
    if marks[-1] != x:
        marks.append(x)
    return marks


def _add_common(p, *, b=False, x=False, checkpoints=False, fmt=None):
    if b:
        p.add_argument("--b", type=int, required=True, help="sequence offset b in n^2 + b")
    if x:
        p.add_argument("--x", type=int, required=True, help="upper index/argument x")
    if checkpoints:
        p.add_argument("--checkpoints", type=int, default=1,
                       help="number of evenly spaced checkpoint rows (default 1)")
    p.add_argument("--threads", type=int, default=None,
                   help="ignored: accepted for compatibility; the computation "
                        "is single-threaded")
    if fmt:
        p.add_argument("--format", choices=fmt, default=fmt[0], help="output format")
    p.add_argument("--out", default=None, help="output path (default stdout)")


def build_parser() -> _Parser:
    ap = _Parser(prog="quadfactor",
                 description="Primitive divisors, factor statistics and smooth "
                             "solutions for the sequences n^2 + b.")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("density", help="rho_b(x): count and density of indices n <= x "
                                       "whose n^2 + b has a primitive divisor")
    _add_common(p, b=True, x=True, checkpoints=True, fmt=("csv", "json", "svg"))

    p = sub.add_parser("census", help="indices n <= x whose n^2 + b has no primitive "
                                      "divisor, i.e. x - rho_b(x)")
    _add_common(p, b=True, x=True, fmt=("csv", "json"))

    p = sub.add_parser("chebyshev", help="log Q_x = log prod |n^2 + b| and its "
                                         "exponent-weighted split over primes below "
                                         "and above 2x, partitioned again at Kx")
    _add_common(p, b=True, x=True, fmt=("csv", "json"))
    p.add_argument("--K", type=float, default=4.0, help="partition parameter K > 2")

    p = sub.add_parser("nx", help="N_x(p): for each prime p >= 2x, how many "
                                  "n in [x, 2x) it divides n^2 + b for; "
                                  "--windows sums them over (v, e*v]")
    _add_common(p, b=True, x=True, fmt=("csv", "json"))
    p.add_argument("--windows", action="store_true",
                   help="emit V_x(v) window sums instead of the histogram")

    p = sub.add_parser("chowla-todd", help="count and density of m <= x with "
                                           "P+(m) > 2 sqrt(m) (tends to log 2)")
    _add_common(p, x=True, checkpoints=True, fmt=("csv", "json"))

    p = sub.add_parser("mertens", help="sum of 1/p over primes p < x and its "
                                       "offset from log log x")
    _add_common(p, x=True, fmt=("csv", "json"))

    p = sub.add_parser("constants", help="the analytic constants sigma, theta, alpha, "
                                         "beta, the density bounds 2 sigma - 3/2 and "
                                         "2 theta - 3, residuals and identity checks")
    p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("stormer", help="all n whose n^2 + 1 has every prime factor "
                                       "below the bound, via negative Pell chains")
    p.add_argument("--bound", type=int, required=True, help="smoothness bound B >= 3")
    p.add_argument("--kmax", type=int, default=None, help="odd solution-index cutoff override")
    p.add_argument("--digit-cap", type=int, default=stormer.DEFAULT_DIGIT_CAP,
                   help="decimal-digit cap (default %(default)s): it stops each Pell "
                        "chain at the first element past this many digits, and it "
                        "fixes the period bound, the quotient count M after which "
                        "pass 1 leaves a D unsettled; --digit-cap 101000 settles "
                        "every D at --bound 101")
    p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("sieve", help="raw dump: exact factorization of n^2 + b "
                                     "for every n <= x")
    _add_common(p, b=True, x=True, fmt=("csv",))
    return ap


def _cmd_density(args) -> str:
    spec = arith.validate_b(args.b)
    marks = _checkpoint_grid(args.x, args.checkpoints)
    rep = primitive.rho(spec, args.x, marks)
    if args.format == "csv":
        return _csv([[x, r, ratio] for x, r, ratio in rep.checkpoints],
                    ["x", "rho", "ratio"])
    if args.format == "json":
        return json.dumps({"b": args.b, "x": args.x,
                           "rho": rep.checkpoints[-1][1],
                           "ratio": rep.checkpoints[-1][2],
                           "checkpoints": rep.checkpoints}) + "\n"
    series = [(float(x), ratio) for x, _, ratio in rep.checkpoints]
    return render_svg(series, reference=constants.LOG2,
                      title=f"density of terms with a primitive divisor, b={args.b}",
                      ylabel="rho/x")


def _cmd_census(args) -> str:
    spec = arith.validate_b(args.b)
    rep = primitive.non_primitive_census(spec, args.x)
    if args.format == "csv":
        return _csv(zip(rep.non_primitive), ["n"])
    return json.dumps({"b": args.b, "x": args.x, "count": rep.count,
                       "non_primitive": rep.non_primitive}) + "\n"


def _cmd_chebyshev(args) -> str:
    spec = arith.validate_b(args.b)
    r = stats.chebyshev_report(spec, args.x, args.K)
    if args.format == "csv":
        return _csv([[r.x, r.K, r.log_Qx, r.sum_S, r.sum_Sprime,
                      r.s, r.s_prime, r.t, r.u]],
                    ["x", "K", "log_Qx", "sum_S", "sum_Sprime", "s", "sprime", "t", "u"])
    return json.dumps({"b": args.b, "x": r.x, "K": r.K, "log_Qx": r.log_Qx,
                       "sum_S": r.sum_S, "sum_Sprime": r.sum_Sprime,
                       "s": r.s, "sprime": r.s_prime, "t": r.t, "u": r.u}) + "\n"


def _cmd_nx(args) -> str:
    spec = arith.validate_b(args.b)
    hist = stats.nx_histogram(spec, args.x)
    if args.windows:
        rows = []
        v = 2.0 * args.x
        top = max(hist.counts) if hist.counts else v
        while v <= top:
            rows.append([v, stats.vx(hist, v), args.x / math.log(v)])
            v *= math.e
        if args.format == "csv":
            return _csv(rows, ["v", "V", "x_over_log_v"])
        return json.dumps({"b": args.b, "x": args.x,
                           "windows": [{"v": a, "V": bb, "x_over_log_v": c}
                                       for a, bb, c in rows]}) + "\n"
    if args.format == "csv":
        return _csv(([p, hist.counts[p]] for p in sorted(hist.counts)), ["p", "count"])
    return json.dumps({"b": args.b, "x": args.x, "N_total": hist.total,
                       "weighted": hist.weighted,
                       "counts": {str(p): hist.counts[p] for p in sorted(hist.counts)}}) + "\n"


def _cmd_chowla_todd(args) -> str:
    if args.x < 2:
        raise PreconditionViolatedError("x must be >= 2")
    marks = [m for m in _checkpoint_grid(_capped(args.x), args.checkpoints) if m >= 2]
    counts = stats._chowla_todd_counts(marks)
    rows = [[m, c, c / m] for m, c in zip(marks, counts)]
    if args.format == "csv":
        return _csv(rows, ["x", "count", "ratio"])
    return json.dumps({"x": args.x,
                       "rows": [{"x": a, "count": b, "ratio": c} for a, b, c in rows],
                       "log2": constants.LOG2}) + "\n"


def _cmd_mertens(args) -> str:
    s = stats.mertens_sum(_capped(args.x))
    drift = s - math.log(math.log(args.x))
    if args.format == "csv":
        return _csv([[args.x, s, drift]], ["x", "sum", "drift"])
    return json.dumps({"x": args.x, "sum": s, "loglog_x": math.log(math.log(args.x)),
                       "drift": drift}) + "\n"


def _cmd_constants(args) -> str:
    return json.dumps(constants.compute_all().as_dict(), indent=2) + "\n"


def _cmd_stormer(args) -> str:
    res = stormer.stormer_search(args.bound, k_max_override=args.kmax,
                                 digit_cap=args.digit_cap)
    return json.dumps({"B": res.B, "solutions": res.solutions, "max_n": res.max_n,
                       "truncated_Ds": res.truncated_Ds}) + "\n"


def _cmd_sieve(args) -> str:
    spec = arith.validate_b(args.b)
    if args.x < 1:
        raise PreconditionViolatedError("x must be >= 1")
    cfg = sieve.SieveConfig(1, args.x + 1)
    return _csv(([tf.n, tf.sign, " ".join(f"{p}^{e}" for p, e in tf.factors), tf.cofactor]
                 for tf in sieve.sieve_range(spec, cfg)),
                ["n", "sign", "factors", "cofactor"])


_DISPATCH = {
    "density": _cmd_density,
    "census": _cmd_census,
    "chebyshev": _cmd_chebyshev,
    "nx": _cmd_nx,
    "chowla-todd": _cmd_chowla_todd,
    "mertens": _cmd_mertens,
    "constants": _cmd_constants,
    "stormer": _cmd_stormer,
    "sieve": _cmd_sieve,
}


def main(argv: Optional[List[str]] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        ap.print_usage(sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return exc.code or 0
    try:
        text = _DISPATCH[args.cmd](args)
    except Error as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return 2
    if not args.out:
        sys.stdout.write(text)
        return 0
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
        return 1
    return 0


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
