"""Scalar equations behind the density bounds, solved to double precision.

Four constants are produced:

* sigma: root of 2 - s - 2 log(2 - s) = 5/4 on (1, 2); the upper density
  bound is 2 sigma - 3/2.
* theta: root of 2(2 - t) - 2 log(t - 1) = 1 on (1.5, 2), also the limit
  of the damped iteration a_{k+1} = (3/2 + a_k - log(a_k - 1)) / 2 from
  a_1 = 2; the lower density bound is 2 theta - 3.
* (alpha, beta): the pair with integral_alpha^beta 2/(t-1) dt = log 2 and
  integral_alpha^beta 2t/(t-1) dt = 1, solved both in closed form and as
  a 2x2 system.
* the conjectural exponent 1/log 2 = 1.442695..., reported alongside the
  commonly quoted digits 1.4416... which disagree with direct evaluation.

Each root is bracketed on an interval where the defining function is
monotone, refined by bisection and polished by Newton; residuals are
kept below 1e-12.
"""

import math
from typing import Callable, Dict, List, NamedTuple, Tuple

from .errors import NonConvergenceError

LOG2 = math.log(2.0)
QUOTED_CONJECTURAL_SIGMA = 1.4416  # printed digits in circulation for 1/log 2

SIGMA_BRACKET = (1.0 + 1e-9, 2.0 - 1e-9)
THETA_BRACKET = (1.5, 2.0 - 1e-9)


def bisect(f: Callable[[float], float], lo: float, hi: float, tol: float = 1e-13) -> float:
    """Bisection on a sign change of a monotone f."""
    flo = f(lo)
    if flo == 0.0:
        return lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0 or hi - lo < tol:
            return mid
        if (fm < 0.0) == (flo < 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def newton(f: Callable[[float], float], df: Callable[[float], float], x0: float) -> float:
    """Newton's method from x0, to a fixed step tolerance of 1e-14 in at most 60 steps."""
    x = x0
    for _ in range(60):
        step = f(x) / df(x)
        x -= step
        if abs(step) < 1e-14:
            return x
    raise NonConvergenceError(f"Newton stalled at {x}")


def quad_adaptive(f: Callable[[float], float], a: float, b: float) -> float:
    """Adaptive Simpson quadrature to a fixed tolerance of 1e-10."""

    def simpson(lo, hi, flo, fmid, fhi):
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def recurse(lo, hi, flo, fmid, fhi, whole, eps, depth):
        mid = 0.5 * (lo + hi)
        lm = 0.5 * (lo + mid)
        rm = 0.5 * (mid + hi)
        flm = f(lm)
        frm = f(rm)
        left = simpson(lo, mid, flo, flm, fmid)
        right = simpson(mid, hi, fmid, frm, fhi)
        if depth <= 0 or abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return (recurse(lo, mid, flo, flm, fmid, left, eps / 2.0, depth - 1)
                + recurse(mid, hi, fmid, frm, fhi, right, eps / 2.0, depth - 1))

    mid = 0.5 * (a + b)
    fa, fm, fb = f(a), f(mid), f(b)
    return recurse(a, b, fa, fm, fb, simpson(a, b, fa, fm, fb), 1e-10, 50)


def _sigma_f(s: float) -> float:
    return 2.0 - s - 2.0 * math.log(2.0 - s) - 1.25


def _sigma_df(s: float) -> float:
    return -1.0 + 2.0 / (2.0 - s)


def solve_sigma() -> float:
    """Root of 2 - s - 2 log(2 - s) = 5/4 in (1, 2)."""
    x0 = bisect(_sigma_f, *SIGMA_BRACKET, tol=1e-6)
    return newton(_sigma_f, _sigma_df, x0)


def _theta_f(t: float) -> float:
    return 2.0 * (2.0 - t) - 2.0 * math.log(t - 1.0) - 1.0


def _theta_df(t: float) -> float:
    return -2.0 - 2.0 / (t - 1.0)


def theta_iterates() -> List[float]:
    """The damped fixed-point iteration from a_1 = 2, run to a fixed step of 1e-13."""
    seq = [2.0]
    while len(seq) < 200:
        a = seq[-1]
        nxt = 0.5 * (1.5 + a - math.log(a - 1.0))
        seq.append(nxt)
        if abs(nxt - a) < 1e-13:
            return seq
    raise NonConvergenceError("theta iteration did not settle in 200 steps")


def solve_theta() -> Tuple[float, List[float]]:
    """Limit of the iteration, cross-checked against bisection + Newton."""
    seq = theta_iterates()
    x0 = bisect(_theta_f, *THETA_BRACKET, tol=1e-6)
    root = newton(_theta_f, _theta_df, x0)
    if abs(root - seq[-1]) > 1e-12:
        raise NonConvergenceError(
            f"iteration limit {seq[-1]} and root {root} disagree")
    return root, seq


def _bounds(theta: float, sigma: float) -> Tuple[float, float]:
    """(lower, upper) = (2 theta - 3, 2 sigma - 3/2), checked against
    the published decimals 0.5324 and 0.905."""
    lower = 2.0 * theta - 3.0
    upper = 2.0 * sigma - 1.5
    if not (lower > 0.5324 and upper < 0.905):
        raise NonConvergenceError(
            f"bounds ({lower}, {upper}) miss the published (0.5324, 0.905)")
    return lower, upper


def solve_alpha_beta() -> Tuple[float, float]:
    """Solve the window system in closed form and verify it numerically.

    The first integral gives (beta-1)/(alpha-1) = sqrt(2); substituting
    into the second gives beta - alpha = (1 - log 2)/2, hence
    beta = 1 + (1 - log 2)/(2 - sqrt 2).  A Newton solve of the raw 2x2
    system must agree to 1e-9 (it agrees to machine precision).
    """
    r = math.sqrt(2.0)
    alpha = 1.0 + (1.0 - LOG2) / (2.0 * (r - 1.0))
    beta = 1.0 + (1.0 - LOG2) / (2.0 - r)

    # one damped Newton pass on the genuine system as a cross-check
    a, bt = 1.3, 1.6
    for _ in range(80):
        g1 = 2.0 * math.log((bt - 1.0) / (a - 1.0)) - LOG2
        g2 = 2.0 * (bt - a) + 2.0 * math.log((bt - 1.0) / (a - 1.0)) - 1.0
        j11, j12 = -2.0 / (a - 1.0), 2.0 / (bt - 1.0)
        j21, j22 = -2.0 - 2.0 / (a - 1.0), 2.0 + 2.0 / (bt - 1.0)
        det = j11 * j22 - j12 * j21
        da = (g1 * j22 - g2 * j12) / det
        db = (g2 * j11 - g1 * j21) / det
        a, bt = a - da, bt - db
        if abs(da) + abs(db) < 1e-15:
            break
    if abs(a - alpha) > 1e-9 or abs(bt - beta) > 1e-9:
        raise NonConvergenceError("closed form and system solution disagree")
    return alpha, beta


def conjectural_sigma() -> float:
    """The exponent 1/log 2 implied by the density conjecture."""
    return 1.0 / LOG2


class AnalyticConstants(NamedTuple):
    sigma: float
    theta: float
    alpha: float
    beta: float
    lower_bound: float  # 2 theta - 3
    upper_bound: float  # 2 sigma - 3/2
    conjectural_sigma: float
    theta_iterates: List[float]
    residuals: Dict[str, float]

    def as_dict(self) -> dict:
        return {
            "sigma": self.sigma,
            "theta": self.theta,
            "alpha": self.alpha,
            "beta": self.beta,
            "lower_bound": self.lower_bound,
            "upper_bound": self.upper_bound,
            "conjectural_sigma": self.conjectural_sigma,
            "conjectural_sigma_quoted": QUOTED_CONJECTURAL_SIGMA,
            "conjectural_sigma_note": (
                "digits 1.4416... are sometimes quoted for this exponent; "
                "direct evaluation of 1/log 2 gives 1.442695..., and the "
                "computed value is the one reported"),
            "theta_iterate_2": self.theta_iterates[1],
            "residuals": self.residuals,
        }


def compute_all() -> AnalyticConstants:
    """Solve everything and bundle residual/identity diagnostics."""
    sigma = solve_sigma()
    theta, seq = solve_theta()
    alpha, beta = solve_alpha_beta()
    lower, upper = _bounds(theta, sigma)
    residuals = {
        "sigma_equation": _sigma_f(sigma),
        "theta_equation": _theta_f(theta),
        "window_log_integral": quad_adaptive(lambda t: 2.0 / (t - 1.0), alpha, beta) - LOG2,
        "window_weighted_integral": quad_adaptive(lambda t: 2.0 * t / (t - 1.0), alpha, beta) - 1.0,
        "sigma_log_identity": -4.0 * math.log(2.0 - sigma) - (2.0 * sigma - 1.5),
        "theta_log_identity": -2.0 * math.log(theta - 1.0) - (2.0 * theta - 3.0),
    }
    return AnalyticConstants(sigma, theta, alpha, beta, lower, upper,
                             conjectural_sigma(), seq, residuals)
