import math

import pytest

from quadfactor import constants
from quadfactor.errors import NonConvergenceError


def test_sigma_value_and_residual():
    s = constants.solve_sigma()
    assert abs(s - 1.202468) < 1e-6
    assert abs(2.0 - s - 2.0 * math.log(2.0 - s) - 1.25) < 1e-12


def test_sigma_log_identity():
    s = constants.solve_sigma()
    assert abs(-4.0 * math.log(2.0 - s) - (2.0 * s - 1.5)) < 1e-11
    # same number as the upper-bound integral of 2/(1 - t/2) from 1 to sigma
    integral = constants.quad_adaptive(lambda t: 2.0 / (1.0 - t / 2.0), 1.0, s)
    assert abs(integral - (2.0 * s - 1.5)) < 1e-9


def test_theta_iteration_and_value():
    theta, seq = constants.solve_theta()
    assert seq[0] == 2.0
    assert seq[1] == 1.75  # exact: (3/2 + 2 - log 1)/2
    assert abs(theta - 1.766249) < 1e-6
    assert abs(2.0 * (2.0 - theta) - 2.0 * math.log(theta - 1.0) - 1.0) < 1e-12
    assert abs(-2.0 * math.log(theta - 1.0) - (2.0 * theta - 3.0)) < 1e-11


def test_bisection_and_newton_agree():
    b = constants.bisect(constants._sigma_f, *constants.SIGMA_BRACKET)
    n = constants.newton(constants._sigma_f, constants._sigma_df, 1.2)
    assert abs(b - n) < 1e-11
    b = constants.bisect(constants._theta_f, *constants.THETA_BRACKET)
    n = constants.newton(constants._theta_f, constants._theta_df, 1.8)
    assert abs(b - n) < 1e-11


def test_bounds():
    c = constants.compute_all()
    lower, upper = c.lower_bound, c.upper_bound
    assert 0.5324 < lower < 0.5325
    assert 0.9049 < upper < 0.905
    assert 0.0 < 1.0 - upper + lower < 1.0
    assert (lower, upper) == (2.0 * c.theta - 3.0, 2.0 * c.sigma - 1.5)
    with pytest.raises(NonConvergenceError):
        constants._bounds(1.76, 1.2)  # lower 0.52 misses 0.5324
    with pytest.raises(NonConvergenceError):
        constants._bounds(1.77, 1.21)  # upper 0.92 misses 0.905


def test_alpha_beta_values_and_identities():
    alpha, beta = constants.solve_alpha_beta()
    assert abs(beta - 1.52383) < 1e-5
    assert abs(alpha - 1.370405) < 1e-6
    assert abs((beta - 1.0) / (alpha - 1.0) - math.sqrt(2.0)) < 1e-11
    assert abs((beta - alpha) - (1.0 - math.log(2.0)) / 2.0) < 1e-11
    # defining integrals, evaluated in closed form
    assert abs(2.0 * math.log((beta - 1.0) / (alpha - 1.0)) - math.log(2.0)) < 1e-12
    assert abs(2.0 * (beta - alpha) + 2.0 * math.log((beta - 1.0) / (alpha - 1.0)) - 1.0) < 1e-12


def test_alpha_beta_quadrature():
    alpha, beta = constants.solve_alpha_beta()
    q1 = constants.quad_adaptive(lambda t: 2.0 / (t - 1.0), alpha, beta)
    q2 = constants.quad_adaptive(lambda t: 2.0 * t / (t - 1.0), alpha, beta)
    assert abs(q1 - math.log(2.0)) < 1e-9
    assert abs(q2 - 1.0) < 1e-9


def test_conjectural_sigma_discrepancy_is_surfaced():
    v = constants.conjectural_sigma()
    assert v == pytest.approx(1.4426950408889634, rel=1e-15)
    d = constants.compute_all().as_dict()
    assert d["conjectural_sigma_quoted"] == 1.4416
    assert "1.4416" in d["conjectural_sigma_note"]
    _, beta = constants.solve_alpha_beta()
    assert beta > 1.44  # the window exponent exceeds the conjectural one


def test_compute_all_residuals_tiny():
    cc = constants.compute_all()
    for name, r in cc.residuals.items():
        assert abs(r) < 1e-9, name
    assert cc.lower_bound == 2.0 * cc.theta - 3.0
    assert cc.upper_bound == 2.0 * cc.sigma - 1.5
