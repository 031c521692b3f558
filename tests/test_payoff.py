"""LP payoff function and greeks.

Delta and gamma closed forms are validated against central differences of
the value function itself — the envelope theorem makes dV/dp = x(p), so any
drift between the curve geometry and these formulas shows up immediately.
"""

import math

import numpy as np
import pytest

from negamm import (
    CurveSpec,
    DomainError,
    GreeksPoint,
    ParameterError,
    delta,
    gamma,
    greeks,
    lp_value,
    state_from_price,
    theta,
)
from conftest import CIRCLE_PARAM, central_diff


def test_value_at_unit_price():
    spec = CurveSpec.ccmm(1.0)
    assert lp_value(spec, 1.0) == pytest.approx(2.0 - math.sqrt(2.0), rel=1e-15)


def test_value_at_fold_and_below():
    spec = CurveSpec.ccmm(1.0)
    assert lp_value(spec, 0.0) == 0.0
    # below zero the position is underwater: worth holding is negative
    assert lp_value(spec, -1.0) == pytest.approx(-math.sqrt(2.0), rel=1e-15)


def test_delta_is_base_reserve():
    spec = CurveSpec.ccmm(1.0)
    for p in (-3.0, -1.0, 0.0, 0.5, 2.0):
        assert delta(spec, p) == state_from_price(spec, p).x


def test_gamma_closed_forms():
    assert gamma(CurveSpec.ccmm(1.0), 0.0) == -1.0
    assert gamma(CurveSpec.ccmm(2.5), 0.0) == -2.5
    assert gamma(CurveSpec.ccmm(1.0), 1.0) == pytest.approx(
        -1.0 / 2.0 ** 1.5, rel=1e-15
    )
    assert gamma(CurveSpec.cpmm(2.0), 4.0) == -0.125  # -L / (2 p^{3/2})
    assert gamma(CurveSpec.parabola(2), 1.0) == -0.25  # -2 / (1+p)^3
    # Where a power of p overflows gamma is -0.0, as where p * p is inf; where
    # 2 p^(3/2) underflows to zero cpmm divides in two steps.
    for spec, p in ((CurveSpec.ccmm(1.0), 1e110), (CurveSpec.ccmm(1.0), 1e200),
                    (CurveSpec.parabola(2), 1e103)):
        assert math.copysign(1.0, gamma(spec, p)) == -1.0 and gamma(spec, p) == 0.0
    assert gamma(CurveSpec.cpmm(2.0), 1e-300) == -math.inf
    assert gamma(CurveSpec.cpmm(1e-150), 1e-300) == -(1e-150 / 2e-300) / 1e-150


def test_csemm_gamma_at_fold_by_exponent_regime():
    # At the zero-price fold the curvature depends on how flat the
    # superellipse is: below the circle exponent the curve is locally
    # cusp-like (gamma -> 0), above it locally flat (gamma -> -inf), and
    # within rounding of exactly 2 the circle's finite value applies.
    assert gamma(CurveSpec.csemm(CIRCLE_PARAM, CIRCLE_PARAM), 0.0) == pytest.approx(
        -CIRCLE_PARAM, rel=1e-12
    )
    assert gamma(CurveSpec.csemm(3.0, 4.0), 0.0) == 0.0
    assert gamma(CurveSpec.csemm(5.0, 3.0), 0.0) == -math.inf


def test_envelope_identity_all_families():
    cases = [
        (CurveSpec.ccmm(1.0), np.linspace(-8.0, 8.0, 33)),
        (CurveSpec.csemm(CIRCLE_PARAM, CIRCLE_PARAM), np.linspace(-8.0, 8.0, 33)),
        (CurveSpec.csemm(3.0, 4.0), np.linspace(-8.0, 8.0, 33)),
        (CurveSpec.parabola(2), np.linspace(0.1, 8.0, 25)),
        (CurveSpec.cpmm(2.0), np.linspace(0.1, 8.0, 25)),
    ]
    for spec, grid in cases:
        for p in grid:
            p = float(p)
            h = 1e-5 * max(1.0, abs(p))
            fd = central_diff(lambda q: lp_value(spec, q), p, h)
            assert delta(spec, p) == pytest.approx(fd, abs=1e-6), (spec.family, p)


def test_gamma_matches_delta_slope():
    spec = CurveSpec.ccmm(1.0)
    for p in np.linspace(-8.0, 8.0, 33):
        p = float(p)
        h = 1e-5 * max(1.0, abs(p))
        fd = central_diff(lambda q: delta(spec, q), p, h)
        assert gamma(spec, p) == pytest.approx(fd, abs=1e-6)


def test_value_concave():
    for spec in (CurveSpec.ccmm(1.0), CurveSpec.csemm(3.0, 4.0)):
        grid = np.linspace(-10.0, 10.0, 241)
        vals = np.array([lp_value(spec, float(p)) for p in grid])
        second = vals[2:] - 2.0 * vals[1:-1] + vals[:-2]
        assert second.max() <= 1e-12


def test_theta_value_and_sign():
    spec = CurveSpec.ccmm(1.0)
    assert theta(spec, 0.0, 1.0) == 0.5  # -(1/2)*1*(-1)
    assert theta(spec, 0.0, 0.0) == 0.0
    # providing liquidity on a concave payoff earns positive expected yield
    for p in (-2.0, 0.0, 3.0):
        assert theta(spec, p, 0.7) > 0.0


def test_theta_scales_quadratically_in_vol():
    spec = CurveSpec.ccmm(1.0)
    for p in np.linspace(-5.0, 5.0, 41):
        p = float(p)
        assert theta(spec, p, 1.2) == 4.0 * theta(spec, p, 0.6)
        assert theta(spec, p, 0.9) == pytest.approx(
            9.0 * theta(spec, p, 0.3), rel=1e-12
        )


def test_sigma_validation():
    spec = CurveSpec.ccmm(1.0)
    with pytest.raises(ParameterError):
        theta(spec, 0.0, -0.5)
    with pytest.raises(ParameterError):
        theta(spec, 0.0, math.nan)


def test_positive_only_families_reject_nonpositive_prices():
    for spec, bads in ((CurveSpec.cpmm(2.0), (0.0, -1.0)), (CurveSpec.parabola(2), (-1.0, -2.0))):
        for bad in bads:
            with pytest.raises(DomainError):
                lp_value(spec, bad)
            with pytest.raises(DomainError):
                delta(spec, bad)
            with pytest.raises(DomainError):
                gamma(spec, bad)


@pytest.mark.parametrize("p", [-0.999, -0.9, -0.5, -0.25, -1e-3, -1e-12, -0.0, 0.0])
def test_parabola_greeks_hold_on_its_negative_prices(p):
    spec = CurveSpec.parabola(2)
    g = greeks(spec, p, 0.7)
    assert g.value == pytest.approx(p / (1.0 + p), rel=1e-12, abs=1e-15)
    assert g.delta == pytest.approx((1.0 + p) ** -2, rel=1e-12)
    assert g.gamma == pytest.approx(-2.0 / (1.0 + p) ** 3, rel=1e-15)
    assert g.theta == pytest.approx(-0.5 * 0.7 ** 2 * g.gamma, rel=1e-15)
    assert gamma(spec, p) == g.gamma and delta(spec, p) == g.delta and lp_value(spec, p) == g.value


def test_parabola_greeks_refuse_what_its_price_inversion_refuses():
    spec = CurveSpec.parabola(2)
    for bad in (-1.0, math.nextafter(-1.0, -2.0), -2.0, -1e300):
        for fn in (lp_value, delta, gamma, greeks, state_from_price):
            with pytest.raises(DomainError, match=r"parabola prices lie in \(-1, inf\)"):
                fn(spec, bad)
    with pytest.raises(ParameterError, match="only available for m=2"):
        greeks(CurveSpec.parabola(4), -0.5)


def test_quartic_parabola_unsupported():
    with pytest.raises(ParameterError):
        gamma(CurveSpec.parabola(4), 1.0)


def test_greeks_bundle_matches_pieces():
    spec = CurveSpec.ccmm(1.0)
    g = greeks(spec, 0.5, 0.8)
    assert isinstance(g, GreeksPoint)
    assert g.p == 0.5
    assert g.value == lp_value(spec, 0.5)
    assert g.delta == delta(spec, 0.5)
    assert g.gamma == gamma(spec, 0.5)
    assert g.theta == theta(spec, 0.5, 0.8)


def test_greeks_bundle_known_point():
    g = greeks(CurveSpec.ccmm(1.0), 0.5, 0.8)
    assert g.value == pytest.approx(0.3819660112501052, rel=1e-14)
    assert g.delta == pytest.approx(0.5527864045000419, rel=1e-14)
    assert g.gamma == pytest.approx(-0.7155417527999327, rel=1e-14)
    assert g.theta == pytest.approx(0.2289733608959785, rel=1e-14)


CSEMM_GRIDS = [
    (CurveSpec.csemm(CIRCLE_PARAM, CIRCLE_PARAM), np.linspace(-8.0, 8.0, 33)),
    (CurveSpec.csemm(3.0, 4.0), np.linspace(-10.0, 10.0, 241)),
]


def test_csemm_greeks_gamma_equals_gamma():
    for spec, grid in CSEMM_GRIDS:
        for p in grid:
            p = float(p)
            assert greeks(spec, p, 0.8).gamma == gamma(spec, p), (spec, p)


def test_csemm_greeks_inverts_once(monkeypatch):
    from negamm import curves

    calls = []
    invert = curves.csemm_x_from_price

    def counting(*args, **kwargs):
        calls.append(args)
        return invert(*args, **kwargs)

    monkeypatch.setattr(curves, "csemm_x_from_price", counting)
    for spec, grid in CSEMM_GRIDS:
        for p in grid:
            calls.clear()
            greeks(spec, float(p), 0.8)
            assert len(calls) == 1, (spec, p)


def test_csemm_greeks_computes_exponents_only_in_the_inversion(monkeypatch):
    from negamm import curves

    calls = [0]
    exponent = curves.csemm_exponent

    def counting(c):
        calls[0] += 1
        return exponent(c)

    monkeypatch.setattr(curves, "csemm_exponent", counting)
    for spec, grid in CSEMM_GRIDS:
        for p in grid[::8]:
            calls[0] = 0
            greeks(spec, float(p), 0.8)
            assert calls[0] == 2, (spec, p)


def test_diamond_sides_have_unbounded_gamma():
    # On the alpha = beta = 2 diamond every reserve of a side quotes |p| = 1.
    spec = CurveSpec.csemm(2.0, 2.0)
    for p in (-1.0, 1.0):
        point = greeks(spec, p, 0.8)
        assert point.gamma == -math.inf
        assert point.theta == math.inf
        state = state_from_price(spec, p)
        assert (point.value, point.delta) == (p * state.x + state.y, state.x)


def test_theta_is_zero_without_volatility_even_where_gamma_is_unbounded():
    # -(0^2/2) * -inf is NaN in floats; with no volatility there is no decay.
    for spec, p in ((CurveSpec.csemm(8.0, 2.5), 0.0),
                    (CurveSpec.csemm(2.0, 2.0), -1.0),
                    (CurveSpec.csemm(2.0, 2.0), 1.0)):
        point = greeks(spec, p)
        assert point.gamma == -math.inf
        assert point.theta == 0.0 and math.copysign(1.0, point.theta) == 1.0
        assert theta(spec, p, 0.0) == 0.0
        assert greeks(spec, p, 0.8).theta == math.inf
