"""Curve geometry: branch evaluation, pricing, and inversion.

Expected values marked "oracle" were generated with mpmath at 50 significant
digits from the defining equations, then frozen here.
"""

import copy
import dataclasses
import math
import pickle
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from negamm import (
    ConvergenceError,
    CurveSpec,
    DomainError,
    Family,
    ParameterError,
    PoolState,
    ccmm_angle_from_price,
    ccmm_y_from_x,
    cpmm_x_from_price,
    cpmm_y_from_x,
    csemm_exponent,
    csemm_x_from_price,
    csemm_y_from_x,
    fold_x,
    invariant_residual,
    parabola_x_from_price,
    parabola_y_from_x,
    price_of,
    residual_scale,
    state_from_price,
    state_from_x,
    x_from_y_on_side,
    y_from_x,
)
from conftest import CIRCLE_PARAM


# ---------------------------------------------------------------- circular


def test_ccmm_tangency_points():
    # The circle (x-k)^2 + (y-k)^2 = k^2 touches both axes.
    assert ccmm_y_from_x(1.0, 1.0) == 0.0
    assert ccmm_y_from_x(0.0, 1.0) == 1.0
    assert ccmm_y_from_x(2.0, 1.0) == 1.0
    assert ccmm_y_from_x(3.0, 1.5) == 1.5


def test_ccmm_lower_branch_product_form_accuracy():
    # y = k - sqrt(x*(2k - x)) stays accurate where k - sqrt(k^2 - (x-k)^2)
    # would cancel.  Oracle: mpmath, 50 digits.
    assert ccmm_y_from_x(1e-8, 1.0) == pytest.approx(
        0.99985857864411624389, rel=1e-15
    )
    assert ccmm_y_from_x(0.9999, 1.0) == pytest.approx(
        5.0000000125000000625e-9, rel=1e-12
    )


def test_ccmm_upper_branch():
    assert ccmm_y_from_x(1.0, 1.0, branch="upper") == 2.0


def test_ccmm_arc_closure():
    # Parametric points land on the invariant to 1e-12 * k.
    k = 1.0
    for theta in np.linspace(math.pi, 2.0 * math.pi, 733):
        x = k * (1.0 + math.cos(theta))
        y = k * (1.0 + math.sin(theta))
        assert abs(invariant_residual(CurveSpec.ccmm(k), x, y)) <= 1e-12 * k


def test_ccmm_price_known_angles(ccmm_unit):
    # theta = 5pi/4 is the unit-price point; 3pi/2 the zero-price fold.
    x_unit = 1.0 + math.cos(5.0 * math.pi / 4.0)
    assert price_of(ccmm_unit, state_from_x(ccmm_unit, x_unit)) == pytest.approx(
        1.0, abs=1e-14
    )
    assert price_of(ccmm_unit, state_from_x(ccmm_unit, 1.0)) == 0.0
    x_neg = 1.0 + math.cos(7.0 * math.pi / 4.0)
    assert price_of(ccmm_unit, state_from_x(ccmm_unit, x_neg)) == pytest.approx(
        -1.0, abs=1e-14
    )


def test_ccmm_price_value(ccmm_unit):
    # oracle: 0.5/sqrt(0.75)
    st_ = state_from_x(ccmm_unit, 0.5)
    assert price_of(ccmm_unit, st_) == pytest.approx(0.57735026918962576451, rel=1e-15)


def test_ccmm_angle_from_price_roundtrip(ccmm_unit):
    assert ccmm_angle_from_price(1.0) == pytest.approx(5.0 * math.pi / 4.0, rel=1e-15)
    assert ccmm_angle_from_price(0.0) == pytest.approx(3.0 * math.pi / 2.0, rel=1e-15)
    for p in np.linspace(-25.0, 25.0, 301):
        theta = ccmm_angle_from_price(float(p))
        assert math.pi < theta < 2.0 * math.pi
        st_ = state_from_price(CurveSpec.ccmm(1.0), float(p))
        assert price_of(CurveSpec.ccmm(1.0), st_) == pytest.approx(
            float(p), rel=1e-9, abs=1e-9
        )


def test_ccmm_endpoint_prices(ccmm_unit):
    assert price_of(ccmm_unit, state_from_x(ccmm_unit, 0.0)) == math.inf
    assert price_of(ccmm_unit, state_from_x(ccmm_unit, 2.0)) == -math.inf


def test_ccmm_bad_k():
    with pytest.raises(ParameterError):
        ccmm_y_from_x(0.5, 0.0)
    with pytest.raises(ParameterError):
        ccmm_y_from_x(0.5, -2.0)
    with pytest.raises(ParameterError):
        CurveSpec.ccmm(math.nan)


def test_ccmm_x_out_of_range():
    with pytest.raises(DomainError):
        ccmm_y_from_x(2.5, 1.0)
    with pytest.raises(DomainError):
        ccmm_y_from_x(-0.1, 1.0)


# ---------------------------------------------------------- super-elliptical


def test_exponent_values():
    assert csemm_exponent(2.0) == 1.0
    assert csemm_exponent(CIRCLE_PARAM) == pytest.approx(2.0, rel=1e-15)
    # oracle: ln 2 / ln(10/9), mpmath
    assert csemm_exponent(10.0) == pytest.approx(6.5788134789605837831, rel=1e-15)
    assert csemm_exponent(100.0) > csemm_exponent(10.0)


def test_exponent_rejects_degenerate():
    with pytest.raises(ParameterError):
        csemm_exponent(1.5)


def test_csemm_normalization_point():
    # (1, 1) sits on every member of the family: each |./c - 1|^u(c) term
    # evaluates to exactly 1/2 by construction of the exponent.
    for a, b in [(2.0, 2.0), (2.5, 7.0), (CIRCLE_PARAM, CIRCLE_PARAM), (10.0, 3.0)]:
        spec = CurveSpec.csemm(a, b)
        assert abs(invariant_residual(spec, 1.0, 1.0)) <= 1e-15


def test_csemm_anchor_points():
    assert csemm_y_from_x(3.0, 3.0, 4.0) == 0.0
    assert csemm_y_from_x(0.0, 3.0, 4.0) == pytest.approx(4.0, rel=1e-15)
    assert csemm_y_from_x(6.0, 3.0, 4.0) == pytest.approx(4.0, rel=1e-15)


def test_csemm_lower_branch_oracle_values():
    # mpmath, 50 digits
    assert csemm_y_from_x(0.5, 3.0, 4.0) == pytest.approx(
        1.6849004947110590638, rel=1e-14
    )
    assert csemm_y_from_x(2.9, 3.0, 4.0) == pytest.approx(
        0.0049587404243838775685, rel=1e-13
    )
    assert csemm_y_from_x(3.2, 3.0, 4.0) == pytest.approx(
        0.016249891318762769171, rel=1e-13
    )
    assert csemm_y_from_x(9.0, 10.0, 7.0) == pytest.approx(
        4.1058642735215104526e-7, rel=1e-12
    )


def test_csemm_mirror_symmetry():
    # |x/a - 1| is even about x = a, so y and price mirror across the fold.
    spec = CurveSpec.csemm(3.0, 4.0)
    for dx in (0.3, 1.0, 2.5):
        y_l = csemm_y_from_x(3.0 - dx, 3.0, 4.0)
        y_r = csemm_y_from_x(3.0 + dx, 3.0, 4.0)
        assert y_l == pytest.approx(y_r, rel=1e-14)
        p_l = price_of(spec, state_from_x(spec, 3.0 - dx))
        p_r = price_of(spec, state_from_x(spec, 3.0 + dx))
        assert p_l == pytest.approx(-p_r, rel=1e-13)


def test_csemm_price_oracle_values():
    spec = CurveSpec.csemm(3.0, 4.0)
    assert price_of(spec, state_from_x(spec, 0.5)) == pytest.approx(
        1.7965606327268534759, rel=1e-13
    )
    assert price_of(spec, state_from_x(spec, 3.2)) == pytest.approx(
        -0.13929635083507428663, rel=1e-13
    )
    spec2 = CurveSpec.csemm(10.0, 7.0)
    assert price_of(spec2, state_from_x(spec2, 9.0)) == pytest.approx(
        2.7011717995359013886e-6, rel=1e-11
    )


def test_csemm_fold_price_is_exact_zero():
    spec = CurveSpec.csemm(5.0, 3.0)
    assert price_of(spec, state_from_x(spec, 5.0)) == 0.0


def test_diamond_limit_is_line():
    # alpha = beta = 2 gives exponent 1: the lower branch is x + y = 2.
    for x in np.linspace(0.0, 2.0, 101):
        assert csemm_y_from_x(float(x), 2.0, 2.0) == pytest.approx(
            2.0 - float(x), abs=1e-15
        )


def test_circle_member_upper_branch_is_the_circle():
    # criterion 01's bound, on the plotting branch
    for x in np.linspace(0.0, 2.0 * CIRCLE_PARAM, 1000):
        upper = csemm_y_from_x(float(x), CIRCLE_PARAM, CIRCLE_PARAM, "upper")
        assert upper == pytest.approx(
            ccmm_y_from_x(float(x), CIRCLE_PARAM, "upper"), rel=0.0, abs=1e-9)
    with pytest.raises(ParameterError):
        csemm_y_from_x(1.0, 3.0, 4.0, "middle")


def test_circle_recovery():
    xs = np.linspace(0.0, 2.0 * CIRCLE_PARAM, 1000)
    worst = max(
        abs(csemm_y_from_x(float(x), CIRCLE_PARAM, CIRCLE_PARAM)
            - ccmm_y_from_x(float(x), CIRCLE_PARAM))
        for x in xs
    )
    assert worst <= 1e-9


def test_csemm_parameter_validation():
    for bad in (1.99, 0.0, -3.0, math.nan, math.inf):
        with pytest.raises(ParameterError):
            CurveSpec.csemm(bad, 4.0)
        with pytest.raises(ParameterError):
            CurveSpec.csemm(4.0, bad)


def test_csemm_x_from_price_roundtrip():
    spec = CurveSpec.csemm(3.0, 4.0)
    grid = list(np.linspace(-8.0, 8.0, 97))
    for p in grid:
        x = csemm_x_from_price(float(p), 3.0, 4.0)
        st_ = state_from_x(spec, x)
        assert price_of(spec, st_) == pytest.approx(float(p), rel=1e-9, abs=1e-9)


def test_csemm_x_from_price_zero_is_fold():
    assert csemm_x_from_price(0.0, 3.0, 4.0) == 3.0
    assert csemm_x_from_price(0.0, 7.5, 2.5) == 7.5


def test_csemm_x_from_price_unreachable_raises():
    # For alpha < 2 + sqrt(2) the exponent is below 2 and prices very close
    # to zero fall between representable reserve values; the inversion must
    # refuse rather than return a state with the wrong price.
    with pytest.raises(ConvergenceError):
        csemm_x_from_price(1e-8, 2.5, 2.5)


@given(p=st.floats(min_value=-50.0, max_value=50.0, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_csemm_inversion_property(p):
    spec = CurveSpec.csemm(CIRCLE_PARAM, CIRCLE_PARAM)
    x = csemm_x_from_price(p, CIRCLE_PARAM, CIRCLE_PARAM)
    got = price_of(spec, state_from_x(spec, x))
    assert got == pytest.approx(p, rel=1e-9, abs=1e-9)


# ------------------------------------------------------------------- others


def test_parabola_values():
    assert parabola_y_from_x(0.25) == 0.25
    assert parabola_y_from_x(1.0) == 0.0
    assert parabola_y_from_x(4.0) == 1.0
    spec = CurveSpec.parabola(2)
    assert price_of(spec, state_from_x(spec, 0.25)) == pytest.approx(1.0, rel=1e-15)


def test_parabola_x_from_price():
    assert parabola_x_from_price(1.0) == 0.25
    assert parabola_x_from_price(0.0) == 1.0
    assert parabola_x_from_price(-0.5) == 4.0
    with pytest.raises(DomainError):
        parabola_x_from_price(-1.0)
    with pytest.raises(DomainError):
        parabola_x_from_price(-1.5)


def test_parabola_only_quadratic_supported():
    with pytest.raises(ParameterError):
        CurveSpec.parabola(3)  # odd exponents never fold through zero
    with pytest.raises(ParameterError):
        CurveSpec.parabola(0)
    spec4 = CurveSpec.parabola(4)  # valid spec, but no closed-form helpers
    assert spec4.m == 4
    with pytest.raises(ParameterError):
        parabola_x_from_price(1.0, m=4)


def test_cpmm_values():
    assert cpmm_y_from_x(1.0, 2.0) == 4.0
    assert cpmm_x_from_price(4.0, 2.0, "+") == 1.0
    assert cpmm_x_from_price(4.0, 2.0, "-") == -1.0
    spec = CurveSpec.cpmm(2.0)
    assert price_of(spec, state_from_x(spec, 1.0)) == 4.0


def test_cpmm_rejects_nonpositive_price():
    with pytest.raises(DomainError):
        cpmm_x_from_price(0.0, 2.0)
    with pytest.raises(DomainError):
        cpmm_x_from_price(-4.0, 2.0)


def test_cpmm_functions_refuse_bad_L():
    with pytest.raises(ParameterError) as spec_err:
        CurveSpec.cpmm(-2.0)
    for fn in (cpmm_y_from_x, cpmm_x_from_price):
        with pytest.raises(ParameterError) as err:
            fn(1.0, -2.0)
        assert str(err.value) == str(spec_err.value) == "cpmm requires L > 0, got L=-2.0"
        for L in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ParameterError, match="cpmm requires L > 0"):
                fn(1.0, L)
    with pytest.raises(ParameterError):
        cpmm_x_from_price(1.0, -1.0, "-")


def test_price_monotone_decreasing_in_x():
    # Marginal price falls strictly as the pool accumulates x, every family.
    cases = [
        (CurveSpec.ccmm(1.0), np.linspace(0.01, 1.99, 313)),
        (CurveSpec.csemm(3.0, 4.0), np.linspace(0.01, 5.99, 313)),
        (CurveSpec.csemm(CIRCLE_PARAM, CIRCLE_PARAM),
         np.linspace(0.01, 2.0 * CIRCLE_PARAM - 0.01, 313)),
        (CurveSpec.parabola(2), np.linspace(0.01, 9.0, 313)),
        (CurveSpec.cpmm(2.0), np.linspace(0.1, 10.0, 313)),
    ]
    for spec, xs in cases:
        prices = [price_of(spec, state_from_x(spec, float(x))) for x in xs]
        assert all(a > b for a, b in zip(prices, prices[1:])), spec.family


def test_state_from_price_all_families():
    targets = [
        (CurveSpec.ccmm(2.0), [-3.0, -0.5, 0.0, 0.5, 3.0]),
        (CurveSpec.csemm(3.0, 4.0), [-2.0, 0.0, 2.0]),
        (CurveSpec.parabola(2), [0.25, 1.0, 4.0]),
        (CurveSpec.cpmm(2.0), [0.25, 1.0, 4.0]),
    ]
    for spec, ps in targets:
        for p in ps:
            st_ = state_from_price(spec, p)
            assert abs(invariant_residual(spec, st_.x, st_.y)) <= 1e-9 * residual_scale(spec)
            assert price_of(spec, st_) == pytest.approx(p, rel=1e-9, abs=1e-9)


def test_state_from_x_sets_ccmm_angle(ccmm_unit):
    st_ = state_from_x(ccmm_unit, 0.5)
    assert st_.theta is not None
    assert math.pi < st_.theta < 2.0 * math.pi
    # angle reproduces the coordinates
    assert 1.0 + math.cos(st_.theta) == pytest.approx(st_.x, rel=1e-15)
    assert 1.0 + math.sin(st_.theta) == pytest.approx(st_.y, abs=1e-15)


def test_fold_x_values():
    assert fold_x(CurveSpec.ccmm(1.5)) == 1.5
    assert fold_x(CurveSpec.csemm(3.0, 4.0)) == 3.0
    assert fold_x(CurveSpec.parabola(2)) == 1.0
    assert fold_x(CurveSpec.cpmm(2.0)) is None


def test_x_from_y_on_side():
    spec = CurveSpec.csemm(3.0, 4.0)
    y = csemm_y_from_x(2.0, 3.0, 4.0)
    assert x_from_y_on_side(spec, y, "left") == pytest.approx(2.0, rel=1e-12)
    y_r = csemm_y_from_x(4.0, 3.0, 4.0)
    assert x_from_y_on_side(spec, y_r, "right") == pytest.approx(4.0, rel=1e-12)
    c = CurveSpec.ccmm(1.0)
    assert x_from_y_on_side(c, 0.0, "left") == pytest.approx(1.0, rel=1e-12)
    assert x_from_y_on_side(c, 1.0, "left") == 0.0
    assert x_from_y_on_side(c, 1.0, "right") == 2.0


def test_price_of_rejects_off_curve_state():
    spec = CurveSpec.ccmm(1.0)
    with pytest.raises(DomainError):
        price_of(spec, PoolState(x=0.5, y=0.9))  # nowhere near the circle


@pytest.mark.parametrize("spec", [CurveSpec.ccmm(1.0), CurveSpec.csemm(3.0, 4.0),
                                  CurveSpec.parabola(2), CurveSpec.cpmm(2.0)],
                         ids=lambda spec: spec.family.value)
def test_price_of_rejects_nan_reserves(spec):
    state = state_from_x(spec, 0.5)
    for bad in (PoolState(math.nan, state.y), PoolState(state.x, math.nan)):
        with pytest.raises(DomainError, match="off-curve"):
            price_of(spec, bad)


def test_y_from_x_dispatch():
    assert y_from_x(CurveSpec.ccmm(1.0), 1.0) == 0.0
    assert y_from_x(CurveSpec.csemm(3.0, 4.0), 3.0) == 0.0
    assert y_from_x(CurveSpec.parabola(2), 1.0) == 0.0
    assert y_from_x(CurveSpec.cpmm(2.0), 4.0) == 1.0


def test_family_enum_round_trips():
    assert Family("ccmm") is Family.CCMM
    assert CurveSpec.ccmm(1.0).family is Family.CCMM
    assert CurveSpec.cpmm(1.0).family is Family.CPMM


def test_every_family_has_a_record():
    from negamm import curves

    assert list(curves._FAMILIES) == list(Family)
    for args in ((Family.CCMM,), ("ccmm",)):
        spec = CurveSpec(*args, k=1.0)
        assert spec.family is Family.CCMM
        assert spec == CurveSpec.ccmm(1.0)


def test_parabola_left_side_refuses_y_above_one():
    spec = CurveSpec.parabola(2)
    assert x_from_y_on_side(spec, 1.0, "left") == 0.0
    with pytest.raises(DomainError):
        x_from_y_on_side(spec, math.nextafter(1.0, 2.0), "left")
    # sqrt(1 + ulp) rounds to 1: the right side still quotes it, at x = 4
    assert x_from_y_on_side(spec, math.nextafter(1.0, 2.0), "right") == 4.0


def test_replace_recomputes_the_spec_exponents():
    spec = dataclasses.replace(CurveSpec.csemm(3, 4), alpha=5.0)
    assert spec._consts == (csemm_exponent(5.0), csemm_exponent(4.0))
    for x in (0.5, 5.0, 9.0):
        assert y_from_x(spec, x) == csemm_y_from_x(x, 5.0, 4.0)
    assert price_of(spec, state_from_x(spec, 2.0)) == price_of(
        CurveSpec.csemm(5.0, 4.0), state_from_x(CurveSpec.csemm(5.0, 4.0), 2.0))


def test_curvespec_value_semantics_are_its_fields():
    assert [f.name for f in dataclasses.fields(CurveSpec)] == [
        "family", "k", "alpha", "beta", "m", "L"]
    spec = CurveSpec.csemm(3.0, 4.0)
    assert repr(spec) == (
        "CurveSpec(family=<Family.CSEMM: 'csemm'>, k=None, alpha=3.0, beta=4.0, m=None, L=None)")
    twin = CurveSpec("csemm", alpha=3.0, beta=4.0)
    assert spec == twin and hash(spec) == hash(twin)
    assert hash(spec) == hash((Family.CSEMM, None, 3.0, 4.0, None, None))
    assert spec != CurveSpec.csemm(3.0, 5.0)
    assert CurveSpec.parabola() == CurveSpec(Family.PARABOLA, m=2)


@pytest.mark.parametrize("spec, top", [
    (CurveSpec.ccmm(1.0), 2.0), (CurveSpec.csemm(3.0, 4.0), 6.0),
    (CurveSpec.cpmm(2.0), sys.float_info.max), (CurveSpec.parabola(2), sys.float_info.max)],
    ids=["ccmm", "csemm", "cpmm", "parabola"])
def test_copies_and_pickles_of_a_spec_keep_its_branch(spec, top):
    # A spec holds its resolved branch outside its fields; a copy or a pickle
    # rebuilds the spec from its fields, so the clone bounds x as the original does.
    def refusal(s, x):
        with pytest.raises(DomainError) as err:
            state_from_x(s, x)
        return str(err.value)

    above = math.nextafter(top, math.inf)
    for clone in (copy.copy(spec), copy.deepcopy(spec), pickle.loads(pickle.dumps(spec))):
        assert type(clone) is CurveSpec and clone == spec and vars(clone) == vars(spec)
        state = state_from_x(clone, top)
        assert state == state_from_x(spec, top) and state.x == top
        assert price_of(clone, state) == price_of(spec, state)
        assert refusal(clone, above) == refusal(spec, above)


def test_price_of_refuses_upper_branch_states():
    for spec in (CurveSpec.ccmm(1.0), CurveSpec.csemm(3.0, 4.0)):
        fold = fold_x(spec)
        top = y_from_x(spec, 0.0)
        for x in (0.3 * fold, fold, 1.7 * fold):
            upper = PoolState(x, y_from_x(spec, x, "upper"))
            with pytest.raises(DomainError, match="upper"):
                price_of(spec, upper)
        # Both branches meet at the endpoints, which stay trading states.
        assert price_of(spec, PoolState(0.0, top)) == math.inf
        assert price_of(spec, PoolState(2.0 * fold, top)) == -math.inf


def test_parabola_refuses_non_integral_m():
    assert CurveSpec.parabola(2.0).m == 2
    assert parabola_y_from_x(0.25, 2.0) == parabola_y_from_x(0.25, 2)
    for call in (lambda: CurveSpec.parabola(2.9),
                 lambda: parabola_y_from_x(0.25, 2.5),
                 lambda: parabola_x_from_price(0.5, 2.5)):
        with pytest.raises(ParameterError):
            call()


def test_branch_and_side_arguments_are_checked():
    for spec in (CurveSpec.ccmm(1.0), CurveSpec.csemm(3.0, 4.0)):
        with pytest.raises(ParameterError):
            y_from_x(spec, 0.5, "middle")
    with pytest.raises(ParameterError):
        y_from_x(CurveSpec.cpmm(1.0), 0.5, "upper")
    with pytest.raises(ParameterError):
        x_from_y_on_side(CurveSpec.ccmm(1.0), 0.5, "middle")


def test_price_of_refuses_a_near_curve_state_past_the_branch():
    # Within the residual tolerance of the circle, but x lies beyond 2k.
    with pytest.raises(DomainError):
        price_of(CurveSpec.ccmm(1.0), PoolState(2.0000000001, 1.0))


def test_non_finite_price_arguments_are_refused():
    with pytest.raises(ParameterError):
        ccmm_angle_from_price(math.nan)
    with pytest.raises(ParameterError):
        csemm_x_from_price(math.inf, 3.0, 4.0)


def test_csemm_bottom_of_the_curve_is_the_fold_on_both_sides():
    spec = CurveSpec.csemm(3.0, 4.0)
    for side in ("left", "right"):
        assert x_from_y_on_side(spec, 0.0, side) == 3.0


@pytest.mark.parametrize("spec", [
    CurveSpec.ccmm(1.5), CurveSpec.ccmm(1e-9), CurveSpec.csemm(3.0, 4.0),
    CurveSpec.csemm(CIRCLE_PARAM, CIRCLE_PARAM), CurveSpec.csemm(2.0, 2.0),
    CurveSpec.csemm(8.0, 2.5), CurveSpec.csemm(3.0, 2.0), CurveSpec.csemm(1e15, 3.0),
    CurveSpec.parabola(2), CurveSpec.parabola(4),
], ids=lambda spec: f"{spec.family.value}-{spec.k or spec.alpha or spec.m}-{spec.beta}")
def test_solves_at_branch_ends_return_the_exact_end_reserve(spec):
    # Compared as float.hex, so -0.0 is not the end reserve 0.0.  cpmm's branch
    # (0, inf) has no end.
    if spec.family is Family.PARABOLA:
        ys = [(0.0, "lower", 1.0), (1.0, "lower", 0.0)]
        xs = [(0.0, "left", 1.0), (0.0, "right", 1.0), (1.0, "left", 0.0), (1.0, "right", 4.0)]
    else:
        a, b = (spec.k, spec.k) if spec.family is Family.CCMM else (spec.alpha, spec.beta)
        ys = [(0.0, "lower", b), (a, "lower", 0.0), (2.0 * a, "lower", b),
              (0.0, "upper", b), (a, "upper", 2.0 * b), (2.0 * a, "upper", b)]
        xs = [(0.0, "left", a), (0.0, "right", a), (b, "left", 0.0), (b, "right", 2.0 * a)]
    for x, branch, want in ys:
        assert y_from_x(spec, x, branch).hex() == want.hex(), (x, branch)
    for y, side, want in xs:
        assert x_from_y_on_side(spec, y, side).hex() == want.hex(), (y, side)


def test_price_at_zero_reserve_is_plus_infinity():
    for spec in (CurveSpec.csemm(3.0, 4.0), CurveSpec.parabola(2)):
        assert price_of(spec, state_from_x(spec, 0.0)) == math.inf
    # x(2k - x) underflows to zero this near x = 0
    tiny = CurveSpec.ccmm(1e-9)
    assert price_of(tiny, state_from_x(tiny, 1e-320)) == math.inf


def test_ccmm_state_from_price_refuses_non_finite_prices():
    spec = CurveSpec.ccmm(1.0)
    for p in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError, match="price must be finite"):
            state_from_price(spec, p)
    # The angle itself still reads the two infinities.
    assert ccmm_angle_from_price(math.inf) == math.pi
    assert ccmm_angle_from_price(-math.inf) == 2.0 * math.pi


def test_ccmm_state_at_huge_price_stays_on_the_trading_branch():
    # theta rounds to fl(pi) here, whose sine is +1.2e-16 rather than 0.
    for k in (1.0, 3.0):
        spec = CurveSpec.ccmm(k)
        for p in (1e17, 1.6e16, 1e300):
            state = state_from_price(spec, p)
            assert state.theta == math.pi
            assert (state.x, state.y) == (0.0, k)
            assert price_of(spec, state) == math.inf


def test_state_from_price_refuses_non_finite_prices_for_every_family():
    for spec in (CurveSpec.ccmm(1.0), CurveSpec.csemm(3.0, 4.0), CurveSpec.parabola(2),
                 CurveSpec.cpmm(2.0)):
        for p in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match="price must be finite"):
                state_from_price(spec, p)


def test_ccmm_on_curve_tolerance_is_relative_at_every_k():
    # The residual is in units of k^2, and so is the tolerance.
    small = CurveSpec.ccmm(1e-9)
    on = state_from_x(small, 0.5e-9)
    assert price_of(small, on) == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-15)
    with pytest.raises(DomainError, match="off-curve"):
        price_of(small, PoolState(on.x, 1.1 * on.y))  # y 10% off the circle
    for k in (1e9, 1e12, 1e150):
        spec = CurveSpec.ccmm(k)
        for p in (-100.0, -3.0, -0.5, 0.0, 0.7, 5.0, 300.0):
            assert price_of(spec, state_from_price(spec, p)) == pytest.approx(p, rel=1e-9, abs=1e-9)


def test_parameters_the_arithmetic_cannot_carry_are_refused():
    for build in (lambda: CurveSpec.csemm(1e16, 3.0), lambda: CurveSpec.csemm(3.0, 1e16),
                  lambda: csemm_exponent(1e16), lambda: CurveSpec.ccmm(2e154),
                  lambda: CurveSpec.ccmm(1.0000001e150), lambda: CurveSpec.ccmm(1e-160),
                  lambda: CurveSpec.cpmm(1.4e154), lambda: CurveSpec.cpmm(1e-160)):
        with pytest.raises(ParameterError):
            build()
    # The ends of the accepted ranges still build and quote.
    for spec in (CurveSpec.ccmm(1e150), CurveSpec.ccmm(1e-150), CurveSpec.cpmm(1e150),
                 CurveSpec.cpmm(1e-150)):
        assert price_of(spec, state_from_price(spec, 0.7)) == pytest.approx(0.7, rel=1e-9)
    # c/(c-1) still exceeds 1 in floats just past 2**53.
    assert csemm_exponent(2.0**53 + 2.0) == math.log(2.0) / math.log(1.0 + 2.0**-52)


def test_residual_and_y_past_the_float_range():
    assert invariant_residual(CurveSpec.ccmm(1.0), 0.0, 1e200) == math.inf
    with pytest.raises(DomainError, match="off-curve"):
        price_of(CurveSpec.ccmm(1.0), PoolState(0.0, 1e200))
    with pytest.raises(DomainError, match="x=1e"):
        y_from_x(CurveSpec.parabola(4), 1e300)


@pytest.mark.parametrize("alpha", [3.0, 2.0])
def test_beta_two_branch_ends_quote_infinity_by_convention(alpha):
    # A beta = 2 member quotes |p| <= C = u(alpha) beta / (u(beta) alpha) along
    # its branch and tends to +/-C at the ends, where the branch meets the
    # bounding line; the end states themselves quote +/-inf, as every branch end does.
    spec = CurveSpec.csemm(alpha, 2.0)
    c = csemm_exponent(alpha) * 2.0 / (csemm_exponent(2.0) * alpha)
    assert price_of(spec, state_from_x(spec, 0.0)) == math.inf
    assert price_of(spec, state_from_x(spec, 2.0 * alpha)) == -math.inf
    near = price_of(spec, state_from_x(spec, 1e-12))
    assert near == pytest.approx(c, rel=1e-12) and near <= c


def test_state_from_x_range_checks_the_x_it_was_given():
    # The range check reads x as passed and only then float(x): a str is refused by
    # the comparison, and an int off the branch is named as the int it was.
    spec = CurveSpec.ccmm(1.0)
    with pytest.raises(TypeError):
        state_from_x(spec, "0.5")
    with pytest.raises(DomainError, match=r"ccmm x must lie in \[0, 2.0\], got x=1152921504606846976$"):
        state_from_x(spec, 2**60)
    state = state_from_x(spec, 1)
    assert state == state_from_x(spec, 1.0) and type(state.x) is float
