"""Liquidity fingerprints: closed forms, the numeric oracle, and tail behavior.

The closed-form densities are all derivatives of the numeraire reserve with
respect to sqrt-price (or its tick-space reading), so every analytic value
here is cross-checked against central differences of the reserve itself.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from negamm import (
    CurveSpec,
    DomainError,
    FingerprintSample,
    InsufficientDataError,
    ParameterError,
)
from negamm.fingerprint import (
    NEGATIVE,
    POSITIVE,
    SQRTPRICE,
    TICK,
    ccmm_liquidity_sqrtprice,
    ccmm_liquidity_tick,
    central_difference,
    circle_angle_of_price,
    circle_map,
    cpmm_liquidity,
    gaussian_fingerprint,
    numeraire_reserve,
    numeric_fingerprint,
    parabola_liquidity_sqrtprice,
    parabola_liquidity_tick,
    tail_index,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


# ------------------------------------------------------------- closed forms


def test_ccmm_peak_value():
    # 2*1/(1+1)^{3/2} = 1/sqrt(2); the density peaks at unit price.
    assert ccmm_liquidity_sqrtprice(1.0, 1.0) == pytest.approx(INV_SQRT2, rel=1e-15)
    assert ccmm_liquidity_sqrtprice(1.0, 1.0, "-") == pytest.approx(
        -INV_SQRT2, rel=1e-15
    )
    assert ccmm_liquidity_sqrtprice(1.0, 3.0) == pytest.approx(
        3.0 * INV_SQRT2, rel=1e-15
    )


def test_ccmm_tick_peak_at_zero():
    ts = np.linspace(-4.0, 4.0, 801)
    dens = [ccmm_liquidity_tick(float(t), 1.0) for t in ts]
    assert ts[int(np.argmax(dens))] == 0.0


def test_tick_form_is_sqrtprice_form_resampled():
    # bit-for-bit: the tick density IS the sqrt-price density at s = e^{t/2}
    for t in (-3.0, -1.1, 0.0, 0.7, 2.5):
        assert ccmm_liquidity_tick(t, 1.0) == ccmm_liquidity_sqrtprice(
            math.exp(0.5 * t), 1.0
        )
        assert parabola_liquidity_tick(t) == parabola_liquidity_sqrtprice(
            math.exp(0.5 * t)
        )


def test_parabola_value_at_price_four():
    # s=2: 4*8/125, exactly representable
    assert parabola_liquidity_sqrtprice(2.0) == 0.256
    assert parabola_liquidity_tick(math.log(4.0)) == 0.256


def test_parabola_negative_domain_signs_and_growth():
    # Negative-price liquidity is negative and its magnitude explodes
    # toward the zero bound (t -> 0-).
    ts = np.linspace(-3.0, -0.01, 200)
    vals = [parabola_liquidity_tick(float(t), NEGATIVE) for t in ts]
    assert all(v < 0.0 for v in vals)
    mags = [-v for v in vals]
    assert all(b > a for a, b in zip(mags, mags[1:]))


def test_parabola_negative_domain_rejects_bad_coords():
    with pytest.raises(DomainError):
        parabola_liquidity_tick(0.0, NEGATIVE)
    with pytest.raises(DomainError):
        parabola_liquidity_tick(0.5, NEGATIVE)
    with pytest.raises(DomainError):
        parabola_liquidity_sqrtprice(1.0, NEGATIVE)
    with pytest.raises(DomainError):
        parabola_liquidity_sqrtprice(1.5, NEGATIVE)


def test_extreme_ticks_flatten_to_zero():
    # Far tails underflow cleanly instead of raising on exp overflow.
    assert ccmm_liquidity_tick(1500.0, 1.0) == 0.0
    assert ccmm_liquidity_tick(-3000.0, 1.0) == 0.0
    assert parabola_liquidity_tick(1500.0) == 0.0
    assert parabola_liquidity_tick(-3000.0, NEGATIVE) == 0.0


_FROZEN = Path(__file__).parent / "data" / "closed_form_fingerprints.json"
_SQRT_PRICES = (5e-324, 1e-100, 0.25, 1.0, 1.7, 1e10, 1e50, 1e100, 1e200)
# t = 1500 overflows e^(t/2) and t = -3000 underflows it; 709 and 1419 sit
# just inside, where s^4 or s itself is still finite.
_TICKS = (-3000.0, -1490.0, -20.0, -1.5, 0.0, 0.7, 20.0, 709.0, 1419.0, 1500.0)
# The parabola's negative side runs up to s -> 1, t -> 0-: 1 - 2^-53 is the
# last sqrt-price below 1, and e^(t/2) rounds to it at t = -2.3e-16.
_PARABOLA_NEG_S = (5e-324, 1e-100, 0.25, 0.5, 0.9, 1.0 - 2.0 ** -53)
_PARABOLA_NEG_T = (-3000.0, -1490.0, -20.0, -1.5, -0.01, -1e-8, -2.3e-16)


def _closed_form_cases():
    """(label, value) for the five public closed forms over edge coordinates."""
    calls = [
        (fn, (c, k, sign))
        for fn, coords in ((ccmm_liquidity_sqrtprice, _SQRT_PRICES),
                           (ccmm_liquidity_tick, _TICKS))
        for k in (1.0, 3.0)
        for sign in "+-"
        for c in coords
    ]
    for fn, pos, neg in ((parabola_liquidity_sqrtprice, _SQRT_PRICES, _PARABOLA_NEG_S),
                         (parabola_liquidity_tick, _TICKS, _PARABOLA_NEG_T)):
        calls += [(fn, (c, POSITIVE)) for c in pos] + [(fn, (c, NEGATIVE)) for c in neg]
    calls += [(cpmm_liquidity, (L, sign)) for L in (1.0, 2.0) for sign in "+-"]
    return {f"{fn.__name__}{args!r}": fn(*args) for fn, args in calls}


def test_closed_forms_match_frozen_bits():
    # Frozen as float.hex, so the sign of a flattened 0.0 counts too.
    frozen = json.loads(_FROZEN.read_text(encoding="utf-8"))
    got = {label: value.hex() for label, value in _closed_form_cases().items()}
    assert got == frozen


def test_cpmm_flat_density():
    assert cpmm_liquidity(2.0) == 2.0
    assert cpmm_liquidity(2.0, "-") == -2.0
    with pytest.raises(ParameterError):
        cpmm_liquidity(0.0)


def test_sign_and_coord_validation():
    with pytest.raises(ParameterError):
        ccmm_liquidity_sqrtprice(1.0, 1.0, "x")
    with pytest.raises(DomainError):
        ccmm_liquidity_sqrtprice(0.0, 1.0)
    with pytest.raises(DomainError):
        ccmm_liquidity_sqrtprice(-1.0, 1.0)
    with pytest.raises(DomainError):
        ccmm_liquidity_tick(math.inf, 1.0)
    with pytest.raises(ParameterError):
        ccmm_liquidity_tick(0.0, -1.0)
    with pytest.raises(ParameterError):
        parabola_liquidity_tick(0.5, "sideways")


# ------------------------------------------------------------ numeric oracle


def test_numeraire_reserve_matches_curve():
    spec = CurveSpec.ccmm(1.0)
    # s = 1 is price 1, the theta = 5pi/4 point of the unit circle
    assert numeraire_reserve(spec, 1.0, POSITIVE) == pytest.approx(
        1.0 - INV_SQRT2, rel=1e-12
    )


def test_central_difference_on_knowns():
    assert central_difference(math.sin, 0.0, 1e-6) == pytest.approx(1.0, abs=1e-9)
    assert central_difference(math.exp, 1.0, 1e-6) == pytest.approx(
        math.e, rel=1e-9
    )


def test_central_difference_refuses_bad_steps():
    for step in (0.0, -1e-6, math.nan, math.inf, -math.inf):
        with pytest.raises(ParameterError):
            central_difference(lambda x: x, 1.0, step)


def test_numeric_matches_analytic_ccmm():
    spec = CurveSpec.ccmm(1.0)
    grid = list(np.linspace(0.1, 10.0, 120))
    for smp in numeric_fingerprint(spec, grid, SQRTPRICE):
        ref = ccmm_liquidity_sqrtprice(smp.coord, 1.0)
        assert smp.density == pytest.approx(ref, rel=1e-6)


def test_numeric_matches_analytic_ccmm_negative_domain():
    spec = CurveSpec.ccmm(1.0)
    grid = list(np.linspace(0.2, 5.0, 60))
    for smp in numeric_fingerprint(spec, grid, SQRTPRICE, NEGATIVE):
        ref = ccmm_liquidity_sqrtprice(smp.coord, 1.0, "-")
        assert smp.density == pytest.approx(ref, rel=1e-6)
        assert smp.density < 0.0


def test_numeric_matches_analytic_parabola_both_domains():
    spec = CurveSpec.parabola(2)
    pos = list(np.exp(np.linspace(0.05, 5.0, 60) / 2.0))
    for smp in numeric_fingerprint(spec, pos, SQRTPRICE):
        assert smp.density == pytest.approx(
            parabola_liquidity_sqrtprice(smp.coord), rel=1e-6
        )
    neg_t = list(np.linspace(-5.0, -0.05, 60))
    for smp in numeric_fingerprint(spec, neg_t, TICK, NEGATIVE):
        assert smp.density == pytest.approx(
            parabola_liquidity_tick(smp.coord, NEGATIVE), rel=1e-6
        )


def test_numeric_fingerprint_rejects_quartic_parabola():
    with pytest.raises(ParameterError):
        numeric_fingerprint(CurveSpec.parabola(4), [1.0], SQRTPRICE)


def test_numeric_fingerprint_sample_fields():
    spec = CurveSpec.cpmm(2.0)
    samples = numeric_fingerprint(spec, [0.5, 1.0, 2.0], SQRTPRICE)
    assert [s.coord for s in samples] == [0.5, 1.0, 2.0]
    for s in samples:
        assert isinstance(s, FingerprintSample)
        assert s.domain_sign == POSITIVE
        assert s.density == pytest.approx(2.0, rel=1e-6)


# -------------------------------------------------------- comparators, tails


def test_gaussian_fingerprint_values():
    peak = 1.0 / math.sqrt(2.0 * math.pi)
    assert gaussian_fingerprint(0.0, 0.0, 1.0, 1.0) == pytest.approx(peak, rel=1e-15)
    assert gaussian_fingerprint(3.0, 3.0, 2.0, 5.0) == pytest.approx(
        5.0 * peak / 2.0, rel=1e-15
    )
    # symmetric about mu
    assert gaussian_fingerprint(1.0, 0.0, 1.0, 1.0) == gaussian_fingerprint(
        -1.0, 0.0, 1.0, 1.0
    )
    with pytest.raises(ParameterError):
        gaussian_fingerprint(0.0, 0.0, 0.0, 1.0)


def test_ccmm_tails_beat_matched_gaussian():
    # Same mass, same standard deviation: the circular fingerprint carries
    # visibly more density in the far price tails.
    t = np.linspace(-12.0, 12.0, 4801)
    L = np.array([ccmm_liquidity_tick(float(x), 1.0) for x in t])
    mass = np.trapezoid(L, t)
    sigma = math.sqrt(np.trapezoid(t * t * L, t) / mass)  # mean is 0 by symmetry
    for tt in np.linspace(4.0, 12.0, 100):
        assert ccmm_liquidity_tick(float(tt), 1.0) > gaussian_fingerprint(
            float(tt), 0.0, sigma, mass
        )
        assert ccmm_liquidity_tick(float(-tt), 1.0) > gaussian_fingerprint(
            float(-tt), 0.0, sigma, mass
        )


def test_tail_index_recovers_exact_power_law():
    s = np.geomspace(5.0, 500.0, 40)
    samples = [
        FingerprintSample(coord=float(x), density=float(x) ** -3.0, domain_sign=POSITIVE)
        for x in s
    ]
    assert tail_index(samples) == pytest.approx(3.0, abs=1e-12)


def test_tail_index_on_ccmm_far_tail():
    s = np.geomspace(10.0, 100.0, 64)
    samples = [
        FingerprintSample(
            coord=float(x), density=ccmm_liquidity_sqrtprice(float(x), 1.0),
            domain_sign=POSITIVE,
        )
        for x in s
    ]
    assert tail_index(samples) == pytest.approx(3.0, abs=0.01)


def test_tail_index_needs_enough_positive_samples():
    few = [
        FingerprintSample(coord=float(x), density=1.0 / float(x), domain_sign=POSITIVE)
        for x in range(1, 6)
    ]
    with pytest.raises(InsufficientDataError):
        tail_index(few)
    zeros = [
        FingerprintSample(coord=float(x), density=0.0, domain_sign=POSITIVE)
        for x in range(1, 30)
    ]
    with pytest.raises(InsufficientDataError):
        tail_index(zeros)


def _power_law(coords, exponent=3.0):
    return [FingerprintSample(coord=float(x), density=float(x) ** -exponent,
                              domain_sign=POSITIVE) for x in coords]


def test_tail_index_fits_exactly_ten_samples():
    assert tail_index(_power_law(range(1, 11))) == pytest.approx(3.0, abs=1e-12)


def test_tail_index_skips_a_sample_at_coordinate_zero():
    samples = _power_law(range(1, 13))
    at_zero = FingerprintSample(coord=0.0, density=1.0, domain_sign=POSITIVE)
    assert tail_index([at_zero, *samples]) == tail_index(samples)


def test_numeric_fingerprint_halves_a_step_as_large_as_the_coordinate():
    # At s = 1e-5 the step 1e-5 * max(1, s) equals s; halved, it never reaches s = 0.
    [smp] = numeric_fingerprint(CurveSpec.ccmm(1.0), [1e-5], SQRTPRICE)
    assert smp.density == pytest.approx(ccmm_liquidity_sqrtprice(1e-5, 1.0), rel=1e-6)


# ------------------------------------------------------------- circle space


def test_circle_angle_of_price():
    assert circle_angle_of_price(1.0) == pytest.approx(math.pi / 2.0, rel=1e-15)
    assert circle_angle_of_price(0.0) == 0.0
    assert circle_angle_of_price(-1.0) == pytest.approx(-math.pi / 2.0, rel=1e-15)


def test_circle_map_endpoints():
    assert circle_map(0.0, POSITIVE) == pytest.approx(math.pi / 2.0, rel=1e-15)
    assert circle_map(0.0, NEGATIVE) == pytest.approx(-math.pi / 2.0, rel=1e-15)
    # price -> inf wraps to the top of the circle, even past exp overflow
    assert circle_map(1500.0, POSITIVE) == pytest.approx(math.pi, rel=1e-15)
    assert circle_map(-1500.0, POSITIVE) == pytest.approx(0.0, abs=1e-300)


def test_circle_map_monotone():
    ts = np.linspace(-20.0, 20.0, 101)
    angles = [circle_map(float(t), POSITIVE) for t in ts]
    assert all(b > a for a, b in zip(angles, angles[1:]))


def test_gaussian_fingerprint_rejects_nonfinite_mu():
    for mu in (math.nan, math.inf, -math.inf):
        with pytest.raises(ParameterError):
            gaussian_fingerprint(0.0, mu, 1.0, 1.0)


def test_tail_index_needs_distinct_coordinates():
    samples = [FingerprintSample(coord=2.0, density=1.0 + i) for i in range(12)]
    with pytest.raises(InsufficientDataError, match="distinct coordinates: x is constant$"):
        tail_index(samples)


def test_bad_space_and_domain_are_refused():
    with pytest.raises(ParameterError):
        numeric_fingerprint(CurveSpec.ccmm(1.0), [0.5], "angle")
    with pytest.raises(ParameterError):
        parabola_liquidity_sqrtprice(0.5, "sideways")


def test_non_finite_numeric_tick_is_refused():
    # 1500 and -3000 are finite but put e^(t/2) beyond the float range.
    for t in (math.nan, math.inf, 1500.0, -3000.0):
        with pytest.raises(DomainError):
            numeric_fingerprint(CurveSpec.ccmm(1.0), [t], TICK)


def test_nan_circle_coordinates_are_refused():
    with pytest.raises(ParameterError):
        circle_map(math.nan)
    with pytest.raises(ParameterError):
        circle_angle_of_price(math.nan)


def test_gaussian_mass_must_be_positive():
    for mass in (0.0, -1.0):
        with pytest.raises(ParameterError):
            gaussian_fingerprint(0.0, 0.0, 1.0, mass)


def test_parabola_far_tail_flattens_where_its_denominator_overflows():
    # (1+s^2)^3 overflows for s past ~7.5e51 while s^4 is still finite.
    for s in (1e52, 1e60, 1e77):
        assert parabola_liquidity_sqrtprice(s) == 0.0
    for t in (240.0, 300.0, 354.0):
        assert parabola_liquidity_tick(t) == 0.0
