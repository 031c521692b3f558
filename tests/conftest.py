"""Shared helpers for the test suite."""

import dataclasses
import math

import pytest

from negamm import CurveSpec

SQRT2 = math.sqrt(2.0)
CIRCLE_PARAM = 2.0 + SQRT2  # alpha = beta value at which the superellipse is a circle


def central_diff(f, x, h):
    """Plain second-order central difference, the oracle for all derivative checks."""
    return (f(x + h) - f(x - h)) / (2.0 * h)


@pytest.fixture
def residuals(monkeypatch):
    """A counter, [n], of the invariant residuals computed: calls of
    curves.invariant_residual and of each family record's point, which computes one
    with its y and price."""
    from negamm import curves

    count = [0]

    def counting(original):
        def wrapped(*args):
            count[0] += 1
            return original(*args)
        return wrapped

    monkeypatch.setattr(curves, "invariant_residual", counting(curves.invariant_residual))
    for fam, rec in list(curves._FAMILIES.items()):
        monkeypatch.setitem(curves._FAMILIES, fam,
                            dataclasses.replace(rec, point=counting(rec.point)))
    return count


@pytest.fixture
def ccmm_unit():
    return CurveSpec.ccmm(1.0)


@pytest.fixture
def csemm_circle():
    return CurveSpec.csemm(CIRCLE_PARAM, CIRCLE_PARAM)


@pytest.fixture
def csemm_wide():
    return CurveSpec.csemm(3.0, 4.0)
