"""Radiation pattern tests: element model, AP array, averaged gains."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from irsplan.patterns import (
    ApArrayPattern,
    ErpModel,
    ap_average_gain,
    ap_pattern_value,
    erp_value,
)

from oracles import erp_sphere_average, ula_elevation_average, ula_gain

WAVELENGTH = 3.0e8 / 2.0e9  # 2 GHz carrier


def default_array(**kwargs) -> ApArrayPattern:
    base = dict(
        wavelength=WAVELENGTH,
        element_spacing=WAVELENGTH / 2.0,
        num_elements=8,
        tilt_deg=10.0,
        element_max_gain=1.64,
    )
    base.update(kwargs)
    return ApArrayPattern(**base)


# --- element pattern --------------------------------------------------------

def test_erp_value_boresight_and_cosine():
    model = ErpModel(1.0)
    assert erp_value(model, 0.0) == 1.0
    assert_allclose(erp_value(model, 60.0), 0.5, rtol=1e-12)


def test_erp_value_back_hemisphere_is_zero():
    assert erp_value(ErpModel(3.0), 91.0) == 0.0
    assert erp_value(ErpModel(3.0), 180.0) == 0.0
    # q=0 stays flat across the whole front hemisphere, edge included
    assert erp_value(ErpModel(0.0), 90.0) == 1.0


def test_erp_value_vectorized_matches_scalar():
    model = ErpModel(2.0)
    thetas = np.array([0.0, 30.0, 60.0, 90.0, 120.0])
    vec = erp_value(model, thetas)
    assert vec.shape == thetas.shape
    for th, v in zip(thetas, vec):
        assert v == erp_value(model, float(th))


def test_erp_gain_values():
    assert ErpModel(1.0).max_gain == 4.0
    assert ErpModel(3.0).max_gain == 8.0
    assert ErpModel(0.0).max_gain == 2.0
    # dBi figures of the two standard elements
    assert abs(10.0 * math.log10(4.0) - 6.02) < 0.05
    assert abs(10.0 * math.log10(8.0) - 9.03) < 0.05


@pytest.mark.parametrize("q", [0.0, 1.0, 3.0, 5.0])
def test_erp_hemispherical_normalization(q):
    # peak gain is defined so the solid-angle average of G*F is exactly 1
    avg = erp_sphere_average(q, ErpModel(q).max_gain)
    assert_allclose(avg, 1.0, rtol=1e-3)


@settings(max_examples=40, deadline=None)
@given(q=st.floats(min_value=0.0, max_value=8.0, allow_nan=False))
def test_erp_normalization_any_exponent(q):
    avg = erp_sphere_average(q, ErpModel(q).max_gain)
    assert abs(avg - 1.0) < 1e-3


@settings(max_examples=40, deadline=None)
@given(q=st.floats(min_value=0.0, max_value=8.0), data=st.data())
def test_erp_value_nonincreasing_on_front(q, data):
    lo = data.draw(st.floats(min_value=0.0, max_value=90.0))
    hi = data.draw(st.floats(min_value=lo, max_value=90.0))
    model = ErpModel(q)
    assert erp_value(model, hi) <= erp_value(model, lo) + 1e-15


# --- AP array pattern -------------------------------------------------------

def test_ap_pattern_is_one_at_tilt():
    ap = default_array()
    assert ap_pattern_value(ap, 10.0) == 1.0


def test_ap_pattern_single_element_is_dipole_envelope():
    ap = default_array(num_elements=1, tilt_deg=0.0)
    assert_allclose(ap_pattern_value(ap, 60.0), 0.25, rtol=1e-12)
    assert ap_pattern_value(ap, 0.0) == 1.0


def test_ap_pattern_first_null():
    # sin(M x) vanishes first at sin(theta) = sin(tilt) + 2/M for d = lambda/2
    ap = default_array()
    theta_null = math.degrees(math.asin(math.sin(math.radians(10.0)) + 0.25))
    assert ap_pattern_value(ap, theta_null) < 1e-6
    # and a 0.01 degree scan of this sidelobe region finds nothing smaller
    grid = np.arange(10.0, 40.0, 0.01)
    vals = ap_pattern_value(ap, grid)
    assert vals.min() < 1e-6
    assert abs(grid[int(np.argmin(vals))] - theta_null) < 0.05


def test_ap_pattern_near_unit_ceiling():
    # The cos^2 envelope pushes the true peak a hair above the tilt-angle
    # value (about 6e-4 for the default geometry), so the ceiling check
    # carries a 1e-3 allowance and the argmax must stay next to the tilt.
    ap = default_array()
    grid = np.arange(-89.99, 90.0, 0.01)
    vals = ap_pattern_value(ap, grid)
    assert vals.min() >= 0.0
    assert vals.max() <= 1.0 + 1e-3
    assert abs(grid[int(np.argmax(vals))] - 10.0) < 0.5


def test_ap_pattern_rejects_out_of_domain():
    ap = default_array()
    with pytest.raises(ValueError):
        ap_pattern_value(ap, -90.0)
    with pytest.raises(ValueError):
        ap_pattern_value(ap, 90.5)
    with pytest.raises(ValueError):
        ap_pattern_value(ap, math.inf)


def test_ap_pattern_matches_independent_form():
    ap = default_array()
    grid = np.array([-60.0, -10.0, 0.0, 9.5, 10.0, 25.0, 47.0, 80.0])
    ours = ap.peak_gain * ap_pattern_value(ap, grid)
    ref = ula_gain(grid, 8, WAVELENGTH / 2.0, WAVELENGTH, 10.0, 1.64)
    assert_allclose(ours, ref, rtol=1e-10, atol=1e-15)


def test_ap_peak_gain_and_doubling():
    ap = default_array()
    c = math.cos(math.radians(10.0))
    assert_allclose(ap.peak_gain, 8 * 1.64 * c * c, rtol=1e-15)
    double = default_array(num_elements=16)
    assert_allclose(double.peak_gain, 2.0 * ap.peak_gain, rtol=1e-15)
    assert ap_pattern_value(double, 10.0) == 1.0


# --- averaged gains ---------------------------------------------------------

def test_averaged_gain_of_default_array():
    ap = default_array()
    value = ap_average_gain(ap)
    # regression constant, pinned by the quadrature oracle below
    assert_allclose(value, 1.5359942206531556, rtol=0, atol=1e-12)
    oracle = ula_elevation_average(8, WAVELENGTH / 2.0, WAVELENGTH, 10.0, 1.64)
    assert abs(value - oracle) < 1e-9


def test_averaged_gain_of_single_dipole():
    # analytic value: G_e * integral of cos^3 over elevations / 2 = 2/3 G_e
    ap = default_array(num_elements=1, tilt_deg=0.0)
    assert_allclose(ap_average_gain(ap), 1.64 * 2.0 / 3.0, rtol=1e-9)
