"""Path loss, Rician statistics, and pattern-adjusted fading laws."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from irsplan.channel import (
    link_stats,
    pathloss_uma,
    rice_parameters,
    rician_adjustment,
    rician_k_isotropic,
)
from irsplan.patterns import ApArrayPattern, ErpModel

from oracles import rice_mean_quad, sample_fading, uma_pathloss_db, ula_gain

WAVELENGTH = 3.0e8 / 2.0e9


def ap_array(tilt_deg=0.0, num_elements=8):
    return ApArrayPattern(
        wavelength=WAVELENGTH,
        element_spacing=WAVELENGTH / 2.0,
        num_elements=num_elements,
        tilt_deg=tilt_deg,
        element_max_gain=1.64,
    )


def loss_db(g: float) -> float:
    return -10.0 * math.log10(g)


def half_wave_ula_average(num_elements, element_gain, tilt_deg):
    """Spherical average of a half-wave-spaced vertical ULA, in closed form.

    With u = sin(theta) the average is (G_e / 2) * integral over [-1, 1] of
    (1 - u^2) AF^2, and AF^2 = 1 + (2/M) sum_k (M - k) cos(k pi (u - u0));
    each cosine integrates to -4 (-1)^k cos(k pi u0) / (k pi)^2.
    """
    m, u0 = num_elements, math.sin(math.radians(tilt_deg))
    ripple = sum(
        (m - k) * (-1) ** k * math.cos(k * math.pi * u0) / (k * math.pi) ** 2
        for k in range(1, m)
    )
    return element_gain / 2.0 * (4.0 / 3.0 - 8.0 / m * ripple)


# A LoS leg at 100 m has the isotropic factor K = 10^((13 - 3) / 10) = 10.
LOS_100M = dict(dist_3d=100.0, dist_2d=99.0, h_tx=25.0, h_rx=1.5, f_c_ghz=2.0, los=True)


# --- UMa path loss ----------------------------------------------------------

def test_pathloss_los_reference_points():
    assert_allclose(
        loss_db(pathloss_uma(100.0, 99.0, 25.0, 1.5, 2.0, True)),
        78.02059991327962,
        rtol=1e-13,
    )
    assert_allclose(
        loss_db(pathloss_uma(1.0, 0.5, 25.0, 1.5, 2.0, True)),
        34.020599913279624,
        rtol=1e-13,
    )


def test_pathloss_continuous_at_breakpoint():
    # d_bp = 4 (25-1)(1.5-1) f/c = 320 m at 2 GHz; crossing it by one ulp
    # switches slope formulas without a jump in the gain
    dh = 25.0 - 1.5
    just_past = math.nextafter(320.0, math.inf)
    lo = pathloss_uma(math.hypot(320.0, dh), 320.0, 25.0, 1.5, 2.0, True)
    hi = pathloss_uma(math.hypot(just_past, dh), just_past, 25.0, 1.5, 2.0, True)
    assert_allclose(hi, lo, rtol=1e-9)
    # and the second slope decays faster beyond it
    g1 = pathloss_uma(math.hypot(400.0, dh), 400.0, 25.0, 1.5, 2.0, True)
    g2 = pathloss_uma(math.hypot(800.0, dh), 800.0, 25.0, 1.5, 2.0, True)
    assert g2 / g1 < (400.0 / 800.0) ** 2.2  # steeper than the 22 dB/decade slope


def test_pathloss_low_antennas_have_no_breakpoint():
    # h_tx = 1 makes the breakpoint undefined: single slope at any range
    g_far = pathloss_uma(5000.0, 5000.0, 1.0, 1.5, 2.0, True)
    expected = 28.0 + 22.0 * math.log10(5000.0) + 20.0 * math.log10(2.0)
    assert_allclose(loss_db(g_far), expected, rtol=1e-13)


def test_pathloss_nlos_floor_binds_close_in():
    # at 2 m the NLoS curve sits below the LoS curve, so the floor wins
    args = (2.0, 1.0, 25.0, 1.5, 2.0)
    assert pathloss_uma(*args, False) == pathloss_uma(*args, True)


def test_pathloss_nlos_exceeds_los_at_range():
    g_los = pathloss_uma(200.0, 199.0, 25.0, 1.5, 2.0, True)
    g_nlos = pathloss_uma(200.0, 199.0, 25.0, 1.5, 2.0, False)
    assert g_nlos < g_los


@pytest.mark.parametrize(
    "d3d, d2d, h_tx, h_rx, f, los",
    [
        (150.0, 148.0, 25.0, 1.5, 2.0, True),
        (500.0, 499.0, 25.0, 1.5, 2.0, True),
        (500.0, 499.0, 25.0, 1.5, 2.0, False),
        (50.0, 49.0, 10.0, 2.0, 3.5, True),
        (30.0, 5.0, 1.0, 1.5, 2.0, True),
        (2.0, 1.0, 25.0, 1.5, 2.0, False),
    ],
)
def test_pathloss_matches_independent_transcription(d3d, d2d, h_tx, h_rx, f, los):
    ours = loss_db(pathloss_uma(d3d, d2d, h_tx, h_rx, f, los))
    assert_allclose(ours, uma_pathloss_db(d3d, d2d, h_tx, h_rx, f, los), rtol=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    d2d=st.floats(min_value=1.0, max_value=5000.0),
    h_tx=st.floats(min_value=2.0, max_value=50.0),
    h_rx=st.floats(min_value=1.5, max_value=10.0),
    f=st.floats(min_value=0.5, max_value=6.0),
)
def test_pathloss_nlos_never_beats_los(d2d, h_tx, h_rx, f):
    d3d = math.hypot(d2d, h_tx - h_rx)
    assert pathloss_uma(d3d, d2d, h_tx, h_rx, f, False) <= pathloss_uma(
        d3d, d2d, h_tx, h_rx, f, True
    )


# --- Rician K ----------------------------------------------------------------

def test_k_factor_reference_points():
    assert rician_k_isotropic(0.0, True) == 10.0**1.3
    assert_allclose(rician_k_isotropic(0.0, True), 19.952623149688797, rtol=1e-15)
    assert rician_k_isotropic(100.0, True) == 10.0
    assert rician_k_isotropic(100.0, False) == 0.0


# --- pattern adjustment -----------------------------------------------------

@pytest.mark.parametrize("k", [0.0, 1.0, 19.95])
def test_adjustment_recovers_isotropic_law(k):
    g_k, rho = rician_adjustment(k, 1.0, 1.0)
    assert g_k == 1.0
    assert_allclose(rho, 1.0, rtol=1e-12)


def test_adjustment_rayleigh_keeps_scattered_power():
    # with K = 0 the whole mean power is the scattered term
    g_k, rho = rician_adjustment(0.0, 7.0, 1.3 * 0.8)
    assert rho == 1.3 * 0.8
    assert g_k * 0.0 == 0.0


def test_adjustment_frozen_hand_case():
    g_k, rho = rician_adjustment(10.0, 52.48 * math.cos(math.radians(30.0)), 1.0)
    assert_allclose(g_k, 45.44901319060734, rtol=1e-12)
    assert_allclose(rho, 41.40819380964304, rtol=1e-12)


def test_adjustment_dark_ray_is_pure_rayleigh():
    # a fully shadowed deterministic ray leaves only scattered power
    g_k, rho = rician_adjustment(5.0, 0.0, 1.3 * 0.8)
    assert g_k == 0.0
    assert rho == 1.3 * 0.8 / 6.0


@settings(max_examples=200, deadline=None)
@given(
    k=st.one_of(st.just(0.0), st.floats(min_value=1e-9, max_value=100.0)),
    lp=st.floats(min_value=1e-12, max_value=100.0),
    e_tx=st.floats(min_value=0.1, max_value=10.0),
    e_rx=st.floats(min_value=0.1, max_value=10.0),
)
def test_adjustment_power_split_identities(k, lp, e_tx, e_rx):
    # the mean power rho splits into a deterministic part governed by the
    # isotropic K and a scattered part that the effective factor recovers
    g_k, rho = rician_adjustment(k, lp, e_tx * e_rx)
    k_tilde = g_k * k
    e_nlos = e_tx * e_rx / (k + 1.0)  # the scattered power
    assert_allclose(rho, k / (k + 1.0) * lp + e_nlos, rtol=1e-12)
    assert_allclose((k_tilde + 1.0) * e_nlos, rho, rtol=1e-12)
    assert_allclose(
        k_tilde / (k_tilde + 1.0) * rho, k / (k + 1.0) * lp, rtol=1e-12
    )


def test_ap_irs_adjustment_composes_patterns():
    ap = ap_array(tilt_deg=0.0)
    s = link_stats(
        "ap_irs", ap_pattern=ap, erp=ErpModel(1.0), depression_deg=0.0,
        arrival_polar_deg=30.0, **LOS_100M,
    )
    # boresight AP gain 8 * 1.64 = 13.12 and reflector gain 4 cos(30); the
    # element averages to 1, so the scattered power is the array's average
    lp = 13.12 * 4.0 * math.cos(math.radians(30.0))
    e = half_wave_ula_average(8, 1.64, 0.0)
    assert_allclose((s.g_k, s.rho), (lp / e, 10.0 / 11.0 * lp + e / 11.0), rtol=1e-12)
    assert_allclose((s.g_k, s.rho), (28.715612943513747, 41.46116910943112), rtol=1e-12)


def test_irs_ue_adjustment_hand_case():
    s = link_stats("irs_ue", erp=ErpModel(1.0), arrival_polar_deg=60.0, **LOS_100M)
    # 4 cos(60) = 2 along the ray, unit averages on both ends
    assert_allclose((s.g_k, s.rho), (2.0, 10.0 / 11.0 * 2.0 + 1.0 / 11.0), rtol=1e-12)
    n = link_stats(
        "irs_ue", erp=ErpModel(1.0), arrival_polar_deg=60.0, **{**LOS_100M, "los": False}
    )
    assert_allclose((n.g_k, n.rho), (2.0, 1.0), rtol=1e-12)  # K = 0: scattered only


def test_ap_ue_adjustment_hand_case():
    # single vertical dipole: 1.64 cos(60)^2 along the ray, averaged gain
    # 2/3 of peak, analytic
    s = link_stats(
        "ap_ue", ap_pattern=ap_array(num_elements=1), depression_deg=60.0, **LOS_100M
    )
    e = 1.64 * 2.0 / 3.0
    assert_allclose((s.g_k, s.rho), (0.375, 10.0 / 11.0 * 0.41 + e / 11.0), rtol=1e-9)


def test_strong_k_drives_rho_to_los_product():
    g_k, rho = rician_adjustment(1e12, 4.0, 1.0)
    assert_allclose(rho, 4.0, rtol=1e-9)
    assert_allclose(g_k, 4.0, rtol=1e-15)


# --- link assembly ----------------------------------------------------------

def test_link_stats_dispatch_and_properties():
    common = dict(dist_3d=100.0, dist_2d=99.0, h_tx=25.0, h_rx=1.5, f_c_ghz=2.0)
    s = link_stats("irs_ue", los=True, erp=ErpModel(1.0), arrival_polar_deg=60.0, **common)
    assert s.los
    assert s.k_factor == 10.0
    assert s.k_tilde == s.g_k * s.k_factor
    n = link_stats("irs_ue", los=False, erp=ErpModel(1.0), arrival_polar_deg=60.0, **common)
    assert n.k_factor == 0.0 and n.k_tilde == 0.0
    assert n.g < s.g

    d = link_stats(
        "ap_ue", los=True, ap_pattern=ap_array(tilt_deg=10.0), depression_deg=10.0, **common
    )
    assert d.g == s.g  # same macro geometry, same path gain

    with pytest.raises(ValueError):
        link_stats("ue_ue", los=True, **common)


def test_link_stats_ap_irs_matches_manual_composition():
    ap = ap_array(tilt_deg=10.0)
    s = link_stats(
        "ap_irs", ap_pattern=ap, erp=ErpModel(3.0), depression_deg=14.0,
        arrival_polar_deg=25.0, **LOS_100M,
    )
    assert s.g == pathloss_uma(100.0, 99.0, 25.0, 1.5, 2.0, True)
    assert s.k_factor == 10.0
    # the textbook array gain at 14 degrees times the element's 8 cos(25)^3
    lp = float(ula_gain(14.0, 8, WAVELENGTH / 2.0, WAVELENGTH, 10.0, 1.64))
    lp *= 8.0 * math.cos(math.radians(25.0)) ** 3
    e = half_wave_ula_average(8, 1.64, 10.0)
    assert_allclose((s.g_k, s.rho), (lp / e, 10.0 / 11.0 * lp + e / 11.0), rtol=1e-12)


# --- amplitude sampling -----------------------------------------------------

def test_rice_parameters_values():
    nu, sigma = rice_parameters(10.0)
    assert_allclose(nu, math.sqrt(10.0 / 11.0), rtol=1e-15)
    assert_allclose(sigma, math.sqrt(0.5 / 11.0), rtol=1e-15)
    assert rice_parameters(math.inf) == (1.0, 0.0)
    assert rice_parameters(0.0) == (0.0, math.sqrt(0.5))


@settings(max_examples=100, deadline=None)
@given(k=st.floats(min_value=0.0, max_value=1e6))
def test_rice_parameters_unit_power(k):
    nu, sigma = rice_parameters(k)
    assert abs(nu * nu + 2.0 * sigma * sigma - 1.0) < 1e-15


def test_sample_fading_degenerate_factor():
    x = sample_fading(math.inf, 2.0, 5, np.random.default_rng(0))
    assert np.all(x == math.sqrt(2.0))


@pytest.mark.parametrize("k_tilde", [0.0, 1.0, 10.0, 100.0])
def test_sample_fading_mean_power(k_tilde):
    x = sample_fading(k_tilde, 2.0, 100_000, np.random.default_rng(11))
    assert_allclose(np.mean(x * x), 2.0, rtol=1e-2)
    assert np.all(x > 0)


def test_sample_fading_mean_amplitude_against_quadrature():
    assert_allclose(rice_mean_quad(10.0, 2.0), 1.3825696725240373, rtol=1e-10)
    x = sample_fading(10.0, 2.0, 200_000, np.random.default_rng(3))
    assert_allclose(np.mean(x), 1.3825696725240373, rtol=1e-2)
    # Rayleigh limit has the closed-form mean sqrt(pi rho / 4)
    r = sample_fading(0.0, 2.0, 200_000, np.random.default_rng(4))
    assert_allclose(np.mean(r), math.sqrt(math.pi * 2.0 / 4.0), rtol=1e-2)


def test_sample_fading_reproducible_and_validated():
    a = sample_fading(5.0, 1.5, 64, np.random.default_rng(42))
    b = sample_fading(5.0, 1.5, 64, np.random.default_rng(42))
    assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        sample_fading(1.0, 0.0, 10, np.random.default_rng(0))
    with pytest.raises(ValueError):
        sample_fading(1.0, 1.0, 0, np.random.default_rng(0))
