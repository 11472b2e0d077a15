"""Link-level SNR closed forms, Monte Carlo metrics, and summary indices."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from irsplan.channel import LinkStats
from irsplan.link import PowerBudget, _amp_chunk, fairness_index, snr_series
from irsplan.seeds import LEG_AP_IRS

from oracles import (
    IrsUnit,
    active_snr_at_amplification,
    aligned_phases,
    coverage_indicator,
    ergodic_throughput_mc,
    generic_snr,
    metrics_from_snr,
    optimal_amplification,
    snr_optimal,
)

BUDGET = PowerBudget(
    p_total=0.01,
    p_tx_max=0.005,
    bandwidth=200e3,
    noise_psd=10.0 ** (-17.4) * 1e-3,
)
SIGMA2 = BUDGET.noise_power

ACTIVE = IrsUnit(
    n_elements=4,
    mode="active",
    amp_power_max=0.005,
    amp_noise_psd=10.0 ** (-16.0) * 1e-3,
)
PASSIVE = IrsUnit(n_elements=4, mode="passive")
AMP_BUDGET = dataclasses.replace(
    BUDGET, amp_power_max=ACTIVE.amp_power_max, amp_noise_psd=ACTIVE.amp_noise_psd
)


def det_stats(g: float, rho: float) -> LinkStats:
    """A fading-free link: infinite Rician factor, amplitude sqrt(g rho)."""
    return LinkStats(g=g, k_factor=math.inf, g_k=1.0, rho=rho, los=True)


def rayleigh_stats(g: float, rho: float) -> LinkStats:
    return LinkStats(g=g, k_factor=0.0, g_k=1.0, rho=rho, los=False)


# --- amplification ----------------------------------------------------------

def test_amplification_exact_half():
    # P_A equal to the incident power P_u sum|h_i|^2 / 4 quarter: with four
    # unit amplitudes and no amplifier noise, p = sqrt(P_A / (4 P_u)) = 1/2
    unit = IrsUnit(n_elements=4, mode="active", amp_power_max=0.005, amp_noise_psd=0.0)
    assert optimal_amplification(np.ones(4), unit, BUDGET) == 0.5


def test_amplification_passive_is_unity():
    assert optimal_amplification(np.ones(4), PASSIVE, BUDGET) == 1.0


def test_amplification_matches_budget_formula():
    rng = np.random.default_rng(3)
    h_i = rng.uniform(0.1, 2.0, size=6)
    unit = IrsUnit(n_elements=6, mode="active", amp_power_max=0.003, amp_noise_psd=1e-19)
    sigma_v2 = unit.amp_noise_psd * BUDGET.bandwidth
    expected = math.sqrt(
        unit.amp_power_max / (BUDGET.p_tx_max * float(np.sum(h_i**2)) + 6 * sigma_v2)
    )
    assert optimal_amplification(h_i, unit, BUDGET) == expected


def test_amplification_rejects_dead_input():
    unit = IrsUnit(n_elements=3, mode="active", amp_power_max=0.005, amp_noise_psd=0.0)
    with pytest.raises(ValueError):
        optimal_amplification(np.zeros(3), unit, BUDGET)


# --- closed-form SNR --------------------------------------------------------

def test_snr_no_surface_uses_full_power():
    d = 2.5e-5
    assert snr_optimal([], [], d, PASSIVE, BUDGET) == BUDGET.p_total * d * d / SIGMA2


def test_snr_passive_closed_form():
    n, d = 16, 3e-6
    got = snr_optimal(np.ones(n) * 1e-4, np.ones(n) * 2e-5, d, PASSIVE, BUDGET)
    s = n * 1e-4 * 2e-5 + d
    assert_allclose(got, BUDGET.p_total * s * s / SIGMA2, rtol=1e-12)


def test_snr_passive_element_count_squared():
    # with identical elements and no direct path the passive SNR follows an
    # exact N^2 law; ratios come out as exact floats for power-of-two N
    a, b = 2e-4, 3e-5
    gammas = {
        n: snr_optimal(np.full(n, a), np.full(n, b), 0.0, PASSIVE, BUDGET)
        for n in (4, 16, 64)
    }
    assert gammas[16] / gammas[4] == 16.0
    assert gammas[64] / gammas[4] == 256.0


def test_snr_validates_amplitudes():
    with pytest.raises(ValueError):
        snr_optimal(np.ones(3), np.ones(4), 1e-6, PASSIVE, BUDGET)
    with pytest.raises(ValueError):
        snr_optimal(np.ones(3), -np.ones(3), 1e-6, PASSIVE, BUDGET)
    with pytest.raises(ValueError):
        snr_optimal(np.ones(3), np.ones(3), -1e-6, PASSIVE, BUDGET)


def test_snr_active_dead_surface_falls_back_to_direct():
    unit = IrsUnit(n_elements=4, mode="active", amp_power_max=0.005, amp_noise_psd=0.0)
    d = 4e-6
    got = snr_optimal(np.zeros(4), np.ones(4) * 1e-5, d, unit, BUDGET)
    assert got == BUDGET.p_tx_max * d * d / SIGMA2


def test_snr_active_noiseless_amplifier_matches_passive_form():
    # with sigma_v = 0 and P_A equal to the incident power T the optimal
    # amplification is exactly 1, reducing to the passive composition at
    # transmit power p_tx_max
    rng = np.random.default_rng(9)
    h_i = rng.uniform(0.5, 2.0, size=8) * 1e-5
    h_r = rng.uniform(0.5, 2.0, size=8) * 1e-5
    d = 1.5e-6
    t = BUDGET.p_tx_max * float(h_i @ h_i)
    unit = IrsUnit(n_elements=8, mode="active", amp_power_max=t, amp_noise_psd=0.0)
    got = snr_optimal(h_i, h_r, d, unit, BUDGET)
    s = float(h_i @ h_r) + d
    assert_allclose(got, BUDGET.p_tx_max * s * s / SIGMA2, rtol=1e-12)


amp4 = st.lists(
    st.floats(min_value=1e-9, max_value=10.0), min_size=4, max_size=4
)


@settings(max_examples=150, deadline=None)
@given(
    h_i=amp4,
    h_r=amp4,
    d=st.floats(min_value=0.0, max_value=10.0),
    j=st.integers(min_value=0, max_value=3),
    delta=st.floats(min_value=1e-9, max_value=5.0),
    which=st.sampled_from(["h_i", "h_r", "h_d"]),
)
def test_snr_passive_monotone_in_every_amplitude(h_i, h_r, d, j, delta, which):
    base = snr_optimal(h_i, h_r, d, PASSIVE, BUDGET)
    h_i2, h_r2, d2 = list(h_i), list(h_r), d
    if which == "h_i":
        h_i2[j] += delta
    elif which == "h_r":
        h_r2[j] += delta
    else:
        d2 += delta
    assert snr_optimal(h_i2, h_r2, d2, PASSIVE, BUDGET) >= base


@settings(max_examples=150, deadline=None)
@given(
    h_i=amp4,
    h_r=amp4,
    d=st.floats(min_value=0.0, max_value=10.0),
    delta=st.floats(min_value=1e-9, max_value=5.0),
)
def test_snr_active_monotone_in_direct_amplitude(h_i, h_r, d, delta):
    base = snr_optimal(h_i, h_r, d, ACTIVE, BUDGET)
    assert snr_optimal(h_i, h_r, d + delta, ACTIVE, BUDGET) >= base


def test_snr_active_element_amplitudes_are_not_monotone():
    # an element whose reflected leg is dead still draws amplifier power:
    # growing its incident amplitude raises T, shrinks p, and strictly hurts
    unit = IrsUnit(n_elements=2, mode="active", amp_power_max=0.005, amp_noise_psd=0.0)
    before = snr_optimal([1e-5, 1e-5], [1e-5, 0.0], 1e-6, unit, BUDGET)
    after = snr_optimal([1e-5, 2e-5], [1e-5, 0.0], 1e-6, unit, BUDGET)
    assert after < before
    # dually, reflecting amplifier noise toward the user without carrying
    # any signal (dead incident leg) strictly hurts once sigma_v > 0
    noisy = IrsUnit(n_elements=2, mode="active", amp_power_max=0.005, amp_noise_psd=1e-19)
    before = snr_optimal([1e-5, 0.0], [1e-5, 0.0], 1e-6, noisy, BUDGET)
    after = snr_optimal([1e-5, 0.0], [1e-5, 1e-5], 1e-6, noisy, BUDGET)
    assert after < before


def test_snr_active_budget_cap_suboptimal_when_direct_dominates():
    # running the amplifier at its budget cap is the modeled operating
    # point, not a universal optimum: with a dominant direct path the cap
    # mostly injects amplifier noise, and backing off to a smaller p (at
    # unchanged transmit power) yields a strictly higher SNR
    unit = IrsUnit(n_elements=8, mode="active", amp_power_max=0.005, amp_noise_psd=1e-19)
    h_i = np.full(8, 1e-5)
    h_r = np.full(8, 1e-5)
    d = 5e-6
    sigma_v2 = unit.amp_noise_psd * BUDGET.bandwidth
    opt = snr_optimal(h_i, h_r, d, unit, BUDGET)
    p = optimal_amplification(h_i, unit, BUDGET)
    backed_off = active_snr_at_amplification(
        0.9 * p, h_i, h_r, d, BUDGET.p_tx_max, unit.amp_power_max, sigma_v2, SIGMA2
    )
    assert backed_off > opt


def test_snr_active_beats_random_phases_and_detuned_amplification():
    # draws stay in the regime a surface deployment targets: the direct
    # amplitude sits well below A sigma^2 / (sigma_v^2 B p), where the SNR
    # is still rising in p at the amplifier budget cap, so the closed form
    # is the constrained optimum (the strong-direct regime is pinned by
    # test_snr_active_budget_cap_suboptimal_when_direct_dominates)
    rng = np.random.default_rng(17)
    for _ in range(10):
        h_i = rng.uniform(0.5, 1.0, size=8) * 1e-5
        h_r = rng.uniform(0.5, 1.0, size=8) * 1e-5
        d = rng.uniform(0.02, 0.08) * 1e-6
        opt = snr_optimal(h_i, h_r, d, ACTIVE, BUDGET)
        p = optimal_amplification(h_i, ACTIVE, BUDGET)
        sigma_v2 = ACTIVE.amp_noise_psd * BUDGET.bandwidth
        # the aligned-phase oracle reproduces the closed form
        phases = aligned_phases(h_i, h_r, d)
        assert_allclose(
            generic_snr(h_i, h_r, d, phases, p, BUDGET.p_tx_max, sigma_v2, SIGMA2),
            opt,
            rtol=1e-9,
        )
        for _ in range(200):
            phi = rng.uniform(0.0, 2.0 * math.pi, size=8)
            got = generic_snr(h_i, h_r, d, phi, p, BUDGET.p_tx_max, sigma_v2, SIGMA2)
            assert got <= opt * (1.0 + 1e-9)
        for scale in (0.9, 1.1):
            detuned = active_snr_at_amplification(
                p * scale, h_i, h_r, d, BUDGET.p_tx_max,
                ACTIVE.amp_power_max, sigma_v2, SIGMA2,
            )
            assert detuned <= opt * (1.0 + 1e-9)


# --- Monte Carlo metrics ----------------------------------------------------

def test_ergodic_rate_deterministic_channels():
    s_d = det_stats(1.2e-8, 1.2)
    s_i = det_stats(1e-6, 2.0)
    s_r = det_stats(1.5e-7, 1.5)
    gamma = snr_optimal(
        np.full(4, math.sqrt(1e-6 * 2.0)),
        np.full(4, math.sqrt(1.5e-7 * 1.5)),
        math.sqrt(1.2e-8 * 1.2),
        ACTIVE,
        BUDGET,
    )
    for n_mc in (1, 7):
        m = ergodic_throughput_mc(s_d, s_i, s_r, ACTIVE, BUDGET, n_mc, 0)
        assert_allclose(m.ergodic_rate, math.log2(1.0 + gamma), rtol=1e-12)
        assert_allclose(m.avg_snr_db, 10.0 * math.log10(gamma), rtol=1e-12)
        assert m.mc_samples == n_mc


def test_ergodic_direct_rayleigh_average_snr():
    g, rho = 1e-9, 1.3
    none = IrsUnit(n_elements=0, mode="passive")
    m = ergodic_throughput_mc(rayleigh_stats(g, rho), None, None, none, BUDGET, 100_000, 5)
    expected_db = 10.0 * math.log10(BUDGET.p_total * g * rho / SIGMA2)
    assert abs(m.avg_snr_db - expected_db) < 0.1


def test_ergodic_seed_reproducibility():
    s_d = rayleigh_stats(1e-9, 1.0)
    s_i = rayleigh_stats(1e-7, 1.5)
    s_r = rayleigh_stats(1e-8, 1.2)
    a = ergodic_throughput_mc(s_d, s_i, s_r, ACTIVE, BUDGET, 256, 42)
    b = ergodic_throughput_mc(s_d, s_i, s_r, ACTIVE, BUDGET, 256, 42)
    assert a == b
    c = ergodic_throughput_mc(s_d, s_i, s_r, ACTIVE, BUDGET, 256, (7, 3, 0, 1))
    d = ergodic_throughput_mc(s_d, s_i, s_r, ACTIVE, BUDGET, 256, (7, 3, 0, 1))
    assert c == d
    assert a != c


def test_snr_series_modes_share_draws():
    s_d = rayleigh_stats(1e-9, 1.0)
    s_i = rayleigh_stats(1e-7, 1.5)
    s_r = rayleigh_stats(1e-8, 1.2)
    kw = dict(
        n_elements=4,
        budget=AMP_BUDGET,
        n_mc=64,
        seed_path=(1, 2),
    )
    both = snr_series(s_d, s_i, s_r, modes=("active", "passive"), **kw)
    act = snr_series(s_d, s_i, s_r, modes=("active",), **kw)
    pas = snr_series(s_d, s_i, s_r, modes=("passive",), **kw)
    assert np.array_equal(both["active"], act["active"])
    assert np.array_equal(both["passive"], pas["passive"])
    assert not np.array_equal(both["active"], both["passive"])


def test_snr_series_chunking_is_transparent():
    s_d = rayleigh_stats(1e-9, 1.0)
    s_i = rayleigh_stats(1e-7, 1.5)
    s_r = rayleigh_stats(1e-8, 1.2)
    kw = dict(
        n_elements=2,
        budget=AMP_BUDGET,
        seed_path=(0,),
        modes=("passive",),
    )
    short = snr_series(s_d, s_i, s_r, n_mc=512, **kw)["passive"]
    long = snr_series(s_d, s_i, s_r, n_mc=515, **kw)["passive"]
    assert long.size == 515
    assert np.array_equal(long[:512], short)


def test_element_draws_do_not_depend_on_surface_size():
    # common-random-number property: a surface of 8 elements sees, in its
    # first 4 rows, exactly the draws a 4-element surface would see
    stats = rayleigh_stats(1e-7, 1.5)
    small = _amp_chunk(stats, 4, 32, (5, 0), LEG_AP_IRS, 0)
    big = _amp_chunk(stats, 8, 32, (5, 0), LEG_AP_IRS, 0)
    assert np.array_equal(big[:4], small)


def test_metrics_from_snr_edge_cases():
    m = metrics_from_snr(np.zeros(8))
    assert m.ergodic_rate == 0.0
    assert m.avg_snr_db == -math.inf
    m2 = metrics_from_snr(np.array([1.0, 3.0]))
    assert_allclose(m2.ergodic_rate, (1.0 + 2.0) / 2.0, rtol=1e-15)
    assert_allclose(m2.avg_snr_db, 10.0 * math.log10(2.0), rtol=1e-15)
    assert m2.covered(3.0) and not m2.covered(3.02)


# --- summary indices --------------------------------------------------------

def test_coverage_indicator_threshold():
    assert coverage_indicator(25.0, 20.0) == 1
    assert coverage_indicator(19.99, 20.0) == 0
    assert coverage_indicator(20.0, 20.0) == 1


def test_fairness_index_values():
    assert fairness_index([2.0, 2.0, 2.0, 2.0]) == 1.0
    assert fairness_index([3.0, 1.0]) == 0.8
    assert fairness_index([5.0, 0.0, 0.0, 0.0]) == 0.25
    with pytest.raises(ValueError):
        fairness_index([0.0, 0.0])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=1e-6, max_value=1e3), min_size=1, max_size=16))
def test_fairness_index_bounds(rates):
    f = fairness_index(rates)
    assert 1.0 / len(rates) - 1e-12 <= f <= 1.0 + 1e-12


# --- configuration records --------------------------------------------------

def test_irs_unit_validation():
    with pytest.raises(ValueError):
        IrsUnit(n_elements=4, mode="hybrid")
    with pytest.raises(ValueError):
        IrsUnit(n_elements=-1, mode="passive")
    with pytest.raises(ValueError):
        IrsUnit(n_elements=4, mode="active", amp_power_max=0.0)
    with pytest.raises(ValueError):
        IrsUnit(n_elements=4, mode="active", amp_power_max=0.005, amp_noise_psd=-1e-20)


def test_power_budget_validation():
    # the figures themselves are checked by ScenarioConfig (tests/test_cli.py)
    assert BUDGET.noise_power == BUDGET.noise_psd * BUDGET.bandwidth
