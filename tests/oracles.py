"""Independent reference implementations used by the test suite.

Everything here is deliberately written from first principles rather than
by calling into irsplan: brute-force enumeration instead of branch and
bound, complex baseband arithmetic instead of the amplitude-only closed
forms, quadrature instead of closed-form pattern averages, and point
sampling instead of slab intersection.  Tests compare library results
against these oracles.

The only shared convention is the planner objective expression
``v[:, cols].max(axis=1).mean()``: the solver contract promises exact
float equality with enumeration, which requires the same reduction order.
The enumeration itself (visit every subset, keep the first strict
improvement) shares no code with the solvers.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.integrate import quad, trapezoid
from scipy.special import i0e


# --- link-level SNR -------------------------------------------------------

def generic_snr(h_i, h_r, h_d, phases, p, p_tx, sigma_v2, sigma2) -> float:
    """SNR of one fading realization under explicit per-element phases.

    Complex coefficients, one phase shift per element, uniform
    amplification p.  The received signal is the phase-shifted, amplified
    sum over elements plus the direct path; the noise is the amplifier
    noise re-radiated through the reflected leg plus receiver noise.
    Setting p=1 and sigma_v2=0 gives the passive composition.
    """
    h_i = np.asarray(h_i, dtype=complex)
    h_r = np.asarray(h_r, dtype=complex)
    combined = p * complex(np.sum(h_i * h_r * np.exp(1j * np.asarray(phases)))) + h_d
    noise = p * p * sigma_v2 * float(np.sum(np.abs(h_r) ** 2)) + sigma2
    return p_tx * abs(combined) ** 2 / noise


def aligned_phases(h_i, h_r, h_d) -> np.ndarray:
    """Per-element phases that rotate every reflected term onto h_d."""
    h_i = np.asarray(h_i, dtype=complex)
    h_r = np.asarray(h_r, dtype=complex)
    return np.angle(complex(h_d)) - np.angle(h_i * h_r)


def active_snr_at_amplification(
    p, h_i_amps, h_r_amps, h_d_amp, p_tx_max, p_amp_max, sigma_v2, sigma2
) -> float:
    """Best feasible SNR of an active surface at a fixed amplification p.

    The amplifier consumes p^2 (P_u sum|h_i|^2 + N sigma_v^2), so pushing p
    past the nominal optimum forces the transmit power below its cap to
    stay within the amplifier budget; below the optimum the cap binds and
    part of the amplifier budget idles.  Returns 0 for infeasible p.
    """
    h_i = np.asarray(h_i_amps, dtype=float)
    h_r = np.asarray(h_r_amps, dtype=float)
    n = h_i.size
    t_sig = float(np.sum(h_i * h_i))
    p_u = min(p_tx_max, (p_amp_max - p * p * n * sigma_v2) / (p * p * t_sig))
    if p_u <= 0.0:
        return 0.0
    a = float(np.sum(h_i * h_r))
    b = float(np.sum(h_r * h_r))
    return p_u * (p * a + h_d_amp) ** 2 / (p * p * sigma_v2 * b + sigma2)


# --- planner --------------------------------------------------------------

def brute_force_plan(values: np.ndarray, num_chosen: int) -> tuple[float, tuple[int, ...]]:
    """Optimal (objective, columns) by visiting every column subset.

    Subsets are enumerated in ascending lexicographic order and only a
    strictly larger objective replaces the running best, so ties resolve
    to the lowest-id subset.
    """
    v = np.asarray(values, dtype=float)
    best = -math.inf
    best_cols: tuple[int, ...] = ()
    for cols in itertools.combinations(range(v.shape[1]), num_chosen):
        val = float(v[:, cols].max(axis=1).mean())
        if val > best:
            best = val
            best_cols = cols
    return best, best_cols


def best_assignment_value(values: np.ndarray, num_chosen: int) -> float:
    """Optimal objective by enumerating raw per-row assignments.

    Every row independently picks a column, subject to at most num_chosen
    distinct columns in use.  Feasible only for tiny matrices; the value
    must match the choose-columns-then-argmax decomposition.
    """
    v = np.asarray(values, dtype=float)
    u, m = v.shape
    best = -math.inf
    for assign in itertools.product(range(m), repeat=u):
        if len(set(assign)) > num_chosen:
            continue
        val = sum(v[i, assign[i]] for i in range(u)) / u
        best = max(best, val)
    return best


# --- fading statistics ----------------------------------------------------

def rice_mean_quad(k_tilde: float, rho: float) -> float:
    """E{xi} of a Rician amplitude with E{xi^2} = rho, by quadrature.

    Integrates x * pdf(x) with pdf(x) = (x/s^2) exp(-(x^2+nu^2)/(2 s^2))
    I0(x nu / s^2), written with the exponentially scaled Bessel to stay
    finite at large K.
    """
    nu = math.sqrt(rho * k_tilde / (k_tilde + 1.0))
    s2 = rho / (2.0 * (k_tilde + 1.0))

    def integrand(x):
        return x * (x / s2) * math.exp(-((x - nu) ** 2) / (2.0 * s2)) * i0e(x * nu / s2)

    hi = nu + 40.0 * math.sqrt(s2)
    val, _ = quad(integrand, 0.0, hi, points=[nu] if 0.0 < nu < hi else None, limit=200)
    return val


def uma_pathloss_db(d3d, d2d, h_tx, h_rx, f_ghz, los) -> float:
    """Urban-macro path loss in dB, transcribed independently.

    Dual-slope LoS curve with breakpoint 4 (h_tx-1)(h_rx-1) f/c (c = 3e8,
    the value the breakpoint definition fixes), NLoS floored by LoS.
    """
    lf = 20.0 * math.log10(f_ghz)
    pl1 = 28.0 + 22.0 * math.log10(d3d) + lf
    if h_tx > 1.0 and h_rx > 1.0:
        d_bp = 4.0 * (h_tx - 1.0) * (h_rx - 1.0) * f_ghz * 1e9 / 3.0e8
    else:
        d_bp = math.inf
    if d2d <= d_bp:
        pl_los = pl1
    else:
        pl_los = (
            28.0
            + 40.0 * math.log10(d3d)
            + lf
            - 9.0 * math.log10(d_bp * d_bp + (h_tx - h_rx) ** 2)
        )
    if los:
        return pl_los
    pl_nlos = 13.54 + 39.08 * math.log10(d3d) + lf - 0.6 * (h_rx - 1.5)
    return max(pl_los, pl_nlos)


# --- radiation patterns ---------------------------------------------------

def erp_sphere_average(exponent: float, max_gain: float) -> float:
    """(1/4pi) integral of G cos^q(theta) over the front hemisphere."""

    def integrand(theta):
        return max_gain * math.cos(theta) ** exponent * math.sin(theta)

    val, _ = quad(integrand, 0.0, math.pi / 2.0)
    return 0.5 * val


def ula_gain(theta_deg, num_elements, spacing, wavelength, tilt_deg, element_gain):
    """Realized gain of a uniform linear array of vertical dipoles.

    Written from the textbook form G(theta) = G_e cos^2(theta)
    sin^2(M psi/2) / (M sin^2(psi/2)) with psi the inter-element phase
    shift; the boresight limit is substituted where sin(psi/2) vanishes.
    """
    th = np.radians(np.asarray(theta_deg, dtype=float))
    half = (np.pi * spacing / wavelength) * (
        np.sin(th) - math.sin(math.radians(tilt_deg))
    )
    s = np.sin(half)
    tiny = np.abs(s) < 1e-12
    af2 = np.where(
        tiny,
        float(num_elements * num_elements),
        (np.sin(num_elements * half) / np.where(tiny, 1.0, s)) ** 2,
    )
    return element_gain * np.cos(th) ** 2 * af2 / num_elements


def ula_elevation_average(
    num_elements, spacing, wavelength, tilt_deg, element_gain, step_deg=0.01
) -> float:
    """Spherical average of the array gain (no azimuth dependence).

    0.5 * integral of G(theta) cos(theta) d(theta) over depression angles,
    trapezoid rule on a step_deg grid.
    """
    theta = np.arange(-90.0, 90.0 + step_deg, step_deg)
    g = ula_gain(theta, num_elements, spacing, wavelength, tilt_deg, element_gain)
    rad = np.radians(theta)
    return 0.5 * float(trapezoid(g * np.cos(rad), rad))


# --- geometry -------------------------------------------------------------

def segment_hits_box_interior(a, b, min_corner, max_corner, samples=512) -> bool:
    """Whether any sampled interior point of segment a-b lies strictly
    inside the box.  One-directional: a True here must mean blocked, but a
    thin crossing can slip between samples, so False proves nothing.
    Coincident endpoints span no open segment and so hit nothing."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if np.array_equal(a, b):
        return False
    mn = np.asarray(min_corner, dtype=float)
    mx = np.asarray(max_corner, dtype=float)
    t = (np.arange(1, samples + 1)) / (samples + 1.0)
    pts = a[None, :] + t[:, None] * (b - a)[None, :]
    inside = np.all((pts > mn + 1e-9) & (pts < mx - 1e-9), axis=1)
    return bool(inside.any())
