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

The scalar line-of-sight test ``los_clear``, the scalar twins and the
link-metric helpers at the end are the three exceptions.  ``los_clear``
runs the slab arithmetic of ``geometry.los_clear_many`` one pair at a
time with its tolerances, so the two must agree on every boolean; the
sampled ``segment_hits_box_interior`` is the independent check.  The twins (``sample_fading``, ``IrsUnit``,
``optimal_amplification``, ``snr_optimal``) state one draw series or one
fading realization in scalar terms on top of irsplan's own Rician sampler
(``rician_amplitudes``) and SNR closed form (``snr_from_sums``), so checks
written against them exercise the code the deployments run.  The helpers
are thin wrappers that run one surface placement through irsplan's Monte
Carlo kernel (``snr_series``) and summarizer (``rate_and_snr_db``), so
tests can state facts about a single link in one call.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad, trapezoid
from scipy.special import i0e

from irsplan.channel import rician_amplitudes
from irsplan.geometry import _BLOCK_EPS, _FACE_NUDGE, _FACE_TOL
from irsplan.link import MODES, rate_and_snr_db, snr_from_sums, snr_series
from irsplan.patterns import ErpModel


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


def _nudged_endpoint(p: np.ndarray, mn: np.ndarray, mx: np.ndarray) -> np.ndarray:
    """Push p outward off every building face it lies on (within tolerance)."""
    if mn.shape[0] == 0:
        return p
    q = p.copy()
    touching = np.all((p >= mn - _FACE_TOL) & (p <= mx + _FACE_TOL), axis=1)
    for b in np.nonzero(touching)[0]:
        on_min = np.abs(p - mn[b]) <= _FACE_TOL
        on_max = np.abs(p - mx[b]) <= _FACE_TOL
        if on_min.any() or on_max.any():
            q = q - _FACE_NUDGE * on_min + _FACE_NUDGE * on_max
    return q


def _segment_blocked(a: np.ndarray, b: np.ndarray, mn: np.ndarray, mx: np.ndarray) -> bool:
    """True if the open segment a-b crosses any box with positive length."""
    if mn.shape[0] == 0:
        return False
    d = b - a
    n_boxes = mn.shape[0]
    t_lo = np.zeros(n_boxes)
    t_hi = np.ones(n_boxes)
    alive = np.ones(n_boxes, dtype=bool)
    for ax in range(3):
        if abs(d[ax]) > 1e-15:
            t1 = (mn[:, ax] - a[ax]) / d[ax]
            t2 = (mx[:, ax] - a[ax]) / d[ax]
            lo = np.minimum(t1, t2)
            hi = np.maximum(t1, t2)
            t_lo = np.maximum(t_lo, lo)
            t_hi = np.minimum(t_hi, hi)
        else:
            # Segment runs parallel to this slab; it can only pass through
            # boxes both its ends are strictly inside of along this axis.
            alive &= (min(a[ax], b[ax]) > mn[:, ax]) & (max(a[ax], b[ax]) < mx[:, ax])
    return bool(np.any(alive & (t_hi - t_lo > _BLOCK_EPS)))


def los_clear(a, b, scene) -> bool:
    """Scalar reference of ``geometry.los_clear_many`` for one pair: the same
    tolerances, nudges and slab arithmetic, one segment at a time.

    Total: coincident endpoints are trivially clear, endpoints on facades
    look past their own face, and grazing contact does not block.
    """
    pa = np.asarray(a, dtype=float)
    pb = np.asarray(b, dtype=float)
    if np.array_equal(pa, pb):
        return True
    mn = np.array([bld.min_corner for bld in scene.buildings], dtype=float).reshape(-1, 3)
    mx = np.array([bld.max_corner for bld in scene.buildings], dtype=float).reshape(-1, 3)
    pa = _nudged_endpoint(pa, mn, mx)
    pb = _nudged_endpoint(pb, mn, mx)
    return not _segment_blocked(pa, pb, mn, mx)


# --- scalar twins (on irsplan's sampler and closed form) ------------------

def sample_fading(k_tilde: float, rho: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n Rician amplitudes xi with E{xi^2} = rho and factor k_tilde.

    An infinite factor degenerates to the constant sqrt(rho).
    """
    if not (rho > 0):
        raise ValueError("rho must be positive")
    if n < 1:
        raise ValueError("n must be >= 1")
    return rician_amplitudes(k_tilde, rho, rng, (n,))


@dataclass(frozen=True)
class IrsUnit:
    """One reflecting surface: element count, mode and amplifier figures."""

    n_elements: int
    mode: str = "active"
    amp_power_max: float = 0.0  # W, amplifier budget P_A (active only)
    amp_noise_psd: float = 0.0  # W/Hz, amplifier noise N_v (active only)
    erp: ErpModel = ErpModel(1.0)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.n_elements < 0:
            raise ValueError("n_elements must be >= 0")
        if self.mode == "active":
            if not (self.amp_power_max > 0):
                raise ValueError("active surfaces need a positive amp_power_max")
            if self.amp_noise_psd < 0:
                raise ValueError("amp_noise_psd must be >= 0")


def _with_amplifier(budget, unit: IrsUnit):
    """budget with the unit's amplifier figures."""
    return dataclasses.replace(
        budget, amp_power_max=unit.amp_power_max, amp_noise_psd=unit.amp_noise_psd
    )


def optimal_amplification(h_i_amps, unit: IrsUnit, budget) -> float:
    """Amplification factor maximizing the SNR under the amplifier budget.

    p = sqrt(P_A / (P_u sum|h_i|^2 + N sigma_v^2)) for an active surface;
    passive surfaces reflect with unit amplitude.
    """
    if unit.mode == "passive":
        return 1.0
    h_i = np.asarray(h_i_amps, dtype=float)
    sigma_v2 = unit.amp_noise_psd * budget.bandwidth
    t = budget.p_tx_max * float(np.sum(h_i**2)) + h_i.size * sigma_v2
    if t <= 0.0:
        raise ValueError("amplification undefined: no incident signal or noise power")
    return math.sqrt(unit.amp_power_max / t)


def snr_optimal(h_i_amps, h_r_amps, h_d_amp, unit: IrsUnit, budget) -> float:
    """Instantaneous SNR with optimal phases, amplification and power.

    Inputs are channel amplitudes (path loss included): per-element incident
    and reflected legs plus the direct leg.
    """
    h_i = np.atleast_1d(np.asarray(h_i_amps, dtype=float))
    h_r = np.atleast_1d(np.asarray(h_r_amps, dtype=float))
    if h_i.shape != h_r.shape:
        raise ValueError("incident and reflected amplitude vectors must match")
    d = float(h_d_amp)
    if d < 0 or np.any(h_i < 0) or np.any(h_r < 0):
        raise ValueError("amplitudes must be >= 0")
    gamma = snr_from_sums(
        unit.mode,
        h_i.size,
        float(h_i @ h_r),
        d,
        _with_amplifier(budget, unit),
        lambda: (float(h_i @ h_i), float(h_r @ h_r)),
    )
    return float(gamma)


# --- link metrics (wrappers over irsplan's kernel) -------------------------

@dataclass(frozen=True)
class LinkMetrics:
    """Monte Carlo summary of one link."""

    ergodic_rate: float  # bps/Hz
    avg_snr_db: float    # 10 log10 E{gamma}
    mc_samples: int

    def covered(self, threshold_db: float) -> bool:
        return self.avg_snr_db >= threshold_db


def metrics_from_snr(gamma: np.ndarray) -> LinkMetrics:
    """Ergodic rate and average-SNR summary of a sample series."""
    rate, avg_db = rate_and_snr_db(gamma)
    return LinkMetrics(ergodic_rate=rate, avg_snr_db=avg_db, mc_samples=int(gamma.size))


def ergodic_throughput_mc(
    stats_direct, stats_ap_irs, stats_irs_ue, unit, budget, n_mc: int, seed
) -> LinkMetrics:
    """Monte Carlo link metrics for one surface placement (or none).

    seed may be an int or a tuple path; a fixed seed gives identical
    results on every call.
    """
    seed_path = (seed,) if isinstance(seed, int) else tuple(seed)
    series = snr_series(
        stats_direct,
        stats_ap_irs,
        stats_irs_ue,
        unit.n_elements,
        _with_amplifier(budget, unit),
        n_mc=n_mc,
        seed_path=seed_path,
        modes=(unit.mode,),
    )
    return metrics_from_snr(series[unit.mode])


def coverage_indicator(avg_snr_db: float, threshold_db: float) -> int:
    """1 when the average SNR meets the threshold, else 0."""
    return 1 if avg_snr_db >= threshold_db else 0
