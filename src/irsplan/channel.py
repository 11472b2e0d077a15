"""Large-scale path loss and pattern-adjusted Rician fading statistics.

Each link is summarized by a LinkStats record: the UMa path gain g, the
distance-based Rician factor K of an isotropic link, and the two quantities
that fold the antenna patterns into the fading law, the K-factor gain G_K
and the mean fading power rho.  The fading amplitude is then
sqrt(g) * xi, with xi Rician such that E{xi^2} = rho and effective factor
K_tilde = G_K * K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import link_geometry
from .patterns import (
    ApArrayPattern,
    ErpModel,
    ap_pattern_value,
    erp_value,
    pattern_averaged_gain,
)

_C = 3.0e8  # m/s, as used by the UMa breakpoint distance


@dataclass(frozen=True)
class LinkStats:
    """Statistical description of one link.

    Attributes
    ----------
    g : float
        Large-scale path power gain, linear.
    k_factor : float
        Distance-based Rician factor K of the isotropic link (0 when NLoS).
    g_k : float
        Pattern gain on the Rician factor; the effective factor is G_K * K.
    rho : float
        Mean power E{xi^2} of the normalized fading amplitude.
    los : bool
        Whether the link is line-of-sight.
    """

    g: float
    k_factor: float
    g_k: float
    rho: float
    los: bool

    @property
    def k_tilde(self) -> float:
        return self.g_k * self.k_factor


def pathloss_uma(
    dist_3d: float,
    dist_2d: float,
    h_tx: float,
    h_rx: float,
    f_c_ghz: float,
    los: bool,
) -> float:
    """UMa path power gain (linear) between heights h_tx and h_rx.

    Dual-slope LoS model with the standard breakpoint
    d_bp = 4 (h_tx - 1)(h_rx - 1) f_c / c; the NLoS loss is floored by the
    LoS loss at the same geometry.  No shadow fading term.  Takes
    dist_3d > 0 and dist_2d >= 0 from link_geometry and f_c_ghz > 0 from
    ScenarioConfig.
    """
    lf = 20.0 * math.log10(f_c_ghz)
    pl1 = 28.0 + 22.0 * math.log10(dist_3d) + lf
    h_tx_eff = h_tx - 1.0
    h_rx_eff = h_rx - 1.0
    if h_tx_eff > 0 and h_rx_eff > 0:
        d_bp = 4.0 * h_tx_eff * h_rx_eff * (f_c_ghz * 1e9) / _C
    else:
        d_bp = math.inf  # breakpoint undefined; stay on the first slope
    if dist_2d <= d_bp:
        pl_los = pl1
    else:
        pl_los = (
            28.0
            + 40.0 * math.log10(dist_3d)
            + lf
            - 9.0 * math.log10(d_bp**2 + (h_tx - h_rx) ** 2)
        )
    if los:
        pl = pl_los
    else:
        pl_nlos = 13.54 + 39.08 * math.log10(dist_3d) + lf - 0.6 * (h_rx - 1.5)
        pl = max(pl_los, pl_nlos)
    return 10.0 ** (-pl / 10.0)


def rician_k_isotropic(dist_3d: float, los: bool) -> float:
    """Distance-based Rician factor, linear: 10^((13 - 0.03 d)/10) under LoS.

    NLoS links are pure Rayleigh (K = 0).
    """
    if not los:
        return 0.0
    return 10.0 ** ((13.0 - 0.03 * dist_3d) / 10.0)


def rician_adjustment(
    k_factor: float, los_product: float, e_tx: float, e_rx: float
) -> tuple[float, float]:
    """Fold pattern gains into the Rician law of one link.

    Parameters
    ----------
    k_factor : float
        Isotropic Rician factor K >= 0.
    los_product : float
        Product of the realized gains G*F along the deterministic ray.
    e_tx, e_rx : float
        Pattern-averaged gains of the two ends, weighting the scattered
        power; positive (ScenarioConfig checks the AP's).

    Returns
    -------
    (g_k, rho) : tuple of float
        K-factor gain and mean fading power.  For unit gains on both ends
        this is exactly (1, 1), i.e. the isotropic law is recovered.
    """
    e_prod = e_tx * e_rx
    g_k = los_product / e_prod
    rho = (k_factor / (k_factor + 1.0)) * los_product + e_prod / (k_factor + 1.0)
    return g_k, rho


def adjust_stats_ap_irs(
    k_factor: float,
    ap_pattern: ApArrayPattern,
    erp: ErpModel,
    depression_deg: float,
    arrival_polar_deg: float,
) -> tuple[float, float]:
    """(G_K, rho) for the AP-to-surface leg."""
    los_product = (
        ap_pattern.peak_gain
        * ap_pattern_value(ap_pattern, depression_deg)
        * erp.max_gain
        * erp_value(erp, arrival_polar_deg)
    )
    e_tx = pattern_averaged_gain(ap_pattern)
    e_rx = pattern_averaged_gain(erp)
    return rician_adjustment(k_factor, los_product, e_tx, e_rx)


def adjust_stats_irs_ue(
    k_factor: float, erp: ErpModel, departure_polar_deg: float
) -> tuple[float, float]:
    """(G_K, rho) for the surface-to-UE leg (isotropic UE)."""
    los_product = erp.max_gain * erp_value(erp, departure_polar_deg)
    return rician_adjustment(k_factor, los_product, pattern_averaged_gain(erp), 1.0)


def adjust_stats_ap_ue(
    k_factor: float, ap_pattern: ApArrayPattern, depression_deg: float
) -> tuple[float, float]:
    """(G_K, rho) for the direct AP-to-UE link (isotropic UE)."""
    los_product = ap_pattern.peak_gain * ap_pattern_value(ap_pattern, depression_deg)
    return rician_adjustment(k_factor, los_product, pattern_averaged_gain(ap_pattern), 1.0)


def link_stats(
    kind: str,
    *,
    dist_3d: float,
    dist_2d: float,
    h_tx: float,
    h_rx: float,
    f_c_ghz: float,
    los: bool,
    ap_pattern: ApArrayPattern | None = None,
    erp: ErpModel | None = None,
    depression_deg: float | None = None,
    arrival_polar_deg: float | None = None,
) -> LinkStats:
    """Assemble the LinkStats of one leg.

    kind selects the pattern combination: "ap_irs", "irs_ue" (the polar
    angle doubles as the departure angle off the facet normal) or "ap_ue".
    """
    g = pathloss_uma(dist_3d, dist_2d, h_tx, h_rx, f_c_ghz, los)
    k = rician_k_isotropic(dist_3d, los)
    if kind == "ap_irs":
        g_k, rho = adjust_stats_ap_irs(k, ap_pattern, erp, depression_deg, arrival_polar_deg)
    elif kind == "irs_ue":
        g_k, rho = adjust_stats_irs_ue(k, erp, arrival_polar_deg)
    elif kind == "ap_ue":
        g_k, rho = adjust_stats_ap_ue(k, ap_pattern, depression_deg)
    else:
        raise ValueError(f"unknown link kind: {kind!r}")
    return LinkStats(g=g, k_factor=k, g_k=g_k, rho=rho, los=los)


def leg_stats(
    kind: str,
    a,
    b,
    f_c_ghz: float,
    los: bool,
    *,
    ap_pattern: ApArrayPattern | None = None,
    erp: ErpModel | None = None,
    normal=None,
) -> LinkStats:
    """LinkStats of one leg from its end points.

    a is the AP ("ap_ue", "ap_irs") or the UE ("irs_ue"); b is the UE or
    the surface, whose facet normal gives the arrival (or departure) polar
    angle.  The transmitter is the AP or the surface.
    """
    geom = link_geometry(a, b, target_normal=normal)
    h_tx, h_rx = (b[2], a[2]) if kind == "irs_ue" else (a[2], b[2])
    return link_stats(
        kind,
        dist_3d=geom.dist_3d,
        dist_2d=geom.dist_2d,
        h_tx=h_tx,
        h_rx=h_rx,
        f_c_ghz=f_c_ghz,
        los=los,
        ap_pattern=ap_pattern,
        erp=erp,
        depression_deg=geom.depression_deg,
        arrival_polar_deg=geom.arrival_polar_deg,
    )


def rice_parameters(k_tilde: float) -> tuple[float, float]:
    """Deterministic amplitude nu and Gaussian scale sigma of a unit-power
    Rician amplitude with factor k_tilde >= 0 (nu^2 + 2 sigma^2 = 1)."""
    if math.isinf(k_tilde):
        return 1.0, 0.0
    nu = math.sqrt(k_tilde / (k_tilde + 1.0))
    sigma = math.sqrt(0.5 / (k_tilde + 1.0))
    return nu, sigma


def rician_amplitudes(
    k_tilde: float, power: float, rng: np.random.Generator, shape: tuple[int, ...]
) -> np.ndarray:
    """Rician amplitudes of the given shape with E{xi^2} = power and factor
    k_tilde.

    Draws standard_normal((*shape, 2)), so the variates of the leading axes
    come first in the stream.  An infinite factor degenerates to the
    constant sqrt(power) and draws nothing.
    """
    scale = math.sqrt(power)
    nu, sigma = rice_parameters(k_tilde)
    if sigma == 0.0:
        return np.full(shape, scale * nu)
    z = rng.standard_normal((*shape, 2))
    return scale * np.hypot(nu + sigma * z[..., 0], sigma * z[..., 1])
