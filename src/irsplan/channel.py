"""Large-scale path loss and pattern-adjusted Rician fading statistics.

Each link is summarized by a LinkStats record: the UMa path gain g, the
distance-based Rician factor K of an isotropic link, and the two quantities
that fold the antenna patterns into the fading law, the K-factor gain G_K
and the mean fading power rho.  The fading amplitude is then
sqrt(g) * xi, with xi Rician such that E{xi^2} = rho and effective factor
K_tilde = G_K * K.

link_stats builds the record of every leg.  Each end gives its realized gain
along the ray and its spherical average: the AP array peak_gain *
ap_pattern_value and ap_average_gain, a surface element max_gain * erp_value
and 1, an isotropic UE 1 and 1.  rician_adjustment folds both products in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import link_geometry
from .patterns import ApArrayPattern, ErpModel, ap_average_gain, ap_pattern_value, erp_value

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
    ScenarioConfig; a gain past the float range, which only a carrier far
    below any real band reaches, is a ValueError naming rf.f_c_ghz.
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
    try:
        return 10.0 ** (-pl / 10.0)
    except OverflowError:  # past a gain of ~+3083 dB
        raise ValueError(f"rf.f_c_ghz: {f_c_ghz!r} GHz gives a {-pl:.6g} dB path gain") from None


def rician_k_isotropic(dist_3d: float, los: bool) -> float:
    """Distance-based Rician factor, linear: 10^((13 - 0.03 d)/10) under LoS.

    NLoS links are pure Rayleigh (K = 0).
    """
    if not los:
        return 0.0
    return 10.0 ** ((13.0 - 0.03 * dist_3d) / 10.0)


def rician_adjustment(k_factor: float, los_product: float, e_avg: float) -> tuple[float, float]:
    """Fold pattern gains into the Rician law of one link: (G_K, rho).

    k_factor is the isotropic K >= 0, los_product the product of both ends'
    realized gains G*F along the deterministic ray, and e_avg the product of
    their spherical averages, which weights the scattered power (positive;
    ScenarioConfig checks the AP's).  Unit gains give exactly (1, 1): the
    isotropic law.
    """
    g_k = los_product / e_avg
    rho = (k_factor / (k_factor + 1.0)) * los_product + e_avg / (k_factor + 1.0)
    return g_k, rho


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

    kind names the two ends: "ap_irs", "irs_ue" (the polar angle doubles
    as the departure angle off the facet normal) or "ap_ue".  The AP end
    gives its gain at depression_deg and ap_average_gain, the surface end
    its gain at arrival_polar_deg and 1, which its normalization fixes; the
    UE gives 1 and 1.  rician_adjustment takes the products of both ends.
    """
    if kind not in ("ap_irs", "irs_ue", "ap_ue"):
        raise ValueError(f"unknown link kind: {kind!r}")
    g = pathloss_uma(dist_3d, dist_2d, h_tx, h_rx, f_c_ghz, los)
    k = rician_k_isotropic(dist_3d, los)
    los_product = e_avg = 1.0
    if kind != "irs_ue":  # the AP end
        los_product = ap_pattern.peak_gain * ap_pattern_value(ap_pattern, depression_deg)
        e_avg = ap_average_gain(ap_pattern)
    if kind != "ap_ue":  # the surface end; not *=, which would round G_e * F_e first
        los_product = los_product * erp.max_gain * erp_value(erp, arrival_polar_deg)
    g_k, rho = rician_adjustment(k, los_product, e_avg)
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
