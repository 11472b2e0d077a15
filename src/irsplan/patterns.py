"""Radiation patterns of the AP array and the reflecting-surface elements.

Conventions
-----------
All patterns are split into a peak power gain G and a normalized power
pattern F with max F = 1, so that the realized gain along a direction is
G * F.  Angles are in degrees throughout.

* Reflecting elements use the cosine-power model F(theta) = cos(theta)^q on
  the front hemisphere (theta in [0, 90]) and 0 behind, with the peak gain
  G = 2*(q+1) fixed by requiring the gain to integrate to 4*pi over the
  sphere, so its spherical average is exactly 1.
* The AP is a uniform linear array of M elements on a vertical axis with a
  mechanical/electrical downtilt.  Its pattern depends only on the
  depression angle theta (positive below the horizontal), with the array
  factor normalized so F equals exactly 1 at the tilt angle; its spherical
  average, ap_average_gain, is taken by quadrature.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Step used for numeric pattern averages; small enough that the trapezoid
# error is far below every tolerance built on top of it.
_QUAD_STEP_DEG = 0.02


def _scalar_like(value: np.ndarray, template) -> float | np.ndarray:
    if np.ndim(template) == 0:
        return float(value)
    return value


@dataclass(frozen=True)
class ErpModel:
    """Element radiation pattern cos(theta)^exponent on the front hemisphere.

    Parameters
    ----------
    exponent : float
        Cosine power q >= 0.  q=1 gives a 6.02 dBi element, q=3 gives
        9.03 dBi.  The value is checked by ScenarioConfig, which also
        keeps the peak gain finite.

    Its spherical average gain is exactly 1, the normalization that fixes
    max_gain, so channel.link_stats takes 1 for a surface end.
    """

    exponent: float = 1.0

    @property
    def max_gain(self) -> float:
        """Peak power gain 2*(q+1), linear.

        Follows from (1/4pi) * integral of G*cos(theta)^q over the front
        hemisphere being 1.
        """
        return 2.0 * (self.exponent + 1.0)


def erp_value(model: ErpModel, theta_deg) -> float | np.ndarray:
    """Normalized element pattern at polar angle theta in [0, 180] degrees.

    cos(theta)^q for theta <= 90, exactly 0 behind the surface.  theta is
    not checked: the stats grid passes math.acos outputs, which lie in
    [0, 180], and pattern-dump passes |theta| <= 89.5.
    """
    th = np.asarray(theta_deg, dtype=float)
    c = np.cos(np.radians(th))
    front = th <= 90.0
    # 0**0 == 1 keeps q=0 hemispherically flat including theta=90.
    val = np.where(front, np.maximum(c, 0.0) ** model.exponent, 0.0)
    return _scalar_like(val, theta_deg)


@dataclass(frozen=True)
class ApArrayPattern:
    """Vertical uniform linear array at the AP; the values are checked by
    ScenarioConfig.

    Parameters
    ----------
    wavelength : float
        Carrier wavelength in meters.
    element_spacing : float
        d_e in meters.
    num_elements : int
        M, number of array elements.
    tilt_deg : float
        Boresight depression angle below the horizontal, degrees.
    element_max_gain : float
        Peak gain of one element, linear (1.64 ~ half-wave dipole).
    """

    wavelength: float
    element_spacing: float
    num_elements: int = 8
    tilt_deg: float = 10.0
    element_max_gain: float = 1.64

    @property
    def peak_gain(self) -> float:
        """Transmit gain along the tilted boresight, M * G_e * cos(tilt)^2."""
        c = math.cos(math.radians(self.tilt_deg))
        return self.num_elements * self.element_max_gain * c * c


def ap_pattern_value(pattern: ApArrayPattern, theta_deg) -> float | np.ndarray:
    """Normalized AP array power pattern at depression angle theta.

    theta is measured from the horizontal, positive downward, and must lie
    in (-90, 90].  The value is cos(theta)^2 * AF(theta)^2 / (M cos(tilt)^2)
    with the standard ULA array factor, which equals exactly 1 at the tilt
    angle.  Off-grating-lobe values stay at or below ~1 (the cos^2 envelope
    can push the true peak a hair above 1 slightly off the tilt).
    """
    th = np.asarray(theta_deg, dtype=float)
    if np.any(th <= -90.0) or np.any(th > 90.0):
        raise ValueError("theta_deg must lie in (-90, 90] degrees")
    m = pattern.num_elements
    tilt = math.radians(pattern.tilt_deg)
    rad = np.radians(th)
    # Half the inter-element phase shift.
    x = (np.pi * pattern.element_spacing / pattern.wavelength) * (
        np.sin(rad) - math.sin(tilt)
    )
    sx = np.sin(x)
    near_lobe = np.abs(sx) < 1e-9
    safe = np.where(near_lobe, 1.0, sx)
    af2 = np.where(near_lobe, float(m), (np.sin(m * x) / (math.sqrt(m) * safe)) ** 2)
    val = (np.cos(rad) ** 2) * af2 / (m * math.cos(tilt) ** 2)
    return _scalar_like(val, theta_deg)


@lru_cache(maxsize=32)
def ap_average_gain(pattern: ApArrayPattern) -> float:
    """Spherical average (1/4pi) * integral of G*F dOmega of the AP array.

    The pattern has no azimuth dependence, so this reduces to
    0.5 * integral of G(theta) cos(theta) over depression angles, taken by
    the trapezoid rule.
    """
    theta = np.arange(-90.0, 90.0 + _QUAD_STEP_DEG, _QUAD_STEP_DEG)
    theta = np.clip(theta, -90.0 + 1e-12, 90.0)
    # Silence numpy only for a phase near the float range (it gives nan, which
    # ScenarioConfig refuses): entering np.errstate costs ~0.1 MiB of peak RSS.
    phase = 2.0 * math.pi * pattern.num_elements * pattern.element_spacing / pattern.wavelength
    with np.errstate(over="ignore", invalid="ignore") if phase > 1e300 else nullcontext():
        g = pattern.peak_gain * ap_pattern_value(pattern, theta)
    rad = np.radians(theta)
    y = g * np.cos(rad)
    # Trapezoid rule, written as scipy.integrate.trapezoid evaluates it.
    return 0.5 * float(np.sum(np.diff(rad) * (y[1:] + y[:-1]) / 2.0))
