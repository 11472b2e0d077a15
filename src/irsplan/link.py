"""SNR and throughput of one AP-surface-UE link under optimal control.

With the surface phases aligned to the direct path, the instantaneous SNR
depends only on the amplitudes |h| of the involved channels.  For an active
surface the closed-form optimum over the uniform amplification factor p
(amplifier budget P_A, transmit power at its cap) is

    gamma = P_u (sqrt(P_A) A + sqrt(T) d)^2 / (P_A sigma_v^2 B + sigma^2 T),

with A = sum |h_i||h_r|, B = sum |h_r|^2, d = |h_d|,
T = P_u sum |h_i|^2 + N sigma_v^2 and p_opt = sqrt(P_A / T); a passive
surface gives gamma = P_tx (A + d)^2 / sigma^2.  Ergodic metrics average
these over Rician fading draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import LinkStats, rician_amplitudes
from .seeds import CHUNK, LEG_AP_IRS, LEG_DIRECT, LEG_IRS_UE, substream

MODES = ("active", "passive")


@dataclass(frozen=True)
class PowerBudget:
    """Power and noise figures shared by every link of a scenario; the
    values are checked by ScenarioConfig (positive powers and N_0 * B)."""

    p_total: float    # W, AP budget when serving a UE without any surface
    p_tx_max: float   # W, per-UE AP transmit cap when a surface assists
    bandwidth: float  # Hz
    noise_psd: float  # W/Hz at the receiver
    amp_power_max: float = 0.0  # W, active-surface amplifier budget P_A (0: none)
    amp_noise_psd: float = 0.0  # W/Hz, active-surface amplifier noise N_v

    @property
    def noise_power(self) -> float:
        """sigma^2 = N_0 * B, W."""
        return self.noise_psd * self.bandwidth


def snr_from_sums(
    mode: str,
    n_elements: int,
    a,
    d,
    budget: PowerBudget,
    power_sums=None,
):
    """Optimal SNR from the amplitude sums of one or many fading draws.

    a = sum h_i h_r and d = |h_d| are floats or arrays over draws.  An
    active surface also needs power_sums(), returning (sum h_i^2,
    sum h_r^2); it is called for that mode only.  With no elements the AP
    serves the UE alone with its full budget.
    """
    sigma2 = budget.noise_power
    # Overflow here can only give an inf gamma, which rate_and_snr_db
    # refuses with the field names, so numpy need not warn first.
    with np.errstate(over="ignore"):
        if n_elements == 0:
            return budget.p_total * d * d / sigma2
        if mode == "passive":
            s = a + d
            return budget.p_total * s * s / sigma2
    sum_hi2, b = power_sums()
    sigma_v2 = budget.amp_noise_psd * budget.bandwidth
    t = budget.p_tx_max * sum_hi2 + n_elements * sigma_v2
    with np.errstate(divide="ignore", invalid="ignore"):
        num = budget.p_tx_max * (math.sqrt(budget.amp_power_max) * a + np.sqrt(t) * d) ** 2
        den = budget.amp_power_max * sigma_v2 * b + sigma2 * t
        # An amplifier that sees nothing at all leaves only the direct path.
        return np.where(t > 0.0, num / den, budget.p_tx_max * d * d / sigma2)


def _amp_chunk(
    stats: LinkStats, n_rows: int, take: int, seed_path: tuple[int, ...], leg: int, chunk_idx: int
) -> np.ndarray:
    """(n_rows, take) fading amplitudes of one leg, path loss included."""
    rng = substream(*seed_path, leg, chunk_idx)
    return rician_amplitudes(stats.k_tilde, stats.g * stats.rho, rng, (n_rows, take))


def snr_series(
    stats_direct: LinkStats,
    stats_ap_irs: LinkStats | None,
    stats_irs_ue: LinkStats | None,
    n_elements: int,
    budget: PowerBudget,
    *,
    n_mc: int,
    seed_path: tuple[int, ...],
    modes: tuple[str, ...] = MODES,
) -> dict[str, np.ndarray]:
    """Monte Carlo SNR samples of one link, for one or both surface modes.

    Both modes are evaluated on the same fading draws, so an active/passive
    comparison at a given spot is a paired experiment.  Deterministic for a
    fixed seed path; the draws of element n are independent of how many
    further elements the surface has.  The values are checked by
    ScenarioConfig (n_mc >= 1, modes from MODES); the surface legs are
    given whenever n_elements > 0.
    """
    out = {m: np.empty(n_mc) for m in modes}
    done = 0
    chunk_idx = 0
    while done < n_mc:
        take = min(CHUNK, n_mc - done)
        d = _amp_chunk(stats_direct, 1, take, seed_path, LEG_DIRECT, chunk_idx)[0]
        a = power_sums = None
        if n_elements > 0:
            h_i = _amp_chunk(stats_ap_irs, n_elements, take, seed_path, LEG_AP_IRS, chunk_idx)
            h_r = _amp_chunk(stats_irs_ue, n_elements, take, seed_path, LEG_IRS_UE, chunk_idx)
            a = np.einsum("ns,ns->s", h_i, h_r)
            power_sums = lambda: (  # noqa: E731
                np.einsum("ns,ns->s", h_i, h_i),
                np.einsum("ns,ns->s", h_r, h_r),
            )
        for m in out:
            out[m][done : done + take] = snr_from_sums(m, n_elements, a, d, budget, power_sums)
        done += take
        chunk_idx += 1
    return out


def rate_and_snr_db(gamma: np.ndarray) -> tuple[float, float]:
    """Ergodic rate (bps/Hz) and average SNR (dB, 10 log10 E{gamma}) of an
    SNR sample series; the average is -inf when E{gamma} is not positive.
    An E{gamma} past the float range is refused."""
    mean_gamma = float(np.mean(gamma))
    if not math.isfinite(mean_gamma):
        raise ValueError(
            f"average SNR E{{gamma}} = p G / (N0 B) is {mean_gamma}, past the float range: "
            "see power.p_total_mw, power.p_tx_max_mw, ap.element_max_gain, ap.num_elements, "
            "surface.n_elements, rf.noise_psd_dbm_hz and rf.bandwidth_hz"
        )
    avg_db = 10.0 * math.log10(mean_gamma) if mean_gamma > 0 else -math.inf
    return float(np.mean(np.log2(1.0 + gamma))), avg_db


def fairness_index(rates) -> float:
    """Jain index (sum r)^2 / (U sum r^2) of one or more rates >= 0; 1 means
    perfectly even rates.  All-zero rates are refused."""
    r = np.asarray(rates, dtype=float)
    total_sq = float(np.sum(r)) ** 2
    denom = r.size * float(np.sum(r * r))
    if denom == 0.0:
        raise ValueError("fairness undefined for all-zero rates")
    return total_sq / denom
