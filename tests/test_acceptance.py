"""End-to-end acceptance checks.

Ten numbered criteria covering the full tool: pattern normalization,
fading statistics, isotropic recovery, phase/amplification optimality,
the passive quadratic array-gain law, placement-solver correctness,
objective monotonicity, the single-link rate study, the deployment and
coverage studies, and byte-level determinism.  Each test prints one
pass/fail line (visible with pytest -s); the expensive scene and matrix
builds are shared through module-scoped fixtures.
"""

import dataclasses
import math
import subprocess
import sys
import time

import numpy as np
import pytest
import yaml
from scipy.integrate import quad

from irsplan.channel import LinkStats, link_stats
from irsplan.config import CoverageConfig, ScenarioConfig, experiment_preset
from irsplan.link import snr_series
from irsplan.patterns import ApArrayPattern, ErpModel, erp_value
from irsplan.planner import (
    MetricMatrix,
    PlanProblem,
    evaluate_plan,
    solve_bnb,
    solve_exact,
    solve_greedy_swap,
)
from irsplan.runners import _grid_and_matrices, run_coverage, run_link_sweep, scene_and_spots

from oracles import (
    IrsUnit,
    active_snr_at_amplification,
    brute_force_plan,
    generic_snr,
    optimal_amplification,
    sample_fading,
    snr_optimal,
)

BUDGET = ScenarioConfig().budget()

# Optimal objective values on the 155-spot medium scene (seed 7, 64 fading
# draws, 1024 elements per surface), per number of deployed surfaces.
MEDIUM_RATE_ACTIVE = [
    19.678608407732735, 22.54059026899246, 23.371876438891277,
    24.127886925428815, 24.772711856211842, 24.975016623654483,
]
MEDIUM_RATE_PASSIVE = [
    14.902924020066262, 15.868444137607598, 16.624137154362224,
    17.219245079267672, 17.582534157797255, 17.924046389079848,
]
MEDIUM_COV35_PASSIVE = [0.65, 0.79, 0.91, 0.95, 0.97, 0.99]

# Split deployments of a 1024-element budget on the same scene.
SPLIT_FAIRNESS_ACTIVE = [0.9593957346025233, 0.9802607880857755, 0.9847931264785842]
SPLIT_MEAN_RATE_PASSIVE = [14.902924020066262, 14.622526254427576, 14.60764512533915]

# Wide-area coverage ratios at a 30 dB threshold, 256 elements per surface.
WIDE_COV30_ACTIVE = [0.58, 0.85, 0.93, 0.99, 1.0]
WIDE_COV30_PASSIVE = [0.275, 0.29, 0.295, 0.3, 0.305]
WIDE_COV30_BASELINE = 0.27


def report(num: int, ok: bool, detail: str):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


@pytest.fixture(scope="module")
def medium_bundle():
    """Scene, spots, and rate/SNR matrices of the medium deployment preset."""
    t0 = time.perf_counter()
    cfg = experiment_preset("split_1024")
    scene, spots = scene_and_spots(cfg)
    # the pooled path that `irsplan deploy` runs
    matrices, _ = _grid_and_matrices(cfg, scene, spots, (1024, 512, 256), ("active", "passive"))
    elapsed = time.perf_counter() - t0
    return {"spots": spots, "matrices": matrices, "elapsed": elapsed}


@pytest.fixture(scope="module")
def sweep_result():
    t0 = time.perf_counter()
    result = run_link_sweep(experiment_preset("link_sweep"))
    result["elapsed"] = time.perf_counter() - t0
    return result


@pytest.fixture(scope="module")
def wide_coverage():
    t0 = time.perf_counter()
    cfg = dataclasses.replace(
        experiment_preset("widearea_coverage"),
        coverage=CoverageConfig(thresholds_db=(30.0,)),
    )
    result = run_coverage(cfg)
    result["elapsed"] = time.perf_counter() - t0
    return result


def test_criterion_01_pattern_normalization():
    t0 = time.perf_counter()
    worst = 0.0
    for q in (0.0, 1.0, 3.0, 5.0):
        model = ErpModel(q)

        def radiated(theta, model=model):
            return model.max_gain * erp_value(model, math.degrees(theta)) \
                * 2.0 * math.pi * math.sin(theta)

        integral, _ = quad(radiated, 0.0, math.pi, points=[math.pi / 2.0])
        worst = max(worst, abs(integral / (4.0 * math.pi) - 1.0))
    err_q1 = abs(10.0 * math.log10(ErpModel(1.0).max_gain) - 6.02)
    err_q3 = abs(10.0 * math.log10(ErpModel(3.0).max_gain) - 9.03)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-3 and err_q1 < 0.05 and err_q3 < 0.05 and elapsed < 1.0
    report(
        1,
        ok,
        f"sphere integral off by {worst:.2e} (<1e-3), gains off by "
        f"{err_q1:.4f}/{err_q3:.4f} dB (<0.05), {elapsed:.2f}s (<1s)",
    )


def test_criterion_02_fading_moments():
    t0 = time.perf_counter()
    worst = 0.0
    for k_tilde in (0.0, 1.0, 10.0, 100.0):
        for rho in (0.5, 1.0, 2.0):
            for seed in (0, 1, 2):
                draws = sample_fading(k_tilde, rho, 100_000, np.random.default_rng(seed))
                worst = max(worst, abs(float(np.mean(draws**2)) / rho - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst < 0.01 and elapsed < 5.0
    report(2, ok, f"worst mean-power error {worst:.4%} (<1%), {elapsed:.2f}s (<5s)")


def test_criterion_03_isotropic_recovery():
    # Unit-gain constructions: a single-element panel with element gain 1.5
    # has a spherical average of exactly 1, and the angles below place each
    # line-of-sight gain product at exactly 1, so every leg must keep the
    # isotropic law (1, 1) whatever its Rician factor.
    ap = ApArrayPattern(
        wavelength=0.15, num_elements=1, element_spacing=0.075,
        tilt_deg=0.0, element_max_gain=1.5,
    )
    erp = ErpModel(1.0)
    th_irs_ue = math.degrees(math.acos(0.25))           # 4 cos(th) = 1
    th_ap_irs = math.degrees(math.acos(1.0 / 6.0))      # 1.5 * 4 cos(th) = 1
    th_ap_ue = math.degrees(math.acos(math.sqrt(2.0 / 3.0)))  # 1.5 cos(th)^2 = 1
    worst = 0.0
    # K = 0 (NLoS), K = 10 (LoS at 100 m) and K ~ 19.8 (LoS at 1 m)
    for dist_3d, dist_2d, los in ((100.0, 99.0, False), (100.0, 99.0, True), (1.0, 0.5, True)):
        common = dict(
            dist_3d=dist_3d, dist_2d=dist_2d, h_tx=25.0, h_rx=1.5, f_c_ghz=2.0, los=los
        )
        for s in (
            link_stats("irs_ue", erp=erp, arrival_polar_deg=th_irs_ue, **common),
            link_stats(
                "ap_irs", ap_pattern=ap, erp=erp, depression_deg=0.0,
                arrival_polar_deg=th_ap_irs, **common,
            ),
            link_stats("ap_ue", ap_pattern=ap, depression_deg=th_ap_ue, **common),
        ):
            worst = max(worst, abs(s.g_k - 1.0), abs(s.rho - 1.0))
    ok = worst <= 1e-12
    report(3, ok, f"worst |G_K - 1|, |rho - 1| = {worst:.2e} (<=1e-12)")


def test_criterion_04_phase_and_amplification_optimality():
    t0 = time.perf_counter()
    cfg = ScenarioConfig()
    unit = IrsUnit(
        16, "active", cfg.budget().amp_power_max, cfg.budget().amp_noise_psd, cfg.erp()
    )
    sigma2 = BUDGET.noise_power
    sigma_v2 = cfg.budget().amp_noise_psd * BUDGET.bandwidth
    rng = np.random.default_rng(2026)
    phase_ok = True
    amp_ok = True
    # Amplitude draws keep the reflected path dominant over the direct one,
    # the operating regime of an amplified surface; with a dominant direct
    # path the amplifier-budget operating point is not the SNR argmax (see
    # test_link.py::test_snr_active_budget_cap_suboptimal_when_direct_dominates).
    for _ in range(100):
        h_i = rng.uniform(0.5, 1.0, 16) * 1e-5
        h_r = rng.uniform(0.5, 1.0, 16) * 1e-5
        h_d = rng.uniform(0.02, 0.08) * 1e-6
        opt = snr_optimal(h_i, h_r, h_d, unit, BUDGET)
        p = optimal_amplification(h_i, unit, BUDGET)
        for _ in range(10):
            phases = rng.uniform(0.0, 2.0 * np.pi, 16)
            got = generic_snr(h_i, h_r, h_d, phases, p, BUDGET.p_tx_max, sigma_v2, sigma2)
            phase_ok = phase_ok and got <= opt * (1.0 + 1e-9)
        for scale in (0.9, 1.1):
            det = active_snr_at_amplification(
                scale * p, h_i, h_r, h_d,
                BUDGET.p_tx_max, unit.amp_power_max, sigma_v2, sigma2,
            )
            amp_ok = amp_ok and det <= opt * (1.0 + 1e-9)
    elapsed = time.perf_counter() - t0
    ok = phase_ok and amp_ok and elapsed < 10.0
    report(
        4,
        ok,
        f"1000 random phase vectors below optimum: {phase_ok}, "
        f"+-10% amplification below optimum: {amp_ok}, {elapsed:.2f}s (<10s)",
    )


def test_criterion_05_passive_quadratic_array_law():
    gammas, kernel = {}, {}
    # Deterministic legs with power-of-two amplitudes (2^-12 per surface
    # leg, no direct path) keep every sum of the production kernel exact.
    surface_leg = LinkStats(g=2.0**-24, k_factor=math.inf, g_k=1.0, rho=1.0, los=True)
    direct_leg = dataclasses.replace(surface_leg, g=0.0)
    for n in (4, 16, 64):
        gammas[n] = snr_optimal(
            np.full(n, 2e-4), np.full(n, 3e-5), 0.0, IrsUnit(n, "passive"), BUDGET
        )
        kernel[n] = snr_series(
            direct_leg, surface_leg, surface_leg, n, BUDGET,
            n_mc=4, seed_path=(0,), modes=("passive",),
        )["passive"]
    ok = gammas[16] / gammas[4] == 16.0 and gammas[64] / gammas[4] == 256.0
    ratios = [float(kernel[n][0] / kernel[4][0]) for n in (16, 64)]
    ok = ok and ratios == [16.0, 256.0] and all(np.all(g == g[0]) for g in kernel.values())
    report(
        5,
        ok,
        f"gamma ratios {gammas[16] / gammas[4]:g} and {gammas[64] / gammas[4]:g}, "
        f"snr_series ratios {ratios[0]:g} and {ratios[1]:g} (expected exactly 16 and 256)",
    )


def test_criterion_06_solver_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3000)
    ok = True
    for _ in range(50):
        u = int(rng.integers(2, 13))
        m = int(rng.integers(2, 13))
        j = int(rng.integers(1, min(4, m) + 1))
        v = rng.uniform(0.0, 10.0, size=(u, m))
        best, _ = brute_force_plan(v, j)
        matrix = MetricMatrix(
            rates=v,
            avg_snr_db=10.0 * np.log10(np.maximum(v, 1e-300)),
            mode="passive", n_elements=1, n_mc=1,
        )
        problem = PlanProblem(matrix=matrix, num_surfaces=j)
        ok = ok and solve_exact(problem).objective_value == best
        ok = ok and solve_bnb(problem).objective_value == best
        ok = ok and solve_greedy_swap(problem).objective_value <= best
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    report(6, ok, f"50 random instances matched enumeration, {elapsed:.2f}s (<30s)")


def test_criterion_07_objective_monotonicity(medium_bundle):
    t0 = time.perf_counter()
    ok = True
    details = []
    for mode, frozen_rate in (
        ("active", MEDIUM_RATE_ACTIVE),
        ("passive", MEDIUM_RATE_PASSIVE),
    ):
        matrix = medium_bundle["matrices"][1024][mode]
        rates = []
        for j in range(1, 7):
            sol = solve_bnb(PlanProblem(matrix=matrix, num_surfaces=j))
            ok = ok and sol.optimality == "proven_optimal"
            rates.append(sol.objective_value)
        ok = ok and all(b >= a for a, b in zip(rates, rates[1:]))
        ok = ok and np.allclose(rates, frozen_rate, rtol=1e-9)
        covs = []
        for j in range(1, 7):
            sol = solve_bnb(
                PlanProblem(
                    matrix=matrix, num_surfaces=j,
                    objective="coverage_count", threshold_db=35.0,
                )
            )
            ok = ok and sol.optimality == "proven_optimal"
            covs.append(sol.objective_value)
        ok = ok and all(b >= a for a, b in zip(covs, covs[1:]))
        if mode == "passive":
            ok = ok and covs == MEDIUM_COV35_PASSIVE
        details.append(f"{mode}: rate {rates[0]:.2f}->{rates[-1]:.2f}, "
                       f"cov35 {covs[0]:.2f}->{covs[-1]:.2f}")
    elapsed = time.perf_counter() - t0
    report(7, ok, f"nondecreasing in J=1..6 ({'; '.join(details)}), {elapsed:.1f}s")


def test_criterion_08_single_link_rate_study(sweep_result):
    rows = sweep_result["rows"]
    by = {}
    for r in rows:
        by.setdefault(r["variant"], {})[r["r_ai_m"]] = r["ergodic_rate_bps_hz"]
    gap = by["active64_q1"][50.0] - by["passive256_q1"][50.0]
    big_passive = all(
        by["passive4096_q1"][r] >= by["passive256_q1"][r] for r in by["passive256_q1"]
    )
    q1_beats_q3 = all(
        by["active64_q1"][r] >= by["active64_q3"][r]
        and by["passive256_q1"][r] >= by["passive256_q3"][r]
        for r in by["active64_q1"]
    )
    elapsed = sweep_result["elapsed"]
    ok = 6.0 <= gap <= 18.0 and big_passive and q1_beats_q3 and elapsed < 300.0
    report(
        8,
        ok,
        f"active64 - passive256 gap {gap:.2f} bps/Hz (in [6, 18]), "
        f"passive4096 >= passive256: {big_passive}, q1 >= q3: {q1_beats_q3}, "
        f"{elapsed:.1f}s (<300s)",
    )


def test_criterion_09_deployment_studies(medium_bundle, wide_coverage):
    t0 = time.perf_counter()
    fairness = []
    mean_rates = []
    for split in (1, 2, 4):
        matrices = medium_bundle["matrices"][1024 // split]
        sol_a = solve_bnb(PlanProblem(matrix=matrices["active"], num_surfaces=split))
        fairness.append(evaluate_plan(sol_a, matrices["active"]).fairness)
        sol_p = solve_bnb(PlanProblem(matrix=matrices["passive"], num_surfaces=split))
        mean_rates.append(evaluate_plan(sol_p, matrices["passive"]).mean_rate)
    medium_ok = (
        all(b >= a for a, b in zip(fairness, fairness[1:]))
        and mean_rates[-1] <= mean_rates[0]
        and np.allclose(fairness, SPLIT_FAIRNESS_ACTIVE, rtol=1e-9)
        and np.allclose(mean_rates, SPLIT_MEAN_RATE_PASSIVE, rtol=1e-9)
    )
    # Wide area, 30 dB threshold, equal per-surface element count (256) in
    # both modes: active coverage dominates passive at every surface count.
    ratios = {"active": {}, "passive": {}, "none": {}}
    for row in wide_coverage["rows"]:
        ratios[row["mode"]][row["num_surfaces"]] = row["coverage_ratio"]
    active = [ratios["active"][j] for j in range(1, 6)]
    passive = [ratios["passive"][j] for j in range(1, 6)]
    wide_ok = (
        all(a >= p for a, p in zip(active, passive))
        and active == WIDE_COV30_ACTIVE
        and passive == WIDE_COV30_PASSIVE
        and ratios["none"][0] == WIDE_COV30_BASELINE
    )
    elapsed = (
        medium_bundle["elapsed"] + wide_coverage["elapsed"] + time.perf_counter() - t0
    )
    ok = medium_ok and wide_ok and elapsed < 1200.0
    report(
        9,
        ok,
        f"active fairness {fairness[0]:.4f}<={fairness[1]:.4f}<={fairness[2]:.4f}, "
        f"passive rate {mean_rates[0]:.3f}->{mean_rates[-1]:.3f}, wide 30 dB active "
        f">= passive at every J: {wide_ok}, {elapsed:.1f}s (<1200s)",
    )


def test_criterion_10_deterministic_deploy(tmp_path):
    scenario = {
        "preset": "custom",
        "master_seed": 5,
        "surface": {"n_elements": 8, "n_total": 8},
        "mc": {"n_mc": 8},
        "layout": {
            "kind": "custom",
            "area_x": [-60.0, 60.0],
            "area_y": [-60.0, 60.0],
            "buildings": [[20.0, -20.0, 40.0, 20.0, 15.0]],
            "ues_xy": [[-30.0, 0.0], [0.0, -40.0], [50.0, 30.0]],
        },
        "deploy": {"splits": [1, 2], "solver": "exact"},
    }
    cfg_path = tmp_path / "tiny.yaml"
    cfg_path.write_text(yaml.safe_dump(scenario), encoding="utf-8")
    outputs = []
    for name in ("first.json", "second.json"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "irsplan", "deploy",
             "-c", str(cfg_path), "-o", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
    report(10, ok, f"two deploy runs byte-identical ({len(outputs[0])} bytes)")
