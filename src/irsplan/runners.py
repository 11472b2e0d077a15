"""Experiment drivers: link-rate sweep, split deployment, coverage study.

Each runner turns a ScenarioConfig into plain rows/dicts ready for CSV or
JSON serialization; surface metrics come from planner.build_metric_matrices
(the link sweep's too) and the no-surface baseline from direct_only_metrics.
The deploy and coverage studies share one set-up, _study: scene, spots,
plan-size check, stats grid, matrices, baseline, in that order.
Outputs embed the tool version and the scenario fingerprint, draws go
through seeded substreams and floats are emitted with repr precision, so
identical configurations produce byte-identical files.
"""

from __future__ import annotations

import numpy as np

from . import __version__
from .channel import LinkStats, leg_stats
from .config import ConfigError, ScenarioConfig, parse_variant, scenario_fingerprint
from .geometry import filter_candidates_by_ap_los, generate_candidate_spots, link_geometry
from .link import PowerBudget, rate_and_snr_db, snr_series
from .patterns import ErpModel, ap_pattern_value
from .planner import (
    MetricMatrix,
    PlanProblem,
    PlanSolution,
    StatsGrid,
    _extend_plan,
    build_metric_matrices,
    evaluate_plan,
    link_stats_grid,
    solve_bnb,
    solve_exact,
    solve_greedy_swap,
)
from .presets import build_scene
from .seeds import STREAM_DIRECT

def _solve(problem: PlanProblem, solver: str, node_budget: int) -> PlanSolution:
    if solver == "greedy":
        return solve_greedy_swap(problem)
    if solver == "bnb":
        return solve_bnb(problem, node_budget=node_budget)
    if solver == "exact":
        return solve_exact(problem, node_budget=node_budget)
    raise ValueError(f"unknown solver {solver!r}")


def header_meta(cfg: ScenarioConfig) -> dict:
    return {
        "tool": "irsplan",
        "version": __version__,
        "scenario": scenario_fingerprint(cfg),
        "preset": cfg.preset,
    }


def run_link_sweep(cfg: ScenarioConfig) -> dict:
    """Single-link ergodic rate versus the AP-surface ground distance.

    The surface slides along a straight street between the AP and a fixed
    far UE; the AP-surface and surface-UE legs are line-of-sight and the
    direct AP-UE link is not.  Each surface variant is a one-UE grid with a
    spot per distance, so all variants at one distance share fading draws
    (element draws are prefix-consistent across element counts); the
    no-surface baseline's distance-independent row is computed once.
    """
    sweep = cfg.sweep
    budget = cfg.budget()
    ap_pattern = cfg.ap_pattern()
    ap = (0.0, 0.0, cfg.ap.height)
    ue = (sweep.ue_x, sweep.ue_y, cfg.layout.ue_height)
    normal = (0.0, -1.0, 0.0)
    f_c = cfg.rf.f_c_ghz
    stats_d = leg_stats("ap_ue", ap, ue, f_c, False, ap_pattern=ap_pattern)
    spots = [(float(r_ai), sweep.irs_y, sweep.irs_z) for r_ai in sweep.r_ai_m]

    variants = [(label, *parse_variant(label)) for label in sweep.variants]
    if any(mode != "none" for _, mode, _, _ in variants):
        for pi, spot in enumerate(spots):
            try:  # the surface on a link end, or straight above the AP
                ap_pattern_value(ap_pattern, link_geometry(ap, spot).depression_deg)
                link_geometry(ue, spot)
            except ValueError as exc:
                raise ConfigError(f"sweep.r_ai_m[{pi}]: surface at {spot}: {exc}") from exc
    metrics = {}  # label -> (rate, avg SNR dB) per distance
    for label, mode, n_elements, q in variants:
        if mode == "none":
            rates, snr_db = direct_only_metrics((stats_d,), budget, sweep.n_mc, cfg.master_seed)
            metrics[label] = [(float(rates[0]), float(snr_db[0]))] * len(spots)
            continue
        erp = ErpModel(q)
        ap_irs = tuple(
            leg_stats("ap_irs", ap, s, f_c, True, ap_pattern=ap_pattern, erp=erp, normal=normal)
            for s in spots
        )
        irs_ue = tuple(leg_stats("irs_ue", ue, s, f_c, True, erp=erp, normal=normal) for s in spots)
        grid = StatsGrid((stats_d,), ap_irs, (irs_ue,))
        matrix = build_metric_matrices(
            grid, budget, n_elements=n_elements, n_mc=sweep.n_mc,
            master_seed=cfg.master_seed, modes=(mode,),
        )[mode]
        metrics[label] = list(zip(matrix.rates[0].tolist(), matrix.avg_snr_db[0].tolist()))
    rows = [
        {
            "r_ai_m": spot[0],
            "variant": label,
            "mode": mode,
            "n_elements": n_elements,
            "erp_exponent": q if q is not None else "",
            "ergodic_rate_bps_hz": metrics[label][pi][0],
            "avg_snr_db": metrics[label][pi][1],
        }
        for pi, spot in enumerate(spots)
        for label, mode, n_elements, q in variants
    ]
    return {"meta": header_meta(cfg), "rows": rows}


def candidate_spots(cfg: ScenarioConfig, scene) -> list:
    """Facade grid filtered to spots that see the AP from the front."""
    lay = cfg.layout
    try:
        raw = generate_candidate_spots(scene, lay.grid_w, lay.grid_h, lay.min_mount_height)
    except ValueError as exc:  # a grid too fine to enumerate
        raise ConfigError(f"layout.grid_w/grid_h: {exc}") from exc
    return filter_candidates_by_ap_los(raw, scene)


def scene_and_spots(cfg: ScenarioConfig) -> tuple:
    """The scene and its candidate spots; a ConfigError when the layout has
    no scene, no spot survives or a UE lies on a spot."""
    scene = build_scene(cfg)
    if scene is None:
        raise ConfigError("layout.kind: 'none' has no scene, so no spots")
    spots = candidate_spots(cfg, scene)
    if not spots:
        raise ConfigError("layout: no spots survive AP visibility filtering")
    on_spot = {s.position: s.id for s in spots}
    for i, ue in enumerate(scene.ues):
        if ue in on_spot:
            raise ConfigError(f"layout.ues_xy[{i}]: the UE lies on candidate spot {on_spot[ue]}")
    return scene, spots


def _spot_entry(spot) -> dict:
    return {
        "id": spot.id,
        "position": [float(c) for c in spot.position],
        "facet_normal": [float(c) for c in spot.facet_normal],
        "building": spot.building_index,
        "face": spot.face_index,
    }


def _plan_entry(
    mode: str,
    split: int,
    n_per_surface: int,
    solution: PlanSolution,
    matrix: MetricMatrix,
    spots,
    thresholds_db,
) -> dict:
    report = evaluate_plan(solution, matrix, thresholds_db)
    by_id = {s.id: s for s in spots}
    return {
        "mode": mode,
        "split": split,
        "n_per_surface": n_per_surface,
        "objective_value": solution.objective_value,
        "optimality": solution.optimality,
        "solver": solution.solve_stats.get("method", ""),
        "chosen_spots": [_spot_entry(by_id[c]) for c in solution.chosen_spots],
        "assignment": list(solution.assignment),
        "mean_rate_bps_hz": report.mean_rate,
        "fairness": report.fairness,
        "coverage": {f"{t:g}": r for t, r in report.coverage.items()},
    }


def direct_only_metrics(
    direct: tuple[LinkStats, ...],
    budget: PowerBudget,
    n_mc: int,
    master_seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-UE (rate, avg SNR dB) with no surface deployed at all."""
    u = len(direct)
    rates = np.empty(u)
    snr_db = np.empty(u)
    for ui in range(u):
        series = snr_series(
            direct[ui], None, None, 0, budget,
            n_mc=n_mc, seed_path=(master_seed, STREAM_DIRECT, ui), modes=("passive",),
        )
        rates[ui], snr_db[ui] = rate_and_snr_db(series["passive"])
    return rates, snr_db


def _study(cfg: ScenarioConfig, path: str, sizes, element_counts, modes) -> tuple:
    """The set-up of a deploy or coverage study: (scene, spots, MC metric
    matrices per element count, no-surface baseline (rates, avg SNR dB)).

    A plan size (at ``path``) larger than the spot count is refused before
    any grid work.
    """
    scene, spots = scene_and_spots(cfg)
    for size in sizes:
        if size > len(spots):
            raise ConfigError(f"{path}: {size} surfaces exceed the {len(spots)} candidate spots")
    budget = cfg.budget()
    grid = link_stats_grid(scene, spots, cfg.ap_pattern(), cfg.erp(), cfg.rf.f_c_ghz)
    matrices = {
        n: build_metric_matrices(
            grid, budget, n_elements=n, n_mc=cfg.mc.n_mc,
            master_seed=cfg.master_seed, modes=modes,
        )
        for n in dict.fromkeys(element_counts)
    }
    baseline = direct_only_metrics(grid.direct, budget, cfg.mc.n_mc, cfg.master_seed)
    return scene, spots, matrices, baseline


def run_deployment(cfg: ScenarioConfig) -> dict:
    """Plan deployments that split an element budget across 1..k surfaces.

    For every split k the element budget divides evenly over k surfaces
    (J = k placements) and the plan maximizing the configured objective is
    solved per surface mode.
    """
    dep = cfg.deploy
    n_total = cfg.surface.n_total
    scene, spots, matrices, (baseline_rates, baseline_snr) = _study(
        cfg, "deploy.splits", dep.splits, [n_total // split for split in dep.splits], dep.modes
    )
    results = []
    exhausted = False
    for split in dep.splits:
        n_per = n_total // split
        for mode in dep.modes:
            matrix = matrices[n_per][mode]
            problem = PlanProblem(
                matrix=matrix,
                num_surfaces=split,
                objective=dep.objective,
                threshold_db=dep.threshold_db,
            )
            solution = _solve(problem, dep.solver, dep.node_budget)
            if solution.optimality != "proven_optimal" and dep.solver != "greedy":
                exhausted = True
            results.append(
                _plan_entry(
                    mode, split, n_per, solution, matrix, spots, dep.report_thresholds_db
                )
            )
    return {
        "meta": header_meta(cfg),
        "num_spots": len(spots),
        "num_ues": scene.num_ues,
        "n_total": n_total,
        "objective": dep.objective,
        "no_surface": {
            "mean_rate_bps_hz": float(baseline_rates.mean()),
            "coverage": {
                f"{t:g}": float(np.mean(baseline_snr >= t))
                for t in dep.report_thresholds_db
            },
        },
        "results": results,
        "budget_exhausted": exhausted,
    }


def run_coverage(cfg: ScenarioConfig) -> dict:
    """Covered-UE ratio versus the number of deployed surfaces.

    Every surface keeps the full per-surface element count here (no budget
    split); the planner maximizes the number of UEs whose average SNR meets
    the threshold.  For heuristic solvers each J is additionally warm
    started with the previous J's choice plus its best single extension, so
    the reported ratios are nondecreasing in J by construction.
    """
    cov = cfg.coverage
    n = cfg.surface.n_elements
    scene, spots, matrices, (_, baseline_snr) = _study(
        cfg, "coverage.num_surfaces", cov.num_surfaces, [n], cov.modes
    )
    rows = []
    exhausted = False
    for threshold in cov.thresholds_db:
        rows.append(
            {
                "mode": "none",
                "num_surfaces": 0,
                "threshold_db": float(threshold),
                "coverage_ratio": float(np.mean(baseline_snr >= threshold)),
                "optimality": "proven_optimal",
            }
        )
        for mode in cov.modes:
            prev: PlanSolution | None = None
            for j in sorted(cov.num_surfaces):
                problem = PlanProblem(
                    matrix=matrices[n][mode],
                    num_surfaces=j,
                    objective="coverage_count",
                    threshold_db=float(threshold),
                )
                solution = _solve(problem, cov.solver, cov.node_budget)
                if solution.optimality != "proven_optimal" and cov.solver != "greedy":
                    exhausted = True
                if prev is not None and solution.objective_value < prev.objective_value:
                    extended = _extend_plan(problem, prev)
                    if extended.objective_value > solution.objective_value:
                        solution = extended
                rows.append(
                    {
                        "mode": mode,
                        "num_surfaces": j,
                        "threshold_db": float(threshold),
                        "coverage_ratio": solution.objective_value,
                        "optimality": solution.optimality,
                    }
                )
                prev = solution
    return {
        "meta": header_meta(cfg),
        "num_spots": len(spots),
        "num_ues": scene.num_ues,
        "rows": rows,
        "budget_exhausted": exhausted,
    }
